import random
from itertools import product

from clusterkit.bijections import (
    CompleteTPath,
    _edge_rank,
    complete_path,
    fold,
    psi_gcc_to_matching,
    psi_matching_to_gcc,
    reduce_path,
    unfold,
)
from clusterkit.engine import enumerate_cluster_variables
from clusterkit.errors import InvalidInput
from clusterkit.formulas import enumerate_linear_gcc, linear_gcc_weight
from clusterkit.geometry import triangulation_of
from clusterkit.harness import random_type_a_quiver
from clusterkit.laurent import LaurentPoly
from clusterkit.quiver import (
    CompletelyExtendedLinearQuiver,
    LinearQuiver,
    complete_extension,
    linear_full_subquivers,
)
from clusterkit.snake import (
    TPath,
    build_snake,
    enumerate_matchings,
    matching_weight,
    triangulation_tpaths,
)
from clusterkit.svg import snake_svg
from conftest import whole_path_value
from reference import substitution_then_rename


def celq_of(delta) -> CompletelyExtendedLinearQuiver:
    return CompletelyExtendedLinearQuiver(LinearQuiver(len(delta) + 1, tuple(delta)))


def all_celqs(max_n):
    for n in range(1, max_n + 1):
        for delta in product((0, 1), repeat=n - 1):
            yield celq_of(delta) if n > 1 else CompletelyExtendedLinearQuiver(
                LinearQuiver(1, ()))


def test_build_snake_three_tiles():
    celq = celq_of((0, 0))
    d = build_snake(celq)
    assert d.tiles == ((0, 0), (1, 0), (1, 1))


def test_collinearity_tracks_direction_sequence():
    for celq in all_celqs(6):
        d = build_snake(celq)
        for i in range(2, celq.n):
            t0, t1, t2 = d.tiles[i - 2], d.tiles[i - 1], d.tiles[i]
            collinear = (t0[0] == t1[0] == t2[0]) or (t0[1] == t1[1] == t2[1])
            assert collinear == (celq.delta[i - 2] != celq.delta[i - 1])


def test_single_tile_has_two_matchings():
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(1, ()))
    d = build_snake(celq)
    ms = enumerate_matchings(d)
    assert len(ms) == 2
    weights = {tuple(sorted(matching_weight(g).terms)) for g in ms}
    assert weights == {
        tuple(sorted(LaurentPoly.monomial({celq.start0: 1, celq.end0: 1}).terms)),
        tuple(sorted(LaurentPoly.monomial({celq.start1: 1, celq.end1: 1}).terms)),
    }


def test_every_matching_hits_each_group_once():
    for celq in all_celqs(5):
        d = build_snake(celq)
        for gamma in enumerate_matchings(d):
            assert len(gamma) == celq.n + 1
            for gi, lbl in enumerate(gamma):
                assert lbl in d.pl_groups[gi]


def test_psi_figure_example(eleven_complete):
    celq = celq_of((0, 0, 1))
    d = build_snake(celq)
    gamma = (6, ("d", 1, 1), 8, ("d", 3, 3), 10)
    w = psi_matching_to_gcc(d, gamma)
    assert w.pairs == ((0, 1), (0, 0), (1, 0))
    assert psi_gcc_to_matching(d, w) == gamma


def test_psi_round_trips_and_weights():
    for celq in all_celqs(6):
        d = build_snake(celq)
        matchings = enumerate_matchings(d)
        witnesses = list(enumerate_linear_gcc(celq))
        assert len(matchings) == len(witnesses)
        for gamma in matchings:
            w = psi_matching_to_gcc(d, gamma)
            assert psi_gcc_to_matching(d, w) == gamma
            # edge factors equal the matched edge weights, term by term
            assert linear_gcc_weight(celq, w) == matching_weight(gamma)
        for w in witnesses:
            gamma = psi_gcc_to_matching(d, w)
            assert psi_matching_to_gcc(d, gamma) == w


def test_matching_formula_equals_linear_gcc():
    for celq in all_celqs(7):
        assert whole_path_value(celq, "matching") == whole_path_value(celq, "linear-gcc")


def test_tpath_conditions_and_counts():
    for celq in all_celqs(6):
        t = triangulation_of(celq)
        paths = triangulation_tpaths(t, celq)
        d = build_snake(celq)
        assert len(paths) == len(enumerate_matchings(d))
        for p in paths:
            assert len(p.labels) % 2 == 1
            assert len(set(p.labels)) == len(p.labels)
            for k in range(1, len(p.labels), 2):
                assert p.labels[k] <= t.n  # even positions cross the chord


def test_tpath_formula_equality():
    for celq in all_celqs(7):
        assert whole_path_value(celq, "tpath") == whole_path_value(celq, "linear-gcc")


def test_models_match_oracle_on_completed_quiver():
    for celq in all_celqs(5):
        q = celq.quiver()
        table = enumerate_cluster_variables(q)
        assert table[(1,) * celq.n] == whole_path_value(celq, "matching")


def test_tpath_figure_example():
    celq = celq_of((0, 0, 1))
    t = triangulation_of(celq)
    paths = triangulation_tpaths(t, celq)
    assert (5, 1, 9, 4, 11) in {p.labels for p in paths}


def test_fold_unfold_figure_example():
    celq = celq_of((0, 0, 1))
    d = build_snake(celq)
    alpha = TPath((5, 1, 9, 4, 11))
    theta = complete_path(celq, alpha)
    assert theta.labels == (5, 1, 2, 2, 3, 3, 9, 4, 11)
    gamma = unfold(d, theta)
    assert gamma == (5, ("d", 2, 1), ("d", 3, 2), 9, 11)
    assert fold(d, gamma) == theta
    assert reduce_path(theta).labels == alpha.labels
    assert psi_matching_to_gcc(d, gamma).pairs == ((1, 0), (1, 0), (0, 0))


def test_fold_unfold_round_trip_all():
    for celq in all_celqs(5):
        d = build_snake(celq)
        t = triangulation_of(celq)
        for gamma in enumerate_matchings(d):
            theta = fold(d, gamma)
            assert unfold(d, theta) == gamma
            # value preserved up to the common diagonal denominator
            prefix = LaurentPoly.monomial({i: -1 for i in range(1, celq.n + 1)})
            assert theta.value() == prefix * matching_weight(gamma)
        for alpha in triangulation_tpaths(t, celq):
            theta = complete_path(celq, alpha)
            assert theta.value() == alpha.value()
            assert reduce_path(theta).labels == alpha.labels
            gamma = unfold(d, theta)
            assert fold(d, gamma) == theta


def test_composite_bijection_chain():
    # witness -> matching -> complete path -> reduced path preserves values
    for celq in all_celqs(5):
        d = build_snake(celq)
        t = triangulation_of(celq)
        path_values = {p.labels: p.value() for p in triangulation_tpaths(t, celq)}
        seen = set()
        prefix = LaurentPoly.monomial({i: -1 for i in range(1, celq.n + 1)})
        for w in enumerate_linear_gcc(celq):
            gamma = psi_gcc_to_matching(d, w)
            alpha = reduce_path(fold(d, gamma))
            assert alpha.labels in path_values
            assert alpha.labels not in seen
            seen.add(alpha.labels)
            assert path_values[alpha.labels] == prefix * matching_weight(gamma)
        assert seen == set(path_values)


def test_already_complete_path_untouched():
    celq = celq_of((0,))
    t = triangulation_of(celq)
    for alpha in triangulation_tpaths(t, celq):
        theta = complete_path(celq, alpha)
        if len(alpha.labels) == 2 * celq.n + 1:
            assert theta.labels == alpha.labels


def test_beta_weights_from_table_quiver(seven_table):
    # the completed path on vertices 1,2,3 has five matchings whose weights,
    # pushed back to ambient labels, have these numerators over x1*x2*x3
    comp = complete_extension(seven_table, [1, 2, 3])
    celq = comp.celq
    d = build_snake(celq)
    prefix = LaurentPoly.monomial({i: -1 for i in range(1, celq.n + 1)})
    got = set()
    for gamma in enumerate_matchings(d):
        value = substitution_then_rename(comp, prefix * matching_weight(gamma))
        got.add(tuple(sorted(value.terms)))
    base = {1: -1, 2: -1, 3: -1}
    expected_numerators = [
        {5: 1, 6: 1}, {2: 1, 4: 1, 5: 1}, {2: 1, 6: 1}, {2: 2, 4: 1}, {1: 1, 3: 1},
    ]
    expected = set()
    for num in expected_numerators:
        merged = dict(base)
        for v, e in num.items():
            merged[v] = merged.get(v, 0) + e
        expected.add(tuple(sorted(LaurentPoly.monomial(merged).terms)))
    assert got == expected


def test_snake_svg_smoke():
    celq = celq_of((0, 1))
    d = build_snake(celq)
    gamma = enumerate_matchings(d)[0]
    svg = snake_svg(d, gamma)
    assert svg.startswith("<svg") and "stroke-width=\"4\"" in svg


def test_complete_tpath_is_nondecreasing():
    rng = random.Random(9)
    for celq in all_celqs(5):
        t = triangulation_of(celq)
        rank = _edge_rank(celq)
        for alpha in triangulation_tpaths(t, celq):
            theta = complete_path(celq, alpha)
            ranks = [rank[lbl] for lbl in theta.labels]
            assert ranks == sorted(ranks)
            assert isinstance(theta, CompleteTPath)


def _recursive_matchings(d):
    """The recursive enumerator that enumerate_matchings replaced: depth-first,
    the first uncovered vertex by a linear scan, edges in incidence order."""
    vertices = d.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    edges = sorted(d.label_of_edge, key=lambda e: (index[e[0]], index[e[1]]))
    incident = {i: [] for i in range(len(vertices))}
    for e in edges:
        incident[index[e[0]]].append(e)
        incident[index[e[1]]].append(e)
    group_of = {lbl: gi for gi, grp in enumerate(d.pl_groups) for lbl in grp}
    out = []

    def rec(covered, chosen):
        if covered == (1 << len(vertices)) - 1:
            gamma = [None] * len(d.pl_groups)
            for e in chosen:
                lbl = d.label_of_edge[e]
                gi = group_of[lbl]
                if gamma[gi] is not None:
                    raise InvalidInput("matching hits one group twice")
                gamma[gi] = lbl
            if any(g is None for g in gamma):
                raise InvalidInput("matching misses a group")
            out.append(tuple(gamma))
            return
        v = next(i for i in range(len(vertices)) if not covered >> i & 1)
        for e in incident[v]:
            i1, i2 = index[e[0]], index[e[1]]
            if covered >> i1 & 1 or covered >> i2 & 1:
                continue
            chosen.append(e)
            rec(covered | 1 << i1 | 1 << i2, chosen)
            chosen.pop()

    rec(0, [])
    return sorted(out, key=lambda g: [str(x) for x in g])


def test_stack_enumerator_equals_the_recursive_one():
    """Seeded snakes: every direction sequence up to 8 tiles and the paths of
    random type-A quivers give the same matchings in the same order."""
    snakes = [build_snake(celq) for celq in all_celqs(8)]
    rng = random.Random(9191)
    for _ in range(40):
        q = random_type_a_quiver(rng.randint(2, 9), rng)
        snakes += [build_snake(complete_extension(q, list(sup)).celq)
                   for sup in linear_full_subquivers(q)]
    assert len(snakes) > 1000
    for d in snakes:
        assert enumerate_matchings(d) == _recursive_matchings(d)

