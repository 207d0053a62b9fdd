import random
from itertools import product

import pytest

from clusterkit.bijections import gcc_to_gcs, gcs_to_gcc
from clusterkit.engine import cluster_variable
from clusterkit.errors import AssumptionViolated, NotInW, Unreachable
from clusterkit.formulas import (
    base_vertex_distance,
    choose_base_vertex,
    enumerate_gcc,
    enumerate_gcs,
    enumerate_linear_gcc,
    enumerate_variable_gcs,
    formula_gcs,
    gcc_weight,
    gcs_weight,
    linear_gcc_weight,
    term_base,
    variable_gcs_k_set,
    variable_gcs_monomial,
)
from clusterkit import harness
from clusterkit.geometry import decompose, satisfies_property_a, sigma
from clusterkit.harness import expand_model, random_type_a_quiver
from clusterkit.laurent import LaurentPoly, poly_product
from clusterkit.quiver import (
    CompletelyExtendedLinearQuiver,
    LinearQuiver,
    Quiver,
    complete_extension,
    linear_full_subquivers,
    oriented_three_cycles,
    three_cycle_completion,
)
from conftest import whole_path_value
from reference import poly_sum, substitution_then_rename

x = LaurentPoly.variable


def cube_over_squares():
    p = x(1) + x(2) + x(3)
    return p ** 3 * LaurentPoly.monomial({1: -2, 2: -2, 3: -2})


def test_base_vertex_distance(three_cycle):
    assert base_vertex_distance(three_cycle, 1) == {1: 0, 2: 1, 3: 2}
    with pytest.raises(Unreachable):
        base_vertex_distance(Quiver(2, ((1, 2),)), 2)


def test_choose_base_vertex(eleven_complete):
    i0, dist = choose_base_vertex(eleven_complete)
    assert eleven_complete.degree(i0) == 2
    assert dist[i0] == 0
    spot = base_vertex_distance(eleven_complete, 5)
    assert spot[5] == 0 and spot[6] == 1 and spot[1] == 2
    assert all(v in spot for v in eleven_complete.vertices)


def test_enumerate_gcs_counts(three_cycle):
    assert sum(1 for _ in enumerate_gcs(three_cycle, (2, 2, 2), 1)) == 27
    assert list(enumerate_gcs(three_cycle, (0, 0, 0), 1)) == [((), (), ())]
    with pytest.raises(NotInW):
        list(enumerate_gcs(three_cycle, (1, 1, 1), 1))


def test_formula_gcs_three_cycle(three_cycle):
    assert formula_gcs(three_cycle, (2, 2, 2), 1) == cube_over_squares()
    assert formula_gcs(three_cycle, (0, 0, 0)) == LaurentPoly.one()


def test_enumerate_gcs_lexicographic_order(three_cycle):
    seqs = list(enumerate_gcs(three_cycle, (2, 2, 2), 1))
    flat = [sum(s, ()) for s in seqs]
    assert flat == sorted(flat)
    assert flat[0] == (0,) * 6 and flat[-1] == (1,) * 6


def test_formula_gcs_base_vertex_independent(three_cycle, eleven_complete):
    for q, a in ((three_cycle, (2, 2, 2)),
                 (eleven_complete, (1, 1, 1, 1) + (0,) * 7),
                 (eleven_complete, (2, 2, 0, 0) + (0,) * 7)):
        values = {formula_gcs(q, a, i0)
                  for i0 in q.vertices if q.degree(i0) == 2}
        assert len(values) == 1


def test_formula_gcs_refuses_uncovered_edge(a2):
    with pytest.raises(AssumptionViolated):
        formula_gcs(a2, (1, 1))


def test_enumerate_gcc_three_cycle(three_cycle):
    gccs = list(enumerate_gcc(three_cycle, (2, 2, 2)))
    assert len(gccs) == 27
    assert expand_model(three_cycle, (2, 2, 2), "gcc") == cube_over_squares()
    # some collection's bare product (before the global denominator) is x1^2*x2
    target = LaurentPoly.monomial({1: 2, 2: 1}) * LaurentPoly.monomial({1: -2, 2: -2, 3: -2})
    base = term_base(three_cycle, (2, 2, 2))
    terms = [gcc_weight(g, base) for g in gccs]
    assert target in terms


def test_gcc_gcs_bijection_round_trip(three_cycle, eleven_complete):
    cases = [(three_cycle, (2, 2, 2)), (three_cycle, (3, 2, 1)),
             (eleven_complete, (1, 1, 1, 1) + (0,) * 7)]
    for q, a in cases:
        gcs_list = list(enumerate_gcs(q, a))
        gcc_list = list(enumerate_gcc(q, a))
        assert len(gcs_list) == len(gcc_list)
        base = term_base(q, a)
        seen = set()
        for s in gcs_list:
            g = gcs_to_gcc(q, a, s)
            assert g in gcc_list
            assert gcc_to_gcs(q, a, g) == s
            seen.add(g)
            # the translation preserves the per-witness exponent vector
            assert gcs_weight(q, a, s, base) == gcc_weight(g, base)
        assert len(seen) == len(gcc_list)


def test_gcs_to_gcc_extremes(three_cycle):
    a = (2, 2, 2)
    all_ones = tuple((1,) * 2 for _ in range(3))
    g = gcs_to_gcc(three_cycle, a, all_ones)
    for (_, s1, s2) in g.chosen:
        assert s1 == frozenset({1, 2}) and s2 == frozenset()
    all_zero = tuple((0,) * 2 for _ in range(3))
    g = gcs_to_gcc(three_cycle, a, all_zero)
    for (_, s1, s2) in g.chosen:
        assert s1 == frozenset() and s2 == frozenset({1, 2})


def test_formula_linear_gcc_two_vertex():
    # completed 2-vertex path: the three witnesses give x2*s0*e0, x1*s1*e1,
    # mid*s1*e0, matching the collection-to-matching weight table
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(2, (0,)))
    ys = {tuple(sorted(linear_gcc_weight(celq, w).terms))
          for w in enumerate_linear_gcc(celq)}
    expected = {
        tuple(sorted(LaurentPoly.monomial({2: 1, celq.start0: 1, celq.end0: 1}).terms)),
        tuple(sorted(LaurentPoly.monomial({1: 1, celq.start1: 1, celq.end1: 1}).terms)),
        tuple(sorted(LaurentPoly.monomial(
            {celq.mid(1): 1, celq.start1: 1, celq.end0: 1}).terms)),
    }
    assert ys == expected
    value = whole_path_value(celq, "linear-gcc")
    subs = value.substitute_one(
        {celq.start0, celq.start1, celq.end0, celq.end1}).rename({celq.mid(1): 3})
    assert subs == (x(1) + x(2) + x(3)) * LaurentPoly.monomial({1: -1, 2: -1})


def test_linear_gcc_counts_match_matchings(seven_table):
    from clusterkit.snake import build_snake, enumerate_matchings

    comp = complete_extension(seven_table, [1, 2, 3])
    celq = comp.celq
    n_gcc = sum(1 for _ in enumerate_linear_gcc(celq))
    n_match = len(enumerate_matchings(build_snake(celq)))
    n_gcs = sum(1 for _ in enumerate_gcs(
        celq.quiver(), (1,) * celq.n + (0,) * (celq.n + 3)))
    assert n_gcc == n_match == n_gcs == 5


def test_variable_gcs_table_entry(seven_table):
    # the 5 markings of the path on vertices 1,2,3
    markings = list(enumerate_variable_gcs(seven_table, [1, 2, 3]))
    assert sorted(markings) == [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    assert variable_gcs_k_set(seven_table, [1, 2, 3]) == {5, 6}
    value = expand_model(seven_table, (1, 1, 1, 0, 0, 0, 0), "gcs-variable")
    num = [
        {5: 1, 6: 1}, {2: 1, 4: 1, 5: 1}, {2: 1, 6: 1}, {2: 2, 4: 1}, {1: 1, 3: 1},
    ]
    expected = poly_sum(
        LaurentPoly.monomial({**m, 1: m.get(1, 0) - 1, 2: m.get(2, 0) - 1,
                              3: m.get(3, 0) - 1}) for m in num)
    assert value == expected


def test_variable_gcs_five_markings(four_with_triangle):
    markings = set(enumerate_variable_gcs(four_with_triangle, [1, 2, 3]))
    assert markings == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)}
    mono = variable_gcs_monomial(four_with_triangle, [1, 2, 3], (0, 0, 0))
    assert mono == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})


def test_formula_gcs_variable_singleton(seven_table):
    value = expand_model(seven_table, (1, 0, 0, 0, 0, 0, 0), "gcs-variable")
    assert value == (x(2) + x(5)) * LaurentPoly.variable(1, -1)


def test_gcc_multiplicative_over_decomposition(three_cycle, seven_mixed):
    cases = [(three_cycle, (2, 2, 2)), (three_cycle, (2, 4, 2)),
             (seven_mixed, (3, 3, 3, 2, 4, 3, 1))]
    for q, a in cases:
        q2, added = three_cycle_completion(q)
        a2 = a + (0,) * (q2.n - q.n)
        whole = expand_model(q2, a2, "gcc")
        parts = [expand_model(q2, b + (0,) * (q2.n - q.n), "gcc")
                 for b in decompose(q, a)]
        assert poly_product(parts) == whole


def test_formulas_match_oracle_random():
    rng = random.Random(101)
    checked = 0
    while checked < 30:
        q = random_type_a_quiver(rng.randint(2, 5), rng)
        a = tuple(rng.randint(0, 3) for _ in range(q.n))
        if not satisfies_property_a(q, a):
            continue
        oracle = expand_model(q, a, "mutation")
        assert expand_model(q, a, "gcs") == oracle
        assert expand_model(q, a, "gcc") == oracle
        checked += 1


def test_formula_gcs_variable_matches_completion_route():
    rng = random.Random(55)
    for _ in range(12):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            b = tuple(1 if v + 1 in set(sup) else 0 for v in range(q.n))
            direct = expand_model(q, b, "gcs-variable")
            comp = complete_extension(q, list(sup))
            routed = substitution_then_rename(comp, whole_path_value(comp.celq, "linear-gcc"))
            assert direct == routed == cluster_variable(q, b)


def test_all_ones_marking_gives_g_vector(four_with_triangle):
    from reference import g_vector_by_formula

    mono = variable_gcs_monomial(four_with_triangle, [1, 2, 3], (1, 1, 1))
    g = g_vector_by_formula(four_with_triangle, [1, 2, 3])
    assert mono == LaurentPoly.monomial({i + 1: e for i, e in enumerate(g) if e})


def test_gcs_gcc_counts_match_matchings_on_completion(seven_table):
    q2, _ = three_cycle_completion(seven_table)
    for sup in linear_full_subquivers(seven_table):
        b = tuple(1 if v + 1 in set(sup) else 0 for v in range(seven_table.n))
        a2 = b + (0,) * (q2.n - seven_table.n)
        n_gcs = sum(1 for _ in enumerate_gcs(q2, a2))
        value = cluster_variable(seven_table, b)
        assert n_gcs == value.coefficient_sum()


def _exponents_without_base(q, a, witness_part) -> dict[int, int]:
    """Reference term exponents (before the denominator) that recompute every
    sigma overlap per witness: the witness part, minus one overlap per
    triangle rotation."""
    e = {v: 0 for v in q.vertices}
    for v, k in witness_part:
        e[v] += k
    for (i, j, k) in oriented_three_cycles(q):
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            e[x] -= sigma(a[y - 1], a[z - 1], a[x - 1])
    return e


def test_hoisted_base_matches_per_witness_exponents():
    rng = random.Random(2718)
    for n in range(2, 9):
        q = random_type_a_quiver(n, rng)
        q2, added = three_cycle_completion(q)
        scope = harness._scope_dvectors(q, 2)
        for plus in rng.sample(scope, min(30, len(scope))):
            a = plus + (0,) * len(added)
            base = term_base(q2, a)
            for s in enumerate_gcs(q2, a):
                old = _exponents_without_base(q2, a, [
                    pair for (t, h) in q2.arrows
                    for pair in ((t, a[h - 1] - sum(s[h - 1])), (h, sum(s[t - 1])))])
                want = LaurentPoly.monomial({v: old[v] - a[v - 1] for v in q2.vertices})
                assert gcs_weight(q2, a, s, term_base(q2, a)) == want
                assert gcs_weight(q2, a, s, base) == want
            for g in enumerate_gcc(q2, a):
                old = _exponents_without_base(q2, a, [
                    pair for ((i, j), s1, s2) in g.chosen for pair in ((i, len(s2)), (j, len(s1)))])
                want = LaurentPoly.monomial({v: old[v] - a[v - 1] for v in q2.vertices})
                assert gcc_weight(g, term_base(q2, a)) == want
                assert gcc_weight(g, base) == want
