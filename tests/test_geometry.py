import random
from fractions import Fraction
from itertools import product

import pytest

from clusterkit.completion import CompletelyExtendedLinearQuiver, LinearQuiver, triangulation_of
from clusterkit.errors import NegativeInput, NotInW, NotTypeA
from clusterkit.geometry import (
    Triangulation,
    decompose,
    positive_split,
    quiver_of,
    require_in_w,
    satisfies_property_a,
    sigma,
    sigma_int,
    support_of,
    triangulation_for,
)
from clusterkit.harness import random_type_a_quiver
from clusterkit.pipelines import build_pipelines
from clusterkit.quiver import Quiver
from clusterkit.svg import pipelines_svg
from conftest import path_quiver
from reference import CrossingDiagonals, b_vectors, d_vector_of


def test_sigma_values():
    assert sigma(2, 2, 2) == 1
    assert sigma(0, 0, 5) == 0
    assert sigma(3, 1, 1) == 1  # first argument dominates
    assert sigma(1, 3, 1) == 1
    assert sigma(1, 2, 2) == Fraction(1, 2)
    with pytest.raises(NegativeInput):
        sigma(-1, 0, 0)


def test_sigma_two_closed_forms_agree():
    def by_cases(x, y, z):
        if y > x + z:
            return x
        if x > y + z:
            return y
        if z > x + y:
            return 0
        return Fraction(x + y - z, 2)

    for x, y, z in product(range(8), repeat=3):
        assert sigma(x, y, z) == by_cases(x, y, z)
        assert sigma(x, y, z) == sigma(y, x, z)


def test_sigma_int_is_sigma_on_integers():
    for x, y, z in product(range(9), repeat=3):
        if isinstance(sigma(x, y, z), Fraction):
            with pytest.raises(NotInW):
                sigma_int(x, y, z)
        else:
            assert sigma_int(x, y, z) == sigma(x, y, z)
    for bad in ((-1, 0, 0), (0, -2, 1), (3, 3, -1)):
        with pytest.raises(NegativeInput):
            sigma_int(*bad)


def test_sigma_symmetry_bound_on_triples():
    rng = random.Random(3)
    for x, y, z in product(range(21), repeat=3):
        if x > 20 or y > 20:
            continue
        assert sigma(x, y, z) == sigma(y, x, z)
    # overlap bound on parity-valid triples
    count = 0
    while count < 200:
        a = tuple(rng.randint(0, 9) for _ in range(3))
        x, y, z = a
        if x > 0 and y > 0 and z > 0 and x < y + z and y < x + z and z < x + y \
                and (x + y + z) % 2:
            continue
        assert sigma(z, x, y) + sigma(y, z, x) <= max(z, 0)
        count += 1


def test_property_a(three_cycle):
    assert satisfies_property_a(three_cycle, (2, 2, 2))
    assert not satisfies_property_a(three_cycle, (1, 1, 1))
    # no triangles: everything allowed
    for a in product(range(-2, 3), repeat=3):
        assert satisfies_property_a(path_quiver(3), a)


def test_triangulation_of_round_trip():
    for n in range(1, 8):
        for delta in product((0, 1), repeat=n - 1):
            celq = CompletelyExtendedLinearQuiver(LinearQuiver(n, delta))
            t = triangulation_of(celq)
            assert quiver_of(t) == LinearQuiver(n, delta).quiver()
            # every edge a vertex, boundary edges frozen, arrows by ccw rotation
            arrows = [arrow for _, (s0, s1, s2) in t.triangles()
                      for arrow in ((s0, s2), (s2, s1), (s1, s0))]
            induced = Quiver(2 * t.n + 3, tuple(arrows), frozenset(range(t.n + 1, 2 * t.n + 4)))
            assert set(induced.arrows) == set(celq.quiver().arrows)
            assert induced.frozen == celq.quiver().frozen


def test_triangulation_of_square():
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(1, ()))
    t = triangulation_of(celq)
    assert t.size == 4 and t.n == 1
    assert set(t.edges[1]) == {1, 3}


def _boundary(size: int, first_label: int) -> dict[int, tuple[int, int]]:
    edges = {first_label + k: (k, k + 1) for k in range(size - 1)}
    edges[first_label + size - 1] = (0, size - 1)
    return edges


@pytest.mark.parametrize("size, diagonals", [
    (4, {1: (0, 2), 2: (1, 3)}),             # a square with both diagonals
    (5, {1: (0, 2)}),                        # a pentagon short of a diagonal
    (6, {1: (0, 2), 2: (2, 4), 3: (1, 5)}),  # a hexagon with a crossing
])
def test_faces_of_an_edge_map_that_is_no_triangulation(size, diagonals):
    """An edge whose span holds no apex, or more than one, is refused."""
    n = size - 3
    t = Triangulation(size, n, {**diagonals, **_boundary(size, size)})
    with pytest.raises(NotTypeA):
        t.triangles()


def test_cross_reads_pairs_in_either_order():
    t = Triangulation(6, 3, _boundary(6, 4))
    for d in product(range(6), repeat=2):
        for e in product(range(6), repeat=2):
            if d[0] != d[1] and e[0] != e[1]:
                want = t.cross(tuple(sorted(d)), tuple(sorted(e)))
                assert t.cross(d, e) == t.cross(e, d) == want, (d, e)
    assert t.cross((3, 0), (5, 1)) and not t.cross((0, 3), (3, 5))
    assert not t.cross((4, 1), (2, 3))


def test_triangulation_for_random_quivers():
    rng = random.Random(11)
    for _ in range(40):
        q = random_type_a_quiver(rng.randint(1, 8), rng)
        t = triangulation_for(q)
        assert quiver_of(t) == q


def test_decompose_three_cycle(three_cycle):
    assert decompose(three_cycle, (2, 2, 2)) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert decompose(three_cycle, (0, 0, 0)) == ()
    with pytest.raises(NotInW):
        decompose(three_cycle, (1, 1, 1))
    with pytest.raises(NotInW):
        decompose(three_cycle, (-1, 0, 0))


def test_require_in_w_checks_type_a_then_length_then_parity(three_cycle):
    square = Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    with pytest.raises(NotTypeA):
        require_in_w(square, (1, 1, 1))  # also too short
    with pytest.raises(NotInW, match="vector length 4 != 3"):
        require_in_w(three_cycle, (1, 1, 1, 0))  # also an odd triangle
    with pytest.raises(NotInW, match=r"\(1, 1, 1\) violates the parity condition on 3-cycles"):
        require_in_w(three_cycle, [1, 1, 1])
    assert require_in_w(three_cycle, [2, -1, 2]) == (2, -1, 2)  # signs are not checked


def test_decompose_checks_the_zero_vector(three_cycle):
    """The all-zero shortcut comes after the d-vector check."""
    with pytest.raises(NotInW, match="vector length 2 != 3"):
        decompose(three_cycle, (0, 0))
    with pytest.raises(NotTypeA):
        decompose(Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1))), (0, 0, 0, 0))


def test_support_and_positive_split():
    assert support_of((0, 2, -1, 0, 1)) == [2, 3, 5]
    assert support_of(()) == []
    assert positive_split(path_quiver(4), (2, -3, 0, 1)) == ((2, 0, 0, 1), (0, 3, 0, 0))


def test_decompose_seven_vertex_example(seven_mixed):
    got = decompose(seven_mixed, (3, 3, 3, 2, 4, 3, 1))
    supports = sorted(tuple(i + 1 for i, x in enumerate(b) if x) for b in got)
    assert supports == [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 5, 7),
                        (3, 4, 5, 6), (3, 5, 6)]
    total = [sum(b[i] for b in got) for i in range(7)]
    assert total == [3, 3, 3, 2, 4, 3, 1]


def test_single_diagonal_pipeline(three_cycle):
    ps = build_pipelines(three_cycle, (1, 0, 0))
    assert len(ps.pipelines) == 1
    assert ps.pipelines[0].b_vector == (1, 0, 0)
    assert [c[0] for c in ps.pipelines[0].crossings] == [1]


def test_pipeline_crossing_counts_match_sigma(three_cycle):
    # triples where every arc crosses exactly two of the three sides, i.e.
    # the (non-strict) triangle inequalities hold
    rng = random.Random(21)
    done = 0
    while done < 200:
        a = tuple(rng.randint(0, 6) for _ in range(3))
        x, y, z = a
        if not (x <= y + z and y <= x + z and z <= x + y):
            continue
        if not satisfies_property_a(three_cycle, a):
            continue
        ps = build_pipelines(three_cycle, a)
        pair_counts = {
            (1, 2): sum(1 for p in ps.pipelines if p.b_vector[0] and p.b_vector[1]),
            (2, 3): sum(1 for p in ps.pipelines if p.b_vector[1] and p.b_vector[2]),
            (1, 3): sum(1 for p in ps.pipelines if p.b_vector[0] and p.b_vector[2]),
        }
        assert pair_counts[(1, 2)] == sigma(x, y, z)
        assert pair_counts[(2, 3)] == sigma(y, z, x)
        assert pair_counts[(1, 3)] == sigma(z, x, y)
        assert pair_counts[(1, 2)] + pair_counts[(1, 3)] == x
        assert pair_counts[(1, 2)] + pair_counts[(2, 3)] == y
        assert pair_counts[(2, 3)] + pair_counts[(1, 3)] == z
        done += 1


def test_positive_split(three_cycle):
    plus, neg = positive_split(three_cycle, (-2, 0, 3))
    assert plus == (0, 0, 3) and neg == (2, 0, 0)
    plus, neg = positive_split(three_cycle, (-1, 0, 0))
    assert plus == (0, 0, 0) and neg == (1, 0, 0)


def test_d_vector_of(three_cycle):
    t = triangulation_for(three_cycle)
    d1 = t.edges[1]
    assert d_vector_of([d1, d1, d1], t) == (-3, 0, 0)
    # a pipeline endpoint pair crosses the diagonals it passes through
    ps = build_pipelines(three_cycle, (1, 1, 0))
    arc = ps.pipelines[0].endpoints
    assert d_vector_of([arc], t) == (1, 1, 0)
    with pytest.raises(CrossingDiagonals):
        d_vector_of([arc, t.edges[1]], t)


def test_pipelines_d_vector_round_trip():
    rng = random.Random(2)
    quivers = [Quiver(3, ((1, 2), (2, 3), (3, 1))), path_quiver(3),
               random_type_a_quiver(4, rng)]
    for q in quivers:
        t = triangulation_for(q)
        for a in product(range(-2, 4), repeat=q.n):
            if not satisfies_property_a(q, a):
                continue
            plus, neg = positive_split(q, a)
            ps = build_pipelines(q, plus)
            diagonals = ps.as_diagonal_multiset()
            diagonals += [t.edges[i + 1] for i, e in enumerate(neg)
                          for _ in range(e)]
            assert d_vector_of(diagonals, t) == tuple(a)


def test_decomposition_supports_are_paths():
    rng = random.Random(17)
    from clusterkit.quiver import path_order

    for _ in range(25):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        a = tuple(rng.randint(0, 3) for _ in range(q.n))
        if not satisfies_property_a(q, a):
            continue
        for b in decompose(q, a):
            support = {i + 1 for i, x in enumerate(b) if x}
            assert path_order(q, support) is not None


def test_pipelines_svg_smoke(three_cycle):
    ps = build_pipelines(three_cycle, (2, 2, 2))
    svg = pipelines_svg(ps)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 6


def test_cached_triangulation_is_shared_and_read_only(seven_mixed):
    t = triangulation_for(seven_mixed)
    assert triangulation_for(seven_mixed) is t
    with pytest.raises(TypeError):
        t.edges[1] = (0, 2)
    assert t.edges == dict(t.edges)
    assert quiver_of(t) == seven_mixed


def test_decompose_path_support_matches_pipelines():
    from clusterkit.quiver import linear_full_subquivers

    rng = random.Random(1604)
    for _ in range(30):
        q = random_type_a_quiver(rng.randint(2, 12), rng)
        for support in linear_full_subquivers(q):
            b = tuple(1 if v in support else 0 for v in q.vertices)
            expected = tuple(sorted(b_vectors(build_pipelines(q, b))))
            assert decompose(q, b) == expected == (b,)


def test_decompose_orders_each_factor_along_its_path():
    """Each factor comes with its support in the order `path_order` gives,
    also when that order is read off a pipeline's crossings."""
    from clusterkit import geometry
    from clusterkit.quiver import path_order

    rng = random.Random(2020)
    pipelined = 0
    for _ in range(40):
        q = random_type_a_quiver(rng.randint(2, 8), rng)
        for _ in range(30):
            try:
                a, support = geometry._require_nonnegative(
                    q, [rng.choice((0, 0, 1, 2)) for _ in q.vertices], "test")
            except NotInW:
                continue
            parts = geometry._decompose(q, a, support)
            pipelined += len(parts) > 1
            for b, order in parts:
                assert order == path_order(q, support_of(b))
    assert pipelined > 100


def test_triangulation_of_a_long_path_needs_no_recursion():
    q = path_quiver(1500)
    t = triangulation_for(q)
    assert t.size == 1503
    assert quiver_of(t) == q
