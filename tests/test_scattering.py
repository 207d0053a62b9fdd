import random
from fractions import Fraction

import pytest

from clusterkit import scattering
from clusterkit.engine import cluster_variable, g_vector_by_formula
from clusterkit.errors import EndpointRejected, OddRankWithoutPrincipal
from clusterkit.formulas import enumerate_variable_gcs, variable_gcs_k_set
from clusterkit.harness import random_type_a_quiver
from clusterkit.laurent import LaurentPoly, poly_sum
from clusterkit.quiver import Quiver, linear_full_subquivers, oriented_three_cycles
from clusterkit.scattering import (
    Endpoint,
    adjustable_positions,
    broken_line_from_gcs,
    broken_line_svg,
    broken_lines,
    default_endpoint,
    g_direction,
    principal_broken_line,
    relabel_for_path,
    theta_from_broken_lines,
    validate_endpoint,
    w_sequence,
    witness_monomial,
)
from conftest import path_quiver


def test_adjustable_positions(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    assert adjustable_positions(rel, (1, 1, 1)) == []
    assert adjustable_positions(rel, (0, 0, 0)) == [1, 3]
    assert adjustable_positions(rel, (1, 0, 0)) == [3]
    assert adjustable_positions(rel, (1, 0, 1)) == [2]


def test_adjustable_nonempty_random():
    rng = random.Random(31)
    for _ in range(50):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            for s in enumerate_variable_gcs(q, list(sup)):
                if any(b == 0 for b in s):
                    assert adjustable_positions(rel, s)


def test_w_sequence_example(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    ws = w_sequence(rel, (0, 0, 0))
    assert ws.ell == 3
    assert ws.walls == (2, 3, 1)
    assert ws.chain == ((1, 1, 1), (1, 0, 1), (1, 0, 0), (0, 0, 0))
    full = w_sequence(rel, (1, 1, 1))
    assert full.ell == 0 and full.walls == ()


def test_w_sequence_length_is_zero_count():
    rng = random.Random(32)
    for _ in range(30):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            for s in enumerate_variable_gcs(q, list(sup)):
                ws = w_sequence(rel, s)
                assert ws.ell == sum(1 for b in s if b == 0)
                assert sorted(ws.walls) == [r + 1 for r, b in enumerate(s) if b == 0]


def test_g_direction_example(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    assert g_direction(rel, (1, 1, 1)) == (0, -1, 0, 0)
    assert g_direction(rel, (1, 0, 1)) == (-1, -1, -1, 1)
    assert g_direction(rel, (1, 0, 0)) == (-1, 0, -1, 1)
    assert g_direction(rel, (0, 0, 0)) == (-1, 1, -1, 0)


def test_g_direction_matches_g_vector():
    from clusterkit.engine import g_vector_by_formula

    rng = random.Random(33)
    for _ in range(25):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            m0 = g_direction(rel, (1,) * rel.n)
            expected = g_vector_by_formula(rel.quiver, list(range(1, rel.n + 1)))
            assert m0 == expected


def test_default_endpoint_values():
    ep = default_endpoint(3, 4)
    assert ep.eps == Fraction(1, 6)
    assert ep.coords == (Fraction(1, 36), Fraction(1, 6), Fraction(1), Fraction(1, 1296))
    assert (1 + ep.eps) ** 3 == Fraction(343, 216)
    ep1 = default_endpoint(1, 2)
    assert ep1.coords[0] == 1


def test_endpoint_validation_rejects_bad_order():
    with pytest.raises(EndpointRejected):
        validate_endpoint(Endpoint((Fraction(1), Fraction(1, 6), Fraction(1, 36),
                                    Fraction(1, 1296)), Fraction(1, 6), 3, 4))
    with pytest.raises(EndpointRejected):
        validate_endpoint(Endpoint((Fraction(1, 2), Fraction(1)), Fraction(2, 3), 2, 2))


def test_broken_line_example(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    assert line.walls == (2, 3, 1)
    assert line.directions == ((0, -1, 0, 0), (-1, -1, -1, 1),
                               (-1, 0, -1, 1), (-1, 1, -1, 0))
    assert line.final_monomial() == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})
    q1, q2, q3, q4 = default_endpoint(3, 4).coords
    assert line.bends[2] == (0, q2 + q1, q3 - q1, q4)
    assert line.bends[1] == (-q3 + q1, q2 + q1, 0, q4 + q3 - q1)
    assert line.bends[0] == (-q3 - q2, 0, -q2 - q1, q4 + q3 + q2)
    # straight line for the all-ones marking
    straight = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (1, 1, 1))
    assert straight.ell == 0
    assert straight.final_monomial() == LaurentPoly.monomial({2: -1})


def test_broken_line_attached_monomials(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    monos = line.monomials()
    assert monos[0] == LaurentPoly.monomial({2: -1})
    assert monos[1] == LaurentPoly.monomial({1: -1, 2: -1, 3: -1, 4: 1})
    assert monos[2] == LaurentPoly.monomial({1: -1, 3: -1, 4: 1})
    assert monos[3] == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})


def test_odd_rank_requires_principal():
    q = path_quiver(3)
    with pytest.raises(OddRankWithoutPrincipal):
        broken_line_from_gcs(q, [1, 2], (1, 1))
    line = principal_broken_line(q, [1, 2], (0, 0))
    assert line.principal
    assert len(line.endpoint) == 6


def test_principal_lift_of_example(four_with_triangle):
    # the doubled direction vectors append the indicator of crossed walls
    lines = {l.s: l for l in broken_lines(four_with_triangle, [1, 2, 3],
                                          principal=True)}
    line = lines[(0, 0, 0)]
    assert line.directions[0][4:] == (0, 0, 0, 0)
    assert line.directions[1][4:] == (0, 1, 0, 0)   # first bend on wall 2
    assert line.directions[2][4:] == (0, 1, 1, 0)
    assert line.directions[3][4:] == (1, 1, 1, 0)
    restricted = line.final_monomial().substitute_one(range(5, 9))
    assert restricted == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})


def test_theta_equals_oracle(four_with_triangle):
    theta = theta_from_broken_lines(four_with_triangle, [1, 2, 3])
    assert theta == cluster_variable(four_with_triangle, (1, 1, 1, 0))


def test_theta_termwise_matches_witness_monomials():
    rng = random.Random(41)
    for _ in range(15):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            npr = q.n
            for line in broken_lines(q, list(sup)):
                mono = line.final_monomial()
                if line.principal:
                    mono = mono.substitute_one(range(npr + 1, 2 * npr + 1))
                assert mono.rename(rel.to_old) == witness_monomial(q, list(sup), line.s)


def test_single_vertex_theta():
    q = path_quiver(2)
    theta = theta_from_broken_lines(q, [1])
    assert theta == cluster_variable(q, (1, 0))
    lines = broken_lines(q, [1])
    assert sorted(line.ell for line in lines) == [0, 1]


def test_wall_sequences_distinct():
    rng = random.Random(47)
    for _ in range(15):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            walls = [line.walls for line in broken_lines(q, list(sup))]
            assert len(set(walls)) == len(walls)


def test_bend_certificates():
    rng = random.Random(53)
    for _ in range(10):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            for line in broken_lines(q, list(sup)):
                for t in line.travels:
                    assert t > 0
                for i, w in enumerate(line.walls, start=1):
                    # bend pairing: previous direction meets the wall normal in 1
                    assert line.directions[i - 1][w - 1] == -1
                    assert line.bends[i - 1][w - 1] == 0
                    for r in range(1, q.n + 1):
                        if r != w:
                            assert line.bends[i - 1][r - 1] != 0


def test_broken_line_svg_smoke(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    svg = broken_line_svg(line, (1, 2))
    assert svg.startswith("<svg")


def test_degree_helpers_equal_full_arrow_scans():
    """g_direction, variable_gcs_k_set and g_vector_by_formula read the
    adjacency; they must equal the scans over every arrow they replaced."""
    rng = random.Random(808)
    for _ in range(20):
        q = random_type_a_quiver(rng.randint(2, 8), rng)
        for sup in linear_full_subquivers(q):
            vs = set(sup)
            deg_in = {r: sum(1 for t, h in q.arrows if h == r and t in vs) for r in q.vertices}
            deg_out = {r: sum(1 for t, h in q.arrows if t == r and h in vs) for r in q.vertices}
            assert variable_gcs_k_set(q, sup) == {
                k for k in q.vertices if k not in vs and deg_in[k] == deg_out[k] == 1}
            assert g_vector_by_formula(q, sup) == tuple(
                deg_in[r] - 1 if r in vs else int((deg_out[r], deg_in[r]) == (0, 1))
                for r in q.vertices)
            rel = relabel_for_path(q, list(sup))
            r_arrows = rel.quiver.arrows
            closers = {x for cycle in oriented_three_cycles(rel.quiver) for x in cycle
                       if x > rel.n and sum(v <= rel.n for v in cycle) == 2}
            for s in enumerate_variable_gcs(q, list(sup)):
                assert g_direction(rel, s) == tuple(
                    sum(1 for t, h in r_arrows if h == r and t <= rel.n and s[t - 1] == 1)
                    + sum(1 for t, h in r_arrows if t == r and h <= rel.n and s[h - 1] == 0)
                    - (r <= rel.n or r in closers)
                    for r in rel.quiver.vertices)


def test_broken_lines_relabel_once_per_call(monkeypatch, four_with_triangle):
    calls = []
    original = scattering.relabel_for_path

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(scattering, "relabel_for_path", counted)
    lines = broken_lines(four_with_triangle, [1, 2, 3])
    assert len(lines) > 1 and len(calls) == 1
