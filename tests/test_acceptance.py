"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL
line, asserting exact equality at the stated tolerances and runtime caps."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from clusterkit import bijections, engine, formulas, geometry, harness, scattering, snake
from clusterkit.laurent import LaurentPoly, canonical_string, poly_product
from clusterkit.quiver import (
    Quiver,
    complete_extension,
    linear_full_subquivers,
)
from conftest import path_quiver
from reference import (certify_travel_bounds, d_vector_of, g_vector_by_formula,
                       substitution_then_rename)

x = LaurentPoly.variable

THREE_CYCLE = Quiver(3, ((1, 2), (2, 3), (3, 1)))
SEVEN_MIXED = Quiver(7, ((2, 1), (2, 3), (3, 5), (5, 2), (5, 6), (6, 7), (7, 5), (3, 4)))
SEVEN_TABLE = Quiver(7, ((1, 2), (2, 5), (5, 1), (2, 6), (6, 3), (3, 2), (3, 4), (6, 7)))
FOUR_TRIANGLE = Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3)))


@contextmanager
def criterion(number: int, label: str, limit_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"ACCEPTANCE {number} FAIL  {label} (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded {limit_seconds}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} PASS  {label} ({elapsed:.2f}s)")


def variable_support(q, sup):
    return tuple(1 if v + 1 in set(sup) else 0 for v in range(q.n))


def poly_from(numerator_terms, denominator) -> LaurentPoly:
    den = {v: -e for v, e in denominator.items()}
    terms = []
    for t in numerator_terms:
        merged = dict(den)
        for v, e in t.items():
            merged[v] = merged.get(v, 0) + e
        terms.append(LaurentPoly.monomial(merged))
    acc = LaurentPoly.zero()
    for t in terms:
        acc = acc + t
    return acc


def test_criterion_1_three_cycle_monomial():
    with criterion(1, "3-cycle x[2,2,2] agrees across four routes, 27 witnesses", 1.0):
        q = THREE_CYCLE
        a = (2, 2, 2)
        expected = (x(1) + x(2) + x(3)) ** 3 * LaurentPoly.monomial(
            {1: -2, 2: -2, 3: -2})
        # mutation oracle on the completed quiver of each factor + substitution
        oracle_parts = []
        for b in geometry.decompose(q, a):
            comp = complete_extension(q, [i + 1 for i, bit in enumerate(b) if bit])
            table = engine.enumerate_cluster_variables(comp.celq.quiver())
            lifted = table[(1,) * comp.celq.n]
            oracle_parts.append(substitution_then_rename(comp, lifted))
        assert poly_product(oracle_parts) == expected
        assert formulas.formula_gcs(q, a) == expected
        assert harness.expand_model(q, a, "gcc") == expected
        assert harness.expand_model(q, a, "linear-gcc") == expected
        assert sum(1 for _ in formulas.enumerate_gcs(q, a)) == 27
        assert sum(1 for _ in formulas.enumerate_gcc(q, a)) == 27


# the fourteen tabulated variables of the seven-vertex fixture
SEVEN_TABLE_VALUES = [
    ((1, 0, 0, 0, 0, 0, 0), [{2: 1}, {5: 1}], {1: 1}),
    ((0, 1, 0, 0, 0, 0, 0), [{1: 1, 3: 1}, {5: 1, 6: 1}], {2: 1}),
    ((0, 0, 1, 0, 0, 0, 0), [{2: 1, 4: 1}, {6: 1}], {3: 1}),
    ((0, 0, 0, 1, 0, 0, 0), [{}, {3: 1}], {4: 1}),
    ((1, 1, 0, 0, 0, 0, 0), [{1: 1, 3: 1}, {2: 1, 6: 1}, {5: 1, 6: 1}], {1: 1, 2: 1}),
    ((0, 1, 1, 0, 0, 0, 0), [{1: 1, 3: 1}, {2: 1, 4: 1, 5: 1}, {5: 1, 6: 1}],
     {2: 1, 3: 1}),
    ((0, 0, 1, 1, 0, 0, 0), [{2: 1, 4: 1}, {3: 1, 6: 1}, {6: 1}], {3: 1, 4: 1}),
    ((1, 0, 0, 0, 1, 0, 0), [{1: 1}, {2: 1}, {5: 1}], {1: 1, 5: 1}),
    ((0, 0, 1, 0, 0, 1, 0), [{2: 1, 4: 1}, {6: 1}, {3: 1, 4: 1, 7: 1}], {3: 1, 6: 1}),
    ((1, 1, 1, 0, 0, 0, 0),
     [{5: 1, 6: 1}, {2: 1, 4: 1, 5: 1}, {2: 1, 6: 1}, {2: 2, 4: 1}, {1: 1, 3: 1}],
     {1: 1, 2: 1, 3: 1}),
    ((0, 1, 1, 0, 1, 0, 0),
     [{1: 1, 3: 1}, {2: 1, 3: 1}, {2: 1, 4: 1, 5: 1}, {5: 1, 6: 1}],
     {2: 1, 3: 1, 5: 1}),
    ((0, 1, 1, 1, 0, 0, 0),
     [{1: 1, 3: 1}, {1: 1, 3: 2}, {2: 1, 4: 1, 5: 1}, {5: 1, 6: 1}, {3: 1, 5: 1, 6: 1}],
     {2: 1, 3: 1, 4: 1}),
    ((0, 0, 1, 1, 0, 1, 0),
     [{2: 1, 4: 1}, {6: 1}, {3: 1, 6: 1}, {3: 1, 4: 1, 7: 1}],
     {3: 1, 4: 1, 6: 1}),
    ((1, 1, 1, 1, 0, 0, 0),
     [{1: 1, 3: 1}, {1: 1, 3: 2}, {2: 2, 4: 1}, {2: 1, 4: 1, 5: 1}, {2: 1, 6: 1},
      {2: 1, 3: 1, 6: 1}, {5: 1, 6: 1}, {3: 1, 5: 1, 6: 1}],
     {1: 1, 2: 1, 3: 1, 4: 1}),
]


def test_criterion_2_seven_vertex_table():
    with criterion(2, "seven-vertex quiver reproduces all 14 tabulated variables", 5.0):
        q = SEVEN_TABLE
        for dvec, numerator, denominator in SEVEN_TABLE_VALUES:
            expected = poly_from(numerator, denominator)
            for model in harness.MODELS:
                got = harness.expand_model(q, dvec, model)
                assert got == expected, (dvec, model)


def test_criterion_3_decomposition():
    with criterion(3, "pipeline decomposition of (3,3,3,2,4,3,1) and factorization"):
        q = SEVEN_MIXED
        a = (3, 3, 3, 2, 4, 3, 1)
        got = geometry.decompose(q, a)
        expected = tuple(sorted([
            (1, 1, 1, 1, 0, 0, 0),
            (1, 1, 0, 0, 1, 1, 0),
            (1, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 1, 1, 1, 0),
            (0, 0, 1, 0, 1, 1, 0),
        ]))
        assert got == expected
        whole = harness.expand_model(q, a, "gcc")
        parts = poly_product(harness.expand_model(q, b, "gcc") for b in got)
        assert parts == whole


def test_criterion_4_broken_line_example():
    with criterion(4, "four-vertex broken-line walk: directions, walls, bends"):
        q = FOUR_TRIANGLE
        sup = [1, 2, 3]
        assert g_vector_by_formula(q, sup) == (0, -1, 0, 0)
        rel = scattering.relabel_for_path(q, sup)
        ws = scattering.w_sequence(rel, (0, 0, 0))
        assert ws.walls == (2, 3, 1)
        line = bijections.broken_line_from_gcs(q, sup, (0, 0, 0))
        assert line.directions[1] == (-1, -1, -1, 1)
        assert line.directions[2] == (-1, 0, -1, 1)
        assert line.directions[3] == (-1, 1, -1, 0)
        assert line.final_monomial() == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})
        q1, q2, q3, q4 = scattering.default_endpoint(3, 4).coords
        assert line.bends[2] == (Fraction(0), q2 + q1, q3 - q1, q4)
        assert line.bends[1] == (q1 - q3, q2 + q1, Fraction(0), q4 + q3 - q1)
        assert line.bends[0] == (-q3 - q2, Fraction(0), -q2 - q1, q4 + q3 + q2)


def test_criterion_5_differential_suite():
    with criterion(5, "200 random quivers: five models agree on every variable",
                   300.0):
        five = ("mutation", "gcs", "gcc", "matching", "tpath")
        rng = random.Random(20260808)
        for _ in range(200):
            n = rng.randint(2, 8)
            q = harness.random_type_a_quiver(n, rng)
            for sup in linear_full_subquivers(q):
                b = variable_support(q, sup)
                values = {}
                counts = {}
                for model in five:
                    values[model] = harness.expand_model(q, b, model)
                    counts[model] = harness.witness_count(q, b, model)
                forms = {canonical_string(v) for v in values.values()}
                assert len(forms) == 1, (q.arrows, b, forms)
                assert len(set(counts.values())) == 1, (q.arrows, b, counts)
                assert all(c > 0 for c in values["mutation"].terms.values())
        for n in range(2, 8):
            table = engine.enumerate_cluster_variables(path_quiver(n))
            assert len(table) == n * (n + 3) // 2


def test_criterion_6_bijection_suites():
    with criterion(6, "matching/witness/path bijections round-trip exactly"):
        from clusterkit.quiver import CompletelyExtendedLinearQuiver, LinearQuiver

        for n in range(1, 7):
            for delta in product((0, 1), repeat=n - 1):
                celq = CompletelyExtendedLinearQuiver(LinearQuiver(n, tuple(delta)))
                d = snake.build_snake(celq)
                matchings = snake.enumerate_matchings(d)
                witnesses = list(formulas.enumerate_linear_gcc(celq))
                assert len(matchings) == len(witnesses)
                for gamma in matchings:
                    w = bijections.psi_matching_to_gcc(d, gamma)
                    assert bijections.psi_gcc_to_matching(d, w) == gamma
                for w in witnesses:
                    gamma = bijections.psi_gcc_to_matching(d, w)
                    assert bijections.psi_matching_to_gcc(d, gamma) == w
                    assert formulas.linear_gcc_weight(celq, w) == snake.matching_weight(gamma)
                if n > 5:
                    continue
                t = geometry.triangulation_of(celq)
                for gamma in matchings:
                    theta = bijections.fold(d, gamma)
                    assert bijections.unfold(d, theta) == gamma
                for alpha in snake.triangulation_tpaths(t, celq):
                    theta = bijections.complete_path(celq, alpha)
                    assert bijections.reduce_path(theta).labels == alpha.labels
                    assert theta.value() == alpha.value()
                    assert bijections.fold(d, bijections.unfold(d, theta)) == theta
        # bit-sequence <-> collection translation on quivers with triangles
        cases = [(THREE_CYCLE, (2, 2, 2)), (THREE_CYCLE, (3, 2, 1)),
                 (THREE_CYCLE, (2, 4, 2))]
        celq11 = CompletelyExtendedLinearQuiver(LinearQuiver(4, (0, 0, 1)))
        q11 = Quiver(11, celq11.quiver().arrows)
        cases.append((q11, (1, 1, 1, 1) + (0,) * 7))
        for q, a in cases:
            gcc_list = list(formulas.enumerate_gcc(q, a))
            base = formulas.term_base(q, a)
            for s in formulas.enumerate_gcs(q, a):
                g = bijections.gcs_to_gcc(q, a, s)
                assert g in gcc_list
                assert bijections.gcc_to_gcs(q, a, g) == s
                assert formulas.gcs_weight(q, a, s, base) == formulas.gcc_weight(g, base)


def test_criterion_7_dvector_parametrization():
    with criterion(7, "pipelines invert the d-vector map on the test box"):
        quivers = [THREE_CYCLE, FOUR_TRIANGLE]
        for q in quivers:
            t = geometry.triangulation_for(q)
            for a in product(range(-2, 4), repeat=q.n):
                if not geometry.satisfies_property_a(q, a):
                    continue
                plus, neg = geometry.positive_split(q, a)
                ps = geometry.build_pipelines(q, plus)
                diagonals = ps.as_diagonal_multiset()
                diagonals += [t.edges[i + 1] for i, e in enumerate(neg)
                              for _ in range(e)]
                assert d_vector_of(diagonals, t) == tuple(a)
        assert not geometry.satisfies_property_a(THREE_CYCLE, (1, 1, 1))
        for a in product(range(-1, 3), repeat=3):
            assert geometry.satisfies_property_a(path_quiver(3), a)


def test_criterion_8_broken_line_certificates():
    with criterion(8, "broken-line certificates hold and theta equals the oracle"):
        rng = random.Random(4242)
        for _ in range(50):
            n = rng.randint(2, 6)
            q = harness.random_type_a_quiver(n, rng)
            for sup in linear_full_subquivers(q):
                rel = scattering.relabel_for_path(q, list(sup))
                lines = scattering.broken_lines(q, list(sup))
                endpoint = scattering.default_endpoint(
                    rel.n, q.n, principal=lines[0].principal if lines else False)
                for line in lines:
                    assert all(t > 0 for t in line.travels)
                    for i, w in enumerate(line.walls, start=1):
                        # pairing of the previous direction with the inward
                        # wall normal is exactly one
                        assert line.directions[i - 1][w - 1] == -1
                    certify_travel_bounds(line, endpoint)
                theta = scattering.theta_from_broken_lines(q, list(sup))
                b = variable_support(q, sup)
                assert theta == engine.cluster_variable(q, b)
