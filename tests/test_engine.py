import random
import time

import pytest

from clusterkit import engine, geometry, harness
from clusterkit.engine import (
    Seed,
    cluster_variable,
    enumerate_cluster_variables,
    enumerate_seeds,
    exact_divide,
    initial_seed,
    mutate_seed,
    principal_quiver,
    variable_mutation_sequence,
)
from clusterkit.errors import (
    DisconnectedQuiver,
    ExplosionGuard,
    FrozenVertex,
    InexactDivision,
    InvalidInput,
    NotAClusterVariableDVector,
    NotHomogeneous,
    NotInW,
    NotLinearSubquiver,
    NotTypeA,
)
from clusterkit.harness import MODELS, crosscheck, expand_model, random_type_a_quiver
from clusterkit.laurent import LaurentPoly, mono
from clusterkit.quiver import Quiver, linear_full_subquivers
from conftest import path_quiver
from reference import (exchange_matrix, g_vector_by_formula, g_vector_by_multidegree,
                       mutate_seed_sequence, principal_lift)

x = LaurentPoly.variable


def test_exact_divide():
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert exact_divide(p, x(1) + x(2)) == x(1) - x(2)
    assert exact_divide(LaurentPoly.zero(), x(1)) == LaurentPoly.zero()
    with pytest.raises(InexactDivision):
        exact_divide(x(1) + x(2), LaurentPoly.integer(2))
    with pytest.raises(InexactDivision):
        exact_divide(x(1) + LaurentPoly.one(), x(2) + LaurentPoly.one())


def test_mutate_seed_a2(a2):
    s = mutate_seed(initial_seed(a2), 1)
    assert s.entry(1) == exact_divide(x(2) + LaurentPoly.one(), x(1))
    # involution
    assert mutate_seed(s, 1) == initial_seed(a2)


def test_seed_reaches_table_entry(seven_table):
    s = mutate_seed(initial_seed(seven_table), 1)
    expected = (x(2) + x(5)) * LaurentPoly.variable(1, -1)
    assert s.entry(1) == expected


def test_enumerate_counts():
    assert len(enumerate_cluster_variables(path_quiver(2))) == 5
    assert len(enumerate_cluster_variables(path_quiver(3))) == 9
    for n in range(2, 8):
        table = enumerate_cluster_variables(path_quiver(n))
        assert len(table) == n * (n + 3) // 2


def test_dvector_keys_are_linear_subquivers(three_cycle):
    table = enumerate_cluster_variables(three_cycle)
    keys = set(table)
    initials = {tuple(-1 if i == j else 0 for i in range(3)) for j in range(3)}
    supports = {tuple(1 if v + 1 in set(sup) else 0 for v in range(3))
                for sup in linear_full_subquivers(three_cycle)}
    assert keys == initials | supports


def test_positivity_of_coefficients(seven_mixed):
    for poly in enumerate_cluster_variables(seven_mixed).values():
        assert all(c > 0 for c in poly.terms.values())


def test_one_term_divisor_needs_every_coefficient_to_divide():
    term = LaurentPoly.monomial
    p = term({1: 1, 2: 1}, coeff=2) + term({2: 2}, coeff=3)  # 2 does not divide 3
    assert exact_divide(p, x(2)) == term({1: 1}, coeff=2) + term({2: 1}, coeff=3)
    with pytest.raises(InexactDivision):
        exact_divide(p, term({2: 1}, coeff=2))


def test_one_term_branch_equals_elimination():
    rng = random.Random(606)

    def random_mono():
        return mono({v: rng.randint(-3, 3) for v in rng.sample(range(1, 7), rng.randint(0, 4))})

    for _ in range(200):
        q = LaurentPoly.from_terms((random_mono(), rng.choice((-5, -2, -1, 1, 3, 7)))
                                   for _ in range(rng.randint(1, 12)))
        d = LaurentPoly({random_mono(): rng.choice((-3, -1, 1, 2, 4))})
        p = q * d
        assert exact_divide(p, d) == LaurentPoly(engine._eliminate(p.terms, d.terms)) == q


def test_mutation_counts_a_long_zig_zag_path_fast():
    n = 18
    zig_zag = Quiver(n, tuple((i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)))
    start = time.perf_counter()
    assert harness.witness_count(zig_zag, (1,) * n, "mutation") == 6765  # Fibonacci F_20
    assert time.perf_counter() - start < 5


def test_max_seeds_must_be_positive(three_cycle):
    with pytest.raises(InvalidInput):
        enumerate_cluster_variables(three_cycle, max_seeds=-5)


def test_explosion_guard():
    markov = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 1), (3, 1)))
    with pytest.raises(ExplosionGuard):
        list(enumerate_seeds(markov, max_seeds=50))


def test_finite_type_guard_reads_only_unfrozen_arrows():
    """A double arrow to a frozen vertex keeps the type finite, and D4, which
    is not type A, still gives its 16 variables."""
    q = Quiver(3, ((1, 2), (1, 3), (1, 3)), frozenset({3}))
    assert len(enumerate_cluster_variables(q)) == 5
    assert len(enumerate_cluster_variables(Quiver(4, ((1, 2), (3, 2), (4, 2))))) == 16


def test_cluster_variable_matches_bfs():
    rng = random.Random(4)
    for _ in range(6):
        q = random_type_a_quiver(rng.randint(2, 5), rng)
        table = enumerate_cluster_variables(q)
        for sup in linear_full_subquivers(q):
            b = tuple(1 if v + 1 in set(sup) else 0 for v in range(q.n))
            assert cluster_variable(q, b) == table[b]
        # initial variables
        for j in range(q.n):
            unit = tuple(-1 if i == j else 0 for i in range(q.n))
            assert cluster_variable(q, unit) == x(j + 1)


def test_principal_lift_a2(a2):
    lift = principal_lift(a2, (1, 0))
    assert lift == (x(2) + x(3)) * LaurentPoly.variable(1, -1)
    assert lift.substitute_one({3, 4}) == cluster_variable(a2, (1, 0))


def test_principal_lift_specializes():
    rng = random.Random(8)
    for _ in range(5):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            b = tuple(1 if v + 1 in set(sup) else 0 for v in range(q.n))
            lift = principal_lift(q, b)
            plain = lift.substitute_one(range(q.n + 1, 2 * q.n + 1))
            assert plain == cluster_variable(q, b)


def test_principal_homogeneity(four_with_triangle):
    b = exchange_matrix(four_with_triangle)
    seed = initial_seed(principal_quiver(four_with_triangle))
    rng = random.Random(13)
    for _ in range(20):
        v = rng.randint(1, 4)
        seed = mutate_seed(seed, v)
        for i in range(1, 5):
            g_vector_by_multidegree(seed.entry(i), b)  # must not raise


def test_g_vector_formula_example(four_with_triangle):
    assert g_vector_by_formula(four_with_triangle, [1, 2, 3]) == (0, -1, 0, 0)
    with pytest.raises(NotLinearSubquiver):
        g_vector_by_formula(four_with_triangle, [1, 2, 4])


def test_g_vector_source_is_minus_one():
    q = path_quiver(3)
    g = g_vector_by_formula(q, [1, 2])
    assert g[0] == -1  # vertex 1 has no incoming arrow inside the path


def test_g_vector_formula_matches_multidegree(seven_table, four_with_triangle):
    for q in (seven_table, four_with_triangle):
        b = exchange_matrix(q)
        for sup in linear_full_subquivers(q):
            bvec = tuple(1 if v + 1 in set(sup) else 0 for v in range(q.n))
            lift = principal_lift(q, bvec)
            assert g_vector_by_multidegree(lift, b) == g_vector_by_formula(q, sup)


def test_multidegree_of_initials():
    b = exchange_matrix(path_quiver(3))
    for i in range(1, 4):
        g = g_vector_by_multidegree(x(i), b)
        assert g == tuple(1 if j == i - 1 else 0 for j in range(3))
    with pytest.raises(NotHomogeneous):
        g_vector_by_multidegree(x(1) + x(2) * x(2), b)


def test_laurent_phenomenon_random_walks():
    rng = random.Random(77)
    for _ in range(10):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        seed = initial_seed(q)
        walk = [rng.randint(1, q.n) for _ in range(12)]
        seed = mutate_seed_sequence(seed, walk)  # InexactDivision must not fire
        assert isinstance(seed, Seed)


_A3 = Quiver(3, ((1, 2), (2, 3)))


@pytest.mark.parametrize("q, a, sequence_error, variable_error", [
    (_A3, (1, 1), NotInW, NotInW),                              # wrong length
    (_A3, (0, 1, 1, 0), NotInW, NotInW),                        # wrong length
    (_A3, (1, -1, 0), NotInW, NotAClusterVariableDVector),      # negative entry
    (Quiver(3, ((1, 2), (2, 3), (3, 1))), (1, 1, 1), NotInW, NotInW),
    (_A3, (0, 2, 0), NotAClusterVariableDVector, NotAClusterVariableDVector),
    (_A3, (0, 0, 0), NotAClusterVariableDVector, NotAClusterVariableDVector),
    (_A3, (1, 0, 1), NotAClusterVariableDVector, NotAClusterVariableDVector),
    (Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1))), (1, 1, 0, 0), NotTypeA, NotTypeA),
    (Quiver(3, ((1, 2),)), (1, 0, 0), DisconnectedQuiver, DisconnectedQuiver),
])
def test_malformed_dvectors_keep_their_exception_classes(q, a, sequence_error,
                                                          variable_error):
    with pytest.raises(sequence_error):
        variable_mutation_sequence(q, a)
    for oracle in (cluster_variable, principal_lift):
        with pytest.raises(variable_error):
            oracle(q, a)


def test_mutation_agrees_with_every_model_on_quivers_with_frozen_vertices():
    """The d-vector check compares all n coordinates, frozen ones included
    (they are 0 in any valid target); a support through a frozen vertex
    cannot be reached by mutation."""
    rng = random.Random(8)
    checked = 0
    for _ in range(40):
        q0 = random_type_a_quiver(rng.randint(2, 7), rng)
        frozen = frozenset(v for v in q0.vertices if rng.random() < 0.3)
        q = Quiver(q0.n, q0.arrows, frozen)
        for support in linear_full_subquivers(q):
            b = tuple(int(v in support) for v in q.vertices)
            if frozen & set(support):
                with pytest.raises(FrozenVertex):
                    cluster_variable(q, b)
                continue
            want = expand_model(q, b, "gcs")
            assert all(expand_model(q, b, m) == want for m in MODELS), (q, b)
            checked += 1
    assert checked > 200


def test_mutation_builds_no_pipelines(monkeypatch):
    """The flip sequence is the support's path order: the mutation oracle
    needs neither pipelines nor the triangulation."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mutation oracle built pipelines or a triangulation")
    rng = random.Random(31)
    quivers = [random_type_a_quiver(n, rng) for n in range(1, 11) for _ in range(2)]
    monkeypatch.setattr(geometry, "build_pipelines", refuse)
    monkeypatch.setattr(geometry, "triangulation_for", refuse)
    for q in quivers:
        for sup in linear_full_subquivers(q):
            b = tuple(int(v in sup) for v in q.vertices)
            assert cluster_variable(q, b).denominator_vector(q.n) == b
            principal_lift(q, b)
        assert crosscheck(q, ("mutation", "gcs", "matching")).passed


def test_decompose_builds_no_pipeline_records(monkeypatch):
    """A multiple of an arc is decomposed on integer strands: no `Pipeline`
    or `PipelineSet` is built.  `build_pipelines` still names the ends of
    its pipes as marked points ("pt", s, r) and corners ("vx", c)."""
    def refuse(*args, **kwargs):
        raise AssertionError("_decompose built a pipeline record")
    q, a = Quiver(4, ((1, 2), (3, 2), (3, 4))), (0, 3, 3, 0)
    with monkeypatch.context() as m:
        m.setattr(geometry, "Pipeline", refuse)
        m.setattr(geometry, "PipelineSet", refuse)
        assert geometry._decompose(q, a, [2, 3]) == (((0, 1, 1, 0), [2, 3]),) * 3
        assert geometry.decompose(q, (2, 2, 2, 0)) == ((1, 1, 1, 0),) * 2
    nodes = {node for pipe in geometry.build_pipelines(q, a).pipes for node in pipe}
    assert {(node[0], len(node)) for node in nodes} == {("pt", 3), ("vx", 2)}
    assert {node[1:] for node in nodes if node[0] == "pt"} == {(s, r) for s in (2, 3)
                                                               for r in (1, 2, 3)}
