"""The checked public entry points against the unchecked cores that the
harness calls on the same input: the same witnesses in the same order, the
same values, and the same exception class and message.  The quivers have
about 30% frozen vertices, and the vectors are box-2 monomials with a
negative entry, whose nonnegative part is what the harness hands on."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import engine, formulas, geometry, harness
from clusterkit.errors import ClusterKitError
from clusterkit.quiver import Quiver, three_cycle_completion
from reference import poly_sum


def outcome(f):
    try:
        return "ok", f()
    except ClusterKitError as exc:
        return type(exc).__name__, str(exc)


def quiver_with_frozen(n: int, rng: random.Random) -> Quiver:
    q = harness.random_type_a_quiver(n, rng)
    return Quiver(q.n, q.arrows, frozenset(v for v in q.vertices if rng.random() < 0.3))


def box_monomial_with_a_negative_entry(q: Quiver, rng: random.Random) -> tuple[int, ...]:
    """A vector of W with entries 0..2, not zero, with one nonzero entry negated."""
    while True:
        a = tuple(rng.randint(0, 2) for _ in q.vertices)
        if any(a) and geometry.satisfies_property_a(q, a):
            i = rng.choice([i for i, x in enumerate(a) if x])
            return a[:i] + (-a[i],) + a[i + 1:]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2 ** 32))
def test_checked_entry_points_equal_the_cores_the_harness_calls(n, seed):
    rng = random.Random(seed)
    q = quiver_with_frozen(n, rng)
    a = box_monomial_with_a_negative_entry(q, rng)
    plus, support, neg = geometry._positive_part(q, a, in_w=True)
    assert plus == tuple(max(x, 0) for x in a) and support == geometry.support_of(plus)
    assert neg == {v: -x for v, x in enumerate(a, 1) if x < 0}
    q2, added = three_cycle_completion(q)
    a2 = plus + (0,) * len(added)
    for model, public in (("gcs", formulas.enumerate_gcs), ("gcc", formulas.enumerate_gcc)):
        spec = harness._model(q, model)
        ctx = spec.prepare(q, plus, support)
        got = outcome(lambda: list(spec.witnesses(ctx)))
        assert got == outcome(lambda: list(public(q2, a2)))
        base = formulas.term_base(q2, a2)
        assert ctx[4] == base
        assert spec.count(ctx) == len(got[1])
        assert spec.value(ctx) == poly_sum(
            formulas.gcs_weight(q2, a2, s, base) if model == "gcs" else formulas.gcc_weight(s, base)
            for s in public(q2, a2)).substitute_one(added)
    assert poly_sum(formulas.gcs_weight(q2, a2, s, base) for s in formulas.enumerate_gcs(
        q2, a2)) == formulas.formula_gcs(q2, a2)
    for b, sup in geometry._decompose(q, plus, support):
        assert outcome(lambda: engine._cluster_variable(q, b, sup)) == outcome(
            lambda: engine.cluster_variable(q, b))
