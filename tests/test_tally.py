"""The gcs and gcc values summed from the solver's bits against the paper's
per-witness terms: `gcs_weight` and `gcc_weight` summed over the public
enumerators.  The inputs are box-2 monomials of small random quivers and
short arcs (and their doubles) on quivers up to 60 vertices."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import formulas, geometry, harness
from clusterkit.errors import ClusterKitError
from clusterkit.laurent import poly_sum
from clusterkit.quiver import three_cycle_completion


def outcome(f):
    try:
        return "ok", f()
    except ClusterKitError as exc:
        return type(exc).__name__, str(exc)


def check_against_witnesses(q, a, i0):
    """The harness's tallied value and count of gcs and gcc equal the sums
    of the per-witness terms on the completion, and formula_gcs with an
    explicit base vertex i0 equals the sum over the sequences from i0."""
    q2, added = three_cycle_completion(q)
    a2 = a + (0,) * len(added)
    base = formulas.term_base(q2, a2)
    sequences = list(formulas.enumerate_gcs(q2, a2))
    collections = list(formulas.enumerate_gcc(q2, a2))
    for model, witnesses, terms in (
            ("gcs", sequences, (formulas.gcs_weight(q2, a2, s, base) for s in sequences)),
            ("gcc", collections, (formulas.gcc_weight(g, base) for g in collections))):
        value = harness.expand_model(q, a, model)
        assert value == poly_sum(terms).substitute_one(added), model
        count = harness.witness_count(q, a, model)
        assert value.coefficient_sum() == count == len(witnesses), model
    assert outcome(lambda: formulas.formula_gcs(q2, a2, i0)) == outcome(
        lambda: poly_sum(formulas.gcs_weight(q2, a2, s, base)
                         for s in formulas.enumerate_gcs(q2, a2, i0)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2 ** 32))
def test_tally_equals_the_witness_sums_on_box_monomials(n, seed):
    rng = random.Random(seed)
    q = harness.random_type_a_quiver(n, rng)
    scope = [a for a in harness._scope_dvectors(q, 2) if max(a) > 1] or harness._scope_dvectors(q, 0)
    a = rng.choice(scope)
    check_against_witnesses(q, a, rng.choice(list(three_cycle_completion(q)[0].vertices)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(8, 60), size=st.integers(1, 4), twice=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_tally_equals_the_witness_sums_on_short_arcs(n, size, twice, seed):
    rng = random.Random(seed)
    q = harness.random_type_a_quiver(n, rng)
    start = rng.choice(list(q.vertices))
    path = [start]
    while len(path) < size:
        options = sorted(u for u in q.neighbors(path[-1]) if u not in path
                         and not any(w in q.neighbors(u) for w in path[:-1]))
        if not options:
            break
        path.append(rng.choice(options))
    a = tuple((1 + twice) * (v in path) for v in q.vertices)
    assert geometry.satisfies_property_a(q, a)
    check_against_witnesses(q, a, rng.choice(path))
