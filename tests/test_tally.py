"""Every tallied value against the paper's per-witness terms summed over the
public enumerators: gcs and gcc from the solver's bits (`gcs_weight`,
`gcc_weight`), and linear-gcc, gcs-variable, matching, tpath and broken-line
from their packed per-witness counts (`linear_gcc_weight`,
`variable_gcs_monomial`, `matching_weight`, `TPath.value`,
`ambient_monomial`, each finished as the harness once finished their sums).
The inputs are box-2 monomials of small random quivers, with and without
frozen vertices, short arcs (and their doubles) on quivers up to 60
vertices, and the zig-zag path of 12 vertices."""

import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import (MODELS, completion, formulas, geometry, harness, linear_gcc, scattering,
                        snake, variable_gcs)
from clusterkit.completion import complete_extension
from clusterkit.errors import ClusterKitError
from clusterkit.laurent import LaurentPoly, field_width, poly_product, unpack
from clusterkit.quiver import Quiver, three_cycle_completion
from reference import poly_sum, substitution_then_rename


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


TALLIED = ("linear-gcc", "gcs-variable", "matching", "tpath", "broken-line")


def per_witness(q, x, model):
    """One factor's value as the sum of the public per-witness weights over
    the public listing, finished per model (linear-gcc and matching divided
    by the path variables; the completed labels renamed to the ambient ones),
    and the length of the listing."""
    support = [v for v in q.vertices if x[v - 1]]
    if model == "gcs-variable":
        ws = list(variable_gcs.enumerate_variable_gcs(q, support))
        return poly_sum(variable_gcs.variable_gcs_monomial(q, support, s) for s in ws), len(ws)
    if model == "broken-line":
        rel = scattering.relabel_for_path(q, support)
        ws = scattering.broken_lines(q, support)
        return poly_sum(map(scattering.ambient_monomial, ws)).rename(rel.to_old), len(ws)
    comp = complete_extension(q, support)
    celq = comp.celq
    if model == "linear-gcc":
        ws = list(linear_gcc.enumerate_linear_gcc(celq))
        terms = [linear_gcc.linear_gcc_weight(celq, w) for w in ws]
    elif model == "matching":
        ws = snake.enumerate_matchings(snake.build_snake(celq))
        terms = map(snake.matching_weight, ws)
    else:
        ws = snake.triangulation_tpaths(completion.triangulation_of(celq), celq)
        terms = [p.value() for p in ws]
    value = poly_sum(terms)
    if model != "tpath":
        value = LaurentPoly.monomial({i: -1 for i in range(1, celq.n + 1)}) * value
    return substitution_then_rename(comp, value), len(ws)


def check_tallies(q, a):
    """Per tallied model, the harness's value of a is the product of the
    per-witness sums of its factors, and its count the product of the
    lengths of their listings."""
    factors = geometry.decompose(q, a)
    for model in TALLIED:
        parts = [per_witness(q, x, model) for x in factors]
        assert harness.expand_model(q, a, model) == poly_product(v for v, _ in parts), model
        assert harness.witness_count(q, a, model) == math.prod(c for _, c in parts), model


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 7), frozen=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_every_tally_equals_its_witness_sum_on_box_monomials(n, frozen, seed):
    """One-vertex paths, repeated factors, frozen neighbours, and odd ranks,
    where the broken lines take the principal construction."""
    rng = random.Random(seed)
    q = harness.random_type_a_quiver(n, rng)
    if frozen:
        q = Quiver(q.n, q.arrows, frozenset(v for v in q.vertices if rng.random() < 0.3))
    scope = harness._scope_dvectors(q, 2)
    if scope:
        check_tallies(q, rng.choice([a for a in scope if max(a) > 1] or scope))


def test_tallies_on_the_zig_zag_path():
    """On the alternating path of 12 vertices a matching and a linear-gcc
    witness reach the largest count of a label's field, 2 (a path vertex in
    two adjacent groups or edge factors), next to other nonzero fields."""
    n = 12
    q = Quiver(n, tuple((i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)))
    a = (1,) * n
    check_tallies(q, a)
    assert harness.witness_count(q, a, "mutation") == 377
    comp = complete_extension(q, list(q.vertices))
    for terms in (snake._matching_terms(comp), linear_gcc._linear_gcc_terms(comp)):
        assert max(max(key) for key in terms[2]) == 2


def test_packed_fields_hold_their_largest_count():
    """A field at its largest count does not carry into the next one."""
    assert [field_width(k) for k in (0, 1, 2, 255, 256, 65535, 65536)] == [1, 1, 8, 8, 16, 16, 32]
    for largest in (1, 255, 256, 65536):
        width = field_width(largest)
        counts = (largest, 0, largest, 1)
        key = sum(k << width * i for i, k in enumerate(counts))
        assert [tuple(k) for k in unpack({key: 3}, width, 4)] == [counts]


def test_values_and_counts_build_no_witness(monkeypatch, seven_mixed):
    """expand_model and witness_count of every model succeed with the
    per-witness weights and the matching and T-path listings refusing."""
    vectors = [(2, 2, 0, 0, 2, 0, 0), (1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)]
    want = [(harness.expand_model(seven_mixed, a, "mutation"),
             harness.witness_count(seven_mixed, a, "mutation")) for a in vectors]

    def refuse(*args, **kwargs):
        raise AssertionError("a value or count built a witness")
    for module, name in ((linear_gcc, "linear_gcc_weight"), (variable_gcs, "variable_gcs_monomial"),
                         (snake, "matching_weight"), (scattering, "ambient_monomial"),
                         (snake, "enumerate_matchings"), (snake, "triangulation_tpaths")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(snake.TPath, "value", refuse)
    for model in MODELS:
        assert [(harness.expand_model(seven_mixed, a, model),
                 harness.witness_count(seven_mixed, a, model)) for a in vectors] == want, model
