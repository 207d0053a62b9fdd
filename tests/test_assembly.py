"""The assembly kernels on term dicts against their `LaurentPoly` versions
in `reference`: the walk to a cluster variable, the exchange of a seed, the
certified division, the affine sum and the rendering order."""

from hypothesis import given, settings, strategies as st
import pytest

from clusterkit import engine, laurent
from clusterkit.engine import enumerate_seeds, exact_divide, mutate_seed, principal_quiver
from clusterkit.errors import InexactDivision
from clusterkit.harness import random_type_a_quiver
from clusterkit.laurent import (LaurentPoly, affine_sum, canonical_string, mono, rational_string,
                                sorted_terms, to_json_dict)
from clusterkit.quiver import Quiver, linear_full_subquivers, path_order
from conftest import path_quiver
import reference

x = LaurentPoly.variable

monomials = st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=4).map(mono)
coefficients = st.integers(-7, 7).filter(bool)


def polys(min_size=0, max_size=6):
    return st.lists(st.tuples(monomials, coefficients), min_size=min_size,
                    max_size=max_size).map(LaurentPoly.from_terms)


def outcome(divide, p, d):
    try:
        return divide(p, d)
    except InexactDivision:
        return InexactDivision


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False), st.booleans())
def test_walk_matches_reference(n, rng, principal):
    """Path orders of linear full subquivers and random sequences with
    repeats (whose divisors are earlier exchanged entries), on type-A
    quivers with some vertices frozen and on their principal extensions."""
    q = random_type_a_quiver(n, rng)
    q = Quiver(q.n, q.arrows, frozenset(v for v in q.vertices if rng.random() < 0.25))
    supports = [s for s in linear_full_subquivers(q) if q.frozen.isdisjoint(s)]
    if not supports:
        return
    seqs = [path_order(q, rng.choice(supports)),
            [rng.choice(sorted(q.unfrozen)) for _ in range(rng.randint(1, 6))]]
    start = principal_quiver(q) if principal else q
    for seq in seqs:
        assert engine._walk(start, seq) == reference.walk(start, seq)


SMALL = pytest.mark.parametrize("q", [
    path_quiver(1), path_quiver(3), path_quiver(4),
    Quiver(3, ((1, 2), (2, 3), (3, 1))),
    Quiver(4, ((1, 2), (3, 2), (4, 2))),  # D4
    Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1)), frozenset({4})),
    Quiver(3, ((1, 2), (1, 3), (1, 3)), frozenset({3})),
], ids=["A1", "A3", "A4", "3-cycle", "D4", "4-cycle, one frozen", "double arrow to a frozen vertex"])


@SMALL
def test_enumerate_seeds_matches_reference_seed_by_seed(q):
    for s in enumerate_seeds(q):
        for v in s.quiver.unfrozen:
            assert mutate_seed(s, v).entry(v) == reference.exchanged_entry(s, v)


@SMALL
def test_walk_on_small_quivers_matches_reference(q):
    """Every unfrozen vertex twice, so that each exchange after the first
    round divides by an exchanged entry."""
    seq = sorted(q.unfrozen) * 2
    assert engine._walk(q, seq) == reference.walk(q, seq)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(polys(), polys(min_size=1, max_size=4), polys(max_size=2))
def test_exact_divide_matches_reference(q, d, r):
    """Exact divisions p = q*d by one-term and longer divisors, and p + r,
    which may not divide: both versions give the same quotient or both
    refuse."""
    if d.is_zero():
        return
    p = q * d
    assert exact_divide(p, d) == reference.exact_divide(p, d) == q
    assert outcome(exact_divide, p + r, d) == outcome(reference.exact_divide, p + r, d)


def test_exact_divide_with_long_quotients():
    """The elimination needs no step cap: every quotient term lies in the
    exponent box of p and d, and one outside it proves the division
    inexact."""
    one = LaurentPoly.one()
    for k in (140, 400):
        assert exact_divide(x(1) ** k - one, x(1) - one) == LaurentPoly.from_terms(
            (mono({1: i}), 1) for i in range(k))
    q = (x(1) * x(2) ** -1 + x(3)) ** 12 + LaurentPoly.integer(-2)
    d = x(1) - x(2) + x(3) ** -1
    assert exact_divide(q * d, d) == q
    with pytest.raises(InexactDivision):
        exact_divide(x(1) ** 200 + one, x(1) - one)
    with pytest.raises(InexactDivision):
        exact_divide(x(1) ** 200 * x(2) - one, x(1) - one)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=4),
       st.lists(monomials, max_size=4), st.data(), st.sets(st.integers(1, 6)))
def test_affine_sum_matches_reference(base, deltas, data, drop):
    keys = st.tuples(*(st.integers(0, 3) for _ in deltas))
    tally = data.draw(st.dictionaries(keys, coefficients, max_size=6))
    assert affine_sum(base, deltas, tally, drop) == reference.affine_sum(base, deltas, tally, drop)


def test_affine_sum_refuses_a_zero_index_per_term():
    delta = [mono({1: 1}), ((0, 1),)]
    assert affine_sum({}, delta, {(1, 0): 1}) == x(1)
    assert affine_sum({0: 1}, delta, {(1, 1): 1}, drop=[0]) == x(1)
    for base, tally in (({0: 1}, {(1, 0): 1}), ({}, {(1, 0): 1, (0, 1): 1})):
        with pytest.raises(ValueError):
            affine_sum(base, delta, tally)
        with pytest.raises(ValueError):
            reference.affine_sum(base, delta, tally)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polys(max_size=10))
def test_rendering_matches_reference(p):
    got = (sorted_terms(p), canonical_string(p), to_json_dict(p), rational_string(p))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(laurent, "sorted_terms", reference.sorted_terms)
        assert got == (reference.sorted_terms(p), canonical_string(p), to_json_dict(p),
                       rational_string(p))
