"""The closure solver against a brute force that shares no code with it:
every 0-1 assignment of up to 12 bits, in lexicographic order, kept when
no implication x -> y has x = 1 and y = 0.  The listing (order included),
the count and the per-run tally must all agree with it."""

from collections import Counter
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit.formulas import _count, _enumerate_closed_assignments, _tally


def brute_force(nbits, implications):
    return [bits for bits in product((0, 1), repeat=nbits)
            if all(bits[y] or not bits[x] for x, y in implications)]


@st.composite
def systems(draw):
    """A bit count up to 12, implications among its bits (with, at will, a
    directed cycle, a self-implication and a repeated pair) and a split of
    the bits into runs."""
    nbits = draw(st.integers(0, 12))
    if not nbits:
        return 0, [], []
    bit = st.integers(0, nbits - 1)
    imps = draw(st.lists(st.tuples(bit, bit), max_size=3 * nbits))
    if nbits > 1 and draw(st.booleans()):
        cycle = draw(st.lists(bit, min_size=2, max_size=nbits, unique=True))
        imps += list(zip(cycle, cycle[1:] + cycle[:1]))
    if draw(st.booleans()):
        v = draw(bit)
        imps.append((v, v))
    if imps and draw(st.booleans()):
        imps.append(draw(st.sampled_from(imps)))
    imps = draw(st.permutations(imps))
    runs, left = [], nbits
    while left:
        runs.append(draw(st.integers(1, left)))
        left -= runs[-1]
    return nbits, imps, runs


@settings(max_examples=400, derandomize=True, deadline=None)
@given(system=systems())
def test_solver_matches_brute_force(system):
    nbits, imps, runs = system
    want = brute_force(nbits, imps)
    assert list(_enumerate_closed_assignments(nbits, imps)) == want
    assert _count(nbits, imps) == len(want)
    ends = [sum(runs[:i]) for i in range(len(runs) + 1)]
    tally = Counter(tuple(sum(bits[s:e]) for s, e in zip(ends, ends[1:])) for bits in want)
    assert list(_tally(nbits, imps, runs).items()) == list(tally.items())


def test_solver_on_fixed_systems():
    # no bits: one empty assignment; a 3-cycle: all or nothing; a chain
    # 0 -> 1 -> 2: the up-sets of the chain, in lexicographic order
    assert list(_enumerate_closed_assignments(0, [])) == [()]
    assert list(_enumerate_closed_assignments(3, [(0, 1), (1, 2), (2, 0)])) == [
        (0, 0, 0), (1, 1, 1)]
    assert list(_enumerate_closed_assignments(3, [(0, 1), (1, 2)])) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert _tally(3, [(0, 1), (1, 2)], [1, 2]) == {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 2): 1}
