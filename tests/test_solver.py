"""The closure solver against a brute force that shares no code with it:
every 0-1 assignment of up to 14 bits, in lexicographic order, kept when
no implication x -> y has x = 1 and y = 0.  The listing (order included),
the count and the per-run tally must all agree with it, on any system and
on fences, which the count and the tally take by transfer.  The models'
own systems must be fences, so that their counts and values never walk
their witnesses."""

from collections import Counter
from itertools import product
import random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import formulas, harness, solver, variable_gcs
from clusterkit.solver import _count, _enumerate_closed_assignments, _fences, _tally
from clusterkit.quiver import Quiver


def brute_force(nbits, implications):
    return [bits for bits in product((0, 1), repeat=nbits)
            if all(bits[y] or not bits[x] for x, y in implications)]


def check_against_brute_force(nbits, imps, runs):
    want = brute_force(nbits, imps)
    assert _count(nbits, imps) == len(want)
    ends = [sum(runs[:i]) for i in range(len(runs) + 1)]
    tally = Counter(tuple(sum(bits[s:e]) for s, e in zip(ends, ends[1:])) for bits in want)
    assert {tuple(k): c for k, c in _tally(nbits, imps, runs).items()} == dict(tally)


def split(draw, nbits):
    """A split of nbits into runs of consecutive bits."""
    runs, left = [], nbits
    while left:
        runs.append(draw(st.integers(1, left)))
        left -= runs[-1]
    return runs


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
    return nbits, draw(st.permutations(imps)), split(draw, nbits)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(system=systems())
def test_solver_matches_brute_force(system):
    nbits, imps, runs = system
    assert list(_enumerate_closed_assignments(nbits, imps)) == brute_force(nbits, imps)
    check_against_brute_force(nbits, imps, runs)


@st.composite
def fences(draw):
    """Paths of nodes, each node one to three bits that imply each other in
    a chain of pairs, each step between two nodes one to two implications
    (between any of their bits) of one random orientation; the bit labels
    are shuffled, some pairs repeated, and the bits split into runs.  At
    most 14 bits."""
    sizes, nbits = [], 0
    for path in draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=5), max_size=5)):
        sizes.append([])
        for size in path:
            if nbits + size <= 14:  # nodes past 14 bits are dropped, not filtered out
                sizes[-1].append(size)
                nbits += size
    label = draw(st.permutations(range(nbits)))
    imps, fresh = [], iter(label)
    for path in sizes:
        nodes = [[next(fresh) for _ in range(size)] for size in path]
        for node in nodes:
            for x, y in zip(node, node[1:]):
                imps += [(x, y), (y, x)]
        for before, after in zip(nodes, nodes[1:]):
            forward = draw(st.booleans())
            for _ in range(draw(st.integers(1, 2))):
                x, y = draw(st.sampled_from(before)), draw(st.sampled_from(after))
                imps.append((x, y) if forward else (y, x))
    if imps:
        imps += draw(st.lists(st.sampled_from(imps), max_size=3))
    return nbits, draw(st.permutations(imps)), split(draw, nbits)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(system=fences())
def test_transfer_on_fences_matches_brute_force(system):
    assert _fences(*system[:2]) is not None
    check_against_brute_force(*system)


@pytest.mark.parametrize("nbits, imps", [
    (4, [(0, 1), (0, 2), (0, 3)]),                                  # three neighbours
    (6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (1, 2), (3, 4), (5, 0)]),  # 3-cycle
    (4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (3, 1)]),          # forcing each other
    (3, [(0, 1), (1, 2), (0, 2)]),                                  # a cycle, undirected
], ids=["branch", "merged-3-cycle", "merged-2-cycle", "triangle"])
def test_systems_off_fences_fall_back(nbits, imps):
    assert _fences(nbits, imps) is None
    check_against_brute_force(nbits, imps, [1, nbits - 1])


def test_forty_bit_fences_have_closed_forms():
    """Free bits, a chain, and a chain of merged pairs; enumerating them
    would take days, so the shape is checked first."""
    chain = [(i, i + 1) for i in range(39)]
    pairs = chain[::-1] + [(y, x) for x, y in chain[::2]]
    assert all(_fences(40, imps) is not None for imps in ([], chain, pairs))
    assert _count(40, []) == 2 ** 40 and _count(40, chain) == 41 and _count(40, pairs) == 21
    assert dict(_tally(40, chain, [40])) == {(k,): 1 for k in range(41)}


def requests(count):
    """Box-2 vectors, and the cluster variables where a quiver has none, of
    seeded random type-A quivers of up to 6 vertices, some with frozen
    vertices: at most four per quiver."""
    rng = random.Random(27)
    out = []
    for k in range(count):
        q = harness.random_type_a_quiver(1 + k % 6, rng)
        if k % 3 == 2:
            q = Quiver(q.n, q.arrows, frozenset(v for v in q.vertices if rng.random() < 0.3))
        scope = harness._scope_dvectors(q, 2)
        box = [a for a in scope if max(a) > 1] or scope
        out += [(q, a) for a in rng.sample(box, min(4, len(box)))]
    return out


def test_the_models_systems_are_fences():
    systems = []

    def spy(module, name):
        real = getattr(module, name)
        return mock.patch.object(module, name,
                                 lambda *args: systems.append((name, real(*args))) or systems[-1][1])
    with spy(formulas, "_gcs_system"), spy(formulas, "_gcc_system"), \
            spy(variable_gcs, "_variable_gcs_system"):
        for q, a in requests(60):
            for model in ("gcs", "gcc", "gcs-variable"):
                harness.expand_model(q, a, model)
                harness.witness_count(q, a, model)
    assert {name for name, _ in systems} == {"_gcs_system", "_gcc_system", "_variable_gcs_system"}
    assert [name for name, (nbits, imps, *_) in systems if _fences(nbits, imps) is None] == []


def test_counts_and_values_do_not_walk_the_witnesses():
    """gcs and gcc values, and the gcs, gcc and gcs-variable counts, take
    the transfer; gcs-variable's value keeps its one-field-per-bit walk."""
    walked = []
    real = solver._closed_masks
    spy = lambda *args: walked.append(args) or real(*args)
    with mock.patch.object(solver, "_closed_masks", spy), \
            mock.patch.object(variable_gcs, "_closed_masks", spy):
        for q, a in requests(60):
            for model in ("gcs", "gcc"):
                harness.expand_model(q, a, model)
            for model in ("gcs", "gcc", "gcs-variable"):
                harness.witness_count(q, a, model)
            assert walked == [], (q, a)
            harness.expand_model(q, a, "gcs-variable")
            assert walked
            walked.clear()


def test_solver_on_fixed_systems():
    # no bits: one empty assignment; a 3-cycle: all or nothing; a chain
    # 0 -> 1 -> 2: the up-sets of the chain, in lexicographic order
    assert list(_enumerate_closed_assignments(0, [])) == [()]
    assert list(_enumerate_closed_assignments(3, [(0, 1), (1, 2), (2, 0)])) == [
        (0, 0, 0), (1, 1, 1)]
    assert list(_enumerate_closed_assignments(3, [(0, 1), (1, 2)])) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert _tally(3, [(0, 1), (1, 2)], [1, 2]) == {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 2): 1}
