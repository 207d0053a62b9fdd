"""The support-local gcs, gcc and mutation paths against the whole-quiver
code they replaced, kept here as the reference: the same witnesses in the
same order, the same values and counts, and the same principal lifts."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import geometry, harness
from clusterkit.engine import (
    cluster_variable,
    initial_seed,
    mutate_seed_sequence,
    principal_lift,
    principal_quiver,
    variable_mutation_sequence,
)
from clusterkit.errors import AssumptionViolated, ClusterKitError, NotAClusterVariableDVector
from clusterkit.formulas import (
    GCCollection,
    _check_monomial_vector,
    _enumerate_closed_assignments,
    _gateway_labels,
    base_vertex_distance,
    choose_base_vertex,
    enumerate_gcc,
    enumerate_gcs,
)
from clusterkit.geometry import sigma_int
from clusterkit.laurent import LaurentPoly, poly_sum
from clusterkit.quiver import (
    oriented_three_cycles,
    require_type_a,
    three_cycle_completion,
)

# -- the whole-quiver reference ---------------------------------------------------


def ref_three_cycle_cover(q):
    cover = {}
    for (i, j, k) in oriented_three_cycles(q):
        cover[(i, j)] = (i, j, k)
        cover[(j, k)] = (j, k, i)
        cover[(k, i)] = (k, i, j)
    for a in q.arrows:
        if a not in cover:
            raise AssumptionViolated(f"arrow {a} lies in no oriented triangle")
    return cover


def ref_enumerate_gcs(q, a, i0=None):
    a = _check_monomial_vector(q, a)
    require_type_a(q)
    ref_three_cycle_cover(q)
    if i0 is None:
        _, dist = choose_base_vertex(q) if q.arrows else (1, {v: 0 for v in q.vertices})
    else:
        dist = base_vertex_distance(q, i0)
    index = {}
    for v in q.vertices:
        for r in range(1, a[v - 1] + 1):
            index[(v, r)] = len(index)
    bit = lambda v, r: index[(v, r)]
    imps = []
    for cycle in oriented_three_cycles(q):
        g, p, qq = _gateway_labels(cycle, dist)
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        for t in range(1, sigma_int(ag, ap, aq) + 1):
            imps.append((bit(g, t), bit(p, t)))
        for t in range(1, sigma_int(ap, aq, ag) + 1):
            imps.append((bit(p, ap + 1 - t), bit(qq, t)))
        for t in range(1, sigma_int(aq, ag, ap) + 1):
            imps.append((bit(qq, aq + 1 - t), bit(g, ag + 1 - t)))
    for bits in _enumerate_closed_assignments(sum(a), imps):
        out, pos = [], 0
        for v in q.vertices:
            out.append(tuple(bits[pos: pos + a[v - 1]]))
            pos += a[v - 1]
        yield tuple(out)


def ref_enumerate_gcc(q, a):
    a = _check_monomial_vector(q, a)
    require_type_a(q)
    if q.n == 1:
        raise AssumptionViolated("collections need at least two vertices")
    cover = ref_three_cycle_cover(q)
    arrows = sorted(set(q.arrows))
    index = {}
    for e in arrows:
        for r in range(1, a[e[0] - 1] + 1):
            index[(e, r)] = len(index)

    def s2_source(e, r):
        _, j, k = cover[e]
        return index[((j, k), a[j - 1] + 1 - r)]

    imps = []
    for e in arrows:
        i, j, k = cover[e]
        for r in range(1, sigma_int(a[i - 1], a[j - 1], a[k - 1]) + 1):
            imps.append((index[(e, r)], s2_source(e, r)))
    arrow_set = set(arrows)
    for (k, i) in arrows:
        for j in q.arrows_out(i):
            if (j, k) in arrow_set:
                continue
            for r in range(1, a[i - 1] + 1):
                x, y = s2_source((k, i), r), index[((i, j), r)]
                imps += [(x, y), (y, x)]
    for bits in _enumerate_closed_assignments(len(index), imps):
        chosen = []
        for e in arrows:
            i, j, _ = cover[e]
            s1 = frozenset(r for r in range(1, a[i - 1] + 1) if bits[index[(e, r)]])
            s2 = frozenset(r for r in range(1, a[j - 1] + 1) if not bits[s2_source(e, r)])
            chosen.append((e, s1, s2))
        yield GCCollection(tuple(chosen))


def ref_term_base(q, a):
    base = [-x for x in a]
    for (i, j, k) in oriented_three_cycles(q):
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            base[x - 1] -= sigma_int(a[y - 1], a[z - 1], a[x - 1])
    return tuple(base)


def ref_gcs_value(q, a, seqs):
    base = ref_term_base(q, a)
    terms = []
    for s in seqs:
        e = list(base)
        ones = [sum(bits) for bits in s]
        for (t, h) in q.arrows:
            e[t - 1] += a[h - 1] - ones[h - 1]
            e[h - 1] += ones[t - 1]
        terms.append(LaurentPoly.monomial(dict(enumerate(e, 1))))
    return poly_sum(terms)


def ref_gcc_value(q, a, gccs):
    base = ref_term_base(q, a)
    terms = []
    for g in gccs:
        e = list(base)
        for ((i, j), s1, s2) in g.chosen:
            e[i - 1] += len(s2)
            e[j - 1] += len(s1)
        terms.append(LaurentPoly.monomial(dict(enumerate(e, 1))))
    return poly_sum(terms)


def ref_walk_to_variable(start, q, a):
    if len(a) == q.n and a.count(-1) == 1 and a.count(0) == q.n - 1:
        return LaurentPoly.variable(a.index(-1) + 1)
    if any(x not in (0, 1) for x in a):
        raise NotAClusterVariableDVector(f"{a} is not a variable denominator vector")
    seq = variable_mutation_sequence(q, a)
    return mutate_seed_sequence(initial_seed(start), seq).entry(seq[-1])


# -- inputs ------------------------------------------------------------------------


def random_path(q, rng, size):
    """A random linear full subquiver with at most `size` vertices."""
    path = [rng.choice(list(q.vertices))]
    while len(path) < size:
        last = path[-1]
        options = sorted(u for u in q.neighbors(last) if u not in path
                         and not any(w in q.neighbors(u) for w in path if w != last))
        if not options:
            break
        path.append(rng.choice(options))
    return set(path)


def random_box_monomial(q, rng):
    while True:
        a = tuple(rng.randint(0, 2) for _ in q.vertices)
        if any(a) and geometry.satisfies_property_a(q, a):
            return a


def outcome(f):
    """The value of f(), or the class and message of the error it raises."""
    try:
        value = f()
        return list(value) if not isinstance(value, LaurentPoly) else value
    except ClusterKitError as exc:
        return type(exc).__name__, str(exc)


def assert_same_as_reference(q, a):
    q2, added = three_cycle_completion(q)
    a2 = a + (0,) * len(added)
    seqs = list(ref_enumerate_gcs(q2, a2))
    gccs = list(ref_enumerate_gcc(q2, a2))
    assert list(enumerate_gcs(q2, a2)) == seqs
    assert list(enumerate_gcc(q2, a2)) == gccs
    assert harness.list_witnesses(q, a, "gcs") == [[list(bits) for bits in s] for s in seqs]
    assert harness.list_witnesses(q, a, "gcc") == [
        [{"arrow": list(e), "S1": sorted(s1), "S2": sorted(s2)} for (e, s1, s2) in g.chosen]
        for g in gccs]
    assert harness.expand_model(q, a, "gcs") == ref_gcs_value(q2, a2, seqs).substitute_one(added)
    assert harness.expand_model(q, a, "gcc") == ref_gcc_value(q2, a2, gccs).substitute_one(added)
    assert harness.witness_count(q, a, "gcs") == harness.witness_count(q, a, "gcc") == len(seqs)
    # an explicit base vertex runs the same local code from other distances
    i0 = min(v for v in q2.vertices if q2.degree(v) == 2)
    assert outcome(lambda: enumerate_gcs(q2, a2, i0)) == outcome(
        lambda: ref_enumerate_gcs(q2, a2, i0))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32), size=st.integers(1, 5))
def test_short_arcs_match_the_whole_quiver_reference(n, seed, size):
    rng = random.Random(seed)
    q = geometry.quiver_of(harness.random_triangulation(n, rng))
    support = random_path(q, rng, size)
    b = tuple(int(v in support) for v in q.vertices)
    assert_same_as_reference(q, b)
    want = ref_walk_to_variable(q, q, b)
    assert cluster_variable(q, b) == want
    lift = principal_lift(q, b)
    assert lift == ref_walk_to_variable(principal_quiver(q), q, b)
    assert harness.witness_count(q, b, "mutation") == want.coefficient_sum()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32))
def test_box_monomials_match_the_whole_quiver_reference(n, seed):
    rng = random.Random(seed)
    q = geometry.quiver_of(harness.random_triangulation(n, rng))
    a = random_box_monomial(q, rng)
    assert_same_as_reference(q, a)
    factors = geometry.decompose(q, a)
    want = LaurentPoly.one()
    for b in factors:
        want = want * ref_walk_to_variable(q, q, b)
    assert harness.expand_model(q, a, "mutation") == want
