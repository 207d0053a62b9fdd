"""The support-local gcs, gcc, mutation and broken-line paths against the
whole-quiver code they replaced, kept here as the reference: the same
witnesses in the same order, the same values and counts, the same principal
lifts and the same broken lines; matrix mutation on signed rows against the
three steps on the arrow multiset; the completion read off the faces of the
triangulation against the one that sorted the path's neighbours; the
type-A build that glues by corner ids against the union-find one; and the
polygon geometry read by corner order (the build's boundary walk, faces by
span, crossings by order, pipes without a corner map) against the code it
replaced; the one-pass derivation of each quiver's structure against the
whole-quiver passes that rebuilt the completion; the pipelines on integer
strands against the tuple-keyed marked points they replaced; and the snake
diagram laid out in one pass against the per-tile edge lookup."""

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, groupby, permutations, product
import random
from types import MappingProxyType

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import formulas, geometry, harness, scattering
from clusterkit.engine import (
    cluster_variable,
    exact_divide,
    principal_quiver,
    variable_mutation_sequence,
)
from clusterkit.errors import (
    AssumptionViolated,
    ClusterKitError,
    CoordinateOutOfRange,
    DisconnectedQuiver,
    EndpointRejected,
    FrozenVertex,
    InvalidInput,
    NotAClusterVariableDVector,
    NotLinearSubquiver,
    NotInW,
    NotTypeA,
    OddRankWithoutPrincipal,
    PositivityViolation,
    Unreachable,
    VertexOutOfRange,
)
from clusterkit.formulas import (
    GCCollection,
    _enumerate_closed_assignments,
    _gateway_labels,
    base_vertex_distance,
    choose_base_vertex,
    enumerate_gcc,
    enumerate_gcs,
    enumerate_variable_gcs,
    gateway_rotations,
)
from clusterkit.geometry import sigma_int
from clusterkit.laurent import LaurentPoly, poly_product
from clusterkit.quiver import (
    CompletelyExtendedLinearQuiver,
    CompletionResult,
    LinearQuiver,
    Quiver,
    complete_extension,
    delta_of_path,
    is_type_a,
    linear_full_subquivers,
    mutate,
    oriented_three_cycles,
    path_order,
    require_path,
    require_type_a,
    three_cycle_completion,
)
from clusterkit.snake import SnakeDiagram, build_snake
from reference import poly_sum, principal_lift

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
    a = geometry._require_nonnegative(q, a, "formula requires")[0]
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
    a = geometry._require_nonnegative(q, a, "formula requires")[0]
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


# Quiver mutation as three steps on the arrow multiset, and the seed walk on
# whole quivers built on it: a seed is (quiver, one entry per vertex).


def ref_mutate(q, v):
    """1. for every path u -> v -> w add an arrow u -> w, 2. reverse all
    arrows incident to v, 3. cancel 2-cycles."""
    if not (1 <= v <= q.n):
        raise VertexOutOfRange(f"vertex {v} outside [1,{q.n}]")
    if v in q.frozen:
        raise FrozenVertex(f"vertex {v} is frozen")
    counts = Counter(q.arrows)
    ins = Counter(t for t, h in q.arrows if h == v)
    outs = Counter(h for t, h in q.arrows if t == v)
    for u, cu in ins.items():
        for w, cw in outs.items():
            if u != w:
                counts[(u, w)] += cu * cw
    reversed_counts = Counter()
    for (t, h), c in counts.items():
        if v in (t, h):
            reversed_counts[(h, t)] += c
        else:
            reversed_counts[(t, h)] += c
    counts = reversed_counts
    for (t, h) in list(counts):
        if t < h and (h, t) in counts:
            m = min(counts[(t, h)], counts[(h, t)])
            counts[(t, h)] -= m
            counts[(h, t)] -= m
    arrows = []
    for (t, h), c in counts.items():
        arrows.extend([(t, h)] * c)
    return Quiver(q.n, tuple(arrows), q.frozen)


def ref_mutate_seed(seed, v):
    q, cluster = seed
    if v in q.frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {v}")
    inc = poly_product(cluster[t - 1] for t, h in q.arrows if h == v)
    out = poly_product(cluster[h - 1] for t, h in q.arrows if t == v)
    cluster = list(cluster)
    cluster[v - 1] = exact_divide(inc + out, cluster[v - 1])
    return ref_mutate(q, v), tuple(cluster)


def ref_walk_to_variable(start, q, a):
    if len(a) == q.n and a.count(-1) == 1 and a.count(0) == q.n - 1:
        return LaurentPoly.variable(a.index(-1) + 1)
    if any(x not in (0, 1) for x in a):
        raise NotAClusterVariableDVector(f"{a} is not a variable denominator vector")
    seq = variable_mutation_sequence(q, a)
    seed = (start, tuple(LaurentPoly.variable(v) for v in start.vertices))
    for v in seq:
        seed = ref_mutate_seed(seed, v)
    return seed[1][seq[-1] - 1]


# The broken lines with the path relabelled as a whole Quiver and every
# direction and point a dense vector over the ambient coordinates.


@dataclass(frozen=True)
class RefRelabeling:
    quiver: Quiver
    n: int
    to_new: dict
    to_old: dict

    @cached_property
    def local(self):
        q, n = self.quiver, self.n
        closers = {x for t in range(1, n + 1) for h in q.arrows_out(t) if h <= n
                   for x in q.arrows_out(h) if x > n and q.has_arrow(x, t)}
        near = sorted(set(range(1, n + 1)).union(*(q.neighbors(v) for v in range(1, n + 1))))
        return tuple((r, tuple(t - 1 for t in q.arrows_in(r) if t <= n),
                      tuple(h - 1 for h in q.arrows_out(r) if h <= n),
                      -1 if r <= n or r in closers else 0)
                     for r in near)


def ref_relabel_for_path(qtilde, linear_vertices):
    order = require_path(qtilde, linear_vertices)
    to_new = {v: i + 1 for i, v in enumerate(order)}
    nxt = len(order) + 1
    for v in qtilde.vertices:
        if v not in to_new:
            to_new[v] = nxt
            nxt += 1
    arrows = tuple(sorted((to_new[t], to_new[h]) for t, h in qtilde.arrows))
    return RefRelabeling(Quiver(qtilde.n, arrows), len(order), to_new,
                         {new: old for old, new in to_new.items()})


def ref_adjustable_positions(rel, s):
    q = rel.quiver
    out = []
    for r in range(1, rel.n + 1):
        if s[r - 1] != 0:
            continue
        blocked = False
        for j in (r - 1, r + 1):
            if 1 <= j <= rel.n and q.has_arrow(r, j) and s[j - 1] == 0:
                blocked = True
        if not blocked:
            out.append(r)
    return out


def ref_w_sequence(rel, s):
    s = tuple(s)
    ell = rel.n - sum(s)
    chain = [None] * (ell + 1)
    walls = [0] * ell
    cur = s
    chain[ell] = cur
    for i in range(ell, 0, -1):
        adj = ref_adjustable_positions(rel, cur)
        if not adj:
            raise PositivityViolation("no adjustable position on a non-full marking")
        w = adj[0]
        walls[i - 1] = w
        cur = tuple(1 if r == w else b for r, b in zip(range(1, rel.n + 1), cur))
        chain[i - 1] = cur
    if chain[0] != tuple([1] * rel.n):
        raise PositivityViolation("wall recursion did not end at the full marking")
    return tuple(walls), tuple(chain)


def ref_direction(rel, s):
    g = {}
    for r, tails, heads, val in rel.local:
        for t in tails:
            if s[t] == 1:
                val += 1
        for h in heads:
            if s[h] == 0:
                val += 1
        if val not in (-1, 0, 1):
            raise CoordinateOutOfRange(f"direction coordinate {val} at vertex {r}")
        if val:
            g[r - 1] = val
    return g


def ref_dense(m, dim):
    out = [0] * dim
    for r, v in m.items():
        out[r] = v
    return tuple(out)


def ref_request(rel, endpoint, principal):
    npr = rel.quiver.n
    if not principal and npr % 2:
        raise OddRankWithoutPrincipal("odd ambient rank: use principal_broken_line instead")
    if endpoint is None:
        sc = scattering._default_scaled(rel.n, npr, principal)
    else:
        sc = scattering._scaled(endpoint)
    scattering._validate(sc)
    dim = 2 * npr if principal else npr
    if len(sc.ints) != dim:
        raise EndpointRejected(f"endpoint has {len(sc.ints)} coordinates, expected {dim}")
    return sc


def ref_build(rel, s, sc, principal):
    """(walls, directions, bends, travels, endpoint, ambient monomial)."""
    npr = rel.quiver.n
    walls, chain = ref_w_sequence(rel, s)
    ell = len(walls)
    sparse = []
    for i, marking in enumerate(chain):
        m = ref_direction(rel, marking)
        if principal:
            for w in walls[:i]:
                m[npr + w - 1] = m.get(npr + w - 1, 0) + 1
        sparse.append(m)
    q = rel.quiver
    for i in range(1, ell + 1):
        w = walls[i - 1]
        step = Counter(sparse[i])
        step.subtract(sparse[i - 1])
        step.subtract(t - 1 for t in q.arrows_in(w))
        step.update(h - 1 for h in q.arrows_out(w))
        if principal:
            step[npr + w - 1] -= 1
        if any(step.values()):
            raise CoordinateOutOfRange(
                f"direction step at wall {w} is not the wall exponent vector")
        if sparse[i].get(w - 1) != -1 or sparse[i - 1].get(w - 1) != -1:
            raise CoordinateOutOfRange(f"bend at wall {w} lacks the unit pairing")
    points = [sc.ints]
    later = None
    for i in range(ell, 0, -1):
        w = walls[i - 1]
        lam = points[-1][w - 1]
        if lam <= 0:
            raise PositivityViolation(
                f"travel parameter at wall {w} is {Fraction(lam, sc.scale)}")
        nxt = list(points[-1])
        for r, v in sparse[i].items():
            nxt[r] += lam * v
        if nxt[w - 1] != 0:
            raise PositivityViolation("bend point missed its wall")
        touched = [r for r in sparse[i] if r < npr]
        if later is not None:
            touched.append(later - 1)
        on_wall = [r + 1 for r in touched if r != w - 1 and nxt[r] == 0]
        if on_wall:
            raise EndpointRejected(
                f"bend point on wall {w} also lies on wall {min(on_wall)}; "
                "choose a more generic endpoint")
        points.append(tuple(nxt))
        later = w
    points.reverse()
    scattering._certify(walls, points, sc.ints, sc.band)
    dim = 2 * npr if principal else npr
    directions = tuple(ref_dense(m, dim) for m in sparse)
    frac = lambda pt: tuple(Fraction(c, sc.scale) for c in pt)
    final = directions[-1][:npr] if principal else directions[-1]
    return (walls, directions, tuple(frac(pt) for pt in points[:-1]),
            tuple(Fraction(points[i][w - 1], sc.scale) for i, w in enumerate(walls, start=1)),
            frac(points[-1]), LaurentPoly.monomial({r + 1: e for r, e in enumerate(final) if e}))


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


def test_gcc_values_and_counts_build_no_empty_collection(monkeypatch):
    """gcc values and counts read only the arrows meeting the support: on a
    fresh quiver they build no empty collection over the completion's
    arrows, and a listing builds it once and fills it in as the reference
    does."""
    built = []
    empty = formulas._empty_collection
    monkeypatch.setattr(formulas, "_empty_collection", lambda q2: built.append(q2) or empty(q2))
    rng = random.Random(24)
    for n in (3, 8, 40):
        q = geometry.quiver_of(harness.random_triangulation(n, rng))
        support = random_path(q, rng, 3)
        a = tuple(2 * int(v in support) for v in q.vertices)
        harness.expand_model(q, a, "gcc")
        harness.witness_count(q, a, "gcc")
        assert built == []
        listing = harness.list_witnesses(q, a, "gcc")
        q2, added = three_cycle_completion(q)
        assert built == [q2]
        assert listing == [
            [{"arrow": list(e), "S1": sorted(s1), "S2": sorted(s2)} for (e, s1, s2) in g.chosen]
            for g in ref_enumerate_gcc(q2, a + (0,) * len(added))]
        built.clear()


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


@st.composite
def quivers_with_multiplicities(draw):
    """Up to 5 vertices, at most two parallel arrows per pair, some frozen."""
    n = draw(st.integers(1, 5))
    arrows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = draw(st.integers(-2, 2))
            arrows += [(i, j)] * c if c > 0 else [(j, i)] * -c
    return Quiver(n, tuple(arrows), draw(st.frozensets(st.integers(1, n), max_size=2)))


KRONECKER = Quiver(2, ((1, 2), (1, 2)))
MARKOV = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 1), (3, 1)))
FROZEN_TRIANGLE = Quiver(4, ((1, 2), (2, 3), (3, 1), (4, 1)), frozenset({4}))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(q=st.one_of(st.sampled_from([KRONECKER, MARKOV, FROZEN_TRIANGLE]),
                   quivers_with_multiplicities()),
       data=st.data())
def test_matrix_mutation_matches_the_three_step_reference(q, data):
    for v in data.draw(st.lists(st.integers(0, q.n + 1), max_size=8)):
        try:
            want = ref_mutate(q, v)
        except ClusterKitError as exc:
            with pytest.raises(type(exc)) as got:
                mutate(q, v)
            assert str(got.value) == str(exc)
            continue
        assert mutate(q, v) == want
        q = want


def line_view(line):
    return (line.walls, line.directions, line.bends, line.travels, line.endpoint,
            scattering.ambient_monomial(line))


def valid_endpoint(rng, n, npr, principal):
    """An explicit endpoint that passes the endpoint checks: each ordered
    coordinate at most eps times the next, the rest at most eps times the
    first, and any principal block."""
    eps = Fraction(1, 3 * n)
    coords = [Fraction(rng.randint(1, 5), rng.randint(1, 5))]
    for _ in range(n - 1):
        coords.insert(0, coords[0] * eps * Fraction(rng.randint(1, 5), 5))
    coords += [coords[0] * eps * Fraction(rng.randint(1, 5), 5) for _ in range(npr - n)]
    if principal:
        coords += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(npr)]
    return scattering.Endpoint(tuple(coords), eps, n, npr)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32), size=st.integers(1, 5))
def test_sparse_broken_lines_match_the_dense_reference(n, seed, size):
    """Plain and principal lines at the default endpoint and at a valid
    explicit one equal the dense construction, or raise as it does; past
    the endpoint checks, endpoints that the builder rejects (the path block
    negated, flat, or a ladder of ratio 1/2) fail in the same way line by
    line."""
    rng = random.Random(seed)
    q = geometry.quiver_of(harness.random_triangulation(n, rng))
    support = random_path(q, rng, size)
    rel, ref = scattering.relabel_for_path(q, support), ref_relabel_for_path(q, support)
    near = set(support).union(*(q.neighbors(v) for v in support))
    assert rel.to_new.keys() == near == set(rel.to_old.values())
    assert rel.to_new == {v: ref.to_new[v] for v in rel.to_new}
    assert rel.to_old == {r: ref.to_old[r] for r in rel.to_old}
    markings = list(enumerate_variable_gcs(q, support))
    for principal in (False, True):
        valid = valid_endpoint(rng, rel.n, q.n, principal)
        for endpoint in (None, valid):
            want = outcome(lambda: [ref_build(ref, s, ref_request(ref, endpoint, principal),
                                              principal) for s in markings])
            got = outcome(lambda: [line_view(line) for line in scattering.broken_lines(
                q, support, endpoint, principal)])
            assert got == want
        if not principal and q.n % 2:
            continue
        k = rel.n
        top = valid.coords[k - 1]
        for negated, path in ((True, [-c for c in valid.coords[:k]]),
                              (False, [top] * k),
                              (False, [top / 2 ** (k - i) for i in range(1, k + 1)])):
            sc = scattering._scaled(scattering.Endpoint(
                tuple(path) + valid.coords[k:], valid.eps, k, q.n))
            for s in markings:
                want = outcome(lambda: ref_build(ref, s, sc, principal))
                assert outcome(lambda: line_view(scattering._build(rel, s, sc, principal))) == want
                if negated and not any(s):  # its first bend travels a negative distance
                    assert want[0] == "PositivityViolation", want


# The completion that sorted the path's neighbours into the triangle slots.


def ref_complete_extension(q, linear_vertices):
    require_type_a(q)
    order = require_path(q, linear_vertices)
    n = len(order)
    delta = delta_of_path(q, order)
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(n, delta))
    base_set = set(order)
    pos = {v: i + 1 for i, v in enumerate(order)}
    to_ambient = {celq_label: None for celq_label in celq.extension_vertices}
    for v in order:
        to_ambient[pos[v]] = v
    outside = sorted(set().union(*(q.neighbors(v) for v in order)) - base_set)
    end_hang = {order[0]: [], order[-1]: []}
    for w in outside:
        touched = sorted(q.neighbors(w) & base_set, key=lambda v: pos[v])
        if len(touched) == 2:
            a, b = touched
            if pos[b] != pos[a] + 1:
                raise NotLinearSubquiver(
                    f"vertex {w} is adjacent to non-consecutive path vertices")
            to_ambient[celq.mid(pos[a])] = w
        elif touched[0] == order[0] or touched[0] == order[-1]:
            end_hang[touched[0]].append(w)
        else:
            raise NotLinearSubquiver(
                f"vertex {w} hangs on an interior path vertex {touched[0]}")

    def assign_end(anchor, slots, pool):
        slot_out, slot_in = slots
        if not pool:
            return []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if b in q.neighbors(a):
                    first = a if q.has_arrow(anchor, a) else b
                    second = b if first == a else a
                    to_ambient[slot_out] = first
                    to_ambient[slot_in] = second
                    return [w for w in pool if w not in (a, b)]
        w = pool[0]
        if q.has_arrow(anchor, w):
            to_ambient[slot_out] = w
        else:
            to_ambient[slot_in] = w
        return pool[1:]

    if n == 1:
        rest = assign_end(order[0], (celq.start0, celq.start1), end_hang[order[0]])
        rest = assign_end(order[0], (celq.end0, celq.end1), rest)
        if rest:
            raise NotLinearSubquiver("too many triangles hang on the single path vertex")
    else:
        rest = assign_end(order[0], (celq.start0, celq.start1), end_hang[order[0]])
        if rest:
            raise NotLinearSubquiver(f"too many triangles hang on {order[0]}")
        rest = assign_end(order[-1], (celq.end0, celq.end1), end_hang[order[-1]])
        if rest:
            raise NotLinearSubquiver(f"too many triangles hang on {order[-1]}")
    invented = frozenset(c for c, a in to_ambient.items() if a is None)
    return CompletionResult(celq, tuple(order), to_ambient, invented)


def test_completion_from_the_faces_matches_the_neighbour_sort():
    """The whole completion (quiver, path order, label map and invented
    labels) on every linear full subquiver of the one-vertex quiver and of
    400 random type-A quivers n 1-14; one-vertex paths pin which face
    starts the path."""
    rng = random.Random(1604)
    quivers = [Quiver(1, ())] + [harness.random_type_a_quiver(1 + k % 14, rng)
                                 for k in range(400)]
    singles = 0
    for q in quivers:
        for support in linear_full_subquivers(q):
            got = complete_extension(q, support)
            assert got == ref_complete_extension(q, support), (q, support)
            assert list(got.to_ambient) == list(got.celq.extension_vertices) + list(
                range(1, len(support) + 1))
            singles += len(support) == 1
    assert singles > 2000


# The type-A build that glued triangle corners with a union-find over
# (triangle, corner) keys and checked the quiver of what it built.


def ref_build_triangulation(q):
    n = q.n
    cycles = oriented_three_cycles(q)
    in_cycle = set()
    for (i, j, k) in cycles:
        in_cycle.update({(i, j), (j, k), (k, i)})
    next_boundary = [n]

    def fresh():
        next_boundary[0] += 1
        return next_boundary[0]

    triangles = [(i, k, j) for (i, j, k) in cycles]
    for (tl, hd) in sorted(set(q.arrows) - in_cycle):
        triangles.append((tl, fresh(), hd))
    side_count = {i: 0 for i in range(1, n + 1)}
    for tri in triangles:
        for s in tri:
            if s <= n:
                side_count[s] += 1
    for i in range(1, n + 1):
        while side_count[i] < 2:
            triangles.append((i, fresh(), fresh()))
            side_count[i] += 1
    if len(triangles) != n + 1:
        raise NotTypeA("triangle accounting failed; quiver is not type A")
    diag_sites = {}
    for ti, tri in enumerate(triangles):
        for m, s in enumerate(tri):
            if s <= n:
                diag_sites.setdefault(s, []).append((ti, m))
    parent = {}

    def find(c):
        parent.setdefault(c, c)
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def union(c1, c2):
        r1, r2 = find(c1), find(c2)
        if r1 != r2:
            parent[r1] = r2

    emitted = []
    seen_triangles = {0}
    stack = [(kind, 0, m) for m in (2, 1, 0) for kind in ("side", "corner")]
    while stack:
        kind, ti, m = stack.pop()
        if kind == "corner":
            emitted.append((ti, m))
            continue
        label = triangles[ti][m]
        if label > n:
            continue
        (t2, m2) = next(site for site in diag_sites[label] if site[0] != ti)
        if t2 in seen_triangles:
            raise NotTypeA("triangulation glue revisited a triangle")
        seen_triangles.add(t2)
        union((ti, (m + 1) % 3), (t2, m2))
        union((ti, m), (t2, (m2 + 1) % 3))
        stack += [("side", t2, (m2 + 2) % 3), ("corner", t2, (m2 + 2) % 3),
                  ("side", t2, (m2 + 1) % 3)]
    if len(seen_triangles) != len(triangles):
        raise NotTypeA("triangulation does not glue into a disk")
    position = {}
    for pos, corner in enumerate(emitted):
        position[find(corner)] = pos
    if len(emitted) != n + 3:
        raise NotTypeA("polygon walk emitted a wrong corner count")
    edges = {}
    for ti, tri in enumerate(triangles):
        for m, s in enumerate(tri):
            u = position[find((ti, m))]
            w = position[find((ti, (m + 1) % 3))]
            pair = (min(u, w), max(u, w))
            if s in edges and edges[s] != pair:
                raise NotTypeA("inconsistent gluing of a shared diagonal")
            edges[s] = pair
    t = geometry.Triangulation(n + 3, n, MappingProxyType(edges))
    if tuple(sorted(geometry.quiver_of(t).arrows)) != tuple(sorted(q.arrows)):
        raise NotTypeA("constructed triangulation does not induce the quiver")
    return t


def build_outcome(build, q):
    """The edge map of build(q) in key order, or its error's class and message."""
    try:
        return list(build(q).edges.items())
    except Exception as exc:
        return type(exc).__name__, str(exc)


FOUR_CYCLE = Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
DISCONNECTED = Quiver(4, ((1, 2), (3, 4)))


def test_gluing_by_corner_ids_matches_the_union_find_build():
    """The same triangulation, edge-map key order included, on 400 random
    type-A quivers n 1-14, with the kept faces equal to `triangles()`; on
    quivers that are not type A (and random quivers n <= 6 with up to two
    parallel arrows per pair) the same error class and message."""
    rng = random.Random(1606)
    for k in range(400):
        q = harness.random_type_a_quiver(1 + k % 14, rng)
        got, want = geometry._build_triangulation(q), ref_build_triangulation(q)
        assert got == want and list(got.edges.items()) == list(want.edges.items()), q
        faces, at = got._faces
        assert faces == got.triangles()
        assert at == {s: [ti for ti, (_, sides) in enumerate(faces) if s in sides]
                      for s in got.edges}
    others = [FOUR_CYCLE, KRONECKER, MARKOV, DISCONNECTED]
    for _ in range(300):
        n = rng.randint(1, 6)
        arrows = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c = rng.choice((-2, -1, 0, 0, 0, 1, 2))
                arrows += [(i, j)] * c if c > 0 else [(j, i)] * -c
        others.append(Quiver(n, tuple(arrows)))
    verdicts = Counter()
    for q in others:
        want = build_outcome(ref_build_triangulation, q)
        assert build_outcome(geometry._build_triangulation, q) == want, q
        verdicts[want[0] if isinstance(want, tuple) else "ok"] += 1
    assert verdicts["NotTypeA"] > 100 and verdicts["ok"] > 20
    for q in (FOUR_CYCLE, KRONECKER, MARKOV):
        assert build_outcome(geometry._build_triangulation, q)[0] == "NotTypeA"
        assert not is_type_a(Quiver(q.n, q.arrows))
    with pytest.raises(ClusterKitError, match="^type-A test requires a connected quiver$"):
        is_type_a(DISCONNECTED)


# The polygon geometry before it was read by corner order: the build emitted
# corners from a stack tagged "side" or "corner", the faces came from a sort
# per corner and per edge, crossings from modular arcs, and the pipes of a
# face found the corner of two sides in a frozenset-keyed map.


def ref_triangles(t):
    by_pair = {tuple(sorted(e)): lbl for lbl, e in t.edges.items()}
    adj = {}
    for (u, w) in by_pair:
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    faces = []
    for u in sorted(adj):
        for w in sorted(x for x in adj[u] if x > u):
            for z in sorted(x for x in adj[u] & adj[w] if x > w):
                sides = (by_pair[(u, w)], by_pair[(w, z)], by_pair[(u, z)])
                faces.append(((u, w, z), sides))
    return faces


def ref_cross(size, d, e):
    in_open_arc = lambda x, a, b: 0 < (x - a) % size < (b - a) % size
    a, b = d
    c, f = e
    if {a, b} & {c, f}:
        return False
    return in_open_arc(c, a, b) != in_open_arc(f, a, b)


def ref_tagged_build(q):
    n = q.n
    fresh = count(n + 1).__next__
    triangles = [(i, k, j) for (i, j, k) in oriented_three_cycles(q)]
    for (tl, hd) in sorted(set(q.arrows) - q._cover.keys()):
        triangles.append((tl, fresh(), hd))
    side_count = {i: 0 for i in range(1, n + 1)}
    for tri in triangles:
        for s in tri:
            if s <= n:
                side_count[s] += 1
    for i in range(1, n + 1):
        while side_count[i] < 2:
            triangles.append((i, fresh(), fresh()))
            side_count[i] += 1
    if len(triangles) != n + 1:
        raise NotTypeA("triangle accounting failed; quiver is not type A")
    diag_sites = {}
    for ti, tri in enumerate(triangles):
        for m, s in enumerate(tri):
            if s <= n:
                diag_sites.setdefault(s, []).append((ti, m))
    corners = [None] * len(triangles)
    corners[0], next_id = [0, 1, 2], 3
    emitted = []
    stack = [(kind, 0, m) for m in (2, 1, 0) for kind in ("side", "corner")]
    while stack:
        kind, ti, m = stack.pop()
        if kind == "corner":
            emitted.append(corners[ti][m])
            continue
        label = triangles[ti][m]
        if label > n:
            continue
        (t2, m2) = next(site for site in diag_sites[label] if site[0] != ti)
        if corners[t2] is not None:
            raise NotTypeA("triangulation glue revisited a triangle")
        glued = [next_id] * 3
        glued[m2], glued[(m2 + 1) % 3] = corners[ti][(m + 1) % 3], corners[ti][m]
        corners[t2] = glued
        next_id += 1
        stack += [("side", t2, (m2 + 2) % 3), ("corner", t2, (m2 + 2) % 3),
                  ("side", t2, (m2 + 1) % 3)]
    if None in corners:
        raise NotTypeA("triangulation does not glue into a disk")
    if len(emitted) != n + 3:
        raise NotTypeA("polygon walk emitted a wrong corner count")
    position = [0] * next_id
    for pos, c in enumerate(emitted):
        position[c] = pos
    edges = {}
    for tri, ids in zip(triangles, corners):
        for m, s in enumerate(tri):
            u, w = position[ids[m]], position[ids[(m + 1) % 3]]
            pair = (min(u, w), max(u, w))
            if s in edges and edges[s] != pair:
                raise NotTypeA("inconsistent gluing of a shared diagonal")
            edges[s] = pair
    t = geometry.Triangulation(n + 3, n, MappingProxyType(edges))
    induced = sorted((a, b) for _, sides in ref_triangles(t)
                     for a, b in geometry._ccw_triangle_arrows(sides) if a <= n and b <= n)
    if tuple(induced) != q.arrows:
        raise NotTypeA("constructed triangulation does not induce the quiver")
    return t


def ref_pipelines(q, a, support):
    t = q._triangulation
    faces = ref_triangles(t)
    at = {}
    for ti, (_, sides) in enumerate(faces):
        for s in sides:
            at.setdefault(s, []).append(ti)
    count = lambda label: a[label - 1] if label <= t.n else 0

    def rank_from(label, corner, r):
        u, w = t.edges[label]
        return r if corner == u else count(label) + 1 - r

    pipes = []
    for corners, sides in (faces[ti] for ti in sorted({ti for v in support for ti in at[v]})):
        corner_of = {frozenset((sides[m], sides[(m + 1) % 3])): corners[(m + 1) % 3]
                     for m in range(3)}
        opposite = {sides[m]: corners[(m + 2) % 3] for m in range(3)}
        used = {s: set() for s in sides}
        for sx, sy in combinations(sorted(set(sides)), 2):
            sz = next(s for s in sides if s not in (sx, sy))
            s_val = sigma_int(count(sx), count(sy), count(sz))
            common = corner_of[frozenset((sx, sy))]
            for r in range(1, s_val + 1):
                rx, ry = rank_from(sx, common, r), rank_from(sy, common, r)
                pipes.append((("pt", sx, rx), ("pt", sy, ry)))
                used[sx].add(rx)
                used[sy].add(ry)
        for s in set(sides):
            for r in range(1, count(s) + 1):
                if r not in used[s]:
                    pipes.append((("pt", s, r), ("vx", opposite[s])))

    adjacency = {}
    for p1, p2 in pipes:
        adjacency.setdefault(p1, []).append(p2)
        adjacency.setdefault(p2, []).append(p1)
    for node, nb in adjacency.items():
        if node[0] == "pt" and len(nb) != 2:
            raise NotInW(f"marked point {node} lies on {len(nb)} pipes")
    seen = set()
    pipelines = []

    def walk(cur, prev):
        out = []
        while cur[0] == "pt":
            if cur in seen:
                raise NotInW("pipes form a closed loop")
            seen.add(cur)
            out.append(cur)
            nxt = next(x for x in adjacency[cur] if x != prev)
            prev, cur = cur, nxt
        out.append(cur)
        return out

    for node in sorted(adjacency):
        if node[0] != "pt" or node in seen:
            continue
        seen.add(node)
        first, second = adjacency[node]
        chain = list(reversed(walk(first, node))) + [node] + walk(second, node)
        left, right = chain[0], chain[-1]
        inner = [c for c in chain if c[0] == "pt"]
        diagonals = [c[1] for c in inner]
        if len(set(diagonals)) != len(diagonals):
            raise NotInW("a pipeline crosses a diagonal twice")
        b = [0] * q.n
        for i in diagonals:
            b[i - 1] = 1
        pipelines.append(geometry.Pipeline(
            endpoints=(min(left[1], right[1]), max(left[1], right[1])),
            crossings=tuple((c[1], c[2]) for c in inner),
            b_vector=tuple(b),
        ))
    total = [0] * q.n
    for p in pipelines:
        for i, _ in p.crossings:
            total[i - 1] += 1
    if tuple(total) != a:
        raise NotInW(f"pipeline supports sum to {tuple(total)}, expected {a}")
    pipelines.sort(key=lambda p: (p.b_vector, p.endpoints, p.crossings))
    return geometry.PipelineSet(q, t, a, tuple(pipelines), tuple(pipes))


def geometry_outcome(build, q):
    """The edge map of build(q) in key order and its faces in order, or the
    class and message of the error the build raises."""
    try:
        t = build(q)
    except ClusterKitError as exc:
        return type(exc).__name__, str(exc)
    return list(t.edges.items()), (t.triangles() if build is geometry._build_triangulation
                                   else ref_triangles(t))


def random_connected_quiver(n, rng):
    while True:
        arrows = [(i, j) if rng.random() < 0.5 else (j, i)
                  for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.45]
        q = Quiver(n, tuple(arrows))
        if q.is_connected():
            return q


def test_corner_order_geometry_matches_the_tagged_walk():
    """Edge maps, face lists (in order) and type-A verdicts of the boundary
    walk and faces by span against the tagged walk and the sorted face scan:
    on random type-A quivers n 1-300, and on random connected quivers n 2-8,
    most of them not type A, with the same error class and message."""
    rng = random.Random(1801)
    for n in [1, 2, 3, 300] + [rng.randint(4, 300) for _ in range(120)]:
        q = harness.random_type_a_quiver(n, rng)
        got, want = (geometry_outcome(build, q)
                     for build in (geometry._build_triangulation, ref_tagged_build))
        assert got == want and isinstance(got[0], list), q
        assert q._triangulation._faces[0] == want[1]
    verdicts = Counter()
    for _ in range(600):
        q = random_connected_quiver(rng.randint(2, 8), rng)
        want = geometry_outcome(ref_tagged_build, q)
        assert geometry_outcome(geometry._build_triangulation, q) == want, q
        ok = isinstance(want[0], list)
        assert is_type_a(Quiver(q.n, q.arrows)) == ok, q
        verdicts[ok] += 1
    assert verdicts[False] > 300 and verdicts[True] > 50


def test_cross_by_order_matches_the_modular_arcs():
    """Every pair of corner pairs, either way round, on polygons of 4-9 corners."""
    for size in range(4, 10):
        t = geometry.Triangulation(size, size - 3, {})
        pairs = list(permutations(range(size), 2))
        for d in pairs:
            for e in pairs:
                assert t.cross(d, e) == ref_cross(size, d, e), (size, d, e)


def test_pipes_without_a_corner_map_match_the_reference():
    """Pipelines and pipes, order included, on random box-3 vectors in W of
    random type-A quivers n 1-8."""
    rng = random.Random(1802)
    checked = 0
    for k in range(600):
        q = harness.random_type_a_quiver(1 + k % 8, rng)
        a = tuple(rng.randint(0, 3) for _ in q.vertices)
        if not geometry.satisfies_property_a(q, a):
            continue
        support = [v for v in q.vertices if a[v - 1]]
        got, want = geometry._pipelines(q, a, support), ref_pipelines(q, a, support)
        assert got == want and got.pipes == want.pipes, (q, a)
        checked += 1
    assert checked > 500


def ref_decompose(q, a, support):
    """`_decompose` on the tuple-keyed pipelines: the 0-1 path shortcut, else
    each sorted pipeline's b-vector and crossings from the smaller end."""
    if not support:
        return ()
    if all(a[v - 1] == 1 for v in support) and (order := path_order(q, support)) is not None:
        return ((a, order),)
    out = []
    for p in ref_pipelines(q, a, support).pipelines:
        order = [i for i, _ in p.crossings]
        out.append((p.b_vector, order if order[0] < order[-1] else order[::-1]))
    return tuple(out)


def compatible_arc_sum(q, rng):
    """Up to four pairwise noncrossing polygon diagonals outside the
    triangulation, each with a multiplicity up to 5: the sum of their
    crossing vectors is the d-vector of a cluster monomial."""
    t = q._triangulation
    arcs = [d for d in combinations(range(t.size), 2)
            if d not in t.edges.values() and any(t.cross(d, t.edges[s]) for s in q.vertices)]
    chosen = []
    for d in rng.sample(arcs, len(arcs)):
        if len(chosen) == rng.randint(1, 4):
            break
        if all(not t.cross(d, e) for e in chosen):
            chosen.append(d)
    a = [0] * q.n
    for d in chosen:
        k = rng.randint(1, 5)
        for s in q.vertices:
            a[s - 1] += k * t.cross(d, t.edges[s])
    return tuple(a)


def test_strands_match_the_tuple_keyed_pipelines():
    """The integer strands against the tuple-keyed pipelines on random
    type-A quivers n 1-12, for sums of up to four compatible arcs with
    multiplicities up to 5 and for box-3 vectors in W: `_decompose`'s
    factors and path orders, `_pipelines`' pipelines, crossings and pipe
    order, and the factors with multiplicities a request groups."""
    rng = random.Random(2301)
    mutation = harness._TABLE["mutation"]  # prepares (q, factor, path order) as it is
    shapes = Counter()
    for k in range(700):
        q = harness.random_type_a_quiver(1 + k % 12, rng)
        a = (compatible_arc_sum(q, rng) if k % 3 else
             tuple(rng.randint(0, 3) for _ in q.vertices))
        if not geometry.satisfies_property_a(q, a):
            continue
        support = geometry.support_of(a)
        want = ref_decompose(q, a, support)
        assert geometry._decompose(q, a, support) == want, (q, a)
        got, ref = geometry._pipelines(q, a, support), ref_pipelines(q, a, support)
        assert got == ref and got.pipes == ref.pipes, (q, a)
        grouped = [(x, list(order), len(list(run)))
                   for (x, order), run in groupby(want, key=lambda f: (f[0], tuple(f[1])))]
        parts = harness._request(q, a)[2](mutation)
        assert [(x, ctx[2], m) for x, ctx, m in parts] == grouped, (q, a)
        shapes[len(want) > len(grouped), k % 3 > 0] += 1  # (a factor repeats, an arc sum)
    assert shapes[True, True] > 300 and shapes[True, False] > 100 and sum(shapes.values()) > 600


# The whole-quiver derivation before it became one pass: the 3-cycles found by
# rotation minima over the arrow set, the type-A build's glue through per-site
# lists and its check on the sorted induced arrows, the completion rebuilt as a
# checked Quiver whose triangles are scanned again, and the base vertex and
# its distances read through the copying accessors.


def ref_scan_three_cycles(q):
    arrow_set = set(q.arrows)
    return tuple(sorted({min(((i, j, k), (j, k, i), (k, i, j)))
                         for (i, j) in arrow_set for (j2, k) in arrow_set
                         if j2 == j and (k, i) in arrow_set}))


def ref_cover(q):
    cover = {}
    for (i, j, k) in ref_scan_three_cycles(q):
        cover.update({(i, j): (i, j, k), (j, k): (j, k, i), (k, i): (k, i, j)})
    return cover


def ref_faces(t):
    by_pair = {e: lbl for lbl, e in t.edges.items()}
    adj = {}
    for (u, z) in by_pair:
        adj.setdefault(u, set()).add(z)
        adj.setdefault(z, set()).add(u)
    faces = []
    for (u, z), lbl in by_pair.items():
        if z > u + 1:
            apex = [w for w in adj[u] & adj[z] if u < w < z]
            if len(apex) != 1:
                raise NotTypeA(f"edge {(u, z)} bounds {len(apex)} faces inside it")
            w = apex[0]
            faces.append(((u, w, z), (by_pair[(u, w)], by_pair[(w, z)], lbl)))
    faces.sort()
    return faces


def ref_per_site_build(q):
    """The build and the faces its check found."""
    n = q.n
    fresh = count(n + 1).__next__
    triangles = [(i, k, j) for (i, j, k) in ref_scan_three_cycles(q)]
    for (tl, hd) in sorted(set(q.arrows) - ref_cover(q).keys()):
        triangles.append((tl, fresh(), hd))
    side_count = {i: 0 for i in range(1, n + 1)}
    for tri in triangles:
        for s in tri:
            if s <= n:
                side_count[s] += 1
    for i in range(1, n + 1):
        while side_count[i] < 2:
            triangles.append((i, fresh(), fresh()))
            side_count[i] += 1
    if len(triangles) != n + 1:
        raise NotTypeA("triangle accounting failed; quiver is not type A")
    diag_sites = {}
    for ti, tri in enumerate(triangles):
        for m, s in enumerate(tri):
            if s <= n:
                diag_sites.setdefault(s, []).append((ti, m))
    corners = [None] * len(triangles)
    corners[0], next_id = [0, 1, 2], 3
    after = {}
    stack = [(0, 2), (0, 1), (0, 0)]
    while stack:
        ti, m = stack.pop()
        label = triangles[ti][m]
        if label > n:
            after[corners[ti][m]] = corners[ti][(m + 1) % 3]
            continue
        (t2, m2) = next(site for site in diag_sites[label] if site[0] != ti)
        if corners[t2] is not None:
            raise NotTypeA("triangulation glue revisited a triangle")
        glued = [next_id] * 3
        glued[m2], glued[(m2 + 1) % 3] = corners[ti][(m + 1) % 3], corners[ti][m]
        corners[t2] = glued
        next_id += 1
        stack += [(t2, (m2 + 2) % 3), (t2, (m2 + 1) % 3)]
    if None in corners:
        raise NotTypeA("triangulation does not glue into a disk")
    position, c = [0] * next_id, 0
    for pos in range(next_id):
        position[c], c = pos, after[c]
    edges = {}
    for tri, ids in zip(triangles, corners):
        for m, s in enumerate(tri):
            u, w = position[ids[m]], position[ids[(m + 1) % 3]]
            edges[s] = (u, w) if u < w else (w, u)
    t = geometry.Triangulation(n + 3, n, MappingProxyType(edges))
    faces = ref_faces(t)
    induced = sorted((a, b) for _, sides in faces
                     for a, b in geometry._ccw_triangle_arrows(sides) if a <= n and b <= n)
    if tuple(induced) != q.arrows:
        raise NotTypeA("constructed triangulation does not induce the quiver")
    return t, faces


def ref_is_type_a(q):
    seen, todo = {1}, [1]
    while todo:
        v = todo.pop()
        for t, h in q.arrows:
            for u in ((h,) if t == v else (t,) if h == v else ()):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    if len(seen) != q.n:
        raise DisconnectedQuiver("type-A test requires a connected quiver")
    try:
        ref_per_site_build(q)
    except NotTypeA:
        return False
    return True


def ref_complete_three_cycles(q):
    cover = ref_cover(q)
    missing = [a for a in q.arrows if a not in cover]
    arrows, added, label = list(q.arrows), [], q.n
    for (t, h) in sorted(set(missing)):
        label += 1
        arrows += [(h, label), (label, t)]
        added.append(label)
    return Quiver(label, tuple(arrows), q.frozen | frozenset(added)), tuple(added)


def ref_base_vertex_distance(q, i0):
    dist = {i0: 0}
    queue = deque([i0])
    while queue:
        v = queue.popleft()
        for h in q.arrows_out(v):
            if h not in dist:
                dist[h] = dist[v] + 1
                queue.append(h)
    missing = [v for v in q.vertices if v not in dist]
    if missing:
        raise Unreachable(f"vertices {missing} unreachable from base vertex {i0}")
    return dist


def ref_choose_base_vertex(q):
    candidates = [v for v in q.vertices if q.degree(v) == 2]
    if not candidates:
        raise AssumptionViolated("no degree-2 vertex available as base")
    last_exc = None
    for i0 in candidates:
        try:
            return i0, ref_base_vertex_distance(q, i0)
        except Unreachable as exc:
            last_exc = exc
    raise last_exc


def ref_gateway_rotations(q, dist):
    out = {}
    for cycle in ref_scan_three_cycles(q):
        i, j, k = cycle
        rotations = sorted([(i, j, k), (j, k, i), (k, i, j)], key=lambda r: dist[r[0]])
        g, p, qq = rotations[0]
        if not (dist[g] < dist[p] < dist[qq]):
            raise AssumptionViolated(
                f"triangle {cycle} has non-distinct distances {[dist[v] for v in cycle]}")
        out[(g, p)] = (g, p, qq)
    return out


def attempt(f):
    """f(), or the class and message of the error it raises."""
    try:
        return f()
    except ClusterKitError as exc:
        return type(exc).__name__, str(exc)


def derivation(q, ref):
    """Everything derived from a fresh copy of q, each part as its value (a
    dict as its items in order) or its error's class and message."""
    q = Quiver(q.n, q.arrows, q.frozen)
    if ref:
        build, complete, choose, rotations = (
            ref_per_site_build, ref_complete_three_cycles, ref_choose_base_vertex,
            ref_gateway_rotations)
    else:
        build = lambda q: (q._triangulation, q._triangulation._faces[0])
        complete, choose, rotations = three_cycle_completion, choose_base_vertex, gateway_rotations
    built = attempt(lambda: (lambda t, faces: (list(t.edges.items()), faces))(*build(q)))
    q2, added = complete(q)
    base = attempt(lambda: (lambda i0, dist: (i0, list(dist.items())))(*choose(q2)))
    gateways = attempt(lambda: list(rotations(q2, choose(q2)[1]).items()))
    return (attempt(lambda: (ref_is_type_a if ref else is_type_a)(q)), built,
            (q2.n, q2.arrows, q2.frozen, tuple(added)), ref_cover(q2) if ref else q2._cover,
            ref_scan_three_cycles(q2) if ref else tuple(oriented_three_cycles(q2)), base, gateways,
            [(q2.arrows_out(v), q2.arrows_in(v)) for v in range(q2.n + 2)])


@st.composite
def type_a_quivers(draw, n_max=60):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    q = harness.random_type_a_quiver(draw(st.sampled_from(range(1, n_max + 1))), rng)
    return Quiver(q.n, q.arrows, draw(st.frozensets(st.integers(1, q.n), max_size=3)))


@st.composite
def disconnected_quivers(draw):
    left, right = draw(type_a_quivers(8)), draw(type_a_quivers(8))
    return Quiver(left.n + right.n, left.arrows + tuple(
        (t + left.n, h + left.n) for t, h in right.arrows))


@st.composite
def connected_quivers(draw):
    """Random connected quivers n 2-8, most of them not type A."""
    return random_connected_quiver(draw(st.integers(2, 8)),
                                   random.Random(draw(st.integers(0, 2 ** 32))))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(q=st.one_of(type_a_quivers(), connected_quivers(), disconnected_quivers(),
                   quivers_with_multiplicities(),
                   st.sampled_from([KRONECKER, MARKOV, FROZEN_TRIANGLE, FOUR_CYCLE])))
def test_one_pass_derivation_matches_the_rebuilding_reference(q):
    """The type-A verdict, the triangulation's edges and faces in order, the
    completion (arrows, frozen set, added labels, cover, triangles and
    adjacency), the base vertex with its distances in order and the gateway
    rotations, or each one's error class and message: the same as the
    whole-quiver reference on type-A quivers n <= 60 (some vertices frozen),
    on quivers that are not type A, disconnected ones and ones with parallel
    arrows."""
    assert derivation(q, ref=False) == derivation(q, ref=True)


# -- the snake layout: tile edges looked up per tile ----------------------------------


def ref_tile_edges(x, y):
    return {
        "bottom": ((x, y), (x + 1, y)),
        "top": ((x, y + 1), (x + 1, y + 1)),
        "left": ((x, y), (x, y + 1)),
        "right": ((x + 1, y), (x + 1, y + 1)),
    }


def ref_build_snake(celq):
    n = celq.n
    delta = celq.delta
    dirs = []
    for i in range(1, n):
        if i == 1:
            dirs.append("R")
        else:
            same = delta[i - 2] != delta[i - 1]
            dirs.append(dirs[-1] if same else ("U" if dirs[-1] == "R" else "R"))
    tiles = [(0, 0)]
    for d in dirs:
        x, y = tiles[-1]
        tiles.append((x + 1, y) if d == "R" else (x, y + 1))

    labels = {}

    def put(edge, label):
        if edge in labels and labels[edge] != label:
            raise InvalidInput(f"edge {edge} double-labeled")
        labels[edge] = label

    first = ref_tile_edges(*tiles[0])
    if n == 1:
        put(first["bottom"], celq.start0)
        put(first["left"], celq.start1)
        put(first["top"], celq.end0)
        put(first["right"], celq.end1)
    else:
        put(first["bottom"], celq.start0 if delta[0] == 0 else celq.start1)
        put(first["left"], celq.start1 if delta[0] == 0 else celq.start0)
        for i in range(1, n):
            e_prev = ref_tile_edges(*tiles[i - 1])
            e_next = ref_tile_edges(*tiles[i])
            if dirs[i - 1] == "R":
                put(e_prev["right"], celq.mid(i))
                put(e_prev["top"], ("d", i + 1, i))
                put(e_next["bottom"], ("d", i, i))
            else:
                put(e_prev["top"], celq.mid(i))
                put(e_prev["right"], ("d", i + 1, i))
                put(e_next["left"], ("d", i, i))
        last = ref_tile_edges(*tiles[-1])
        dn = delta[n - 2]
        if dirs[-1] == "R":
            put(last["right"], celq.end0 if dn == 0 else celq.end1)
            put(last["top"], celq.end1 if dn == 0 else celq.end0)
        else:
            put(last["right"], celq.end1 if dn == 0 else celq.end0)
            put(last["top"], celq.end0 if dn == 0 else celq.end1)

    groups = []
    tile1 = ref_tile_edges(*tiles[0])
    groups.append((labels[tile1["bottom"]], labels[tile1["left"]]))
    for i in range(1, n):
        groups.append((celq.mid(i), ("d", i + 1, i), ("d", i, i)))
    tlast = ref_tile_edges(*tiles[-1])
    groups.append((labels[tlast["top"]], labels[tlast["right"]]))

    edge_of_label = {lbl: e for e, lbl in labels.items()}
    return SnakeDiagram(celq, tuple(tiles), edge_of_label, labels, tuple(groups))


def snake_layout(d):
    return d.tiles, d.pl_groups, d.vertices(), dict(d.edge_of_label), dict(d.label_of_edge)


def test_one_pass_snake_matches_the_per_tile_layout():
    """Tiles, parallelogram groups, vertices and both label maps: the same
    as the per-tile reference on every completed path with n <= 9 and on
    400 seeded random ones with n from 10 to 80."""
    deltas = [delta for n in range(1, 10) for delta in product((0, 1), repeat=n - 1)]
    rng = random.Random(2580)
    deltas += [tuple(rng.randint(0, 1) for _ in range(rng.randint(9, 79))) for _ in range(400)]
    assert len(deltas) == 911
    for delta in deltas:
        celq = CompletelyExtendedLinearQuiver(LinearQuiver(len(delta) + 1, delta))
        assert snake_layout(build_snake(celq)) == snake_layout(ref_build_snake(celq)), delta
