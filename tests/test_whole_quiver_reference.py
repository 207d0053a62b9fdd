"""The support-local gcs, gcc, mutation and broken-line paths against the
whole-quiver code they replaced, kept here as the reference: the same
witnesses in the same order, the same values and counts, the same principal
lifts and the same broken lines."""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import geometry, harness, scattering
from clusterkit.engine import (
    cluster_variable,
    initial_seed,
    mutate_seed_sequence,
    principal_lift,
    principal_quiver,
    variable_mutation_sequence,
)
from clusterkit.errors import (
    AssumptionViolated,
    ClusterKitError,
    CoordinateOutOfRange,
    EndpointRejected,
    NotAClusterVariableDVector,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from clusterkit.formulas import (
    GCCollection,
    _check_monomial_vector,
    _enumerate_closed_assignments,
    _gateway_labels,
    base_vertex_distance,
    choose_base_vertex,
    enumerate_gcc,
    enumerate_gcs,
    enumerate_variable_gcs,
)
from clusterkit.geometry import sigma_int
from clusterkit.laurent import LaurentPoly, poly_sum
from clusterkit.quiver import (
    Quiver,
    oriented_three_cycles,
    require_path,
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
    assert (rel.to_new, rel.to_old) == (ref.to_new, ref.to_old)
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
