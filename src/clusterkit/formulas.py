"""Combinatorial expansion formulas for cluster monomials.

Three routes to the same Laurent polynomial:

* globally compatible sequences (one 0-1 sequence per vertex, binary
  constraints along oriented triangles ordered by directed distance from a
  base vertex),
* globally compatible collections (edge subsets of maximal lattice paths,
  one path per arrow, corner compatibility plus matching rules),
* the specialization to a path quiver with triangles glued everywhere,
  whose witnesses are per-edge pairs.

All enumeration is constraint propagation over binary variables rather than
power-set filtering; the constraint graph of a type-A quiver is tree-like,
so the search is near linear per witness.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
import logging

from .errors import (
    AssumptionViolated,
    NotInW,
    Unreachable,
)
from .geometry import satisfies_property_a, sigma_int
from .laurent import LaurentPoly, poly_sum
from .quiver import (
    CompletelyExtendedLinearQuiver,
    Quiver,
    oriented_three_cycles,
    require_path,
    require_type_a,
)

log = logging.getLogger(__name__)


# -- assumptions and distances -------------------------------------------------


def three_cycle_cover(q: Quiver) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Map every arrow to its oriented triangle (as the rotation starting at
    the arrow); raises if some arrow lies in none."""
    cycles = oriented_three_cycles(q)
    cover: dict[tuple[int, int], tuple[int, int, int]] = {}
    for (i, j, k) in cycles:
        cover[(i, j)] = (i, j, k)
        cover[(j, k)] = (j, k, i)
        cover[(k, i)] = (k, i, j)
    for a in q.arrows:
        if a not in cover:
            raise AssumptionViolated(f"arrow {a} lies in no oriented triangle")
    return cover


def base_vertex_distance(q: Quiver, i0: int) -> dict[int, int]:
    """Length of the shortest directed path from i0 to every vertex."""
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


def choose_base_vertex(q: Quiver) -> tuple[int, dict[int, int]]:
    """First degree-2 vertex from which all vertices are reachable."""
    candidates = [v for v in q.vertices if q.degree(v) == 2]
    if not candidates:
        raise AssumptionViolated("no degree-2 vertex available as base")
    last_exc = None
    for i0 in candidates:
        try:
            return i0, base_vertex_distance(q, i0)
        except Unreachable as exc:
            log.warning("base vertex %d rejected: %s", i0, exc)
            last_exc = exc
    raise last_exc


def _gateway_labels(cycle, dist) -> tuple[int, int, int]:
    """Rotate an oriented triangle so distances increase along it."""
    i, j, k = cycle
    rotations = [(i, j, k), (j, k, i), (k, i, j)]
    rotations.sort(key=lambda r: dist[r[0]])
    g, p, qq = rotations[0]
    if not (dist[g] < dist[p] < dist[qq]):
        raise AssumptionViolated(
            f"triangle {cycle} has non-distinct distances {[dist[v] for v in cycle]}")
    return g, p, qq


# -- binary constraint solver ---------------------------------------------------


def _enumerate_closed_assignments(nbits: int, implications):
    """All 0-1 assignments closed under the given implications (x=1 forces
    y=1), in lexicographic order with 0 < 1."""
    fwd = defaultdict(list)
    bwd = defaultdict(list)
    for x, y in implications:
        fwd[x].append(y)
        bwd[y].append(x)
    value = [-1] * nbits
    trail: list[int] = []  # every assigned bit, in assignment order

    def propagate(idx: int, val: int) -> bool:
        stack = [(idx, val)]
        while stack:
            x, v = stack.pop()
            if value[x] == v:
                continue
            if value[x] != -1:
                return False
            value[x] = v
            trail.append(x)
            targets = fwd[x] if v == 1 else bwd[x]
            for y in targets:
                stack.append((y, v))
        return True

    # depth-first on an explicit stack of (trail length to go back to, bit,
    # value); the first free bit is tried at 0 before 1
    todo = [(0, -1, 0)]
    while todo:
        mark, pos, v = todo.pop()
        while len(trail) > mark:
            value[trail.pop()] = -1
        if pos >= 0 and not propagate(pos, v):
            continue
        pos += 1
        while pos < nbits and value[pos] != -1:
            pos += 1
        if pos == nbits:
            yield tuple(value)
        else:
            todo += [(len(trail), pos, 1), (len(trail), pos, 0)]


# -- globally compatible sequences ----------------------------------------------


def _gcs_bits(q: Quiver, a):
    index: dict[tuple[int, int], int] = {}
    for v in q.vertices:
        for r in range(1, a[v - 1] + 1):
            index[(v, r)] = len(index)
    return index


def _gcs_implications(q: Quiver, a, dist) -> list[tuple[int, int]]:
    index = _gcs_bits(q, a)
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
    return imps


def _check_monomial_vector(q: Quiver, a) -> tuple[int, ...]:
    a = tuple(a)
    if len(a) != q.n:
        raise NotInW(f"vector length {len(a)} != {q.n}")
    if any(x < 0 for x in a):
        raise NotInW(f"formula requires a nonnegative vector, got {a}")
    if not satisfies_property_a(q, a):
        raise NotInW(f"{a} violates the parity condition on 3-cycles")
    return a


def enumerate_gcs(q: Quiver, a, i0: int | None = None):
    """All globally compatible sequences for the vector a, as tuples of 0-1
    tuples (one per vertex), in lexicographic order of the concatenated
    bits."""
    a = _check_monomial_vector(q, a)
    require_type_a(q)
    three_cycle_cover(q)
    if i0 is None:
        _, dist = choose_base_vertex(q) if q.arrows else (1, {v: 0 for v in q.vertices})
    else:
        dist = base_vertex_distance(q, i0)
    nbits = sum(a)
    for bits in _enumerate_closed_assignments(nbits, _gcs_implications(q, a, dist)):
        out = []
        pos = 0
        for v in q.vertices:
            out.append(tuple(bits[pos: pos + a[v - 1]]))
            pos += a[v - 1]
        yield tuple(out)


def term_base(q: Quiver, a) -> tuple[int, ...]:
    """The part of every gcs or gcc term fixed by (q, a), indexed by v - 1:
    the denominator exponent -a_v minus one overlap count sigma per rotation
    of an oriented triangle starting at v."""
    base = [-x for x in a]
    for (i, j, k) in oriented_three_cycles(q):
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            base[x - 1] -= sigma_int(a[y - 1], a[z - 1], a[x - 1])
    return tuple(base)


def _gcs_exponents(q: Quiver, a, s, base) -> list[int]:
    """base plus the witness part of one sequence: over each arrow the head
    contributes its zero count and the tail its one count."""
    e = list(base)
    ones = [sum(bits) for bits in s]
    for (t, h) in q.arrows:
        e[t - 1] += a[h - 1] - ones[h - 1]
        e[h - 1] += ones[t - 1]
    return e


def gcs_weight(q: Quiver, a, s, base) -> LaurentPoly:
    """The Laurent monomial of one globally compatible sequence, given
    `term_base(q, a)`."""
    return LaurentPoly.monomial(dict(enumerate(_gcs_exponents(q, a, s, base), 1)))


def formula_gcs(q: Quiver, a, i0: int | None = None) -> LaurentPoly:
    """Cluster monomial as a sum over globally compatible sequences."""
    a = _check_monomial_vector(q, a)
    base = term_base(q, a)
    return poly_sum(gcs_weight(q, a, s, base) for s in enumerate_gcs(q, a, i0))


# -- maximal lattice paths -------------------------------------------------------


@dataclass(frozen=True)
class DyckPath:
    """Maximal lattice path from (0,0) to (a1,a2) weakly below the diagonal,
    with corner-first edge labels."""

    a1: int
    a2: int
    steps: tuple[str, ...]            # 'H'/'V'
    h_step_of_label: tuple[int, ...]  # label r (1-based) -> step index
    v_step_of_label: tuple[int, ...]

    @property
    def corners(self) -> int:
        return min(self.a1, self.a2)


def maximal_dyck_path(a1: int, a2: int) -> DyckPath:
    steps: list[str] = []
    h = 0
    for x in range(1, a1 + 1):
        steps.append("H")
        target = (a2 * x) // a1
        steps.extend("V" * (target - h))
        h = target
    if a1 == 0:
        steps.extend("V" * a2)
    h_steps = [i for i, s in enumerate(steps) if s == "H"]
    v_steps = [i for i, s in enumerate(steps) if s == "V"]
    corner_h = [i for i in h_steps if i + 1 < len(steps) and steps[i + 1] == "V"]
    corner_v = [i + 1 for i in corner_h]
    rest_h = [i for i in h_steps if i not in set(corner_h)]
    rest_v = [i for i in v_steps if i not in set(corner_v)]
    return DyckPath(a1, a2, tuple(steps),
                    tuple(corner_h + rest_h), tuple(corner_v + rest_v))


# -- globally compatible collections ----------------------------------------------


@dataclass(frozen=True)
class GCCollection:
    """Per-arrow horizontal/vertical edge subsets, recorded by corner-first
    label (1-based)."""

    chosen: tuple[tuple[tuple[int, int], frozenset, frozenset], ...]
    # ((arrow, S1 labels, S2 labels), ...) sorted by arrow

    def sets(self, arrow):
        for (a, s1, s2) in self.chosen:
            if a == arrow:
                return s1, s2
        raise KeyError(arrow)


def _gcc_structures(q: Quiver, a):
    cover = three_cycle_cover(q)
    arrows = sorted(set(q.arrows))
    index: dict[tuple[tuple[int, int], int], int] = {}
    for e in arrows:
        i, _ = e
        for r in range(1, a[i - 1] + 1):
            index[(e, r)] = len(index)

    def next_arrow(e):
        i, j, k = cover[e]
        return (j, k)

    def s2_source(e, r):
        """Free bit whose negation gives the r-th vertical of arrow e."""
        i, j, _ = cover[e]
        return index[(next_arrow(e), a[j - 1] + 1 - r)]

    imps = []
    # corner compatibility: a chosen horizontal forbids the matching vertical
    for e in arrows:
        i, j, k = cover[e]
        for r in range(1, sigma_int(a[i - 1], a[j - 1], a[k - 1]) + 1):
            imps.append((index[(e, r)], s2_source(e, r)))
    # matching across distinct triangles sharing a vertex
    arrow_set = set(arrows)
    for (k, i) in arrows:
        for j in q.arrows_out(i):
            if (j, k) in arrow_set:
                continue  # same triangle, already the defining rule
            for r in range(1, a[i - 1] + 1):
                x = s2_source((k, i), r)      # 1 - x = vertical bit r
                y = index[((i, j), r)]        # horizontal bit r
                # requirement: vertical r chosen iff horizontal r not chosen
                imps.append((x, y))
                imps.append((y, x))
    return arrows, index, cover, imps, s2_source


def enumerate_gcc(q: Quiver, a):
    """All globally compatible collections for the vector a."""
    a = _check_monomial_vector(q, a)
    require_type_a(q)
    if q.n == 1:
        raise AssumptionViolated("collections need at least two vertices")
    arrows, index, cover, imps, s2_source = _gcc_structures(q, a)
    nbits = len(index)
    for bits in _enumerate_closed_assignments(nbits, imps):
        chosen = []
        for e in arrows:
            i, j, _ = cover[e]
            s1 = frozenset(r for r in range(1, a[i - 1] + 1) if bits[index[(e, r)]])
            s2 = frozenset(r for r in range(1, a[j - 1] + 1)
                           if not bits[s2_source(e, r)])
            chosen.append((e, s1, s2))
        yield GCCollection(tuple(chosen))


def _gcc_exponents(gcc: GCCollection, base) -> list[int]:
    """base plus the witness part of one collection: each arrow i -> j adds
    its vertical count to x_i and its horizontal count to x_j."""
    e = list(base)
    for ((i, j), s1, s2) in gcc.chosen:
        e[i - 1] += len(s2)
        e[j - 1] += len(s1)
    return e


def gcc_weight(gcc: GCCollection, base) -> LaurentPoly:
    """The Laurent monomial of one globally compatible collection, given
    `term_base(q, a)` of its quiver and vector."""
    return LaurentPoly.monomial(dict(enumerate(_gcc_exponents(gcc, base), 1)))


# -- bijection between sequences and collections -----------------------------------


def gcs_to_gcc(q: Quiver, a, s, i0: int | None = None) -> GCCollection:
    """Translate a globally compatible sequence into a collection, triangle
    by triangle: along each oriented triangle labeled by increasing distance
    the horizontals copy the tail's bits (reversed past the first arrow) and
    the verticals negate the head's bits."""
    a = tuple(a)
    if i0 is None:
        i0, dist = choose_base_vertex(q)
    else:
        dist = base_vertex_distance(q, i0)
    chosen = {}
    for cycle in oriented_three_cycles(q):
        g, p, qq = _gateway_labels(cycle, dist)
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        sg, sp, sq = s[g - 1], s[p - 1], s[qq - 1]
        chosen[(g, p)] = (
            frozenset(r for r in range(1, ag + 1) if sg[r - 1] == 1),
            frozenset(r for r in range(1, ap + 1) if sp[r - 1] == 0),
        )
        chosen[(p, qq)] = (
            frozenset(r for r in range(1, ap + 1) if sp[ap - r] == 1),
            frozenset(r for r in range(1, aq + 1) if sq[r - 1] == 0),
        )
        chosen[(qq, g)] = (
            frozenset(r for r in range(1, aq + 1) if sq[aq - r] == 1),
            frozenset(r for r in range(1, ag + 1) if sg[ag - r] == 0),
        )
    return GCCollection(tuple((e, *chosen[e]) for e in sorted(chosen)))


def gcc_to_gcs(q: Quiver, a, gcc: GCCollection, i0: int | None = None):
    """Inverse translation; each vertex's sequence is read off any incident
    arrow."""
    a = tuple(a)
    if i0 is None:
        i0, dist = choose_base_vertex(q)
    else:
        dist = base_vertex_distance(q, i0)
    cover = three_cycle_cover(q)
    s: dict[int, tuple[int, ...]] = {}
    for cycle in oriented_three_cycles(q):
        g, p, qq = _gateway_labels(cycle, dist)
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        s1_gp, s2_gp = gcc.sets((g, p))
        s1_pq, s2_pq = gcc.sets((p, qq))
        s.setdefault(g, tuple(1 if r in s1_gp else 0 for r in range(1, ag + 1)))
        s.setdefault(p, tuple(0 if r in s2_gp else 1 for r in range(1, ap + 1)))
        s.setdefault(qq, tuple(0 if r in s2_pq else 1 for r in range(1, aq + 1)))
    for v in q.vertices:
        s.setdefault(v, tuple())
    return tuple(s[v] for v in q.vertices)


# -- the path-quiver specialization -------------------------------------------------


@dataclass(frozen=True)
class LinearGCC:
    """Witness of the path-quiver formula: one (horizontal, vertical) bit
    pair per internal edge; a single end bit in the one-vertex case."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    end_bit: int | None = None


def enumerate_linear_gcc(celq: CompletelyExtendedLinearQuiver):
    n = celq.n
    if n == 1:
        yield LinearGCC(1, (), 0)
        yield LinearGCC(1, (), 1)
        return
    delta = celq.delta
    allowed = ((0, 0), (0, 1), (1, 0))

    def ok(prev, cur, i):
        # i is the 1-based index of the later edge
        d1, d2 = delta[i - 2], delta[i - 1]
        if (d1, d2) == (0, 0):
            return prev[1] != cur[0]
        if (d1, d2) == (1, 1):
            return prev[0] != cur[1]
        if (d1, d2) == (0, 1):
            return prev[1] == cur[1]
        return prev[0] == cur[0]

    # depth-first on an explicit stack of (edges kept, pair for the next edge)
    pairs: list[tuple[int, int]] = []
    todo = [(0, cur) for cur in reversed(allowed)]
    while todo:
        k, cur = todo.pop()
        del pairs[k:]
        pairs.append(cur)
        if k + 2 == n:
            yield LinearGCC(n, tuple(pairs))
        else:
            todo += [(k + 1, nxt) for nxt in reversed(allowed) if ok(cur, nxt, k + 2)]


def _linear_gcc_factors(celq: CompletelyExtendedLinearQuiver,
                        w: LinearGCC) -> list[dict[int, int]]:
    """The exponent maps of the edge factors y_0..y_n of one witness."""
    n = celq.n
    if n == 1:
        if w.end_bit == 1:
            return [{celq.start0: 1}, {celq.end0: 1}]
        return [{celq.start1: 1}, {celq.end1: 1}]
    delta = celq.delta
    d1 = delta[0]
    first = w.pairs[0][d1]  # |S_{1,1+delta_1}|
    ys = [{celq.start0 if first == 1 - d1 else celq.start1: 1}]
    for i in range(1, n):
        s1, s2 = w.pairs[i - 1]
        d = delta[i - 1]
        ys.append({i + d: s2, i + 1 - d: s1, celq.mid(i): 1 - s1 - s2})
    dn = delta[n - 2]
    last = w.pairs[n - 2][1 - dn]  # |S_{n-1,2-delta_{n-1}}|
    ys.append({celq.end0 if last == dn else celq.end1: 1})
    return ys


def linear_gcc_weight(celq: CompletelyExtendedLinearQuiver, w: LinearGCC) -> LaurentPoly:
    """Product of the edge factors of one witness, before dividing by the
    path variables, summed into one exponent map."""
    e: Counter[int] = Counter()
    for y in _linear_gcc_factors(celq, w):
        e.update(y)
    return LaurentPoly.monomial(e)


# -- per-variable sequences on an ambient quiver --------------------------------------


def enumerate_variable_gcs(qtilde: Quiver, linear_vertices):
    """0-1 markings of the path vertices with no arrow inside the path going
    from a marked to an unmarked vertex; bits are listed in path order."""
    order = require_path(qtilde, linear_vertices)
    pos = {v: i for i, v in enumerate(order)}
    imps = []
    for a, b in zip(order, order[1:]):
        if qtilde.has_arrow(a, b):
            imps.append((pos[a], pos[b]))
        else:
            imps.append((pos[b], pos[a]))
    yield from _enumerate_closed_assignments(len(order), imps)


def variable_gcs_k_set(qtilde: Quiver, linear_vertices) -> set[int]:
    """Off-path vertices receiving exactly one arrow from the path and
    sending exactly one back (the two path neighbors of a glued triangle)."""
    vs = set(linear_vertices)
    out = set()
    for k in set().union(*(qtilde.neighbors(v) for v in vs)) - vs:
        deg_in = sum(1 for t in qtilde.arrows_in(k) if t in vs)
        deg_out = sum(1 for h in qtilde.arrows_out(k) if h in vs)
        if deg_in == 1 and deg_out == 1:
            out.add(k)
    return out


def variable_gcs_monomial(qtilde: Quiver, linear_vertices, s) -> LaurentPoly:
    """The Laurent monomial attached to one marking: every arrow i -> j adds
    the marking of i (0 off the path) to x_j and one minus the marking of j
    (0 off the path) to x_i, so only arrows with an end on the path count."""
    order = require_path(qtilde, linear_vertices)
    bit = {v: s[i] for i, v in enumerate(order)}
    expo: dict[int, int] = defaultdict(int)
    for i in order:
        for j in qtilde.arrows_out(i):
            expo[j] += bit[i]
            expo[i] += 1 - bit[j] if j in bit else 0
        for t in qtilde.arrows_in(i):
            if t not in bit:  # an arrow inside the path was counted from its tail
                expo[t] += 1 - bit[i]
    for r in bit.keys() | variable_gcs_k_set(qtilde, order):
        expo[r] -= 1
    return LaurentPoly.monomial(expo)
