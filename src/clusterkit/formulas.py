"""Combinatorial expansion formulas for cluster monomials.

Three routes to the same Laurent polynomial:

* globally compatible sequences (one 0-1 sequence per vertex, binary
  constraints along oriented triangles ordered by directed distance from a
  base vertex),
* globally compatible collections (edge subsets of maximal lattice paths,
  one path per arrow, corner compatibility plus matching rules),
* the specialization to a path quiver with triangles glued everywhere,
  whose witnesses are per-edge pairs.

All enumeration runs one solver over binary variables, not power-set
filtering: what each bit's 0 and 1 force is computed once per system, so no
branch of the search fails and a witness costs a few ORs of masks.  Counts
and values skip it where the constraints form fences (paths; `_fences`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Mapping
from itertools import accumulate, chain

from .errors import AssumptionViolated, Unreachable
from .geometry import _overlap, _require_nonnegative
from .laurent import LaurentPoly, affine_sum, bits, field_width, mono, unpack
from .quiver import CompletelyExtendedLinearQuiver, CompletionResult, Quiver, require_path


# -- assumptions and distances -------------------------------------------------


def three_cycle_cover(q: Quiver) -> Mapping[tuple[int, int], tuple[int, int, int]]:
    """Map every arrow to its oriented triangle (as the rotation starting at
    the arrow); raises if some arrow lies in none."""
    cover = q._cover
    if len(cover) < len(q._arrow_set):
        a = next(a for a in q.arrows if a not in cover)
        raise AssumptionViolated(f"arrow {a} lies in no oriented triangle")
    return cover


def base_vertex_distance(q: Quiver, i0: int) -> dict[int, int]:
    """Length of the shortest directed path from i0 to every vertex."""
    outs = q._adjacency[0]
    dist = {i0: 0}
    queue = [i0] if 1 <= i0 <= q.n else []
    for v in queue:  # breadth first: the list grows behind the loop
        d = dist[v] + 1
        for h in outs[v]:
            if h not in dist:
                dist[h] = d
                queue.append(h)
    if len(queue) < q.n:
        missing = [v for v in q.vertices if v not in dist]
        raise Unreachable(f"vertices {missing} unreachable from base vertex {i0}")
    return dist


def choose_base_vertex(q: Quiver) -> tuple[int, dict[int, int]]:
    """First degree-2 vertex from which all vertices are reachable."""
    outs, ins = q._adjacency
    last_exc = AssumptionViolated("no degree-2 vertex available as base")
    for i0 in (v for v in q.vertices if len(outs[v]) + len(ins[v]) == 2):
        try:
            return i0, base_vertex_distance(q, i0)
        except Unreachable as exc:
            import logging  # only here: a command that never warns skips loading it
            logging.getLogger(__name__).warning("base vertex %d rejected: %s", i0, exc)
            last_exc = exc
    raise last_exc


def _gateway_labels(cycle, dist) -> tuple[int, int, int]:
    """Rotate an oriented triangle so distances increase along it: the
    first rotation from a vertex of least distance."""
    i, j, k = cycle
    di, dj, dk = dist[i], dist[j], dist[k]
    g, p, qq = (i, j, k) if di <= dj and di <= dk else (j, k, i) if dj <= dk else (k, i, j)
    if not (dist[g] < dist[p] < dist[qq]):
        raise AssumptionViolated(f"triangle {cycle} has non-distinct distances {[di, dj, dk]}")
    return g, p, qq


def gateway_rotations(q: Quiver, dist) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The gateway rotation of every oriented triangle, keyed by its first
    arrow; raises unless every triangle has distinct distances."""
    out = {}
    for cycle in q._three_cycles:
        g, p, qq = _gateway_labels(cycle, dist)
        out[g, p] = g, p, qq
    return out


def _gateways(q: Quiver, i0: int | None):
    """Gateway rotations from i0, or from the default base vertex, which
    are labelled once per quiver."""
    return q._base_gateways if i0 is None else gateway_rotations(q, base_vertex_distance(q, i0))


def _overlaps(q: Quiver, a, support) -> dict[tuple[int, int], int]:
    """sigma(a_i, a_j, a_k) for every arrow (i, j) of an oriented triangle
    (i, j, k) that touches the support, three sigmas per triangle.  Every
    other arrow has overlap 0: its triangle's entries are all 0."""
    cover, outs = q._cover, q._adjacency[0]
    ov: dict[tuple[int, int], int] = {}
    for v in support:
        for h in outs[v]:
            if (v, h) in cover and (v, h) not in ov:
                i, j, k = cover[(v, h)]
                x, y, z = a[i - 1], a[j - 1], a[k - 1]
                ov[(i, j)] = _overlap(x, y, z)
                ov[(j, k)] = _overlap(y, z, x)
                ov[(k, i)] = _overlap(z, x, y)
    return ov


# -- binary constraint solver ---------------------------------------------------


def _closures(nbits: int, implications) -> tuple[list[int], list[int]]:
    """Per bit, the mask of the bits its 1 forces to 1 and the mask of those
    its 0 forces to 0, the bit included.  They are built one strongly
    connected component of the implication graph at a time (Tarjan 1972, on
    an explicit stack).  Components finish sinks first, so a component's
    forward mask is its bits ORed with the finished masks it points to; in
    the reverse order, its backward mask takes those pointing to it."""
    succ: list[list[int]] = [[] for _ in range(nbits)]
    pred: list[list[int]] = [[] for _ in range(nbits)]
    for x, y in implications:
        succ[x].append(y)
        pred[y].append(x)
    order, low, comp = [-1] * nbits, [0] * nbits, [-1] * nbits
    pending, comps, visited = [], [], 0  # bits of unfinished components; sinks first
    for root in (r for r in range(nbits) if order[r] < 0):
        order[root] = low[root] = visited = visited + 1
        pending.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if order[w] < 0:  # enter w; v's other successors wait in rest
                    order[w] = low[w] = visited = visited + 1
                    pending.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is pending: v's component
                    low[v] = order[w]
            else:  # v is finished; so is its component if v is the first of it
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:  # pending is in visit order
                    k = bisect_left(pending, order[v], key=order.__getitem__)
                    comps.append(pending[k:])
                    del pending[k:]
                    for u in comps[-1]:
                        comp[u] = len(comps) - 1
    masks = []
    for edges, ids in ((succ, range(len(comps))), (pred, range(len(comps) - 1, -1, -1))):
        closed = [0] * len(comps)
        for c in ids:
            for u in comps[c]:
                closed[c] |= 1 << u
                for w in edges[u]:
                    closed[c] |= closed[comp[w]]
        masks.append([closed[c] for c in comp])
    return masks[0], masks[1]


def _closed_masks(nbits: int, implications):
    """All 0-1 assignments closed under the given implications (x=1 forces
    y=1), each as the mask of its set bits, in lexicographic order of the
    bits with 0 < 1.  Depth first on an explicit stack of (set bits, assigned
    bits): the lowest free bit takes 0, with what its 0 forces, while 1, with
    what its 1 forces, waits on the stack.  A free bit is forced by no
    assigned bit, so neither branch can contradict one and none fails."""
    fwd, bwd = _closures(nbits, implications)
    full = (1 << nbits) - 1
    todo = [(0, 0)]
    while todo:
        ones, done = todo.pop()
        while done != full:
            p = (~done & (done + 1)).bit_length() - 1
            todo.append((ones | fwd[p], done | fwd[p]))
            done |= bwd[p]
        yield ones


def _enumerate_closed_assignments(nbits: int, implications):
    """`_closed_masks` as 0-1 tuples, bit 0 first."""
    for ones in _closed_masks(nbits, implications):
        yield tuple(bits(ones, nbits))


def _fences(nbits: int, implications):
    """The implication graph as fences, or None.  Bits that imply each other
    merge into one node; if every node then meets at most two others and lies
    on no cycle, each connected piece is a path from one end, as (node's bits,
    step) per node: step 1 where the node before forces this one, -1 where
    this one forces it, 0 at the first node."""
    pairs = set(implications)
    node, members = list(range(nbits)), [[b] for b in range(nbits)]
    for x, y in pairs:
        a, b = node[x], node[y]
        if a != b and (y, x) in pairs:
            for u in members[b]:
                node[u] = a
            members[a] += members[b]
    arcs = {(node[x], node[y]) for x, y in pairs if node[x] != node[y]}
    links = [[] for _ in range(nbits)]  # per node: (neighbour, step)
    for a, b in arcs:
        if (b, a) in arcs or len(links[a]) > 1 or len(links[b]) > 1:
            return None  # two nodes forcing each other, or a third neighbour
        links[a].append((b, 1))
        links[b].append((a, -1))
    paths, seen = [], set()
    for a in range(nbits):
        if node[a] == a and a not in seen and len(links[a]) < 2:  # a path's first end
            path, prev, step = [], -1, 0
            while a >= 0:
                seen.add(a)
                path.append((members[a], step))
                prev, (a, step) = a, ([n for n in links[a] if n[0] != prev] or [(-1, 0)])[0]
            paths.append(path)
    return paths if len(seen) == len(set(node)) else None  # a node not seen lies on a cycle


def _count(nbits: int, implications, *_) -> int:
    """The number of closed assignments, by transfer on fences; no witness is built."""
    paths = _fences(nbits, implications)
    if paths is None:
        return sum(1 for _ in _closed_masks(nbits, implications))
    c0, c1 = 1, 0  # assignments so far with the last node at 0, at 1
    for _, step in chain(*paths):
        both = c0 + c1
        c0, c1 = c0 if step > 0 else both, c1 if step < 0 else both
    return c0 + c1


def _tally(nbits: int, implications, runs) -> dict[tuple[int, ...], int]:
    """The number of closed assignments per tuple of set-bit counts in runs
    of consecutive bits (their lengths, in bit order).  On fences, `_count`'s
    transfer of tallies keyed by the counts packed one field per run."""
    paths = _fences(nbits, implications)
    if paths is None:
        spans = [(end - size, (1 << size) - 1) for size, end in zip(runs, accumulate(runs))]
        return Counter(tuple((ones >> s & m).bit_count() for s, m in spans)
                       for ones in _closed_masks(nbits, implications))
    width = field_width(max(runs, default=0))
    shift = [1 << width * k for k, size in enumerate(runs) for _ in range(size)]
    c0, c1 = {0: 1}, {}
    for node, step in chain(*paths):
        both = c0.copy() if step > 0 else c0  # step 1: a 0 here needs a 0 before
        for k, c in c1.items():
            both[k] = both.get(k, 0) + c
        w = sum(shift[b] for b in node)
        c1 = {k + w: c for k, c in (c1 if step < 0 else both).items()}
    return unpack({k: c0.get(k, 0) + c1.get(k, 0) for k in c0.keys() | c1.keys()}, width, len(runs))


# -- globally compatible sequences ----------------------------------------------


def _checked(q: Quiver, a):
    """A public formula's check, then its core's input: a, support, overlaps."""
    a, support = _require_nonnegative(q, a, "formula requires")
    return a, support, _overlaps(q, a, support)


def enumerate_gcs(q: Quiver, a, i0: int | None = None):
    """All globally compatible sequences for the vector a, as tuples of 0-1
    tuples (one per vertex), in lexicographic order of the concatenated
    bits.  Only the triangles touching the support of a constrain a bit."""
    yield from _gcs(q, *_checked(q, a), i0)


def _gcs_system(q: Quiver, a, support, ov, i0: int | None = None):
    """The solver input for the sequences of a checked vector: the bit count,
    the implications and the index of each support vertex's first bit."""
    three_cycle_cover(q)
    gateways = _gateways(q, i0)
    first, nbits = {}, 0
    for v in support:
        first[v] = nbits
        nbits += a[v - 1]
    bit = lambda v, r: first[v] + r - 1
    imps = []
    for e in ov:
        if e not in gateways:
            continue
        g, p, qq = gateways[e]
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        for t in range(1, ov[(g, p)] + 1):
            imps.append((bit(g, t), bit(p, t)))
        for t in range(1, ov[(p, qq)] + 1):
            imps.append((bit(p, ap + 1 - t), bit(qq, t)))
        for t in range(1, ov[(qq, g)] + 1):
            imps.append((bit(qq, aq + 1 - t), bit(g, ag + 1 - t)))
    return nbits, imps, first


def _gcs(q: Quiver, a, support, ov, i0: int | None = None):
    """`enumerate_gcs` of a checked vector with its support and overlaps."""
    nbits, imps, first = _gcs_system(q, a, support, ov, i0)
    for bits in _enumerate_closed_assignments(nbits, imps):
        out = [()] * q.n
        for v in support:
            out[v - 1] = bits[first[v]: first[v] + a[v - 1]]
        yield tuple(out)


def _gcs_terms(q: Quiver, a, support, ov, base, i0: int | None = None):
    """The sum of `gcs_weight` over the sequences as `laurent.affine_sum`
    input: base plus a_v on the tails of the arrows into each support vertex
    v, each set bit of v adding 1 on their heads and -1 on those tails."""
    outs, ins = q._adjacency
    shifted, deltas = dict(base), []
    for v in support:
        for t in ins[v]:
            shifted[t] = shifted.get(t, 0) + a[v - 1]
        deltas.append(mono({**dict.fromkeys(outs[v], 1), **dict.fromkeys(ins[v], -1)}))
    nbits, imps, _ = _gcs_system(q, a, support, ov, i0)
    return shifted, deltas, _tally(nbits, imps, [a[v - 1] for v in support])


def term_base(q: Quiver, a) -> dict[int, int]:
    """The part of every gcs or gcc term fixed by (q, a): the denominator
    exponent -a_v minus one overlap count sigma per rotation of an oriented
    triangle starting at v.  It maps the support of a and every vertex of a
    triangle touching it (on a completed quiver, all their neighbours); no
    other vertex can have a nonzero exponent in a term."""
    return _term_base(q, *_checked(q, a))


def _term_base(q: Quiver, a, support, ov) -> dict[int, int]:
    """`term_base` of a checked vector with its support and overlaps."""
    base = {v: -a[v - 1] for v in support}
    for e, s in ov.items():
        k = q._cover[e][2]
        base[k] = base.get(k, 0) - s
    return base


def gcs_weight(q: Quiver, a, s, base) -> LaurentPoly:
    """The Laurent monomial of one globally compatible sequence, given
    `term_base(q, a)`: base plus, over each arrow, the head's zero count on
    the tail and the tail's one count on the head.  Only arrows at the
    support add anything."""
    e = dict(base)
    outs, ins = q._adjacency
    for v in base:
        k = a[v - 1]
        if k:
            ones = sum(s[v - 1])
            for h in outs[v]:
                e[h] = e.get(h, 0) + ones
            for t in ins[v]:
                e[t] = e.get(t, 0) + k - ones
    return LaurentPoly.monomial(e)


def formula_gcs(q: Quiver, a, i0: int | None = None) -> LaurentPoly:
    """Cluster monomial as a sum over globally compatible sequences."""
    a, support, ov = _checked(q, a)
    return affine_sum(*_gcs_terms(q, a, support, ov, _term_base(q, a, support, ov), i0))


# -- globally compatible collections ----------------------------------------------


class GCCollection:
    """Per-arrow horizontal/vertical edge subsets, recorded by corner-first
    label (1-based)."""

    def __init__(self, chosen: tuple[tuple[tuple[int, int], frozenset, frozenset], ...]):
        self.chosen = chosen  # ((arrow, S1 labels, S2 labels), ...) sorted by arrow

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self.chosen == other.chosen

    def __hash__(self):
        return hash(self.chosen)


def _empty_collection(q: Quiver):
    """Every distinct arrow in sorted order with two empty sets, and each
    arrow's position in that tuple."""
    arrows = dict.fromkeys(q.arrows)  # sorted already
    none = frozenset()
    return tuple((e, none, none) for e in arrows), {e: k for k, e in enumerate(arrows)}


def enumerate_gcc(q: Quiver, a):
    """All globally compatible collections for the vector a.  Only arrows
    meeting the support of a carry bits or labels; each collection fills
    them in on the quiver's empty collection, built once per listing."""
    yield from _gcc(q, *_checked(q, a))


def _gcc_system(q: Quiver, a, support, ov):
    """The solver input for the collections of a checked vector: the bit
    count, the implications, per arrow meeting the support the bits of its
    horizontals and verticals, and the arrows out of the support (whose
    horizontals are the bits, in order)."""
    if q.n == 1:
        raise AssumptionViolated("collections need at least two vertices")
    cover = three_cycle_cover(q)
    outs, ins = q._adjacency
    leaving = sorted((v, h) for v in support for h in outs[v])  # the arrows with bits
    index: dict[tuple[tuple[int, int], int], int] = {}
    for e in leaving:
        for r in range(1, a[e[0] - 1] + 1):
            index[(e, r)] = len(index)

    def s2_source(e, r):
        """Free bit whose negation gives the r-th vertical of arrow e."""
        _, j, k = cover[e]
        return index[((j, k), a[j - 1] + 1 - r)]

    # corner compatibility: a chosen horizontal forbids the matching vertical
    imps = [(x, s2_source(e, r)) for (e, r), x in index.items() if r <= ov[e]]
    # matching across distinct triangles sharing a vertex
    for i in support:
        for k in ins[i]:
            for j in outs[i]:
                if (j, k) in q._arrow_set:
                    continue  # same triangle, already the defining rule
                for r in range(1, a[i - 1] + 1):
                    x = s2_source((k, i), r)      # 1 - x = vertical bit r
                    y = index[((i, j), r)]        # horizontal bit r
                    # requirement: vertical r chosen iff horizontal r not chosen
                    imps.append((x, y))
                    imps.append((y, x))
    fill = []
    for e in leaving + [(t, v) for v in support for t in ins[v] if not a[t - 1]]:
        i, j, _ = cover[e]
        fill.append((e, [(r, index[(e, r)]) for r in range(1, a[i - 1] + 1)],
                     [(r, s2_source(e, r)) for r in range(1, a[j - 1] + 1)]))
    return len(index), imps, fill, leaving


def _gcc(q: Quiver, a, support, ov):
    """`enumerate_gcc` of a checked vector with its support and overlaps."""
    nbits, imps, fill, _ = _gcc_system(q, a, support, ov)
    template, place = _empty_collection(q)
    for bits in _enumerate_closed_assignments(nbits, imps):
        chosen = list(template)
        for e, horizontal, vertical in fill:
            chosen[place[e]] = (e, frozenset(r for r, x in horizontal if bits[x]),
                                frozenset(r for r, x in vertical if not bits[x]))
        yield GCCollection(tuple(chosen))


def _gcc_terms(q: Quiver, a, support, ov, base):
    """The sum of `gcc_weight` over the collections as `laurent.affine_sum`
    input.  A bit of an arrow j -> k out of the support is a horizontal,
    adding 1 on k, and, negated, a vertical of the arrow i -> j before it in
    its triangle: base gains a_j on i, and each set bit adds -1 on i."""
    nbits, imps, _, leaving = _gcc_system(q, a, support, ov)
    shifted, deltas = dict(base), []
    for j, k in leaving:
        i = q._cover[(j, k)][2]
        shifted[i] = shifted.get(i, 0) + a[j - 1]
        deltas.append(mono({k: 1, i: -1}))
    return shifted, deltas, _tally(nbits, imps, [a[j - 1] for j, _ in leaving])


def gcc_weight(gcc: GCCollection, base) -> LaurentPoly:
    """The Laurent monomial of one globally compatible collection, given
    `term_base(q, a)` of its quiver and vector: base plus, over each arrow
    i -> j, its vertical count on x_i and its horizontal count on x_j."""
    e = dict(base)
    for (i, j), s1, s2 in gcc.chosen:
        e[i] = e.get(i, 0) + len(s2)
        e[j] = e.get(j, 0) + len(s1)
    return LaurentPoly.monomial(e)


# -- the path-quiver specialization -------------------------------------------------


class LinearGCC:
    """Witness of the path-quiver formula: one (horizontal, vertical) bit
    pair per internal edge; a single end bit in the one-vertex case."""

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...], end_bit: int | None = None):
        self.n = n
        self.pairs = pairs
        self.end_bit = end_bit

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.n, self.pairs, self.end_bit) == (other.n, other.pairs, other.end_bit))


def _linear_gcc_walk(celq: CompletelyExtendedLinearQuiver, step, zero):
    """Depth first over the witnesses of a path of n >= 2 vertices, in
    lexicographic order of their pairs, yielding per witness zero plus
    step(i, pair) over its pairs, edge i = 1..n-1."""
    n, delta = celq.n, celq.delta
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

    steps = [{}] + [{p: step(i, p) for p in allowed} for i in range(1, n)]
    # an explicit stack of (edge, its pair, the sum before it)
    todo = [(1, cur, zero) for cur in reversed(allowed)]
    while todo:
        i, cur, acc = todo.pop()
        acc += steps[i][cur]
        if i + 1 == n:
            yield acc
        else:
            todo += [(i + 1, nxt, acc) for nxt in reversed(allowed) if ok(cur, nxt, i + 1)]


def enumerate_linear_gcc(celq: CompletelyExtendedLinearQuiver):
    n = celq.n
    if n == 1:
        yield LinearGCC(1, (), 0)
        yield LinearGCC(1, (), 1)
        return
    for pairs in _linear_gcc_walk(celq, lambda i, p: (p,), ()):
        yield LinearGCC(n, pairs)


def _linear_gcc_count(celq: CompletelyExtendedLinearQuiver) -> int:
    """The number of witnesses of a path; no witness is built."""
    return 2 if celq.n == 1 else sum(1 for _ in _linear_gcc_walk(celq, lambda i, p: 0, 0))


def _linear_gcc_terms(comp: CompletionResult):
    """The sum of `linear_gcc_weight` over the witnesses of a completed path,
    divided by the path variables, in ambient variables, as
    `laurent.affine_sum` input.  A witness is tallied by its edge-factor
    choices: one field per canonical label, as wide as the n + 1 factors
    need.  The pair at edge i settles y_i (x_{i+delta_i} if its vertical is
    set, x_{i+1-delta_i} if its horizontal is, else the middle vertex), and
    at the first and last edges also y_0 and y_n."""
    celq, deltas = comp.celq, comp.unit_deltas(1)
    n, delta = celq.n, celq.delta
    width = field_width(n + 1)
    shift = [0] + [1 << width * k if d else 0 for k, d in enumerate(deltas)]  # by label

    def step(i, pair):
        s1, s2 = pair
        d = delta[i - 1]
        x = shift[i + d if s2 else i + 1 - d if s1 else celq.mid(i)]
        if i == 1:
            x += shift[celq.start0 if pair[delta[0]] == 1 - delta[0] else celq.start1]
        if i == n - 1:
            x += shift[celq.end0 if pair[1 - delta[-1]] == delta[-1] else celq.end1]
        return x
    if n == 1:  # end bit 0, then end bit 1
        tally = Counter((shift[celq.start1] + shift[celq.end1], shift[celq.start0] + shift[celq.end0]))
    else:
        tally = Counter(_linear_gcc_walk(celq, step, 0))
    return dict.fromkeys(comp.base_order, -1), deltas, unpack(tally, width, len(deltas))


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


def _variable_gcs_system(qtilde: Quiver, order):
    """The solver input for the markings of a path given in path order: the
    bit count (one bit per path vertex, in path order) and the implications,
    one per path edge, from its tail's bit to its head's."""
    imps = [(i, i + 1) if qtilde.has_arrow(a, b) else (i + 1, i)
            for i, (a, b) in enumerate(zip(order, order[1:]))]
    return len(order), imps


def _variable_gcs(qtilde: Quiver, order):
    """The markings of a path given in path order (`enumerate_variable_gcs`)."""
    return _enumerate_closed_assignments(*_variable_gcs_system(qtilde, order))


def enumerate_variable_gcs(qtilde: Quiver, linear_vertices):
    """0-1 markings of the path vertices with no arrow inside the path going
    from a marked to an unmarked vertex; bits are listed in path order."""
    yield from _variable_gcs(qtilde, require_path(qtilde, linear_vertices))


def _variable_gcs_terms(qtilde: Quiver, order):
    """The sum of `variable_gcs_monomial` over the markings of a path given
    in path order, as `laurent.affine_sum` input: base is 1 on the tail of
    every arrow into the path and -1 on the path and its K set, and a marked
    vertex adds 1 on the heads of its arrows out and -1 on the tails of its
    arrows in.  A marking is tallied by its mask from the solver: one bit
    per field."""
    nbits, imps = _variable_gcs_system(qtilde, order)
    outs, ins = qtilde._adjacency
    base = Counter(t for v in order for t in ins[v])
    base.subtract(set(order) | variable_gcs_k_set(qtilde, order))
    deltas = []
    for v in order:
        e = Counter(outs[v])
        e.subtract(ins[v])
        deltas.append(mono(e))
    return base, deltas, unpack(Counter(_closed_masks(nbits, imps)), 1, nbits)


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
