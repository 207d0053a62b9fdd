"""The gcs and gcc formulas for cluster monomials.

Two routes to the same Laurent polynomial:

* globally compatible sequences (one 0-1 sequence per vertex, binary
  constraints along oriented triangles ordered by directed distance from a
  base vertex),
* globally compatible collections (edge subsets of maximal lattice paths,
  one path per arrow, corner compatibility plus matching rules).

Both run the binary solver of `solver` on their constraints.  The two
formulas of one cluster variable on its path, the specialization to a path
with triangles glued everywhere (`linear_gcc`) and the per-variable
sequences (`variable_gcs`), are modules of their own.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import AssumptionViolated, Unreachable
from .geometry import _overlap, _require_nonnegative
from .laurent import LaurentPoly, affine_sum, mono
from .quiver import Quiver
# harness counts gcs and gcc by this module's `_count`
from .solver import _count, _enumerate_closed_assignments, _tally


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
