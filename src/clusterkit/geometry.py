"""Polygon triangulations, d-vector validity, pipelines, and decomposition.

A type-A quiver on n vertices is realized by a triangulation of a convex
(n+3)-gon: diagonals carry labels 1..n, boundary edges n+1..2n+3.  Polygon
corners are 0-based integers in counterclockwise order; all geometric
predicates (crossing, ranks of marked points) are pure index arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from itertools import chain, combinations, compress, count, repeat
from types import MappingProxyType

from .errors import NegativeInput, NotInW, NotTypeA, PositivePartNotInW
from .quiver import CompletelyExtendedLinearQuiver, Quiver, _derived, path_order, require_type_a


def _twice_sigma(x, y, z) -> int:
    if x < 0 or y < 0 or z < 0:
        raise NegativeInput(f"sigma needs nonnegative inputs, got {(x, y, z)}")
    return max(x + y - z, 0) - max(x - y - z, 0) - max(y - x - z, 0)


def sigma(x, y, z):
    """Overlap count ([x+y-z]_+ - [x-y-z]_+ - [y-x-z]_+) / 2.

    Equals x when y > x+z, y when x > y+z, 0 when z > x+y, and (x+y-z)/2
    otherwise.  Integer inputs yield an integer in every use on valid
    d-vectors; a half-integer comes back as an exact Fraction.
    """
    num = _twice_sigma(x, y, z)
    if num % 2 == 0:
        return num // 2
    from fractions import Fraction  # rare, so loaded only when needed
    return Fraction(num, 2)


def sigma_int(x, y, z) -> int:
    """sigma in integer arithmetic alone; a half-integer raises NotInW."""
    num = _twice_sigma(x, y, z)
    if num % 2:
        raise NotInW(f"sigma{(x, y, z)} is not an integer; vector violates parity")
    return num // 2


def satisfies_property_a(q: Quiver, a) -> bool:
    """Parity test for membership in the d-vector lattice: on every oriented
    3-cycle whose three entries are positive and satisfy the strict triangle
    inequalities, the sum must be even.  Always true without 3-cycles.
    Each triangle at a nonzero entry is read through its arrow out of it."""
    require_type_a(q)
    a = tuple(a)
    if len(a) != q.n:
        raise NotInW(f"vector length {len(a)} != {q.n}")
    cover, outs, nonzero = q._cover, q._adjacency[0], compress(range(1, q.n + 1), a)
    for i, j, k in (cover[(v, h)] for v in nonzero for h in outs[v] if (v, h) in cover):
        x, y, z = a[i - 1], a[j - 1], a[k - 1]
        if x > 0 and y > 0 and z > 0 and x < y + z and y < x + z and z < x + y:
            if (x + y + z) % 2:
                return False
    return True


def require_in_w(q: Quiver, a) -> tuple[int, ...]:
    """The d-vector as a tuple, once q is type A, a has length n and a passes
    the parity test (in that order; signs are not checked)."""
    a = tuple(a)
    if not satisfies_property_a(q, a):
        raise NotInW(f"{a} violates the parity condition on 3-cycles")
    return a


def support_of(a) -> list[int]:
    """The vertices (1-based) where the vector is nonzero, in order."""
    return list(compress(range(1, len(a) + 1), a))


def _require_nonnegative(q: Quiver, a, subject: str) -> tuple[tuple[int, ...], list[int]]:
    """The checked vector and its support, past `require_in_w` and a sign
    check whose message names the subject ("formula requires", "pipelines
    need", "mutation sequences need")."""
    a = require_in_w(q, a)
    if min(a, default=0) < 0:
        raise NotInW(f"{subject} a nonnegative vector, got {a}")
    return a, support_of(a)


def _positive_part(q: Quiver, a, in_w: bool = False):
    """The nonnegative part of a, its support and the negated negative
    entries by vertex, past one check: `require_in_w` if in_w (a is in W
    exactly when that part is, since the parity test reads only triangles
    with three positive entries), else `positive_split`'s on the part.
    O(support) past the check and `support_of`."""
    a = require_in_w(q, a) if in_w else tuple(a)
    plus, support = a, support_of(a)
    neg = {v: -a[v - 1] for v in support if a[v - 1] < 0}
    if neg:
        plus = list(a)
        for v in neg:
            plus[v - 1] = 0
        plus, support = tuple(plus), [v for v in support if v not in neg]
    if not in_w and not satisfies_property_a(q, plus):
        raise PositivePartNotInW(f"positive part {plus} violates the parity condition")
    return plus, support, neg


def positive_split(q: Quiver, a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a d-vector into its nonnegative part and the exponents of the
    initial variables carried by the negative entries."""
    plus, _, neg = _positive_part(q, a)
    return plus, tuple(neg.get(v, 0) for v in range(1, len(plus) + 1))


# -- triangulations ----------------------------------------------------------


class Triangulation:
    """Labeled triangulation of a convex polygon.

    edges maps label -> sorted corner pair; labels 1..n are diagonals, higher
    labels boundary edges.  vpoint/wpoint are the distinguished corners of the
    staircase construction (present only when built from a path quiver)."""

    def __init__(self, size: int, n: int, edges: Mapping[int, tuple[int, int]],
                 vpoint: int | None = None, wpoint: int | None = None):
        self.size = size
        self.n = n
        self.edges = edges
        self.vpoint = vpoint
        self.wpoint = wpoint

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.size, self.n, self.edges, self.vpoint, self.wpoint)
            == (other.size, other.n, other.edges, other.vpoint, other.wpoint))

    def cross(self, d: tuple[int, int], e: tuple[int, int]) -> bool:
        """Strict interior crossing of two corner pairs: their ends alternate."""
        (a, b), (c, f) = sorted(d), sorted(e)
        return a < c < b < f or c < a < f < b

    @_derived
    def _faces(self):
        """`triangles()`, built once, and the faces on each side label."""
        faces, at = self.triangles(), {}
        for ti, (_, sides) in enumerate(faces):
            for s in sides:
                at.setdefault(s, []).append(ti)
        return faces, at

    def triangles(self) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
        """All triangular faces as (ccw corner triple, side labels), sorted.

        Corner triples are ascending (hence counterclockwise); side labels
        are aligned so that side m joins corners m and m+1 (mod 3).  An edge
        (u, z) with z > u + 1 bounds one face inside it, whose apex is the
        one corner strictly between u and z adjacent to both; an edge with
        none or more raises NotTypeA, as the map is no triangulation."""
        by_pair = {e: lbl for lbl, e in self.edges.items()}
        up, down = defaultdict(set), defaultdict(set)  # neighbours above, below
        for (u, z) in by_pair:
            up[u].add(z)
            down[z].add(u)
        faces = []
        for (u, z), lbl in by_pair.items():
            if z > u + 1:
                apex = up[u] & down[z]
                if len(apex) != 1:
                    raise NotTypeA(f"edge {(u, z)} bounds {len(apex)} faces inside it")
                w = apex.pop()
                faces.append(((u, w, z), (by_pair[u, w], by_pair[w, z], lbl)))
        faces.sort()
        return faces


def triangulation_of(celq: CompletelyExtendedLinearQuiver) -> Triangulation:
    """Staircase triangulation realizing a completely extended linear quiver.

    The first diagonal closes the triangle at the distinguished corner; each
    following one pivots counterclockwise when the path arrow points forward
    and clockwise otherwise.  Boundary labels reuse the quiver's extension
    vertex ids."""
    n = celq.n
    m = n + 3
    edges: dict[int, tuple[int, int]] = {}
    edges[celq.start0] = (0, 1)
    edges[celq.start1] = (0, m - 1)
    p, qpos = 1, m - 1
    edges[1] = (p, qpos)
    for i, d in enumerate(celq.delta, start=1):
        if d == 0:
            edges[celq.mid(i)] = (p, p + 1)
            p += 1
        else:
            edges[celq.mid(i)] = (qpos - 1, qpos)
            qpos -= 1
        edges[i + 1] = (p, qpos)
    edges[celq.end1] = (p, p + 1)
    edges[celq.end0] = (p + 1, qpos)
    return Triangulation(m, n, edges, vpoint=0, wpoint=p + 1)


def _ccw_triangle_arrows(sides: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Arrows induced by one triangle with sides listed in ccw corner order:
    side m joins corners m, m+1.  Rotating a side onto its ccw neighbor (by
    less than a straight angle) goes s0 -> s2 -> s1 -> s0."""
    s0, s1, s2 = sides
    return [(s0, s2), (s2, s1), (s1, s0)]


def quiver_of(t: Triangulation) -> Quiver:
    """Quiver induced by a triangulation: one vertex per diagonal, arrows by
    counterclockwise rotation inside each triangle."""
    arrows = [(a, b) for _, sides in t.triangles() for a, b in _ccw_triangle_arrows(sides)
              if a <= t.n and b <= t.n]
    return Quiver(t.n, tuple(arrows))


def triangulation_for(q: Quiver) -> Triangulation:
    """A triangulation of the (n+3)-gon inducing the given type-A quiver.

    Built once per quiver and shared: its edge map is read-only."""
    require_type_a(q)
    return q._triangulation


def _build_triangulation(q: Quiver) -> Triangulation:
    """Triangles are read off the quiver (oriented 3-cycles, arrows outside
    3-cycles, boundary caps), oriented by the rotation rule, then glued and
    unrolled into a polygon by one counterclockwise boundary walk.

    This is the type-A test of a connected quiver: it raises NotTypeA unless
    the triangulation it built induces exactly the quiver's arrows."""
    n, cover = q.n, q._cover
    fresh = count(n + 1).__next__  # boundary labels
    triangles = [(i, k, j) for (i, j, k) in q._three_cycles]  # ccw side labels
    triangles += [(t, fresh(), h) for t, h in dict.fromkeys(a for a in q.arrows if a not in cover)]
    # side m of triangle ti is site 3 ti + m, and diagonal s's first two sites
    # are site[2 s] and site[2 s + 1], all the glue reads: no triangle holds
    # a label twice, so the site glued to another is the first one outside it
    side, site = list(chain.from_iterable(triangles)), [-1] * (2 * n + 2)
    for x, s in enumerate(side):
        if s <= n and site[2 * s + 1] < 0:
            site[2 * s + (site[2 * s] >= 0)] = x
    for k in [k for k in range(2, 2 * n + 2) if site[k] < 0]:  # a cap per missing site
        site[k] = len(side)
        side += (k // 2, fresh(), fresh())
    if len(side) != 3 * (n + 1):
        raise NotTypeA("triangle accounting failed; quiver is not type A")

    # depth-first walk over the glued sides on an explicit stack.  Corner m
    # of a triangle gets an id (side m joins its corners m and m+1 in ccw
    # order, site `nxt[x]` after site x): triangle 0 has corners 0, 1, 2, and
    # a triangle glued on site x takes x's corners m+1 and m on its sides m2
    # and m2+1, with a fresh id for its apex.  A boundary side records the
    # corner after its corner m counterclockwise: one walk from corner 0
    # numbers the polygon.
    nxt = list(range(1, len(side) + 1))
    nxt[2::3] = range(0, len(side), 3)
    corner = [-1] * len(side)
    corner[:3], next_id = (0, 1, 2), 3
    after = [0] * (n + 3)
    stack = [2, 1, 0]
    while stack:
        x = stack.pop()
        s = side[x]
        if s > n:
            after[corner[x]] = corner[nxt[x]]
            continue
        y = site[2 * s] if site[2 * s] // 3 != x // 3 else site[2 * s + 1]
        if corner[y] >= 0:
            raise NotTypeA("triangulation glue revisited a triangle")
        y1 = nxt[y]
        corner[y], corner[y1], corner[nxt[y1]] = corner[nxt[x]], corner[x], next_id
        next_id += 1
        stack += (nxt[y1], y1)
    if -1 in corner:
        raise NotTypeA("triangulation does not glue into a disk")
    # a tree of glued triangles is a disk: one boundary cycle through all corners
    position, c = [0] * next_id, 0
    for pos in range(next_id):
        position[c], c = pos, after[c]
    ends = list(map(position.__getitem__, corner))
    pairs = [(u, w) if u < w else (w, u) for u, w in zip(ends, map(ends.__getitem__, nxt))]
    t = Triangulation(n + 3, n, MappingProxyType(dict(zip(side, pairs))))
    # the faces are found again from the edge map alone, so the check below
    # does not read the glued triangles back; they stay as `t._faces`.  No
    # two faces share two sides, so no arrow is induced twice
    induced = [(a, b) for _, sides in t._faces[0]
               for a, b in _ccw_triangle_arrows(sides) if a <= n and b <= n]
    if len(induced) != len(q.arrows) or not q._arrow_set.issuperset(induced):
        raise NotTypeA("constructed triangulation does not induce the quiver")
    return t


# -- pipelines ----------------------------------------------------------------


class Pipeline:
    """One pseudo-diagonal assembled from pipes through marked points."""

    def __init__(self, endpoints: tuple[int, int], crossings: tuple[tuple[int, int], ...],
                 b_vector: tuple[int, ...]):
        self.endpoints = endpoints        # polygon corners
        self.crossings = crossings        # ordered (diagonal, rank)
        self.b_vector = b_vector

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.endpoints, self.crossings, self.b_vector)
            == (other.endpoints, other.crossings, other.b_vector))


class PipelineSet:
    """The pipelines of a d-vector; the pipes they run through are no part
    of its value."""

    def __init__(self, quiver: Quiver, triangulation: Triangulation, a: tuple[int, ...],
                 pipelines: tuple[Pipeline, ...], pipes: tuple[tuple, ...] = ()):
        self.quiver, self.triangulation, self.a = quiver, triangulation, a
        self.pipelines, self.pipes = pipelines, pipes

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.quiver, self.triangulation, self.a, self.pipelines)
            == (other.quiver, other.triangulation, other.a, other.pipelines))

    def as_diagonal_multiset(self) -> list[tuple[int, int]]:
        return [p.endpoints for p in self.pipelines]


def build_pipelines(q: Quiver, a) -> PipelineSet:
    """Marked points and pipes realizing a nonnegative d-vector.

    Each diagonal i carries a_i marked points.  Inside every triangle the
    matching marked points of two sides are joined rank-by-rank (counted from
    the sides' common corner), and leftover points run to the opposite
    corner.  Chaining pipes through marked points yields the pipelines."""
    return _pipelines(q, *_require_nonnegative(q, a, "pipelines need"))


def _pipelines(q: Quiver, a: tuple[int, ...], support) -> PipelineSet:
    """`build_pipelines` on a checked nonnegative vector with its support:
    the strands with their ids read back as marked points ("pt", s, r) and
    corners ("vx", c)."""
    strands, pipes = _strands(q, a, support)
    node = [("pt", s, r) for s in support for r in range(1, a[s - 1] + 1)]
    tag = lambda x: node[x] if x >= 0 else ("vx", -1 - x)
    pipelines = sorted((Pipeline(tuple(sorted((-1 - ids[0], -1 - ids[-1]))),
                                 tuple(node[x][1:] for x in ids[1:-1]), b)
                        for b, _, ids in strands),
                       key=lambda p: (p.b_vector, p.endpoints, p.crossings))
    return PipelineSet(q, q._triangulation, a, tuple(pipelines),
                       tuple((tag(x), tag(y)) for x, y in pipes))


def _overlap(x: int, y: int, z: int) -> int:
    """`sigma_int` of nonnegative counts, 0 without the parity question when
    x = 0, y = 0 or z >= x + y, where sigma is exactly 0."""
    return 0 if not x or not y or z >= x + y else sigma_int(x, y, z)


def _strands(q: Quiver, a: tuple[int, ...], support) -> tuple[list, list]:
    """The pipelines of a checked nonnegative vector on integer ids, as
    (b-vector, diagonals crossed in order, ids from corner to corner) in the
    order of their least point, and the pipes as id pairs in laying order.

    Marked point r of diagonal s is `first[s] + r - 1` (the support is in
    order, so ids follow (label, rank)) and corner c is `-1 - c`.  Only the
    faces at the support hold points.  In a face, two sides with points
    meeting at a corner join sigma of them rank by rank from it, pairs in
    label order; a side's leftover points, the ranks between those its two
    pairs take, run to the opposite corner.  Point p's two pipe ends are
    `nb[2 p]` and `nb[2 p + 1]`, in pipe order, so a chain keeps its
    direction."""
    n, (faces, at) = q.n, q._triangulation._faces
    first, label = {}, []
    for s in support:
        first[s] = len(label)
        label += [s] * a[s - 1]
    pipes = []
    for ti in sorted({ti for v in support for ti in at[v]}):
        corners, sides = faces[ti]
        counts = [a[s - 1] if s <= n else 0 for s in sides]
        used = [0] * 6  # side m's ranks taken from its smaller corner (2 m) and its larger
        live = [m for m in (0, 1, 2) if counts[m]]
        for mx, my in combinations(sorted(live, key=sides.__getitem__), 2):
            mz = 3 - mx - my
            if not (k := _overlap(counts[mx], counts[my], counts[mz])):
                continue
            common, runs = corners[mz - 1], []  # the corner opposite the third side
            for m in (mx, my):  # side m joins corners m and m + 1, the smaller m & 1
                f, up = first[sides[m]], common == corners[m & 1]
                used[2 * m + (not up)] = k
                runs.append(range(f, f + k) if up else
                            range(f + counts[m] - 1, f + counts[m] - 1 - k, -1))
            pipes += zip(*runs)
        for m in live:
            f = first[sides[m]]
            pipes += zip(range(f + used[2 * m], f + counts[m] - used[2 * m + 1]),
                         repeat(-1 - corners[m - 1]))
    size = len(label)
    nb, deg = [0] * (2 * size), bytearray(size)
    for p, x in pipes:  # a third end overwrites the second; deg still counts it
        nb[2 * p + (deg[p] > 0)] = x
        deg[p] += 1
        if x >= 0:
            nb[2 * x + (deg[x] > 0)] = p
            deg[x] += 1
    if deg.count(2) != size:
        p = next(p for p in range(size) if deg[p] != 2)
        raise NotInW(f"marked point {('pt', label[p], p - first[label[p]] + 1)} "
                     f"lies on {deg[p]} pipes")

    seen, strands, total = bytearray(size), [], [0] * n
    for p in range(size):
        if seen[p]:
            continue
        seen[p] = 1
        ids = [p]
        for end in (1, 0):  # out past p's second pipe, turn, out past its first, turn
            prev, cur = p, nb[2 * p + end]
            while cur >= 0:
                if seen[cur]:
                    raise NotInW("pipes form a closed loop")
                seen[cur] = 1
                ids.append(cur)
                prev, cur = cur, nb[2 * cur] if nb[2 * cur] != prev else nb[2 * cur + 1]
            ids.append(cur)
            ids.reverse()
        labels = [label[x] for x in ids[1:-1]]
        b = [0] * n
        for s in labels:
            if b[s - 1]:
                raise NotInW("a pipeline crosses a diagonal twice")
            b[s - 1] = 1
            total[s - 1] += 1
        strands.append((tuple(b), labels, ids))
    if tuple(total) != a:
        raise NotInW(f"pipeline supports sum to {tuple(total)}, expected {a}")
    return strands, pipes


def decompose(q: Quiver, a) -> tuple[tuple[int, ...], ...]:
    """Multiset of 0-1 vectors (one per pipeline) whose coordinatewise sum is
    the given nonnegative d-vector; each support induces a path.  A 0-1
    vector whose support already induces a path is returned unchanged."""
    return tuple(b for b, _ in _decompose(q, *_require_nonnegative(q, a, "pipelines need")))


def _decompose(q: Quiver, a: tuple[int, ...], support: list[int]) -> tuple:
    """`decompose` of a checked vector with its support, as sorted (factor,
    the path order of its support) pairs: O(support) on a path, else the
    strands.  A pipeline crosses its diagonals in path order: consecutive
    crossings share a face, and a pipeline crossing no diagonal twice meets
    no face twice, so no other two crossed diagonals share one."""
    if not support:
        return ()
    if all(a[v - 1] == 1 for v in support) and (order := path_order(q, support)) is not None:
        return ((a, order),)
    # equal b-vectors are one arc, crossed in one order
    return tuple(sorted((b, order if order[0] < order[-1] else order[::-1])  # as `path_order`
                        for b, order, _ in _strands(q, a, support)[0]))
