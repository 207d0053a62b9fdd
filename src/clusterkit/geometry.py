"""Polygon triangulations, d-vector validity, pipelines, and decomposition.

A type-A quiver on n vertices is realized by a triangulation of a convex
(n+3)-gon: diagonals carry labels 1..n, boundary edges n+1..2n+3.  Polygon
corners are 0-based integers in counterclockwise order; all geometric
predicates (crossing, ranks of marked points) are pure index arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from itertools import chain, combinations, compress, count
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


def quiver_of(t: Triangulation, include_boundary: bool = False) -> Quiver:
    """Quiver induced by a triangulation: one vertex per diagonal (or per
    edge when include_boundary), arrows by counterclockwise rotation inside
    each triangle."""
    keep = (lambda lbl: True) if include_boundary else (lambda lbl: lbl <= t.n)
    arrows = []
    for _, sides in t.triangles():
        for (a, b) in _ccw_triangle_arrows(sides):
            if keep(a) and keep(b):
                arrows.append((a, b))
    nverts = 2 * t.n + 3 if include_boundary else t.n
    frozen = frozenset(range(t.n + 1, 2 * t.n + 4)) if include_boundary else frozenset()
    return Quiver(nverts, tuple(arrows), frozen)


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
    only the faces at the support hold marked points, and only they are read."""
    t = q._triangulation
    faces, at = t._faces
    count = lambda label: a[label - 1] if label <= t.n else 0

    def rank_from(label: int, corner: int, r: int) -> int:
        """Canonical rank (counted from the smaller corner) of the r-th
        marked point counted from the given corner."""
        u, w = t.edges[label]
        return r if corner == u else count(label) + 1 - r

    pipes: list[tuple] = []
    for corners, sides in (faces[ti] for ti in sorted({ti for v in support for ti in at[v]})):
        # two sides meet at the corner opposite the third; only a side with
        # more points than the other two together has points left over
        opposite = {sides[m]: corners[m - 1] for m in range(3)}
        used: dict[int, set[int]] = {s: set() for s in sides}
        for sx, sy in combinations(sorted(sides), 2):
            sz = next(s for s in sides if s not in (sx, sy))
            s_val = sigma_int(count(sx), count(sy), count(sz))
            common = opposite[sz]
            for r in range(1, s_val + 1):
                rx, ry = rank_from(sx, common, r), rank_from(sy, common, r)
                pipes.append((("pt", sx, rx), ("pt", sy, ry)))
                used[sx].add(rx)
                used[sy].add(ry)
        for s in sides:
            for r in range(1, count(s) + 1):
                if r not in used[s]:
                    pipes.append((("pt", s, r), ("vx", opposite[s])))

    adjacency: dict[tuple, list[tuple]] = {}
    for p1, p2 in pipes:
        adjacency.setdefault(p1, []).append(p2)
        adjacency.setdefault(p2, []).append(p1)
    for node, nb in adjacency.items():
        if node[0] == "pt" and len(nb) != 2:
            raise NotInW(f"marked point {node} lies on {len(nb)} pipes")

    seen: set[tuple] = set()
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
        pipelines.append(Pipeline(
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
    return PipelineSet(q, t, a, tuple(pipelines), tuple(pipes))


def decompose(q: Quiver, a) -> tuple[tuple[int, ...], ...]:
    """Multiset of 0-1 vectors (one per pipeline) whose coordinatewise sum is
    the given nonnegative d-vector; each support induces a path.  A 0-1
    vector whose support already induces a path is returned unchanged."""
    return tuple(b for b, _ in _decompose(q, *_require_nonnegative(q, a, "pipelines need")))


def _decompose(q: Quiver, a: tuple[int, ...], support: list[int]) -> tuple:
    """`decompose` of a checked vector with its support, as sorted (factor,
    the path order of its support) pairs: O(support) on a path, else the
    (sorted) pipelines.  A pipeline crosses its diagonals in path order:
    consecutive crossings share a face, and a pipeline crossing no diagonal
    twice meets no face twice, so no other two crossed diagonals share one."""
    if not support:
        return ()
    if all(a[v - 1] == 1 for v in support) and (order := path_order(q, support)) is not None:
        return ((a, order),)
    out = []
    for p in _pipelines(q, a, support).pipelines:
        order = [i for i, _ in p.crossings]  # from the smaller end, as `path_order`
        out.append((p.b_vector, order if order[0] < order[-1] else order[::-1]))
    return tuple(out)


# -- svg ----------------------------------------------------------------------


def _polygon_xy(size: int, corner: int, radius: float = 200.0):
    import math

    ang = math.pi / 2 + 2 * math.pi * corner / size
    return radius * math.cos(ang) + 250, 250 - radius * math.sin(ang)


def pipelines_svg(ps: PipelineSet) -> str:
    """Cosmetic drawing of a pipeline set on a regular polygon layout."""
    t = ps.triangulation
    count = {lbl: (ps.a[lbl - 1] if lbl <= t.n else 0) for lbl in t.edges}

    def point_xy(label: int, rank: int):
        (u, w) = t.edges[label]
        x1, y1 = _polygon_xy(t.size, u)
        x2, y2 = _polygon_xy(t.size, w)
        f = rank / (count[label] + 1)
        return x1 + f * (x2 - x1), y1 + f * (y2 - y1)

    def node_xy(node):
        return point_xy(node[1], node[2]) if node[0] == "pt" else _polygon_xy(t.size, node[1])

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500">']
    for lbl, (u, w) in sorted(t.edges.items()):
        x1, y1 = _polygon_xy(t.size, u)
        x2, y2 = _polygon_xy(t.size, w)
        color = "#888" if lbl > t.n else "#000"
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="{color}" stroke-width="1"/>')
        if lbl <= t.n:
            parts.append(f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2:.1f}" '
                         f'font-size="12">{lbl}</text>')
    for p1, p2 in ps.pipes:
        x1, y1 = node_xy(p1)
        x2, y2 = node_xy(p2)
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="#d22" stroke-width="1.5"/>')
    for lbl in range(1, t.n + 1):
        for r in range(1, count[lbl] + 1):
            x, y = point_xy(lbl, r)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="#d22"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
