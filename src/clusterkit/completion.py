"""Completed paths: the linear hierarchy and the neighbourhood of a path.

A linear full subquiver of a type-A quiver is completed to a path with a
triangle glued to every edge and to both ends, labelled canonically
(`CompletelyExtendedLinearQuiver`), with the map back to the ambient
vertices (`complete_extension`); its staircase triangulation is
`triangulation_of`.  The linear-gcc, matching and T-path models and the
`snake` command run on it, and load this module when they first do.
"""

from __future__ import annotations

from .errors import InvalidInput, NotLinearSubquiver, VertexOutOfRange
from .geometry import Triangulation
from .quiver import Quiver, require_path, require_type_a


def delta_of_path(q: Quiver, order: list[int]) -> tuple[int, ...]:
    """Edge-direction sequence along a path: 0 when the arrow follows the
    path order, 1 when it points backwards."""
    delta = []
    arrow_set = q._arrow_set
    for a, b in zip(order, order[1:]):
        if (a, b) in arrow_set:
            delta.append(0)
        elif (b, a) in arrow_set:
            delta.append(1)
        else:
            raise NotLinearSubquiver(f"no arrow between consecutive vertices {a},{b}")
    return tuple(delta)


class LinearQuiver:
    """A path quiver on n vertices described by its direction sequence."""

    def __init__(self, n: int, delta: tuple[int, ...]):
        if n < 1 or len(delta) != n - 1:
            raise InvalidInput("delta sequence must have length n-1")
        if any(d not in (0, 1) for d in delta):
            raise InvalidInput("delta entries must be 0 or 1")
        self.n = n
        self.delta = delta

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (self.n, self.delta) == (other.n, other.delta)

    def quiver(self) -> Quiver:
        arrows = []
        for i, d in enumerate(self.delta, start=1):
            arrows.append((i, i + 1) if d == 0 else ((i + 1), i))
        return Quiver(self.n, tuple(arrows))


class CompletelyExtendedLinearQuiver:
    """A path quiver with a triangle glued to every edge and to both ends.

    Canonical labels: base path 1..n, then extension vertices
    n+1 (start-0), n+2 (start-1), n+2+j for the triangle over edge j
    (j in [1, n-1]), 2n+2 (end-0), 2n+3 (end-1).  Extension vertices are
    frozen in the stored quiver.
    """

    def __init__(self, base: LinearQuiver):
        self.base = base

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self.base == other.base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def delta(self) -> tuple[int, ...]:
        return self.base.delta

    @property
    def start0(self) -> int:
        return self.n + 1

    @property
    def start1(self) -> int:
        return self.n + 2

    def mid(self, j: int) -> int:
        if not 1 <= j <= self.n - 1:
            raise VertexOutOfRange(f"no middle triangle over edge {j}")
        return self.n + 2 + j

    @property
    def end0(self) -> int:
        return 2 * self.n + 2

    @property
    def end1(self) -> int:
        return 2 * self.n + 3

    @property
    def extension_vertices(self) -> list[int]:
        return list(range(self.n + 1, 2 * self.n + 4))

    def quiver(self) -> Quiver:
        n = self.n
        arrows = list(self.base.quiver().arrows)
        arrows += [(1, self.start0), (self.start0, self.start1), (self.start1, 1)]
        for j, d in enumerate(self.delta, start=1):
            tail, head = (j, j + 1) if d == 0 else (j + 1, j)
            arrows += [(head, self.mid(j)), (self.mid(j), tail)]
        arrows += [(n, self.end0), (self.end0, self.end1), (self.end1, n)]
        return Quiver(2 * n + 3, tuple(arrows), frozenset(self.extension_vertices))


class CompletionResult:
    """Outcome of completing a linear full subquiver inside an ambient quiver."""

    def __init__(self, celq: CompletelyExtendedLinearQuiver, base_order: tuple[int, ...],
                 to_ambient: dict[int, int | None], invented: frozenset[int]):
        self.celq = celq
        self.base_order = base_order      # ambient vertices of the path, v_1..v_n
        self.to_ambient = to_ambient      # canonical label -> ambient vertex (None = invented)
        self.invented = invented          # canonical labels of invented vertices

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.celq, self.base_order, self.to_ambient, self.invented)
            == (other.celq, other.base_order, other.to_ambient, other.invented))

    def unit_deltas(self, e: int) -> list[tuple[tuple[int, int], ...]]:
        """Per canonical label 1..2n+3, its variable to the power e as a
        monomial in ambient variables; empty for an invented vertex, which
        is set to 1."""
        return [((a, e),) if a is not None else ()
                for a in map(self.to_ambient.get, range(1, 2 * self.celq.n + 4))]


def complete_extension(q: Quiver, linear_vertices) -> CompletionResult:
    """Restrict the ambient quiver to the neighborhood of a linear full
    subquiver and attach the missing triangles, producing a canonically
    labeled completely extended linear quiver plus the relabeling map."""
    require_type_a(q)
    return _complete(q, require_path(q, linear_vertices))


def _complete(q: Quiver, order) -> CompletionResult:
    """`complete_extension` of a type-A quiver and a path given in the order
    `path_order` gives.  The triangles are faces of the realizing
    triangulation: over each path edge the face its two vertices bound, at
    each end the end vertex's other face.  A one-vertex path starts at a
    face whose other sides are both diagonals if there is one, else at the
    face of the smaller neighbour.  A diagonal side is its ambient vertex, a
    boundary side an invented one; at an end the side the path vertex has
    an arrow to takes the out-slot."""
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(len(order), delta_of_path(q, order)))
    faces, at = q._triangulation._faces
    ambient = lambda side: side if side <= q.n else None
    to_ambient: dict[int, int | None] = dict.fromkeys(celq.extension_vertices)
    to_ambient.update(enumerate(order, 1))
    shared = [set(at[u]).intersection(at[w]).pop() for u, w in zip(order, order[1:])]
    for j, ti in enumerate(shared, 1):
        to_ambient[celq.mid(j)] = ambient(
            next(s for s in faces[ti][1] if s not in order[j - 1: j + 1]))

    def rank(ti):
        near = [s for s in faces[ti][1] if s != order[0] and s <= q.n]
        return len(near) < 2, min(near, default=q.n + 1)

    start = min((ti for ti in at[order[0]] if ti not in shared), key=rank)
    end = next(ti for ti in at[order[-1]] if ti not in shared and ti != start)
    for ti, v, slots in ((start, order[0], (celq.start0, celq.start1)),
                         (end, order[-1], (celq.end0, celq.end1))):
        sides = faces[ti][1]  # ccw: each side has an arrow to the one before it
        m = sides.index(v)
        for slot, side in zip(slots, (sides[m - 1], sides[(m + 1) % 3])):
            to_ambient[slot] = ambient(side)
    invented = frozenset(c for c, a in to_ambient.items() if a is None)
    return CompletionResult(celq, tuple(order), to_ambient, invented)


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
