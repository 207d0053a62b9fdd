"""Quivers, mutation, type-A recognition, and the linear hierarchy.

A quiver is a finite directed graph without loops or 2-cycles.  Vertices are
dense 1-based integers.  Arrows are stored as a sorted tuple of (tail, head)
pairs, so equality is structural; parallel arrows are allowed in general
(mutation needs the multiset), though type-A quivers never carry them.

A connected quiver is of type A exactly when it is the quiver of a
triangulation of the (n+3)-gon (Caldero-Chapoton-Schiffler, "Quivers with
relations arising from clusters (A_n case)", 2006).  The type-A verdict is
therefore "a triangulation realizing the quiver exists": it is decided by
building that triangulation (`geometry._build_triangulation`), which glues
the quiver's triangles by corner ids, numbers the corners by one walk round
the boundary, then finds the faces of the edge map it built, once, and checks
that they induce the quiver; the triangulation keeps those faces.

Structure derived from the arrows (adjacency, oriented 3-cycles and the
triangle of each arrow, the type-A verdict, the 3-cycle completion, the
realizing triangulation, and the base-vertex labelling that the gcs/gcc
formulas start from) is computed lazily, at most once per instance, and
kept as immutable values; the public accessors hand out fresh lists and
sets built from them.  The completion is derived from the quiver's checked
arrows and 3-cycles, not checked or scanned again.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from types import MappingProxyType

from .errors import (DisconnectedQuiver, FrozenVertex, InvalidInput, NotLinearSubquiver,
                     NotTypeA, VertexOutOfRange)


class _derived:
    """The package's one lazy-value descriptor: a cached property, as in
    `functools` but without the lock that 3.11 takes on every first access,
    building with the cyclic collector paused.  A whole-quiver pass, or a
    dense view of a broken line, allocates O(n) containers and no cycles,
    and every full collection midway would scan them all again."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        paused = gc.isenabled()
        gc.disable()
        try:
            value = obj.__dict__[self.name] = self.build(obj)
        finally:
            if paused:
                gc.enable()
        return value


def _sibling(name: str):
    """geometry or formulas: they import this module, so it imports them on
    the first use of a structure they build."""
    name = f"{__package__}.{name}"
    if name not in sys.modules:
        __import__(name)
    return sys.modules[name]


class Quiver:
    """Immutable: the cached derived structure below depends on that."""

    def __init__(self, n: int, arrows: tuple[tuple[int, int], ...],
                 frozen: frozenset[int] = frozenset()):
        self.__dict__.update(n=n, arrows=arrows, frozen=frozen)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields, sorting the arrows and freezing the frozen set."""
        if self.n < 1:
            raise InvalidInput("quiver needs at least one vertex")
        n, arrows = self.n, tuple(sorted(self.arrows))
        self.__dict__.update(arrows=arrows, frozen=frozenset(self.frozen))
        for t, h in arrows:
            if not (1 <= t <= n and 1 <= h <= n):
                raise VertexOutOfRange(f"arrow ({t},{h}) outside [1,{n}]")
            if t == h:
                raise InvalidInput(f"loop at vertex {t}")
        pairs = set(arrows)
        for t, h in pairs:
            if (h, t) in pairs:
                raise InvalidInput(f"2-cycle between {t} and {h}")
        for v in self.frozen:
            if not (1 <= v <= self.n):
                raise VertexOutOfRange(f"frozen vertex {v} outside [1,{self.n}]")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.n, self.arrows, self.frozen) == (other.n, other.arrows, other.frozen))

    def __hash__(self):
        return hash((self.n, self.arrows, self.frozen))

    def __repr__(self):
        return f"Quiver(n={self.n!r}, arrows={self.arrows!r}, frozen={self.frozen!r})"

    # -- basic views ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def unfrozen(self) -> list[int]:
        return [v for v in self.vertices if v not in self.frozen]

    # -- derived structure, built on first use ---------------------------------

    @_derived
    def _arrow_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arrows)

    @_derived
    def _adjacency(self):
        """(out, in): per vertex (index 0 is unused), the heads and the tails
        of its arrows, in arrow order with multiplicity."""
        outs, ins = [()] * (self.n + 1), [()] * (self.n + 1)
        for t, h in self.arrows:  # a list only at a vertex with arrows
            outs[t], ins[h] = outs[t] or [], ins[h] or []
            outs[t].append(h)
            ins[h].append(t)
        return tuple(map(tuple, outs)), tuple(map(tuple, ins))

    @_derived
    def _three_cycles(self) -> tuple[tuple[int, int, int], ...]:
        return _scan_three_cycles(self)

    @_derived
    def _cover(self):
        """Arrow -> the rotation (tail, head, third) of its oriented
        triangle, for every arrow that lies in one."""
        cover = {}
        for cycle in self._three_cycles:
            i, j, k = cycle
            cover[i, j], cover[j, k], cover[k, i] = cycle, (j, k, i), (k, i, j)
        return MappingProxyType(cover)

    @_derived
    def _base_gateways(self):
        """Gateway rotation of every oriented triangle from the default base
        vertex; a failed choice raises again on every access."""
        formulas = _sibling("formulas")
        return formulas.gateway_rotations(self, formulas.choose_base_vertex(self)[1]) \
            if self.arrows else {}

    @_derived
    def _type_a(self) -> bool:
        """Whether the realizing triangulation builds.  Cached, so a failed
        build is attempted once; `_triangulation` itself caches no error."""
        if not self.is_connected():
            raise DisconnectedQuiver("type-A test requires a connected quiver")
        try:
            self._triangulation
        except NotTypeA:
            return False
        return True

    @_derived
    def _completion(self) -> tuple["Quiver", tuple[int, ...]]:
        return _complete_three_cycles(self)

    @_derived
    def _triangulation(self):
        return _sibling("geometry")._build_triangulation(self)

    # -- adjacency ---------------------------------------------------------------

    def arrows_out(self, v: int) -> list[int]:
        return list(self._adjacency[0][v]) if 1 <= v <= self.n else []

    def arrows_in(self, v: int) -> list[int]:
        return list(self._adjacency[1][v]) if 1 <= v <= self.n else []

    def neighbors(self, v: int) -> set[int]:
        outs, ins = self._adjacency
        return set(outs[v]).union(ins[v]) if 1 <= v <= self.n else set()

    def degree(self, v: int) -> int:
        outs, ins = self._adjacency
        return len(outs[v]) + len(ins[v]) if 1 <= v <= self.n else 0

    def has_arrow(self, t: int, h: int) -> bool:
        return (t, h) in self._arrow_set

    def is_connected(self) -> bool:
        if len(self._arrow_set) < self.n - 1:  # too few arrows to span n vertices
            return False
        outs, ins = self._adjacency
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in (*outs[v], *ins[v]):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n


def _signed_rows(vertices, arrows) -> dict[int, dict[int, int]]:
    """Signed sparse rows b[u][w] = #(u->w) - #(w->u) of the full subquiver
    on the given vertices, read from arrows (with multiplicity)."""
    b: dict[int, dict[int, int]] = {u: {} for u in vertices}
    for t, h in arrows:
        if t in b and h in b:
            b[t][h] = b[t].get(h, 0) + 1
            b[h][t] = b[h].get(t, 0) - 1
    return b


def _mutate_rows(b: dict[int, dict[int, int]], v: int) -> None:
    """Matrix mutation at v in place on signed sparse rows (Fomin-Zelevinsky
    2002): b'_ik = b_ik + sgn(b_iv) [b_iv b_vk]_+ and b'_iv = -b_iv."""
    row = b[v]
    for i, bvi in row.items():
        bi = b[i]
        for k, bvk in row.items():
            if bvi * bvk < 0:  # i -> v -> k or k -> v -> i: b_ik moves by |b_vi| b_vk
                c = bi.pop(k, 0) + abs(bvi) * bvk
                if c:
                    bi[k] = c
        bi[v] = -bi[v]
    b[v] = {i: -bvi for i, bvi in row.items()}


def mutate(q: Quiver, v: int) -> Quiver:
    """Quiver mutation at an unfrozen vertex: matrix mutation of its signed
    rows, read back as arrows (an entry c > 0 is c arrows)."""
    if not (1 <= v <= q.n):
        raise VertexOutOfRange(f"vertex {v} outside [1,{q.n}]")
    if v in q.frozen:
        raise FrozenVertex(f"vertex {v} is frozen")
    b = _signed_rows(q.vertices, q.arrows)
    _mutate_rows(b, v)
    return Quiver(q.n, tuple((u, w) for u, row in b.items() for w, c in row.items()
                             for _ in range(c)), q.frozen)


# -- type-A recognition -------------------------------------------------------


def _scan_three_cycles(q: Quiver) -> tuple[tuple[int, int, int], ...]:
    """Each triangle once, from the arrow out of its smallest vertex, so in
    sorted order; a parallel arrow finds it again."""
    arrow_set, outs = q._arrow_set, q._adjacency[0]
    return tuple(dict.fromkeys((i, j, k) for i, j in q.arrows if i < j
                               for k in outs[j] if i < k and (k, i) in arrow_set))


def oriented_three_cycles(q: Quiver) -> list[tuple[int, int, int]]:
    """All directed 3-cycles (i, j, k) with arrows i->j->k->i, i the smallest."""
    return list(q._three_cycles)


def is_type_a(q: Quiver) -> bool:
    """Whether a triangulation of the (n+3)-gon realizing the quiver exists
    (Caldero-Chapoton-Schiffler 2006), decided by building it.  Raises
    DisconnectedQuiver for a disconnected quiver."""
    return q._type_a


def require_type_a(q: Quiver):
    if not q._type_a:
        raise NotTypeA("operation requires a type-A quiver")


# -- linear subquivers ---------------------------------------------------------


def path_order(q: Quiver, vertices) -> list[int] | None:
    """If the full subquiver on the given vertices is a path, return its
    vertices in path order starting from the smaller endpoint; otherwise
    None.  For the support of a cluster variable this is the order in which
    its arc crosses the diagonals (read from one end), since consecutive
    crossed diagonals share a triangle.  Reads only the arrows at the given
    vertices."""
    vs = set(vertices)
    if not vs or not all(0 < v <= q.n for v in vs):
        return None
    adj = {v: q.neighbors(v) & vs for v in vs}
    if len(vs) == 1:
        return list(vs)
    ends = sorted(v for v in vs if len(adj[v]) == 1)
    if len(ends) != 2 or any(len(us) > 2 for us in adj.values()):
        return None
    # the walk from one end covers vs unless a cycle or lone vertex is left
    order, prev = [ends[0]], None
    while len(order) < len(vs):
        nxt = [u for u in adj[order[-1]] if u != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def require_path(q: Quiver, vertices) -> list[int]:
    """The path order of the vertices: the one check of every per-variable
    entry.  Raises NotLinearSubquiver unless their full subquiver is a
    path, then FrozenVertex (as mutation would) at the smallest frozen one."""
    vs = set(vertices)
    order = path_order(q, vs)
    if order is None:
        raise NotLinearSubquiver(f"{sorted(vs)} does not induce a path")
    if not q.frozen.isdisjoint(vs):
        raise FrozenVertex(f"cannot mutate frozen vertex {min(q.frozen & vs)}")
    return order


def linear_full_subquivers(q: Quiver) -> list[tuple[int, ...]]:
    """All vertex subsets inducing a connected full subquiver shaped like a
    path (one or more vertices).  These index the non-initial cluster
    variables of a type-A quiver."""
    require_type_a(q)
    adj = [set(hs).union(ts) for hs, ts in zip(*q._adjacency)]
    found: set[tuple[int, ...]] = set()
    stack = [(v,) for v in q.vertices]  # paths still to extend at their last vertex
    while stack:
        path = stack.pop()
        found.add(tuple(sorted(path)))
        for u in adj[path[-1]]:
            # full-subquiver condition: u may touch only the current endpoint
            if u not in path and not any(w in adj[u] for w in path[:-1]):
                stack.append(path + (u,))
    return sorted(found)


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


# -- linear / completely extended linear quivers --------------------------------


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


def _complete_three_cycles(q: Quiver) -> tuple[Quiver, tuple[int, ...]]:
    """Added vertex v for the uncovered arrow t -> h brings the arrows
    h -> v -> t, which need no check, and the one triangle through v, so
    the quiver's triangles are not scanned again; q itself if none is added."""
    missing = tuple(dict.fromkeys(a for a in q.arrows if a not in q._cover))  # sorted
    added = range(q.n + 1, q.n + 1 + len(missing))
    if not added:
        return q, ()
    into = sorted(q.arrows + tuple((h, v) for (_, h), v in zip(missing, added)))
    cycles = sorted(q._three_cycles + tuple((t, h, v) if t < h else (h, v, t)
                                            for (t, h), v in zip(missing, added)))
    completed = object.__new__(Quiver)  # the fields as `__post_init__` leaves them
    completed.__dict__.update(
        n=added[-1], arrows=(*into, *((v, t) for (t, _), v in zip(missing, added))),
        frozen=q.frozen.union(added), _three_cycles=tuple(cycles))
    return completed, tuple(added)


def three_cycle_completion(q: Quiver) -> tuple[Quiver, list[int]]:
    """Attach a fresh frozen vertex to every arrow lying in no oriented
    triangle, so that afterwards every edge belongs to one.  Returns the
    enlarged quiver and the list of added vertices."""
    completed, added = q._completion
    return completed, list(added)


# -- serialization ---------------------------------------------------------------


def to_text(q: Quiver) -> str:
    frozen = ",".join(str(v) for v in sorted(q.frozen)) if q.frozen else "none"
    lines = [f"n {q.n} frozen {frozen}"]
    lines += [f"{t} {h}" for t, h in q.arrows]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Quiver:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise InvalidInput("empty quiver file")
    m = re.fullmatch(r"n\s+(\d+)\s+frozen\s+(\S+)", lines[0])
    if not m:
        raise InvalidInput(f"bad header line: {lines[0]!r}")
    n = int(m.group(1))
    try:
        frozen = frozenset() if m.group(2) == "none" else frozenset(
            int(v) for v in m.group(2).split(","))
    except ValueError:
        raise InvalidInput(f"bad header line: {lines[0]!r}") from None
    arrows = []
    for ln in lines[1:]:
        try:
            t, h = map(int, ln.split())
        except ValueError:
            raise InvalidInput(f"bad arrow line: {ln!r}") from None
        arrows.append((t, h))
    return Quiver(n, tuple(arrows), frozen)


def to_json_dict(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [list(a) for a in q.arrows], "frozen": sorted(q.frozen)}


def from_json_dict(d: dict) -> Quiver:
    def num(x) -> int:  # a JSON integer; a float or a bool is not read as one
        if type(x) is not int:
            raise TypeError(f"expected an integer, got {x!r}")
        return x

    try:
        return Quiver(num(d["n"]), tuple((num(t), num(h)) for t, h in d["arrows"]),
                      frozenset(num(v) for v in d.get("frozen", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad quiver JSON: {exc}") from exc


def from_json(text: str) -> Quiver:
    try:
        return from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad quiver JSON: {exc}") from exc
