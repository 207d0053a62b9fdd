"""Quivers, mutation, type-A recognition, and the linear hierarchy.

A quiver is a finite directed graph without loops or 2-cycles.  Vertices are
dense 1-based integers.  Arrows are stored as a sorted tuple of (tail, head)
pairs, so equality is structural; parallel arrows are allowed in general
(mutation needs the multiset), though type-A quivers never carry them.

A connected quiver is of type A exactly when it is the quiver of a
triangulation of the (n+3)-gon (Caldero-Chapoton-Schiffler, "Quivers with
relations arising from clusters (A_n case)", 2006).  The type-A verdict is
therefore "a triangulation realizing the quiver exists": it is decided by
building that triangulation (`geometry._build_triangulation`), which checks
that the triangulation it built induces the quiver.

Structure derived from the arrows (adjacency, oriented 3-cycles, the type-A
verdict, the 3-cycle completion and the realizing triangulation) is computed
lazily, at most once per instance, and kept as immutable values; the public
accessors hand out fresh lists and sets built from them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
import json
import re
from types import MappingProxyType

from .errors import (
    DisconnectedQuiver,
    FrozenVertex,
    InvalidInput,
    NotLinearSubquiver,
    NotTypeA,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[tuple[int, int], ...]
    frozen: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("quiver needs at least one vertex")
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))
        object.__setattr__(self, "frozen", frozenset(self.frozen))
        pairs = set()
        for t, h in self.arrows:
            if not (1 <= t <= self.n and 1 <= h <= self.n):
                raise VertexOutOfRange(f"arrow ({t},{h}) outside [1,{self.n}]")
            if t == h:
                raise InvalidInput(f"loop at vertex {t}")
            pairs.add((t, h))
        for t, h in pairs:
            if (h, t) in pairs:
                raise InvalidInput(f"2-cycle between {t} and {h}")
        for v in self.frozen:
            if not (1 <= v <= self.n):
                raise VertexOutOfRange(f"frozen vertex {v} outside [1,{self.n}]")

    # -- basic views ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def unfrozen(self) -> list[int]:
        return [v for v in self.vertices if v not in self.frozen]

    # -- derived structure, built on first use ---------------------------------

    @cached_property
    def _arrow_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arrows)

    @cached_property
    def _adjacency(self):
        """(out, in, neighbor) maps: vertex -> heads, tails (tuples in arrow
        order, with multiplicity) and the frozenset of adjacent vertices."""
        outs: dict[int, list[int]] = {v: [] for v in self.vertices}
        ins: dict[int, list[int]] = {v: [] for v in self.vertices}
        for t, h in self.arrows:
            outs[t].append(h)
            ins[h].append(t)
        return (MappingProxyType({v: tuple(hs) for v, hs in outs.items()}),
                MappingProxyType({v: tuple(ts) for v, ts in ins.items()}),
                MappingProxyType({v: frozenset(outs[v]) | frozenset(ins[v])
                                  for v in self.vertices}))

    @cached_property
    def _three_cycles(self) -> tuple[tuple[int, int, int], ...]:
        return _scan_three_cycles(self)

    @cached_property
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

    @cached_property
    def _completion(self) -> tuple["Quiver", tuple[int, ...]]:
        return _complete_three_cycles(self)

    @cached_property
    def _triangulation(self):
        from .geometry import _build_triangulation  # local import to avoid a cycle

        return _build_triangulation(self)

    # -- adjacency ---------------------------------------------------------------

    def arrows_out(self, v: int) -> list[int]:
        return list(self._adjacency[0].get(v, ()))

    def arrows_in(self, v: int) -> list[int]:
        return list(self._adjacency[1].get(v, ()))

    def neighbors(self, v: int) -> set[int]:
        return set(self._adjacency[2].get(v, ()))

    def degree(self, v: int) -> int:
        outs, ins, _ = self._adjacency
        return len(outs.get(v, ())) + len(ins.get(v, ()))

    def has_arrow(self, t: int, h: int) -> bool:
        return (t, h) in self._arrow_set

    def is_connected(self) -> bool:
        adj = self._adjacency[2]
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == self.n


def mutate(q: Quiver, v: int) -> Quiver:
    """Quiver mutation at an unfrozen vertex.

    1. for every path u -> v -> w add an arrow u -> w,
    2. reverse all arrows incident to v,
    3. cancel 2-cycles.
    """
    if not (1 <= v <= q.n):
        raise VertexOutOfRange(f"vertex {v} outside [1,{q.n}]")
    if v in q.frozen:
        raise FrozenVertex(f"vertex {v} is frozen")
    counts: Counter[tuple[int, int]] = Counter(q.arrows)
    ins = Counter(t for t, h in q.arrows if h == v)
    outs = Counter(h for t, h in q.arrows if t == v)
    for u, cu in ins.items():
        for w, cw in outs.items():
            if u != w:
                counts[(u, w)] += cu * cw
    reversed_counts: Counter[tuple[int, int]] = Counter()
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


def mutate_sequence(q: Quiver, vertices: list[int]) -> Quiver:
    for v in vertices:
        q = mutate(q, v)
    return q


# -- type-A recognition -------------------------------------------------------


def _scan_three_cycles(q: Quiver) -> tuple[tuple[int, int, int], ...]:
    arrow_set = q._arrow_set
    outs = q._adjacency[0]
    cycles = set()
    for (i, j) in arrow_set:
        for k in outs[j]:
            if (k, i) in arrow_set:
                rot = min(((i, j, k), (j, k, i), (k, i, j)))
                cycles.add(rot)
    return tuple(sorted(cycles))


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
    crossed diagonals share a triangle.  Reads only the cached neighbour
    sets of the given vertices."""
    vs = set(vertices)
    nbr = q._adjacency[2]
    if not vs or not vs <= nbr.keys():
        return None
    adj = {v: nbr[v] & vs for v in vs}
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
    """The path order of the vertices; raises NotLinearSubquiver unless
    their full subquiver is a path."""
    vs = set(vertices)
    order = path_order(q, vs)
    if order is None:
        raise NotLinearSubquiver(f"{sorted(vs)} does not induce a path")
    return order


def linear_full_subquivers(q: Quiver) -> list[tuple[int, ...]]:
    """All vertex subsets inducing a connected full subquiver shaped like a
    path (one or more vertices).  These index the non-initial cluster
    variables of a type-A quiver."""
    require_type_a(q)
    adj: dict[int, set[int]] = {v: q.neighbors(v) for v in q.vertices}
    found: set[tuple[int, ...]] = {(v,) for v in q.vertices}

    def extend(path: list[int], members: set[int]):
        last = path[-1]
        for u in sorted(adj[last]):
            if u in members:
                continue
            # full-subquiver condition: u may touch only the current endpoint
            if any(w in adj[u] for w in members if w != last):
                continue
            path.append(u)
            members.add(u)
            found.add(tuple(sorted(path)))
            extend(path, members)
            path.pop()
            members.remove(u)

    for v in q.vertices:
        extend([v], {v})
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


@dataclass(frozen=True)
class LinearQuiver:
    """A path quiver on n vertices described by its direction sequence."""

    n: int
    delta: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.delta) != self.n - 1:
            raise InvalidInput("delta sequence must have length n-1")
        if any(d not in (0, 1) for d in self.delta):
            raise InvalidInput("delta entries must be 0 or 1")

    def quiver(self) -> Quiver:
        arrows = []
        for i, d in enumerate(self.delta, start=1):
            arrows.append((i, i + 1) if d == 0 else ((i + 1), i))
        return Quiver(self.n, tuple(arrows))


@dataclass(frozen=True)
class CompletelyExtendedLinearQuiver:
    """A path quiver with a triangle glued to every edge and to both ends.

    Canonical labels: base path 1..n, then extension vertices
    n+1 (start-0), n+2 (start-1), n+2+j for the triangle over edge j
    (j in [1, n-1]), 2n+2 (end-0), 2n+3 (end-1).  Extension vertices are
    frozen in the stored quiver.
    """

    base: LinearQuiver

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


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of completing a linear full subquiver inside an ambient quiver."""

    celq: CompletelyExtendedLinearQuiver
    base_order: tuple[int, ...]           # ambient vertices of the path, v_1..v_n
    to_ambient: dict[int, int | None]     # canonical label -> ambient vertex (None = invented)
    invented: frozenset[int]              # canonical labels of invented vertices

    def substitution_then_rename(self, poly):
        """Express a polynomial over canonical labels in ambient variables:
        invented vertices are set to 1, the rest renamed through the map."""
        p = poly.substitute_one(self.invented)
        mapping = {c: a for c, a in self.to_ambient.items() if a is not None}
        return p.rename(mapping)


def complete_extension(q: Quiver, linear_vertices) -> CompletionResult:
    """Restrict the ambient quiver to the neighborhood of a linear full
    subquiver and attach the missing triangles, producing a canonically
    labeled completely extended linear quiver plus the relabeling map."""
    require_type_a(q)
    order = require_path(q, linear_vertices)
    n = len(order)
    delta = delta_of_path(q, order)
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(n, delta))

    base_set = set(order)
    pos = {v: i + 1 for i, v in enumerate(order)}
    to_ambient: dict[int, int | None] = {celq_label: None for celq_label in celq.extension_vertices}
    for v in order:
        to_ambient[pos[v]] = v

    # classify ambient neighbors of the path into extension slots
    outside = sorted(set().union(*(q.neighbors(v) for v in order)) - base_set)
    end_hang: dict[int, list[int]] = {order[0]: [], order[-1]: []}
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

    def assign_end(anchor: int, slots: tuple[int, int], pool: list[int]) -> list[int]:
        """Fill (outgoing, incoming) slots at an end vertex from hanging
        neighbors; returns the leftovers (only possible when anchor serves
        both ends of a single-vertex path)."""
        slot_out, slot_in = slots
        if not pool:
            return []
        # a mutually adjacent pair forms a complete triangle at the anchor
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


def _complete_three_cycles(q: Quiver) -> tuple[Quiver, tuple[int, ...]]:
    in_cycle = set()
    for (i, j, k) in q._three_cycles:
        in_cycle.update({(i, j), (j, k), (k, i)})
    missing = [a for a in q.arrows if a not in in_cycle]
    arrows = list(q.arrows)
    added = []
    label = q.n
    for (t, h) in sorted(set(missing)):
        label += 1
        arrows += [(h, label), (label, t)]
        added.append(label)
    return Quiver(label, tuple(arrows), q.frozen | frozenset(added)), tuple(added)


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    try:
        return Quiver(int(d["n"]),
                      tuple((int(t), int(h)) for t, h in d["arrows"]),
                      frozenset(int(v) for v in d.get("frozen", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad quiver JSON: {exc}") from exc


def from_json(text: str) -> Quiver:
    try:
        return from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad quiver JSON: {exc}") from exc


def exchange_matrix(q: Quiver) -> list[list[int]]:
    """Skew-symmetric matrix b[i][j] = #(i->j) - #(j->i), 0-indexed lists."""
    b = [[0] * q.n for _ in range(q.n)]
    for t, h in q.arrows:
        b[t - 1][h - 1] += 1
        b[h - 1][t - 1] -= 1
    return b
