"""Snake diagrams with perfect matchings, and T-paths on the triangulation.

The diagram for a completed path quiver is a chain of unit tiles on the
integer grid; the placement turns exactly where consecutive edge directions
agree.  Edge labels come in two kinds: boundary labels reuse the extension
vertex ids of the completed quiver, and diagonal-weight labels are tuples
("d", j, i) carrying weight x_j inside the i-th parallelogram group.

T-paths walk the polygon of the staircase triangulation from the start
corner to the end corner, alternating so that even steps cross the chord
between them in increasing order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .errors import InvalidInput, NotInitialTriangulation
from .geometry import Triangulation
from .laurent import LaurentPoly
from .formulas import LinearGCC
from .quiver import CompletelyExtendedLinearQuiver

Label = object  # int (boundary/extension id) or ("d", diagonal, group)


def _is_diag(label) -> bool:
    return isinstance(label, tuple) and label[0] == "d"


def label_variable(label) -> int:
    return label[1] if _is_diag(label) else label


@dataclass(frozen=True)
class SnakeDiagram:
    celq: CompletelyExtendedLinearQuiver
    tiles: tuple[tuple[int, int], ...]             # lower-left corner per tile
    edge_of_label: dict
    label_of_edge: dict
    pl_groups: tuple[tuple, ...]                   # labels per parallelogram group

    @property
    def n(self) -> int:
        return self.celq.n

    def vertices(self) -> list[tuple[int, int]]:
        vs = set()
        for (u, w) in self.label_of_edge:
            vs.update((u, w))
        return sorted(vs)


def _tile_edges(x: int, y: int) -> dict[str, tuple]:
    return {
        "bottom": ((x, y), (x + 1, y)),
        "top": ((x, y + 1), (x + 1, y + 1)),
        "left": ((x, y), (x, y + 1)),
        "right": ((x + 1, y), (x + 1, y + 1)),
    }


def build_snake(celq: CompletelyExtendedLinearQuiver) -> SnakeDiagram:
    """Tile placement and edge labeling for the diagram of a completed path
    quiver."""
    n = celq.n
    delta = celq.delta
    dirs: list[str] = []
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

    labels: dict[tuple, object] = {}

    def put(edge, label):
        if edge in labels and labels[edge] != label:
            raise InvalidInput(f"edge {edge} double-labeled")
        labels[edge] = label

    first = _tile_edges(*tiles[0])
    if n == 1:
        put(first["bottom"], celq.start0)
        put(first["left"], celq.start1)
        put(first["top"], celq.end0)
        put(first["right"], celq.end1)
    else:
        put(first["bottom"], celq.start0 if delta[0] == 0 else celq.start1)
        put(first["left"], celq.start1 if delta[0] == 0 else celq.start0)
        for i in range(1, n):
            e_prev = _tile_edges(*tiles[i - 1])
            e_next = _tile_edges(*tiles[i])
            if dirs[i - 1] == "R":
                put(e_prev["right"], celq.mid(i))
                put(e_prev["top"], ("d", i + 1, i))
                put(e_next["bottom"], ("d", i, i))
            else:
                put(e_prev["top"], celq.mid(i))
                put(e_prev["right"], ("d", i + 1, i))
                put(e_next["left"], ("d", i, i))
        last = _tile_edges(*tiles[-1])
        dn = delta[n - 2]
        if dirs[-1] == "R":
            put(last["right"], celq.end0 if dn == 0 else celq.end1)
            put(last["top"], celq.end1 if dn == 0 else celq.end0)
        else:
            put(last["right"], celq.end1 if dn == 0 else celq.end0)
            put(last["top"], celq.end0 if dn == 0 else celq.end1)

    groups: list[tuple] = []
    tile1 = _tile_edges(*tiles[0])
    groups.append((labels[tile1["bottom"]], labels[tile1["left"]]))
    for i in range(1, n):
        groups.append((celq.mid(i), ("d", i + 1, i), ("d", i, i)))
    tlast = _tile_edges(*tiles[-1])
    groups.append((labels[tlast["top"]], labels[tlast["right"]]))

    edge_of_label = {lbl: e for e, lbl in labels.items()}
    return SnakeDiagram(celq, tuple(tiles), edge_of_label, labels, tuple(groups))


def enumerate_matchings(d: SnakeDiagram):
    """All perfect matchings, each as the tuple (gamma_0..gamma_n) of chosen
    labels, one per parallelogram group."""
    vertices = d.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    edges = sorted(d.label_of_edge, key=lambda e: (index[e[0]], index[e[1]]))
    incident: dict[int, list[tuple]] = {i: [] for i in range(len(vertices))}
    for e in edges:
        incident[index[e[0]]].append(e)
        incident[index[e[1]]].append(e)

    group_of = {}
    for gi, grp in enumerate(d.pl_groups):
        for lbl in grp:
            group_of[lbl] = gi

    # depth-first over (covered vertex bits, chosen edges as a linked list
    # (edge, rest)); children are pushed in reverse so they pop in the order
    # of incident[v], the first uncovered vertex (the lowest zero bit)
    full = (1 << len(vertices)) - 1
    out = []
    stack = [(0, None)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            gamma: list = [None] * len(d.pl_groups)
            while chosen is not None:
                e, chosen = chosen
                lbl = d.label_of_edge[e]
                gi = group_of[lbl]
                if gamma[gi] is not None:
                    raise InvalidInput("matching hits one group twice")
                gamma[gi] = lbl
            if any(g is None for g in gamma):
                raise InvalidInput("matching misses a group")
            out.append(tuple(gamma))
            continue
        v = (~covered & (covered + 1)).bit_length() - 1
        for e in reversed(incident[v]):
            i1, i2 = index[e[0]], index[e[1]]
            if covered >> i1 & 1 or covered >> i2 & 1:
                continue
            stack.append((covered | 1 << i1 | 1 << i2, (e, chosen)))
    return sorted(out, key=lambda g: [str(x) for x in g])


def matching_weight(gamma) -> LaurentPoly:
    """Product of the edge weights of one matching, as one exponent count."""
    return LaurentPoly.monomial(Counter(label_variable(lbl) for lbl in gamma))


# -- matchings <-> path-quiver witnesses ------------------------------------------


def psi_matching_to_gcc(d: SnakeDiagram, gamma) -> LinearGCC:
    celq = d.celq
    n = celq.n
    if n == 1:
        bit = 1 if gamma[0] == celq.start0 else 0
        expected_end = celq.end0 if bit == 1 else celq.end1
        if gamma[1] != expected_end:
            raise InvalidInput("matching end edges are inconsistent")
        return LinearGCC(1, (), bit)
    pairs = []
    for i in range(1, n):
        delta_i = celq.delta[i - 1]
        lbl = gamma[i]
        if lbl == ("d", i, i):
            pairs.append((delta_i, 1 - delta_i))
        elif lbl == ("d", i + 1, i):
            pairs.append((1 - delta_i, delta_i))
        elif lbl == celq.mid(i):
            pairs.append((0, 0))
        else:
            raise InvalidInput(f"unexpected edge {lbl} in group {i}")
    return LinearGCC(n, tuple(pairs))


def psi_gcc_to_matching(d: SnakeDiagram, w: LinearGCC):
    celq = d.celq
    n = celq.n
    if n == 1:
        if w.end_bit == 1:
            return (celq.start0, celq.end0)
        return (celq.start1, celq.end1)
    gamma: list = []
    delta = celq.delta
    d1 = delta[0]
    first = w.pairs[0][d1]
    gamma.append(celq.start0 if first == 1 - d1 else celq.start1)
    for i in range(1, n):
        s1, s2 = w.pairs[i - 1]
        di = delta[i - 1]
        if (s1, s2) == (di, 1 - di):
            gamma.append(("d", i, i))
        elif (s1, s2) == (1 - di, di):
            gamma.append(("d", i + 1, i))
        elif (s1, s2) == (0, 0):
            gamma.append(celq.mid(i))
        else:
            raise InvalidInput(f"invalid witness pair {(s1, s2)}")
    dn = delta[n - 2]
    last = w.pairs[n - 2][1 - dn]
    gamma.append(celq.end0 if last == dn else celq.end1)
    return tuple(gamma)


# -- T-paths -----------------------------------------------------------------------


@dataclass(frozen=True)
class TPath:
    labels: tuple[int, ...]

    def value(self) -> LaurentPoly:
        expo: dict[int, int] = {}
        for pos, lbl in enumerate(self.labels, start=1):
            expo[lbl] = expo.get(lbl, 0) + (1 if pos % 2 else -1)
        return LaurentPoly.monomial(expo)


def _edge_rank(celq: CompletelyExtendedLinearQuiver) -> dict[int, int]:
    """Total order of triangulation labels along the staircase."""
    n = celq.n
    rank = {celq.start0: 0, celq.start1: 1}
    for j in range(1, n + 1):
        rank[j] = 2 * j
        if j < n:
            rank[celq.mid(j)] = 2 * j + 1
    rank[celq.end0] = 2 * n + 1
    rank[celq.end1] = 2 * n + 2
    return rank


def triangulation_tpaths(t: Triangulation, celq: CompletelyExtendedLinearQuiver):
    """All T-paths between the distinguished corners: distinct labels, odd
    length, even steps crossing the connecting chord, crossings in diagonal
    order."""
    if t.vpoint is None or t.wpoint is None:
        raise NotInitialTriangulation("triangulation lacks distinguished corners")
    chord = (t.vpoint, t.wpoint)
    crossing = {lbl for lbl, e in t.edges.items() if t.cross(e, chord)}
    incident: dict[int, list[int]] = {}
    for lbl, (u, w) in sorted(t.edges.items()):
        incident.setdefault(u, []).append(lbl)
        incident.setdefault(w, []).append(lbl)

    out: list[TPath] = []

    def rec(corner: int, labels: list[int], used: set[int], last_cross: int):
        pos = len(labels) + 1
        if corner == t.wpoint and len(labels) % 2 == 1:
            out.append(TPath(tuple(labels)))
        if len(labels) >= 2 * t.n + 1:
            return
        for lbl in incident[corner]:
            if lbl in used:
                continue
            crosses = lbl in crossing
            if pos % 2 == 0 and not crosses:
                continue
            if crosses and lbl <= last_cross:
                continue
            u, w = t.edges[lbl]
            labels.append(lbl)
            used.add(lbl)
            rec(w if corner == u else u, labels, used,
                lbl if crosses else last_cross)
            used.remove(lbl)
            labels.pop()

    rec(t.vpoint, [], set(), 0)
    return sorted(out, key=lambda p: p.labels)


# -- folding between matchings and complete T-paths ---------------------------------


@dataclass(frozen=True)
class CompleteTPath:
    """Label sequence of length 2n+1 whose even positions run through the
    diagonals in order; labels may repeat in adjacent pairs."""

    labels: tuple[int, ...]

    def value(self) -> LaurentPoly:
        return TPath(self.labels).value()


def fold(d: SnakeDiagram, gamma) -> CompleteTPath:
    """Project a matching to its complete T-path: diagonals interleave the
    projected group representatives."""
    n = d.n
    labels: list[int] = []
    for j in range(n + 1):
        labels.append(label_variable(gamma[j]))
        if j < n:
            labels.append(j + 1)
    return CompleteTPath(tuple(labels))


def unfold(d: SnakeDiagram, theta: CompleteTPath):
    """Inverse projection: each odd entry lifts into the unique matching edge
    of its group."""
    celq = d.celq
    n = d.n
    L = theta.labels
    if len(L) != 2 * n + 1:
        raise InvalidInput(f"complete path needs length {2 * n + 1}")
    gamma: list = []
    first = L[0]
    if first not in (celq.start0, celq.start1):
        raise InvalidInput(f"bad first edge {first}")
    gamma.append(first)
    for j in range(1, n):
        lbl = L[2 * j]
        if lbl == j:
            gamma.append(("d", j, j))
        elif lbl == j + 1:
            gamma.append(("d", j + 1, j))
        elif lbl == celq.mid(j):
            gamma.append(celq.mid(j))
        else:
            raise InvalidInput(f"entry {lbl} cannot lie in group {j}")
    last = L[2 * n]
    if last not in (celq.end0, celq.end1):
        raise InvalidInput(f"bad last edge {last}")
    gamma.append(last)
    return tuple(gamma)


def complete_path(celq: CompletelyExtendedLinearQuiver, alpha: TPath) -> CompleteTPath:
    """Insert doubled diagonals so every diagonal sits at its even slot while
    keeping the label sequence nondecreasing."""
    rank = _edge_rank(celq)
    labels = list(alpha.labels)
    for j in range(1, celq.n + 1):
        if len(labels) < 2 * j or labels[2 * j - 1] != j:
            ranks = [rank[x] for x in labels]
            at = bisect_left(ranks, rank[j])
            labels[at:at] = [j, j]
    theta = CompleteTPath(tuple(labels))
    for j in range(1, celq.n + 1):
        if theta.labels[2 * j - 1] != j:
            raise InvalidInput("completion failed to align the diagonals")
    return theta


def reduce_path(theta: CompleteTPath) -> TPath:
    """Cancel doubled labels pairwise (each pair contributes weight one); a
    label appearing an odd number of times keeps one copy."""
    counts: dict[int, int] = {}
    for lbl in theta.labels:
        counts[lbl] = counts.get(lbl, 0) + 1
    out = []
    emitted: dict[int, int] = {}
    for lbl in theta.labels:
        seen = emitted.get(lbl, 0)
        if seen < counts[lbl] % 2:
            out.append(lbl)
        emitted[lbl] = seen + 1
    return TPath(tuple(out))


# -- svg ------------------------------------------------------------------------------


def snake_svg(d: SnakeDiagram, gamma=None) -> str:
    """Grid drawing of the diagram, optionally highlighting one matching."""
    scale, pad = 60, 30
    maxy = max(y for _, y in d.tiles) + 1

    def xy(v):
        return pad + v[0] * scale, pad + (maxy - v[1]) * scale

    chosen_edges = set()
    if gamma is not None:
        chosen_edges = {d.edge_of_label[lbl] for lbl in gamma}
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="600" height="400">']
    for e, lbl in sorted(d.label_of_edge.items(), key=lambda kv: str(kv)):
        (x1, y1), (x2, y2) = xy(e[0]), xy(e[1])
        width = 4 if e in chosen_edges else 1
        color = "#d22" if e in chosen_edges else "#000"
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="{color}" stroke-width="{width}"/>')
        name = f"x{label_variable(lbl)}"
        parts.append(f'<text x="{(x1 + x2) / 2 + 3}" y="{(y1 + y2) / 2 - 3}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
