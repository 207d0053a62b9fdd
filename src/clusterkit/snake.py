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

from .errors import InvalidInput, NotInitialTriangulation
from .geometry import Triangulation, triangulation_of
from .laurent import LaurentPoly, field_width, unpack
from .quiver import CompletelyExtendedLinearQuiver, CompletionResult

TYPE_CHECKING = False  # as typing's; importing typing costs a cold command
if TYPE_CHECKING:
    from .formulas import LinearGCC

Label = object  # int (boundary/extension id) or ("d", diagonal, group)


def _is_diag(label) -> bool:
    return isinstance(label, tuple) and label[0] == "d"


def label_variable(label) -> int:
    return label[1] if _is_diag(label) else label


class SnakeDiagram:
    def __init__(self, celq: CompletelyExtendedLinearQuiver, tiles: tuple[tuple[int, int], ...],
                 edge_of_label: dict, label_of_edge: dict, pl_groups: tuple[tuple, ...]):
        self.celq = celq
        self.tiles = tiles                  # lower-left corner per tile
        self.edge_of_label = edge_of_label
        self.label_of_edge = label_of_edge
        self.pl_groups = pl_groups          # labels per parallelogram group

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


def _matching_walk(d: SnakeDiagram, step, zero):
    """Depth first over the perfect matchings of d, yielding per matching
    zero plus step(e) over its edges e.  The search state is the covered
    vertex bits; the first uncovered vertex (the lowest zero bit) takes each
    of its free edges in turn, in edge order."""
    vertices = d.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    incident: list[list[tuple[int, object]]] = [[] for _ in vertices]
    # reversed, so that the children pushed in list order pop in edge order
    for e in sorted(d.label_of_edge, key=lambda e: (index[e[0]], index[e[1]]), reverse=True):
        bits, s = 1 << index[e[0]] | 1 << index[e[1]], step(e)
        incident[index[e[0]]].append((bits, s))
        incident[index[e[1]]].append((bits, s))
    full = (1 << len(vertices)) - 1
    stack = [(0, zero)]
    while stack:
        covered, acc = stack.pop()
        if covered == full:
            yield acc
            continue
        v = (~covered & (covered + 1)).bit_length() - 1
        stack += [(covered | bits, acc + s) for bits, s in incident[v] if not covered & bits]


def enumerate_matchings(d: SnakeDiagram):
    """All perfect matchings, each as the tuple (gamma_0..gamma_n) of chosen
    labels, one per parallelogram group."""
    group_of = {lbl: gi for gi, grp in enumerate(d.pl_groups) for lbl in grp}
    out = []
    for labels in _matching_walk(d, lambda e: (d.label_of_edge[e],), ()):
        gamma: list = [None] * len(d.pl_groups)
        for lbl in labels:
            gi = group_of[lbl]
            if gamma[gi] is not None:
                raise InvalidInput("matching hits one group twice")
            gamma[gi] = lbl
        if any(g is None for g in gamma):
            raise InvalidInput("matching misses a group")
        out.append(tuple(gamma))
    text = {lbl: str(lbl) for lbl in d.label_of_edge.values()}  # each label's text, once
    return sorted(out, key=lambda g: [text[x] for x in g])


def _matching_terms(comp: CompletionResult):
    """The sum of `matching_weight` over the matchings of a completed path,
    divided by the path variables, in ambient variables, as
    `laurent.affine_sum` input.  A matching is tallied by its label
    occurrences: one field per canonical label, as wide as the n + 1 edges
    of a matching need."""
    d = build_snake(comp.celq)
    deltas = comp.unit_deltas(1)
    width = field_width(d.n + 1)
    shift = [1 << width * k if delta else 0 for k, delta in enumerate(deltas)]
    tally = Counter(_matching_walk(d, lambda e: shift[label_variable(d.label_of_edge[e]) - 1], 0))
    return dict.fromkeys(comp.base_order, -1), deltas, unpack(tally, width, len(deltas))


def _matching_count(comp: CompletionResult) -> int:
    """The number of matchings of a completed path; no matching is built."""
    return sum(1 for _ in _matching_walk(build_snake(comp.celq), lambda e: 0, 0))


def matching_weight(gamma) -> LaurentPoly:
    """Product of the edge weights of one matching, as one exponent count."""
    return LaurentPoly.monomial(Counter(label_variable(lbl) for lbl in gamma))


# -- matchings <-> path-quiver witnesses ------------------------------------------


def psi_matching_to_gcc(d: SnakeDiagram, gamma) -> LinearGCC:
    from .formulas import LinearGCC  # only the witness bijections read formulas

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


class TPath:
    def __init__(self, labels: tuple[int, ...]):
        self.labels = labels

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


def _tpath_walk(t: Triangulation, step, zero):
    """Depth first over the T-paths between the distinguished corners:
    distinct labels, odd length, even steps crossing the connecting chord,
    crossings in diagonal order.  Yields per path zero plus step(label,
    even) over its steps, where even says if the step's position is even."""
    if t.vpoint is None or t.wpoint is None:
        raise NotInitialTriangulation("triangulation lacks distinguished corners")
    chord = (t.vpoint, t.wpoint)
    sides: dict[int, list] = {}  # corner -> (label, far, crosses, odd step, even step)
    for lbl, (u, w) in sorted(t.edges.items()):
        crosses, steps = t.cross((u, w), chord), (step(lbl, False), step(lbl, True))
        sides.setdefault(u, []).append((lbl, w, crosses, *steps))
        sides.setdefault(w, []).append((lbl, u, crosses, *steps))

    # depth first; per corner reached, the stack holds its sides left to
    # try, the last crossing so far, the sum and the label that reached it
    used: set[int] = set()  # the sides (labels that do not cross) on the path
    end, longest = t.wpoint, 2 * t.n + 1
    stack = [(iter(sides[t.vpoint]), 0, zero, None)]
    while stack:
        rest, last_cross, acc, _ = stack[-1]
        even = len(stack) % 2 == 0  # the next label takes an even position
        for lbl, far, crosses, odd_step, even_step in rest:
            # crossings come in increasing order, so only a side can repeat
            if (lbl <= last_cross) if crosses else (even or lbl in used):
                continue
            nxt = acc + (even_step if even else odd_step)
            if not even and far == end:
                yield nxt
            if len(stack) < longest:
                if not crosses:
                    used.add(lbl)
                stack.append((iter(sides[far]), lbl if crosses else last_cross, nxt, lbl))
                break
        else:  # every side is tried: step back
            used.discard(stack.pop()[3])


def triangulation_tpaths(t: Triangulation, celq: CompletelyExtendedLinearQuiver):
    """All T-paths between the distinguished corners, in label order."""
    return sorted(map(TPath, _tpath_walk(t, lambda lbl, even: (lbl,), ())),
                  key=lambda p: p.labels)


def _tpath_terms(comp: CompletionResult):
    """The sum of `TPath.value` over the T-paths of a completed path's
    triangulation, in ambient variables, as `laurent.affine_sum` input.  A
    path is tallied by its labels at odd positions (one field per canonical
    label) and at even ones (one more field each), as wide as the 2n + 1
    steps of a path need."""
    t = triangulation_of(comp.celq)
    deltas = comp.unit_deltas(1) + comp.unit_deltas(-1)
    width, half = field_width(2 * t.n + 1), len(deltas) // 2
    shift = [1 << width * k if delta else 0 for k, delta in enumerate(deltas)]
    tally = Counter(_tpath_walk(t, lambda lbl, even: shift[lbl - 1 + half * even], 0))
    return {}, deltas, unpack(tally, width, len(deltas))


def _tpath_count(comp: CompletionResult) -> int:
    """The number of T-paths of a completed path; no path is built."""
    return sum(1 for _ in _tpath_walk(triangulation_of(comp.celq), lambda lbl, even: 0, 0))


# -- folding between matchings and complete T-paths ---------------------------------


class CompleteTPath:
    """Label sequence of length 2n+1 whose even positions run through the
    diagonals in order; labels may repeat in adjacent pairs."""

    def __init__(self, labels: tuple[int, ...]):
        self.labels = labels

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self.labels == other.labels

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
