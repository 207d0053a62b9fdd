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

from collections import Counter

from .errors import InvalidInput, NotInitialTriangulation
from .geometry import Triangulation, triangulation_of
from .laurent import LaurentPoly, field_width, unpack
from .quiver import CompletelyExtendedLinearQuiver, CompletionResult

Label = object  # int (boundary/extension id) or ("d", diagonal, group)


def label_variable(label) -> int:
    return label[1] if isinstance(label, tuple) else label


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


def build_snake(celq: CompletelyExtendedLinearQuiver) -> SnakeDiagram:
    """Tile placement and edge labeling for the diagram of a completed path
    quiver, in one pass over the tiles.  Each tile goes right or up from the
    one before, turning where consecutive delta entries agree; the side the
    two share gets mid(i), and the other side of the old tile and the far
    side of the new one get the two diagonal weights of group i."""
    n, delta = celq.n, celq.delta
    first = (celq.start0, celq.start1) if n == 1 or delta[0] == 0 else (celq.start1, celq.start0)
    labels = {((0, 0), (1, 0)): first[0], ((0, 0), (0, 1)): first[1]}
    groups, tiles, x, y, right = [first], [(0, 0)], 0, 0, True
    for i in range(1, n):
        if i > 1 and delta[i - 2] == delta[i - 1]:
            right = not right
        side, top = ((x + 1, y), (x + 1, y + 1)), ((x, y + 1), (x + 1, y + 1))
        group = (celq.mid(i), ("d", i + 1, i), ("d", i, i))
        if right:
            labels[side], labels[top] = group[:2]
            x += 1
            labels[(x, y), (x + 1, y)] = group[2]
        else:
            labels[top], labels[side] = group[:2]
            y += 1
            labels[(x, y), (x, y + 1)] = group[2]
        groups.append(group)
        tiles.append((x, y))
    # the last tile's (top, right): end1 on top after a step right with delta 0
    # or up with delta 1
    side, top = ((x + 1, y), (x + 1, y + 1)), ((x, y + 1), (x + 1, y + 1))
    last = (celq.end1, celq.end0) if n > 1 and right == (delta[-1] == 0) else (celq.end0, celq.end1)
    labels[side], labels[top] = last[1], last[0]
    groups.append(last)
    edge_of_label = {lbl: e for e, lbl in labels.items()}
    return SnakeDiagram(celq, tuple(tiles), edge_of_label, labels, tuple(groups))


def _matching_walk(d: SnakeDiagram, step, zero):
    """Depth first over the perfect matchings of d, yielding per matching
    zero plus step(e) over its edges e.  The search state is the covered
    vertex bits; the first uncovered vertex (the lowest zero bit) takes each
    of its free edges in turn.  The yield order is not fixed: every caller
    sums, counts or sorts what it yields."""
    vertices = d.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    incident: list[list[tuple[int, object]]] = [[] for _ in vertices]
    for e in d.label_of_edge:
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


# -- T-paths -----------------------------------------------------------------------


class TPath:
    def __init__(self, labels: tuple[int, ...]):
        self.labels = labels

    def value(self) -> LaurentPoly:
        expo: dict[int, int] = {}
        for pos, lbl in enumerate(self.labels, start=1):
            expo[lbl] = expo.get(lbl, 0) + (1 if pos % 2 else -1)
        return LaurentPoly.monomial(expo)


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
