"""The path-quiver specialization of the gcc formula (linear-gcc).

On a completely extended linear quiver a witness is one (horizontal,
vertical) bit pair per internal edge of the path, with a single end bit on
one vertex; consecutive pairs are bound by the directions of their two
edges.  The linear-gcc model loads this module; it walks its witnesses
depth first and sums its terms from a tally of edge-factor choices.
"""

from __future__ import annotations

from collections import Counter

from .completion import CompletelyExtendedLinearQuiver, CompletionResult
from .laurent import LaurentPoly, field_width, unpack


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
