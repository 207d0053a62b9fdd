"""The paper's bijections between the witness sets of the models, in order:
globally compatible sequences and collections (`gcs_to_gcc`, `gcc_to_gcs`);
snake-diagram matchings and path-quiver witnesses (the psi maps); matchings
and complete T-paths (`fold`, `unfold`) and complete T-paths and T-paths
(`complete_path`, `reduce_path`); witness markings and broken lines.  No
model imports this module, so each model keeps its own witness layer.
"""

from __future__ import annotations

from bisect import bisect_left

from .completion import CompletelyExtendedLinearQuiver
from .errors import InvalidInput
from .formulas import GCCollection, _gateways, three_cycle_cover
from .laurent import LaurentPoly
from .linear_gcc import LinearGCC
from .quiver import Quiver
from .scattering import BrokenLine, Endpoint, _build, _request, relabel_for_path
from .snake import SnakeDiagram, TPath, label_variable


def gcs_to_gcc(q: Quiver, a, s, i0: int | None = None) -> GCCollection:
    """Translate a globally compatible sequence into a collection, triangle
    by triangle: along each oriented triangle labeled by increasing distance
    the horizontals copy the tail's bits (reversed past the first arrow) and
    the verticals negate the head's bits."""
    a = tuple(a)
    chosen = {}
    for (g, p, qq) in _gateways(q, i0).values():
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        sg, sp, sq = s[g - 1], s[p - 1], s[qq - 1]
        chosen[(g, p)] = (
            frozenset(r for r in range(1, ag + 1) if sg[r - 1] == 1),
            frozenset(r for r in range(1, ap + 1) if sp[r - 1] == 0),
        )
        chosen[(p, qq)] = (
            frozenset(r for r in range(1, ap + 1) if sp[ap - r] == 1),
            frozenset(r for r in range(1, aq + 1) if sq[r - 1] == 0),
        )
        chosen[(qq, g)] = (
            frozenset(r for r in range(1, aq + 1) if sq[aq - r] == 1),
            frozenset(r for r in range(1, ag + 1) if sg[ag - r] == 0),
        )
    return GCCollection(tuple((e, *chosen[e]) for e in sorted(chosen)))


def gcc_to_gcs(q: Quiver, a, gcc: GCCollection, i0: int | None = None):
    """Inverse translation; each vertex's sequence is read off any incident
    arrow."""
    a = tuple(a)
    gateways = _gateways(q, i0)
    three_cycle_cover(q)
    sets = {e: (s1, s2) for e, s1, s2 in gcc.chosen}
    s: dict[int, tuple[int, ...]] = {}
    for (g, p, qq) in gateways.values():
        ag, ap, aq = a[g - 1], a[p - 1], a[qq - 1]
        s1_gp, s2_gp = sets[(g, p)]
        s1_pq, s2_pq = sets[(p, qq)]
        s.setdefault(g, tuple(1 if r in s1_gp else 0 for r in range(1, ag + 1)))
        s.setdefault(p, tuple(0 if r in s2_gp else 1 for r in range(1, ap + 1)))
        s.setdefault(qq, tuple(0 if r in s2_pq else 1 for r in range(1, aq + 1)))
    for v in q.vertices:
        s.setdefault(v, tuple())
    return tuple(s[v] for v in q.vertices)


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


class CompleteTPath:
    """Label sequence of length 2n+1 whose even positions run through the
    diagonals in order; labels may repeat in adjacent pairs."""

    def __init__(self, labels: tuple[int, ...]):
        self.labels = labels

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self.labels == other.labels

    def value(self) -> LaurentPoly:
        return TPath(self.labels).value()


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


def broken_line_from_gcs(qtilde: Quiver, linear_vertices, s,
                         endpoint: Endpoint | None = None) -> BrokenLine:
    """Broken line of one marking in the even-rank case."""
    rel = relabel_for_path(qtilde, linear_vertices)
    return _build(rel, s, _request(rel, endpoint, False), False)


def principal_broken_line(qtilde: Quiver, linear_vertices, s,
                          endpoint: Endpoint | None = None) -> BrokenLine:
    """Broken line of one marking over the doubled coordinates; restricting
    the final monomial to the first block recovers the plain witness term."""
    rel = relabel_for_path(qtilde, linear_vertices)
    return _build(rel, s, _request(rel, endpoint, True), True)
