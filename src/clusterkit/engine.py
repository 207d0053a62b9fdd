"""Seed mutation oracle and exhaustive cluster-variable enumeration.

The exchange relation replaces one cluster entry by (product over incoming
arrows + product over outgoing arrows) / old entry, read off the signed row
of the mutated vertex.  A one-term divisor is divided in one pass, any other
by leading-term elimination; the quotient is certified exact by multiplying
back, and a failure raises InexactDivision and indicates a bug, never bad
input.  The walk to one cluster variable mutates signed rows in place.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain

from .errors import (
    DisconnectedQuiver,
    ExplosionGuard,
    FrozenVertex,
    InexactDivision,
    InvalidInput,
    NotAClusterVariableDVector,
)
from .geometry import _require_nonnegative, require_in_w, support_of
from .laurent import LaurentPoly, _times, mono_degree, mono_mul
from .quiver import (Quiver, _mutate_rows, _signed_rows, is_type_a, linear_full_subquivers,
                     mutate, path_order, require_type_a)


def _eliminate(p: dict, d: dict) -> dict:
    """Quotient terms of p by d (term dicts) from iterated leading-term
    elimination under the graded order (degree, then exponents over the
    variables of p and d).  A remainder term's key is computed once, as it
    enters a min-heap negated; the lead is the first entry popped that is
    still in the remainder.  In each variable, the extreme parts of a product
    never cancel, so a term of an exact quotient has its exponent between the
    least exponents' difference and the greatest's; a candidate outside that
    box proves the division inexact, and the box bounds the steps."""
    support = sorted({v for m in chain(p, d) for v, _ in m})

    def entry(m):
        e = dict(m)
        return (-mono_degree(m), tuple(-e.get(v, 0) for v in support)), m

    def columns(entries):  # per variable, the negated exponents of the terms
        return zip(*(key[1] for key, _ in entries))

    heap, ds = list(map(entry, p)), list(map(entry, d))
    box = [(max(cd) - max(cp), min(cd) - min(cp)) for cp, cd in zip(columns(heap), columns(ds))]
    (_, neg_d), lead_d = min(ds)
    coeff_d = d[lead_d]
    inv_lead_d = tuple((v, -e) for v, e in lead_d)
    quotient: dict = {}
    remainder = dict(p)
    heapify(heap)
    while remainder:
        (_, neg_r), lead_r = heappop(heap)
        while lead_r not in remainder:  # cancelled since it entered
            (_, neg_r), lead_r = heappop(heap)
        coeff_r = remainder[lead_r]
        if coeff_r % coeff_d:
            raise InexactDivision("leading coefficient not divisible")
        if any(not lo <= b - a <= hi for a, b, (lo, hi) in zip(neg_r, neg_d, box)):
            raise InexactDivision("quotient term outside the exponent box of an exact quotient")
        t = mono_mul(lead_r, inv_lead_d)
        c = coeff_r // coeff_d
        quotient[t] = c
        for m, cd in d.items():
            mm = mono_mul(t, m)
            nc = remainder.get(mm, 0) - c * cd
            if nc:
                if mm not in remainder:
                    heappush(heap, entry(mm))
                remainder[mm] = nc
            elif mm in remainder:
                del remainder[mm]
    return quotient


def _divide(p: dict, d: dict) -> dict:
    """The certified exact quotient of term dicts: by a one-term divisor
    c*m in one pass (every coefficient divided by c, every monomial times
    1/m), by a longer one through leading-term elimination.  The quotient is
    multiplied back and compared with the numerator."""
    if not d:
        raise InexactDivision("division by zero")
    if len(d) == 1:
        ((m_d, c_d),) = d.items()
        if any(c % c_d for c in p.values()):
            raise InexactDivision("coefficient not divisible by the monomial divisor")
        inv = tuple((v, -e) for v, e in m_d)
        q = {mono_mul(m, inv): c // c_d for m, c in p.items()}
    else:
        q = _eliminate(p, d)
    if _times(q, d) != p:
        raise InexactDivision("quotient verification failed")
    return q


def exact_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Certified exact division in the Laurent ring (`_divide`)."""
    return LaurentPoly._of(_divide(p.terms, d.terms))


class Seed:
    """A quiver together with one Laurent polynomial per vertex.  Frozen
    positions hold coefficient variables that never change."""

    def __init__(self, quiver: Quiver, cluster: tuple[LaurentPoly, ...]):
        self.quiver, self.cluster = quiver, cluster

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.quiver, self.cluster) == (other.quiver, other.cluster))

    def entry(self, v: int) -> LaurentPoly:
        return self.cluster[v - 1]


def initial_seed(q: Quiver) -> Seed:
    return Seed(q, tuple(LaurentPoly.variable(i) for i in q.vertices))


def _exchange(row: dict[int, int], entries: dict, old: dict) -> dict:
    """The exchange relation at a vertex v with signed row `row`, on term
    dicts.  A vertex missing from entries still holds its initial variable;
    each side gathers those into one monomial, so only the other entries are
    multiplied."""
    gathered, factors = ([], []), ([], [])  # arrows into v (c < 0), then out of v
    for u, c in row.items():
        if u in entries:
            factors[c > 0].extend([entries[u]] * abs(c))
        elif c:
            gathered[c > 0].append((u, abs(c)))
    total: dict = {}
    for initial, exchanged in zip(gathered, factors):
        side = {tuple(sorted(initial)): 1}
        for f in exchanged:
            side = _times(side, f)
        for m, c in side.items():
            nc = total.get(m, 0) + c
            if nc:
                total[m] = nc
            else:
                del total[m]
    return _divide(total, old)


def mutate_seed(s: Seed, v: int) -> Seed:
    if v in s.quiver.frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {v}")
    row = _signed_rows(s.quiver.vertices, s.quiver.arrows).get(v, {})
    cluster = list(s.cluster)
    entries = {u: p.terms for u, p in enumerate(s.cluster, 1)}
    cluster[v - 1] = LaurentPoly._of(_exchange(row, entries, entries[v]))
    return Seed(mutate(s.quiver, v), tuple(cluster))


def _seed_key(s: Seed):
    """Canonical key insensitive to permuting the unfrozen positions."""
    unfrozen = s.quiver.unfrozen
    order = sorted(unfrozen, key=lambda v: s.entry(v).key())
    relabel = {old: new + 1 for new, old in enumerate(order)}
    nxt = len(order) + 1
    for v in sorted(s.quiver.frozen):
        relabel[v] = nxt
        nxt += 1
    arrows = tuple(sorted((relabel[t], relabel[h]) for t, h in s.quiver.arrows))
    entries = tuple(s.entry(v).key() for v in order)
    return (arrows, entries)


def _refuse_double_arrow(q: Quiver):
    """ExplosionGuard on a double arrow between unfrozen vertices: a cluster
    algebra is of finite type exactly when no quiver of its mutation class
    has one (Fomin & Zelevinsky 2003, Thm 1.8).  Arrows are sorted, so the
    copies of an arrow are adjacent."""
    for arrow, nxt in zip(q.arrows, q.arrows[1:]):
        if arrow == nxt and q.frozen.isdisjoint(arrow):
            raise ExplosionGuard(f"double arrow {arrow[0]} -> {arrow[1]} between "
                                 "unfrozen vertices; input is infinite-type")


def enumerate_seeds(q: Quiver, max_seeds: int = 100_000):
    """Breadth-first walk of the exchange graph with permutation-insensitive
    seed deduplication.  Deterministic order; raises ExplosionGuard at the
    first seed with a double arrow (the input is not of finite type) and
    past the bound."""
    if max_seeds < 1:
        raise InvalidInput(f"max_seeds must be at least 1, got {max_seeds}")
    start = initial_seed(q)
    _refuse_double_arrow(start.quiver)
    visited = {_seed_key(start)}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        yield s
        for v in s.quiver.unfrozen:
            s2 = mutate_seed(s, v)
            k = _seed_key(s2)
            if k not in visited:
                _refuse_double_arrow(s2.quiver)
                if len(visited) >= max_seeds:
                    raise ExplosionGuard(
                        f"more than {max_seeds} seeds; input looks infinite-type")
                visited.add(k)
                queue.append(s2)


def enumerate_cluster_variables(
    q: Quiver, max_seeds: int = 100_000
) -> dict[tuple[int, ...], LaurentPoly]:
    """Every cluster variable keyed by its denominator vector (in the
    unfrozen initial variables; initial variables get minus a unit vector).
    On a type-A quiver they are read off the arcs: each unfrozen initial
    variable, and the walk to the variable of every linear full subquiver
    that avoids the frozen vertices, whose arcs cross no frozen diagonal
    (Fomin, Shapiro & Thurston 2008).  Any other quiver walks the exchange
    graph (`_seed_table`), at most max_seeds seeds."""
    if max_seeds < 1:
        raise InvalidInput(f"max_seeds must be at least 1, got {max_seeds}")
    try:
        type_a = is_type_a(q)
    except DisconnectedQuiver:
        type_a = False
    if not type_a:
        return _seed_table(q, max_seeds)
    unfrozen = q.unfrozen
    out = {tuple(-(u == v) for u in unfrozen): LaurentPoly.variable(v) for v in unfrozen}
    for support in linear_full_subquivers(q):
        if q.frozen.isdisjoint(support):
            a = tuple(int(v in support) for v in q.vertices)
            out[tuple(a[u - 1] for u in unfrozen)] = _cluster_variable(
                q, a, path_order(q, support))
    return out


def _seed_table(q: Quiver, max_seeds: int = 100_000) -> dict[tuple[int, ...], LaurentPoly]:
    """`enumerate_cluster_variables` from every seed of the exchange graph."""
    unfrozen = q.unfrozen
    out: dict[tuple[int, ...], LaurentPoly] = {}
    for s in enumerate_seeds(q, max_seeds):
        for v in s.quiver.unfrozen:
            poly = s.entry(v)
            least = poly.min_exponents()
            key = tuple(-least.get(u, 0) for u in unfrozen)
            if key not in out:
                out[key] = poly
            elif out[key] != poly:
                raise NotAClusterVariableDVector(
                    f"two distinct variables share the d-vector {key}")
    return out


# -- principal coefficients ----------------------------------------------------


def principal_quiver(q: Quiver) -> Quiver:
    """Extend by one frozen vertex per mutable vertex, with an arrow from the
    new vertex n+i down to i."""
    n = q.n
    arrows = list(q.arrows) + [(n + i, i) for i in q.vertices]
    return Quiver(2 * n, tuple(arrows), frozenset(range(n + 1, 2 * n + 1)))


def variable_mutation_sequence(q: Quiver, a) -> list[int]:
    """Mutation sequence reaching the cluster variable with 0-1 denominator
    vector a: the path order of its support (`path_order`), the order in
    which the realizing arc crosses the diagonals.  No pipelines and no
    triangulation are built.  A vector with a negative entry, of the wrong
    length or breaking the 3-cycle parity raises NotInW; any other vector
    whose support is not a path raises NotAClusterVariableDVector."""
    return _mutation_sequence(q, *_require_nonnegative(q, a, "mutation sequences need"))


def _mutation_sequence(q: Quiver, a: tuple, support: list[int]) -> list[int]:
    """`variable_mutation_sequence` of a checked vector with its support."""
    order = path_order(q, support) if all(a[v - 1] == 1 for v in support) else None
    if order is None:
        raise NotAClusterVariableDVector(f"{a} decomposes into several variables")
    return order


def _walk(start: Quiver, seq: list[int]) -> LaurentPoly:
    """The entry left at the last vertex of seq by mutating along it from
    the start quiver (a type-A quiver or its principal extension).

    The walk mutates in place the signed rows of the full subquiver spanned
    by the path and its neighbours, and keeps the entries it has exchanged.
    That is exact: a flip at v changes arrows only among v and its
    neighbours, so by induction no path vertex ever gains a neighbour
    outside that set, and every exchange reads only entries inside it."""
    frozen = [v for v in seq if v in start.frozen]
    if frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {frozen[0]}")
    outs, ins = start._adjacency
    local = sorted(set(seq).union(*(outs[v] for v in seq), *(ins[v] for v in seq)))
    b = _signed_rows(local, ((t, h) for t in local for h in outs[t]))
    entries: dict[int, dict] = {}
    for v in seq:
        entries[v] = _exchange(b[v], entries, entries.get(v) or {((v, 1),): 1})
        _mutate_rows(b, v)
    return LaurentPoly._of(entries[seq[-1]])


def cluster_variable(q: Quiver, a) -> LaurentPoly:
    """The cluster variable with denominator vector a: an initial variable
    for minus a unit vector, otherwise computed by a targeted mutation
    sequence along the realizing arc.  q must be type A (so connected)."""
    require_type_a(q)
    a = tuple(a)
    if len(a) == q.n and a.count(-1) == 1 and a.count(0) == q.n - 1:
        return LaurentPoly.variable(a.index(-1) + 1)
    if not set(a) <= {0, 1}:
        raise NotAClusterVariableDVector(f"{a} is not a variable denominator vector")
    a = require_in_w(q, a)
    return _cluster_variable(q, a, _mutation_sequence(q, a, support_of(a)))


def _cluster_variable(q: Quiver, a: tuple, order: list[int]) -> LaurentPoly:
    """`cluster_variable` of a checked 0-1 vector with the path order of its
    support: the walk along it, certified to have the d-vector 1 on the
    support and 0 off it."""
    poly = _walk(q, order)
    if {v: -e for v, e in poly.min_exponents().items() if e} != dict.fromkeys(order, 1):
        raise NotAClusterVariableDVector(f"mutation walk missed the target {a}")
    return poly
