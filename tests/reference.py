"""Reference helpers that only the tests use.

No command and no model needs these, so they live next to the tests that
pin them: exchange matrices, mutation sequences, g-vectors by multidegree,
endpoint and travel-bound checks, marking directions and d-vectors of
diagonals, sums of per-witness terms and their renaming to the ambient
labels, each built on the program's own primitives.  The assembly kernels
on `LaurentPoly` values (exchange, certified division, walk, affine sum and
the rendering order) are kept as the program had them before they moved to
term dicts.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, compress
import json
from math import lcm

from clusterkit import scattering
from clusterkit.engine import Seed, mutate_seed
from clusterkit.errors import CrossingDiagonals, FrozenVertex, InexactDivision, NotHomogeneous
from clusterkit.geometry import PipelineSet, Triangulation
from clusterkit.laurent import (LaurentPoly, Monomial, mono, mono_degree, mono_mul, poly_product,
                                to_json_dict)
from clusterkit.quiver import CompletionResult, Quiver, _mutate_rows, _signed_rows, mutate


def poly_sum(ps) -> LaurentPoly:
    return LaurentPoly.from_terms(pair for p in ps for pair in p.terms.items())


def substitution_then_rename(comp: CompletionResult, poly: LaurentPoly) -> LaurentPoly:
    """Express a polynomial over canonical labels in ambient variables:
    invented vertices are set to 1, the rest renamed through the map."""
    p = poly.substitute_one(comp.invented)
    return p.rename({c: a for c, a in comp.to_ambient.items() if a is not None})


def mutate_sequence(q: Quiver, vertices: list[int]) -> Quiver:
    for v in vertices:
        q = mutate(q, v)
    return q


def exchange_matrix(q: Quiver) -> list[list[int]]:
    """Skew-symmetric matrix b[i][j] = #(i->j) - #(j->i), 0-indexed lists."""
    b = _signed_rows(q.vertices, q.arrows)
    return [[b[i].get(j, 0) for j in q.vertices] for i in q.vertices]


def mutate_seed_sequence(s: Seed, vertices) -> Seed:
    for v in vertices:
        s = mutate_seed(s, v)
    return s


def g_vector_by_multidegree(poly: LaurentPoly, b_matrix: list[list[int]]) -> tuple[int, ...]:
    """Common multidegree of a principal-coefficient variable under
    deg(x_i) = e_i and deg(x_{n+i}) = minus the i-th column of the exchange
    matrix.  Disagreeing terms raise NotHomogeneous."""
    n = len(b_matrix)
    g = None
    for m in poly.terms:
        deg = [0] * n
        for v, e in m:
            if v <= n:
                deg[v - 1] += e
            else:
                col = v - n - 1
                for r in range(n):
                    deg[r] -= e * b_matrix[r][col]
        deg = tuple(deg)
        if g is None:
            g = deg
        elif g != deg:
            raise NotHomogeneous(f"terms have degrees {g} and {deg}")
    if g is None:
        raise NotHomogeneous("zero polynomial has no multidegree")
    return g


def to_json(p: LaurentPoly) -> str:
    return json.dumps(to_json_dict(p))


def validate_endpoint(ep: scattering.Endpoint):
    scattering._validate(scattering._scaled(ep))


def certify_travel_bounds(line: scattering.BrokenLine, ep: scattering.Endpoint):
    """Exact version of the approximation estimate: the wall-w_i coordinate
    of every later point stays within the (1+eps)-power band around the
    endpoint coordinate.  ep must be a valid endpoint."""
    sc = scattering._scaled(ep)
    common = lcm(line.scale, sc.scale)
    up, base_up = common // line.scale, common // sc.scale
    points = [tuple(c * up for c in pt) for pt in line.points]
    scattering._certify(line.walls, points, tuple(c * base_up for c in sc.ints),
                        scattering._powers(sc.num, sc.den, line.ell))


def g_direction(rel: scattering.PathRelabeling, s) -> tuple[int, ...]:
    """Direction vector of a marking: at each vertex, arrows arriving from
    marked path vertices plus arrows leaving toward unmarked path vertices,
    less one on the path itself or on a vertex completing a path triangle.
    Only path vertices and their neighbours are evaluated; the rest are 0."""
    return scattering._dense(scattering._direction(rel, s), rel.ambient.n)


def b_vectors(ps: PipelineSet) -> tuple[tuple[int, ...], ...]:
    return tuple(p.b_vector for p in ps.pipelines)


def intersection_number(t: Triangulation, d: tuple[int, int], e: tuple[int, int]) -> int:
    if tuple(sorted(d)) == tuple(sorted(e)):
        return -1
    return 1 if t.cross(d, e) else 0


def d_vector_of(diagonal_multiset, t: Triangulation) -> tuple[int, ...]:
    """d-vector of a multiset of pairwise non-crossing corner pairs: +1 per
    crossing with diagonal i, -1 per coincidence with it."""
    ds = [tuple(sorted(d)) for d in diagonal_multiset]
    for p1, p2 in combinations(range(len(ds)), 2):
        if t.cross(ds[p1], ds[p2]):
            raise CrossingDiagonals(f"{ds[p1]} crosses {ds[p2]}")
    return tuple(
        sum(intersection_number(t, d, t.edges[i]) for d in ds)
        for i in range(1, t.n + 1)
    )


# -- assembly on LaurentPoly values ------------------------------------------


def eliminate(p: LaurentPoly, d: LaurentPoly) -> dict:
    """Quotient terms of p by d from leading-term elimination, with a step
    cap of 16 * (|p| + |d| + 4): it refuses exact divisions whose quotient
    is longer than that, so draw short quotients."""
    support = sorted(set(p.support()) | set(d.support()))

    def entry(m):
        e = dict(m)
        return (-mono_degree(m), tuple(-e.get(v, 0) for v in support)), m

    lead_d = min(map(entry, d.terms))[1]
    coeff_d = d.terms[lead_d]
    inv_lead_d = tuple((v, -e) for v, e in lead_d)
    quotient: dict = {}
    remainder = dict(p.terms)
    heap = list(map(entry, remainder))
    heapify(heap)
    cap = 16 * (len(p.terms) + len(d.terms) + 4)
    while remainder:
        cap -= 1
        if cap < 0:
            raise InexactDivision("leading-term elimination did not terminate")
        lead_r = heappop(heap)[1]
        while lead_r not in remainder:
            lead_r = heappop(heap)[1]
        coeff_r = remainder[lead_r]
        if coeff_r % coeff_d:
            raise InexactDivision("leading coefficient not divisible")
        t = mono_mul(lead_r, inv_lead_d)
        c = coeff_r // coeff_d
        quotient[t] = quotient.get(t, 0) + c
        for m, cd in d.terms.items():
            mm = mono_mul(t, m)
            nc = remainder.get(mm, 0) - c * cd
            if nc:
                if mm not in remainder:
                    heappush(heap, entry(mm))
                remainder[mm] = nc
            elif mm in remainder:
                del remainder[mm]
    return quotient


def exact_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Certified exact division: one pass by a one-term divisor, `eliminate`
    by a longer one, and the quotient multiplied back."""
    if d.is_zero():
        raise InexactDivision("division by zero")
    if len(d.terms) == 1:
        ((m_d, c_d),) = d.terms.items()
        if any(c % c_d for c in p.terms.values()):
            raise InexactDivision("coefficient not divisible by the monomial divisor")
        inv = tuple((v, -e) for v, e in m_d)
        q = LaurentPoly._of({mono_mul(m, inv): c // c_d for m, c in p.terms.items()})
    else:
        q = LaurentPoly(eliminate(p, d))
    if q * d != p:
        raise InexactDivision("quotient verification failed")
    return q


def exchange(row: dict[int, int], entries: dict, old: LaurentPoly) -> LaurentPoly:
    """The exchange relation at a vertex with signed row `row`; a vertex
    missing from entries holds its initial variable."""
    sides = []
    for sign in (-1, 1):
        arrows = [(u, sign * c) for u, c in row.items() if sign * c > 0]
        initial = LaurentPoly._of({mono({u: k for u, k in arrows if u not in entries}): 1})
        sides.append(poly_product([initial, *(entries[u] for u, k in arrows
                                              if u in entries for _ in range(k))]))
    return exact_divide(sides[0] + sides[1], old)


def exchanged_entry(s: Seed, v: int) -> LaurentPoly:
    """The entry that mutating seed s at v puts at v."""
    row = _signed_rows(s.quiver.vertices, s.quiver.arrows).get(v, {})
    return exchange(row, dict(enumerate(s.cluster, 1)), s.entry(v))


def walk(start: Quiver, seq: list[int]) -> LaurentPoly:
    """The entry left at the last vertex of seq by mutating along it, on the
    signed rows of the seq's vertices and their neighbours."""
    frozen = [v for v in seq if v in start.frozen]
    if frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {frozen[0]}")
    outs, ins = start._adjacency
    local = sorted(set(seq).union(*(outs[v] for v in seq), *(ins[v] for v in seq)))
    b = _signed_rows(local, ((t, h) for t in local for h in outs[t]))
    entries: dict[int, LaurentPoly] = {}
    for v in seq:
        entries[v] = exchange(b[v], entries, entries.get(v, LaurentPoly.variable(v)))
        _mutate_rows(b, v)
    return entries[seq[-1]]


def affine_sum(base, deltas, tally, drop=()) -> LaurentPoly:
    """Sum of c * x^base * deltas[0]^k_0 * ... over the items (k, c) of
    tally, with the variables in drop set to 1."""
    drop = set(drop)
    base = {v: e for v, e in base.items() if v not in drop}
    fields = range(len(deltas))
    acc: dict[Monomial, int] = {}
    for key, c in tally.items():
        e = dict(base)
        for i in compress(fields, key):
            k = key[i]
            for v, d in deltas[i]:
                e[v] = e.get(v, 0) + k * d
        m = mono({v: x for v, x in e.items() if v not in drop} if drop else e)
        acc[m] = acc.get(m, 0) + c
    return LaurentPoly(acc)


def sort_key(p: LaurentPoly):
    vs = p.support()

    def key(m: Monomial):
        d = dict(m)
        vec = tuple(d.get(v, 0) for v in vs)
        # ascending total degree, then descending lexicographic exponent vector
        return (mono_degree(m), tuple(-e for e in vec))

    return key


def sorted_terms(p: LaurentPoly) -> list[tuple[Monomial, int]]:
    key = sort_key(p)
    return sorted(p.terms.items(), key=lambda mc: key(mc[0]))
