"""Reference helpers that only the tests use.

No command and no model needs these, so they live next to the tests that
pin them: exchange matrices, mutation sequences, g-vectors by multidegree,
endpoint and travel-bound checks, marking directions and d-vectors of
diagonals, sums of per-witness terms and their renaming to the ambient
labels, each built on the program's own primitives; the principal lift
and the g-vector degree formula, which no command calls.  The assembly
kernels on `LaurentPoly` values (exchange, certified division, walk, affine
sum and the rendering order) are kept as the program had them before they
moved to term dicts, and the broken lines as it built them before one tree
of markings served every line of a relabelling.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress
import json
from math import lcm

from clusterkit import scattering
from clusterkit.completion import CompletionResult
from clusterkit.engine import (Seed, _mutation_sequence, _walk, cluster_variable, mutate_seed,
                               principal_quiver)
from clusterkit.errors import (ClusterKitError, CoordinateOutOfRange, EndpointRejected,
                               FrozenVertex, InexactDivision, NotAClusterVariableDVector,
                               PositivityViolation)
from clusterkit.geometry import Triangulation, support_of
from clusterkit.laurent import (LaurentPoly, Monomial, mono, mono_degree, mono_mul, poly_product,
                                to_json_dict)
from clusterkit.pipelines import PipelineSet
from clusterkit.quiver import Quiver, _mutate_rows, _signed_rows, mutate, require_path
from clusterkit.variable_gcs import _variable_gcs


class NotHomogeneous(ClusterKitError):
    """A polynomial's terms have different multidegrees (`g_vector_by_multidegree`)."""


class CrossingDiagonals(ClusterKitError):
    """Two arcs of a multiset cross (`d_vector_of`)."""


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


def principal_lift(q: Quiver, a) -> LaurentPoly:
    """The corresponding cluster variable with principal coefficients (over
    2n variables; setting the top n to 1 recovers the plain variable)."""
    plain = cluster_variable(q, a)
    a = tuple(a)
    if -1 in a:  # minus a unit vector
        return plain
    poly = _walk(principal_quiver(q), _mutation_sequence(q, a, support_of(a)))
    if poly.substitute_one([v for v in poly.support() if v > q.n]) != plain:
        raise NotAClusterVariableDVector("principal lift does not specialize correctly")
    return poly


def g_vector_by_formula(qtilde: Quiver, linear_vertices) -> tuple[int, ...]:
    """Degree formula for the g-vector of the variable indexed by a linear
    full subquiver: on a path vertex, incoming-from-path arrows minus one;
    off the path, 1 exactly when the vertex only receives one arrow from the
    path and sends none back."""
    vs = set(linear_vertices)
    require_path(qtilde, vs)
    g = []
    for r in qtilde.vertices:
        deg_in = sum(1 for t in qtilde.arrows_in(r) if t in vs)
        deg_out = sum(1 for h in qtilde.arrows_out(r) if h in vs)
        if r in vs:
            g.append(deg_in - 1)
        elif (deg_out, deg_in) == (0, 1):
            g.append(1)
        else:
            g.append(0)
    return tuple(g)


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
    scattering._certify(line.walls, points, tuple(c * base_up for c in sc.ints), sc.band)


def g_direction(rel: scattering.PathRelabeling, s) -> tuple[int, ...]:
    """Direction vector of a marking: at each vertex, arrows arriving from
    marked path vertices plus arrows leaving toward unmarked path vertices,
    less one on the path itself or on a vertex completing a path triangle.
    Only path vertices and their neighbours are evaluated; the rest are 0."""
    m = scattering._direction(rel, s)
    return tuple(m.get(r, 0) for r in range(rel.ambient.n))


# -- broken lines built one by one --------------------------------------------
#
# Each line re-derives its whole chain: the wall sequence from a heap of
# candidates, the marking rule at every marking, every wall step, a point
# copied at every bend and the band checked at every later point.  The
# downstream neighbours and the wall columns are read off the ambient
# quiver, not off the relabelling's `local` view.


def downstream(rel: scattering.PathRelabeling) -> tuple[tuple[int, ...], ...]:
    """Per path position r (index r - 1), the path neighbours r has an arrow
    to, 1-based."""
    outs, order = rel.ambient._adjacency[0], rel.order
    return tuple(tuple(j for j in (r - 1, r + 1)
                       if 1 <= j <= len(order) and order[j - 1] in outs[order[r - 1]])
                 for r in range(1, len(order) + 1))


def wall_columns(rel: scattering.PathRelabeling) -> tuple[dict[int, int], ...]:
    """Per path position w, the column #(r -> w) - #(w -> r) of the exchange
    matrix by 0-based coordinate, zeros left out."""
    outs, ins = rel.ambient._adjacency
    cols = []
    for v in rel.order:
        col = Counter(rel.to_new[t] - 1 for t in ins[v])
        col.subtract(rel.to_new[h] - 1 for h in outs[v])
        cols.append({r: x for r, x in col.items() if x})
    return tuple(cols)


def adjustable(rel: scattering.PathRelabeling, s, down=None) -> list[int]:
    down = down or downstream(rel)
    return [r for r in range(1, rel.n + 1)
            if s[r - 1] == 0 and all(s[j - 1] != 0 for j in down[r - 1])]


def w_sequence(rel: scattering.PathRelabeling, s) -> scattering.WSequence:
    """Flip the smallest adjustable position until the all-ones marking:
    the candidates sit in a heap and each enters it once."""
    s = tuple(s)
    down = downstream(rel)
    ell = rel.n - sum(s)
    heap = adjustable(rel, s, down)
    cur = list(s)
    chain, walls = [s], []
    for _ in range(ell):
        if not heap:
            raise PositivityViolation("no adjustable position on a non-full marking")
        w = heappop(heap)
        cur[w - 1] = 1
        walls.append(w)
        chain.append(tuple(cur))
        for j in (w - 1, w + 1):
            if (0 < j <= rel.n and cur[j - 1] == 0 and w in down[j - 1]
                    and all(cur[k - 1] != 0 for k in down[j - 1])):
                heappush(heap, j)
    if chain[-1] != (1,) * rel.n:
        raise PositivityViolation("wall recursion did not end at the full marking")
    return scattering.WSequence(s, ell, tuple(reversed(walls)), tuple(reversed(chain)))


def direction(rel: scattering.PathRelabeling, s) -> dict[int, int]:
    """The marking rule: nonzero coordinates by 0-based index."""
    g = {}
    for r, tails, heads, val in rel.local:
        val += sum(1 for t in tails if s[t] == 1) + sum(1 for h in heads if s[h] == 0)
        if val not in (-1, 0, 1):
            raise CoordinateOutOfRange(f"direction coordinate {val} at vertex {r}")
        if val:
            g[r - 1] = val
    return g


def certify(walls, points, base, band):
    """The band check at every later point of every wall."""
    ell = len(walls)
    for i, w in enumerate(walls, start=1):
        b0 = base[w - 1]
        for ip in range(i + 1, ell + 2):
            bk, ck = band[ell + 1 - ip]
            x = points[ip - 1][w - 1] * bk
            if not ((2 * bk - ck) * b0 <= x <= ck * b0):
                raise PositivityViolation(
                    f"coordinate {w} of point {ip} drifted out of its band")


def build_line(rel: scattering.PathRelabeling, s, sc, principal: bool,
               certified: bool = True) -> scattering.BrokenLine:
    """One line from an accepted endpoint, every check on its own chain;
    without `certified`, the band check is left out."""
    npr = rel.ambient.n
    ws = w_sequence(rel, s)
    columns = wall_columns(rel)
    sparse = []
    for i, marking in enumerate(ws.chain):
        m = direction(rel, marking)
        if principal:
            for w in ws.walls[:i]:
                m[npr + w - 1] = m.get(npr + w - 1, 0) + 1
        sparse.append(m)
    for i in range(1, ws.ell + 1):
        w = ws.walls[i - 1]
        step = dict(columns[w - 1])
        if principal:
            step[npr + w - 1] = 1
        want = Counter(sparse[i - 1])
        want.update(step)
        if {r: x for r, x in want.items() if x} != sparse[i]:
            raise CoordinateOutOfRange(
                f"direction step at wall {w} is not the wall exponent vector")
        if sparse[i].get(w - 1) != -1 or sparse[i - 1].get(w - 1) != -1:
            raise CoordinateOutOfRange(f"bend at wall {w} lacks the unit pairing")
    base = sc.ints
    point = {r - 1: base[r - 1] for r, *_ in rel.local}
    if principal:
        point.update((npr + w - 1, base[npr + w - 1]) for w in ws.walls)
    points, lams, later = [point], [], None  # Q_{ell+1}, then Q_ell .. Q_1
    for i in range(ws.ell, 0, -1):
        w = ws.walls[i - 1]
        lam = point[w - 1]
        if lam <= 0:
            raise PositivityViolation(f"travel parameter at wall {w} is {Fraction(lam, sc.scale)}")
        point = dict(point)
        for r, v in sparse[i].items():
            point[r] += lam * v
        if point[w - 1] != 0:
            raise PositivityViolation("bend point missed its wall")
        touched = [r for r in sparse[i] if r < npr] + ([later - 1] if later else [])
        on_wall = [r + 1 for r in touched if r != w - 1 and point[r] == 0]
        if on_wall:
            raise EndpointRejected(f"bend point on wall {w} also lies on wall {min(on_wall)}; "
                                   "choose a more generic endpoint")
        points.append(point)
        lams.append(lam)
        later = w
    points.reverse()  # Q_1..Q_ell, Q_{ell+1}
    if certified:
        certify(ws.walls, points, base, sc.band)
    return scattering.BrokenLine(ws.s, ws.walls, tuple(sparse), principal, sc.scale, base,
                                 tuple(reversed(lams)))


def broken_lines(rel: scattering.PathRelabeling, endpoint=None, principal=None):
    """Every line of a relabelling, one by one, or the first error raised."""
    if principal is None:
        principal = rel.ambient.n % 2 == 1
    sc = scattering._request(rel, endpoint, principal)
    return [build_line(rel, s, sc, principal) for s in _variable_gcs(rel.ambient, rel.order)]


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
