"""Explicit broken lines for the cluster variables of a type-A quiver.

`broken_lines` builds one line per witness marking of the path subquiver: a
line starts in the direction opposite to the g-vector and bends once on the
coordinate wall of each unmarked position, walls visited in the order given
by repeatedly flipping the smallest adjustable position.  The endpoint obeys
a scale hierarchy that certifies the positivity of every travel parameter.

All arithmetic is exact and in integers: the endpoint is written once per
request as integer coordinates over one common scale, and since a travel
parameter is a coordinate and every direction is an integer vector, every
bend point is an integer vector over the same scale.  A direction is nonzero
only on the path and its neighbours, so a bend touches only those
coordinates, and a line is built from the path's neighbourhood alone: the
relabelling is a pair of dicts over that neighbourhood, and the default
endpoint is made once per shape.  Dense directions and points, and the
bend points, travels and endpoint as `Fraction`s, are built when read.

Odd total rank is handled by doubling the coordinates with principal
coefficients, whose extra block simply records the walls crossed so far.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import lcm

from .errors import (
    CoordinateOutOfRange,
    EndpointRejected,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from .formulas import _variable_gcs
from .laurent import LaurentPoly, affine_sum, canonical_string, unpack
from .quiver import Quiver, _derived, require_path


# -- relabeling so the path occupies 1..n ----------------------------------------


class PathRelabeling:
    """The path's vertices renumbered 1..n in path order, the other vertices
    n+1.. in their own order, with both maps over the path and its
    neighbours alone.  No relabelled quiver is built: every view a line
    reads comes from the ambient quiver's cached adjacency through the maps,
    once per relabelling."""

    def __init__(self, ambient: Quiver, order: tuple[int, ...], to_new: dict[int, int],
                 to_old: dict[int, int]):
        self.ambient = ambient
        self.order = order       # the path in ambient labels
        self.to_new = to_new
        self.to_old = to_old

    @property
    def n(self) -> int:
        return len(self.order)

    @_derived
    def local(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], int], ...]:
        """(vertex, path tails of its arrows in, path heads of its arrows out,
        offset) for every path vertex and neighbour in increasing order: the
        only vertices where a direction can be nonzero.  Tails and heads are
        0-based positions in a marking.  The offset is -1 on the path and on
        a triangle closer: an off-path x with h -> x -> t for an arrow t -> h
        of the path, i.e. an oriented 3-cycle through two path vertices."""
        outs, ins = self.ambient._adjacency
        pos = {v: i for i, v in enumerate(self.order)}
        closers = {x for t in self.order for h in outs[t] if h in pos
                   for x in outs[h] if x not in pos and t in outs[x]}
        return tuple((r, tuple(pos[t] for t in ins[u] if t in pos),
                      tuple(pos[h] for h in outs[u] if h in pos),
                      -1 if u in pos or u in closers else 0)
                     for r, u in sorted(self.to_old.items()))

    @_derived
    def downstream(self) -> tuple[tuple[int, ...], ...]:
        """Per path position r (index r - 1), the path neighbours r has an
        arrow to: an unmarked one keeps r from flipping."""
        outs, order = self.ambient._adjacency[0], self.order
        return tuple(tuple(j for j in (r - 1, r + 1)
                           if 1 <= j <= len(order) and order[j - 1] in outs[order[r - 1]])
                     for r in range(1, len(order) + 1))

    @_derived
    def columns(self) -> tuple[dict[int, int], ...]:
        """Per path position w (index w - 1), the wall's exchange-matrix
        column #(r -> w) - #(w -> r) by 0-based coordinate, zeros left out."""
        outs, ins = self.ambient._adjacency
        cols = []
        for v in self.order:
            col = Counter(self.to_new[t] - 1 for t in ins[v])
            col.subtract(self.to_new[h] - 1 for h in outs[v])
            cols.append({r: x for r, x in col.items() if x})
        return tuple(cols)


def relabel_for_path(qtilde: Quiver, linear_vertices) -> PathRelabeling:
    """The renumbering that puts the path first, in path order, and the other
    vertices after it in their own order, stored over the path and its
    neighbours only: the vertices a line reads."""
    return _relabel(qtilde, require_path(qtilde, linear_vertices))


def _relabel(qtilde: Quiver, order) -> PathRelabeling:
    """`relabel_for_path` of a path given in the order `path_order` gives."""
    order, (outs, ins) = tuple(order), qtilde._adjacency
    to_new, path = {v: r for r, v in enumerate(order, 1)}, sorted(order)
    for v in sorted(set().union(*(outs[v] for v in order), *(ins[v] for v in order))
                    - to_new.keys()):  # after the path, less the path vertices below v
        to_new[v] = len(order) + v - bisect_left(path, v)
    return PathRelabeling(qtilde, order, to_new, {new: old for old, new in to_new.items()})


# -- adjustable positions and the wall order --------------------------------------


def adjustable_positions(rel: PathRelabeling, s) -> list[int]:
    """Unmarked path positions whose flip stays a valid marking; equivalently
    the sinks of the unmarked part of the path."""
    return [r for r, down in enumerate(rel.downstream, 1)
            if s[r - 1] == 0 and all(s[j - 1] != 0 for j in down)]


class WSequence:
    def __init__(self, s: tuple[int, ...], ell: int, walls: tuple[int, ...],
                 chain: tuple[tuple[int, ...], ...]):
        self.s = s
        self.ell = ell
        self.walls = walls      # w_1..w_ell
        self.chain = chain      # s^(0)..s^(ell)


def w_sequence(rel: PathRelabeling, s) -> WSequence:
    """Backward recursion flipping the smallest adjustable position until the
    all-ones marking is reached.  Flips only free positions, and a flip at w
    can free only its path neighbours that point to w, so the candidates sit
    in a heap and each enters it once."""
    s = tuple(s)
    down = rel.downstream
    ell = rel.n - sum(s)
    heap = adjustable_positions(rel, s)  # ascending, so already a heap
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
    return WSequence(s, ell, tuple(reversed(walls)), tuple(reversed(chain)))


def _direction(rel: PathRelabeling, s) -> dict[int, int]:
    """Nonzero coordinates of the direction of a marking, by 0-based index."""
    g = {}
    for r, tails, heads, val in rel.local:
        for t in tails:
            if s[t] == 1:
                val += 1
        for h in heads:
            if s[h] == 0:
                val += 1
        if val not in (-1, 0, 1):
            raise CoordinateOutOfRange(f"direction coordinate {val} at vertex {r}")
        if val:
            g[r - 1] = val
    return g


def _dense(m: dict[int, int], dim: int) -> tuple[int, ...]:
    out = [0] * dim
    for r, v in m.items():
        out[r] = v
    return tuple(out)


# -- endpoints ---------------------------------------------------------------------


class Endpoint:
    def __init__(self, coords: tuple[Fraction, ...], eps: Fraction, n: int, nprime: int):
        self.coords = coords
        self.eps = eps
        self.n = n              # path length (ordered block)
        self.nprime = nprime    # ambient rank; len(coords) is nprime or 2*nprime


class _Scaled:
    """An endpoint as integers: coordinate i is ints[i] / scale with scale
    positive, and eps is num / den with den positive."""

    def __init__(self, scale: int, ints: tuple[int, ...], num: int, den: int, n: int,
                 nprime: int):
        self.scale, self.ints, self.num, self.den = scale, ints, num, den
        self.n, self.nprime = n, nprime

    @_derived
    def band(self) -> tuple[tuple[int, int], ...]:
        """(den^k, (den + num)^k) for k = 0..n: the (1+eps)^k band of the
        travel certificate as a pair of integers."""
        return _powers(self.num, self.den, self.n)


def _powers(num: int, den: int, k: int) -> tuple[tuple[int, int], ...]:
    out, b, c = [], 1, 1
    for _ in range(k + 1):
        out.append((b, c))
        b, c = b * den, c * (den + num)
    return tuple(out)


def _scaled(ep: Endpoint) -> _Scaled:
    coords = [Fraction(c) for c in ep.coords]
    scale = lcm(*(c.denominator for c in coords))
    eps = Fraction(ep.eps)
    return _Scaled(scale, tuple(c.numerator * (scale // c.denominator) for c in coords),
                   eps.numerator, eps.denominator, ep.n, ep.nprime)


def _default_scaled(n: int, nprime: int, principal: bool) -> _Scaled:
    """eps = 1/(2n) over the scale (2n)^(n+1): path coordinate k is
    (2n)^(k+1), i.e. eps^(n-k), and every other coordinate is 1."""
    base = 2 * n
    ints = [base ** (k + 1) for k in range(1, n + 1)]
    ints += [1] * (nprime - n + (nprime if principal else 0))
    return _Scaled(base ** (n + 1), tuple(ints), 1, base, n, nprime)


def _validate(sc: _Scaled):
    """The endpoint checks, by integer cross-multiplication (scale and den
    are positive, and so are the ordered-block coordinates once checked)."""
    n, npr, q, a, b = sc.n, sc.nprime, sc.ints, sc.num, sc.den
    if len(q) not in (npr, 2 * npr):
        raise EndpointRejected(f"endpoint needs {npr} or {2 * npr} coordinates")
    if (b + a) ** n >= 2 * b ** n:
        raise EndpointRejected("scale parameter too large: (1+eps)^n must stay below 2")
    if any(c <= 0 for c in q[:npr]):
        raise EndpointRejected("ordered-block coordinates must be positive")
    for k in range(n - 1):
        if q[k] * b > a * q[k + 1]:
            raise EndpointRejected(f"coordinate {k + 1} is not far below coordinate {k + 2}")
    for i in range(n, npr):
        if q[i] * b > a * q[0]:
            raise EndpointRejected(f"coordinate {i + 1} is not far below coordinate 1")


@lru_cache(maxsize=64)
def _default_request(n: int, nprime: int, principal: bool) -> _Scaled:
    """The default endpoint as integers, built and checked once per shape."""
    sc = _default_scaled(n, nprime, principal)
    _validate(sc)
    return sc


def default_endpoint(n: int, nprime: int, principal: bool = False) -> Endpoint:
    """Scale-separated endpoint: eps = 1/(2n), path coordinate k at eps^(n-k),
    all remaining coordinates at eps^(n+1)."""
    sc = _default_request(n, nprime, principal)
    return Endpoint(tuple(Fraction(c, sc.scale) for c in sc.ints), Fraction(1, 2 * n),
                    n, nprime)


# -- broken lines ------------------------------------------------------------------


class BrokenLine:
    """One line, kept sparse: each direction by its nonzero coordinates and
    each bend by its travel parameter, so its points are the endpoint moved
    back along the directions.  The dense vectors are views, built on first
    read."""

    def __init__(self, s: tuple[int, ...], walls: tuple[int, ...],
                 moves: tuple[dict[int, int], ...], principal: bool, scale: int,
                 base: tuple[int, ...], lams: tuple[int, ...]):
        self.s = s
        self.walls = walls              # wall indices, bend order
        self.moves = moves              # m_0..m_ell by 0-based coordinate
        self.principal = principal
        self.scale = scale              # common denominator of every point
        self.base = base                # the endpoint, times scale
        self.lams = lams                # travel parameter per bend, times scale

    @property
    def ell(self) -> int:
        return len(self.walls)

    @_derived
    def directions(self) -> tuple[tuple[int, ...], ...]:    # lifted if principal
        return tuple(_dense(m, len(self.base)) for m in self.moves)

    @_derived
    def points(self) -> tuple[tuple[int, ...], ...]:        # Q_1..Q_ell, endpoint; times scale
        point, out = list(self.base), [self.base]
        for i in range(self.ell, 0, -1):
            for r, v in self.moves[i].items():
                point[r] += self.lams[i - 1] * v
            out.append(tuple(point))
        return tuple(reversed(out))

    @_derived
    def bends(self) -> tuple[tuple[Fraction, ...], ...]:     # Q_1..Q_ell
        return tuple(tuple(Fraction(c, self.scale) for c in pt) for pt in self.points[:-1])

    @_derived
    def endpoint(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.base)

    @_derived
    def travels(self) -> tuple[Fraction, ...]:
        """The positive travel parameter per bend: the wall coordinate of the
        point before it."""
        return tuple(Fraction(lam, self.scale) for lam in self.lams)

    def monomials(self) -> list[LaurentPoly]:
        return [_monomial(m) for m in self.moves]

    def final_monomial(self) -> LaurentPoly:
        return _monomial(self.moves[-1])


def _monomial(m: dict[int, int]) -> LaurentPoly:
    return LaurentPoly.monomial({r + 1: e for r, e in m.items()})


def _request(rel: PathRelabeling, endpoint: Endpoint | None, principal: bool) -> _Scaled:
    """The endpoint of one request as integers, checked once for all its
    lines (the default once per shape): odd rank needs the principal
    construction, then the endpoint checks, then its dimension."""
    npr = rel.ambient.n
    if not principal and npr % 2:
        raise OddRankWithoutPrincipal(
            "odd ambient rank: use principal_broken_line instead")
    if endpoint is None:
        sc = _default_request(rel.n, npr, principal)
    else:
        sc = _scaled(endpoint)
        _validate(sc)
    dim = 2 * npr if principal else npr
    if len(sc.ints) != dim:
        raise EndpointRejected(f"endpoint has {len(sc.ints)} coordinates, expected {dim}")
    return sc


def _build(rel: PathRelabeling, s, sc: _Scaled, principal: bool) -> BrokenLine:
    """One line, from an endpoint that `_request` accepted."""
    npr = rel.ambient.n
    ws = w_sequence(rel, s)

    # directions, sparse by 0-based coordinate; the principal lift counts
    # the walls crossed before each one
    sparse = []
    for i, marking in enumerate(ws.chain):
        m = _direction(rel, marking)
        if principal:
            for w in ws.walls[:i]:
                m[npr + w - 1] = m.get(npr + w - 1, 0) + 1
        sparse.append(m)

    # each step is the column of the wall in the exchange matrix,
    # #(r -> w) - #(w -> r), and in the lift the indicator of the wall;
    # no direction holds a zero, so the sum is compared without its zeros
    for i in range(1, ws.ell + 1):
        w = ws.walls[i - 1]
        step = rel.columns[w - 1]
        if principal:
            step = {**step, npr + w - 1: 1}
        want = dict(sparse[i - 1])
        for r, v in step.items():
            x = want.get(r, 0) + v
            if x:
                want[r] = x
            else:
                del want[r]
        if want != sparse[i]:
            raise CoordinateOutOfRange(
                f"direction step at wall {w} is not the wall exponent vector")
        if sparse[i].get(w - 1) != -1 or sparse[i - 1].get(w - 1) != -1:
            raise CoordinateOutOfRange(f"bend at wall {w} lacks the unit pairing")

    # Walk back from the endpoint.  A point is kept on the coordinates a
    # direction can touch (the walls among them); the rest stay at the
    # endpoint.  Its ordered-block coordinates are positive, and a bend
    # changes only the coordinates its direction touches, so a point can
    # vanish off its wall only there or on the wall of the bend after it.
    base = sc.ints
    point = {r - 1: base[r - 1] for r, *_ in rel.local}
    if principal:
        point.update((npr + w - 1, base[npr + w - 1]) for w in ws.walls)
    points, lams = [point], []  # Q_{ell+1}, then Q_ell .. Q_1
    later = None
    for i in range(ws.ell, 0, -1):
        w = ws.walls[i - 1]
        lam = point[w - 1]
        if lam <= 0:
            raise PositivityViolation(
                f"travel parameter at wall {w} is {Fraction(lam, sc.scale)}")
        point = dict(point)
        for r, v in sparse[i].items():
            point[r] += lam * v
        if point[w - 1] != 0:
            raise PositivityViolation("bend point missed its wall")
        touched = [r for r in sparse[i] if r < npr]
        if later is not None:
            touched.append(later - 1)
        on_wall = [r + 1 for r in touched if r != w - 1 and point[r] == 0]
        if on_wall:
            raise EndpointRejected(
                f"bend point on wall {w} also lies on wall {min(on_wall)}; "
                "choose a more generic endpoint")
        points.append(point)
        lams.append(lam)
        later = w
    points.reverse()  # Q_1..Q_ell, Q_{ell+1}
    _certify(ws.walls, points, base, sc.band)
    return BrokenLine(ws.s, ws.walls, tuple(sparse), principal, sc.scale, base,
                      tuple(reversed(lams)))


def _certify(walls, points, base, band):
    """The band check over integers: points (Q_1..Q_{ell+1}) and base (the
    endpoint) share one scale, base is positive on every wall, and band[k]
    is (b^k, (b+a)^k) for eps = a/b.  The ratio x/base lies in
    [2 - (1+eps)^k, (1+eps)^k] exactly when
    (2 b^k - (b+a)^k) base <= x b^k <= (b+a)^k base."""
    ell = len(walls)
    for i, w in enumerate(walls, start=1):
        b0 = base[w - 1]
        for ip in range(i + 1, ell + 2):
            bk, ck = band[ell + 1 - ip]
            x = points[ip - 1][w - 1] * bk
            if not ((2 * bk - ck) * b0 <= x <= ck * b0):
                raise PositivityViolation(
                    f"coordinate {w} of point {ip} drifted out of its band")


def broken_lines(qtilde: Quiver, linear_vertices, endpoint: Endpoint | None = None,
                 principal: bool | None = None) -> list[BrokenLine]:
    """One broken line per witness marking; odd rank automatically routed
    through the principal construction."""
    return _lines(relabel_for_path(qtilde, linear_vertices), endpoint, principal)


def _lines(rel: PathRelabeling, endpoint: Endpoint | None = None,
           principal: bool | None = None) -> list[BrokenLine]:
    """`broken_lines` of a relabelling: the markings are read in `rel.order`
    and the endpoint is checked once."""
    if principal is None:
        principal = rel.ambient.n % 2 == 1
    sc = _request(rel, endpoint, principal)
    return [_build(rel, s, sc, principal) for s in _variable_gcs(rel.ambient, rel.order)]


def ambient_monomial(line: BrokenLine) -> LaurentPoly:
    """Final monomial of a line over the relabeled ambient variables; a
    principal line's coefficient block is set to one."""
    m = line.moves[-1]
    if line.principal:
        half = len(line.base) // 2
        m = {r: e for r, e in m.items() if r < half}
    return _monomial(m)


def line_json(line: BrokenLine) -> dict:
    """JSON-ready summary of one broken line; each distinct coordinate of
    its bend points is written over the line's scale once."""
    points = line.points[:-1]
    text = {c: str(Fraction(c, line.scale)) for c in set().union(*points)}
    return {"s": list(line.s), "walls": list(line.walls),
            "monomial": canonical_string(line.final_monomial()),
            "bends": [[text[c] for c in pt] for pt in points]}


def theta_from_broken_lines(qtilde: Quiver, linear_vertices,
                            endpoint: Endpoint | None = None) -> LaurentPoly:
    """Sum of the final monomials over all broken lines of the path
    subquiver, expressed in the ambient variables; equals the cluster
    variable of the path subquiver."""
    rel = relabel_for_path(qtilde, linear_vertices)
    return _theta(rel, _lines(rel, endpoint))


def _theta(rel: PathRelabeling, lines) -> LaurentPoly:
    """The sum of `ambient_monomial` over the lines, renamed back through
    rel.  A final exponent is -1, 0 or 1 on each path vertex and neighbour
    (`rel.local`) and set to one off them, so a line is tallied by its final
    exponent: per coordinate one field for +1 and one for -1, a bit each."""
    deltas, shift = [], {}
    for r, *_ in rel.local:
        for e in (1, -1):
            shift[r - 1, e] = 1 << len(deltas)
            deltas.append(((rel.to_old[r], e),))
    tally = Counter(sum(shift.get(item, 0) for item in line.moves[-1].items()) for line in lines)
    return affine_sum({}, deltas, unpack(tally, 1, len(deltas)))
