"""Explicit broken lines for the cluster variables of a type-A quiver.

Every witness marking of the path subquiver maps to one broken line: the
line starts in the direction opposite to the g-vector and bends once on the
coordinate wall of each unmarked position, walls visited in the order given
by repeatedly flipping the smallest adjustable position.  The endpoint obeys
a scale hierarchy that certifies the positivity of every travel parameter.

All arithmetic is exact and in integers: the endpoint is written once per
request as integer coordinates over one common scale, and since a travel
parameter is a coordinate and every direction is an integer vector, every
bend point is an integer vector over the same scale.  A direction is nonzero
only on the path and its neighbours, so a bend touches only those
coordinates.  Bend points, travels and the endpoint are exposed as
`Fraction`s, converted when they are read.

Odd total rank is handled by doubling the coordinates with principal
coefficients, whose extra block simply records the walls crossed so far.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    CoordinateOutOfRange,
    EndpointRejected,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from .formulas import enumerate_variable_gcs
from .laurent import LaurentPoly, canonical_string, poly_sum
from .quiver import Quiver, require_path


# -- relabeling so the path occupies 1..n ----------------------------------------


@dataclass(frozen=True)
class PathRelabeling:
    quiver: Quiver               # relabeled ambient quiver
    n: int                       # path length
    to_new: dict[int, int]
    to_old: dict[int, int]

    @cached_property
    def local(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], int], ...]:
        """(vertex, path tails of its arrows in, path heads of its arrows out,
        offset) for every path vertex and neighbour in increasing order: the
        only vertices where a direction can be nonzero.  Tails and heads are
        0-based positions in a marking.  The offset is -1 on the path and on
        a triangle closer: an off-path x with h -> x -> t for an arrow t -> h
        of the path, i.e. an oriented 3-cycle through two path vertices."""
        q, n = self.quiver, self.n
        closers = {x for t in range(1, n + 1) for h in q.arrows_out(t) if h <= n
                   for x in q.arrows_out(h) if x > n and q.has_arrow(x, t)}
        near = sorted(set(range(1, n + 1)).union(*(q.neighbors(v) for v in range(1, n + 1))))
        return tuple((r, tuple(t - 1 for t in q.arrows_in(r) if t <= n),
                      tuple(h - 1 for h in q.arrows_out(r) if h <= n),
                      -1 if r <= n or r in closers else 0)
                     for r in near)


def relabel_for_path(qtilde: Quiver, linear_vertices) -> PathRelabeling:
    order = require_path(qtilde, linear_vertices)
    to_new = {v: i + 1 for i, v in enumerate(order)}
    nxt = len(order) + 1
    for v in qtilde.vertices:
        if v not in to_new:
            to_new[v] = nxt
            nxt += 1
    arrows = tuple(sorted((to_new[t], to_new[h]) for t, h in qtilde.arrows))
    return PathRelabeling(
        Quiver(qtilde.n, arrows),
        len(order),
        to_new,
        {new: old for old, new in to_new.items()},
    )


# -- adjustable positions and the wall order --------------------------------------


def adjustable_positions(rel: PathRelabeling, s) -> list[int]:
    """Unmarked path positions whose flip stays a valid marking; equivalently
    the sinks of the unmarked part of the path."""
    q = rel.quiver
    out = []
    for r in range(1, rel.n + 1):
        if s[r - 1] != 0:
            continue
        blocked = False
        for j in (r - 1, r + 1):
            if 1 <= j <= rel.n and q.has_arrow(r, j) and s[j - 1] == 0:
                blocked = True
        if not blocked:
            out.append(r)
    return out


@dataclass(frozen=True)
class WSequence:
    s: tuple[int, ...]
    ell: int
    walls: tuple[int, ...]                 # w_1..w_ell
    chain: tuple[tuple[int, ...], ...]     # s^(0)..s^(ell)


def w_sequence(rel: PathRelabeling, s) -> WSequence:
    """Backward recursion flipping the smallest adjustable position until the
    all-ones marking is reached."""
    s = tuple(s)
    ell = rel.n - sum(s)
    chain = [None] * (ell + 1)
    walls = [0] * ell
    cur = s
    chain[ell] = cur
    for i in range(ell, 0, -1):
        adj = adjustable_positions(rel, cur)
        if not adj:
            raise PositivityViolation("no adjustable position on a non-full marking")
        w = adj[0]
        walls[i - 1] = w
        cur = tuple(1 if r == w else b for r, b in zip(range(1, rel.n + 1), cur))
        chain[i - 1] = cur
    if chain[0] != tuple([1] * rel.n):
        raise PositivityViolation("wall recursion did not end at the full marking")
    return WSequence(s, ell, tuple(walls), tuple(chain))


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


def g_direction(rel: PathRelabeling, s) -> tuple[int, ...]:
    """Direction vector of a marking: at each vertex, arrows arriving from
    marked path vertices plus arrows leaving toward unmarked path vertices,
    less one on the path itself or on a vertex completing a path triangle.
    Only path vertices and their neighbours are evaluated; the rest are 0."""
    return _dense(_direction(rel, s), rel.quiver.n)


def _dense(m: dict[int, int], dim: int) -> tuple[int, ...]:
    out = [0] * dim
    for r, v in m.items():
        out[r] = v
    return tuple(out)


# -- endpoints ---------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    coords: tuple[Fraction, ...]
    eps: Fraction
    n: int        # path length (ordered block)
    nprime: int   # ambient rank; len(coords) is nprime or 2*nprime


@dataclass(frozen=True)
class _Scaled:
    """An endpoint as integers: coordinate i is ints[i] / scale with scale
    positive, and eps is num / den with den positive."""

    scale: int
    ints: tuple[int, ...]
    num: int
    den: int
    n: int
    nprime: int

    @cached_property
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


def validate_endpoint(ep: Endpoint):
    _validate(_scaled(ep))


def default_endpoint(n: int, nprime: int, principal: bool = False) -> Endpoint:
    """Scale-separated endpoint: eps = 1/(2n), path coordinate k at eps^(n-k),
    all remaining coordinates at eps^(n+1)."""
    sc = _default_scaled(n, nprime, principal)
    _validate(sc)
    return Endpoint(tuple(Fraction(c, sc.scale) for c in sc.ints), Fraction(1, 2 * n),
                    n, nprime)


# -- broken lines ------------------------------------------------------------------


@dataclass(frozen=True)
class BrokenLine:
    s: tuple[int, ...]
    walls: tuple[int, ...]                       # wall indices, bend order
    directions: tuple[tuple[int, ...], ...]      # m_0..m_ell (lifted if principal)
    principal: bool
    scale: int                                   # common denominator of every point
    points: tuple[tuple[int, ...], ...]          # Q_1..Q_ell, endpoint; times scale

    @property
    def ell(self) -> int:
        return len(self.walls)

    @cached_property
    def bends(self) -> tuple[tuple[Fraction, ...], ...]:     # Q_1..Q_ell
        return tuple(tuple(Fraction(c, self.scale) for c in pt) for pt in self.points[:-1])

    @cached_property
    def endpoint(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.points[-1])

    @cached_property
    def travels(self) -> tuple[Fraction, ...]:
        """The positive travel parameter per bend: the wall coordinate of the
        point before it."""
        return tuple(Fraction(self.points[i][w - 1], self.scale)
                     for i, w in enumerate(self.walls, start=1))

    def monomials(self) -> list[LaurentPoly]:
        return [_monomial(m) for m in self.directions]

    def final_monomial(self) -> LaurentPoly:
        return _monomial(self.directions[-1])


def _monomial(m) -> LaurentPoly:
    return LaurentPoly.monomial({r + 1: e for r, e in enumerate(m) if e})


def _request(rel: PathRelabeling, endpoint: Endpoint | None, principal: bool) -> _Scaled:
    """The endpoint of one request as integers, checked once for all its
    lines: odd rank needs the principal construction, then the endpoint
    checks, then its dimension."""
    npr = rel.quiver.n
    if not principal and npr % 2:
        raise OddRankWithoutPrincipal(
            "odd ambient rank: use principal_broken_line instead")
    if endpoint is None:
        sc = _default_scaled(rel.n, npr, principal)
    else:
        sc = _scaled(endpoint)
    _validate(sc)
    dim = 2 * npr if principal else npr
    if len(sc.ints) != dim:
        raise EndpointRejected(f"endpoint has {len(sc.ints)} coordinates, expected {dim}")
    return sc


def _build(rel: PathRelabeling, s, sc: _Scaled, principal: bool) -> BrokenLine:
    """One line, from an endpoint that `_request` accepted."""
    npr = rel.quiver.n
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
    # #(r -> w) - #(w -> r), and in the lift the indicator of the wall
    q = rel.quiver
    for i in range(1, ws.ell + 1):
        w = ws.walls[i - 1]
        step = Counter(sparse[i])
        step.subtract(sparse[i - 1])
        step.subtract(t - 1 for t in q.arrows_in(w))
        step.update(h - 1 for h in q.arrows_out(w))
        if principal:
            step[npr + w - 1] -= 1
        if any(step.values()):
            raise CoordinateOutOfRange(
                f"direction step at wall {w} is not the wall exponent vector")
        if sparse[i].get(w - 1) != -1 or sparse[i - 1].get(w - 1) != -1:
            raise CoordinateOutOfRange(f"bend at wall {w} lacks the unit pairing")

    # Walk back from the endpoint.  Its ordered-block coordinates are
    # positive, and a bend changes only the coordinates its direction
    # touches, so a point can vanish off its wall only there or on the wall
    # of the bend after it.
    points = [sc.ints]  # Q_{ell+1}, then Q_ell .. Q_1
    later = None
    for i in range(ws.ell, 0, -1):
        w = ws.walls[i - 1]
        lam = points[-1][w - 1]
        if lam <= 0:
            raise PositivityViolation(
                f"travel parameter at wall {w} is {Fraction(lam, sc.scale)}")
        nxt = list(points[-1])
        for r, v in sparse[i].items():
            nxt[r] += lam * v
        if nxt[w - 1] != 0:
            raise PositivityViolation("bend point missed its wall")
        touched = [r for r in sparse[i] if r < npr]
        if later is not None:
            touched.append(later - 1)
        on_wall = [r + 1 for r in touched if r != w - 1 and nxt[r] == 0]
        if on_wall:
            raise EndpointRejected(
                f"bend point on wall {w} also lies on wall {min(on_wall)}; "
                "choose a more generic endpoint")
        points.append(tuple(nxt))
        later = w
    points.reverse()  # Q_1..Q_ell, Q_{ell+1}
    _certify(ws.walls, points, sc.ints, sc.band)
    dim = 2 * npr if principal else npr
    return BrokenLine(ws.s, ws.walls, tuple(_dense(m, dim) for m in sparse), principal,
                      sc.scale, tuple(points))


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


def certify_travel_bounds(line: BrokenLine, ep: Endpoint):
    """Exact version of the approximation estimate: the wall-w_i coordinate
    of every later point stays within the (1+eps)-power band around the
    endpoint coordinate.  ep must be a valid endpoint."""
    sc = _scaled(ep)
    common = lcm(line.scale, sc.scale)
    up, base_up = common // line.scale, common // sc.scale
    points = [tuple(c * up for c in pt) for pt in line.points]
    _certify(line.walls, points, tuple(c * base_up for c in sc.ints),
             _powers(sc.num, sc.den, line.ell))


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


def broken_lines(qtilde: Quiver, linear_vertices, endpoint: Endpoint | None = None,
                 principal: bool | None = None, *,
                 rel: PathRelabeling | None = None) -> list[BrokenLine]:
    """One broken line per witness marking; odd rank automatically routed
    through the principal construction.  The path is relabeled once, or not
    at all when its relabeling `rel` is passed; the endpoint is checked once."""
    if rel is None:
        rel = relabel_for_path(qtilde, linear_vertices)
    if principal is None:
        principal = rel.quiver.n % 2 == 1
    sc = _request(rel, endpoint, principal)
    return [_build(rel, s, sc, principal)
            for s in enumerate_variable_gcs(qtilde, linear_vertices)]


def ambient_monomial(line: BrokenLine) -> LaurentPoly:
    """Final monomial of a line over the relabeled ambient variables; a
    principal line's coefficient block is set to one."""
    m = line.directions[-1]
    return _monomial(m[:len(m) // 2] if line.principal else m)


def line_json(line: BrokenLine) -> dict:
    """JSON-ready summary of one broken line."""
    return {"s": list(line.s), "walls": list(line.walls),
            "monomial": canonical_string(line.final_monomial()),
            "bends": [[str(c) for c in pt] for pt in line.bends]}


def theta_from_broken_lines(qtilde: Quiver, linear_vertices,
                            endpoint: Endpoint | None = None,
                            lines: list[BrokenLine] | None = None, *,
                            rel: PathRelabeling | None = None) -> LaurentPoly:
    """Sum of the final monomials over all broken lines of the path
    subquiver (the given ones, else built here), expressed in the ambient
    variables; equals the cluster variable of the path subquiver.  The path
    is relabeled once, or not at all when `rel` is passed."""
    if rel is None:
        rel = relabel_for_path(qtilde, linear_vertices)
    if lines is None:
        lines = broken_lines(qtilde, linear_vertices, endpoint, rel=rel)
    return poly_sum(ambient_monomial(line) for line in lines).rename(rel.to_old)


def broken_line_svg(line: BrokenLine, plane: tuple[int, int]) -> str:
    """Projection of the trajectory onto two coordinates (cosmetic)."""
    i, j = plane
    pts = [line.endpoint] + list(reversed(line.bends))
    m0 = line.directions[0]
    start = pts[-1]
    tail = tuple(start[r] - 3 * m0[r] for r in range(len(start)))
    chain = [tail] + list(reversed(pts))
    xs = [float(p[i - 1]) for p in chain]
    ys = [float(p[j - 1]) for p in chain]
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1e-9)
    scale = 200 / span

    def xy(k):
        return 250 + xs[k] * scale, 250 - ys[k] * scale

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500">',
             '<line x1="0" y1="250" x2="500" y2="250" stroke="#ccc"/>',
             '<line x1="250" y1="0" x2="250" y2="500" stroke="#ccc"/>']
    for k in range(len(chain) - 1):
        x1, y1 = xy(k)
        x2, y2 = xy(k + 1)
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="#d22" stroke-width="2"/>')
    for k in range(1, len(chain)):
        x, y = xy(k)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
