"""Explicit broken lines for the cluster variables of a type-A quiver.

Every witness marking of the path subquiver maps to one broken line: the
line starts in the direction opposite to the g-vector and bends once on the
coordinate wall of each unmarked position, walls visited in the order given
by repeatedly flipping the smallest adjustable position.  All bend points
are exact rationals; the endpoint obeys a scale hierarchy that certifies the
positivity of every travel parameter.

Odd total rank is handled by doubling the coordinates with principal
coefficients, whose extra block simply records the walls crossed so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoordinateOutOfRange,
    EndpointRejected,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from .formulas import enumerate_variable_gcs, variable_gcs_monomial
from .laurent import LaurentPoly, canonical_string, poly_sum
from .quiver import Quiver, exchange_matrix, oriented_three_cycles, require_path


# -- relabeling so the path occupies 1..n ----------------------------------------


@dataclass(frozen=True)
class PathRelabeling:
    quiver: Quiver               # relabeled ambient quiver
    n: int                       # path length
    to_new: dict[int, int]
    to_old: dict[int, int]


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


def g_direction(rel: PathRelabeling, s) -> tuple[int, ...]:
    """Direction vector of a marking: at each vertex, arrows arriving from
    marked path vertices plus arrows leaving toward unmarked path vertices,
    less one on the path itself or on a vertex completing a path triangle."""
    q = rel.quiver
    n = rel.n
    triangle_closers = set()
    for (i, j, k) in oriented_three_cycles(q):
        for (x, rest) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
            if x > n and all(v <= n for v in rest):
                triangle_closers.add(x)
    g = []
    for r in q.vertices:
        deg1 = sum(1 for t in q.arrows_in(r) if t <= n and s[t - 1] == 1)
        deg0 = sum(1 for h in q.arrows_out(r) if h <= n and s[h - 1] == 0)
        val = deg1 + deg0
        if r <= n or r in triangle_closers:
            val -= 1
        if val not in (-1, 0, 1):
            raise CoordinateOutOfRange(f"direction coordinate {val} at vertex {r}")
        g.append(val)
    return tuple(g)


# -- endpoints ---------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    coords: tuple[Fraction, ...]
    eps: Fraction
    n: int        # path length (ordered block)
    nprime: int   # ambient rank; len(coords) is nprime or 2*nprime


def validate_endpoint(ep: Endpoint):
    n, npr = ep.n, ep.nprime
    q = ep.coords
    if len(q) not in (npr, 2 * npr):
        raise EndpointRejected(f"endpoint needs {npr} or {2 * npr} coordinates")
    if (1 + ep.eps) ** n >= 2:
        raise EndpointRejected("scale parameter too large: (1+eps)^n must stay below 2")
    if any(c <= 0 for c in q[:npr]):
        raise EndpointRejected("ordered-block coordinates must be positive")
    for k in range(n - 1):
        if q[k] / q[k + 1] > ep.eps:
            raise EndpointRejected(f"coordinate {k + 1} is not far below coordinate {k + 2}")
    for i in range(n, npr):
        if q[i] / q[0] > ep.eps:
            raise EndpointRejected(f"coordinate {i + 1} is not far below coordinate 1")


def default_endpoint(n: int, nprime: int, principal: bool = False) -> Endpoint:
    """Scale-separated endpoint: eps = 1/(2n), path coordinate k at eps^(n-k),
    all remaining coordinates at eps^(n+1)."""
    eps = Fraction(1, 2 * n)
    coords = [eps ** (n - k) for k in range(1, n + 1)]
    coords += [eps ** (n + 1)] * (nprime - n)
    if principal:
        coords += [eps ** (n + 1)] * nprime
    ep = Endpoint(tuple(coords), eps, n, nprime)
    validate_endpoint(ep)
    return ep


# -- broken lines ------------------------------------------------------------------


@dataclass(frozen=True)
class BrokenLine:
    s: tuple[int, ...]
    walls: tuple[int, ...]                       # wall indices, bend order
    directions: tuple[tuple[int, ...], ...]      # m_0..m_ell (lifted if principal)
    bends: tuple[tuple[Fraction, ...], ...]      # Q_1..Q_ell
    endpoint: tuple[Fraction, ...]
    travels: tuple[Fraction, ...]                # positive travel parameter per bend
    principal: bool

    @property
    def ell(self) -> int:
        return len(self.walls)

    def monomials(self) -> list[LaurentPoly]:
        return [LaurentPoly.monomial({r + 1: e for r, e in enumerate(m) if e})
                for m in self.directions]

    def final_monomial(self) -> LaurentPoly:
        return self.monomials()[-1]


def _column(b_matrix, w, dim):
    return tuple(b_matrix[r][w - 1] if r < len(b_matrix) else 0 for r in range(dim))


def _construct(rel: PathRelabeling, s, ep: Endpoint, principal: bool) -> BrokenLine:
    npr = rel.quiver.n
    dim = 2 * npr if principal else npr
    validate_endpoint(ep)
    if len(ep.coords) != dim:
        raise EndpointRejected(f"endpoint has {len(ep.coords)} coordinates, expected {dim}")
    ws = w_sequence(rel, s)
    b = exchange_matrix(rel.quiver)

    directions = []
    for i, marking in enumerate(ws.chain):
        m = list(g_direction(rel, marking))
        if principal:
            lift = [0] * npr
            for w in ws.walls[:i]:
                lift[w - 1] += 1
            m += lift
        directions.append(tuple(m))

    vcol = {}
    for w in set(ws.walls):
        col = list(_column(b, w, npr))
        if principal:
            col += [1 if r == w else 0 for r in range(1, npr + 1)]
        vcol[w] = tuple(col)

    for i in range(1, ws.ell + 1):
        w = ws.walls[i - 1]
        diff = tuple(directions[i][r] - directions[i - 1][r] for r in range(dim))
        if diff != vcol[w]:
            raise CoordinateOutOfRange(
                f"direction step at wall {w} is not the wall exponent vector")
        if directions[i][w - 1] != -1 or directions[i - 1][w - 1] != -1:
            raise CoordinateOutOfRange(f"bend at wall {w} lacks the unit pairing")

    points = [tuple(ep.coords)]  # Q_{ell+1}, then Q_ell .. Q_1
    travels = []
    for i in range(ws.ell, 0, -1):
        w = ws.walls[i - 1]
        lam = points[-1][w - 1]
        if lam <= 0:
            raise PositivityViolation(f"travel parameter at wall {w} is {lam}")
        travels.append(lam)
        m = directions[i]
        nxt = tuple(points[-1][r] + lam * m[r] for r in range(dim))
        if nxt[w - 1] != 0:
            raise PositivityViolation("bend point missed its wall")
        for r in range(1, npr + 1):
            if r != w and nxt[r - 1] == 0:
                raise EndpointRejected(
                    f"bend point on wall {w} also lies on wall {r}; "
                    "choose a more generic endpoint")
        points.append(nxt)
    bends = tuple(reversed(points[1:]))  # Q_1..Q_ell
    travels = tuple(reversed(travels))
    line = BrokenLine(tuple(s), ws.walls, tuple(directions), bends,
                      tuple(ep.coords), travels, principal)
    certify_travel_bounds(line, ep)
    return line


def certify_travel_bounds(line: BrokenLine, ep: Endpoint):
    """Exact-rational version of the approximation estimate: the wall-w_i
    coordinate of every later point stays within the (1+eps)-power band
    around the endpoint coordinate."""
    ell = line.ell
    pts = list(line.bends) + [line.endpoint]  # Q_1..Q_ell, Q_{ell+1}
    for i in range(1, ell + 1):
        w = line.walls[i - 1]
        base = ep.coords[w - 1]
        for ip in range(i + 1, ell + 2):
            ratio = pts[ip - 1][w - 1] / base
            bound = (1 + ep.eps) ** (ell + 1 - ip)
            if not (2 - bound <= ratio <= bound):
                raise PositivityViolation(
                    f"coordinate {w} of point {ip} drifted out of its band")


def _build(rel: PathRelabeling, s, endpoint: Endpoint | None,
           principal: bool) -> BrokenLine:
    if not principal and rel.quiver.n % 2:
        raise OddRankWithoutPrincipal(
            "odd ambient rank: use principal_broken_line instead")
    if endpoint is None:
        endpoint = default_endpoint(rel.n, rel.quiver.n, principal=principal)
    return _construct(rel, s, endpoint, principal)


def broken_line_from_gcs(qtilde: Quiver, linear_vertices, s,
                         endpoint: Endpoint | None = None) -> BrokenLine:
    """Broken line of one marking in the even-rank case."""
    return _build(relabel_for_path(qtilde, linear_vertices), s, endpoint, False)


def principal_broken_line(qtilde: Quiver, linear_vertices, s,
                          endpoint: Endpoint | None = None) -> BrokenLine:
    """Broken line of one marking over the doubled coordinates; restricting
    the final monomial to the first block recovers the plain witness term."""
    return _build(relabel_for_path(qtilde, linear_vertices), s, endpoint, True)


def broken_lines(qtilde: Quiver, linear_vertices, endpoint: Endpoint | None = None,
                 principal: bool | None = None) -> list[BrokenLine]:
    """One broken line per witness marking; odd rank automatically routed
    through the principal construction.  The path is relabeled once."""
    rel = relabel_for_path(qtilde, linear_vertices)
    if principal is None:
        principal = rel.quiver.n % 2 == 1
    if endpoint is None:
        endpoint = default_endpoint(rel.n, rel.quiver.n, principal=principal)
    return [_build(rel, s, endpoint, principal)
            for s in enumerate_variable_gcs(qtilde, linear_vertices)]


def ambient_monomial(line: BrokenLine) -> LaurentPoly:
    """Final monomial of a line over the relabeled ambient variables; a
    principal line's coefficient block is set to one."""
    monomial = line.final_monomial()
    if line.principal:
        npr = len(line.endpoint) // 2
        monomial = monomial.substitute_one(range(npr + 1, 2 * npr + 1))
    return monomial


def line_json(line: BrokenLine) -> dict:
    """JSON-ready summary of one broken line."""
    return {"s": list(line.s), "walls": list(line.walls),
            "monomial": canonical_string(line.final_monomial()),
            "bends": [[str(c) for c in pt] for pt in line.bends]}


def theta_from_broken_lines(qtilde: Quiver, linear_vertices,
                            endpoint: Endpoint | None = None,
                            lines: list[BrokenLine] | None = None) -> LaurentPoly:
    """Sum of the final monomials over all broken lines of the path
    subquiver (the given ones, else built here), expressed in the ambient
    variables; equals the cluster variable of the path subquiver."""
    if lines is None:
        lines = broken_lines(qtilde, linear_vertices, endpoint)
    to_old = relabel_for_path(qtilde, linear_vertices).to_old
    return poly_sum(ambient_monomial(line) for line in lines).rename(to_old)


def witness_monomial(qtilde: Quiver, linear_vertices, s) -> LaurentPoly:
    """Per-witness monomial in ambient variables (for termwise comparisons):
    the gcs-variable weight of the marking, bits in path order."""
    return variable_gcs_monomial(qtilde, linear_vertices, s)


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
