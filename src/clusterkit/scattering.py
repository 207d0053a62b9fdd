"""Explicit broken lines for the cluster variables of a type-A quiver.

`broken_lines` builds one line per witness marking of the path subquiver: a
line starts in the direction opposite to the g-vector and bends once on the
coordinate wall of each unmarked position, walls visited in the order given
by repeatedly flipping the smallest adjustable position.  The endpoint obeys
a scale hierarchy that certifies the positivity of every travel parameter.

That order makes the markings of one relabelling a tree: a marking's parent
flips its smallest adjustable position, and a line's walls and directions
are its path to the all-ones root.  The marking rule and the wall-step
checks run once per node and edge, and a line walks its points back on one
mutable vector, exactly, in integers over one scale per request.  A line
reads only the path and its neighbours, where a direction can be nonzero.
Dense vectors and `Fraction`s are built when read or printed, so a command
that only counts or sums lines never loads `fractions`.  The markings are
enumerated here from the path's arrows: this module shares no witness code
with the formulas.  Odd total rank doubles the coordinates with principal
coefficients, recording the walls crossed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from math import lcm

from .errors import (
    CoordinateOutOfRange,
    EndpointRejected,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from .laurent import LaurentPoly, canonical_string
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
        self.ambient, self.order = ambient, order    # the path in ambient labels
        self.to_new, self.to_old = to_new, to_old
        self.tree: dict[tuple[int, ...], _Node] = {}  # every marking its lines reached

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
        """Per path position, the 0-based path positions it has an arrow to:
        an unmarked one keeps it from flipping."""
        return tuple(tuple(sorted(set(heads))) for _, _, heads, _ in self.local[:self.n])

    @_derived
    def columns(self) -> tuple[dict[int, int], ...]:
        """Per path position w (index w - 1), the wall's exchange-matrix
        column #(r -> w) - #(w -> r) by 0-based coordinate, zeros left out,
        read off `local`, which meets every arrow at the path."""
        cols = [Counter() for _ in self.order]
        for r, tails, heads, _ in self.local:
            for t in tails:
                cols[t][r - 1] -= 1
            for h in heads:
                cols[h][r - 1] += 1
        return tuple({r: x for r, x in col.items() if x} for col in cols)


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
            if s[r - 1] == 0 and all(map(s.__getitem__, down))]


class WSequence:
    def __init__(self, s: tuple[int, ...], ell: int, walls: tuple[int, ...],
                 chain: tuple[tuple[int, ...], ...]):
        self.s, self.ell = s, ell
        self.walls, self.chain = walls, chain   # w_1..w_ell and s^(0)..s^(ell)


class _Node:
    """A marking in its relabelling's tree: `up` flips its smallest adjustable
    position `wall`, `depth` steps below the top of its path (all ones if
    `rooted`).  Checked, it holds its direction `move`, split by sign in
    `signs`, the walls ahead that it touches, the first fault on its path,
    and `lifted`, its direction in a principal line."""

    __slots__ = ("s", "wall", "up", "depth", "rooted", "move", "signs", "ahead", "fault",
                 "lifted")

    def __init__(self, s: tuple[int, ...], wall: int | None, up: _Node | None, n: int):
        self.s, self.wall, self.up, self.fault, self.lifted = s, wall, up, False, None
        self.depth, self.rooted = (up.depth + 1, up.rooted) if up else (0, s == (1,) * n)


def _node(rel: PathRelabeling, s: tuple[int, ...]) -> _Node:
    """The node of s, made with its ancestors not yet in the tree, past the
    recursion's checks: n - sum(s) flips, each from an adjustable position,
    end at the all-ones marking.  A flip marks one more position, so the wall
    sequence from s is its smallest adjustable position w, then the one from
    s + e_w: a path in the tree."""
    tree, path, t = rel.tree, [], s
    while t is not None and t not in tree:
        w = min(adjustable_positions(rel, t), default=None)
        path.append((t, w))
        t = None if w is None else t[:w - 1] + (1,) + t[w:]
    node = tree.get(t)
    for t, w in reversed(path):
        node = tree[t] = _Node(t, w, node, rel.n)
    node, ell = tree[s], rel.n - sum(s)
    if node.depth < ell:
        raise PositivityViolation("no adjustable position on a non-full marking")
    if node.depth > ell or not node.rooted:
        raise PositivityViolation("wall recursion did not end at the full marking")
    return node


def w_sequence(rel: PathRelabeling, s) -> WSequence:
    """Backward recursion flipping the smallest adjustable position until the
    all-ones marking is reached, read off the relabelling's tree."""
    path = [_node(rel, tuple(s))]
    while path[-1].up:
        path.append(path[-1].up)
    return WSequence(path[0].s, len(path) - 1, tuple(x.wall for x in reversed(path[:-1])),
                     tuple(x.s for x in reversed(path)))


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


def _check(rel: PathRelabeling, node: _Node, principal: bool):
    """Check a node's path, each node once and root first, and raise its
    first fault: a direction out of range, else a wall step (the rule's
    direction against the one above plus the wall's column, and -1 at the
    wall on both sides).  A principal direction adds 1 at npr + u - 1 per
    wall u crossed before it."""
    leaf, new, npr = node, [], rel.ambient.n
    while node and (node.fault is False or principal and not node.fault and node.lifted is None):
        new.append(node)
        node = node.up
    for node in reversed(new):
        up = node.up
        if node.fault is False:  # (0, message) for a direction, (1, message) for a step
            node.fault = up and up.fault
            try:
                after = node.move = _direction(rel, node.s)
            except CoordinateOutOfRange as exc:
                if not node.fault or node.fault[0]:
                    node.fault = 0, str(exc)
            if up and not node.fault:
                w, before, col = node.wall, up.move, rel.columns[node.wall - 1]
                want = {**before, **{r: before.get(r, 0) + v for r, v in col.items()}}
                if {r: v for r, v in want.items() if v} != after:
                    node.fault = 1, f"direction step at wall {w} is not the wall exponent vector"
                elif after.get(w - 1) != -1 or before.get(w - 1) != -1:
                    node.fault = 1, f"bend at wall {w} lacks the unit pairing"
            if not node.fault:
                node.signs = [r for r in after if after[r] > 0], [r for r in after if after[r] < 0]
                node.ahead = up and [r for r in after if r < rel.n and up.s[r] == 0]
        if principal and not node.fault:
            node.lifted = {**node.move, **{r: 1 for r in up.lifted if r >= npr},
                           npr + node.wall - 1: 1} if up else node.move
    if leaf.fault:
        raise CoordinateOutOfRange(leaf.fault[1])


# -- endpoints ---------------------------------------------------------------------


class Endpoint:
    def __init__(self, coords: tuple[Fraction, ...], eps: Fraction, n: int, nprime: int):
        self.coords, self.eps = coords, eps
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
        b, c = self.den, self.den + self.num
        return tuple((b ** k, c ** k) for k in range(self.n + 1))


def _scaled(ep: Endpoint) -> _Scaled:
    from fractions import Fraction
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
    from fractions import Fraction
    sc = _default_request(n, nprime, principal)
    return Endpoint(tuple(Fraction(c, sc.scale) for c in sc.ints), Fraction(1, 2 * n),
                    n, nprime)


# -- broken lines ------------------------------------------------------------------


class BrokenLine:
    """One line, kept sparse: each direction by its nonzero coordinates and
    each bend by its travel parameter, so its points are the endpoint moved
    back along the directions.  The dense vectors are views, built on first
    read.  Lines of one relabelling share their direction dicts: read only."""

    def __init__(self, s: tuple[int, ...], walls: tuple[int, ...],
                 moves: tuple[dict[int, int], ...], principal: bool, scale: int,
                 base: tuple[int, ...], lams: tuple[int, ...]):
        self.s, self.principal = s, principal
        self.walls = walls              # wall indices, bend order
        self.moves = moves              # m_0..m_ell by 0-based coordinate
        self.scale = scale              # common denominator of every point
        self.base = base                # the endpoint, times scale
        self.lams = lams                # travel parameter per bend, times scale

    @property
    def ell(self) -> int:
        return len(self.walls)

    @_derived
    def directions(self) -> tuple[tuple[int, ...], ...]:    # lifted if principal
        return tuple(tuple(m.get(r, 0) for r in range(len(self.base))) for m in self.moves)

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
        from fractions import Fraction
        return tuple(tuple(Fraction(c, self.scale) for c in pt) for pt in self.points[:-1])

    @_derived
    def endpoint(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(c, self.scale) for c in self.base)

    @_derived
    def travels(self) -> tuple[Fraction, ...]:
        """The positive travel parameter per bend: the wall coordinate of the
        point before it."""
        from fractions import Fraction
        return tuple(Fraction(lam, self.scale) for lam in self.lams)

    def monomials(self) -> list[LaurentPoly]:
        return [_monomial(m) for m in self.moves]

    def final_monomial(self) -> LaurentPoly:
        return _monomial(self.moves[-1])


def _monomial(m: dict[int, int]) -> LaurentPoly:
    return LaurentPoly.monomial({r + 1: e for r, e in m.items()})


def _request(rel: PathRelabeling, endpoint: Endpoint | None, principal: bool) -> _Scaled:
    """The endpoint of one request as integers, checked once for all its lines
    (the default once per shape): odd rank needs the principal construction,
    then the endpoint checks, then its dimension."""
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
    """One line, from an endpoint that `_request` accepted; its directions
    are its path's in the tree, shared with every line through them."""
    node = _node(rel, tuple(s))
    _check(rel, node, principal)
    s = node.s
    # Walk back from the endpoint on one point.  A bend changes only the
    # coordinates its direction touches, so a point can vanish off its wall
    # only there or on the wall of the bend after it.  A wall's band narrows
    # as the point index grows, so the first point of each run of its
    # coordinate that the walk reaches is the one to check, if eps >= 0 (a
    # wall that starts negative ends its first run at a travel <= 0).
    base, band, ell = sc.ints, sc.band, node.depth
    point, walls, moves, lams, later, drift = list(base), [], [], [], None, sc.num < 0
    for i in range(ell, 0, -1):
        w, (plus, minus) = node.wall, node.signs
        lam = point[w - 1]
        if lam <= 0:
            from fractions import Fraction
            raise PositivityViolation(
                f"travel parameter at wall {w} is {Fraction(lam, sc.scale)}")
        zeros = 0
        for r in plus:
            x = point[r] = point[r] + lam
            if not x:
                zeros += 1
        for r in minus:
            x = point[r] = point[r] - lam
            if not x:
                zeros += 1
        if point[w - 1]:
            raise PositivityViolation("bend point missed its wall")
        if zeros > 1 or later and not point[later - 1]:
            on_wall = [r + 1 for r in (*node.move, (later or w) - 1)
                       if not point[r] and r != w - 1]
            raise EndpointRejected(
                f"bend point on wall {w} also lies on wall {min(on_wall)}; "
                "choose a more generic endpoint")
        if node.ahead and not drift:  # |x - b0| b^k <= ((b+a)^k - b^k) b0
            bk, ck = band[ell + 1 - i]
            ck -= bk
            for r in node.ahead:
                if abs(point[r] - base[r]) * bk > ck * base[r]:
                    drift = True
                    break
        walls.append(w)
        moves.append(node.lifted if principal else node.move)
        lams.append(lam)
        later, node = w, node.up
    moves.append(node.lifted if principal else node.move)
    line = BrokenLine(s, tuple(reversed(walls)), tuple(reversed(moves)), principal, sc.scale,
                      base, tuple(reversed(lams)))
    if drift:  # name the first failing point
        _certify(line.walls, line.points, base, band)
    return line


def _certify(walls, points, base, band):
    """The band check over integers: points (Q_1..Q_{ell+1}) and base (the
    endpoint) share one scale, base is positive on every wall, and band[k]
    is (b^k, (b+a)^k) for eps = a/b.  The ratio x/base lies in [2 - (1+eps)^k,
    (1+eps)^k] exactly when (2 b^k - (b+a)^k) base <= x b^k <= (b+a)^k base."""
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
    """`broken_lines` of a relabelling: markings in `rel.order`, endpoint checked once."""
    if principal is None:
        principal = rel.ambient.n % 2 == 1
    sc = _request(rel, endpoint, principal)
    return [_build(rel, s, sc, principal) for s in _markings(rel)]


def _markings(rel: PathRelabeling):
    """The witness markings of the path: 0-1 tuples in path order with no
    arrow from a marked to an unmarked path vertex, in lexicographic order
    with 0 before 1.  A bit is bound only by the one before it (equal to it
    past an arrow from a marked vertex forward or to an unmarked one back),
    so every prefix extends: depth first on one list, with no dead end."""
    arrows, order, s = rel.ambient._arrow_set, rel.order, [0] * rel.n
    forward = [(u, w) in arrows for u, w in zip(order, order[1:])]
    todo = [(0, 1), (0, 0)]
    while todo:
        k, x = todo.pop()
        s[k] = x
        if k + 1 == len(s):
            yield tuple(s)
        elif x == forward[k]:
            todo.append((k + 1, x))
        else:
            todo += ((k + 1, 1), (k + 1, 0))


def ambient_monomial(line: BrokenLine) -> LaurentPoly:
    """Final monomial of a line over the relabeled ambient variables; a
    principal line's coefficient block is set to one."""
    half = len(line.base) // (2 if line.principal else 1)
    return _monomial({r: e for r, e in line.moves[-1].items() if r < half})


def line_json(line: BrokenLine) -> dict:
    """JSON-ready summary of one broken line; each distinct coordinate of
    its bend points is written over the line's scale once."""
    from fractions import Fraction
    points = line.points[:-1]
    text = {c: str(Fraction(c, line.scale)) for c in set().union(*points)}
    return {"s": list(line.s), "walls": list(line.walls),
            "monomial": canonical_string(line.final_monomial()),
            "bends": [[text[c] for c in pt] for pt in points]}


def theta_from_broken_lines(qtilde: Quiver, linear_vertices,
                            endpoint: Endpoint | None = None) -> LaurentPoly:
    """Sum of the final monomials over all broken lines of the path subquiver
    in the ambient variables: the cluster variable of the path subquiver."""
    rel = relabel_for_path(qtilde, linear_vertices)
    return _theta(rel, _lines(rel, endpoint))


def _theta(rel: PathRelabeling, lines) -> LaurentPoly:
    """The sum of `ambient_monomial` over the lines, renamed back through
    rel: a tally of the final exponents, the coefficient block dropped."""
    npr, to_old = rel.ambient.n, rel.to_old
    return LaurentPoly._of(dict(Counter(
        tuple(sorted((to_old[r + 1], e) for r, e in line.moves[-1].items() if r < npr))
        for line in lines)))
