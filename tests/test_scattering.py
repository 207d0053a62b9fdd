from fractions import Fraction
from itertools import product
import random
import time

from hypothesis import given, settings, strategies as st
import pytest

from clusterkit import scattering
from clusterkit.bijections import broken_line_from_gcs, principal_broken_line
from clusterkit.engine import cluster_variable
from clusterkit.errors import (
    ClusterKitError,
    CoordinateOutOfRange,
    EndpointRejected,
    OddRankWithoutPrincipal,
    PositivityViolation,
)
from clusterkit.formulas import (
    enumerate_variable_gcs,
    variable_gcs_k_set,
    variable_gcs_monomial,
)
from clusterkit.harness import random_type_a_quiver, witness_count
from clusterkit.laurent import LaurentPoly
from clusterkit.quiver import (
    Quiver,
    linear_full_subquivers,
    oriented_three_cycles,
)
from clusterkit.scattering import (
    Endpoint,
    adjustable_positions,
    broken_lines,
    default_endpoint,
    line_json,
    relabel_for_path,
    theta_from_broken_lines,
    w_sequence,
)
from clusterkit.svg import broken_line_svg
from conftest import path_quiver
import reference
from reference import (certify_travel_bounds, exchange_matrix, g_direction, g_vector_by_formula,
                       validate_endpoint)


def relabeled_quiver(rel):
    """The ambient quiver under the path relabelling: the path first, in path
    order, the other vertices after it in their own order (the library maps
    only the path and its neighbours and never builds this quiver)."""
    q = rel.ambient
    to_new = {v: r for r, v in enumerate(rel.order, 1)}
    to_new.update((v, r) for r, v in enumerate(
        (v for v in q.vertices if v not in to_new), rel.n + 1))
    return Quiver(q.n, tuple((to_new[t], to_new[h]) for t, h in q.arrows))


def test_adjustable_positions(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    assert adjustable_positions(rel, (1, 1, 1)) == []
    assert adjustable_positions(rel, (0, 0, 0)) == [1, 3]
    assert adjustable_positions(rel, (1, 0, 0)) == [3]
    assert adjustable_positions(rel, (1, 0, 1)) == [2]


def test_adjustable_nonempty_random():
    rng = random.Random(31)
    for _ in range(50):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            for s in enumerate_variable_gcs(q, list(sup)):
                if any(b == 0 for b in s):
                    assert adjustable_positions(rel, s)


def test_w_sequence_example(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    ws = w_sequence(rel, (0, 0, 0))
    assert ws.ell == 3
    assert ws.walls == (2, 3, 1)
    assert ws.chain == ((1, 1, 1), (1, 0, 1), (1, 0, 0), (0, 0, 0))
    full = w_sequence(rel, (1, 1, 1))
    assert full.ell == 0 and full.walls == ()


def test_w_sequence_length_is_zero_count():
    rng = random.Random(32)
    for _ in range(30):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            for s in enumerate_variable_gcs(q, list(sup)):
                ws = w_sequence(rel, s)
                assert ws.ell == sum(1 for b in s if b == 0)
                assert sorted(ws.walls) == [r + 1 for r, b in enumerate(s) if b == 0]


def test_g_direction_example(four_with_triangle):
    rel = relabel_for_path(four_with_triangle, [1, 2, 3])
    assert g_direction(rel, (1, 1, 1)) == (0, -1, 0, 0)
    assert g_direction(rel, (1, 0, 1)) == (-1, -1, -1, 1)
    assert g_direction(rel, (1, 0, 0)) == (-1, 0, -1, 1)
    assert g_direction(rel, (0, 0, 0)) == (-1, 1, -1, 0)


def test_g_direction_matches_g_vector():
    rng = random.Random(33)
    for _ in range(25):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            m0 = g_direction(rel, (1,) * rel.n)
            expected = g_vector_by_formula(relabeled_quiver(rel), list(range(1, rel.n + 1)))
            assert m0 == expected


def test_default_endpoint_values():
    ep = default_endpoint(3, 4)
    assert ep.eps == Fraction(1, 6)
    assert ep.coords == (Fraction(1, 36), Fraction(1, 6), Fraction(1), Fraction(1, 1296))
    assert (1 + ep.eps) ** 3 == Fraction(343, 216)
    ep1 = default_endpoint(1, 2)
    assert ep1.coords[0] == 1


def test_endpoint_validation_rejects_bad_order():
    with pytest.raises(EndpointRejected):
        validate_endpoint(Endpoint((Fraction(1), Fraction(1, 6), Fraction(1, 36),
                                    Fraction(1, 1296)), Fraction(1, 6), 3, 4))
    with pytest.raises(EndpointRejected):
        validate_endpoint(Endpoint((Fraction(1, 2), Fraction(1)), Fraction(2, 3), 2, 2))


def test_broken_line_example(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    assert line.walls == (2, 3, 1)
    assert line.directions == ((0, -1, 0, 0), (-1, -1, -1, 1),
                               (-1, 0, -1, 1), (-1, 1, -1, 0))
    assert line.final_monomial() == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})
    q1, q2, q3, q4 = default_endpoint(3, 4).coords
    assert line.bends[2] == (0, q2 + q1, q3 - q1, q4)
    assert line.bends[1] == (-q3 + q1, q2 + q1, 0, q4 + q3 - q1)
    assert line.bends[0] == (-q3 - q2, 0, -q2 - q1, q4 + q3 + q2)
    # straight line for the all-ones marking
    straight = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (1, 1, 1))
    assert straight.ell == 0
    assert straight.final_monomial() == LaurentPoly.monomial({2: -1})


def test_broken_line_attached_monomials(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    monos = line.monomials()
    assert monos[0] == LaurentPoly.monomial({2: -1})
    assert monos[1] == LaurentPoly.monomial({1: -1, 2: -1, 3: -1, 4: 1})
    assert monos[2] == LaurentPoly.monomial({1: -1, 3: -1, 4: 1})
    assert monos[3] == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})


def test_odd_rank_requires_principal():
    q = path_quiver(3)
    with pytest.raises(OddRankWithoutPrincipal):
        broken_line_from_gcs(q, [1, 2], (1, 1))
    line = principal_broken_line(q, [1, 2], (0, 0))
    assert line.principal
    assert len(line.endpoint) == 6


def test_principal_lift_of_example(four_with_triangle):
    # the doubled direction vectors append the indicator of crossed walls
    lines = {l.s: l for l in broken_lines(four_with_triangle, [1, 2, 3],
                                          principal=True)}
    line = lines[(0, 0, 0)]
    assert line.directions[0][4:] == (0, 0, 0, 0)
    assert line.directions[1][4:] == (0, 1, 0, 0)   # first bend on wall 2
    assert line.directions[2][4:] == (0, 1, 1, 0)
    assert line.directions[3][4:] == (1, 1, 1, 0)
    restricted = line.final_monomial().substitute_one(range(5, 9))
    assert restricted == LaurentPoly.monomial({1: -1, 2: 1, 3: -1})


def test_theta_equals_oracle(four_with_triangle):
    theta = theta_from_broken_lines(four_with_triangle, [1, 2, 3])
    assert theta == cluster_variable(four_with_triangle, (1, 1, 1, 0))


def test_theta_termwise_matches_witness_monomials():
    rng = random.Random(41)
    for _ in range(15):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            rel = relabel_for_path(q, list(sup))
            npr = q.n
            for line in broken_lines(q, list(sup)):
                mono = line.final_monomial()
                if line.principal:
                    mono = mono.substitute_one(range(npr + 1, 2 * npr + 1))
                assert mono.rename(rel.to_old) == variable_gcs_monomial(q, list(sup), line.s)


def test_single_vertex_theta():
    q = path_quiver(2)
    theta = theta_from_broken_lines(q, [1])
    assert theta == cluster_variable(q, (1, 0))
    lines = broken_lines(q, [1])
    assert sorted(line.ell for line in lines) == [0, 1]


def test_wall_sequences_distinct():
    rng = random.Random(47)
    for _ in range(15):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            walls = [line.walls for line in broken_lines(q, list(sup))]
            assert len(set(walls)) == len(walls)


def test_bend_certificates():
    rng = random.Random(53)
    for _ in range(10):
        q = random_type_a_quiver(rng.randint(2, 6), rng)
        for sup in linear_full_subquivers(q):
            for line in broken_lines(q, list(sup)):
                for t in line.travels:
                    assert t > 0
                for i, w in enumerate(line.walls, start=1):
                    # bend pairing: previous direction meets the wall normal in 1
                    assert line.directions[i - 1][w - 1] == -1
                    assert line.bends[i - 1][w - 1] == 0
                    for r in range(1, q.n + 1):
                        if r != w:
                            assert line.bends[i - 1][r - 1] != 0


def test_broken_line_svg_smoke(four_with_triangle):
    line = broken_line_from_gcs(four_with_triangle, [1, 2, 3], (0, 0, 0))
    svg = broken_line_svg(line, (1, 2))
    assert svg.startswith("<svg")


def test_degree_helpers_equal_full_arrow_scans():
    """g_direction, variable_gcs_k_set and g_vector_by_formula read the
    adjacency; they must equal the scans over every arrow they replaced."""
    rng = random.Random(808)
    for _ in range(20):
        q = random_type_a_quiver(rng.randint(2, 8), rng)
        for sup in linear_full_subquivers(q):
            vs = set(sup)
            deg_in = {r: sum(1 for t, h in q.arrows if h == r and t in vs) for r in q.vertices}
            deg_out = {r: sum(1 for t, h in q.arrows if t == r and h in vs) for r in q.vertices}
            assert variable_gcs_k_set(q, sup) == {
                k for k in q.vertices if k not in vs and deg_in[k] == deg_out[k] == 1}
            assert g_vector_by_formula(q, sup) == tuple(
                deg_in[r] - 1 if r in vs else int((deg_out[r], deg_in[r]) == (0, 1))
                for r in q.vertices)
            rel = relabel_for_path(q, list(sup))
            r_quiver = relabeled_quiver(rel)
            r_arrows = r_quiver.arrows
            closers = {x for cycle in oriented_three_cycles(r_quiver) for x in cycle
                       if x > rel.n and sum(v <= rel.n for v in cycle) == 2}
            for s in enumerate_variable_gcs(q, list(sup)):
                assert g_direction(rel, s) == tuple(
                    sum(1 for t, h in r_arrows if h == r and t <= rel.n and s[t - 1] == 1)
                    + sum(1 for t, h in r_arrows if t == r and h <= rel.n and s[h - 1] == 0)
                    - (r <= rel.n or r in closers)
                    for r in r_quiver.vertices)


def test_broken_lines_relabel_once_per_call(monkeypatch, four_with_triangle):
    calls = []
    original = scattering.relabel_for_path

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(scattering, "relabel_for_path", counted)
    lines = broken_lines(four_with_triangle, [1, 2, 3])
    assert len(lines) > 1 and len(calls) == 1


# -- the Fraction construction, kept as a reference for the integer one ----------
#
# Every coordinate of every bend point is a Fraction, every direction is
# evaluated at every vertex, and the wall columns come from the full exchange
# matrix.  The reference returns (walls, directions, bends, travels, endpoint).


def _ref_direction(rel, s):
    q = relabeled_quiver(rel)
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


def _ref_validate(ep):
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


def _ref_construct(rel, s, ep, principal, validate=True):
    npr = rel.ambient.n
    if not principal and npr % 2:
        raise OddRankWithoutPrincipal("odd ambient rank: use principal_broken_line instead")
    dim = 2 * npr if principal else npr
    if validate:
        _ref_validate(ep)
    if len(ep.coords) != dim:
        raise EndpointRejected(f"endpoint has {len(ep.coords)} coordinates, expected {dim}")
    ws = w_sequence(rel, s)
    b = exchange_matrix(relabeled_quiver(rel))

    directions = []
    for i, marking in enumerate(ws.chain):
        m = list(_ref_direction(rel, marking))
        if principal:
            lift = [0] * npr
            for w in ws.walls[:i]:
                lift[w - 1] += 1
            m += lift
        directions.append(tuple(m))

    vcol = {}
    for w in set(ws.walls):
        col = [b[r][w - 1] for r in range(npr)]
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
    line = (ws.walls, tuple(directions), tuple(reversed(points[1:])),
            tuple(reversed(travels)), tuple(ep.coords))
    _ref_certify(line, ep)
    return line


def _ref_certify(line, ep):
    walls, _, bends, _, endpoint = line
    ell = len(walls)
    pts = list(bends) + [endpoint]  # Q_1..Q_ell, Q_{ell+1}
    for i in range(1, ell + 1):
        w = walls[i - 1]
        base = ep.coords[w - 1]
        for ip in range(i + 1, ell + 2):
            ratio = pts[ip - 1][w - 1] / base
            bound = (1 + ep.eps) ** (ell + 1 - ip)
            if not (2 - bound <= ratio <= bound):
                raise PositivityViolation(
                    f"coordinate {w} of point {ip} drifted out of its band")


def _outcome(build):
    """The line as the reference's tuple, or the class and message raised."""
    try:
        line = build()
    except ClusterKitError as exc:
        return type(exc), str(exc)
    if line is None or isinstance(line, tuple):
        return line
    for value in (*line.bends, line.travels, line.endpoint):
        assert all(type(c) is Fraction for c in value)
    return line.walls, line.directions, line.bends, line.travels, line.endpoint


def _agree(q, sup, s, endpoint, principal):
    """Reference and integer construction give the same line or the same
    error; returns the outcome."""
    rel = relabel_for_path(q, list(sup))
    ep = endpoint or default_endpoint(rel.n, q.n, principal)
    build = principal_broken_line if principal else broken_line_from_gcs
    want = _outcome(lambda: _ref_construct(rel, s, ep, principal))
    assert _outcome(lambda: build(q, list(sup), s, endpoint)) == want
    return want


def _rational_endpoint(rng, n, npr, principal, eps):
    """A non-default endpoint: each ordered coordinate at most eps/25 times
    the next, scaled by a random factor in [1/5, 5], the rest likewise far
    below the first; the principal block is arbitrary."""
    step = eps / 25
    coords = [Fraction(rng.randint(1, 5), rng.randint(1, 5))]
    for _ in range(n - 1):
        coords.insert(0, coords[0] * step * Fraction(rng.randint(1, 5), rng.randint(1, 5)))
    coords += [coords[0] * step * Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(npr - n)]
    if principal:
        coords += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(npr)]
    return Endpoint(tuple(coords), eps, n, npr)


def _linear_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        q = random_type_a_quiver(rng.randint(2, 9), rng)
        for sup in linear_full_subquivers(q):
            for principal in (False, True) if q.n % 2 == 0 else (True,):
                yield rng, q, sup, principal


def test_integer_lines_equal_the_fraction_reference():
    """Every marking of every linear full subquiver, plain and principal:
    walls, directions, bends, travels and endpoint agree with the reference
    at the default endpoint and at a non-default rational one."""
    lines = 0
    for rng, q, sup, principal in _linear_cases(6061, 12):
        rel = relabel_for_path(q, list(sup))
        other = _rational_endpoint(rng, rel.n, q.n, principal, Fraction(1, 3 * rel.n))
        batch = broken_lines(q, list(sup), other, principal)
        for s, line in zip(enumerate_variable_gcs(q, list(sup)), batch, strict=True):
            for endpoint in (None, other):
                want = _agree(q, sup, s, endpoint, principal)
                assert isinstance(want[0], tuple), want
                lines += 1
            assert _outcome(lambda: line) == want
            certify_travel_bounds(line, other)
    assert lines > 1000


def test_perturbed_endpoints_fail_like_the_reference():
    """Seeded perturbations of the default endpoint: a larger eps, ladders
    near or past their bound, off-path coordinates close to the first, zero
    or negative entries.  Both constructions build the same line or raise
    the same class with the same message.  Valid endpoints always give a
    line, so the travel, wall and band checks are also compared past the
    endpoint check, on every perturbation whose ordered block stays
    positive (what the per-line builder assumes)."""
    checked, past = set(), set()
    for rng, q, sup, principal in _linear_cases(6062, 25):
        rel = relabel_for_path(q, list(sup))
        n, npr = rel.n, q.n
        eps = Fraction(rng.randint(1, 4), rng.randint(2, 4 * n + 2))
        coords = list(default_endpoint(n, npr, principal).coords)
        ladder = [Fraction(1)]
        for _ in range(n - 1):
            ladder.insert(0, ladder[0] * Fraction(rng.randint(1, 15), 10) ** rng.randint(1, 3))
        coords[:n] = ladder
        for r in rng.sample(range(len(coords)), rng.randint(0, 2)):
            coords[r] = rng.choice([Fraction(0), -coords[r], coords[0] * eps, coords[n - 1],
                                    coords[r] * Fraction(rng.randint(1, 30), 7)])
        if rng.random() < 0.05:
            coords.pop()
        endpoint = Endpoint(tuple(coords), eps, n, npr)
        unchecked = len(coords) == (2 if principal else 1) * npr and min(coords[:npr]) > 0
        for s in enumerate_variable_gcs(q, list(sup)):
            want = _agree(q, sup, s, endpoint, principal)
            checked.add(want[0] if isinstance(want[0], type) else "line")
            if unchecked:
                want = _outcome(lambda: _ref_construct(rel, s, endpoint, principal, False))
                got = _outcome(lambda: scattering._build(
                    rel, s, scattering._scaled(endpoint), principal))
                assert got == want
                past.add(want[:2] if isinstance(want[0], type) else "line")
    assert {"line", EndpointRejected} <= checked
    kinds = {k if k == "line" else (k[0], k[1].split(" ")[0]) for k in past}
    assert {"line", (PositivityViolation, "travel"), (PositivityViolation, "coordinate"),
            (EndpointRejected, "bend")} <= kinds, kinds


def test_linear_path_of_100_vertices_within_its_stated_time():
    """101 broken lines of up to 100 bends each, every check made; about
    0.55 s on a 2-vCPU Xeon at 2.1 GHz."""
    n = 100
    start = time.perf_counter()
    assert witness_count(path_quiver(n), (1,) * n, "broken-line") == n + 1
    assert time.perf_counter() - start < 2


def test_linear_path_of_400_vertices_within_its_stated_time():
    """401 broken lines of up to 400 bends each, read off one tree of
    markings, every check made; about 0.2 s on a 2-vCPU Xeon at 2.1 GHz."""
    n = 400
    start = time.perf_counter()
    assert witness_count(path_quiver(n), (1,) * n, "broken-line") == n + 1
    assert time.perf_counter() - start < 2


# -- the tree of markings against the lines built one by one -------------------


def _line_view(line):
    return line.s, line.walls, line.moves, line.travels, line_json(line)


def _views(build):
    """The views of the lines built, or the class and message raised."""
    try:
        lines = build()
    except ClusterKitError as exc:
        return type(exc), str(exc)
    return [_line_view(line) for line in lines]


def _random_path(q, rng, size):
    path = [rng.choice(list(q.vertices))]
    while len(path) < size:
        options = sorted(u for u in q.neighbors(path[-1]) if u not in path
                         and not any(w in q.neighbors(u) for w in path[:-1]))
        if not options:
            break
        path.append(rng.choice(options))
    return path


def _perturbed(rng, ep):
    """The path block of an endpoint scaled or flattened coordinate by
    coordinate, one off-path coordinate moved near the first: what the
    per-line builder accepts unchecked, its ordered block positive."""
    n, coords = ep.n, list(ep.coords)
    for k in rng.sample(range(n), rng.randint(1, n)):
        coords[k] = rng.choice([coords[k] * Fraction(rng.randint(1, 40), 8),
                                coords[min(k + 1, n - 1)], coords[max(k - 1, 0)]])
    if ep.nprime > n:
        coords[rng.randrange(n, ep.nprime)] = coords[0] * Fraction(rng.randint(1, 9), 3)
    return Endpoint(tuple(coords), Fraction(rng.randint(1, 3), rng.randint(n, 8 * n)), n,
                    ep.nprime)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32), size=st.integers(1, 7))
def test_tree_lines_equal_the_lines_built_one_by_one(n, seed, size):
    """Plain and principal lines on random type-A quivers and path supports,
    at the default endpoint, at a valid explicit one and at perturbed ones
    that only the per-line builder takes: walls, moves, travels and JSON, or
    the class and message raised, are the reference's."""
    rng = random.Random(seed)
    q = random_type_a_quiver(n, rng)
    support = _random_path(q, rng, size)
    markings = list(enumerate_variable_gcs(q, support))
    for principal in (False, True):
        rel = relabel_for_path(q, support)
        want = _views(lambda: reference.broken_lines(rel, None, principal))
        assert _views(lambda: scattering._lines(rel, None, principal)) == want
        valid = _rational_endpoint(rng, rel.n, q.n, principal, Fraction(1, 3 * rel.n))
        for endpoint in (valid, _perturbed(rng, valid)):
            want = _views(lambda: reference.broken_lines(rel, endpoint, principal))
            assert _views(lambda: broken_lines(q, support, endpoint, principal)) == want
            sc = scattering._scaled(_perturbed(rng, valid))
            want = [_views(lambda: [reference.build_line(rel, s, sc, principal)])
                    for s in markings]
            assert [_views(lambda: [scattering._build(rel, s, sc, principal)])
                    for s in markings] == want


def test_bad_quivers_and_markings_fail_like_the_lines_built_one_by_one():
    """Paths in quivers that are not type A, with markings that are not
    witnesses (entries 2 and -1 too): the same lines, or the same first
    fault in the same order, as the reference: the recursion's checks, then
    every direction of the chain, then its wall steps, then the walk."""
    rng, kinds = random.Random(2929), set()
    for k in range(80):
        n = rng.randint(2, 7)
        arrows = {(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(1, n)}
        for _ in range(rng.randint(0, n) * (k % 2)):
            t, h = rng.sample(range(1, n + 1), 2)
            if (h, t) not in arrows:
                arrows.add((t, h))
        q = Quiver(n, tuple(sorted(arrows)))
        support = _random_path(q, rng, rng.randint(1, n))
        rel = relabel_for_path(q, support)
        values = (0, 1, 2, -1) if k % 5 == 0 else (0, 1)
        for principal in (True, False) if n % 2 == 0 else (True,):
            sc = scattering._request(rel, None, principal)
            markings = list(product(values, repeat=rel.n))
            for s in rng.sample(markings, min(20, len(markings))):
                want = _views(lambda: [reference.build_line(rel, s, sc, principal)])
                assert _views(lambda: [scattering._build(rel, s, sc, principal)]) == want
                kinds.add(want[1].split(" ")[0] if want[0] in (CoordinateOutOfRange,
                                                               PositivityViolation) else "line")
    assert kinds == {"line", "direction", "bend", "no", "wall"}, kinds
    # its second bend lacks the unit pairing, but a direction below it is
    # out of range, and every direction is checked before any step
    q = Quiver(4, ((1, 2), (1, 4), (2, 3), (4, 3)))
    rel = relabel_for_path(q, [3, 4, 1])
    sc = scattering._request(rel, None, True)
    with pytest.raises(CoordinateOutOfRange, match="^direction coordinate 2 at vertex 4$"):
        reference.build_line(rel, (1, 0, 0), sc, True)
    with pytest.raises(CoordinateOutOfRange, match="^direction coordinate 2 at vertex 4$"):
        scattering._build(rel, (1, 0, 0), sc, True)


def _fence(n, rng, switches):
    """The path 1..n, its arrows turning around at `switches` places."""
    turns, arrows, forward = set(rng.sample(range(2, n), switches)), [], True
    for i in range(1, n):
        forward ^= i in turns
        arrows.append((i, i + 1) if forward else (i + 1, i))
    return Quiver(n, tuple(arrows))


def _band_checks(line, sc):
    """Per step of the walk back that meets a wall still ahead, whether the
    first point of that wall's new run lies in its band."""
    out, ell = [], line.ell
    for i in range(ell, 0, -1):
        ahead = [r for r in line.moves[i] if r + 1 in line.walls[:i - 1]]
        if ahead:
            bk, ck = sc.band[ell + 1 - i]
            out.append(all((2 * bk - ck) * sc.ints[r] <= line.points[i - 1][r] * bk
                           <= ck * sc.ints[r] for r in ahead))
    return out


def _ladder_kinds(n, seed):
    """Lines at a ladder endpoint (each path coordinate a fixed ratio of the
    next, unchecked) on a path of n vertices with one or two turns, against
    the reference; returns where the failing band checks fail: at the first
    change point the walk checks, or only past it."""
    rng = random.Random(seed)
    q = _fence(n, rng, rng.randint(1, 2))
    rel, principal = relabel_for_path(q, list(range(1, n + 1))), n % 2 == 1
    ratio = Fraction(rng.randint(1, 6), rng.randint(7, 12))
    coords = [ratio ** (n - k) for k in range(1, n + 1)] + [Fraction(1)] * (n * principal)
    sc = scattering._scaled(Endpoint(tuple(coords), Fraction(1, rng.randint(n, 6 * n)), n, n))
    markings = list(enumerate_variable_gcs(q, list(range(1, n + 1))))
    kinds = set()
    for s in rng.sample(markings, min(len(markings), 40)):
        want = _views(lambda: [reference.build_line(rel, s, sc, principal)])
        assert _views(lambda: [scattering._build(rel, s, sc, principal)]) == want
        if want[0] is PositivityViolation and want[1].startswith("coordinate"):
            checks = _band_checks(reference.build_line(rel, s, sc, principal, False), sc)
            kinds.add("late" if checks.index(False) else "first")
    return kinds


@settings(max_examples=8, derandomize=True, deadline=None)
@given(n=st.integers(20, 24), seed=st.integers(0, 2 ** 32))
def test_ladder_endpoints_fail_like_the_lines_built_one_by_one(n, seed):
    _ladder_kinds(n, seed)


def test_ladders_fail_past_the_first_change_point():
    """Seeded ladders reach band failures that the first change point the
    walk checks does not show, and the rescan names the same first failing
    point as the reference."""
    kinds = set().union(*(_ladder_kinds(20 + seed % 5, seed) for seed in range(6)))
    assert kinds == {"first", "late"}


def test_validate_endpoint_equals_the_reference():
    rng = random.Random(6063)
    for _ in range(300):
        n = rng.randint(1, 6)
        npr = n + rng.randint(0, 4)
        eps = Fraction(rng.randint(-2, 5), rng.randint(1, 12))
        coords = [Fraction(rng.randint(-1, 40), rng.randint(1, 40)) ** rng.randint(1, 3)
                  for _ in range(rng.choice((npr, 2 * npr, npr + 1)))]
        endpoint = Endpoint(tuple(coords), eps, n, npr)
        assert _outcome(lambda: validate_endpoint(endpoint)) == \
            _outcome(lambda: _ref_validate(endpoint))
