"""Reference helpers that only the tests use.

No command and no model needs these, so they live next to the tests that
pin them: exchange matrices, mutation sequences, g-vectors by multidegree,
endpoint and travel-bound checks, marking directions and d-vectors of
diagonals, sums of per-witness terms and their renaming to the ambient
labels, each built on the program's own primitives.
"""

from __future__ import annotations

from itertools import combinations
import json
from math import lcm

from clusterkit import scattering
from clusterkit.engine import Seed, mutate_seed
from clusterkit.errors import CrossingDiagonals, NotHomogeneous
from clusterkit.geometry import PipelineSet, Triangulation
from clusterkit.laurent import LaurentPoly, to_json_dict
from clusterkit.quiver import CompletionResult, Quiver, _signed_rows, mutate


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
