"""Seed mutation oracle and exhaustive cluster-variable enumeration.

The exchange relation replaces one cluster entry by (product over incoming
arrows + product over outgoing arrows) / old entry.  A one-term divisor is
divided in one pass, any other by leading-term elimination; the quotient is
certified exact by multiplying back, and a failure raises InexactDivision
and indicates a bug, never bad input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    ExplosionGuard,
    FrozenVertex,
    InexactDivision,
    InvalidInput,
    NotAClusterVariableDVector,
    NotHomogeneous,
    NotInW,
)
from .geometry import require_in_w, support_of
from .laurent import LaurentPoly, mono_degree, mono_mul, poly_product
from .quiver import Quiver, mutate, path_order, require_path, require_type_a


def _term_order_key(m, support):
    d = dict(m)
    return (mono_degree(m), tuple(d.get(v, 0) for v in support))


def _eliminate(p: LaurentPoly, d: LaurentPoly) -> dict:
    """Quotient terms of p by d from iterated leading-term elimination under
    the graded order."""
    support = sorted(set(p.support()) | set(d.support()))
    key = lambda m: _term_order_key(m, support)
    lead_d = max(d.terms, key=key)
    coeff_d = d.terms[lead_d]
    inv_lead_d = tuple((v, -e) for v, e in lead_d)
    quotient: dict = {}
    remainder = dict(p.terms)
    cap = 16 * (len(p.terms) + len(d.terms) + 4)
    while remainder:
        cap -= 1
        if cap < 0:
            raise InexactDivision("leading-term elimination did not terminate")
        lead_r = max(remainder, key=key)
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
                remainder[mm] = nc
            elif mm in remainder:
                del remainder[mm]
    return quotient


def exact_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Certified exact division in the Laurent ring: by a one-term divisor
    c*m in one pass (every coefficient divided by c, every monomial times
    1/m), by a longer one through leading-term elimination.  The quotient is
    multiplied back and compared with the numerator."""
    if d.is_zero():
        raise InexactDivision("division by zero")
    if p.is_zero():
        return LaurentPoly.zero()
    if len(d.terms) == 1:
        ((m_d, c_d),) = d.terms.items()
        if any(c % c_d for c in p.terms.values()):
            raise InexactDivision("coefficient not divisible by the monomial divisor")
        inv = tuple((v, -e) for v, e in m_d)
        q = LaurentPoly({mono_mul(m, inv): c // c_d for m, c in p.terms.items()})
    else:
        q = LaurentPoly(_eliminate(p, d))
    if q * d != p:
        raise InexactDivision("quotient verification failed")
    return q


@dataclass(frozen=True)
class Seed:
    """A quiver together with one Laurent polynomial per vertex.  Frozen
    positions hold coefficient variables that never change."""

    quiver: Quiver
    cluster: tuple[LaurentPoly, ...]

    def entry(self, v: int) -> LaurentPoly:
        return self.cluster[v - 1]


def initial_seed(q: Quiver) -> Seed:
    return Seed(q, tuple(LaurentPoly.variable(i) for i in q.vertices))


def mutate_seed(s: Seed, v: int) -> Seed:
    if v in s.quiver.frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {v}")
    inc = poly_product(s.entry(t) for t in s.quiver.arrows_in(v))
    out = poly_product(s.entry(h) for h in s.quiver.arrows_out(v))
    new_entry = exact_divide(inc + out, s.entry(v))
    cluster = list(s.cluster)
    cluster[v - 1] = new_entry
    return Seed(mutate(s.quiver, v), tuple(cluster))


def mutate_seed_sequence(s: Seed, vertices) -> Seed:
    for v in vertices:
        s = mutate_seed(s, v)
    return s


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


def enumerate_seeds(q: Quiver, max_seeds: int = 100_000):
    """Breadth-first walk of the exchange graph with permutation-insensitive
    seed deduplication.  Deterministic order; raises ExplosionGuard past the
    bound (a sign the input is not of finite type)."""
    if max_seeds < 1:
        raise InvalidInput(f"max_seeds must be at least 1, got {max_seeds}")
    start = initial_seed(q)
    visited = {_seed_key(start)}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        yield s
        for v in s.quiver.unfrozen:
            s2 = mutate_seed(s, v)
            k = _seed_key(s2)
            if k not in visited:
                if len(visited) >= max_seeds:
                    raise ExplosionGuard(
                        f"more than {max_seeds} seeds; input looks infinite-type")
                visited.add(k)
                queue.append(s2)


def enumerate_cluster_variables(
    q: Quiver, max_seeds: int = 100_000
) -> dict[tuple[int, ...], LaurentPoly]:
    """Every cluster variable keyed by its denominator vector (in the
    unfrozen initial variables; initial variables get minus a unit vector)."""
    unfrozen = q.unfrozen
    out: dict[tuple[int, ...], LaurentPoly] = {}
    for s in enumerate_seeds(q, max_seeds):
        for v in s.quiver.unfrozen:
            poly = s.entry(v)
            key = tuple(-poly.min_exponent(u) for u in unfrozen)
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
    a = require_in_w(q, a)
    if any(x < 0 for x in a):
        raise NotInW(f"mutation sequences need a nonnegative vector, got {a}")
    order = path_order(q, support_of(a)) if set(a) <= {0, 1} else None
    if order is None:
        raise NotAClusterVariableDVector(f"{a} decomposes into several variables")
    return order


def _walk_to_variable(start: Quiver, q: Quiver, a: tuple) -> LaurentPoly:
    """The initial variable for minus a unit vector; otherwise the entry left
    at the last vertex by mutating, from the start quiver (q or its principal
    extension), along the variable's mutation sequence in q.  Either way q
    must be type A (and so connected) first.

    The walk runs on the full subquiver of the start quiver spanned by the
    path and its neighbours, relabelled 1..k in vertex order, with the
    initial variables under their own labels.  That is exact: a flip at v
    changes arrows only among v and its neighbours, so by induction no path
    vertex ever gains a neighbour outside that set, and every exchange reads
    only entries inside it."""
    require_type_a(q)
    if len(a) == q.n and a.count(-1) == 1 and a.count(0) == q.n - 1:
        return LaurentPoly.variable(a.index(-1) + 1)
    if any(x not in (0, 1) for x in a):
        raise NotAClusterVariableDVector(f"{a} is not a variable denominator vector")
    seq = variable_mutation_sequence(q, a)
    frozen = [v for v in seq if v in start.frozen]
    if frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {frozen[0]}")
    outs, _, nbr = start._adjacency
    local = sorted(set(seq).union(*(nbr[v] for v in seq)))
    pos = {v: k for k, v in enumerate(local, 1)}
    arrows = tuple((pos[t], pos[h]) for t in local for h in outs[t] if h in pos)
    seed = Seed(Quiver(len(local), arrows), tuple(LaurentPoly.variable(v) for v in local))
    return mutate_seed_sequence(seed, [pos[v] for v in seq]).entry(pos[seq[-1]])


def cluster_variable(q: Quiver, a) -> LaurentPoly:
    """The cluster variable with denominator vector a: an initial variable
    for minus a unit vector, otherwise computed by a targeted mutation
    sequence along the realizing arc."""
    a = tuple(a)
    poly = _walk_to_variable(q, q, a)
    # past the walk, a is minus a unit vector exactly when it holds a -1; the
    # d-vector is 0 off the support of poly, and a is 0-1 there
    d = {v: -poly.min_exponent(v) for v in poly.support()}
    if -1 not in a and (any(a[v - 1] != x for v, x in d.items()) or sum(a) != sum(d.values())):
        raise NotAClusterVariableDVector(f"mutation walk missed the target {a}")
    return poly


def principal_lift(q: Quiver, a) -> LaurentPoly:
    """The corresponding cluster variable with principal coefficients (over
    2n variables; setting the top n to 1 recovers the plain variable)."""
    a = tuple(a)
    poly = _walk_to_variable(q._principal, q, a)
    check = poly.substitute_one([v for v in poly.support() if v > q.n])
    if check != cluster_variable(q, a):
        raise NotAClusterVariableDVector("principal lift does not specialize correctly")
    return poly


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
