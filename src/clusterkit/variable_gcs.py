"""Per-variable sequences: the gcs formula of one cluster variable.

A witness is a 0-1 marking of the path vertices in path order with no arrow
inside the path from a marked to an unmarked vertex; its monomial reads
only the arrows with an end on the path.  The gcs-variable model loads this
module and runs the binary solver of `solver` on one implication per path
edge.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .laurent import LaurentPoly, mono, unpack
from .quiver import Quiver, require_path
# harness counts the markings by this module's `_count`
from .solver import _closed_masks, _count, _enumerate_closed_assignments


def _variable_gcs_system(qtilde: Quiver, order):
    """The solver input for the markings of a path given in path order: the
    bit count (one bit per path vertex, in path order) and the implications,
    one per path edge, from its tail's bit to its head's."""
    imps = [(i, i + 1) if qtilde.has_arrow(a, b) else (i + 1, i)
            for i, (a, b) in enumerate(zip(order, order[1:]))]
    return len(order), imps


def _variable_gcs(qtilde: Quiver, order):
    """The markings of a path given in path order (`enumerate_variable_gcs`)."""
    return _enumerate_closed_assignments(*_variable_gcs_system(qtilde, order))


def enumerate_variable_gcs(qtilde: Quiver, linear_vertices):
    """0-1 markings of the path vertices with no arrow inside the path going
    from a marked to an unmarked vertex; bits are listed in path order."""
    yield from _variable_gcs(qtilde, require_path(qtilde, linear_vertices))


def _variable_gcs_terms(qtilde: Quiver, order):
    """The sum of `variable_gcs_monomial` over the markings of a path given
    in path order, as `laurent.affine_sum` input: base is 1 on the tail of
    every arrow into the path and -1 on the path and its K set, and a marked
    vertex adds 1 on the heads of its arrows out and -1 on the tails of its
    arrows in.  A marking is tallied by its mask from the solver: one bit
    per field."""
    nbits, imps = _variable_gcs_system(qtilde, order)
    outs, ins = qtilde._adjacency
    base = Counter(t for v in order for t in ins[v])
    base.subtract(set(order) | variable_gcs_k_set(qtilde, order))
    deltas = []
    for v in order:
        e = Counter(outs[v])
        e.subtract(ins[v])
        deltas.append(mono(e))
    return base, deltas, unpack(Counter(_closed_masks(nbits, imps)), 1, nbits)


def variable_gcs_k_set(qtilde: Quiver, linear_vertices) -> set[int]:
    """Off-path vertices receiving exactly one arrow from the path and
    sending exactly one back (the two path neighbors of a glued triangle)."""
    vs = set(linear_vertices)
    out = set()
    for k in set().union(*(qtilde.neighbors(v) for v in vs)) - vs:
        deg_in = sum(1 for t in qtilde.arrows_in(k) if t in vs)
        deg_out = sum(1 for h in qtilde.arrows_out(k) if h in vs)
        if deg_in == 1 and deg_out == 1:
            out.add(k)
    return out


def variable_gcs_monomial(qtilde: Quiver, linear_vertices, s) -> LaurentPoly:
    """The Laurent monomial attached to one marking: every arrow i -> j adds
    the marking of i (0 off the path) to x_j and one minus the marking of j
    (0 off the path) to x_i, so only arrows with an end on the path count."""
    order = require_path(qtilde, linear_vertices)
    bit = {v: s[i] for i, v in enumerate(order)}
    expo: dict[int, int] = defaultdict(int)
    for i in order:
        for j in qtilde.arrows_out(i):
            expo[j] += bit[i]
            expo[i] += 1 - bit[j] if j in bit else 0
        for t in qtilde.arrows_in(i):
            if t not in bit:  # an arrow inside the path was counted from its tail
                expo[t] += 1 - bit[i]
    for r in bit.keys() | variable_gcs_k_set(qtilde, order):
        expo[r] -= 1
    return LaurentPoly.monomial(expo)
