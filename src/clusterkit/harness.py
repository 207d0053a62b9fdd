"""Model dispatch: the model table and the three requests on it.

Every expansion request is normalized the same way: split off negative
entries as initial-variable factors, decompose the rest into per-variable
0-1 vectors where the model needs it, and run the model on each distinct
part.  The differential cross-check (`crosscheck`, `report_table`, random
type-A quivers and their records) lives in `differential`; its names are
read here too, and load that module on first access.
"""

from __future__ import annotations

from collections.abc import Callable
from importlib import import_module

from . import MODELS, geometry
from .errors import FrozenVertex, InvalidInput
from .laurent import LaurentPoly, affine_sum
from .quiver import Quiver, three_cycle_completion

TYPE_CHECKING = False  # as typing's; importing typing costs a cold command
if TYPE_CHECKING:  # the model modules load on first use, see `_model`
    from . import completion, engine, formulas, linear_gcc, scattering, snake, variable_gcs

# the names of `differential` that are read here as well
_DIFFERENTIAL = frozenset((
    "random_triangulation", "random_type_a_quiver", "RowResult", "CrossCheckReport",
    "crosscheck", "report_table", "_random_diagonals", "_scope_dvectors",
    "_first_difference", "_check_row"))


def __getattr__(name: str):
    """A name of `differential`, which loads on the first such access."""
    if name not in _DIFFERENTIAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import differential
    return getattr(differential, name)


# -- the model table -------------------------------------------------------------


class _Model:
    """How one model turns a nonnegative d-vector into a value, a count and
    witnesses.

    A per-variable model runs once on each distinct factor of `decompose`
    and the factors multiply, a repeated one as a power; the others run once
    on the whole vector.  `prepare(q, x, support)` makes the model's input
    (a factor's support comes in path order, computed once), `value` its
    Laurent polynomial in the ambient variables, `count` its witness count
    (mutation's is the coefficient sum of its value), `witnesses` lists
    them and `dump` is one witness's JSON.  Every enumerating model but
    broken-line sums its value from a tally of per-witness counts over fixed
    deltas, and only listings build witnesses; broken-line builds its lines
    and tallies their final monomials.  All call unchecked cores: a request is
    checked once, in `_request`.  They find their code in `modules`, which
    `_model` imports on first use."""

    def __init__(self, modules: tuple[str, ...], per_variable: bool, prepare: Callable,
                 value: Callable, count: Callable, witnesses: Callable | None = None,
                 dump: Callable | None = None):
        self.modules, self.per_variable, self.prepare = modules, per_variable, prepare
        self.value, self.count, self.witnesses, self.dump = value, count, witnesses, dump


def _completed(q: Quiver, plus, support):
    """The 3-cycle completion, the vector padded with zeros on the added
    vertices, its support, its overlaps (once, for witnesses and terms), the
    part of every term fixed by the two (`formulas.term_base`) and the added
    vertices a term can hold (set to one in the value)."""
    q2 = three_cycle_completion(q)[0]
    a = plus + (0,) * (q2.n - q.n)
    ov = formulas._overlaps(q2, a, support)
    base = formulas._term_base(q2, a, support, ov)
    return q2, a, support, ov, base, [v for v in base if v > q.n]


# linear-gcc, matching and tpath: one prepare, so a crosscheck row builds it once
_neighbourhood = lambda q, b, order: completion._complete(q, order)


_TABLE = {
    "mutation": _Model(("engine",), True, lambda q, b, order: (q, b, order),
                       value=lambda ctx: engine._cluster_variable(*ctx),
                       count=lambda ctx: engine._cluster_variable(*ctx).coefficient_sum()),
    # gcs and gcc sum their terms from the solver's bits; witnesses are listings
    "gcs": _Model(
        ("formulas",), False, _completed, witnesses=lambda ctx: formulas._gcs(*ctx[:4]),
        count=lambda ctx: formulas._count(*formulas._gcs_system(*ctx[:4])),
        value=lambda ctx: affine_sum(*formulas._gcs_terms(*ctx[:5]), drop=ctx[5]),
        dump=lambda ctx, s: [list(bits) for bits in s]),
    "gcc": _Model(
        ("formulas",), False, _completed, witnesses=lambda ctx: formulas._gcc(*ctx[:4]),
        count=lambda ctx: formulas._count(*formulas._gcc_system(*ctx[:4])),
        value=lambda ctx: affine_sum(*formulas._gcc_terms(*ctx[:5]), drop=ctx[5]),
        dump=lambda ctx, g: [{"arrow": list(arrow), "S1": sorted(s1), "S2": sorted(s2)}
                             for (arrow, s1, s2) in g.chosen]),
    "linear-gcc": _Model(
        ("linear_gcc", "completion"), True, _neighbourhood,
        witnesses=lambda comp: linear_gcc.enumerate_linear_gcc(comp.celq),
        count=lambda comp: linear_gcc._linear_gcc_count(comp.celq),
        value=lambda comp: affine_sum(*linear_gcc._linear_gcc_terms(comp)),
        dump=lambda comp, w: {"pairs": [list(p) for p in w.pairs], "end_bit": w.end_bit}),
    "gcs-variable": _Model(
        ("variable_gcs",), True, lambda q, b, order: (q, order),
        witnesses=lambda ctx: variable_gcs._variable_gcs(*ctx),
        count=lambda ctx: variable_gcs._count(*variable_gcs._variable_gcs_system(*ctx)),
        value=lambda ctx: affine_sum(*variable_gcs._variable_gcs_terms(*ctx)),
        dump=lambda ctx, s: list(s)),
    "matching": _Model(
        ("snake", "completion"), True, _neighbourhood,
        witnesses=lambda comp: snake.enumerate_matchings(snake.build_snake(comp.celq)),
        count=lambda comp: snake._matching_count(comp),
        value=lambda comp: affine_sum(*snake._matching_terms(comp)),
        dump=lambda comp, gamma: [list(l) if isinstance(l, tuple) else l for l in gamma]),
    "tpath": _Model(
        ("snake", "completion"), True, _neighbourhood,
        witnesses=lambda comp: snake.triangulation_tpaths(
            snake.triangulation_of(comp.celq), comp.celq),
        count=lambda comp: snake._tpath_count(comp),
        value=lambda comp: affine_sum(*snake._tpath_terms(comp)),
        dump=lambda comp, p: list(p.labels)),
    # the input is the relabelling of the factor's path, in `decompose`'s
    # order, to 1..n: the lines are drawn in the relabelled coordinates and
    # their sum renamed back
    "broken-line": _Model(
        ("scattering",), True, lambda q, b, order: scattering._relabel(q, order),
        witnesses=lambda rel: scattering._lines(rel),
        count=lambda rel: len(scattering._lines(rel)),
        value=lambda rel: scattering._theta(rel, scattering._lines(rel)),
        dump=lambda rel, line: scattering.line_json(line)),
}


def _model(q: Quiver, name: str) -> _Model:
    """The table entry that runs `name` on q; gcc on a one-vertex quiver runs
    as linear-gcc, because collections need two vertices.  The first use of
    an entry binds its modules here, where the entry's functions look them
    up at each call; later uses find them bound."""
    if name not in _TABLE:
        raise InvalidInput(f"unknown model {name!r}; choose from {MODELS}")
    spec = _TABLE["linear-gcc" if name == "gcc" and q.n == 1 else name]
    for module in spec.modules:
        if module not in globals():
            globals()[module] = import_module(f"{__package__}.{module}")
    return spec


def _request(q: Quiver, a, in_w: bool = False):
    """The one check of a request or crosscheck row, `geometry._positive_part`
    then the refusal (as mutation would) of a positive entry on a frozen
    vertex, before any model runs.  Returns the support, the negative entries
    and `parts(model)`: the distinct parts the model runs on (the whole
    vector, or the factors of `decompose`, decomposed once) with the factor,
    the model's input, prepared once per request and support, and the
    multiplicity, in `decompose` order."""
    plus, support, neg = geometry._positive_part(q, a, in_w)
    frozen = q.frozen and [v for v in sorted(q.frozen) if plus[v - 1]]
    if frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {frozen[0]}")
    factors, prepared = [], {}

    def parts(model: _Model):
        if model.per_variable and not factors:  # equal factors are adjacent
            for x, order in geometry._decompose(q, plus, support):
                if factors and factors[-1][0] == x:
                    factors[-1][2] += 1
                else:
                    factors.append([x, order, 1])
        for x, sup, k in factors if model.per_variable else [(plus, support, 1)]:
            if (key := (model.prepare, tuple(sup))) not in prepared:
                prepared[key] = model.prepare(q, x, sup)
            yield x, prepared[key], k
    return support, neg, parts


def _run(model: _Model, parts, want_value: bool) -> tuple[LaurentPoly | None, int]:
    """Value (None unless wanted) and witness count of one model on a checked
    nonzero request, from one tally or count per distinct part: a repeated
    part's value and count are raised to its multiplicity.  A value's count
    is its coefficient sum; a count alone never computes a value."""
    value, count = None, 1
    for _, ctx, k in parts(model):
        if want_value:
            part = model.value(ctx)
            c = part.coefficient_sum()
            part = part if k == 1 else part ** k
            value = part if value is None else value * part
        else:
            c = model.count(ctx)
        count *= c ** k
    return value, count


def expand_model(q: Quiver, a, model: str) -> LaurentPoly:
    """Cluster monomial with d-vector a, computed by the chosen model."""
    spec = _model(q, model)
    support, neg, parts = _request(q, a, in_w=True)
    if not support:
        return LaurentPoly.monomial(neg)
    value = _run(spec, parts, True)[0]
    return value * LaurentPoly.monomial(neg) if neg else value


def witness_count(q: Quiver, a, model: str) -> int:
    """Number of combinatorial witnesses behind the model's expansion (the
    mutation oracle reports its coefficient sum, which must agree)."""
    spec = _model(q, model)
    support, _, parts = _request(q, a)
    return _run(spec, parts, False)[1] if support else 1


def list_witnesses(q: Quiver, a, model: str) -> list:
    """JSON-ready witness dump for one (quiver, d-vector, model) triple; a
    repeated factor is listed once per copy."""
    spec = _model(q, model)
    if spec.dump is None:
        raise InvalidInput(f"model {model!r} has no witness listing")
    _, _, parts = _request(q, a)
    out = []
    for x, ctx, k in parts(spec):
        witnesses = [spec.dump(ctx, w) for w in spec.witnesses(ctx)]
        if not spec.per_variable:
            return witnesses
        out += [{"factor": list(x), "witnesses": witnesses} for _ in range(k)]
    return out


