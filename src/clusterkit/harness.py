"""Model dispatch and the differential cross-check harness.

Every expansion request is normalized the same way: split off negative
entries as initial-variable factors, decompose the rest into per-variable
0-1 vectors where the model needs it, and compare everything as exact
Laurent polynomials.  Random inputs are sampled as uniform triangulations of
a polygon, which yields type-A quivers by construction.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from importlib import import_module
from itertools import product
import time

from . import MODELS, geometry
from .errors import FrozenVertex, InvalidInput
from .laurent import (
    LaurentPoly,
    affine_sum,
    canonical_string,
    rational_string,
    sorted_terms,
)
from .quiver import Quiver, _complete, linear_full_subquivers, three_cycle_completion

TYPE_CHECKING = False  # as typing's; importing typing costs a cold command
if TYPE_CHECKING:  # the model modules load on first use, see `_model`
    import random

    from . import engine, formulas, scattering, snake

# -- random type-A quivers ------------------------------------------------------


def _random_diagonals(m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniformly triangulate the m-gon: the region cut off by a chord (i, j)
    takes apex z with weight C(z-i-1)·C(j-z-1) (Catalan numbers), and the
    two sub-regions are drawn depth-first, (i, z) before (z, j)."""
    catalan = [1]
    for k in range(m):
        catalan.append(catalan[-1] * 2 * (2 * k + 1) // (k + 2))
    diags: list[tuple[int, int]] = []
    stack = [(0, m - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        weights = [catalan[z - i - 1] * catalan[j - z - 1] for z in range(i + 1, j)]
        pick = rng.randrange(sum(weights))
        z = i + 1
        for w in weights:
            if pick < w:
                break
            pick -= w
            z += 1
        if z - i >= 2:
            diags.append((i, z))
        if j - z >= 2:
            diags.append((z, j))
        stack += [(z, j), (i, z)]
    return diags


def random_triangulation(n: int, rng: random.Random) -> geometry.Triangulation:
    """Uniformly random triangulation of the (n+3)-gon; diagonals labeled in
    sorted corner-pair order."""
    m = n + 3
    diags = sorted(_random_diagonals(m, rng))
    edges = {i + 1: d for i, d in enumerate(diags)}
    label = n
    for k in range(m - 1):
        label += 1
        edges[label] = (k, k + 1)
    edges[label + 1] = (0, m - 1)
    return geometry.Triangulation(m, n, edges)


def random_type_a_quiver(n: int, rng: random.Random) -> Quiver:
    return geometry.quiver_of(random_triangulation(n, rng))


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
    checked once, in `_request`.  They find their code in `module`, which
    `_model` imports on first use."""

    def __init__(self, module: str, per_variable: bool, prepare: Callable, value: Callable,
                 count: Callable, witnesses: Callable | None = None,
                 dump: Callable | None = None):
        self.module, self.per_variable, self.prepare = module, per_variable, prepare
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
_neighbourhood = lambda q, b, order: _complete(q, order)


_TABLE = {
    "mutation": _Model("engine", True, lambda q, b, order: (q, b, order),
                       value=lambda ctx: engine._cluster_variable(*ctx),
                       count=lambda ctx: engine._cluster_variable(*ctx).coefficient_sum()),
    # gcs and gcc sum their terms from the solver's bits; witnesses are listings
    "gcs": _Model(
        "formulas", False, _completed, witnesses=lambda ctx: formulas._gcs(*ctx[:4]),
        count=lambda ctx: formulas._count(*formulas._gcs_system(*ctx[:4])),
        value=lambda ctx: affine_sum(*formulas._gcs_terms(*ctx[:5]), drop=ctx[5]),
        dump=lambda ctx, s: [list(bits) for bits in s]),
    "gcc": _Model(
        "formulas", False, _completed, witnesses=lambda ctx: formulas._gcc(*ctx[:4]),
        count=lambda ctx: formulas._count(*formulas._gcc_system(*ctx[:4])),
        value=lambda ctx: affine_sum(*formulas._gcc_terms(*ctx[:5]), drop=ctx[5]),
        dump=lambda ctx, g: [{"arrow": list(arrow), "S1": sorted(s1), "S2": sorted(s2)}
                             for (arrow, s1, s2) in g.chosen]),
    "linear-gcc": _Model(
        "formulas", True, _neighbourhood,
        witnesses=lambda comp: formulas.enumerate_linear_gcc(comp.celq),
        count=lambda comp: formulas._linear_gcc_count(comp.celq),
        value=lambda comp: affine_sum(*formulas._linear_gcc_terms(comp)),
        dump=lambda comp, w: {"pairs": [list(p) for p in w.pairs], "end_bit": w.end_bit}),
    "gcs-variable": _Model(
        "formulas", True, lambda q, b, order: (q, order),
        witnesses=lambda ctx: formulas._variable_gcs(*ctx),
        count=lambda ctx: formulas._count(*formulas._variable_gcs_system(*ctx)),
        value=lambda ctx: affine_sum(*formulas._variable_gcs_terms(*ctx)),
        dump=lambda ctx, s: list(s)),
    "matching": _Model(
        "snake", True, _neighbourhood,
        witnesses=lambda comp: snake.enumerate_matchings(snake.build_snake(comp.celq)),
        count=lambda comp: snake._matching_count(comp),
        value=lambda comp: affine_sum(*snake._matching_terms(comp)),
        dump=lambda comp, gamma: [list(l) if isinstance(l, tuple) else l for l in gamma]),
    "tpath": _Model(
        "snake", True, _neighbourhood,
        witnesses=lambda comp: snake.triangulation_tpaths(
            geometry.triangulation_of(comp.celq), comp.celq),
        count=lambda comp: snake._tpath_count(comp),
        value=lambda comp: affine_sum(*snake._tpath_terms(comp)),
        dump=lambda comp, p: list(p.labels)),
    # the input is the relabelling of the factor's path, in `decompose`'s
    # order, to 1..n: the lines are drawn in the relabelled coordinates and
    # their sum renamed back
    "broken-line": _Model(
        "scattering", True, lambda q, b, order: scattering._relabel(q, order),
        witnesses=lambda rel: scattering._lines(rel),
        count=lambda rel: len(scattering._lines(rel)),
        value=lambda rel: scattering._theta(rel, scattering._lines(rel)),
        dump=lambda rel, line: scattering.line_json(line)),
}


def _model(q: Quiver, name: str) -> _Model:
    """The table entry that runs `name` on q; gcc on a one-vertex quiver runs
    as linear-gcc, because collections need two vertices.  The first use of
    an entry binds its module here, where the entry's functions look it up at
    each call; later uses find it bound."""
    if name not in _TABLE:
        raise InvalidInput(f"unknown model {name!r}; choose from {MODELS}")
    spec = _TABLE["linear-gcc" if name == "gcc" and q.n == 1 else name]
    if spec.module not in globals():
        globals()[spec.module] = import_module(f"{__package__}.{spec.module}")
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


# -- cross-checking ------------------------------------------------------------------


class RowResult:
    def __init__(self, dvector: tuple[int, ...], counts: dict[str, int], value: str,
                 verdict: str, timings: dict[str, float] | None = None,
                 dissent: list[dict] | None = None):
        self.dvector = dvector
        self.counts = counts
        self.value = value
        self.verdict = verdict
        self.timings = {} if timings is None else timings
        # FAIL rows: each model whose value or count differs from the majority
        self.dissent = [] if dissent is None else dissent


class CrossCheckReport:
    def __init__(self, quiver: Quiver, models: tuple[str, ...], rows: list[RowResult]):
        self.quiver, self.models, self.rows = quiver, models, rows

    @property
    def passed(self) -> bool:
        return all(r.verdict == "PASS" for r in self.rows)

    def render_text(self, timings: bool = False) -> str:
        lines = [f"crosscheck on quiver with {self.quiver.n} vertices, "
                 f"models: {', '.join(self.models)}"]
        for r in self.rows:
            counts = " ".join(f"{m}={r.counts[m]}" for m in self.models)
            lines.append(f"{r.verdict}  d={','.join(map(str, r.dvector))}  "
                         f"[{counts}]  {r.value}")
            if r.verdict == "FAIL":  # "none": all agree, a coefficient is not positive
                lines.append("      dissent: " + ("; ".join(", ".join(
                    f"{k}={v}" for k, v in d.items()) for d in r.dissent) or "none"))
            if timings and r.timings:
                lines.append("      " + " ".join(
                    f"{m}:{r.timings[m] * 1000:.1f}ms" for m in self.models))
        lines.append("RESULT " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """JSON-ready report; rows carry per-model timings in ms only when
        the report was built with timings, and FAIL rows their dissent."""
        rows = []
        for r in self.rows:
            row = {"dvector": list(r.dvector), "counts": r.counts,
                   "value": r.value, "verdict": r.verdict}
            if r.verdict == "FAIL":
                row["dissent"] = r.dissent
            if r.timings:
                row["timings"] = {m: round(r.timings[m] * 1000, 3) for m in self.models}
            rows.append(row)
        return {"models": list(self.models), "passed": self.passed, "rows": rows}


def _scope_dvectors(q: Quiver, box: int) -> list[tuple[int, ...]]:
    """The cluster variables and, with a box, the box monomials with an entry
    above 1; supports through a frozen vertex index no cluster variable."""
    scope = sorted({tuple(int(v in support) for v in q.vertices)
                    for support in linear_full_subquivers(q)
                    if q.frozen.isdisjoint(support)}, key=lambda b: (sum(b), b))
    if box > 0:
        scope += [a for a in product(range(box + 1), repeat=q.n)
                  if any(x > 1 for x in a) and not any(a[v - 1] for v in q.frozen)
                  and geometry.satisfies_property_a(q, a)]
    return scope


def _first_difference(got: LaurentPoly, want: LaurentPoly) -> tuple[str | None, str | None]:
    """Each value's term at the first monomial, in canonical order, whose
    coefficients differ (None where a value has no such term)."""
    m, _ = sorted_terms(got - want)[0]
    term = lambda p: canonical_string(LaurentPoly({m: p.terms[m]})) if m in p.terms else None
    return term(got), term(want)


def _check_row(q: Quiver, a, models, with_timings: bool) -> RowResult:
    """One crosscheck row: one check and one decomposition of a, and one
    prepared input per support and way of preparing, for all the models."""
    values, counts, timings = {}, {}, {}
    support, neg, parts = _request(q, a, in_w=True)
    init = LaurentPoly.monomial(neg)
    for m in models:
        t0 = time.perf_counter()
        value, counts[m] = _run(_model(q, m), parts, True) if support else (LaurentPoly.one(), 1)
        values[m] = value * init if neg else value
        if with_timings:
            timings[m] = time.perf_counter() - t0
    forms = {}
    for m, v in values.items():  # one rendering per distinct value
        forms[m] = next((forms[k] for k in forms if values[k] == v), None) or canonical_string(v)
    # the majority value and count; a tie goes to the model listed first
    form = Counter(forms.values()).most_common(1)[0][0]
    count = Counter(counts.values()).most_common(1)[0][0]
    majority = next(values[m] for m in forms if forms[m] == form)
    dissent = []
    for m in forms:
        if forms[m] != form or counts[m] != count:
            entry = {"model": m, "count": counts[m], "majority_count": count}
            if forms[m] != form:
                entry["term"], entry["majority_term"] = _first_difference(values[m], majority)
            dissent.append(entry)
    positive = all(c > 0 for v in values.values() for c in v.terms.values())
    verdict = "PASS" if positive and not dissent else "FAIL"
    return RowResult(tuple(a), counts, form, verdict, timings, dissent)


def crosscheck(q: Quiver, models=None, box: int = 0,
               with_timings: bool = False) -> CrossCheckReport:
    """Run the selected models on every d-vector in scope and compare their
    canonical forms and witness counts."""
    models = tuple(models) if models else MODELS
    for m in models:
        if m not in MODELS:
            raise InvalidInput(f"unknown model {m!r}")
    if len(set(models)) != len(models):
        raise InvalidInput(f"models listed twice: {', '.join(models)}")
    if box < 0:
        raise InvalidInput(f"box must be nonnegative, got {box}")
    rows = [_check_row(q, a, models, with_timings) for a in _scope_dvectors(q, box)]
    return CrossCheckReport(q, models, rows)


def report_table(q: Quiver) -> str:
    """Markdown table of every cluster-variable d-vector and its expansion."""
    rows = ["| d-vector | cluster variable |", "| --- | --- |"]
    for a in _scope_dvectors(q, 0):
        value = expand_model(q, a, "mutation")
        rows.append(f"| ({','.join(map(str, a))}) | {rational_string(value)} |")
    return "\n".join(rows) + "\n"
