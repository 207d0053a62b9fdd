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
from dataclasses import dataclass, field
from itertools import product
import random
import time

from . import engine, formulas, geometry, scattering, snake
from .errors import FrozenVertex, InvalidInput
from .laurent import (
    LaurentPoly,
    canonical_string,
    poly_sum,
    rational_string,
    sorted_terms,
)
from .quiver import (
    Quiver,
    complete_extension,
    linear_full_subquivers,
    three_cycle_completion,
)

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


@dataclass(frozen=True)
class _Model:
    """How one model turns a nonnegative d-vector into witnesses and a value.

    A per-variable model runs on each factor of `decompose` and the factors
    multiply; the others run once on the whole vector.  `prepare(q, x)` makes
    the model's input, `witnesses` enumerates it, `weight` is one witness's
    term, `finish` takes the sum of the terms back to the ambient variables
    and `dump` is one witness's JSON.  A value model (mutation) gives `value`
    instead; its witness count is the coefficient sum of that value."""

    per_variable: bool
    prepare: Callable
    witnesses: Callable | None = None
    weight: Callable | None = None
    finish: Callable = lambda ctx, value: value
    dump: Callable | None = None
    value: Callable | None = None


def _completed(q: Quiver, plus):
    """The 3-cycle completion, the vector padded with zeros on the added
    vertices, those vertices (set to one by `_drop_added`) and the part of
    every term fixed by the two (`formulas.term_base`)."""
    q2, added = three_cycle_completion(q)
    a = plus + (0,) * (q2.n - q.n)
    return q2, a, added, formulas.term_base(q2, a)


def _drop_added(ctx, value: LaurentPoly) -> LaurentPoly:
    return value.substitute_one(ctx[2])


def _relabeled(q: Quiver, b):
    """The quiver, the support of b and the relabelling of its path to 1..n,
    made once: the lines are drawn in the relabelled coordinates and their
    sum is renamed back through its maps."""
    support = geometry.support_of(b)
    return q, support, scattering.relabel_for_path(q, support)


def _over_path(comp, value: LaurentPoly) -> LaurentPoly:
    """Divide a sum over the completed path by its path variables, then
    return to the ambient labels."""
    path = LaurentPoly.monomial({i: -1 for i in range(1, comp.celq.n + 1)})
    return comp.substitution_then_rename(path * value)


_TABLE = {
    "mutation": _Model(True, lambda q, b: (q, b),
                       value=lambda ctx: engine.cluster_variable(*ctx)),
    "gcs": _Model(
        False, _completed, witnesses=lambda ctx: formulas.enumerate_gcs(*ctx[:2]),
        weight=lambda ctx, s: formulas.gcs_weight(*ctx[:2], s, ctx[3]), finish=_drop_added,
        dump=lambda ctx, s: [list(bits) for bits in s]),
    "gcc": _Model(
        False, _completed, witnesses=lambda ctx: formulas.enumerate_gcc(*ctx[:2]),
        weight=lambda ctx, g: formulas.gcc_weight(g, ctx[3]), finish=_drop_added,
        dump=lambda ctx, g: [{"arrow": list(arrow), "S1": sorted(s1), "S2": sorted(s2)}
                             for (arrow, s1, s2) in g.chosen]),
    "linear-gcc": _Model(
        True, lambda q, b: complete_extension(q, geometry.support_of(b)),
        witnesses=lambda comp: formulas.enumerate_linear_gcc(comp.celq),
        weight=lambda comp, w: formulas.linear_gcc_weight(comp.celq, w), finish=_over_path,
        dump=lambda comp, w: {"pairs": [list(p) for p in w.pairs], "end_bit": w.end_bit}),
    "gcs-variable": _Model(
        True, lambda q, b: (q, geometry.support_of(b)),
        witnesses=lambda ctx: formulas.enumerate_variable_gcs(*ctx),
        weight=lambda ctx, s: formulas.variable_gcs_monomial(*ctx, s),
        dump=lambda ctx, s: list(s)),
    "matching": _Model(
        True, lambda q, b: complete_extension(q, geometry.support_of(b)),
        witnesses=lambda comp: snake.enumerate_matchings(snake.build_snake(comp.celq)),
        weight=lambda comp, gamma: snake.matching_weight(gamma), finish=_over_path,
        dump=lambda comp, gamma: [list(l) if isinstance(l, tuple) else l for l in gamma]),
    "tpath": _Model(
        True, lambda q, b: complete_extension(q, geometry.support_of(b)),
        witnesses=lambda comp: snake.triangulation_tpaths(
            geometry.triangulation_of(comp.celq), comp.celq),
        weight=lambda comp, p: p.value(), dump=lambda comp, p: list(p.labels),
        finish=lambda comp, value: comp.substitution_then_rename(value)),
    "broken-line": _Model(
        True, _relabeled,
        witnesses=lambda ctx: scattering.broken_lines(*ctx[:2], rel=ctx[2]),
        weight=lambda ctx, line: scattering.ambient_monomial(line),
        finish=lambda ctx, value: value.rename(ctx[2].to_old),
        dump=lambda ctx, line: scattering.line_json(line)),
}

MODELS = tuple(_TABLE)


def _model(q: Quiver, name: str) -> _Model:
    """The table entry that runs `name` on q; gcc on a one-vertex quiver runs
    as linear-gcc, because collections need two vertices."""
    if name not in _TABLE:
        raise InvalidInput(f"unknown model {name!r}; choose from {MODELS}")
    return _TABLE["linear-gcc" if name == "gcc" and q.n == 1 else name]


def _run(q: Quiver, plus, name: str, want_value: bool) -> tuple[LaurentPoly | None, int]:
    """Value (None unless wanted) and witness count of one model on a nonzero
    nonnegative d-vector, from one enumeration per factor.  A count alone
    never computes a weight."""
    model = _model(q, name)
    value, count = LaurentPoly.one(), 1
    for x in geometry.decompose(q, plus) if model.per_variable else (plus,):
        ctx = model.prepare(q, x)
        if model.value is not None:
            part = model.value(ctx)
            count *= part.coefficient_sum()
            value = value * part
        elif want_value:
            terms = [model.weight(ctx, w) for w in model.witnesses(ctx)]
            count *= len(terms)
            value = value * model.finish(ctx, poly_sum(terms))
        else:
            count *= sum(1 for _ in model.witnesses(ctx))
    return (value if want_value else None), count


def _positive_part(q: Quiver, a):
    """`geometry.positive_split`, refusing (as mutation would) a positive
    entry on a frozen vertex before any model runs."""
    plus, neg = geometry.positive_split(q, a)
    frozen = [v for v in sorted(q.frozen) if plus[v - 1]]
    if frozen:
        raise FrozenVertex(f"cannot mutate frozen vertex {frozen[0]}")
    return plus, neg


def _expand(q: Quiver, a, name: str) -> tuple[LaurentPoly, int]:
    _model(q, name)
    plus, neg = _positive_part(q, geometry.require_in_w(q, a))
    init = LaurentPoly.monomial(dict(enumerate(neg, 1)))
    if not any(plus):
        return init, 1
    value, count = _run(q, plus, name, want_value=True)
    return value * init, count


def expand_model(q: Quiver, a, model: str) -> LaurentPoly:
    """Cluster monomial with d-vector a, computed by the chosen model."""
    return _expand(q, a, model)[0]


def witness_count(q: Quiver, a, model: str) -> int:
    """Number of combinatorial witnesses behind the model's expansion (the
    mutation oracle reports its coefficient sum, which must agree)."""
    _model(q, model)
    plus, _ = _positive_part(q, a)
    if not any(plus):
        return 1
    return _run(q, plus, model, want_value=False)[1]


def list_witnesses(q: Quiver, a, model: str) -> list:
    """JSON-ready witness dump for one (quiver, d-vector, model) triple."""
    spec = _model(q, model)
    if spec.dump is None:
        raise InvalidInput(f"model {model!r} has no witness listing")
    plus, _ = _positive_part(q, a)
    if not spec.per_variable:
        ctx = spec.prepare(q, plus)
        return [spec.dump(ctx, w) for w in spec.witnesses(ctx)]
    out = []
    for b in geometry.decompose(q, plus):
        ctx = spec.prepare(q, b)
        out.append({"factor": list(b),
                    "witnesses": [spec.dump(ctx, w) for w in spec.witnesses(ctx)]})
    return out


# -- cross-checking ------------------------------------------------------------------


@dataclass
class RowResult:
    dvector: tuple[int, ...]
    counts: dict[str, int]
    value: str
    verdict: str
    timings: dict[str, float] = field(default_factory=dict)
    # FAIL rows: each model whose value or count differs from the majority
    dissent: list[dict] = field(default_factory=list)


@dataclass
class CrossCheckReport:
    quiver: Quiver
    models: tuple[str, ...]
    rows: list[RowResult]

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
    values, counts, timings = {}, {}, {}
    for m in models:
        t0 = time.perf_counter()
        values[m], counts[m] = _expand(q, a, m)
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
