"""The differential cross-check: every model on every d-vector in scope.

A crosscheck row checks and decomposes its d-vector once and runs each
model through the model table of `harness`, then compares the canonical
forms and witness counts; a FAIL row names each model that differs from
the majority.  Random inputs are sampled as uniform triangulations of a
polygon, which yields type-A quivers by construction.  Only `crosscheck`
and `report-table` load this module; `harness` reads its names on demand.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
import time

from . import MODELS, geometry
from .errors import InvalidInput
from .harness import _model, _request, _run, expand_model
from .laurent import LaurentPoly, canonical_string, rational_string, sorted_terms
from .quiver import Quiver, linear_full_subquivers

TYPE_CHECKING = False  # as typing's; importing typing costs a cold command
if TYPE_CHECKING:  # only `crosscheck --random` imports random
    import random

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
