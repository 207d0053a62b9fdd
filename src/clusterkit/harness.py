"""Model dispatch and the differential cross-check harness.

Every expansion request is normalized the same way: split off negative
entries as initial-variable factors, decompose the rest into per-variable
0-1 vectors where the model needs it, and compare everything as exact
Laurent polynomials.  Random inputs are sampled as uniform triangulations of
a polygon, which yields type-A quivers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import random
import time

from . import engine, formulas, geometry, scattering, snake
from .errors import InvalidInput, NotInW
from .laurent import LaurentPoly, canonical_string, poly_product, rational_string
from .quiver import (
    Quiver,
    complete_extension,
    linear_full_subquivers,
    three_cycle_completion,
)

MODELS = ("mutation", "gcs", "gcc", "linear-gcc", "gcs-variable",
          "matching", "tpath", "broken-line")


# -- random type-A quivers ------------------------------------------------------


@lru_cache(maxsize=None)
def _catalan(k: int) -> int:
    if k <= 1:
        return 1
    return sum(_catalan(i) * _catalan(k - 1 - i) for i in range(k))


def _random_fan(i: int, j: int, rng: random.Random, diags: list):
    """Uniformly triangulate the region cut off by the chord (i, j)."""
    if j - i < 2:
        return
    weights = [_catalan(z - i - 1) * _catalan(j - z - 1) for z in range(i + 1, j)]
    total = sum(weights)
    pick = rng.randrange(total)
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
    _random_fan(i, z, rng, diags)
    _random_fan(z, j, rng, diags)


def random_triangulation(n: int, rng: random.Random) -> geometry.Triangulation:
    """Uniformly random triangulation of the (n+3)-gon; diagonals labeled in
    sorted corner-pair order."""
    m = n + 3
    diags: list[tuple[int, int]] = []
    _random_fan(0, m - 1, rng, diags)
    diags.sort()
    edges = {i + 1: d for i, d in enumerate(diags)}
    label = n
    for k in range(m - 1):
        label += 1
        edges[label] = (k, k + 1)
    edges[label + 1] = (0, m - 1)
    return geometry.Triangulation(m, n, edges)


def random_type_a_quiver(n: int, rng: random.Random) -> Quiver:
    return geometry.quiver_of(random_triangulation(n, rng))


# -- model dispatch ----------------------------------------------------------------


def _initial_factor(neg) -> LaurentPoly:
    return LaurentPoly.monomial({i + 1: e for i, e in enumerate(neg) if e})


def _variable_value(q: Quiver, b, model: str) -> LaurentPoly:
    support = [i + 1 for i, bit in enumerate(b) if bit]
    if model == "gcs-variable":
        return formulas.formula_gcs_variable(q, support)
    if model == "broken-line":
        return scattering.theta_from_broken_lines(q, support)
    comp = complete_extension(q, support)
    if model == "linear-gcc":
        value = formulas.formula_linear_gcc(comp.celq)
    elif model == "matching":
        value = snake.matching_model_variable(comp.celq)
    elif model == "tpath":
        value = snake.tpath_model_variable(comp.celq)
    else:
        raise InvalidInput(f"unknown per-variable model {model!r}")
    return comp.substitution_then_rename(value)


def expand_model(q: Quiver, a, model: str) -> LaurentPoly:
    """Cluster monomial with d-vector a, computed by the chosen model."""
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}; choose from {MODELS}")
    a = tuple(a)
    if len(a) != q.n:
        raise InvalidInput(f"d-vector length {len(a)} != {q.n}")
    if not geometry.satisfies_property_a(q, a):
        raise NotInW(f"{a} violates the parity condition on 3-cycles")
    plus, neg = geometry.positive_split(q, a)
    init = _initial_factor(neg)
    if all(x == 0 for x in plus):
        return init
    if model == "mutation":
        parts = [engine.cluster_variable(q, b) for b in geometry.decompose(q, plus)]
        return poly_product(parts) * init
    if model in ("gcs", "gcc"):
        q2, added = three_cycle_completion(q)
        a2 = plus + (0,) * (q2.n - q.n)
        if model == "gcs":
            value = formulas.formula_gcs(q2, a2)
        else:
            if q2.n == 1:
                return expand_model(q, a, "linear-gcc")
            value = formulas.formula_gcc(q2, a2)
        return value.substitute_one(added) * init
    parts = [_variable_value(q, b, model) for b in geometry.decompose(q, plus)]
    return poly_product(parts) * init


def witness_count(q: Quiver, a, model: str) -> int:
    """Number of combinatorial witnesses behind the model's expansion (the
    mutation oracle reports its coefficient sum, which must agree)."""
    a = tuple(a)
    plus, _ = geometry.positive_split(q, a)
    if all(x == 0 for x in plus):
        return 1
    if model == "mutation":
        return expand_model(q, plus, "mutation").coefficient_sum()
    if model in ("gcs", "gcc"):
        q2, _ = three_cycle_completion(q)
        a2 = plus + (0,) * (q2.n - q.n)
        if model == "gcs":
            return sum(1 for _ in formulas.enumerate_gcs(q2, a2))
        if q2.n == 1:
            return witness_count(q, plus, "linear-gcc")
        return sum(1 for _ in formulas.enumerate_gcc(q2, a2))
    count = 1
    for b in geometry.decompose(q, plus):
        support = [i + 1 for i, bit in enumerate(b) if bit]
        if model == "gcs-variable":
            count *= sum(1 for _ in formulas.enumerate_variable_gcs(q, support))
        elif model == "broken-line":
            count *= len(scattering.broken_lines(q, support))
        else:
            comp = complete_extension(q, support)
            if model == "linear-gcc":
                count *= sum(1 for _ in formulas.enumerate_linear_gcc(comp.celq))
            elif model == "matching":
                count *= len(snake.enumerate_matchings(snake.build_snake(comp.celq)))
            elif model == "tpath":
                t = geometry.triangulation_of(comp.celq)
                count *= len(snake.triangulation_tpaths(t, comp.celq))
    return count


def list_witnesses(q: Quiver, a, model: str) -> list:
    """JSON-ready witness dump for one (quiver, d-vector, model) triple."""
    a = tuple(a)
    plus, _ = geometry.positive_split(q, a)
    if model == "gcs":
        q2, _ = three_cycle_completion(q)
        a2 = plus + (0,) * (q2.n - q.n)
        return [[list(bits) for bits in s] for s in formulas.enumerate_gcs(q2, a2)]
    if model == "gcc":
        q2, _ = three_cycle_completion(q)
        a2 = plus + (0,) * (q2.n - q.n)
        return [
            [{"arrow": list(arrow), "S1": sorted(s1), "S2": sorted(s2)}
             for (arrow, s1, s2) in g.chosen]
            for g in formulas.enumerate_gcc(q2, a2)
        ]
    out = []
    for b in geometry.decompose(q, plus):
        support = [i + 1 for i, bit in enumerate(b) if bit]
        entry: dict = {"factor": list(b)}
        if model == "gcs-variable":
            entry["witnesses"] = [list(s) for s in
                                  formulas.enumerate_variable_gcs(q, support)]
        elif model == "broken-line":
            entry["witnesses"] = [
                {"s": list(line.s), "walls": list(line.walls),
                 "monomial": canonical_string(line.final_monomial()),
                 "bends": [[str(c) for c in pt] for pt in line.bends]}
                for line in scattering.broken_lines(q, support)
            ]
        elif model == "linear-gcc":
            comp = complete_extension(q, support)
            entry["witnesses"] = [
                {"pairs": [list(p) for p in w.pairs], "end_bit": w.end_bit}
                for w in formulas.enumerate_linear_gcc(comp.celq)
            ]
        elif model == "matching":
            comp = complete_extension(q, support)
            d = snake.build_snake(comp.celq)
            entry["witnesses"] = [[list(l) if isinstance(l, tuple) else l for l in g]
                                  for g in snake.enumerate_matchings(d)]
        elif model == "tpath":
            comp = complete_extension(q, support)
            t = geometry.triangulation_of(comp.celq)
            entry["witnesses"] = [list(p.labels)
                                  for p in snake.triangulation_tpaths(t, comp.celq)]
        else:
            raise InvalidInput(f"model {model!r} has no witness listing")
        out.append(entry)
    return out


# -- cross-checking ------------------------------------------------------------------


@dataclass
class RowResult:
    dvector: tuple[int, ...]
    counts: dict[str, int]
    value: str
    verdict: str
    timings: dict[str, float] = field(default_factory=dict)


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
            if timings and r.timings:
                lines.append("      " + " ".join(
                    f"{m}:{r.timings[m] * 1000:.1f}ms" for m in self.models))
        lines.append("RESULT " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """JSON-ready report; rows carry per-model timings in ms only when
        the report was built with timings."""
        rows = []
        for r in self.rows:
            row = {"dvector": list(r.dvector), "counts": r.counts,
                   "value": r.value, "verdict": r.verdict}
            if r.timings:
                row["timings"] = {m: round(r.timings[m] * 1000, 3) for m in self.models}
            rows.append(row)
        return {"models": list(self.models), "passed": self.passed, "rows": rows}


def _scope_dvectors(q: Quiver, box: int) -> list[tuple[int, ...]]:
    scope = []
    for support in linear_full_subquivers(q):
        scope.append(tuple(1 if v + 1 in set(support) else 0
                           for v in range(q.n)))
    scope = sorted(set(scope), key=lambda b: (sum(b), b))
    if box > 0:
        def grow(prefix):
            if len(prefix) == q.n:
                a = tuple(prefix)
                if any(x > 1 for x in a) and geometry.satisfies_property_a(q, a):
                    yield a
                return
            for x in range(box + 1):
                yield from grow(prefix + [x])
        scope += sorted(grow([]))
    return scope


def _check_row(q: Quiver, a, models, with_timings: bool) -> RowResult:
    values = {}
    counts = {}
    timings = {}
    for m in models:
        t0 = time.perf_counter()
        values[m] = expand_model(q, a, m)
        counts[m] = witness_count(q, a, m)
        if with_timings:
            timings[m] = time.perf_counter() - t0
    forms = {canonical_string(v) for v in values.values()}
    positive = all(c > 0 for v in values.values() for c in v.terms.values())
    same_counts = len(set(counts.values())) == 1
    verdict = "PASS" if len(forms) == 1 and positive and same_counts else "FAIL"
    return RowResult(tuple(a), counts, sorted(forms)[0], verdict, timings)


def crosscheck(q: Quiver, models=None, box: int = 0,
               with_timings: bool = False) -> CrossCheckReport:
    """Run the selected models on every d-vector in scope and compare their
    canonical forms and witness counts."""
    models = tuple(models) if models else MODELS
    for m in models:
        if m not in MODELS:
            raise InvalidInput(f"unknown model {m!r}")
    rows = [_check_row(q, a, models, with_timings) for a in _scope_dvectors(q, box)]
    return CrossCheckReport(q, models, rows)


def report_table(q: Quiver) -> str:
    """Markdown table of every cluster-variable d-vector and its expansion."""
    rows = ["| d-vector | cluster variable |", "| --- | --- |"]
    for a in _scope_dvectors(q, 0):
        value = expand_model(q, a, "mutation")
        rows.append(f"| ({','.join(map(str, a))}) | {rational_string(value)} |")
    return "\n".join(rows) + "\n"
