"""The four benchmark workloads: seeded inputs, the ops, and their checks.

Every op has `call(ck)`, the only part that is timed, and `check(out)`,
which compares the program's output with the frieze oracle and returns the
number of witnesses in the result (raising Mismatch when it disagrees).
`ck` is the imported program: a namespace with `harness` and `Quiver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
import json
import os
import random
import subprocess

from polygons import Polygon, compatible, random_polygon

MODELS = ("mutation", "gcs", "gcc", "linear-gcc", "gcs-variable",
          "matching", "tpath", "broken-line")
FIVE = ("mutation", "gcs", "gcc", "matching", "tpath")
LISTABLE = ("gcs", "gcc", "matching", "tpath")

MONOMIAL_BUDGET = 1000   # witnesses per monomial request
CLI_BUDGET = 40          # witnesses per cli expand/count request, at least half
                         # of it, so the witnesses in a run vary little by seed
MAX_CROSSINGS = 4        # crossed diagonals of a large request: beyond four, one
                         # broken-line request takes up to a second, its cost
                         # varies fivefold between arcs, and enumeration, not
                         # the helper scans, would set the workload's pace


class Mismatch(Exception):
    """The program's output disagrees with the oracle or the expected form."""


def coefficient_sum(canonical: str) -> int:
    """Coefficient sum of a canonical Laurent string; rejects a negative term."""
    if canonical.startswith("-") or " - " in canonical:
        raise Mismatch(f"negative coefficient in {canonical}")
    total = 0
    for term in canonical.split(" + "):
        head = term.split("*", 1)[0]
        total += int(head) if head.isdigit() else 1
    return total


def _monomial(p: Polygon, rng: random.Random, max_arcs: int, max_mult: int, budget: int,
              floor: int = 1):
    """Pairwise compatible arcs with multiplicities and their summed crossing
    vector, drawn until the frieze count is between floor and budget."""
    arcs = p.arcs()
    while True:
        want = rng.randint(1, max_arcs)
        chosen = []
        for arc in rng.sample(arcs, len(arcs)):
            if len(chosen) == want:
                break
            if all(compatible(arc, other) for other, _ in chosen):
                chosen.append((arc, rng.randint(1, max_mult)))
        count = p.count(chosen)
        if floor <= count <= budget:
            d = [0] * p.n
            for arc, mult in chosen:
                for i, x in enumerate(p.crossing_vector(arc)):
                    d[i] += mult * x
            return tuple(d), chosen, count


def _expected_rows(p: Polygon) -> dict:
    return {p.crossing_vector(arc): p.count([(arc, 1)]) for arc in p.arcs()}


# -- in-process ops -------------------------------------------------------------


@dataclass
class Crosscheck:
    """`harness.crosscheck` over the five models plus its text report."""

    polygon: Polygon
    expected: dict
    quiver: object = None
    models: tuple = FIVE

    def call(self, ck):
        report = ck.harness.crosscheck(self.quiver, FIVE)
        return report, report.render_text()

    def check(self, out) -> int:
        report, text = out
        rows = {tuple(r.dvector): r for r in report.rows}
        if set(rows) != set(self.expected):
            raise Mismatch(f"rows {sorted(rows)} != arcs {sorted(self.expected)}")
        for d, row in rows.items():
            want = self.expected[d]
            if row.verdict != "PASS":
                raise Mismatch(f"d={d}: verdict {row.verdict}")
            if row.counts != {m: want for m in FIVE}:
                raise Mismatch(f"d={d}: counts {row.counts} != frieze {want}")
            if coefficient_sum(row.value) != want:
                raise Mismatch(f"d={d}: value {row.value} does not sum to {want}")
        if not text.endswith("RESULT PASS\n") or text.count("\n") != len(rows) + 2:
            raise Mismatch("text report is not a passing report of every row")
        return sum(self.expected.values())

    def describe(self) -> str:
        return f"crosscheck n={self.polygon.n} arrows={list(self.polygon.arrows)}"

    def spec(self):
        return [self.polygon.n, self.polygon.arrows, sorted(self.expected.items())]


@dataclass
class Request:
    """One `expand_model` or `witness_count` call."""

    polygon: Polygon
    dvector: tuple
    model: str
    kind: str          # "expand" or "count"
    expected: int
    quiver: object = None

    @property
    def models(self):
        return (self.model,)

    def call(self, ck):
        if self.kind == "expand":
            return ck.harness.expand_model(self.quiver, self.dvector, self.model)
        return ck.harness.witness_count(self.quiver, self.dvector, self.model)

    def check(self, out) -> int:
        if self.kind == "expand":
            coefs = list(out.terms.values())
            if min(coefs) <= 0:
                raise Mismatch("nonpositive coefficient")
            got = sum(coefs)
        else:
            got = out
        if got != self.expected:
            raise Mismatch(f"{self.kind} gave {got} witnesses, frieze says {self.expected}")
        return self.expected

    def describe(self) -> str:
        return (f"{self.kind} model={self.model} d={list(self.dvector)} "
                f"n={self.polygon.n} arrows={list(self.polygon.arrows)}")

    def spec(self):
        return [self.polygon.n, self.polygon.arrows, self.dvector, self.model,
                self.kind, self.expected]


def sweep(seed: int, make_quiver):
    """Crosschecks on fresh quivers, n cycling through 2..8.  Warm-up runs
    an n = 5 quiver that the stream never repeats."""
    rng = random.Random(f"sweep-{seed}")
    warm_polys = [random_polygon(5, rng)]
    taken = {p.arrows for p in warm_polys}

    def crosscheck(p):
        return Crosscheck(p, _expected_rows(p), make_quiver(p))

    def stream():
        k = 0
        while True:
            p = random_polygon(2 + k % 7, rng)
            if p.arrows not in taken:
                yield crosscheck(p)
                k += 1

    return [crosscheck(p) for p in warm_polys], stream()


def monomial(seed: int, make_quiver):
    """Expand and count requests for cluster monomials, each on its own small
    quiver (n 3..6); warm-up uses single arcs on n = 7."""
    rng = random.Random(f"monomial-{seed}")

    def request(n, k, size):
        """Request k: the 16 model/kind pairs take turns; up to `size` arcs
        with multiplicities up to `size`."""
        p = random_polygon(n, rng)
        d, _, expected = _monomial(p, rng, size, size, MONOMIAL_BUDGET)
        return Request(p, d, MODELS[k % 8], ("expand", "count")[(k // 8) % 2],
                       expected, make_quiver(p))

    def stream():
        k = 0
        while True:
            yield request(rng.randint(3, 6), k, 3)
            k += 1

    return [request(7, k, 1) for k in range(16)], stream()


def _arc_crossing(p: Polygon, rng: random.Random, crossings: int):
    """A random arc that crosses exactly `crossings` diagonals."""
    diags = set(p.diagonals)
    while True:
        i = rng.randrange(p.size - 2)
        j = min(i + rng.randint(crossings + 1, crossings + 4), p.size - 1)
        if (i, j) in diags or (i, j) == (0, p.size - 1):
            continue
        d = p.crossing_vector((i, j))
        if sum(d) == crossings:
            return (i, j), d


def _short_requests(polys, quivers, rng: random.Random, max_crossings: int = MAX_CROSSINGS):
    """Requests taking turns over the polygons.  In each round every polygon
    gets one request of each of the eight models.  The kind (expand, count)
    alternates every round, and the crossed-diagonal count (1..max_crossings)
    moves on every two rounds, offset by the model.  So any two consecutive
    rounds hold the same mix of models, kinds and crossing counts."""
    k = 0
    while True:
        p, q = polys[k % len(polys)], quivers[k % len(polys)]
        slot = k // len(polys)
        model, rnd = slot % 8, slot // 8
        arc, d = _arc_crossing(p, rng, (model + rnd // 2) % max_crossings + 1)
        yield Request(p, d, MODELS[model], ("expand", "count")[rnd % 2],
                      p.count([(arc, 1)]), q)
        k += 1


def large(seed: int, make_quiver):
    """Short-arc requests on eight large quivers (n = 100, 150, 200, 250,
    twice each), built once.  Warm-up uses arcs crossing one or two
    diagonals of an n = 60 quiver, which keeps its cost steady."""
    rng = random.Random(f"large-{seed}")
    polys = [random_polygon(n, rng) for n in (100, 150, 200, 250) * 2]
    warm_p = random_polygon(60, rng)
    warm = list(islice(_short_requests([warm_p], [make_quiver(warm_p)], rng, 2), 16))
    return warm, _short_requests(polys, [make_quiver(p) for p in polys], rng)


# -- cli -------------------------------------------------------------------------


CLI_KINDS = ("expand", "count", "list", "decompose", "snake", "broken-lines",
             "crosscheck", "invalid")


@dataclass
class Command:
    """One cold `python -m clusterkit.cli` process and the output it must print."""

    args: list
    kind: str
    expected: object
    models: tuple = ()

    def call(self, ck):
        return subprocess.run(ck.argv(self.args), capture_output=True, text=True,
                              cwd=ck.root, env=ck.env, timeout=120)

    def check(self, out) -> int:
        want_rc = 2 if self.kind == "invalid" else 0
        if out.returncode != want_rc:
            raise Mismatch(f"exit {out.returncode}, stderr {out.stderr[-300:]!r}")
        lines = out.stdout.splitlines()
        if self.kind == "expand":
            coefs = [t["coef"] for t in json.loads(out.stdout)["terms"]]
            if min(coefs) <= 0:
                raise Mismatch("nonpositive coefficient")
            got = sum(coefs)
        elif self.kind == "count":
            got = int(out.stdout)
        elif self.kind == "list":
            data = json.loads(out.stdout)
            if self.models[0] in ("gcs", "gcc"):
                got = len(data)
            else:
                got = 1
                for entry in data:
                    got *= len(entry["witnesses"])
        elif self.kind == "decompose":
            got = sorted(tuple(json.loads(line)) for line in lines)
        elif self.kind == "snake":
            got = int(lines[1].removeprefix("matchings: "))
        elif self.kind == "broken-lines":
            theta = lines[-1].removeprefix("theta ")
            numerator = theta[1:theta.index(")/(")] if theta.startswith("(") else theta
            got = len(lines) - 1
            if coefficient_sum(numerator) != got:
                raise Mismatch(f"theta {theta} does not sum to {got}")
        elif self.kind == "crosscheck":
            data = json.loads(out.stdout)
            got = {}
            for row in data["rows"]:
                counts = set(row["counts"].values())
                if row["verdict"] != "PASS" or counts != {coefficient_sum(row["value"])}:
                    raise Mismatch(f"row {row}")
                got[tuple(row["dvector"])] = counts.pop()
            if not data["passed"] or set(data["models"]) != set(MODELS):
                raise Mismatch("crosscheck report did not pass all models")
        else:
            if out.stdout:
                raise Mismatch(f"invalid input printed {out.stdout!r}")
            got = sorted(json.loads(out.stderr.splitlines()[-1]))
        if got != self.expected:
            raise Mismatch(f"{self.kind} printed {got}, expected {self.expected}")
        if self.kind == "crosscheck":
            return sum(self.expected.values())
        return self.expected if isinstance(self.expected, int) else 0

    def describe(self) -> str:
        return "clusterkit " + " ".join(self.args)

    def spec(self):
        return [self.args, self.kind, sorted(self.expected.items())
                if isinstance(self.expected, dict) else self.expected]


def _write_fixture(p: Polygon, path: str, as_json: bool):
    with open(path, "w", encoding="utf-8") as fh:
        if as_json:
            json.dump({"n": p.n, "arrows": [list(a) for a in p.arrows], "frozen": []}, fh)
        else:
            fh.write(f"n {p.n} frozen none\n")
            fh.writelines(f"{t} {h}\n" for t, h in p.arrows)


def _command(p: Polygon, path: str, kind: str, slot: int, rng: random.Random) -> Command:
    dv = lambda d: ",".join(map(str, d))
    arc = rng.choice(p.arcs())
    single = p.crossing_vector(arc)
    count = p.count([(arc, 1)])
    if kind in ("expand", "count"):
        model = MODELS[slot % 8]
        d, _, expected = _monomial(p, rng, 2, 2, CLI_BUDGET, CLI_BUDGET // 2)
        args = [kind, "--quiver", path, "--model", model, "--dvector", dv(d)]
        return Command(args + ["--format", "json"] if kind == "expand" else args,
                       kind, expected, (model,))
    if kind == "list":
        model = LISTABLE[slot % 4]
        return Command(["count", "--quiver", path, "--model", model, "--dvector",
                        dv(single), "--list-witnesses"], kind, count, (model,))
    if kind == "decompose":
        d, chosen, _ = _monomial(p, rng, 3, 2, 10 ** 9)
        parts = sorted(p.crossing_vector(a) for a, mult in chosen for _ in range(mult))
        return Command(["decompose", "--quiver", path, "--dvector", dv(d)], kind, parts)
    if kind == "snake":
        return Command(["snake", "--quiver", path, "--dvector", dv(single)],
                       kind, count, ("matching",))
    if kind == "broken-lines":
        return Command(["broken-lines", "--quiver", path, "--subquiver",
                        dv(i + 1 for i, x in enumerate(single) if x)], kind, count, ("broken-line",))
    if kind == "crosscheck":
        return Command(["crosscheck", "--quiver", path, "--format", "json"],
                       kind, _expected_rows(p), MODELS)
    return Command(["expand", "--quiver", path, "--dvector", dv(single + (1,))],
                   kind, ["code", "context", "message"])


def cli(seed: int, work: str, root: str):
    """Cold cli commands, the eight kinds taking turns, on 17 small fixture
    quivers (n = 5) written under `work`.  17 is prime to 8, so every kind
    meets every fixture.  Warm-up uses an n = 4 fixture."""
    rng = random.Random(f"cli-{seed}")
    os.makedirs(work, exist_ok=True)
    rel = os.path.relpath(work, root)

    def fixture(n, name, as_json):
        p = random_polygon(n, rng)
        path = os.path.join(rel, name)
        _write_fixture(p, os.path.join(root, path), as_json)
        return p, path

    warm_p, warm_path = fixture(4, "warm.txt", False)
    warm = [_command(warm_p, warm_path, kind, 0, rng) for kind in ("count", "crosscheck")]
    fixtures = [fixture(5, f"q{k}." + ("json" if k % 2 else "txt"), k % 2 == 1)
                for k in range(17)]

    def stream():
        k = 0
        while True:
            p, path = fixtures[k % len(fixtures)]
            yield _command(p, path, CLI_KINDS[k % 8], k // 8, rng)
            k += 1

    return warm, stream()
