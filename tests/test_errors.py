"""The error contract of the public entry points, pinned entry by entry.

Each entry runs one public function on one quiver and one vector and records
"ok" or the [class, message] of the exception it raised.  The vectors cover
valid variables and monomials, every single input fault (too short, too long,
a negative entry, an odd triangle, a positive frozen entry, a quiver that is
not type A) and some pairs of faults.  To rewrite `tests/golden/errors.json`
after a deliberate change of behaviour, run

    PYTHONPATH=src python tests/test_errors.py

and review the diff.
"""

import json
from pathlib import Path
import random

from clusterkit import engine, formulas, geometry, harness
from clusterkit.quiver import Quiver, oriented_three_cycles
import reference

ERRORS = Path(__file__).parent / "golden" / "errors.json"

QUIVERS = {
    "A3": Quiver(3, ((1, 2), (2, 3))),
    "tri": Quiver(3, ((1, 2), (2, 3), (3, 1))),
    "square": Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1))),
    "split": Quiver(4, ((1, 2), (3, 4))),
    "random6": harness.random_type_a_quiver(6, random.Random(2)),
    "frozen2": Quiver(2, ((1, 2),), frozenset({2})),
    "frozen3": Quiver(3, ((1, 2), (2, 3)), frozenset({3})),
}

ENTRIES = {
    **{f"{fn.__name__}[{m}]": (lambda fn, m: lambda q, a: fn(q, a, m))(fn, m)
       for fn in (harness.expand_model, harness.witness_count, harness.list_witnesses)
       for m in harness.MODELS},
    "decompose": geometry.decompose,
    "build_pipelines": geometry.build_pipelines,
    "positive_split": geometry.positive_split,
    "satisfies_property_a": geometry.satisfies_property_a,
    "enumerate_gcs": lambda q, a: list(formulas.enumerate_gcs(q, a)),
    "enumerate_gcc": lambda q, a: list(formulas.enumerate_gcc(q, a)),
    "formula_gcs": formulas.formula_gcs,
    "variable_mutation_sequence": engine.variable_mutation_sequence,
    "cluster_variable": engine.cluster_variable,
    "principal_lift": reference.principal_lift,
}


def vectors(q: Quiver) -> list[tuple[int, ...]]:
    """The vectors tried on q, without repeats: valid ones first, then one
    fault each, then pairs of faults."""
    n = q.n
    unit = lambda v, x=1: tuple(x if u == v else 0 for u in q.vertices)
    out = [unit(1), unit(n), (1,) * n, (2,) * n, (2, 2) + (0,) * (n - 2), (0,) * n,
           (1,) * (n - 1), (1,) * (n + 1), (0,) * (n - 1), (0,) * (n + 1),
           unit(1, -1), (1,) * (n - 1) + (-1,),
           (-1,) * (n - 1), (-1,) + (0,) * n]
    cycles = oriented_three_cycles(q)
    if cycles:  # an odd triangle, alone, too long, and with a negative entry
        odd = tuple(int(v in cycles[0]) for v in q.vertices)
        out += [odd, odd + (0,)]
        off = [v for v in q.vertices if v not in cycles[0]]
        if off:
            out.append(tuple(-1 if v == off[0] else x for v, x in zip(q.vertices, odd)))
    for v in sorted(q.frozen):  # a frozen entry, alone and with other faults
        out += [unit(v, -1), tuple(-1 if u != v else 1 for u in q.vertices),
                unit(v) + (0,)]
    return list(dict.fromkeys(out))


def outcome(fn, q: Quiver, a) -> str | list[str]:
    try:
        fn(q, a)
    except Exception as exc:  # noqa: BLE001 - the contract pins every class
        return [type(exc).__name__, str(exc)]
    return "ok"


def contract() -> dict[str, str | list[str]]:
    return {f"{entry} | {name} | {a}": outcome(fn, q, a)
            for entry, fn in ENTRIES.items()
            for name, q in QUIVERS.items()
            for a in vectors(q)}


def render(table: dict) -> str:
    """One entry per line, so a diff names each changed entry."""
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_every_entry_raises_as_recorded():
    want = json.loads(ERRORS.read_text())
    got = contract()
    assert got.keys() == want.keys()
    changed = {key: (want[key], got[key]) for key in got if got[key] != want[key]}
    assert changed == {}


def test_wrong_length_is_reported_alike_by_every_request():
    """expand_model, witness_count and list_witnesses report a vector of the
    wrong length with one class and message; list_witnesses of mutation
    refuses the model before it reads the vector."""
    table = json.loads(ERRORS.read_text())
    checked = 0
    for name, q in QUIVERS.items():
        for a in vectors(q):
            if len(a) == q.n:
                continue
            for m in harness.MODELS:
                want = table[f"expand_model[{m}] | {name} | {a}"]
                assert want != "ok"
                assert table[f"witness_count[{m}] | {name} | {a}"] == want
                listed = table[f"list_witnesses[{m}] | {name} | {a}"]
                assert listed == (["InvalidInput", "model 'mutation' has no witness listing"]
                                  if m == "mutation" else want)
                checked += 1
    assert checked > 300


if __name__ == "__main__":
    ERRORS.write_text(render(contract()))
