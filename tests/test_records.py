"""The package's record classes: constructors, the comparisons the package
and its tests read, and what a cold command loads.

Each record is built from positional arguments and from keywords; both keep
the arguments as given (a `Quiver` normalizes its arrows and frozen set),
and left-out fields take their defaults.  Equality, hashing and `repr` are
pinned only where they are read: `Quiver` (all three), `GCCollection`
(equality and hash), and equality of the triangulation, pipeline, completion,
witness and seed records that the tests compare.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import clusterkit
from clusterkit import bijections, engine, formulas, geometry, harness, quiver, scattering, snake
from clusterkit.errors import InvalidInput, VertexOutOfRange
from clusterkit.laurent import LaurentPoly
from clusterkit.quiver import (
    CompletelyExtendedLinearQuiver,
    CompletionResult,
    LinearQuiver,
    Quiver,
    to_json_dict,
    to_text,
)


def values(cls, k):
    """k distinct stand-in values, so a swapped field shows; a record that
    checks its input gets real ones."""
    return [3, (0, 1)][:k] if cls is LinearQuiver else [object() for _ in range(k)]


# (class, its fields in order, the defaults of its trailing fields)
RECORDS = [
    (quiver.LinearQuiver, ("n", "delta"), {}),
    (quiver.CompletelyExtendedLinearQuiver, ("base",), {}),
    (quiver.CompletionResult, ("celq", "base_order", "to_ambient", "invented"), {}),
    (geometry.Triangulation, ("size", "n", "edges", "vpoint", "wpoint"),
     {"vpoint": None, "wpoint": None}),
    (geometry.Pipeline, ("endpoints", "crossings", "b_vector"), {}),
    (geometry.PipelineSet, ("quiver", "triangulation", "a", "pipelines", "pipes"),
     {"pipes": ()}),
    (harness._Model, ("module", "per_variable", "prepare", "value", "count",
                      "witnesses", "dump"), {"witnesses": None, "dump": None}),
    (harness.RowResult, ("dvector", "counts", "value", "verdict", "timings", "dissent"),
     {"timings": {}, "dissent": []}),
    (harness.CrossCheckReport, ("quiver", "models", "rows"), {}),
    (engine.Seed, ("quiver", "cluster"), {}),
    (formulas.GCCollection, ("chosen",), {}),
    (formulas.LinearGCC, ("n", "pairs", "end_bit"), {"end_bit": None}),
    (scattering.PathRelabeling, ("ambient", "order", "to_new", "to_old"), {}),
    (scattering.WSequence, ("s", "ell", "walls", "chain"), {}),
    (scattering.Endpoint, ("coords", "eps", "n", "nprime"), {}),
    (scattering._Scaled, ("scale", "ints", "num", "den", "n", "nprime"), {}),
    (scattering.BrokenLine, ("s", "walls", "moves", "principal", "scale", "base", "lams"), {}),
    (snake.SnakeDiagram, ("celq", "tiles", "edge_of_label", "label_of_edge", "pl_groups"), {}),
    (snake.TPath, ("labels",), {}),
    (bijections.CompleteTPath, ("labels",), {}),
]
NAMES = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=NAMES)
def test_a_record_keeps_its_arguments_by_position_and_by_keyword(cls, fields, defaults):
    given = values(cls, len(fields))
    for rec in (cls(*given), cls(**dict(zip(fields, given)))):
        assert all(getattr(rec, f) is v for f, v in zip(fields, given))


@pytest.mark.parametrize("cls, fields, defaults", [r for r in RECORDS if r[2]],
                         ids=[n for n, r in zip(NAMES, RECORDS) if r[2]])
def test_a_record_fills_in_its_defaults(cls, fields, defaults):
    required = values(cls, len(fields) - len(defaults))
    one, two = cls(*required), cls(*required)
    for f, want in defaults.items():
        assert getattr(one, f) == want
    # a mutable default is a new object per record
    for f, want in defaults.items():
        if isinstance(want, (list, dict)):
            assert getattr(one, f) is not getattr(two, f)


def test_a_record_needs_its_fields():
    with pytest.raises(TypeError):
        formulas.LinearGCC(1)
    with pytest.raises(TypeError):
        formulas.LinearGCC(1, (), 0, 1)
    with pytest.raises(TypeError):
        snake.TPath(labels=(1,), other=2)


# -- Quiver -------------------------------------------------------------------------


def test_quiver_sorts_its_arrows_and_freezes_its_frozen_vertices():
    q = Quiver(3, [(2, 3), (1, 2)], [3])
    assert q.n == 3 and q.arrows == ((1, 2), (2, 3)) and q.frozen == frozenset({3})
    assert type(q.arrows) is tuple and type(q.frozen) is frozenset
    assert Quiver(n=3, arrows=((2, 3), (1, 2)), frozen={3}) == q
    assert Quiver(2, ((1, 2),)).frozen == frozenset()


@pytest.mark.parametrize("args, exc, message", [
    ((0, ()), InvalidInput, "quiver needs at least one vertex"),
    ((-2, ((1, 2),)), InvalidInput, "quiver needs at least one vertex"),
    ((2, ((1, 3),)), VertexOutOfRange, "arrow (1,3) outside [1,2]"),
    ((2, ((0, 1),)), VertexOutOfRange, "arrow (0,1) outside [1,2]"),
    ((2, ((2, 2),)), InvalidInput, "loop at vertex 2"),
    ((2, ((1, 2), (2, 1))), InvalidInput, "2-cycle between 1 and 2"),
    ((2, ((1, 2),), (3,)), VertexOutOfRange, "frozen vertex 3 outside [1,2]"),
])
def test_quiver_rejects_bad_input(args, exc, message):
    with pytest.raises(exc) as got:
        Quiver(*args)
    assert str(got.value) == message


def test_quiver_compares_hashes_and_prints_by_its_fields():
    q = Quiver(3, ((2, 3), (1, 2)), frozenset({3}))
    twin = Quiver(3, ((1, 2), (2, 3)), {3})
    assert q == twin and not q != twin and hash(q) == hash(twin)
    assert len({q, twin}) == 1
    assert q != Quiver(3, ((1, 2), (2, 3))) and q != Quiver(4, ((1, 2), (2, 3)), {3})
    assert q != (3, ((1, 2), (2, 3)), frozenset({3}))
    assert repr(q) == "Quiver(n=3, arrows=((1, 2), (2, 3)), frozen=frozenset({3}))"
    assert repr(Quiver(1, ())) == "Quiver(n=1, arrows=(), frozen=frozenset())"


def test_a_quiver_field_cannot_be_assigned_or_deleted():
    q = Quiver(3, ((1, 2), (2, 3)))
    q._adjacency  # cached derived structure is still stored
    for name in ("n", "arrows", "frozen", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert (q.n, q.arrows, q.frozen) == (3, ((1, 2), (2, 3)), frozenset())


@pytest.mark.parametrize("n, delta, message", [
    (3, (0,), "delta sequence must have length n-1"),
    (0, (), "delta sequence must have length n-1"),
    (3, (0, 2), "delta entries must be 0 or 1"),
])
def test_linear_quiver_rejects_bad_input(n, delta, message):
    with pytest.raises(InvalidInput) as got:
        LinearQuiver(n, delta)
    assert str(got.value) == message


# -- equality where it is read --------------------------------------------------------


def test_path_records_compare_by_their_fields():
    lq = LinearQuiver(3, (0, 1))
    assert lq == LinearQuiver(3, (0, 1)) and lq != LinearQuiver(3, (1, 1))
    celq = CompletelyExtendedLinearQuiver(lq)
    assert celq == CompletelyExtendedLinearQuiver(LinearQuiver(3, (0, 1)))
    assert celq != CompletelyExtendedLinearQuiver(LinearQuiver(3, (1, 1)))
    assert lq != (3, (0, 1)) and celq != lq
    comp = quiver.complete_extension(Quiver(3, ((1, 2), (2, 3))), [1, 2])
    again = quiver.complete_extension(Quiver(3, ((1, 2), (2, 3))), [2, 1])
    assert comp == again
    assert comp != CompletionResult(comp.celq, comp.base_order[::-1], comp.to_ambient,
                                    comp.invented)


def test_geometry_records_compare_by_their_fields():
    q = Quiver(4, ((1, 2), (2, 3), (3, 4)))
    t = geometry.triangulation_for(q)
    assert t == geometry.Triangulation(t.size, t.n, dict(t.edges))
    assert t != geometry.Triangulation(t.size, t.n, dict(t.edges), vpoint=0)
    ps = geometry.build_pipelines(q, (1, 1, 0, 0))
    again = geometry.build_pipelines(Quiver(4, ((1, 2), (2, 3), (3, 4))), (1, 1, 0, 0))
    assert ps == again and ps.pipelines[0] == again.pipelines[0]
    # the pipes are no part of a pipeline set's value
    assert ps == geometry.PipelineSet(ps.quiver, ps.triangulation, ps.a, ps.pipelines)
    assert ps != geometry.build_pipelines(q, (0, 1, 1, 0))
    p = ps.pipelines[0]
    assert p != geometry.Pipeline(p.endpoints, p.crossings, p.b_vector + (0,))


def test_witness_records_compare_by_their_fields():
    g = formulas.GCCollection((((1, 2), frozenset({1}), frozenset()),))
    twin = formulas.GCCollection((((1, 2), frozenset({1}), frozenset()),))
    assert g == twin and hash(g) == hash(twin) and len({g, twin}) == 1
    assert g != formulas.GCCollection((((1, 2), frozenset(), frozenset({1})),))
    assert formulas.LinearGCC(2, ((0, 1),)) == formulas.LinearGCC(2, ((0, 1),), None)
    assert formulas.LinearGCC(1, (), 0) != formulas.LinearGCC(1, (), 1)
    assert bijections.CompleteTPath((1, 2, 3)) == bijections.CompleteTPath((1, 2, 3))
    assert bijections.CompleteTPath((1, 2, 3)) != bijections.CompleteTPath((3, 2, 1))


def test_seeds_compare_by_their_fields():
    a2 = Quiver(2, ((1, 2),))
    s = engine.initial_seed(a2)
    assert s == engine.Seed(Quiver(2, ((1, 2),)), (LaurentPoly.variable(1),
                                                   LaurentPoly.variable(2)))
    assert engine.mutate_seed(engine.mutate_seed(s, 1), 1) == s
    assert engine.mutate_seed(s, 1) != s


# -- a cold command loads neither dataclasses nor inspect, nor typing ------------------


PROBE = """import sys
from clusterkit import cli
codes = [cli.main(argv.split("|")) for argv in sys.argv[1:]]
print(*codes, *(m in sys.modules for m in ("dataclasses", "inspect", "typing")), file=sys.stderr)
"""
MODELS = clusterkit.MODELS
LISTABLE = ("gcs", "gcc", "matching", "tpath")
KINDS = {
    "expand": [f"expand|--quiver|{{q}}|--model|{m}|--dvector|1,1,0,0|--format|json"
               for m in MODELS],
    "count": [f"count|--quiver|{{j}}|--model|{m}|--dvector|2,1,0,0" for m in MODELS],
    "list-witnesses": [f"count|--quiver|{{q}}|--model|{m}|--dvector|0,1,1,0|--list-witnesses"
                       for m in LISTABLE],
    "decompose": ["decompose|--quiver|{q}|--dvector|2,1,0,-1"],
    "snake": ["snake|--quiver|{j}|--dvector|1,1,1,0"],
    "broken-lines": ["broken-lines|--quiver|{q}|--subquiver|2,3"],
    "crosscheck": ["crosscheck|--quiver|{j}|--format|json"],
    "invalid": ["expand|--quiver|{q}|--dvector|1,1,0,0,1"],
}


def cold_run(tmp_path, kind, *flags):
    """Every command of one kind of the benchmark's cli workload in one new
    interpreter (`python *flags`): whether each exit code is the expected
    one, and whether dataclasses, inspect and typing were loaded."""
    q = Quiver(4, ((1, 2), (3, 2), (3, 4)))
    (tmp_path / "q.txt").write_text(to_text(q))
    (tmp_path / "q.json").write_text(json.dumps(to_json_dict(q)))
    argv = [a.format(q=tmp_path / "q.txt", j=tmp_path / "q.json") for a in KINDS[kind]]
    src = str(Path(clusterkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    *codes, dataclasses, inspect, typing = proc.stderr.splitlines()[-1].split()
    expected = "2" if kind == "invalid" else "0"
    return codes == [expected] * len(argv), {"dataclasses": dataclasses == "True",
                                             "inspect": inspect == "True",
                                             "typing": typing == "True"}


@pytest.mark.parametrize("kind", KINDS)
def test_a_cold_command_loads_neither_dataclasses_nor_inspect(tmp_path, kind):
    """Each command kind of the benchmark's cli workload, every model of it
    in one new interpreter."""
    ok, loaded = cold_run(tmp_path, kind)
    assert ok and not loaded["dataclasses"] and not loaded["inspect"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_cold_command_without_site_loads_no_typing(tmp_path, kind):
    """The same commands under `python -S`: no clusterkit module imports
    typing, which a host's site-packages `.pth` files may load anyway."""
    ok, loaded = cold_run(tmp_path, kind, "-S")
    assert ok and not loaded["typing"]
