import json
import math
import random
import sys
import tracemalloc

import pytest

from clusterkit import cli, engine, formulas, geometry, harness, quiver, scattering, snake
from clusterkit.errors import FrozenVertex, InvalidInput, NotInW, PositivePartNotInW
from clusterkit.harness import (
    MODELS,
    crosscheck,
    expand_model,
    list_witnesses,
    random_triangulation,
    random_type_a_quiver,
    report_table,
    witness_count,
)
from clusterkit.laurent import LaurentPoly, canonical_string
from clusterkit.quiver import (
    LinearQuiver,
    Quiver,
    is_type_a,
    linear_full_subquivers,
    oriented_three_cycles,
    three_cycle_completion,
    to_text,
)


def test_random_quivers_are_type_a():
    rng = random.Random(2024)
    sizes = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        q = random_type_a_quiver(n, rng)
        assert q.n == n
        assert is_type_a(q)
        sizes.add(n)
    assert len(sizes) >= 6


def test_large_random_quiver_needs_no_recursion():
    q = random_type_a_quiver(1000, random.Random(12))
    assert q.n == 1000 and is_type_a(q)


def test_witness_counts_on_a_long_path_need_no_recursion():
    n = 1200
    q = Quiver(n, tuple((i, i + 1) for i in range(1, n)))
    for model in ("gcs", "gcs-variable", "linear-gcc"):
        assert witness_count(q, (1,) * n, model) == n + 1


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walks_run_thirty_frames_above_the_caller():
    """The subquiver walk and the T-path walk keep explicit stacks: the
    60-vertex path's subpaths and the 46,368 T-paths of the zig-zag path on
    22 vertices are found under a recursion limit 30 frames above here."""
    line = Quiver(60, tuple((i, i + 1) for i in range(1, 60)))
    zigzag = LinearQuiver(22, tuple(i % 2 for i in range(21))).quiver()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 30)
    try:
        subpaths = linear_full_subquivers(line)
        tpaths = witness_count(zigzag, (1,) * 22, "tpath")
    finally:
        sys.setrecursionlimit(limit)
    assert subpaths == [tuple(range(i, j + 1)) for i in range(1, 61) for j in range(i, 61)]
    assert tpaths == 46368


def test_random_triangulation_shape():
    rng = random.Random(7)
    t = random_triangulation(5, rng)
    assert t.size == 8 and t.n == 5
    assert len(t.edges) == 2 * 5 + 3
    assert len(t.triangles()) == 6


def test_expand_rejects_bad_model(three_cycle):
    with pytest.raises(InvalidInput):
        expand_model(three_cycle, (0, 0, 0), "nope")
    with pytest.raises(NotInW):
        expand_model(three_cycle, (1, 1, 1), "gcs")


def test_the_table_runs_every_model_and_imports_each_module_once(monkeypatch, three_cycle):
    """The table's entries are the package's MODELS in order, and resolving
    one imports its module on the first use only."""
    assert tuple(harness._TABLE) == MODELS
    imported = []
    monkeypatch.setattr(harness, "import_module",
                        lambda name: imported.append(name) or sys.modules[name])
    monkeypatch.delattr(harness, "scattering", raising=False)
    for _ in range(3):
        assert harness._model(three_cycle, "broken-line") is harness._TABLE["broken-line"]
    assert imported == ["clusterkit.scattering"] and harness.scattering is scattering


def test_expand_negative_only(three_cycle):
    value = expand_model(three_cycle, (-2, 0, -1), "matching")
    assert value == LaurentPoly.monomial({1: 2, 3: 1})


def test_single_vertex_quiver_all_models():
    q = Quiver(1, ())
    # one mutation divides the two-term empty exchange by x1
    expected = LaurentPoly.integer(2) * LaurentPoly.variable(1, -1)
    for model in MODELS:
        assert expand_model(q, (1,), model) == expected, model
    assert witness_count(q, (3,), "gcs") == 8
    assert witness_count(q, (3,), "matching") == 8
    report = crosscheck(q)
    assert report.passed and len(report.rows) == 1


def test_witness_listings_have_matching_sizes(seven_table):
    a = (0, 1, 1, 0, 0, 0, 0)
    n = witness_count(seven_table, a, "gcs")
    for model in ("gcs", "gcc"):
        assert len(list_witnesses(seven_table, a, model)) == n
    for model in ("linear-gcc", "matching", "tpath", "broken-line", "gcs-variable"):
        groups = list_witnesses(seven_table, a, model)
        assert len(groups) == 1
        assert len(groups[0]["witnesses"]) == n
    with pytest.raises(InvalidInput):
        list_witnesses(seven_table, a, "mutation")


@pytest.mark.parametrize("a", [(0, 0, 0), (-1, 0, 0), (1, 0, 0), (1, 1, 0)])
def test_mutation_has_no_witness_listing_for_any_dvector(three_cycle, a):
    with pytest.raises(InvalidInput, match="no witness listing"):
        list_witnesses(three_cycle, a, "mutation")


def test_crosscheck_box_includes_monomials(three_cycle):
    report = crosscheck(three_cycle, models=("mutation", "gcs"), box=2)
    dvectors = {r.dvector for r in report.rows}
    assert (2, 2, 2) in dvectors
    assert report.passed


def test_report_table_contents(seven_table):
    table = report_table(seven_table)
    assert table.splitlines()[0] == "| d-vector | cluster variable |"
    assert "| (1,0,0,0,0,0,0) | (x2 + x5)/(x1) |" in table
    assert table == report_table(seven_table)


def test_witness_counts_match_across_models(seven_mixed):
    a = (2, 2, 0, 0, 2, 0, 0)
    counts = {m: witness_count(seven_mixed, a, m) for m in MODELS}
    assert len(set(counts.values())) == 1


def test_unknown_model_rejected_by_every_entry_point(three_cycle):
    for entry in (expand_model, witness_count, list_witnesses):
        with pytest.raises(InvalidInput):
            entry(three_cycle, (1, 1, 0), "bogus")
    with pytest.raises(InvalidInput):
        witness_count(three_cycle, (0, 0, 0), "bogus")


def test_parity_error_classes_per_entry_point(three_cycle):
    for model in MODELS:
        with pytest.raises(NotInW) as exc:
            expand_model(three_cycle, (1, 1, 1), model)
        assert type(exc.value) is NotInW
        with pytest.raises(PositivePartNotInW):
            witness_count(three_cycle, (1, 1, 1), model)


# what the harness calls per model: the unchecked cores behind the checked
# public functions.  Every value is one tally core (mutation's is its walk),
# and every count of an enumerating model but broken-line, which builds its
# lines, one count core that builds no witness.
TALLIES = ((formulas, "_gcs_terms"), (formulas, "_gcc_terms"),
           (formulas, "_linear_gcc_terms"), (formulas, "_variable_gcs_terms"),
           (snake, "_matching_terms"), (snake, "_tpath_terms"),
           (scattering, "_theta"), (engine, "_cluster_variable"))
COUNTS = ((formulas, "_count"), (formulas, "_linear_gcc_count"),
          (snake, "_matching_count"), (snake, "_tpath_count"))


def _count_calls(monkeypatch, targets) -> dict:
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_crosscheck_enumerates_each_model_once_per_row(monkeypatch):
    q = random_type_a_quiver(6, random.Random(4242))
    calls = _count_calls(monkeypatch, TALLIES + COUNTS)
    report = crosscheck(q)
    assert report.passed and len(report.rows) == 21
    assert calls == {**{name: 21 for _, name in TALLIES}, **{name: 0 for _, name in COUNTS}}


def test_passing_row_renders_its_value_once(monkeypatch, seven_table):
    calls = []
    monkeypatch.setattr(harness, "canonical_string",
                        lambda p: calls.append(p) or canonical_string(p))
    models = ("mutation", "gcs", "gcc", "matching", "tpath")
    row = harness._check_row(seven_table, (1, 1, 1, 0, 0, 0, 0), models, False)
    assert row.verdict == "PASS" and len(calls) == 1
    assert row.value == canonical_string(expand_model(seven_table, row.dvector, "gcs"))


def test_witness_count_computes_no_weight(monkeypatch, seven_mixed):
    def refuse(*args, **kwargs):
        raise AssertionError("a count computed a weight")
    for module, name in ((formulas, "gcs_weight"), (formulas, "gcc_weight"),
                         (formulas, "linear_gcc_weight"), (formulas, "variable_gcs_monomial"),
                         (snake, "matching_weight"), (scattering, "ambient_monomial")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(snake.TPath, "value", refuse)
    a = (2, 2, 0, 0, 2, 0, 0)
    counts = {m: witness_count(seven_mixed, a, m) for m in MODELS if m != "mutation"}
    assert len(set(counts.values())) == 1


def test_broken_line_relabels_each_factor_once(monkeypatch, seven_mixed):
    """Two copies of one factor make one relabelling per request."""
    calls = []
    original = scattering._relabel
    monkeypatch.setattr(scattering, "_relabel",
                        lambda *args: calls.append(args) or original(*args))
    a = (2, 2, 0, 0, 2, 0, 0)
    factors = geometry.decompose(seven_mixed, a)
    assert len(factors) > len(set(factors)) == 1
    value = expand_model(seven_mixed, a, "broken-line")
    assert value == expand_model(seven_mixed, a, "mutation")
    assert len(calls) == 1
    witness_count(seven_mixed, a, "broken-line")
    assert len(calls) == 2


def test_a_crosscheck_row_checks_and_decomposes_once(monkeypatch, seven_mixed):
    """A five-model row runs the parity test once and decomposes once."""
    calls = _count_calls(monkeypatch, ((geometry, "satisfies_property_a"),
                                       (geometry, "_decompose")))
    models = ("mutation", "gcs", "gcc", "matching", "tpath")
    for a in ((2, 2, 0, 0, 2, 0, 0), (1, 1, 1, 1, 0, 0, 0), (0, 1, 2, 1, 1, 0, -1)):
        calls.update(dict.fromkeys(calls, 0))
        row = harness._check_row(seven_mixed, a, models, False)
        assert row.verdict == "PASS", a
        assert calls == {"satisfies_property_a": 1, "_decompose": 1}, a


def test_a_repeated_factor_is_enumerated_once_per_model(monkeypatch, seven_mixed):
    """Two equal factors make one enumeration, whose value and count are
    squared; the listing still shows both copies."""
    a = (2, 2, 0, 0, 2, 0, 0)
    factor = (1, 1, 0, 0, 1, 0, 0)
    assert geometry.decompose(seven_mixed, a) == (factor, factor)
    want = expand_model(seven_mixed, factor, "mutation")
    calls = _count_calls(monkeypatch, TALLIES + COUNTS)
    for model in MODELS:
        calls.update(dict.fromkeys(calls, 0))
        assert expand_model(seven_mixed, a, model) == want ** 2, model
        assert witness_count(seven_mixed, a, model) == want.coefficient_sum() ** 2, model
        assert max(calls.values()) <= 2, (model, calls)
    calls = _count_calls(monkeypatch, ((snake, "_matching_count"), (snake, "enumerate_matchings")))
    assert witness_count(seven_mixed, a, "matching") == want.coefficient_sum() ** 2
    assert calls == {"_matching_count": 1, "enumerate_matchings": 0}
    listing = list_witnesses(seven_mixed, a, "matching")
    assert listing == list_witnesses(seven_mixed, factor, "matching") * 2


def _box_monomials_with_a_negative_entry(q: Quiver, rng: random.Random, k: int) -> list:
    """k of the box-2 monomial d-vectors of q, each with one nonzero entry negated."""
    monomials = [a for a in harness._scope_dvectors(q, 2) if max(a) > 1]
    out = []
    for a in rng.sample(monomials, min(k, len(monomials))):
        i = rng.choice([i for i, x in enumerate(a) if x])
        out.append(a[:i] + (-a[i],) + a[i + 1:])
    return out


def test_rows_agree_with_separate_calls_and_listings():
    rng = random.Random(5150)
    for n in range(2, 8):
        q = random_type_a_quiver(n, rng)
        rows = crosscheck(q).rows
        rows += [harness._check_row(q, a, MODELS, False)
                 for a in _box_monomials_with_a_negative_entry(q, rng, 3)]
        for row in rows:
            assert row.verdict == "PASS", (n, row.dvector)
            for m in MODELS:
                count = witness_count(q, row.dvector, m)
                assert row.counts[m] == count, (n, row.dvector, m)
                assert canonical_string(expand_model(q, row.dvector, m)) == row.value
                if m == "mutation":
                    continue
                listing = list_witnesses(q, row.dvector, m)
                if m in ("gcs", "gcc"):
                    assert len(listing) == count, (n, row.dvector, m)
                else:
                    assert math.prod(len(f["witnesses"]) for f in listing) == count


def test_fail_row_names_the_dissenting_model(monkeypatch, seven_table, tmp_path, capsys):
    original = snake._matching_terms

    def faulty(comp):  # every matching's term gains a factor x4
        base, deltas, tally = original(comp)
        return {**base, 4: base.get(4, 0) + 1}, deltas, tally
    monkeypatch.setattr(snake, "_matching_terms", faulty)
    models = ("mutation", "gcs", "matching")
    report = crosscheck(seven_table, models)
    assert not report.passed
    failed = [r for r in report.rows if r.verdict == "FAIL"]
    assert failed and len(failed) == len(report.rows)
    for r in failed:
        assert [d["model"] for d in r.dissent] == ["matching"]
        (d,) = r.dissent
        assert d["count"] == d["majority_count"] == r.counts["mutation"]
        assert d["term"] != d["majority_term"]
        assert r.value == canonical_string(expand_model(seven_table, r.dvector, "mutation"))
    text = report.render_text()
    assert text.count("      dissent: model=matching, count=") == len(failed)
    assert text.endswith("RESULT FAIL\n")

    path = tmp_path / "table.txt"
    path.write_text(to_text(seven_table))
    argv = ["crosscheck", "--quiver", str(path), "--models", ",".join(models)]
    assert cli.main(argv) == 1
    assert "dissent: model=matching" in capsys.readouterr().out
    assert cli.main(argv + ["--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(row["dissent"][0]["model"] == "matching" for row in rows)


def test_fail_row_reports_a_count_dissent(monkeypatch, three_cycle):
    original = snake._tpath_terms

    def dropped(comp):  # one T-path fewer in the tally
        base, deltas, tally = original(comp)
        key = max(tally)
        return base, deltas, {**tally, key: tally[key] - 1}
    monkeypatch.setattr(snake, "_tpath_terms", dropped)
    report = crosscheck(three_cycle, ("mutation", "tpath", "gcs"))
    for r in report.rows:
        (d,) = r.dissent
        assert d["model"] == "tpath" and d["count"] == d["majority_count"] - 1
        assert d["majority_term"] is not None


def test_passing_json_rows_carry_no_dissent(three_cycle):
    report = crosscheck(three_cycle, box=2)
    assert report.passed
    assert all(set(row) == {"dvector", "counts", "value", "verdict"}
               for row in report.to_json_dict()["rows"])


def test_crosscheck_skips_supports_through_frozen_vertices():
    """A support through a frozen vertex indexes no cluster variable (the
    mutation oracle cannot flip there), so the scope leaves it out; every
    model agrees on the rest."""
    rng = random.Random(90)
    rows = 0
    for _ in range(60):
        q0 = random_type_a_quiver(rng.randint(2, 7), rng)
        frozen = frozenset(v for v in q0.vertices if rng.random() < 0.3)
        q = Quiver(q0.n, q0.arrows, frozen)
        report = crosscheck(q)
        assert report.passed, to_text(q)
        assert {r.dvector for r in report.rows} == {
            tuple(int(v in s) for v in q.vertices)
            for s in linear_full_subquivers(q) if frozen.isdisjoint(s)}
        rows += len(report.rows)
    assert rows > 300
    q = Quiver(3, ((1, 2), (2, 3)), frozenset({2}))
    box = crosscheck(q, box=2)
    assert box.passed and all(r.dvector[1] == 0 for r in box.rows)
    assert len(box.rows) == 2 + 5  # two variables, and x0z with x or z equal to 2


@pytest.mark.parametrize("q, a", [
    (Quiver(2, ((1, 2),), frozenset({2})), (0, 1)),        # a variable
    (Quiver(3, ((1, 2), (2, 3)), frozenset({3})), (2, 1, 1)),  # a monomial
])
@pytest.mark.parametrize("model", MODELS)
def test_positive_entry_on_a_frozen_vertex_is_refused_by_every_model(q, a, model):
    """Every model refuses as the mutation oracle does, with its message,
    and counting or listing refuses too; the listing check comes first."""
    frozen = max(q.frozen)
    with pytest.raises(FrozenVertex) as want:
        expand_model(q, a, "mutation")
    assert str(want.value) == f"cannot mutate frozen vertex {frozen}"
    for entry in (expand_model, witness_count, list_witnesses):
        if entry is list_witnesses and model == "mutation":
            with pytest.raises(InvalidInput, match="no witness listing"):
                entry(q, a, model)
            continue
        with pytest.raises(FrozenVertex) as got:
            entry(q, a, model)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("model", MODELS)
def test_negative_entry_on_a_frozen_vertex_is_an_initial_variable(model):
    q = Quiver(3, ((1, 2), (2, 3)), frozenset({3}))
    value = expand_model(q, (1, 1, -1), model)
    assert value == expand_model(q, (1, 1, 0), model) * LaurentPoly.variable(3)
    assert witness_count(q, (1, 1, -1), model) == witness_count(q, (1, 1, 0), model)


def _random_path(q: Quiver, rng: random.Random, size: int) -> set[int]:
    """A linear full subquiver of q with `size` vertices, grown from a
    random vertex by random steps (retried until it is that long)."""
    while True:
        path = [rng.choice(list(q.vertices))]
        while len(path) < size:
            last = path[-1]
            options = sorted(u for u in q.neighbors(last) if u not in path
                             and not any(w in q.neighbors(u) for w in path if w != last))
            if not options:
                break
            path.append(rng.choice(options))
        if len(path) == size:
            return set(path)


def test_short_arc_requests_touch_only_their_neighbourhood(monkeypatch):
    """On a 1,000-vertex quiver, short-arc gcs, gcc and mutation requests
    label the base vertex once per completed quiver, evaluate sigma only on
    the triangles touching the support (three per triangle, once per
    request, shared by the terms and the witness constraints) and walk on
    the signed rows of the path and its neighbours alone, with one exchange
    per path vertex; broken-line requests relabel the path without reading
    the quiver's vertex range and with O(path) memory."""
    rng = random.Random(1000)
    q = random_type_a_quiver(1000, rng)
    q2, _ = three_cycle_completion(q)
    calls = {"base": 0, "gateways": 0, "sigma": 0}
    walked_rows: list[set[int]] = []
    exchanges = []
    relabel_peaks: list[int] = []

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper
    monkeypatch.setattr(formulas, "choose_base_vertex", counted("base", formulas.choose_base_vertex))
    monkeypatch.setattr(formulas, "gateway_rotations",
                        counted("gateways", formulas.gateway_rotations))
    monkeypatch.setattr(formulas, "_overlap", counted("sigma", formulas._overlap))
    signed_rows, exchange = engine._signed_rows, engine._exchange

    def recorded_rows(vertices, arrows):
        b = signed_rows(vertices, arrows)
        walked_rows.append(set(b))
        return b
    monkeypatch.setattr(engine, "_signed_rows", recorded_rows)
    monkeypatch.setattr(engine, "_exchange", lambda *args: exchanges.append(1) or exchange(*args))
    relabel = scattering._relabel

    def local_relabel(*args):
        with monkeypatch.context() as m:
            m.setattr(Quiver, "vertices", property(lambda p: pytest.fail("read all vertices")))
            tracemalloc.start()
            try:
                rel = relabel(*args)
                relabel_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return rel
    monkeypatch.setattr(scattering, "_relabel", local_relabel)
    for k in range(20):
        support = _random_path(q, rng, k % 4 + 1)
        b = tuple(int(v in support) for v in q.vertices)
        touching = [c for c in oriented_three_cycles(q2) if support & set(c)]
        neighbourhood = support.union(*(q.neighbors(v) for v in support))
        for model in ("broken-line", "gcs", "gcc", "mutation"):
            calls["sigma"], walked_rows[:], exchanges[:] = 0, [], []
            assert expand_model(q, b, model).coefficient_sum() == witness_count(q, b, model)
            # two requests, each with one overlap pass
            assert calls["sigma"] <= 2 * 3 * len(touching)
        # the mutation requests: one set of rows and one exchange per path vertex each
        assert walked_rows == [neighbourhood, neighbourhood]
        assert len(exchanges) == 2 * len(support)
    assert calls["base"] == calls["gateways"] == 1
    # a dict over the 1,000 vertices alone takes more than 30 kB
    assert len(relabel_peaks) == 40 and max(relabel_peaks) < 8000


def test_one_parity_test_and_one_support_per_request(monkeypatch):
    """Each expand_model, witness_count and list_witnesses call on a short
    arc of a 1,000-vertex quiver (with a negative entry elsewhere for
    expand_model) runs satisfies_property_a once and support_of once: the
    public entry point checks, the cores below it never check again."""
    rng = random.Random(1002)
    q = random_type_a_quiver(1000, rng)
    for model in MODELS:  # the once-per-quiver structure
        expand_model(q, (1,) + (0,) * 999, model)
    calls = {"satisfies_property_a": 0, "support_of": 0}
    for name in calls:
        original = getattr(geometry, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in (geometry, formulas, engine, scattering, harness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for k in range(8):
        support = _random_path(q, rng, k % 4 + 1)
        b = tuple(int(v in support) for v in q.vertices)
        off = next(v for v in q.vertices if v not in support)
        negative = tuple(-2 if v == off else x for v, x in enumerate(b, 1))
        for model in MODELS:
            requests = [lambda: expand_model(q, negative, model),
                        lambda: witness_count(q, b, model)]
            if model != "mutation":
                requests.append(lambda: list_witnesses(q, b, model))
            for request in requests:
                calls.update(dict.fromkeys(calls, 0))
                request()
                assert calls == {"satisfies_property_a": 1, "support_of": 1}, (model, support)


def test_gcc_count_builds_no_collection(monkeypatch, seven_mixed):
    """A gcc count stops at the solver's assignments."""
    vectors = [(2, 2, 0, 0, 2, 0, 0), (1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)]
    want = [witness_count(seven_mixed, a, "gcs") for a in vectors]

    def refuse(*args, **kwargs):
        raise AssertionError("a count built a collection")
    monkeypatch.setattr(formulas, "GCCollection", refuse)
    assert [witness_count(seven_mixed, a, "gcc") for a in vectors] == want
    n = 40  # the linearly oriented path, all ones: n + 1 collections
    assert witness_count(Quiver(n, tuple((i, i + 1) for i in range(1, n))), (1,) * n, "gcc") == n + 1


def test_gcs_gcc_requests_build_no_witness(monkeypatch, seven_mixed):
    """expand_model and witness_count of gcs and gcc sum and count from the
    solver's assignments: no collection and no full-length sequence."""
    vectors = [(2, 2, 0, 0, 2, 0, 0), (1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)]
    want = [(expand_model(seven_mixed, a, "mutation"), witness_count(seven_mixed, a, "mutation"))
            for a in vectors]

    def refuse(*args, **kwargs):
        raise AssertionError("a request built a witness")
    for name in ("GCCollection", "_gcs", "_gcc", "gcs_weight", "gcc_weight"):
        monkeypatch.setattr(formulas, name, refuse)
    for model in ("gcs", "gcc"):
        assert [(expand_model(seven_mixed, a, model), witness_count(seven_mixed, a, model))
                for a in vectors] == want


def test_crosscheck_completes_each_neighbourhood_once_per_row(monkeypatch):
    """linear-gcc, matching and tpath share one completed neighbourhood per
    row and factor, and nothing is kept across rows."""
    q = random_type_a_quiver(6, random.Random(4242))
    calls = _count_calls(monkeypatch, ((harness, "_complete"),))
    report = crosscheck(q, models=("linear-gcc", "matching", "tpath"))
    assert report.passed and calls == {"_complete": len(report.rows)}
    calls["_complete"] = 0
    report = crosscheck(q, models=("mutation", "matching", "tpath"), box=2)
    assert report.passed
    factors = [len(set(geometry.decompose(q, r.dvector))) for r in report.rows]
    assert max(factors) > 1 and calls == {"_complete": sum(factors)}


def test_crosscheck_orders_each_path_once_per_row(monkeypatch):
    """Every per-variable model takes a factor's path order from `decompose`:
    one `path_order` per row whose vector is 0-1 (the path shortcut), none
    for a row that is decomposed into pipelines.  broken-line relabels each
    factor in that order, and checks no path again."""
    q = random_type_a_quiver(6, random.Random(4242))
    calls = _count_calls(monkeypatch, [(m, "path_order") for m in (geometry, engine, quiver)])
    report = crosscheck(q, models=("mutation", "linear-gcc", "matching", "tpath",
                                   "gcs-variable"), box=2)
    assert report.passed and len(report.rows) > 20
    rows = sum(set(r.dvector) <= {0, 1} for r in report.rows)
    assert calls == {"path_order": rows}
    relabellings = _count_calls(monkeypatch, [(scattering, "_relabel")])
    calls["path_order"] = 0
    assert crosscheck(q, models=("broken-line",), box=2).passed
    assert relabellings["_relabel"] > rows
    assert calls == {"path_order": rows}


def test_broken_line_requests_touch_only_their_neighbourhood(monkeypatch):
    """On a 1,000-vertex quiver, short-arc broken-line requests build no
    Quiver (the path is relabelled through maps over the ambient one, which
    hold the path and its neighbours alone), evaluate directions only there,
    and check the default endpoint at most once per (path length,
    principal)."""
    rng = random.Random(1001)
    q = random_type_a_quiver(1000, rng)
    geometry.decompose(q, (1,) + (0,) * 999)  # the once-per-quiver checks
    scattering._default_request.cache_clear()
    built, outside, validated, near = [], [], [], set()
    post_init = Quiver.__post_init__
    monkeypatch.setattr(Quiver, "__post_init__", lambda p: built.append(p.n) or post_init(p))
    direction, validate = scattering._direction, scattering._validate
    relabel, rels = scattering._relabel, []
    monkeypatch.setattr(scattering, "_relabel",
                        lambda *args: rels.append(relabel(*args)) or rels[-1])

    def counted_direction(rel, s):
        outside.extend(rel.to_old[r] for r, *_ in rel.local if rel.to_old[r] not in near)
        return direction(rel, s)
    monkeypatch.setattr(scattering, "_direction", counted_direction)
    monkeypatch.setattr(scattering, "_validate",
                        lambda sc: validated.append((sc.n, len(sc.ints) > sc.nprime))
                        or validate(sc))
    for k in range(20):
        support = _random_path(q, rng, k % 4 + 1)
        b = tuple(int(v in support) for v in q.vertices)
        near.clear()
        near.update(support.union(*(q.neighbors(v) for v in support)))
        rels.clear()
        count = witness_count(q, b, "broken-line")
        assert expand_model(q, b, "broken-line").coefficient_sum() == count
        assert len(scattering.broken_lines(q, support, principal=True)) == count
        assert len(rels) == 3 and all(rel.to_new.keys() == near for rel in rels)
    assert built == [] and outside == []
    assert len(validated) == len(set(validated)) == 8
