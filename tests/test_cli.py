import json
import math
import os
from pathlib import Path
import random
import re
import signal
import subprocess
import sys
import time

import pytest

import clusterkit
from clusterkit import MODELS, scattering
from clusterkit.cli import main
from clusterkit.harness import random_type_a_quiver
from clusterkit.quiver import Quiver, to_text, to_json_dict


@pytest.fixture
def three_cycle_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(to_text(Quiver(3, ((1, 2), (2, 3), (3, 1)))))
    return str(path)


@pytest.fixture
def table_quiver_file(tmp_path):
    q = Quiver(7, ((1, 2), (2, 5), (5, 1), (2, 6), (6, 3), (3, 2), (3, 4), (6, 7)))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(to_json_dict(q)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_gcc(three_cycle_file, capsys):
    code, out, err = run(capsys, "expand", "--quiver", three_cycle_file,
                         "--model", "gcc", "--dvector", "2,2,2")
    assert code == 0 and err == ""
    assert out.strip().endswith("/(x1^2*x2^2*x3^2)")
    assert out.count("+") == 9


def test_expand_zero_vector(three_cycle_file, capsys):
    code, out, _ = run(capsys, "expand", "--quiver", three_cycle_file,
                       "--model", "mutation", "--dvector", "0,0,0")
    assert code == 0 and out.strip() == "1"


def test_expand_models_agree_bytewise(table_quiver_file, capsys):
    outs = []
    for model in ("tpath", "matching"):
        code, out, _ = run(capsys, "expand", "--quiver", table_quiver_file,
                           "--model", model, "--dvector", "1,1,1,0,0,0,0")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_expand_json_format(three_cycle_file, capsys):
    code, out, _ = run(capsys, "expand", "--quiver", three_cycle_file,
                       "--model", "gcs", "--dvector", "1,1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3


def test_invalid_input_error_envelope(three_cycle_file, capsys):
    code, out, err = run(capsys, "expand", "--quiver", three_cycle_file,
                         "--model", "gcs", "--dvector", "1,1,1")
    assert code == 2
    envelope = json.loads(err)
    assert envelope["code"] == "NotInW"
    assert "message" in envelope and envelope["context"]["command"] == "expand"


def test_bad_dvector_length(three_cycle_file, capsys):
    code, _, err = run(capsys, "expand", "--quiver", three_cycle_file,
                       "--model", "gcs", "--dvector", "1,1")
    assert code == 2
    assert json.loads(err)["code"] == "InvalidInput"


def test_count_and_witnesses(three_cycle_file, capsys):
    code, out, _ = run(capsys, "count", "--quiver", three_cycle_file,
                       "--model", "gcs", "--dvector", "2,2,2")
    assert code == 0 and out.strip() == "27"
    code, out, _ = run(capsys, "count", "--quiver", three_cycle_file,
                       "--model", "gcc", "--dvector", "2,2,2",
                       "--list-witnesses")
    assert code == 0
    witnesses = json.loads(out)
    assert len(witnesses) == 27


def test_one_vertex_gcc_listing_falls_back_to_linear_gcc(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("n 1 frozen none\n")
    args = ("--quiver", str(path), "--model", "gcc", "--dvector", "2")
    code, out, _ = run(capsys, "count", *args)
    assert code == 0 and out.strip() == "4"
    code, out, err = run(capsys, "count", *args, "--list-witnesses")
    assert code == 0 and err == ""
    assert math.prod(len(f["witnesses"]) for f in json.loads(out)) == 4


def test_decompose_output(three_cycle_file, capsys):
    code, out, _ = run(capsys, "decompose", "--quiver", three_cycle_file,
                       "--dvector", "2,2,2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_decompose_negative_entries(three_cycle_file, capsys):
    code, out, _ = run(capsys, "decompose", "--quiver", three_cycle_file,
                       "--dvector=-2,0,0")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows == [{"initial": 1, "exponent": 2}]


def test_pipelines_svg(three_cycle_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "pipelines", "--quiver", three_cycle_file,
                       "--dvector", "2,2,2", "--svg", str(svg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    assert svg.read_text().startswith("<svg")


def test_snake_svg(table_quiver_file, tmp_path, capsys):
    svg = tmp_path / "snake.svg"
    code, out, _ = run(capsys, "snake", "--quiver", table_quiver_file,
                       "--dvector", "1,1,1,0,0,0,0", "--svg", str(svg))
    assert code == 0
    assert "matchings: 5" in out
    assert svg.read_text().startswith("<svg")


def test_broken_lines_command(tmp_path, capsys):
    q = Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3)))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(to_json_dict(q)))
    svg = tmp_path / "line.svg"
    code, out, _ = run(capsys, "broken-lines", "--quiver", str(path),
                       "--subquiver", "1,2,3", "--svg", str(svg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("theta ")
    rows = [json.loads(l) for l in lines[:-1]]
    assert len(rows) == 5
    assert {tuple(r["s"]) for r in rows} == {
        (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)}
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("principal", [[], ["--principal"]])
def test_broken_lines_builds_each_line_once(tmp_path, capsys, monkeypatch, principal):
    built = []
    original = scattering._build

    def counted(*args):
        built.append(args)
        return original(*args)
    monkeypatch.setattr(scattering, "_build", counted)
    q = Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3)))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(to_json_dict(q)))
    code, out, _ = run(capsys, "broken-lines", "--quiver", str(path),
                       "--subquiver", "1,2,3", *principal)
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1].startswith("theta ")
    assert len(built) == len(lines) - 1 == 5


@pytest.mark.parametrize("principal", [[], ["--principal"]])
def test_broken_lines_relabels_the_path_once(tmp_path, capsys, monkeypatch, principal):
    calls = []
    original = scattering.relabel_for_path
    monkeypatch.setattr(scattering, "relabel_for_path",
                        lambda *args: calls.append(args) or original(*args))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(to_json_dict(Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3))))))
    code, out, _ = run(capsys, "broken-lines", "--quiver", str(path),
                       "--subquiver", "1,2,3", "--svg", str(tmp_path / "l.svg"), *principal)
    assert code == 0 and out.splitlines()[-1].startswith("theta ")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("snake", "--dvector", "{support}"),
    ("snake", "--dvector", "{support}", "--svg", "{svg}"),
    ("broken-lines", "--subquiver", "{vertices}"),
    ("broken-lines", "--subquiver", "{vertices}", "--svg", "{svg}"),
], ids=["snake", "snake-svg", "broken-lines", "broken-lines-svg"])
def test_a_frozen_support_is_refused_as_mutation_refuses_it(tmp_path, capsys, argv):
    """The path check refuses a frozen vertex before anything is drawn; the
    same command on the unfrozen arc still runs."""
    path, svg = tmp_path / "frozen.txt", tmp_path / "out.svg"
    path.write_text("n 3 frozen 1\n1 2\n2 3\n")
    for support, vertices, want in (("1,1,0", "1,2", 2), ("0,1,1", "2,3", 0)):
        code, out, err = run(capsys, argv[0], "--quiver", str(path), *(
            a.format(support=support, vertices=vertices, svg=svg) for a in argv[1:]))
        assert code == want and svg.exists() == (want == 0 and "--svg" in argv)
        if want:
            assert (out, err) == ("", json.dumps(
                {"code": "FrozenVertex", "message": "cannot mutate frozen vertex 1",
                 "context": {"command": argv[0]}}) + "\n")


def test_crosscheck_pass_and_determinism(capsys):
    code1, out1, _ = run(capsys, "crosscheck", "--random", "5", "--seed", "42")
    code2, out2, _ = run(capsys, "crosscheck", "--random", "5", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("RESULT PASS")


def test_crosscheck_json(three_cycle_file, capsys):
    code, out, _ = run(capsys, "crosscheck", "--quiver", three_cycle_file,
                       "--format", "json", "--models", "mutation,gcs,tpath")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["rows"]) == 6


def test_crosscheck_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text(to_text(Quiver(1, ())))
    code, out, _ = run(capsys, "crosscheck", "--quiver", str(path))
    assert code == 0
    assert "RESULT PASS" in out


def test_enumerate_variables(three_cycle_file, capsys):
    code, out, _ = run(capsys, "enumerate-variables", "--quiver", three_cycle_file)
    assert code == 0
    table = json.loads(out)
    assert len(table) == 9
    assert table["-1,0,0"] == "x1"


def test_report_table_stable(table_quiver_file, capsys):
    code1, out1, _ = run(capsys, "report-table", "--quiver", table_quiver_file)
    code2, out2, _ = run(capsys, "report-table", "--quiver", table_quiver_file)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "| (1,1,1,1,0,0,0) |" in out1


def test_missing_quiver_file(capsys):
    code, _, err = run(capsys, "expand", "--quiver", "/nonexistent.json",
                       "--model", "gcs", "--dvector", "1")
    assert code == 2
    assert json.loads(err)["code"] == "InvalidInput"


def test_mutation_expands_on_a_quiver_with_a_frozen_vertex(tmp_path, capsys):
    path = tmp_path / "frozen.txt"
    path.write_text("n 3 frozen 3\n1 2\n2 3\n")
    for model in ("mutation", "gcs", "matching", "tpath", "broken-line"):
        code, out, err = run(capsys, "expand", "--quiver", str(path), "--model", model,
                             "--dvector", "1,0,0")
        assert (code, out, err) == (0, "(1 + x2)/(x1)\n", "")


@pytest.mark.parametrize("frozen", [1, 2, 3])
def test_crosscheck_and_report_table_leave_out_frozen_supports(tmp_path, capsys, frozen):
    path = tmp_path / "frozen.txt"
    path.write_text(f"n 3 frozen {frozen}\n1 2\n2 3\n")
    code, out, err = run(capsys, "crosscheck", "--quiver", str(path), "--box", "2",
                         "--format", "json")
    data = json.loads(out)
    assert (code, err, data["passed"]) == (0, "", True)
    assert len(data["models"]) == 8 and data["rows"]
    assert all(row["dvector"][frozen - 1] == 0 for row in data["rows"])
    code, out, err = run(capsys, "report-table", "--quiver", str(path))
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert rows and all(r.split(" | ")[0][3:-1].split(",")[frozen - 1] == "0" for r in rows)


def test_enumerate_variables_with_a_frozen_vertex_first(tmp_path, capsys):
    path = tmp_path / "frozen.txt"
    path.write_text("n 3 frozen 1\n1 2\n2 3\n")
    code, out, err = run(capsys, "enumerate-variables", "--quiver", str(path))
    assert (code, err) == (0, "")
    table = json.loads(out)
    assert sorted(table) == ["-1,0", "0,-1", "0,1", "1,0", "1,1"]
    assert table["1,1"] == "x1*x2^-1*x3^-1 + x2^-1 + x1*x3^-1"


_A3_TEXT = b"n 3 frozen none\n1 2\n2 3\n"


@pytest.mark.parametrize("quiver, argv, message", [
    (b"n 3 frozen a\n1 2\n", ("expand", "--dvector", "1,0,0"), "'n 3 frozen a'"),
    (b"n 3 frozen 1,,2\n1 2\n", ("expand", "--dvector", "1,0,0"), "'n 3 frozen 1,,2'"),
    (b"n 3 frozen none\n1 x\n", ("expand", "--dvector", "1,0,0"), "'1 x'"),
    (_A3_TEXT + b"\xff\xfe\n", ("expand", "--dvector", "1,0,0"), "cannot read quiver file"),
    (_A3_TEXT, ("pipelines", "--dvector", "1,1,0", "--svg", "{bad}"), "cannot write SVG"),
    (_A3_TEXT, ("snake", "--dvector", "1,1,0", "--svg", "{bad}"), "cannot write SVG"),
    (_A3_TEXT, ("broken-lines", "--subquiver", "1,2", "--svg", "{bad}"), "cannot write SVG"),
    # JSON numbers that are not integers are refused, not truncated or cast
    (b'{"n": 3.7, "arrows": [[1, 2.9], [2.2, 3]]}', ("expand", "--dvector", "1,1,1",
                                                    "--model", "gcs"), "bad quiver JSON"),
    (b'{"n": 3, "arrows": [[1, 2], [2, 3.0]]}', ("expand", "--dvector", "1,1,1"),
     "bad quiver JSON"),
    (b'{"n": 3, "arrows": [[1, 2], [2, 3]], "frozen": [true]}',
     ("expand", "--dvector", "1,1,1"), "bad quiver JSON"),
    (b'{"n": 3, "arrows": ["12", [2, 3]]}', ("expand", "--dvector", "1,1,1"),
     "bad quiver JSON"),
    (b"", ("expand", "--dvector", "1"), "empty quiver file"),
    (b"\n  \n", ("count", "--dvector", "1"), "empty quiver file"),
    (b"n3 frozen none\n1 2\n", ("expand", "--dvector", "1,0,0"),
     "bad header line: 'n3 frozen none'"),
    (b"1 2\n2 3\n", ("decompose", "--dvector", "1,0,0"), "bad header line: '1 2'"),
], ids=["frozen-token", "empty-frozen-entry", "arrow-token", "not-utf8",
        "pipelines-svg", "snake-svg", "broken-lines-svg", "json-float-n",
        "json-float-arrow-end", "json-bool-frozen", "json-string-arrow",
        "empty-file", "blank-file", "header-without-space", "header-missing"])
def test_file_errors_are_invalid_input(tmp_path, capsys, quiver, argv, message):
    """Malformed or undecodable quiver files and unwritable SVG paths end in
    the error envelope with exit 2, never in a traceback."""
    path = tmp_path / "q.txt"
    path.write_bytes(quiver)
    bad = str(tmp_path / "no-such-dir" / "out.svg")
    code, out, err = run(capsys, argv[0], "--quiver", str(path),
                         *(arg.format(bad=bad) for arg in argv[1:]))
    assert code == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["code"] == "InvalidInput" and message in envelope["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["report-table", "crosscheck"])
def test_huge_disconnected_quiver_is_refused_at_once(tmp_path, capsys, command):
    """Two million vertices and one arrow: too few arrows to connect them,
    so the refusal comes before any per-vertex work."""
    path = tmp_path / "q.txt"
    path.write_text("n 2000000 frozen none\n1 2\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "--quiver", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {"code": "DisconnectedQuiver",
                               "message": "type-A test requires a connected quiver",
                               "context": {"command": command}}


def test_crosscheck_json_timings(three_cycle_file, capsys):
    argv = ("crosscheck", "--quiver", three_cycle_file, "--format", "json",
            "--models", "mutation,gcs")
    code, out, _ = run(capsys, *argv, "--timings")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    for row in rows:
        assert list(row["timings"]) == ["mutation", "gcs"]
        assert all(ms >= 0 for ms in row["timings"].values())
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert all("timings" not in row for row in json.loads(out)["rows"])


def test_crosscheck_text_timings(three_cycle_file, capsys):
    """`--timings` in text adds one line of per-model times under each row
    and changes nothing else."""
    argv = ("crosscheck", "--quiver", three_cycle_file, "--models", "mutation,gcs")
    code, out, err = run(capsys, *argv, "--timings")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    times = [ln for ln in lines if ln.startswith("      ")]
    assert len(times) == 6 and all(
        re.fullmatch(r" {6}mutation:\d+\.\dms gcs:\d+\.\dms", ln) for ln in times)
    assert all(lines[k - 1].startswith("PASS  d=") for k, ln in enumerate(lines) if ln in times)
    assert run(capsys, *argv) == (0, "".join(ln + "\n" for ln in lines if ln not in times), "")


@pytest.mark.parametrize("argv, message", [
    (("snake", "--quiver", "{q}", "--dvector", "1,2,0"),
     "snake diagrams are drawn per variable: use a 0-1 d-vector"),
    (("snake", "--quiver", "{q}", "--dvector", "-1,0,0"),
     "snake diagrams are drawn per variable: use a 0-1 d-vector"),
    (("crosscheck",), "crosscheck needs --quiver or --random N"),
], ids=["snake-two", "snake-negative", "crosscheck-no-quiver"])
def test_refused_options_print_one_envelope(three_cycle_file, capsys, argv, message):
    """Exit 2, nothing on stdout, and the whole envelope on stderr."""
    assert run(capsys, *(a.format(q=three_cycle_file) for a in argv)) == (2, "", json.dumps(
        {"code": "InvalidInput", "message": message, "context": {"command": argv[0]}}) + "\n")


def test_snake_matching_out_of_range(table_quiver_file, tmp_path, capsys):
    svg = tmp_path / "snake.svg"
    for index in ("99", "-1"):  # a negative index would draw from the end
        code, out, err = run(capsys, "snake", "--quiver", table_quiver_file,
                             "--dvector", "1,1,1,0,0,0,0", "--svg", str(svg),
                             "--matching", index)
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "InvalidInput"
        assert not svg.exists()


def test_broken_lines_line_out_of_range(three_cycle_file, tmp_path, capsys):
    svg = tmp_path / "l.svg"
    for index in ("99", "-1"):
        code, out, err = run(capsys, "broken-lines", "--quiver", three_cycle_file,
                             "--subquiver", "1,2", "--svg", str(svg), "--line", index)
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "InvalidInput"
        assert not svg.exists()


@pytest.mark.parametrize("argv", [
    ("crosscheck", "--models", "gcs,gcs"),
    ("crosscheck", "--box", "-2"),
    ("enumerate-variables", "--max-seeds", "-5"),
])
def test_bad_option_values_are_invalid_input(three_cycle_file, capsys, argv):
    code, out, err = run(capsys, argv[0], "--quiver", three_cycle_file, *argv[1:])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "InvalidInput"


@pytest.mark.parametrize("plane", ["a,b", "1", "1,99"])
def test_broken_lines_bad_plane(three_cycle_file, tmp_path, capsys, plane):
    code, out, err = run(capsys, "broken-lines", "--quiver", three_cycle_file,
                         "--subquiver", "1,2", "--svg", str(tmp_path / "l.svg"),
                         "--plane", plane)
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "InvalidInput"


def test_broken_lines_rejects_a_repeated_vertex(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text(to_text(Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3)))))
    code, out, err = run(capsys, "broken-lines", "--quiver", str(path), "--subquiver", "1,1,2")
    assert code == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["code"] == "InvalidInput" and "repeats a vertex" in envelope["message"]


@pytest.mark.parametrize("arrows", ["1 2\n3 1\n3 2\n", "1 2\n1 2\n3 1\n"],
                         ids=["acyclic-triangle", "double-arrow"])
@pytest.mark.parametrize("svg", [False, True], ids=["text", "svg"])
def test_broken_lines_off_type_a_says_not_type_a(tmp_path, capsys, arrows, svg):
    """Lines on these infinite-type quivers fail their certificates
    (CoordinateOutOfRange, PositivityViolation); the command names the
    input instead, as expand --model broken-line does, and draws nothing."""
    path, drawn = tmp_path / "q.txt", tmp_path / "l.svg"
    path.write_text("n 3 frozen none\n" + arrows)
    code, out, err = run(capsys, "broken-lines", "--quiver", str(path), "--subquiver", "1,2",
                         *(["--svg", str(drawn)] if svg else []))
    assert code == 2 and out == "" and not drawn.exists()
    assert json.loads(err) == {"code": "NotTypeA", "message": "operation requires a type-A quiver",
                               "context": {"command": "broken-lines"}}
    code, _, err = run(capsys, "expand", "--quiver", str(path), "--model", "broken-line",
                       "--dvector", "1,1,0")
    assert code == 2 and json.loads(err)["code"] == "NotTypeA"


@pytest.mark.parametrize("arrows", ["1 2\n3 2\n4 2\n", "1 2\n2 3\n3 4\n4 1\n"], ids=["D4", "4-cycle"])
def test_broken_lines_still_draws_lines_where_they_certify(tmp_path, capsys, arrows):
    """The path check asks for no type-A quiver: on D4 and the oriented
    4-cycle the lines of an arc certify, and the command prints them."""
    path = tmp_path / "q.txt"
    path.write_text("n 4 frozen none\n" + arrows)
    code, out, err = run(capsys, "broken-lines", "--quiver", str(path), "--subquiver", "1,2")
    assert code == 0 and err == "" and out.splitlines()[-1].startswith("theta ")


def test_count_matching_on_the_1100_vertex_path(tmp_path, capsys):
    n = 1100
    path = tmp_path / "path.txt"
    path.write_text(to_text(Quiver(n, tuple((i, i + 1) for i in range(1, n)))))
    code, out, err = run(capsys, "count", "--quiver", str(path), "--model", "matching",
                         "--dvector", ",".join(["1"] * n))
    assert (code, out, err) == (0, "1101\n", "")


def timed(capsys, *argv):
    """One in-process command that must succeed quietly within 2 s: gcs and
    gcc count and sum by transfer, never walking their witnesses.  A timer
    stops a command that overruns, which by enumeration would run for days."""
    def overrun(*_):
        pytest.fail(f"{argv} took over 2 s")
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and err == "", argv
    return out


@pytest.mark.parametrize("model", ["gcs", "gcc"])
def test_a2_forty_times_the_first_arc(tmp_path, capsys, model):
    """(40, 0) on A2 has 2^40 witnesses and 41 terms, the binomials of 40."""
    path = tmp_path / "a2.txt"
    path.write_text("n 2 frozen none\n1 2\n")
    args = ("--quiver", str(path), "--model", model, "--dvector", "40,0")
    assert timed(capsys, "count", *args) == f"{2 ** 40}\n"
    value = timed(capsys, "expand", *args)
    assert value == timed(capsys, "expand", *args[:3], "gcs", *args[4:])
    assert value.count(" + ") == 40 and f" + {math.comb(40, 20)}*x2^20 + " in value


@pytest.mark.parametrize("model", ["gcs", "gcc", "gcs-variable"])
def test_the_zig_zag_60_counts_its_fibonacci_witnesses(tmp_path, capsys, model):
    n = 60
    path = tmp_path / "zigzag.txt"
    path.write_text(to_text(Quiver(n, tuple((i, i + 1) if i % 2 else (i + 1, i)
                                            for i in range(1, n)))))
    out = timed(capsys, "count", "--quiver", str(path), "--model", model,
                "--dvector", ",".join(["1"] * n))
    assert out == "4052739537881\n"  # F(62)


def test_closed_stdout_exits_quietly():
    """Writing to a pipe nobody reads ends with 141 and no traceback."""
    src = str(Path(clusterkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clusterkit.cli", "crosscheck",
             "--random", "3", "--seed", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_crosscheck_random_zero_is_a_size_not_a_missing_option(three_cycle_file, capsys):
    """`--random 0` asks for a quiver on no vertices: it fails like any size
    below one, also when a quiver file is given."""
    want = run(capsys, "crosscheck", "--random", "-3")
    assert want[0] == 2 and json.loads(want[2])["message"] == "quiver needs at least one vertex"
    assert run(capsys, "crosscheck", "--random", "0") == want
    assert run(capsys, "crosscheck", "--random", "0", "--quiver", three_cycle_file) == want


# the clusterkit modules every command loads: the package and what it imports
BASE = {"cli", "errors", "laurent", "quiver"}
LOADED = """import sys
from clusterkit import cli
try:
    cli.main(sys.argv[1:])
finally:
    print(*sorted(m for m in sys.modules if m.startswith("clusterkit.")), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, extra", [
    (["count", "--quiver", "{q}", "--dvector", "1,1,0,0", "--model", "gcs"],
     {"formulas", "geometry", "harness"}),
    (["count", "--quiver", "{q}", "--dvector", "0,1,1,0", "--model", "matching"],
     {"geometry", "harness", "snake"}),
    (["decompose", "--quiver", "{q}", "--dvector", "2,1,0,-1"], {"geometry"}),
    (["expand", "--quiver", "{q}", "--dvector", "1,1", "--model", "broken-line"], set()),
    (["--help"], set()),
    (["expand", "--help"], set()),
    (["snake", "--quiver", "{q}", "--dvector", "1,1,1,0"], {"geometry", "snake"}),
    # the bijections load for no command, and the drawings only under --svg
    (["count", "--quiver", "{q}", "--dvector", "0,1,1,0", "--model", "matching",
      "--list-witnesses"], {"geometry", "harness", "snake"}),
    (["broken-lines", "--quiver", "{q}", "--subquiver", "2,3"],
     {"geometry", "formulas", "scattering"}),
    (["pipelines", "--quiver", "{q}", "--dvector", "1,1,0,0", "--svg", "{svg}"],
     {"geometry", "svg"}),
    (["snake", "--quiver", "{q}", "--dvector", "1,1,1,0", "--svg", "{svg}"],
     {"geometry", "snake", "svg"}),
])
def test_a_fresh_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """Each command imports only what it runs, in a new interpreter: a count
    loads no model module but its own, and a d-vector of the wrong length
    fails before any model module loads."""
    path = tmp_path / "q.txt"
    path.write_text(to_text(Quiver(4, ((1, 2), (2, 3), (3, 4)))))
    src = str(Path(clusterkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LOADED,
                           *(a.format(q=path, svg=tmp_path / "out.svg") for a in argv)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    loaded = proc.stderr.splitlines()[-1].split()
    assert loaded == sorted(f"clusterkit.{m}" for m in BASE | extra)


@pytest.mark.parametrize("arrows, doubled", [
    (((1, 2), (1, 2)), "1 -> 2"),                                  # Kronecker
    (((1, 2), (1, 2), (2, 3), (2, 3), (3, 1), (3, 1)), "1 -> 2"),  # Markov
    (((4, 3), (4, 2), (2, 3), (3, 1)), "4 -> 3"),                  # once mutated at 2
])
def test_enumerate_variables_refuses_infinite_type_at_once(tmp_path, capsys, arrows, doubled):
    path = tmp_path / "q.txt"
    path.write_text(to_text(Quiver(max(map(max, arrows)), arrows)))
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate-variables", "--quiver", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    envelope = json.loads(err)
    assert envelope["code"] == "ExplosionGuard"
    assert envelope["message"].startswith(f"double arrow {doubled} ")


# -- the error contract on seeded random commands ----------------------------------


def _fuzz_quiver(rng: random.Random) -> Quiver:
    """n 1-6: a random type-A quiver or random arrows (often not type A, or
    not connected), now and then with a repeated arrow; each vertex is
    frozen with probability 0.1."""
    n = rng.randint(1, 6)
    if rng.random() < 0.6:
        arrows = list(random_type_a_quiver(n, rng).arrows)
    else:
        arrows = [(i, j) if rng.random() < 0.5 else (j, i)
                  for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.45]
    if arrows and rng.random() < 0.1:
        arrows.append(rng.choice(arrows))
    return Quiver(n, tuple(arrows), frozenset(v for v in range(1, n + 1) if rng.random() < 0.1))


def _fuzz_argv(rng: random.Random, n: int, svg: str) -> list[str]:
    """One command of a random kind on a quiver with n vertices, with random
    options and edge values: wrong lengths, negative and out-of-range
    entries, bad planes and indices, negative boxes and seed budgets."""
    def dvector():
        m = n if rng.random() < 0.9 else max(n + rng.choice((-1, 1)), 1)
        return ",".join(str(rng.choice((0, 0, 1, 1, -1, 2))) for _ in range(m))
    command = rng.choice(("expand", "count", "decompose", "pipelines", "snake", "broken-lines",
                          "crosscheck", "enumerate-variables", "report-table"))
    argv = [command]
    if command in ("expand", "count", "decompose", "pipelines"):
        argv.append("--dvector=" + dvector())
        if command in ("expand", "count"):
            argv += ["--model", rng.choice(MODELS)]
        if command == "expand":
            argv += ["--format", rng.choice(("text", "json"))]
        if command == "count" and rng.random() < 0.3:
            argv.append("--list-witnesses")
        if command == "pipelines" and rng.random() < 0.3:
            argv += ["--svg", svg]
    elif command == "snake":
        argv.append("--dvector=" + (dvector() if rng.random() < 0.2
                                    else ",".join(str(rng.randint(0, 1)) for _ in range(n))))
        if rng.random() < 0.4:
            argv += ["--svg", svg, "--matching", str(rng.choice((0, 1, 2, 99, -1)))]
    elif command == "broken-lines":
        vertices = rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
        if rng.random() < 0.1:
            vertices.append(rng.choice((0, n + 1, vertices[0])))
        argv.append("--subquiver=" + ",".join(map(str, vertices)))
        if rng.random() < 0.3:
            argv.append("--principal")
        if rng.random() < 0.4:
            argv += ["--svg", svg, "--line", str(rng.choice((0, 1, 99, -1))), "--plane",
                     rng.choice(("1,2", "2,1", "1,1", "0,1", "1,99", "1,2,3"))]
    elif command == "crosscheck":
        if rng.random() < 0.2:
            argv += ["--random", str(rng.randint(-1, 5)), "--seed", str(rng.randint(0, 9))]
        argv += ["--format", rng.choice(("text", "json"))]
        if rng.random() < 0.4:
            argv += ["--models", ",".join(rng.choices(MODELS, k=rng.randint(1, 3)))]
        if n <= 3 and rng.random() < 0.3:
            argv += ["--box", str(rng.choice((-1, 1, 2)))]
        if rng.random() < 0.3:
            argv.append("--timings")
    elif command == "enumerate-variables" and (n > 4 or rng.random() < 0.5):
        argv += ["--max-seeds", str(rng.choice((-1, 0, 5, 200)))]
    return argv


def _frozen_support(argv: list[str], q: Quiver) -> bool:
    """Whether expand, count, snake or broken-lines is asked for a support
    with a frozen vertex: a positive entry of the d-vector, or a subquiver
    vertex."""
    if argv[0] not in ("expand", "count", "snake", "broken-lines"):
        return False
    for arg in argv:
        if arg.startswith("--dvector="):
            return any(x > 0 and v in q.frozen
                       for v, x in enumerate(map(int, arg[10:].split(",")), 1))
        if arg.startswith("--subquiver="):
            return not q.frozen.isdisjoint(map(int, arg[12:].split(",")))
    return False


def test_seeded_commands_keep_the_error_contract(tmp_path, capsys):
    """400 seeded commands of all nine kinds and every model, run
    in-process: each exits 0, 1 (a crosscheck that fails) or 2 within 3 s,
    and exit 2 prints one envelope and nothing on stdout, with no
    traceback.  expand, count, snake and broken-lines never succeed on a
    frozen support."""
    rng = random.Random(26)
    exits, frozen, models = {}, set(), set()
    for _ in range(400):
        q = _fuzz_quiver(rng)
        path = tmp_path / rng.choice(("q.txt", "q.json"))
        path.write_text(to_text(q) if path.suffix == ".txt" else json.dumps(to_json_dict(q)))
        argv = _fuzz_argv(rng, q.n, str(tmp_path / "out.svg"))
        if "--random" not in argv:
            argv[1:1] = ["--quiver", str(path)]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 3, argv
        assert code in (0, 2) or (code, argv[0]) == (1, "crosscheck"), argv
        assert "Traceback" not in err, argv
        if code == 2:
            envelope = json.loads(err)
            assert list(envelope) == ["code", "message", "context"], argv
            assert envelope["context"] == {"command": argv[0]} and out == "", argv
        if _frozen_support(argv, q):
            assert code != 0, (argv, q)
            frozen.add(argv[0])
        exits.setdefault(argv[0], set()).add(code)
        if "--model" in argv:
            models.add(argv[argv.index("--model") + 1])
    assert len(exits) == 9 and all({0, 2} <= codes for codes in exits.values()), exits
    assert models == set(MODELS)
    assert frozen == {"expand", "count", "snake", "broken-lines"}
