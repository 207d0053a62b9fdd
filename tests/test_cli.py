import json
import math
import os
from pathlib import Path
import subprocess
import sys
import time

import pytest

import clusterkit
from clusterkit import scattering
from clusterkit.cli import main
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
], ids=["frozen-token", "empty-frozen-entry", "arrow-token", "not-utf8",
        "pipelines-svg", "snake-svg", "broken-lines-svg", "json-float-n",
        "json-float-arrow-end", "json-bool-frozen", "json-string-arrow"])
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


def test_count_matching_on_the_1100_vertex_path(tmp_path, capsys):
    n = 1100
    path = tmp_path / "path.txt"
    path.write_text(to_text(Quiver(n, tuple((i, i + 1) for i in range(1, n)))))
    code, out, err = run(capsys, "count", "--quiver", str(path), "--model", "matching",
                         "--dvector", ",".join(["1"] * n))
    assert (code, out, err) == (0, "1101\n", "")


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
])
def test_a_fresh_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """Each command imports only what it runs, in a new interpreter: a count
    loads no model module but its own, and a d-vector of the wrong length
    fails before any model module loads."""
    path = tmp_path / "q.txt"
    path.write_text(to_text(Quiver(4, ((1, 2), (2, 3), (3, 4)))))
    src = str(Path(clusterkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LOADED,
                           *(a.format(q=path) for a in argv)],
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
