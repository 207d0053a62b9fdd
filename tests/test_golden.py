"""CLI output pinned byte for byte.

Each case runs one command in-process through `cli.main` on quiver files
written to a scratch directory and compares its exit code, stdout, stderr
and any `--svg` file with the files under `tests/golden/`.  To rewrite the
golden files after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path
import sys
import tempfile

import pytest

from clusterkit.cli import main
from clusterkit.quiver import Quiver, to_json_dict, to_text

GOLDEN = Path(__file__).parent / "golden"

QUIVERS = {
    "tri": ("tri.txt", to_text(Quiver(3, ((1, 2), (2, 3), (3, 1))))),
    "table": ("table.json", json.dumps(to_json_dict(Quiver(7, (
        (1, 2), (2, 5), (5, 1), (2, 6), (6, 3), (3, 2), (3, 4), (6, 7)))))),
    "four": ("four.txt", to_text(Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3))))),
    "frozen": ("frozen.txt", to_text(Quiver(2, ((1, 2),), frozenset({2})))),
}

MODELS = ("mutation", "gcs", "gcc", "linear-gcc", "gcs-variable", "matching",
          "tpath", "broken-line")

# name -> argv; "{tri}", "{table}", "{four}" and "{frozen}" are quiver files,
# "{svg}" the SVG path of the case
CASES = {
    **{f"expand-{m}-text": ("expand", "--quiver", "{table}", "--model", m,
                            "--dvector", "1,1,1,0,0,0,0") for m in MODELS},
    **{f"expand-{m}-json": ("expand", "--quiver", "{tri}", "--model", m,
                            "--dvector", "2,2,-1", "--format", "json") for m in MODELS},
    "count-gcs": ("count", "--quiver", "{tri}", "--dvector", "2,2,2"),
    "count-matching": ("count", "--quiver", "{table}", "--model", "matching",
                       "--dvector", "1,1,1,1,0,0,0"),
    "count-gcc-list": ("count", "--quiver", "{tri}", "--model", "gcc",
                       "--dvector", "1,1,0", "--list-witnesses"),
    "count-tpath-list": ("count", "--quiver", "{four}", "--model", "tpath",
                         "--dvector", "1,1,1,0", "--list-witnesses"),
    "expand-negative-first": ("expand", "--quiver", "{tri}", "--model", "mutation",
                              "--dvector", "-1,1,0"),
    "decompose": ("decompose", "--quiver", "{tri}", "--dvector", "2,2,-1"),
    "pipelines": ("pipelines", "--quiver", "{tri}", "--dvector", "2,2,2", "--svg", "{svg}"),
    "snake": ("snake", "--quiver", "{table}", "--dvector", "1,1,1,0,0,0,0",
              "--svg", "{svg}", "--matching", "2"),
    "broken-lines": ("broken-lines", "--quiver", "{four}", "--subquiver", "1,2,3",
                     "--svg", "{svg}", "--line", "4", "--plane", "1,3"),
    "broken-lines-principal": ("broken-lines", "--quiver", "{four}", "--subquiver", "3,2",
                               "--principal"),
    "crosscheck-text": ("crosscheck", "--quiver", "{four}"),
    "crosscheck-json": ("crosscheck", "--random", "5", "--seed", "3", "--format", "json"),
    "crosscheck-box": ("crosscheck", "--quiver", "{tri}", "--box", "1",
                       "--models", "mutation,gcs,matching,broken-line"),
    "report-table": ("report-table", "--quiver", "{table}"),
    "enumerate-variables": ("enumerate-variables", "--quiver", "{four}"),
    "error-not-in-w": ("expand", "--quiver", "{tri}", "--model", "gcs", "--dvector", "1,1,1"),
    "error-bad-plane": ("broken-lines", "--quiver", "{tri}", "--subquiver", "1,2",
                        "--svg", "{svg}", "--plane", "1,99"),
    "error-frozen-vertex": ("expand", "--quiver", "{frozen}", "--model", "gcs",
                            "--dvector", "0,1"),
    "error-random-zero": ("crosscheck", "--random", "0"),
}


def run_case(name: str, scratch: Path) -> tuple[str, str | None]:
    """The case's transcript (exit code, stdout, stderr) and its SVG text,
    None when it wrote none."""
    files = {}
    for key, (filename, text) in QUIVERS.items():
        files[key] = scratch / filename
        files[key].write_text(text)
    svg = scratch / f"{name}.svg"
    argv = [arg.format(svg=svg, **files) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    transcript = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return transcript, svg.read_text() if svg.exists() else None


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path):
    transcript, svg = run_case(name, tmp_path)
    assert transcript == (GOLDEN / f"{name}.txt").read_text()
    golden_svg = GOLDEN / f"{name}.svg"
    assert svg == (golden_svg.read_text() if golden_svg.exists() else None)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            transcript, svg = run_case(name, Path(scratch))
        (GOLDEN / f"{name}.txt").write_text(transcript)
        if svg is not None:
            (GOLDEN / f"{name}.svg").write_text(svg)
        print(name, transcript.splitlines()[0], file=sys.stderr)
