"""Command-line interface.

Exit codes: 0 success, 1 cross-check failure, 2 usage or input error, 141
when stdout is closed early (as after SIGPIPE).  Domain errors print a JSON
envelope {code, message, context} on stderr so CI scripts can parse
failures; human-readable output goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import engine, geometry, harness, scattering, snake
from .errors import ClusterKitError, InvalidInput
from .laurent import canonical_string, rational_string, to_json_dict
from .quiver import Quiver, complete_extension, from_json, from_text


def _load_quiver(path: str) -> Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read quiver file: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_text(text)


def _write_svg(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write SVG file: {exc}") from exc


def _parse_dvector(text: str, n: int) -> tuple[int, ...]:
    try:
        a = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad d-vector {text!r}") from exc
    if len(a) != n:
        raise InvalidInput(f"d-vector has {len(a)} entries, quiver has {n} vertices")
    return a


def _parse_subquiver(text: str) -> list[int]:
    try:
        vertices = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"bad vertex list {text!r}") from exc
    if len(set(vertices)) != len(vertices):
        raise InvalidInput(f"vertex list {text!r} repeats a vertex")
    return vertices


def _pick(items: list, index: int, option: str):
    if not 0 <= index < len(items):
        raise InvalidInput(f"{option} {index} is out of range: there are {len(items)}")
    return items[index]


def _parse_plane(text: str, dim: int) -> tuple[int, int]:
    try:
        plane = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad --plane {text!r}") from exc
    if len(plane) != 2:
        raise InvalidInput("--plane needs two coordinates i,j")
    if not all(1 <= c <= dim for c in plane):
        raise InvalidInput(f"--plane coordinates must lie in [1,{dim}]")
    return plane


def _emit_value(value, fmt: str):
    if fmt == "json":
        print(json.dumps(to_json_dict(value)))
    else:
        print(rational_string(value))


def cmd_expand(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    value = harness.expand_model(q, a, args.model)
    _emit_value(value, args.format)
    return 0


def cmd_count(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    if args.list_witnesses:
        print(json.dumps(harness.list_witnesses(q, a, args.model)))
    else:
        print(harness.witness_count(q, a, args.model))
    return 0


def cmd_decompose(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    plus, neg = geometry.positive_split(q, a)
    for b in geometry.decompose(q, plus):
        print(json.dumps(list(b)))
    for v in geometry.support_of(neg):
        print(json.dumps({"initial": v, "exponent": neg[v - 1]}))
    return 0


def cmd_pipelines(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    plus, _ = geometry.positive_split(q, a)
    ps = geometry.build_pipelines(q, plus)
    if args.svg:
        _write_svg(args.svg, geometry.pipelines_svg(ps))
    for p in ps.pipelines:
        print(json.dumps({"b": list(p.b_vector), "endpoints": list(p.endpoints),
                          "crossings": [list(c) for c in p.crossings]}))
    return 0


def cmd_snake(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    if any(x not in (0, 1) for x in a):
        raise InvalidInput("snake diagrams are drawn per variable: use a 0-1 d-vector")
    comp = complete_extension(q, geometry.support_of(a))
    d = snake.build_snake(comp.celq)
    matchings = snake.enumerate_matchings(d)
    if args.svg:
        gamma = _pick(matchings, args.matching, "--matching") if matchings else None
        _write_svg(args.svg, snake.snake_svg(d, gamma))
    print(f"tiles: {list(d.tiles)}")
    print(f"matchings: {len(matchings)}")
    return 0


def cmd_broken_lines(args) -> int:
    q = _load_quiver(args.quiver)
    support = _parse_subquiver(args.subquiver)
    principal = True if args.principal else None
    rel = scattering.relabel_for_path(q, support)
    lines = scattering.broken_lines(q, support, principal=principal, rel=rel)
    if args.svg:
        chosen = _pick(lines, args.line, "--line")
        plane = _parse_plane(args.plane, len(chosen.endpoint))
        _write_svg(args.svg, scattering.broken_line_svg(chosen, plane))
    for line in lines:
        print(json.dumps(scattering.line_json(line)))
    theta = scattering.theta_from_broken_lines(q, support, lines=lines, rel=rel)
    print("theta " + rational_string(theta))
    return 0


def cmd_crosscheck(args) -> int:
    if args.random is not None:
        rng = random.Random(args.seed)
        q = harness.random_type_a_quiver(args.random, rng)
    else:
        if not args.quiver:
            raise InvalidInput("crosscheck needs --quiver or --random N")
        q = _load_quiver(args.quiver)
    models = args.models.split(",") if args.models else None
    report = harness.crosscheck(q, models, box=args.box, with_timings=args.timings)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.render_text(timings=args.timings))
    return 0 if report.passed else 1


def cmd_enumerate_variables(args) -> int:
    q = _load_quiver(args.quiver)
    table = engine.enumerate_cluster_variables(q, max_seeds=args.max_seeds)
    out = {",".join(map(str, key)): canonical_string(value)
           for key, value in sorted(table.items())}
    print(json.dumps(out))
    return 0


def cmd_report_table(args) -> int:
    q = _load_quiver(args.quiver)
    sys.stdout.write(harness.report_table(q))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterkit",
        description="Cluster variables of type-A quivers via five cross-checked "
                    "combinatorial models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, quiver_required: bool = True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--quiver", required=quiver_required, help="quiver file (text or JSON)")
        p.set_defaults(func=func)
        return p

    p = command("expand", cmd_expand, "expand a cluster monomial")
    p.add_argument("--model", default="mutation", choices=harness.MODELS)
    p.add_argument("--dvector", required=True)
    p.add_argument("--format", default="text", choices=("text", "json"))

    p = command("count", cmd_count, "count or list combinatorial witnesses")
    p.add_argument("--model", default="gcs", choices=harness.MODELS)
    p.add_argument("--dvector", required=True)
    p.add_argument("--list-witnesses", action="store_true")

    p = command("decompose", cmd_decompose, "split a d-vector into variable d-vectors")
    p.add_argument("--dvector", required=True)

    p = command("pipelines", cmd_pipelines, "print or draw the pipeline construction")
    p.add_argument("--dvector", required=True)
    p.add_argument("--svg")

    p = command("snake", cmd_snake, "snake diagram of one cluster variable")
    p.add_argument("--dvector", required=True)
    p.add_argument("--svg")
    p.add_argument("--matching", type=int, default=0)

    p = command("broken-lines", cmd_broken_lines, "broken lines of one cluster variable")
    p.add_argument("--subquiver", required=True, help="path vertices, comma-separated")
    p.add_argument("--principal", action="store_true")
    p.add_argument("--svg")
    p.add_argument("--plane", default="1,2")
    p.add_argument("--line", type=int, default=0)

    p = command("crosscheck", cmd_crosscheck, "compare all models on all variables",
                quiver_required=False)
    p.add_argument("--random", type=int, help="random type-A quiver on N vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models")
    p.add_argument("--box", type=int, default=0,
                   help="also sweep monomial d-vectors in [0,B]^n")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", default="text", choices=("text", "json"))

    p = command("enumerate-variables", cmd_enumerate_variables, "dump the full variable table")
    p.add_argument("--max-seeds", type=int, default=100_000)

    command("report-table", cmd_report_table, "markdown table of all variables")
    return parser


def _join_dvector(argv: list[str]) -> list[str]:
    """`--dvector V` as `--dvector=V`, so that a value with a negative first
    entry (`-1,0`) is not read as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        out.append(token)
        if token == "--dvector":
            value = next(tokens, None)
            if value is not None:
                out[-1] = f"--dvector={value}"
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dvector(sys.argv[1:] if argv is None else list(argv)))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ClusterKitError as exc:
        envelope = {"code": type(exc).__name__, "message": str(exc),
                    "context": {"command": args.command}}
        print(json.dumps(envelope), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to /dev/null so
        # the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
