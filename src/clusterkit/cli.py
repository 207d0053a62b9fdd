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
import sys

from . import MODELS
from .errors import ClusterKitError, CoordinateOutOfRange, InvalidInput, PositivityViolation
from .laurent import canonical_string, rational_string, to_json_dict
from .quiver import Quiver, from_json, from_text, require_type_a


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


def _ints(text: str, what: str) -> list[int]:
    """The comma-separated integers of an option value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"bad {what} {text!r}") from exc


def _parse_dvector(text: str, n: int) -> tuple[int, ...]:
    a = tuple(_ints(text, "d-vector"))
    if len(a) != n:
        raise InvalidInput(f"d-vector has {len(a)} entries, quiver has {n} vertices")
    return a


def _parse_subquiver(text: str) -> list[int]:
    vertices = _ints(text, "vertex list")
    if len(set(vertices)) != len(vertices):
        raise InvalidInput(f"vertex list {text!r} repeats a vertex")
    return vertices


def _pick(items: list, index: int, option: str):
    if not 0 <= index < len(items):
        raise InvalidInput(f"{option} {index} is out of range: there are {len(items)}")
    return items[index]


def _parse_plane(text: str, dim: int) -> tuple[int, int]:
    plane = tuple(_ints(text, "--plane"))
    if len(plane) != 2:
        raise InvalidInput("--plane needs two coordinates i,j")
    if not all(1 <= c <= dim for c in plane):
        raise InvalidInput(f"--plane coordinates must lie in [1,{dim}]")
    return plane


def _print_in_full():
    """Lift CPython's limit on int-to-str digits (3.10.7+, 3.11+; 4,300 by
    default) once a command's input is parsed, which stays under it, so an
    exact result prints in full; `main` puts the limit back."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _emit_value(value, fmt: str):
    if fmt == "json":
        print(json.dumps(to_json_dict(value)))
    else:
        print(rational_string(value))


def cmd_expand(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    _print_in_full()
    from . import harness
    value = harness.expand_model(q, a, args.model)
    _emit_value(value, args.format)
    return 0


def cmd_count(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    _print_in_full()
    from . import harness
    if args.list_witnesses:
        print(json.dumps(harness.list_witnesses(q, a, args.model)))
    else:
        print(harness.witness_count(q, a, args.model))
    return 0


def cmd_decompose(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    from . import geometry
    plus, neg = geometry.positive_split(q, a)
    for b in geometry.decompose(q, plus):
        print(json.dumps(list(b)))
    for v in geometry.support_of(neg):
        print(json.dumps({"initial": v, "exponent": neg[v - 1]}))
    return 0


def cmd_pipelines(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    from . import geometry, pipelines
    plus, _ = geometry.positive_split(q, a)
    ps = pipelines.build_pipelines(q, plus)
    if args.svg:
        from . import svg
        _write_svg(args.svg, svg.pipelines_svg(ps))
    for p in ps.pipelines:
        print(json.dumps({"b": list(p.b_vector), "endpoints": list(p.endpoints),
                          "crossings": [list(c) for c in p.crossings]}))
    return 0


def cmd_snake(args) -> int:
    q = _load_quiver(args.quiver)
    a = _parse_dvector(args.dvector, q.n)
    if any(x not in (0, 1) for x in a):
        raise InvalidInput("snake diagrams are drawn per variable: use a 0-1 d-vector")
    from . import completion, geometry, snake
    comp = completion.complete_extension(q, geometry.support_of(a))
    d = snake.build_snake(comp.celq)
    matchings = snake.enumerate_matchings(d)
    if args.svg:
        from . import svg
        gamma = _pick(matchings, args.matching, "--matching") if matchings else None
        _write_svg(args.svg, svg.snake_svg(d, gamma))
    print(f"tiles: {list(d.tiles)}")
    print(f"matchings: {len(matchings)}")
    return 0


def cmd_broken_lines(args) -> int:
    q = _load_quiver(args.quiver)
    support = _parse_subquiver(args.subquiver)
    from . import scattering
    rel = scattering.relabel_for_path(q, support)
    try:
        lines = scattering._lines(rel, principal=args.principal or None)
    except (CoordinateOutOfRange, PositivityViolation):
        require_type_a(q)  # outside type A the input is at fault, not the lines
        raise
    if args.svg:
        from . import svg
        chosen = _pick(lines, args.line, "--line")
        plane = _parse_plane(args.plane, len(chosen.base))
        _write_svg(args.svg, svg.broken_line_svg(chosen, plane))
    for line in lines:
        print(json.dumps(scattering.line_json(line)))
    print("theta " + rational_string(scattering._theta(rel, lines)))
    return 0


def cmd_crosscheck(args) -> int:
    import random

    from . import harness
    if args.random is not None:
        rng = random.Random(args.seed)
        q = harness.random_type_a_quiver(args.random, rng)
    else:
        if not args.quiver:
            raise InvalidInput("crosscheck needs --quiver or --random N")
        q = _load_quiver(args.quiver)
    models = args.models.split(",") if args.models else None
    _print_in_full()
    report = harness.crosscheck(q, models, box=args.box, with_timings=args.timings)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.render_text(timings=args.timings))
    return 0 if report.passed else 1


def cmd_enumerate_variables(args) -> int:
    q = _load_quiver(args.quiver)
    _print_in_full()
    from . import engine
    table = engine.enumerate_cluster_variables(q, max_seeds=args.max_seeds)
    out = {",".join(map(str, key)): canonical_string(value)
           for key, value in sorted(table.items())}
    print(json.dumps(out))
    return 0


def cmd_report_table(args) -> int:
    q = _load_quiver(args.quiver)
    _print_in_full()
    from . import harness
    sys.stdout.write(harness.report_table(q))
    return 0


FORMATS = ("text", "json")

# name: (handler, summary, whether --quiver is required, the other arguments)
COMMANDS = {
    "expand": (cmd_expand, "expand a cluster monomial", True, [
        ("--model", {"default": "mutation", "choices": MODELS}),
        ("--dvector", {"required": True}),
        ("--format", {"default": "text", "choices": FORMATS})]),
    "count": (cmd_count, "count or list combinatorial witnesses", True, [
        ("--model", {"default": "gcs", "choices": MODELS}),
        ("--dvector", {"required": True}),
        ("--list-witnesses", {"action": "store_true"})]),
    "decompose": (cmd_decompose, "split a d-vector into variable d-vectors", True, [
        ("--dvector", {"required": True})]),
    "pipelines": (cmd_pipelines, "print or draw the pipeline construction", True, [
        ("--dvector", {"required": True}), ("--svg", {})]),
    "snake": (cmd_snake, "snake diagram of one cluster variable", True, [
        ("--dvector", {"required": True}), ("--svg", {}),
        ("--matching", {"type": int, "default": 0})]),
    "broken-lines": (cmd_broken_lines, "broken lines of one cluster variable", True, [
        ("--subquiver", {"required": True, "help": "path vertices, comma-separated"}),
        ("--principal", {"action": "store_true"}), ("--svg", {}),
        ("--plane", {"default": "1,2"}), ("--line", {"type": int, "default": 0})]),
    "crosscheck": (cmd_crosscheck, "compare all models on all variables", False, [
        ("--random", {"type": int, "help": "random type-A quiver on N vertices"}),
        ("--seed", {"type": int, "default": 0}), ("--models", {}),
        ("--box", {"type": int, "default": 0,
                   "help": "also sweep monomial d-vectors in [0,B]^n"}),
        ("--timings", {"action": "store_true"}),
        ("--format", {"default": "text", "choices": FORMATS})]),
    "enumerate-variables": (cmd_enumerate_variables, "dump the full variable table", True, [
        ("--max-seeds", {"type": int, "default": 100_000})]),
    "report-table": (cmd_report_table, "markdown table of all variables", True, []),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named: it parses that
    command as the full parser does, and its messages are the same, since
    the list of commands in its usage is spelled out as argparse spells it."""
    parser = argparse.ArgumentParser(
        prog="clusterkit",
        description="Cluster variables of type-A quivers via five cross-checked "
                    "combinatorial models.")
    listed = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name, (func, summary, quiver_required, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            p.add_argument("--quiver", required=quiver_required, help="quiver file (text or JSON)")
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
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
    argv = _join_dvector(sys.argv[1:] if argv is None else list(argv))
    # a command named first takes every argument after it: only its parser is built
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
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
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
