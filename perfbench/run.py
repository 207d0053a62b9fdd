"""Benchmark for clusterkit: one closed-loop client, outputs checked by an oracle.

    python3 perfbench/run.py --workload sweep|monomial|large|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Inputs come from the seed alone (see workloads.py).  Each op is timed on its
own, and its output is checked against the Conway-Coxeter frieze after the
clock stops.  End-to-end times are rescaled to a nominal host speed measured
by a fixed kernel timed around every op (see speed.py); the wall-clock
figures are printed too.  The last line of stdout is one JSON object; with
--trace 0 it carries the end-to-end metrics, with --trace 1 the per-layer
ones.  The exit code is 1 if any op failed, 2 on bad usage or a checkout
without `src/`.
"""

from __future__ import annotations

import argparse
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
import importlib
import io
from itertools import chain, count, islice
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import spans
import speed
from polygons import digest
import workloads
from workloads import Mismatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7     # set-up runs per benchmark run; setup_s is their median
MIN_OPS = 100      # so that at least 10 latency samples lie beyond p90
HARD_CAP_S = 120   # stop measuring here even below MIN_OPS
PROBE_REPS = 5

DIGEST_OPS = 100   # ops generated during set-up; the digest covers them
GENERATORS = {"sweep": workloads.sweep, "monomial": workloads.monomial,
              "large": workloads.large}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CLUSTERKIT_THREADS"}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def load_program() -> SimpleNamespace:
    """Import clusterkit afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "clusterkit"]:
        del sys.modules[name]
    harness = importlib.import_module("clusterkit.harness")
    if not harness.__file__.startswith(SRC):
        raise ImportError(f"clusterkit imported from {harness.__file__}, not {SRC}")
    quiver = importlib.import_module("clusterkit.quiver")
    return SimpleNamespace(harness=harness, Quiver=quiver.Quiver)


def cli_program(trace_dir: str | None = None) -> SimpleNamespace:
    """How cli ops start their child: the module itself, or the traced child
    writing one span file per command into trace_dir."""
    counter = count()

    def argv(args):
        if trace_dir is None:
            return [sys.executable, "-m", "clusterkit.cli", *args]
        out = os.path.join(trace_dir, f"{next(counter)}.spans")
        return [sys.executable, os.path.join(HERE, "cli_child.py"), out, *args]

    return SimpleNamespace(argv=argv, root=ROOT, env=child_env())


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    refs: list = field(default_factory=list)   # kernel runs around the ops
    witnesses: int = 0
    attempted: int = 0
    failed: int = 0
    model_witnesses: dict = field(default_factory=dict)

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_op(op, ck, tally: Tally, tracer=None, op_id: int = 0, label: str = "op"):
    """Time one call into the program, then check its output."""
    if tracer:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        out = op.call(ck)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = exc
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.end_op()
    tally.attempted += 1
    tally.latencies.append(elapsed)
    if error is None:
        try:
            witnesses = op.check(out)
        except (Mismatch, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            error = exc
    if error is not None:
        tally.failed += 1
        print(f"FAIL {label} {op_id}: {op.describe()}: {error!r}", flush=True)
        return
    tally.witnesses += witnesses
    for m in op.models:
        tally.model_witnesses[m] = tally.model_witnesses.get(m, 0) + witnesses


def measure(ops, ck, seconds: float) -> Tally:
    """Closed loop over the op stream for `seconds` of wall time and at
    least MIN_OPS ops, with a kernel run before each op and after the last."""
    tally = Tally()
    t_end = time.perf_counter() + seconds
    t_cap = time.perf_counter() + max(seconds, HARD_CAP_S)
    for i, op in enumerate(ops):
        tally.refs.append(speed.reference())
        run_op(op, ck, tally, op_id=i)
        now = time.perf_counter()
        if now >= t_cap or (now >= t_end and tally.attempted >= MIN_OPS):
            tally.refs.append(speed.reference())
            return tally


def set_up(workload: str, seed: int, work: str):
    """Import, input generation and warm-up on inputs disjoint from the
    timed ones.  Returns the program handle, the op stream, the digest of
    the inputs made so far and the warm-up tally."""
    if workload == "cli":
        warm, stream = workloads.cli(seed, work, ROOT)
        ck = cli_program()
    else:
        ck = load_program()
        warm, stream = GENERATORS[workload](
            seed, lambda p: ck.Quiver(p.n, p.arrows))
    first = list(islice(stream, DIGEST_OPS))
    tally = Tally()
    for k, op in enumerate(warm):
        run_op(op, ck, tally, op_id=k, label="warm-up")
    return ck, chain(first, stream), digest([op.spec() for op in warm + first]), tally


def child_ms(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def cli_probe(seed: int, work: str) -> dict:
    """cli.interpreter_ms, cli.import_ms and cli.main_ms (one command of each
    kind run in-process through cli.main, output captured)."""
    bare = statistics.median(child_ms([sys.executable, "-c", "pass"])
                             for _ in range(PROBE_REPS))
    imported = statistics.median(
        child_ms([sys.executable, "-c", "import clusterkit.cli"])
        for _ in range(PROBE_REPS))
    cli = importlib.import_module("clusterkit.cli")
    _, stream = workloads.cli(seed, os.path.join(work, "probe"), ROOT)
    commands = list(islice(stream, len(workloads.CLI_KINDS)))
    cwd = os.getcwd()
    os.chdir(ROOT)
    times = []
    try:
        for _ in range(PROBE_REPS):
            for cmd in commands:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    cli.main(cmd.args)
                    times.append((time.perf_counter() - t0) * 1e3)
    finally:
        os.chdir(cwd)
    return {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare,
            "cli.main_ms": statistics.median(times)}


def timings(latencies, setup_times) -> dict:
    lat_ms = sorted(x * 1e3 for x in latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
    }


def end_to_end(tally: Tally, setups, workload: str):
    """The end-to-end metrics, from times rescaled to the nominal host
    speed, and the same timings in wall-clock time."""
    scaled = speed.rescale(tally.latencies, tally.refs)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = timings(scaled, [s for s, _ in setups])
    metrics.update({
        "witnesses_per_s": (tally.witnesses / sum(scaled), "1/s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    })
    return metrics, timings(tally.latencies, [w for _, w in setups])


LAYER_UNITS = {"calls_per_op": "calls/op", "self_ms_per_op": "ms/op", "share": "ratio",
               "distinct_ratio": "ratio", "yields_per_witness": "items/witness",
               "enumerations_per_witness": "items/witness", "interpreter_ms": "ms",
               "import_ms": "ms", "main_ms": "ms", "overhead_ratio": "ratio"}


def per_layer(ops, ck, seconds: float, workload: str, seed: int, work: str):
    """Each op of the stream runs traced, then again untraced; the ratio of
    the two rates over the same ops is the tracing overhead."""
    probe = cli_probe(seed, work)
    tracer = spans.Tracer()
    plain, traced = Tally(), Tally()
    traced_ck = ck
    if workload == "cli":
        span_dir = os.path.join(work, "spans")
        os.makedirs(span_dir)
        traced_ck = cli_program(span_dir)
    t_end = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        if workload == "cli":
            run_op(op, traced_ck, traced, op_id=i)
        else:
            tracer.install()
            try:
                run_op(op, ck, traced, tracer, i)
            finally:
                tracer.uninstall()
        run_op(op, ck, plain, op_id=i)
        if time.perf_counter() >= t_end:
            break
    if workload == "cli":
        exports = [spans.load(os.path.join(span_dir, f)) for f in os.listdir(span_dir)]
    else:
        tracer.save(os.path.join(work, "run.spans"))
        exports = [tracer.export()]
    metrics = spans.summarize(exports, traced.attempted, traced.model_witnesses)
    metrics.update(probe)
    metrics["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
    tally = Tally(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed)
    units = {name: LAYER_UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    return tally, {name: (value, units[name]) for name, value in metrics.items()}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*GENERATORS, "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "clusterkit")):
        print(f"no clusterkit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CLUSTERKIT_THREADS", None)
    # One core for the benchmark and its cli children, so that the speed
    # kernel measures the core the ops run on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setups = []   # (rescaled, wall) seconds of each set-up
    for _ in range(SETUP_REPS):
        refs = [speed.reference() for _ in range(speed.WINDOW)]
        t0 = time.perf_counter()
        ck, ops, inputs_digest, warm_tally = set_up(args.workload, args.seed, work)
        wall = time.perf_counter() - t0
        refs += [speed.reference() for _ in range(speed.WINDOW)]
        setups.append((wall * speed.REF_S / statistics.median(refs), wall))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_digest": inputs_digest, "digest_ops": DIGEST_OPS,
        "python": platform.python_version(),
        "nproc": nproc, "cpu": min(os.sched_getaffinity(0)), "git_sha": git_sha()}),
        flush=True)

    if args.trace:
        tally, metrics = per_layer(ops, ck, args.seconds, args.workload, args.seed, work)
    else:
        tally = measure(ops, ck, args.seconds)
        metrics, wall = end_to_end(tally, setups, args.workload)
        print(f"latency samples: {len(tally.latencies)}")
        slowdown = statistics.median(tally.refs) / speed.REF_S
        print(f"host slowdown (median kernel time / {speed.REF_S * 1e3:g} ms) = {slowdown:.4g}")
        for name, (value, unit) in wall.items():
            print(f"wall-clock {name} = {value:.6g} {unit}")
    tally.attempted += warm_tally.attempted
    tally.failed += warm_tally.failed
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
