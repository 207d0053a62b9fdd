"""Tests of the benchmark itself: seeded inputs, the frieze oracle, the output.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import speed  # noqa: E402
import workloads  # noqa: E402
from polygons import digest, from_triangles, random_polygon  # noqa: E402


def _digest(workload, seed, tmp_path):
    if workload == "cli":
        warm, stream = workloads.cli(seed, str(tmp_path / f"cli{seed}"), str(tmp_path))
    else:
        warm, stream = getattr(workloads, workload)(seed, lambda p: None)
    return digest([op.spec() for op in warm + list(islice(stream, 30))])


@pytest.mark.parametrize("workload", ["sweep", "monomial", "large", "cli"])
def test_same_seed_same_digest(workload, tmp_path):
    first = _digest(workload, 7, tmp_path)
    assert _digest(workload, 7, tmp_path) == first
    assert _digest(workload, 8, tmp_path) != first


def test_three_cycle_monomial_has_27_witnesses():
    # the hexagon cut by the inner triangle (0, 2, 4) induces the 3-cycle
    p = from_triangles(3, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 2, 4)])
    assert sorted(p.arrows) in ([(1, 2), (2, 3), (3, 1)], [(1, 3), (2, 1), (3, 2)])
    arcs = [(1, 3), (3, 5), (1, 5)]
    total = [sum(col) for col in zip(*(p.crossing_vector(a) for a in arcs))]
    assert total == [2, 2, 2]
    assert p.count([(a, 1) for a in arcs]) == 27
    assert p.count([((1, 3), 2)]) == 9


@pytest.mark.parametrize("n", range(1, 9))
def test_path_quiver_has_n_n_plus_3_over_2_variables(n):
    # the fan at corner 0 induces the linearly oriented path A_n
    p = from_triangles(n, [(0, k, k + 1) for k in range(1, n + 2)])
    assert sorted(tuple(sorted(a)) for a in p.arrows) == [(i, i + 1) for i in range(1, n)]
    assert len(p.arcs()) + n == n * (n + 3) // 2
    assert all(p.count([(d, 1)]) == 1 for d in p.diagonals)
    assert all(p.count([(a, 1)]) >= 2 for a in p.arcs())
    assert p.count([((1, n + 2), 1)]) == n + 1   # crosses every diagonal


def test_random_polygon_is_a_triangulation():
    import random

    rng = random.Random(3)
    for n in (1, 5, 40, 400):
        p = random_polygon(n, rng)
        assert len(p.diagonals) == n and len(p.triangles) == n + 1
        assert sum(p.quiddity) == 3 * (n + 1)


def test_rescale_cancels_a_host_slowdown():
    times = [0.010, 0.200, 0.003, 0.050]
    assert speed.rescale(times, [speed.REF_S] * 5) == pytest.approx(times)
    # the host runs at half speed throughout: ops and kernel alike
    slowed = [2 * t for t in times]
    assert speed.rescale(slowed, [2 * speed.REF_S] * 5) == pytest.approx(times)
    # one slow kernel run is outvoted by its neighbours
    assert speed.rescale(times, [speed.REF_S] * 2 + [9 * speed.REF_S] + [speed.REF_S] * 2) \
        == pytest.approx(times)
    with pytest.raises(ValueError):
        speed.rescale(times, [speed.REF_S] * 4)


def _bench(tmp_cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_carries_every_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = _bench(ROOT, "--workload", "monomial", "--seed", "1", "--seconds", "1",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = _bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
