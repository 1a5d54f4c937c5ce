"""Smoke test of the benchmark itself: short runs of each mode and the tracer."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_run_prints_every_metric():
    res = _result(_bench(ROOT, "--workload", "critical_sweep", "--seed", "3",
                         "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_closes():
    res = _result(_bench(ROOT, "--workload", "critical_sweep", "--seed", "3",
                         "--seconds", "1", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("per_layer")
    assert m["criteria.critical.calls"] == res["attempted"]
    assert m["kernels.table.calls"] > 0 and m["series.table_misses"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("kernels", "series", "criteria", "operators", "verifier", "cli"))
    assert abs(layers + m["trace.outside_s"] - m["trace.wall_s"]) < 1e-9


def test_without_package_source_exits_nonzero_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "region_scan", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_times_and_gaps_add_up_to_wall():
    tracer = bench_trace.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tracer.wrap("kernels.leaf", leaf)

    def inner():
        leaf()
        time.sleep(0.001)

    inner = tracer.wrap("series.inner", inner)

    def outer():
        inner()
        leaf()

    outer = tracer.wrap("cli.outer", outer)
    tracer.active = True
    t0 = time.perf_counter()
    outer()
    time.sleep(0.001)
    outer()
    wall = time.perf_counter() - t0
    tracer.active = False
    stats, roots, _ = tracer.summarize()
    assert stats["kernels.leaf"][0] == 4 and stats["cli.outer"][0] == 2
    assert stats["kernels.leaf"][1] == stats["kernels.leaf"][2]
    self_total = sum(st[2] for st in stats.values())
    assert abs(self_total - roots) < 1e-12
    assert 0.0 < wall - roots < wall
