#!/usr/bin/env python3
"""The besselstruve benchmark: one workload, timed end to end or traced.

Run from the repository root, with the package importable from ``src``:

    python3 perfbench/run.py --workload critical_sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``bench_workloads``): region_scan, critical_sweep and
verify_suites.  Each is a closed loop with one caller in one thread: the
next call starts when the previous one has returned.  Outputs are checked
after each call, outside the timed region; an op fails if it raises or its
output fails the check.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints the per-layer metrics: a forked child first runs a fixed number of
ops untraced, then this process runs the same ops with every public
function wrapped in a span (see ``bench_trace``).  Spans and a per-function
breakdown are written to ``.bench_out/``.  The last line of standard output
is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 12
# The end-to-end throughput is taken over windows of consecutive ops whose
# timed total first reaches WINDOW_S seconds.
WINDOW_S = 1.0
# Ops per second of --seconds run untraced and then traced by --trace 1, so
# that each pass takes about a third of --seconds on the python backend.
TRACE_OPS_PER_S = {"region_scan": 4, "critical_sweep": 70, "verify_suites": 0.8}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn_import(importtime: bool):
    """Wall time (and stderr) of one fresh interpreter running the import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import besselstruve"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()}")
    return wall, proc.stderr


def time_imports(importtime: bool):
    """Wall times and stderr of SETUP_SPAWNS back-to-back import spawns.

    One unrecorded spawn first compiles the bytecode cache.
    """
    spawn_import(importtime)
    walls, logs = zip(*(spawn_import(importtime) for _ in range(SETUP_SPAWNS)))
    return list(walls), list(logs)


def import_cumulative_s(logs, module: str) -> float:
    """Median cumulative ``-X importtime`` seconds of ``module`` (0 if absent)."""
    found = []
    for log in logs:
        total = 0.0
        for line in log.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                total = int(parts[1]) * 1e-6
        found.append(total)
    return statistics.median(found)


def environment(seed: int) -> dict:
    import besselstruve

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "besselstruve").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    backend = getattr(besselstruve, "backend_name", lambda: "unknown")()
    return {"backend": backend, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed}


def measure(ops, seconds: float, max_ops: float, tracer=None,
            between=None) -> dict:
    """Run ops back to back until their timed total reaches ``seconds`` or
    ``max_ops`` ops have run; check each output after its timed call.

    The first op is also repeated once (untimed) to check determinism.
    ``between(elapsed)``, if given, is called after each op, untimed.
    """
    times, items, failed = [], [], 0
    stats = dict(cli_bytes_written=0, critical_failing_side=0, table_hits=0,
                 table_misses=0)
    cache_info = _table_cache_info()
    elapsed = 0.0
    while elapsed < seconds and len(times) < max_ops:
        op = next(ops)
        before = cache_info()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception:  # a failed op is counted, and the loop goes on
            raised = True
            if failed < 3:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        after = cache_info()
        stats["table_hits"] += after[0] - before[0]
        stats["table_misses"] += after[1] - before[1]
        ok = False
        if not raised:
            try:
                ok = op.check(result, stats) and (bool(times) or op.same_again(result))
            except Exception:  # output the check cannot parse or judge
                traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            if failed <= 3:
                print(f"check failed: {getattr(op, 'argv', None) or vars(op)}",
                      file=sys.stderr)
        times.append(dt)
        items.append(op.items)
        elapsed += dt
        if between is not None:
            between(elapsed)
    return {"times": times, "items": items, "failed": failed, "wall": elapsed,
            "stats": stats}


def _table_cache_info():
    """(hits, misses) of the series coefficient-table cache, if it has one."""
    from besselstruve import series
    info = getattr(getattr(series, "_cached_table", None), "cache_info", None)
    if info is None:
        return lambda: (0, 0)
    return lambda: tuple(info()[:2])


def untraced_wall(workload, seed: int, n_ops: int, scratch: Path) -> float:
    """Timed wall of ``n_ops`` untraced ops, run in a forked child so that
    the traced pass starts from the same process state."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            run = measure(workload(seed, scratch), math.inf, n_ops)
            os.write(wfd, json.dumps([run["wall"], run["failed"]]).encode())
            code = 0
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        raise RuntimeError("untraced reference pass failed")
    wall, failed = json.loads(payload)
    if failed:
        raise RuntimeError(f"untraced reference pass had {failed} failed ops")
    return wall


def window_rates(run) -> list[float]:
    """Items per second of consecutive WINDOW_S-second windows of ops (a
    shorter last window is dropped unless it is the only one)."""
    rates, n, t = [], 0, 0.0
    for dt, items in zip(run["times"], run["items"]):
        n, t = n + items, t + dt
        if t >= WINDOW_S:
            rates.append(n / t)
            n, t = 0, 0.0
    return rates or [n / t]


def end_to_end(name, seed, seconds, workload, scratch):
    """Setup spawns are spread evenly over the timed run, between ops, so
    that they sample the same machine load as the ops do."""
    spawn_import(False)  # compiles the bytecode cache
    walls = []

    def setup_sample(elapsed):
        if len(walls) < SETUP_SPAWNS and elapsed >= len(walls) * seconds / SETUP_SPAWNS:
            walls.append(spawn_import(False)[0])

    run = measure(workload(seed, scratch), seconds, math.inf, between=setup_sample)
    while len(walls) < SETUP_SPAWNS:
        setup_sample(math.inf)
    metrics = {
        "setup_s": statistics.median(walls),
        "items_per_s_p10": _percentile(window_rates(run), 0.1),
        "op_ms_p90": _percentile(run["times"], 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return run, metrics


def traced(name, seed, seconds, workload, scratch):
    import besselstruve

    _, logs = time_imports(importtime=True)
    n_ops = max(2, round(TRACE_OPS_PER_S[name] * seconds))
    reference = untraced_wall(workload, seed, n_ops, scratch)
    tracer = bench_trace.Tracer()
    undo = bench_trace.instrument(tracer, besselstruve)
    try:
        run = measure(workload(seed, scratch), math.inf, n_ops, tracer)
    finally:
        bench_trace.uninstrument(undo)
    stats, roots, margin_evals = tracer.summarize()
    metrics = bench_trace.layer_metrics(stats, tracer.counts, margin_evals)
    wall = run["wall"]
    outside = wall - roots
    hits, misses = run["stats"]["table_hits"], run["stats"]["table_misses"]
    metrics.update({
        "series.table_hits": hits,
        "series.table_misses": misses,
        "series.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "criteria.critical_failing_side": run["stats"]["critical_failing_side"],
        "cli.bytes_written": run["stats"]["cli_bytes_written"],
        "import.besselstruve_s": import_cumulative_s(logs, "besselstruve"),
        "import.mpmath_s": import_cumulative_s(logs, "mpmath"),
        "trace.spans": len(tracer.start),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": reference,
        "trace.overhead_s": wall - reference,
        "trace.overhead_ratio": (wall - reference) / reference,
        "trace.outside_s": outside,
    })
    tag = f"{name}-seed{seed}"
    tracer.write(OUT / f"spans-{tag}.csv.gz")
    breakdown = {n: {"calls": c, "total_s": t, "self_s": s}
                 for n, (c, t, s) in sorted(stats.items())}
    (OUT / f"trace-{tag}.json").write_text(json.dumps(
        {"metrics": metrics, "functions": breakdown}, indent=1) + "\n")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "besselstruve" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'besselstruve'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(bench_workloads.WORKLOADS)}")
    workload = bench_workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        run, values = (traced if args.trace else end_to_end)(
            args.workload, args.seed, args.seconds, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted, failed = len(run["times"]), run["failed"]
    print("env " + json.dumps(environment(args.seed)))
    if not args.trace:
        summary = dict(values, items_per_s=sum(run["items"]) / run["wall"],
                       op_ms_p50=statistics.median(run["times"]) * 1e3)
        named = [f"{alias}={summary[metric] * scale:.6g} {unit}" for alias, metric,
                 scale, unit in bench_workloads.ALIASES[args.workload]]
        print(f"{args.workload}: " + "  ".join(named)
              + f"  samples={attempted}  failed_ratio={failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
