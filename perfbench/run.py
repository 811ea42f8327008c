"""nvholo benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The workloads, metrics and units are the ones
BENCHMARK.json lists; workloads.py turns (workload, seed) into scenario
configs, and every measured run is a fresh worker process (worker.py).

--trace 0 measures the end-to-end metrics: the set-up time of several fresh
processes (spawn until `import nvholo.cli` returns), then one worker that runs
passes of ops for --seconds. --trace 1 runs one untraced and one traced worker
for half of --seconds each and reports the per-layer metrics from the traced
one, plus the tracing overhead (traced minus untraced wall_s).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Exit code 0 means a
result was printed; 1 means the benchmark could not run, 2 that the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SPAWNS = 7  # six import-only probes plus the measured worker
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Other tenants of a shared host slow a run for a share of its time that
# changes from run to run; the slow end of the pass times is what repeats.
WALL_PERCENTILE = 90
# End-to-end metrics that BENCHMARK.json cannot bound: error_rate is 0 on a
# healthy program, and op_p50_s spreads wider than the largest allowed bound
# from run to run on a shared host.
PRINTED_ONLY = {"op_p50_s": "s", "error_rate": "ratio"}
TIME_LIMIT_S = 170.0
FAILURES_SHOWN = 5


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"benchmark exceeded its {TIME_LIMIT_S:.0f} s limit")
    return left


def _spawn(args: list, deadline: float):
    """Start a worker and wait for its ready line; returns (process, set-up seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - start
    if line != b"ready\n":
        _stop(proc)
        raise BenchError(f"worker did not import nvholo.cli (exit code {proc.returncode})")
    return proc, setup_s


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline: float):
    try:
        proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _run_worker(args, trace: int, seconds: float, run_dir: str, deadline: float):
    os.makedirs(run_dir)
    proc, setup_s = _spawn(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--run-dir", run_dir,
        ],
        deadline,
    )
    _finish(proc, deadline)
    with open(os.path.join(run_dir, "worker.json"), encoding="utf-8") as handle:
        return json.load(handle), setup_s


def _pass_walls(result) -> list[float]:
    return [sum(op["latency_s"] for op in ops) for ops in result["passes"]]


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _tail(latencies: list[float]) -> tuple[float, str]:
    """Highest ladder percentile (nearest rank) with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return _percentile(latencies, p), f"p{p:g}"
    return statistics.median(latencies), "p50 (fewer than 20 ops)"


def _environment() -> dict:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "nvholo"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _ops(results) -> list[dict]:
    return [op for result in results for ops in result["passes"] for op in ops]


def _end_to_end(args, run_root, deadline, lines) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, setup_s = _spawn(["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(setup_s)
    result, setup_s = _run_worker(args, 0, args.seconds, os.path.join(run_root, "run"), deadline)
    setups.append(setup_s)
    ops = _ops([result])
    latencies = [op["latency_s"] for op in ops]
    walls = _pass_walls(result)
    failed = sum(1 for op in ops if op["problems"])
    tail, label = _tail(latencies)
    values = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} process spawns"),
        "wall_s": (_percentile(walls, WALL_PERCENTILE), f"p{WALL_PERCENTILE} of {len(walls)} passes, ops only"),
        "op_p50_s": (statistics.median(latencies), f"median of {len(latencies)} ops"),
        "op_tail_s": (tail, f"{label} of {len(latencies)} ops"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "max RSS of the measured worker"),
        "error_rate": (failed / len(latencies), f"{failed} failed of {len(latencies)} ops"),
    }
    lines.append(f"passes: {len(walls)}, ops per pass: {len(result['passes'][-1])}")
    return values, [result]


def _per_layer(args, run_root, deadline, lines) -> tuple[dict, list]:
    half = args.seconds / 2.0
    plain, _ = _run_worker(args, 0, half, os.path.join(run_root, "plain"), deadline)
    traced_dir = os.path.join(run_root, "traced")
    traced, _ = _run_worker(args, 1, half, traced_dir, deadline)
    with open(os.path.join(traced_dir, "spans.json"), encoding="utf-8") as handle:
        spans = json.load(handle)
    shutil.copyfile(
        os.path.join(traced_dir, "spans.json"), os.path.join(WORK, f"spans-{args.workload}.json")
    )
    metrics, per_op = summarize(spans, len(traced["passes"]))
    plain_wall = _percentile(_pass_walls(plain), WALL_PERCENTILE)
    traced_wall = _percentile(_pass_walls(traced), WALL_PERCENTILE)
    metrics["import.nvholo_s"] = traced["import_s"]
    metrics["import.modules"] = traced["import_modules"]
    metrics["import.scipy_loaded"] = int(traced["scipy_loaded"])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    lines.append(
        f"tracing overhead: wall_s traced {traced_wall:.4f} s ({len(traced['passes'])} passes)"
        f" - untraced {plain_wall:.4f} s ({len(plain['passes'])} passes)"
        f" = {traced_wall - plain_wall:.4f} s"
    )
    lines.append(f"spans: {len(spans)}, absent: {', '.join(traced['absent']) or 'none'}")
    for error in traced["observer_errors"][:FAILURES_SHOWN]:
        lines.append(f"span observer failed: {error}")
    slots = {op["op"]: op["slot"] for op in _ops([traced])}
    for op_id, counts in per_op.items():
        if slots.get(op_id, "").startswith("default-"):
            shown = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            lines.append(f"op {op_id} {slots[op_id]}: {shown}")
    lines.append("per-layer counts and seconds are per traced pass; ratios, us_per_step and import.* are not")
    return {name: (value, "") for name, value in metrics.items()}, [plain, traced]


def main(argv=None) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "nvholo", "cli.py")):
        print(f"error: no nvholo sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    lines = [
        f"nvholo benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        "env: " + json.dumps(_environment()),
    ]
    run_root = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        measure = _per_layer if args.trace else _end_to_end
        values, results = measure(args, run_root, deadline, lines)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    lines.append(f"env: loadavg_end {list(os.getloadavg())}")

    ops = _ops(results)
    failures = [op for op in ops if op["problems"]]
    compared = [op for op in ops if op["reference"]]
    if compared:
        worst = max(op["max_diff"] if op["max_diff"] is not None else math.inf for op in compared)
        same = sum(1 for op in compared if op["bytes_equal"])
        lines.append(
            f"reference: {len(compared)} ops compared, max |diff| {worst:.3g}, "
            f"{same} of {len(compared)} byte-identical"
        )
    else:
        lines.append("reference: no op of this run has a committed reference (seed 0 only)")
    for op in failures[:FAILURES_SHOWN]:
        lines.append(f"FAILED op {op['op']} {op['slot']} ({op['scenario']}): {op['problems'][0]}")
    lines.append(f"ops: {len(ops)} attempted, {len(failures)} failed")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {e["name"]: {"value": values[e["name"]][0], "unit": e["unit"]} for e in spec[section]}
    for name, (value, note) in values.items():
        unit = metrics[name]["unit"] if name in metrics else PRINTED_ONLY[name]
        gate = "" if name in metrics else "  (printed only, not in BENCHMARK.json)"
        lines.append(f"{name:<44} {value:>14.6g} {unit:<6} {note}{gate}")

    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
