"""Benchmark worker: one fresh Python process per measured run.

It imports nvholo.cli first and writes "ready" to stdout, which is where the
parent stops the set-up clock. With --probe it exits there. Otherwise it runs
passes of seeded configs through nvholo.cli.run_cli, one op after another (a
closed loop with one client), until --seconds have passed, finishing the pass
in progress. Each op's output is checked outside its timed region and then
deleted. The worker writes worker.json (and spans.json when traced) into
--run-dir.
"""

import os
import sys
import time


def main(argv):
    clock = time.perf_counter()
    loaded = len(sys.modules)
    import nvholo.cli

    import_s = time.perf_counter() - clock
    import_modules = len(sys.modules) - loaded
    scipy_loaded = "scipy" in sys.modules
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv == ["--probe"]:
        return 0

    import argparse
    import contextlib
    import io
    import json
    import resource
    import shutil
    import traceback

    from checks import check_output
    from tracer import Tracer
    from workloads import DEFAULT_SEED, pass_ops

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.abspath(nvholo.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"nvholo was imported from {nvholo.cli.__file__}, not from {src}")
    reference_dir = os.path.join(here, "reference", args.workload)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        index = len(passes)
        records = []
        for slot, op in enumerate(pass_ops(args.workload, args.seed, index)):
            op_id = f"{index}.{slot}"
            cfg_path = os.path.join(args.run_dir, f"{op_id}.ini")
            out_dir = os.path.join(args.run_dir, op_id)
            with open(cfg_path, "w", encoding="utf-8") as handle:
                handle.write(op.config)
            reference, problems = None, []
            if args.seed == DEFAULT_SEED and index == 0:
                reference, problems = _load_reference(reference_dir, op)

            if tracer is not None:
                tracer.op = op_id
            sink = io.StringIO()
            clock = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = nvholo.cli.run_cli(
                        [op.scenario, "--config", cfg_path, "--out", out_dir]
                    )
            except Exception:  # an op that raises counts as failed; the loop goes on
                code, raised = None, traceback.format_exc(limit=-3)
            latency = time.perf_counter() - clock
            if tracer is not None:
                tracer.op = None

            report = {"max_diff": None, "bytes_equal": None}
            if code is None:
                problems.append(f"raised {raised.strip()}")
            elif code != 0:
                problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
            else:
                report = check_output(out_dir, reference)
                problems += report["problems"]
            shutil.rmtree(out_dir, ignore_errors=True)
            os.remove(cfg_path)
            records.append(
                {
                    "op": op_id,
                    "slot": op.slot,
                    "scenario": op.scenario,
                    "latency_s": latency,
                    "problems": problems,
                    "reference": reference is not None,
                    "max_diff": report["max_diff"],
                    "bytes_equal": report["bytes_equal"],
                }
            )
        passes.append(records)

    result = {
        "import_s": import_s,
        "import_modules": import_modules,
        "scipy_loaded": scipy_loaded,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "absent": tracer.absent if tracer else [],
        "observer_errors": tracer.observer_errors if tracer else [],
    }
    if tracer is not None:
        with open(os.path.join(args.run_dir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    with open(os.path.join(args.run_dir, "worker.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _load_reference(reference_dir, op):
    """Committed output of a default-seed op, or the problem that stands in for it."""
    base = os.path.join(reference_dir, op.slot)
    try:
        with open(base + ".ini", encoding="utf-8") as handle:
            config = handle.read()
        with open(base + ".csv", encoding="utf-8") as handle:
            reference = handle.read()
    except OSError as exc:
        return None, [f"no committed reference: {exc}"]
    if config != op.config:
        return None, [f"config differs from the committed {base}.ini"]
    return reference, []


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
