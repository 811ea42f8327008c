"""Write the committed reference outputs of the default seed's first pass.

    python3 perfbench/make_reference.py

For every workload it runs each op of pass 0 at seed 0 through
nvholo.cli.run_cli and stores the config and result.csv as
reference/<workload>/<slot>.ini and .csv. A default op is also run without
--config, and its output must equal the CLI's built-in default byte for byte.

Existing reference files are never overwritten: a reference changes only by
deleting it on purpose, and that deletion shows in the diff.
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(run_cli, argv, out_dir) -> str:
    code = run_cli(argv + ["--out", out_dir])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with code {code}")
    with open(os.path.join(out_dir, "result.csv"), encoding="utf-8") as handle:
        return handle.read()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nvholo.cli import run_cli

    from checks import check_output
    from workloads import DEFAULT_SEED, WORKLOADS, pass_ops

    scratch = os.path.join(ROOT, ".perfbench", "make-reference")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    written = 0
    try:
        for workload in WORKLOADS:
            target = os.path.join(HERE, "reference", workload)
            os.makedirs(target, exist_ok=True)
            for op in pass_ops(workload, DEFAULT_SEED, 0):
                base = os.path.join(target, op.slot)
                if os.path.exists(base + ".csv") or os.path.exists(base + ".ini"):
                    print(f"kept {base}.csv")
                    continue
                cfg_path = os.path.join(scratch, op.slot + ".ini")
                with open(cfg_path, "w", encoding="utf-8") as handle:
                    handle.write(op.config)
                out_dir = os.path.join(scratch, workload, op.slot)
                text = _run(run_cli, [op.scenario, "--config", cfg_path], out_dir)
                problems = check_output(out_dir)["problems"]
                if problems:
                    raise SystemExit(f"{workload} {op.slot}: {problems}")
                if op.slot.startswith("default-"):
                    builtin = _run(run_cli, [op.scenario], out_dir + "-builtin")
                    if builtin != text:
                        raise SystemExit(f"{op.slot}: config text differs from the CLI default")
                with open(base + ".ini", "w", encoding="utf-8") as handle:
                    handle.write(op.config)
                with open(base + ".csv", "w", encoding="utf-8") as handle:
                    handle.write(text)
                written += 1
                print(f"wrote {base}.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{written} reference outputs written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
