"""Command-line front end.

One subcommand per scenario plus validate. Every run writes two files into
the output directory: result.csv, the numeric columns that the scenario's
_table_ builder declares in order, and a manifest that parses back as a
config reproducing the run. Exit codes: 0 success, 2 config problems,
3 numerical or I/O failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from nvholo import __version__
from nvholo.core import ConfigError, NumericalError
from nvholo.config import CsvTable, RunManifest, parse_config, write_csv
from nvholo.scenarios import (
    ScenarioConfig,
    compare_resonant_fidelity,
    run_composite_gate_scenario,
    run_dark_state_spectrum,
    run_pi3_rotation,
    run_single_qubit_detuning_sweep,
    run_single_qubit_theta_sweep,
    run_three_qubit_detuning_sweep,
    run_three_qubit_time_evolution,
    run_two_qubit_pi2,
)

RESULT_NAME = "result.csv"
MANIFEST_NAME = "manifest"

DEFAULT_CONFIGS = {
    "theta-sweep": "[scenario]\nid = theta-sweep\n",
    "detune-sweep": "[scenario]\nid = detune-sweep\n",
    "composite": (
        "[scenario]\nid = composite\n\n"
        "[noise]\nenabled = true\nt1_us = 100.0\nt2_us = 50.0\n"
    ),
    "two-qubit-pi2": "[scenario]\nid = two-qubit-pi2\n",
    "three-qubit-sweep": (
        "[scenario]\nid = three-qubit-sweep\n\n"
        "[detunings]\ndelta1 = 0.0:600.0:15.0\ndelta2 = 450.0\ndelta3 = 450.0\n"
    ),
    "three-qubit-time": (
        "[scenario]\nid = three-qubit-time\n\n"
        "[detunings]\nsets = 300.0,450.0,450.0; 600.0,450.0,450.0\n"
    ),
    "pi3": "[scenario]\nid = pi3\n",
    "dark-states": "[scenario]\nid = dark-states\n",
    "fidelity-compare": (
        "[scenario]\nid = fidelity-compare\n\n"
        "[detunings]\ndelta1 = 450.0\ndelta2 = 450.0\ndelta3 = 450.0\n\n"
        "[noise]\nenabled = true\nt1_us = 100.0\nt2_us = 50.0\n"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvholo",
        description="Pulsed-drive simulator for holonomic register control.",
    )
    parser.add_argument("--version", action="version", version=f"nvholo {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in DEFAULT_CONFIGS:
        sub = subparsers.add_parser(name, help=f"run the {name} scenario")
        sub.add_argument("--config", help="config file; defaults are built in")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--threads", type=int, help="accepted and ignored; sweeps run serially")
        sub.add_argument("--seed", type=int, help="accepted for interface parity")
        sub.add_argument(
            "--dt-override", type=float, dest="dt_override", help="integrator step, us"
        )

    check = subparsers.add_parser("validate", help="parse a config and report")
    check.add_argument("--config", required=True, help="config file to check")
    return parser


def _load_config(args) -> ScenarioConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = DEFAULT_CONFIGS[args.command]
    cfg = parse_config(text, args.command)
    if args.dt_override is not None:
        try:
            cfg = replace(cfg, dt_us=args.dt_override)
        except ConfigError as exc:
            raise ConfigError(f"--dt-override: {exc}") from None
    return cfg


def _table_theta_sweep(cfg):
    result = run_single_qubit_theta_sweep(cfg)
    columns = {"theta_rad": result.axis_values, **result.series}
    return columns, [f"{len(result.axis_values)} rotation angles"]


def _table_detune_sweep(cfg):
    result = run_single_qubit_detuning_sweep(cfg)
    noisy = dict(result.series)
    magnitude, discrepancy, undefined = result.phases
    columns = {
        "delta_mhz": result.axis_values,
        "p1": noisy.pop("p1"),
        "p2": noisy.pop("p2"),
        "phase_magnitude_rad": magnitude,
        "phase_discrepancy": discrepancy,
        **noisy,
    }
    return columns, [f"{len(result.axis_values)} detuning points, {np.count_nonzero(undefined)} undefined phases"]


def _table_composite(cfg):
    result = run_composite_gate_scenario(cfg)
    columns = {"theta_rad": result.axis_values, **result.series}
    return columns, [f"{key} = {value:.6g}" for key, value in sorted(result.fidelities.items())]


def _table_two_qubit(cfg):
    traj = run_two_qubit_pi2(cfg)
    mags = np.abs(traj.amplitudes)
    columns = {
        "time_us": traj.times,
        **{f"amp{k + 1}": mags[:, k] for k in range(4)},
        "norm": np.linalg.norm(traj.amplitudes, axis=1),
    }
    return columns, [f"final |amp1| = {mags[-1, 0]:.6f}, |amp2| = {mags[-1, 1]:.6f}"]


def _table_three_qubit_sweep(cfg):
    result = run_three_qubit_detuning_sweep(cfg)
    n = len(result.axis_values)
    magnitude, discrepancy, undefined = result.phases
    columns = {
        "delta1_mhz": result.axis_values,
        "p_return_state1": result.series["p1_final"],
        "phase_magnitude_rad": magnitude,
        "phase_discrepancy": discrepancy,
        "rotation_angle_rad": math.pi * np.arange(n) / (n - 1),
        "p1_reference": result.series["p1_reference"],
    }
    peak = int(np.argmax(np.abs(magnitude)))
    return columns, [
        f"{n} detuning points, {np.count_nonzero(undefined)} undefined phases",
        f"phase magnitude peaks at delta1 = {result.axis_values[peak]:g} MHz",
    ]


def _table_three_qubit_time(cfg):
    trajs = run_three_qubit_time_evolution(cfg)
    reference = trajs[0]
    columns = {
        "path_fraction": np.linspace(0.0, 1.0, len(reference.times)),
        "time_ref_us": reference.times,
        "p1_ref": reference.populations[:, 0],
    }
    for i, traj in enumerate(trajs[1:], start=1):
        columns[f"time{i}_us"] = traj.times
        columns[f"p1_{i}"] = traj.populations[:, 0]
    return columns, [f"{len(trajs) - 1} detuning triples plus reference"]


def _table_pi3(cfg):
    traj = run_pi3_rotation(cfg)
    pops = traj.populations
    columns = {
        "time_us": traj.times,
        "p1": pops[:, 0],
        "p2": pops[:, 1],
        "p5": pops[:, 4],
        "p_other": pops.sum(axis=1) - pops[:, 0] - pops[:, 1] - pops[:, 4],
        "norm": np.linalg.norm(traj.amplitudes, axis=1),
    }
    finals = np.abs(traj.amplitudes[-1])
    return columns, [f"final |amp5| = {finals[4]:.6f}, |amp1| = {finals[0]:.6f}"]


def _table_dark_states(cfg):
    spectrum = run_dark_state_spectrum(cfg)
    index = np.arange(len(spectrum.eigenvalues_mhz))
    dark = np.isin(index, spectrum.dark_indices)
    leakage = np.zeros(index.shape)
    leakage[dark] = spectrum.leakages  # dark_indices ascend
    columns = {
        "index": index,
        "eigenvalue_mhz": spectrum.eigenvalues_mhz,
        "is_dark": dark,
        "max_leakage": leakage,
    }
    return columns, [f"{len(spectrum.dark_indices)} dark states"]


def _table_fidelity(cfg):
    off, on = compare_resonant_fidelity(cfg)
    columns = {"off_fidelity": [off], "on_fidelity": [on], "gap": [off - on]}
    return columns, [f"off-resonant {off:.4f}, on-resonant {on:.4f}"]


TABLE_BUILDERS = {
    "theta-sweep": _table_theta_sweep,
    "detune-sweep": _table_detune_sweep,
    "composite": _table_composite,
    "two-qubit-pi2": _table_two_qubit,
    "three-qubit-sweep": _table_three_qubit_sweep,
    "three-qubit-time": _table_three_qubit_time,
    "pi3": _table_pi3,
    "dark-states": _table_dark_states,
    "fidelity-compare": _table_fidelity,
}


def _dispatch(args) -> int:
    if args.command == "validate":
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        print(f"config ok: scenario {cfg.scenario_id}")
        return 0

    if args.seed is not None:
        print("randomness is not used; ignoring --seed", file=sys.stderr)
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        print("sweeps run serially; ignoring --threads", file=sys.stderr)

    cfg = _load_config(args)
    started = time.monotonic()
    columns, summary = TABLE_BUILDERS[args.command](cfg)
    try:
        table = CsvTable(tuple(columns), tuple(columns.values()))
    except NumericalError as err:  # a non-finite cell, named under its scenario
        raise NumericalError(f"{args.command}: {err}") from err
    elapsed = time.monotonic() - started

    os.makedirs(args.out, exist_ok=True)
    result_path = os.path.join(args.out, RESULT_NAME)
    manifest_path = os.path.join(args.out, MANIFEST_NAME)
    write_csv(result_path, table)

    run_info = (
        ("artifact_version", __version__),
        ("command", args.command),
        ("wall_time_s", f"{elapsed:.3f}"),
    )
    manifest = RunManifest(cfg=cfg, run_info=run_info)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_text())

    for line in summary:
        print(line)
    print(f"wrote {result_path}")
    print(f"wrote {manifest_path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args leaves it unchanged, while a build
    # per call cost about 2 ms and left strings in the interpreter's type
    # cache that fragmented a long-running caller's heap
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
