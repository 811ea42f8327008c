"""Command-line front end.

One subcommand per scenario plus validate. Every run writes two files into
the output directory: result.csv with the scenario's series, and a manifest
that parses back as a config reproducing the run. Exit codes: 0 success,
2 config problems, 3 numerical or I/O failures.
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
from nvholo.config import (
    CsvTable,
    RunManifest,
    columns_to_rows,
    parse_config,
    write_csv,
)
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
    cfg = parse_config(text)
    if cfg.scenario_id != args.command:
        raise ConfigError(
            f"config is for scenario {cfg.scenario_id!r}, "
            f"but the {args.command!r} subcommand was invoked"
        )
    if args.dt_override is not None:
        cfg = replace(cfg, dt_us=args.dt_override)
    return cfg


def _table_theta_sweep(cfg):
    result = run_single_qubit_theta_sweep(cfg)
    header = ["theta_rad", "p1", "p2"]
    columns = [result.axis_values, result.series["p1"], result.series["p2"]]
    if "p1_noisy" in result.series:
        header += ["p1_noisy", "p2_noisy"]
        columns += [result.series["p1_noisy"], result.series["p2_noisy"]]
    table = CsvTable(tuple(header), columns_to_rows(*columns))
    return table, [f"{len(result.axis_values)} rotation angles"]


def _table_detune_sweep(cfg):
    result = run_single_qubit_detuning_sweep(cfg)
    mags = [e.magnitude_rad for e in result.phase_estimates]
    discs = [e.discrepancy for e in result.phase_estimates]
    header = ["delta_mhz", "p1", "p2", "phase_magnitude_rad", "phase_discrepancy"]
    columns = [
        result.axis_values,
        result.series["p1"],
        result.series["p2"],
        mags,
        discs,
    ]
    if "p1_noisy" in result.series:
        header += ["p1_noisy", "p2_noisy", "discrepancy_noisy"]
        columns += [
            result.series["p1_noisy"],
            result.series["p2_noisy"],
            result.series["discrepancy_noisy"],
        ]
    table = CsvTable(tuple(header), columns_to_rows(*columns))
    return table, [f"{len(result.axis_values)} detuning points"]


def _table_composite(cfg):
    result = run_composite_gate_scenario(cfg)
    header = ["theta_rad", "p1", "p2"]
    columns = [result.axis_values, result.series["p1"], result.series["p2"]]
    for name in ("discrepancy_composite", "discrepancy_single", "fidelity_cardinal"):
        if name in result.series:
            header.append(name)
            columns.append(result.series[name])
    table = CsvTable(tuple(header), columns_to_rows(*columns))
    summary = [
        f"{key} = {value:.6g}" for key, value in sorted(result.fidelities.items())
    ]
    return table, summary


def _table_two_qubit(cfg):
    traj = run_two_qubit_pi2(cfg)
    mags = np.abs(traj.amplitudes)
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    table = CsvTable(
        ("time_us", "amp1", "amp2", "amp3", "amp4", "norm"),
        columns_to_rows(traj.times, mags[:, 0], mags[:, 1], mags[:, 2], mags[:, 3], norms),
    )
    summary = [f"final |amp1| = {mags[-1, 0]:.6f}, |amp2| = {mags[-1, 1]:.6f}"]
    return table, summary


def _table_three_qubit_sweep(cfg):
    result = run_three_qubit_detuning_sweep(cfg)
    n = len(result.axis_values)
    angle = math.pi * np.arange(n) / (n - 1)
    mags = [e.magnitude_rad for e in result.phase_estimates]
    discs = [e.discrepancy for e in result.phase_estimates]
    table = CsvTable(
        (
            "delta1_mhz",
            "p_return_state1",
            "phase_magnitude_rad",
            "phase_discrepancy",
            "rotation_angle_rad",
            "p1_reference",
        ),
        columns_to_rows(
            result.axis_values,
            result.series["p1_final"],
            mags,
            discs,
            angle,
            result.series["p1_reference"],
        ),
    )
    peak = int(np.argmax(np.abs(mags)))
    summary = [
        f"phase magnitude peaks at delta1 = {result.axis_values[peak]:g} MHz"
    ]
    return table, summary


def _table_three_qubit_time(cfg):
    trajs = run_three_qubit_time_evolution(cfg)
    reference = trajs[0]
    n = len(reference.times)
    fractions = np.linspace(0.0, 1.0, n)
    header = ["path_fraction", "time_ref_us", "p1_ref"]
    columns = [fractions, reference.times, reference.populations[:, 0]]
    for i, traj in enumerate(trajs[1:], start=1):
        header += [f"time{i}_us", f"p1_{i}"]
        columns += [traj.times, traj.populations[:, 0]]
    table = CsvTable(tuple(header), columns_to_rows(*columns))
    return table, [f"{len(trajs) - 1} detuning triples plus reference"]


def _table_pi3(cfg):
    traj = run_pi3_rotation(cfg)
    pops = traj.populations
    other = pops.sum(axis=1) - pops[:, 0] - pops[:, 1] - pops[:, 4]
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    table = CsvTable(
        ("time_us", "p1", "p2", "p5", "p_other", "norm"),
        columns_to_rows(traj.times, pops[:, 0], pops[:, 1], pops[:, 4], other, norms),
    )
    finals = np.abs(traj.amplitudes[-1])
    summary = [f"final |amp5| = {finals[4]:.6f}, |amp1| = {finals[0]:.6f}"]
    return table, summary


def _table_dark_states(cfg):
    spectrum = run_dark_state_spectrum(cfg)
    leak_by_index = dict(zip(spectrum.dark_indices, spectrum.leakages))
    rows = []
    for i, value in enumerate(spectrum.eigenvalues_mhz):
        dark = 1.0 if i in leak_by_index else 0.0
        rows.append((float(i), float(value), dark, leak_by_index.get(i, 0.0)))
    table = CsvTable(("index", "eigenvalue_mhz", "is_dark", "max_leakage"), tuple(rows))
    summary = [f"{len(spectrum.dark_indices)} dark states"]
    return table, summary


def _table_fidelity(cfg):
    off, on = compare_resonant_fidelity(cfg)
    table = CsvTable(
        ("off_fidelity", "on_fidelity", "gap"),
        ((off, on, off - on),),
    )
    summary = [f"off-resonant {off:.4f}, on-resonant {on:.4f}"]
    return table, summary


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
    table, summary = TABLE_BUILDERS[args.command](cfg)
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
