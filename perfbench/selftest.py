"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest run:
the tracer figures below are counts at the commit that defined the benchmark,
and a change that batches or removes evolve calls is meant to move them.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_output  # noqa: E402
from workloads import WORKLOADS, pass_ops  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "error_rate")
RUNNERS = (
    "run_single_qubit_theta_sweep",
    "run_single_qubit_detuning_sweep",
    "run_composite_gate_scenario",
    "run_two_qubit_pi2",
    "run_three_qubit_detuning_sweep",
    "run_three_qubit_time_evolution",
    "run_pi3_rotation",
    "run_dark_state_spectrum",
    "compare_resonant_fidelity",
)
PER_LAYER = (
    "evolve.calls", "evolve.steps", "evolve.records", "evolve.s", "evolve.self_s",
    "evolve.us_per_step", "evolve.schrodinger.s", "evolve.lindblad.s",
    "evolve.recommended_dt.s", "evolve.distinct_input_ratio", "evolve.distinct_transfer_ratio",
    "hamiltonians.sample.calls", "hamiltonians.sample.frames", "hamiltonians.sample.s",
    "hamiltonians.build_interaction_8.s",
    *(f"scenarios.{r}.s" for r in RUNNERS), "scenarios.self_s",
    "gates.phase_from_discrepancy.calls", "gates.phase_from_discrepancy.s",
    "gates.single_qubit_unitary.s",
    "core.state_density_fidelity.calls", "core.state_density_fidelity.s", "core.eig_hermitian.s",
    "config.parse_config.s", "config.write_csv.s", "config.csv_bytes", "config.manifest.s",
    "cli.run_cli.self_s",
    "import.nvholo_s", "import.modules", "import.scipy_loaded",
    "trace.overhead_s",
)
# exact counts of the default ops at the commit that defined the benchmark
DEFAULT_OP_COUNTS = {
    "sweeps-2level": {
        "default-composite": {
            "evolve.calls": 1408,
            "evolve.steps": 166392,
            "evolve.distinct_inputs": 1200,
            "evolve.distinct_transfers": 6,
        },
    },
    "long-trajectories": {
        "default-two-qubit-pi2": {
            "evolve.steps": 45696,
            "hamiltonians.sample.frames": 93448,
            "hamiltonians.sample.calls": 8,
        },
        "default-dark-states": {"evolve.calls": 4, "evolve.steps": 37700},
    },
    "register-loop": {},
}


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return lines[:-1], result


def _spec_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)[section]]


def _printed(lines):
    return {line.split()[0]: line for line in lines if line}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    lines, result = _bench("--workload", workload, "--seed", "1", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _spec_names("end_to_end")
    printed = _printed(lines)
    for name in END_TO_END:
        assert name in printed, name
        assert " of " in printed[name] or "RSS" in printed[name], printed[name]
    for entry in result["metrics"].values():
        assert entry["value"] > 0 and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_default_seed(workload):
    lines, result = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _spec_names("per_layer")
    printed = _printed(lines)
    for name in PER_LAYER:
        assert name in printed, name
    assert any(line.startswith("reference:") and "ops compared" in line for line in lines)
    assert any(line.startswith("tracing overhead:") for line in lines)
    assert any(line.startswith("spans:") and line.endswith("absent: none") for line in lines)
    for slot, expected in DEFAULT_OP_COUNTS[workload].items():
        found = [line for line in lines if line.startswith("op ") and f" {slot}:" in line]
        assert found, slot
        counts = dict(item.split("=") for item in found[0].split(": ", 1)[1].split())
        for name, value in expected.items():
            assert int(counts[name]) == value, (slot, name, counts)


@pytest.fixture
def reference_output(tmp_path):
    """A copy of one committed reference output, manifest included."""
    source = os.path.join(HERE, "reference", "long-trajectories", "default-pi3.csv")
    with open(source, encoding="utf-8") as handle:
        text = handle.read()
    out = tmp_path / "op"
    out.mkdir()
    (out / "manifest").write_text("[scenario]\nid = pi3\n")
    shutil.copyfile(source, out / "result.csv")
    return out, text


def _rewrite_cell(out, row, col, change):
    lines = (out / "result.csv").read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = change(cells[col])
    lines[row] = ",".join(cells)
    (out / "result.csv").write_text("\n".join(lines) + "\n")


def test_reference_copy_passes(reference_output):
    out, text = reference_output
    report = check_output(str(out), text)
    assert report["problems"] == [] and report["bytes_equal"] and report["max_diff"] == 0.0


def test_cell_perturbed_by_1e9_fails(reference_output):
    out, text = reference_output
    _rewrite_cell(out, 3, 1, lambda cell: repr(float(cell) + 1e-9))
    report = check_output(str(out), text)
    assert report["problems"] and report["bytes_equal"] is False
    assert 5e-10 < report["max_diff"] < 2e-9


def test_nan_cell_fails_with_and_without_reference(reference_output):
    out, text = reference_output
    _rewrite_cell(out, 2, 2, lambda cell: "nan")
    assert check_output(str(out), text)["problems"]
    assert check_output(str(out))["problems"]


def test_out_of_range_population_fails_without_reference(reference_output):
    out, _ = reference_output
    _rewrite_cell(out, 2, 1, lambda cell: "1.00001")
    assert check_output(str(out))["problems"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determinism(workload):
    assert pass_ops(workload, 7, 0) == pass_ops(workload, 7, 0)
    assert pass_ops(workload, 7, 3) == pass_ops(workload, 7, 3)
    first = [op.config for op in pass_ops(workload, 7, 0)]
    assert first != [op.config for op in pass_ops(workload, 8, 0)]
    assert first != [op.config for op in pass_ops(workload, 7, 1)]
    defaults = [op for op in pass_ops(workload, 0, 0) if op.slot.startswith("default-")]
    assert len(defaults) == 3
    assert not any(op.slot.startswith("default-") for op in pass_ops(workload, 0, 1))
