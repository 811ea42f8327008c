"""Config parsing, manifest round-trips, CSV formatting, and CLI exits."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nvholo
from nvholo.cli import run_cli
from nvholo.config import (
    CsvTable,
    RunManifest,
    parse_config,
    parse_manifest,
    render_config,
    write_csv,
)
from nvholo.core import ConfigError, NumericalError
from nvholo.evolve import NoiseModel
from nvholo.gates import GateParams
from nvholo.hamiltonians import PulsedHamiltonian
from nvholo.scenarios import ScenarioConfig, SweepSpec

MINIMAL = "[scenario]\nid = pi3\n"


# --- parsing ----------------------------------------------------------------


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario_id == "pi3"
    assert cfg.rabi_mhz == 15.0
    assert cfg.detunings == (0.0, 0.0, 0.0)
    assert cfg.noise.enabled is False
    assert cfg.hermiticity == "hermitized"
    assert cfg.initial_state == ("level", 0)


def test_parse_empty_detunings_section_means_zero():
    cfg = parse_config(MINIMAL + "\n[detunings]\n")
    assert cfg.detunings == (0.0, 0.0, 0.0)


def test_parse_sweep_values():
    text = (
        "[scenario]\nid = three-qubit-sweep\n\n"
        "[detunings]\ndelta1 = 0.0:600.0:15.0\ndelta2 = 450.0\ndelta3 = 450.0\n"
    )
    cfg = parse_config(text)
    assert isinstance(cfg.detunings[0], SweepSpec)
    assert cfg.detunings[0].values().shape == (41,)
    assert cfg.detunings[1] == 450.0


def test_parse_noise_and_integrator():
    text = (
        MINIMAL
        + "\n[noise]\nenabled = true\nt1_us = 200.0\nt2_us = 80.0\n"
        + "\n[integrator]\ndt_us = 5e-05\nrenormalize = false\n"
    )
    cfg = parse_config(text)
    assert cfg.noise == NoiseModel(t1_us=200.0, t2_us=80.0, enabled=True)
    assert cfg.dt_us == 5e-5
    assert cfg.renormalize is False


def test_parse_gates_and_sets():
    text = (
        "[scenario]\nid = composite\n\n"
        "[pulses]\ngate1 = 0.7,0.4,0.3\ngate2 = -0.7,-0.2,0.1\ngate3 = 0.7,0.4,0.3\n"
    )
    cfg = parse_config(text)
    assert len(cfg.gate_params) == 3
    assert cfg.gate_params[0] == GateParams(theta=0.7, phi=0.4, lam=0.3)

    text = (
        "[scenario]\nid = three-qubit-time\n\n"
        "[detunings]\nsets = 300.0,450.0,450.0; 600.0,450.0,450.0\n"
    )
    cfg = parse_config(text)
    assert cfg.detuning_sets == ((300.0, 450.0, 450.0), (600.0, 450.0, 450.0))


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[scenario]\nid = pi3\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("orphan = 1\n")
    with pytest.raises(ConfigError, match="line 4"):
        parse_config("[scenario]\nid = pi3\n\nrabi_mhz 15\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[scenario]\nid = pi3\nid = pi3\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(MINIMAL + "\n[pulses]\nrabi_mhz = fast\n")
    with pytest.raises(ConfigError, match="must be true or false"):
        parse_config(MINIMAL + "\n[noise]\nenabled = maybe\n")
    with pytest.raises(ConfigError, match="start:stop:step"):
        parse_config(
            "[scenario]\nid = three-qubit-sweep\n\n[detunings]\ndelta1 = 0:600\n"
        )


def test_parse_rejects_unphysical_noise_window():
    text = MINIMAL + "\n[noise]\nenabled = true\nt1_us = 100.0\nt2_us = 300.0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_rejects_bad_sweep_step():
    text = (
        "[scenario]\nid = three-qubit-sweep\n\n"
        "[detunings]\ndelta1 = 0.0:600.0:-5.0\ndelta2 = 450.0\ndelta3 = 450.0\n"
    )
    with pytest.raises(ConfigError, match="step"):
        parse_config(text)


def test_parse_rejects_oversized_sweep():
    text = "[scenario]\nid = theta-sweep\nsweep = 0:1e18:1\n"
    with pytest.raises(ConfigError, match="line 3: sweep has more than"):
        parse_config(text)


def test_parse_accepts_and_ignores_threads_key():
    # manifests written before sweeps went serial carry a threads key
    cfg = parse_config("[scenario]\nid = pi3\nthreads = 3\n")
    assert cfg == parse_config(MINIMAL)
    assert "threads" not in render_config(cfg)
    with pytest.raises(ConfigError, match="line 3: threads must be an integer >= 1"):
        parse_config("[scenario]\nid = pi3\nthreads = 0\n")
    with pytest.raises(ConfigError, match="line 3: threads must be an integer"):
        parse_config("[scenario]\nid = pi3\nthreads = two\n")


def test_parse_accepts_run_section():
    text = MINIMAL + "\n[run]\nartifact_version = 9.9.9\nanything = goes\n"
    cfg = parse_config(text)
    assert cfg.scenario_id == "pi3"


def test_parse_rejects_gates_split_across_configs():
    text = "[scenario]\nid = composite\n\n[pulses]\ngate1 = 0.7,0.4,0.3\n"
    with pytest.raises(ConfigError, match="go together"):
        parse_config(text)


# --- render round-trip -------------------------------------------------------


ROUND_TRIP_CONFIGS = [
    ScenarioConfig(scenario_id="pi3"),
    ScenarioConfig(
        scenario_id="theta-sweep",
        sweep=SweepSpec(0.0, 2.0 * math.pi, math.pi / 8.0),
        noise=NoiseModel(t1_us=120.0, t2_us=60.0, enabled=True),
    ),
    ScenarioConfig(
        scenario_id="three-qubit-sweep",
        detunings=(SweepSpec(0.0, 600.0, 15.0), 450.0, 450.0),
        duration_us=8.9719,
    ),
    ScenarioConfig(
        scenario_id="three-qubit-time",
        detuning_sets=((300.0, 450.0, 450.0), (600.0, 450.0, 450.0)),
    ),
    ScenarioConfig(
        scenario_id="composite",
        gate_params=(
            GateParams(theta=0.7, phi=0.4, lam=0.3),
            GateParams(theta=-0.7, phi=-0.2, lam=0.1),
            GateParams(theta=0.7, phi=0.4, lam=0.3),
        ),
    ),
    ScenarioConfig(
        scenario_id="dark-states",
        drive_amplitudes_mhz=(15.0, 14.0, 13.0, 12.0, 11.0, 10.0),
        initial_state=("rotation", 0.5),
        dt_us=1e-4,
        renormalize=False,
    ),
]


@pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS)
def test_render_parse_round_trip(cfg):
    assert parse_config(render_config(cfg)) == cfg


def test_manifest_round_trip_keeps_run_info():
    cfg = ScenarioConfig(scenario_id="pi3")
    manifest = RunManifest(cfg=cfg, run_info=(("artifact_version", "0.1.0"),))
    text = manifest.to_text()
    back = parse_manifest(text)
    assert back.cfg == cfg
    assert dict(back.run_info)["artifact_version"] == "0.1.0"
    # a manifest is itself a valid config
    assert parse_config(text) == cfg


# --- csv ----------------------------------------------------------------------


def test_csv_table_formats_12_digits():
    table = CsvTable(("a", "b"), ([1.0 / 3.0], [2.0]))
    text = table.to_text()
    assert text == "a,b\n0.333333333333,2\n"


def test_csv_collapses_negative_zero():
    table = CsvTable(("x",), ([-0.0],))
    assert table.to_text() == "x\n0\n"


def test_csv_rows_read_as_cells_of_12_digits():
    # each row is one format string: the text is the cells' own 12-digit
    # text, across magnitudes, subnormals and the edges of exponent notation
    rng = np.random.default_rng(14)
    values = np.concatenate(
        [
            rng.normal(size=600) * 10.0 ** rng.integers(-320, 308, 600),
            [0.0, -0.0, 1.0, -1e-5, 1e-4, 9.99999999999e-5, 1e15, 1e16, 999999999999.5, 5e-324],
            [2.2250738585072014e-308, 1.7976931348623157e308],
        ]
    ).reshape(-1, 3)
    text = CsvTable(("a", "b", "c"), tuple(values.T)).to_text()
    cells = [",".join(f"{x + 0.0:.12g}" for x in row) for row in values.tolist()]
    assert text == "a,b,c\n" + "\n".join(cells) + "\n"


def test_csv_header_only_when_no_rows():
    table = CsvTable(("x", "y"), ([], []))
    assert table.to_text() == "x,y\n"


def test_csv_rejects_columns_that_do_not_match_the_header():
    with pytest.raises(ConfigError):
        CsvTable((), ())
    with pytest.raises(ConfigError):
        CsvTable(("x", "y"), ([1.0, 2.0], [3.0]))
    with pytest.raises(ConfigError):
        CsvTable(("x", "y"), ([1.0],))
    with pytest.raises(ConfigError):
        CsvTable(("x",), (np.zeros((2, 2)),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_csv_rejects_non_finite_cells(bad):
    with pytest.raises(NumericalError, match="row 1 column 'y'"):
        CsvTable(("x", "y"), ([0.0, 0.5], [1.0, bad]))


def per_cell_csv_text(header, columns):
    # the row-by-row formatter over numpy scalars that the column-wise text replaced
    def cell(value):
        number = float(value)
        if number == 0.0:
            number = 0.0
        return f"{number:.12g}"

    arrays = [np.asarray(c) for c in columns]
    rows = [[arr[i] for arr in arrays] for i in range(arrays[0].shape[0])]
    return "\n".join([",".join(header)] + [",".join(cell(c) for c in row) for row in rows]) + "\n"


def test_csv_text_matches_per_cell_formatter():
    columns = [
        np.array([-0.0, 0.0, 1e-300, -1e-300, 1.0 / 3.0, -2.5e17, 5e-324]),
        np.arange(-3, 4),
        np.array([2**53 + 1, 10**15, -(10**13), 0, 1, 7, 123456789012345]),
        np.linspace(-1.0, 1.0, 7, dtype=np.float32),
        np.array([True, False, True, True, False, False, True]),
        [True, False, True, 0.5, -0.0, 3, 1e300],
    ]
    header = ("f", "i", "big", "f32", "bool", "mixed")
    text = CsvTable(header, columns).to_text()
    assert text == per_cell_csv_text(header, columns)


def test_csv_names_the_first_non_finite_cell():
    # the first bad cell in row order, not in column order
    columns = ([0.0, 1.0, math.nan], [2.0, 3.0, 4.0], [1.0, math.inf, 2.0])
    with pytest.raises(NumericalError, match=r"csv row 1 column 'c' is inf"):
        CsvTable(("a", "b", "c"), columns)
    with pytest.raises(NumericalError, match=r"csv row 0 column 'b' is nan"):
        CsvTable(("a", "b"), ([1.0, math.nan], [math.nan, 2.0]))


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, CsvTable(("x",), ([0.5, 1.0],)))
    assert path.read_text() == "x\n0.5\n1\n"


# --- cli ------------------------------------------------------------------------


def test_cli_pi3_writes_results(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["pi3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    result = (out / "result.csv").read_text()
    assert result.startswith("time_us,p1,p2,p5,p_other,norm\n")
    manifest = (out / "manifest").read_text()
    assert parse_config(manifest).scenario_id == "pi3"


def test_cli_results_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["theta-sweep", "--out", str(out_a)]) == 0
    assert run_cli(["theta-sweep", "--out", str(out_b)]) == 0
    assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()


def test_cli_manifest_reproduces_run(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["pi3", "--out", str(out_a)]) == 0
    manifest = str(out_a / "manifest")
    assert run_cli(["pi3", "--config", manifest, "--out", str(out_b)]) == 0
    assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text(MINIMAL)
    assert run_cli(["validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nid = pi3\nnope = 1\n")
    assert run_cli(["validate", "--config", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_rejects_mismatched_config(tmp_path):
    config = tmp_path / "theta.ini"
    config.write_text("[scenario]\nid = theta-sweep\n")
    code = run_cli(["pi3", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_missing_config_file_is_io_failure(tmp_path):
    code = run_cli(
        ["pi3", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "x")]
    )
    assert code == 3


def test_cli_unknown_flag_exits_two(tmp_path, capsys):
    assert run_cli(["pi3", "--out", str(tmp_path), "--frobnicate"]) == 2
    capsys.readouterr()


def test_cli_seed_warns_and_runs(tmp_path, capsys):
    code = run_cli(["pi3", "--out", str(tmp_path / "x"), "--seed", "7"])
    assert code == 0
    assert "ignoring --seed" in capsys.readouterr().err


def test_cli_threads_is_ignored(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["detune-sweep", "--out", str(out_a)]) == 0
    capsys.readouterr()
    assert run_cli(["detune-sweep", "--out", str(out_b), "--threads", "4"]) == 0
    assert "ignoring --threads" in capsys.readouterr().err
    assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()
    assert run_cli(["pi3", "--out", str(tmp_path / "c"), "--threads", "0"]) == 2


@pytest.mark.parametrize("scenario,level", [("two-qubit-pi2", 7), ("pi3", 9)])
def test_cli_out_of_range_initial_level_exits_two(tmp_path, capsys, scenario, level):
    config = tmp_path / "cfg"
    config.write_text(f"[scenario]\nid = {scenario}\ninitial_level = {level}\n")
    code = run_cli([scenario, "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "initial level must be below" in capsys.readouterr().err
    # a rotation is defined on two levels only; it must not fall back to level 0
    config.write_text(f"[scenario]\nid = {scenario}\ninitial_rotation_rad = 1.0\n")
    code = run_cli([scenario, "--config", str(config), "--out", str(tmp_path / "y")])
    assert code == 2
    assert "initial_rotation_rad needs a two-level scenario" in capsys.readouterr().err


def test_cli_oversized_sweep_exits_two(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = theta-sweep\nsweep = 0:1e18:1\n")
    code = run_cli(["theta-sweep", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_tiny_step_exits_two(tmp_path, capsys):
    # 1e-300 us over the 22 ns pi3 pulse is about 2e298 steps
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = pi3\n\n[integrator]\ndt_us = 1e-300\n")
    for argv in (["--config", str(config)], ["--dt-override", "1e-300"]):
        out = tmp_path / argv[0]
        assert run_cli(["pi3", *argv, "--out", str(out)]) == 2
        assert "takes more than 10000000 steps" in capsys.readouterr().err
        assert not (out / "result.csv").exists()


def test_cli_tiny_configured_step_names_point_and_key(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = pi3\n\n[integrator]\ndt_us = 1e-300\n")
    for argv in (["--config", str(config)], ["--dt-override", "1e-300"]):
        out = tmp_path / argv[0]
        assert run_cli(["pi3", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: pi3: a span of 0.0222222 us at dt = 1e-300 us takes more than "
            "10000000 steps; raise [integrator] dt_us\n"
        )
        assert not (out / "result.csv").exists()


def test_cli_tiny_default_step_names_its_source(tmp_path, capsys):
    # no dt is set: recommended_dt follows drives of 1e9 MHz to a 1.6 ps step,
    # and the message names that source instead of a key the user never set
    config = tmp_path / "cfg"
    config.write_text(
        "[scenario]\nid = dark-states\n\n[pulses]\ndrive_amplitudes_mhz = " + ",".join(["1e9"] * 6) + "\n"
    )
    out = tmp_path / "x"
    assert run_cli(["dark-states", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dark-states: a span of 1 us at dt = ")
    assert err.endswith(
        "takes more than 10000000 steps; no [integrator] dt_us is set, "
        "so the step follows the pulse's fastest frequency\n"
    )
    assert not (out / "result.csv").exists()


def test_cli_late_non_finite_coefficients_exit_three(tmp_path, capsys, monkeypatch):
    # the default two-qubit-pi2 run, with coefficients that go NaN only past
    # 90 % of the span: the check of the chunk that first holds them fires,
    # and no later chunk is built
    span = 8.0 / ScenarioConfig(scenario_id="two-qubit-pi2").envelope_mhz
    coefficients, calls = PulsedHamiltonian.coefficients, []

    def late_nan(self, times):
        c = coefficients(self, times)
        calls.append(times)
        if len(calls) > 1:  # the first is recommended_dt's probe: it sets the default step
            c[times > 0.9 * span] = np.nan
        return c

    monkeypatch.setattr(PulsedHamiltonian, "coefficients", late_nan)
    out = tmp_path / "x"
    assert run_cli(["two-qubit-pi2", "--out", str(out)]) == 3
    chunks = calls[1:]
    failing = next(i for i, times in enumerate(chunks) if times[-1] > 0.9 * span)
    assert failing == len(chunks) - 1 and failing >= 90  # of the plan's 103 chunks
    assert capsys.readouterr().err == (
        "numerical failure: two-qubit-pi2: non-finite Hamiltonian sample "
        f"near t={chunks[failing][0]:.6g} us\n"
    )
    assert not (out / "result.csv").exists()


def test_cli_dt_override_lands_in_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["pi3", "--out", str(out), "--dt-override", "5e-05"]) == 0
    manifest = parse_manifest((out / "manifest").read_text())
    assert manifest.cfg.dt_us == 5e-5


def test_cli_three_qubit_sweep_columns(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(["three-qubit-sweep", "--out", str(out)]) == 0
    lines = (out / "result.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "delta1_mhz",
        "p_return_state1",
        "phase_magnitude_rad",
        "phase_discrepancy",
        "rotation_angle_rad",
        "p1_reference",
    ]
    assert len(lines) == 42
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # reference population runs 1 -> 0 as the loop angle runs 0 -> pi
    assert float(first[5]) == 1.0
    assert float(last[5]) < 1e-12
    assert float(last[4]) == pytest.approx(math.pi, abs=1e-9)


def test_python_dash_m_cli_writes_nothing_to_stderr():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvholo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nvholo.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    assert proc.stderr == ""


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvholo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nvholo.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_exposes_run_cli():
    assert nvholo.run_cli is run_cli
    with pytest.raises(AttributeError):
        nvholo.no_such_name


def test_cli_names_the_point_when_dt_exceeds_a_pulse(tmp_path, capsys):
    # the first composite leg at theta = 0.5 lasts 1.8 ns, under the 4 ns step
    config = tmp_path / "cfg"
    config.write_text(
        "[scenario]\nid = composite\nsweep = 0.5:6.0:0.5\n\n[integrator]\ndt_us = 0.004\n"
    )
    out = tmp_path / "x"
    assert run_cli(["composite", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: composite theta=0.5: [integrator] dt_us = 0.004 exceeds")
    assert not (out / "result.csv").exists()


def test_cli_nan_between_checks_exits_three(tmp_path, capsys):
    # dt = 1 us puts |lambda| dt near 100 on the default interaction matrix:
    # the RK4 map grows the state by ~1e6 per step, so it overflows to inf
    # long before the first record check at step 78
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = dark-states\n\n[pulses]\nduration_us = 10000.0\n")
    out = tmp_path / "x"
    code = run_cli(["dark-states", "--config", str(config), "--out", str(out), "--dt-override", "1.0"])
    assert code == 3
    assert "norm drifted to inf at step 78 " in capsys.readouterr().err
    assert not (out / "result.csv").exists()
    assert not (out / "manifest").exists()


def test_cli_negative_noisy_population_exits_three(tmp_path, capsys):
    # T1 = T2 = 0.01 us at a 0.02 us step is past RK4's stability limit for
    # the dissipator, yet the master equation keeps the trace: the norm gates
    # pass and the theta = 6 populations go negative
    config = tmp_path / "cfg"
    config.write_text(
        "[scenario]\nid = theta-sweep\nsweep = 0:6:6\n\n"
        "[noise]\nenabled = true\nt1_us = 0.01\nt2_us = 0.01\n\n[integrator]\ndt_us = 0.02\n"
    )
    out = tmp_path / "x"
    assert run_cli(["theta-sweep", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: theta-sweep theta=6 start=initial: recorded population fell to -0.")
    assert not (out / "result.csv").exists()


REFERENCES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference")
REFERENCE_CONFIGS = sorted(
    (name[: -len(".ini")], workload)
    for workload in os.listdir(REFERENCES)
    for name in os.listdir(os.path.join(REFERENCES, workload))
    if name.endswith(".ini")
)


def _csv_cells(text):
    header, *rows = text.splitlines()
    return header, np.array([[float(cell) for cell in row.split(",")] for row in rows])


@pytest.mark.parametrize(
    "name, workload", REFERENCE_CONFIGS, ids=[name for name, _ in REFERENCE_CONFIGS]
)
def test_cli_matches_long_trajectory_reference(tmp_path, name, workload):
    # the committed references of all three benchmark workloads (the long
    # runs, the 2-level sweeps and the register loop), read and never
    # written here
    base = os.path.join(REFERENCES, workload, name)
    with open(base + ".ini", encoding="utf-8") as handle:
        scenario = parse_config(handle.read()).scenario_id
    with open(base + ".csv", encoding="utf-8") as handle:
        ref_header, reference = _csv_cells(handle.read())
    out = tmp_path / name
    assert run_cli([scenario, "--config", base + ".ini", "--out", str(out)]) == 0
    header, cells = _csv_cells((out / "result.csv").read_text())
    assert header == ref_header and cells.shape == reference.shape
    assert np.max(np.abs(cells - reference)) <= 1e-10
