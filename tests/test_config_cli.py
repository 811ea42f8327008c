"""Config parsing, manifest round-trips, CSV formatting, and CLI exits."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvholo
from nvholo import gates
from nvholo.cli import DEFAULT_CONFIGS, run_cli
from nvholo.config import (
    KEYS,
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
from nvholo.scenarios import (
    SCENARIO_IDS,
    ScenarioConfig,
    SweepSpec,
    run_single_qubit_detuning_sweep,
    run_three_qubit_detuning_sweep,
)

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


def test_parse_accepts_and_ignores_carrier_key():
    # no runner drives a carrier; manifests written while it was a config
    # field carry the key
    cfg = parse_config("[scenario]\nid = two-qubit-pi2\n\n[pulses]\ncarrier_mhz = 123\n")
    assert cfg == parse_config("[scenario]\nid = two-qubit-pi2\n")
    assert "carrier" not in render_config(cfg)
    for value, message in (("-1", "must be >= 0 MHz"), ("fast", "must be a number"), ("inf", "must be finite")):
        with pytest.raises(ConfigError, match=f"line 5: carrier_mhz {message}"):
            parse_config(f"[scenario]\nid = pi3\n\n[pulses]\ncarrier_mhz = {value}\n")


def test_parse_accepts_run_section():
    text = MINIMAL + "\n[run]\nartifact_version = 9.9.9\nanything = goes\n"
    cfg = parse_config(text)
    assert cfg.scenario_id == "pi3"


def test_parse_rejects_gates_split_across_configs():
    text = "[scenario]\nid = composite\n\n[pulses]\ngate1 = 0.7,0.4,0.3\n"
    with pytest.raises(ConfigError, match="go together"):
        parse_config(text)


RULE_LINES = [
    ("unknown-scenario", "bogus", "", "line 2: unknown scenario 'bogus'"),
    ("negative-level", "pi3", "initial_level = -1\n", "line 3: initial level must be an integer >= 0, got -1"),
    (
        "exclusive-start",
        "theta-sweep",
        "initial_level = 0\ninitial_rotation_rad = 1\n",
        "line 4: initial_level and initial_rotation_rad are exclusive",
    ),
    ("sweep-step", "theta-sweep", "sweep = 0:1:-1\n", "line 3: sweep step must be > 0, got -1.0"),
    ("gate-nan", "composite", "\n[pulses]\ngate1 = nan,0,0\ngate2 = 0,0,0\ngate3 = 0,0,0\n", "line 5: theta must be finite, got nan"),
    ("gates-together", "composite", "\n[pulses]\nrabi_mhz = 15\ngate2 = 1,0,0\n", "line 6: gate1, gate2, and gate3 go together"),
    ("rabi", "pi3", "\n[pulses]\nrabi_mhz = -1\n", "line 5: rabi must be > 0 MHz, got -1.0"),
    ("drive", "pi3", "\n[pulses]\ndrive_mhz = 0\n", "line 5: drive amplitude must be > 0 MHz"),
    ("splitting", "pi3", "\n[pulses]\nsplitting_mhz = 0\nenvelope_mhz = 0\n", "line 5: splitting and envelope scales"),
    ("envelope", "pi3", "\n[pulses]\nsplitting_mhz = 20\nenvelope_mhz = 0\n", "line 6: splitting and envelope scales"),
    ("amplitudes", "dark-states", "\n[pulses]\ndrive_amplitudes_mhz = 1,2\n", "line 5: drive_amplitudes_mhz needs exactly 6"),
    ("duration", "pi3", "\n[pulses]\nduration_us = 0\n", "line 5: duration must be > 0 us"),
    ("sets-inf", "three-qubit-time", "\n[detunings]\nsets = inf,0,0\n", "line 5: each detuning set must be a finite triple"),
    ("dt", "pi3", "\n[integrator]\nrenormalize = true\ndt_us = 0\n", "line 6: dt_us must be finite and > 0 us, got 0.0"),
    ("t1", "pi3", "\n[noise]\nenabled = true\nt1_us = 0\n", "line 6: t1 must be > 0, got 0.0"),
    # the rule names t2_us first, so the line is its own, not the section's first
    ("t2", "pi3", "\n[noise]\nenabled = true\nt2_us = 300\n", "line 6: t2 (300.0 us) exceeds 2*t1 (200.0 us)"),
    # inf is a channel switched off, nan and -inf are not times
    ("t2-inf", "pi3", "\n[noise]\nenabled = true\nt2_us = inf\n", "line 6: t2 (inf us) exceeds 2*t1 (200.0 us)"),
    ("t1-nan", "pi3", "\n[noise]\nenabled = true\nt1_us = nan\n", "line 6: t1 must be > 0, got nan"),
    ("t2-minus-inf", "pi3", "\n[noise]\nt2_us = -inf\nenabled = true\n", "line 5: t2 must be > 0, got -inf"),
    (
        "scalar-delta3",
        "three-qubit-sweep",
        "\n[detunings]\ndelta1 = 0:600:15\ndelta3 = 0:1:1\n",
        "line 6: three-qubit-sweep: [detunings] delta3 must be a number here",
    ),
    ("gaussian-width", "two-qubit-pi2", "\n[pulses]\nenvelope_mhz = 1e308\n", "line 5: two-qubit-pi2: [pulses] envelope_mhz"),
    ("pi3-span-zero", "pi3", "\n[pulses]\nrabi_mhz = 1e308\n", "line 5: pi3: [pulses] rabi_mhz = 1e+308 puts"),
    # 1e-320 is subnormal, held as 9.99989e-321
    ("pi3-span-inf", "pi3", "\n[pulses]\nrabi_mhz = 1e-320\n", "line 5: pi3: [pulses] rabi_mhz = 9.99989e-321 puts"),
    ("dark-overflow", "dark-states", "\n[detunings]\ndelta2 = 1e308\n", "line 5: [detunings] delta2 = 1e+308 MHz overflows"),
    ("hermiticity", "pi3", "\n[integrator]\nhermiticity = Sideways\n", "line 5: unknown hermiticity mode 'sideways'"),
    ("dark-literal", "dark-states", "\n[integrator]\nhermiticity = literal\n", "line 5: dark-state spectrum requires"),
    # the first of the rule's keys (delta2, delta3) that the text sets, not the first line
    (
        "common-mode",
        "three-qubit-sweep",
        "\n[detunings]\ndelta1 = 0:600:15\ndelta3 = 1e308\ndelta2 = 1e308\n",
        "line 7: three-qubit-sweep: the common mode",
    ),
    ("common-mode-sets", "three-qubit-time", "\n[detunings]\nsets = 1e308,1e308,1e308\n", "line 5: three-qubit-time: the common mode"),
    ("fidelity-noise-default", "fidelity-compare", "", "default: fidelity comparison needs an enabled noise model"),
    ("fidelity-noise-t1", "fidelity-compare", "\n[noise]\nt1_us = 100\n", "default: fidelity comparison needs"),
    ("fidelity-noise-off", "fidelity-compare", "\n[noise]\nt1_us = 100\nenabled = false\n", "line 6: fidelity comparison needs"),
    ("sweep-default-delta1", "three-qubit-sweep", "", "default: three-qubit sweep needs at least 2 axis points"),
    ("sweep-scalar-delta1", "three-qubit-sweep", "\n[detunings]\ndelta1 = 300\n", "line 5: three-qubit sweep needs at least 2"),
    ("time-no-sets", "three-qubit-time", "", "default: three-qubit time evolution needs at least one detuning triple"),
    ("pi3-rotation", "pi3", "initial_rotation_rad = 0.5\n", "line 3: initial_rotation_rad needs a two-level scenario"),
    ("pi3-level", "pi3", "initial_level = 9\n", "line 3: initial level must be below 8 here, got 9"),
]


@pytest.mark.parametrize("scenario, extra, expected", [case[1:] for case in RULE_LINES], ids=[case[0] for case in RULE_LINES])
def test_parse_names_the_line_of_each_rule(scenario, extra, expected):
    # every ScenarioConfig rule that config text can reach names the line of
    # the first of its keys that the text sets, or the defaults. The rules
    # on field types (a GateParams entry, a SweepSpec, a NoiseModel, three
    # detunings, the start-state form), a non-finite start angle or
    # detuning and a composite gate count other than 3 cannot be reached
    # from text: the value parsers build only such values, or reject them on
    # their line, and gate1 to gate3 go together
    with pytest.raises(ConfigError) as caught:
        parse_config(f"[scenario]\nid = {scenario}\n{extra}")
    assert str(caught.value).startswith(expected)


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


MISSING_ID = "config needs an id key in the [scenario] section"
# values that some key takes, then values that most keys reject
VALUES = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "9", "-1", "0.5", "450", "1e308", "-1e308", "1e-320", "true", "off", "literal", "hermitized"]
        + ["0:6:6", "0:600:15", "1,2,3", "1,2,3,4", "1,2,3,4,5,6", "300,450,450; 600,450,450", "inf,0,0", *SCENARIO_IDS]
    ),
    st.sampled_from(["nan", "inf", "", "fast", "maybe", "1:0:1", "0:1e18:1", "0:1", "nan,0,0", "1,2; 3"]),
    st.floats().map(repr),
)


def _section(name):
    keys = [key.name for key in KEYS if key.section == name]
    entries = st.lists(st.tuples(st.sampled_from(keys), VALUES), max_size=3, unique_by=lambda entry: entry[0])
    return entries.map(lambda kv: f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in kv))


CONFIG_TEXTS = st.tuples(
    st.sampled_from([*SCENARIO_IDS, "bogus", None]),
    st.lists(
        st.one_of(
            *(_section(name) for name in dict.fromkeys(key.section for key in KEYS)),
            st.sampled_from(["[run]\nwall_time_s = 1\n", "bogus = 1\n", "[mystery]\n", "orphan\n", "# note\n", " = 1\n"]),
        ),
        max_size=3,
    ),
).map(lambda t: ("" if t[0] is None else f"[scenario]\nid = {t[0]}\n") + "".join(t[1]))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(CONFIG_TEXTS)
def test_any_config_text_parses_or_names_its_line(text):
    # text either parses, or fails as a ConfigError that names the line it
    # is about or the defaults; a rule's line sets one of the rule's keys
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        message = str(exc)
        if message == MISSING_ID:
            return
        match = re.match(r"line (\d+): |default: ", message)
        assert match, message
        if match.group(1) is not None:
            lines = text.splitlines()
            assert 1 <= int(match.group(1)) <= len(lines), message
            line = lines[int(match.group(1)) - 1]
            assert not exc.keys or line.partition("=")[0].strip() in exc.keys, message
        else:
            assert exc.keys and not any(re.search(rf"^{key} =", text, re.M) for key in exc.keys), message
    else:
        assert isinstance(cfg, ScenarioConfig)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
SWEEPS = st.builds(
    lambda start, step, n: SweepSpec(start, start + n * step, step),
    st.floats(-1e3, 1e3),
    st.floats(1e-2, 1e2),
    st.integers(0, 40),
)
# an infinite time switches its channel off; t2 may be infinite only with t1
NOISE = st.builds(
    lambda t1, ratio, t2, enabled: NoiseModel(t1_us=t1, t2_us=min(2.0 * t1 * ratio, t2), enabled=enabled),
    POSITIVE | st.just(math.inf),
    st.floats(1e-3, 1.0),
    POSITIVE | st.just(math.inf),
    st.booleans(),
)


@st.composite
def scenario_configs(draw):
    first = draw(st.integers(0, len(SCENARIO_IDS) - 1))
    kwargs = dict(
        initial_state=draw(st.tuples(st.just("level"), st.integers(0, 1)) | st.tuples(st.just("rotation"), FINITE)),
        gate_params=draw(st.just(()) | st.tuples(*[st.builds(GateParams, FINITE, FINITE, FINITE, FINITE)] * 3)),
        detunings=draw(st.tuples(*[FINITE | SWEEPS] * 3)),
        detuning_sets=draw(st.lists(st.tuples(FINITE, FINITE, FINITE), max_size=3).map(tuple)),
        sweep=draw(st.none() | SWEEPS),
        rabi_mhz=draw(POSITIVE),
        drive_mhz=draw(st.none() | POSITIVE),
        splitting_mhz=draw(POSITIVE),
        envelope_mhz=draw(POSITIVE),
        drive_amplitudes_mhz=draw(st.just(()) | st.tuples(*[FINITE] * 6)),
        duration_us=draw(st.none() | POSITIVE),
        noise=draw(NOISE),
        hermiticity=draw(st.sampled_from(["hermitized", "literal"])),
        dt_us=draw(st.none() | POSITIVE),
        renormalize=draw(st.booleans()),
    )
    # the drawn scenario, else the next that takes these fields (theta-sweep takes any)
    for scenario in SCENARIO_IDS[first:] + SCENARIO_IDS[:first]:
        try:
            return ScenarioConfig(scenario_id=scenario, **kwargs)
        except ConfigError:
            continue
    raise AssertionError(f"no scenario takes {kwargs}")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(scenario_configs())
def test_generated_configs_survive_render_and_parse(cfg):
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


@pytest.mark.parametrize("carrier", ["4966.0", "123"])
def test_cli_manifest_with_carrier_key_reruns_byte_identically(carrier, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["two-qubit-pi2", "--out", str(out_a)]) == 0
    manifest = (out_a / "manifest").read_text()
    assert "carrier" not in manifest
    # as manifests were written while carrier_mhz was a config field
    old = tmp_path / "old"
    old.write_text(manifest.replace("envelope_mhz = 1.1\n", f"envelope_mhz = 1.1\ncarrier_mhz = {carrier}\n"))
    assert run_cli(["two-qubit-pi2", "--config", str(old), "--out", str(out_b)]) == 0
    assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()

    def config_lines(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("wall_time_s")]

    assert config_lines(out_b / "manifest") == config_lines(out_a / "manifest")


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text(MINIMAL)
    assert run_cli(["validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nid = pi3\nnope = 1\n")
    assert run_cli(["validate", "--config", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[scenario]\nid = theta-sweep\n",
        # the mismatch is reported before the config's own scenario rules
        "[scenario]\nid = dark-states\n\n[integrator]\nhermiticity = literal\n",
    ],
    ids=["theta-sweep", "dark-states-literal"],
)
def test_cli_rejects_mismatched_config(text, tmp_path, capsys):
    config = tmp_path / "other.ini"
    config.write_text(text)
    code = run_cli(["pi3", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2
    scenario = text.split("\n")[1].split(" = ")[1]
    assert capsys.readouterr().err == (
        f"error: config is for scenario {scenario!r}, but the 'pi3' subcommand was invoked\n"
    )
    assert not (tmp_path / "x").exists()


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


OVERFLOWING_COMMON_MODES = pytest.mark.parametrize(
    "scenario, detunings, message",
    [
        (
            "fidelity-compare",
            "delta1 = 450.0\ndelta2 = 1e308\ndelta3 = 1e308\n\n[noise]\nenabled = true\n",
            "line 6: fidelity-compare: the common mode 0.5 * (1e+308 + 1e+308) of [detunings] delta2, delta3 is not finite",
        ),
        (
            "three-qubit-sweep",
            "delta1 = 0.0:600.0:15.0\ndelta2 = 1e308\ndelta3 = 1e308\n",
            "line 6: three-qubit-sweep: the common mode 0.5 * (1e+308 + 1e+308) of [detunings] delta2, delta3 is not finite",
        ),
        (
            "three-qubit-time",
            "sets = 300,450,450; 1e308,1e308,1e308\n",
            "line 5: three-qubit-time: the common mode 0.5 * (1e+308 + 1e+308) of [detunings] sets triple 2 is not finite",
        ),
    ],
    ids=["fidelity-compare", "three-qubit-sweep", "three-qubit-time"],
)


@OVERFLOWING_COMMON_MODES
def test_cli_overflowing_common_mode_names_scenario_and_keys(scenario, detunings, message, tmp_path, capsys):
    # 0.5 * (1e308 + 1e308) overflows; the tilts and the loop duration would
    # follow it to NaN
    config = tmp_path / "cfg"
    config.write_text(f"[scenario]\nid = {scenario}\n\n[detunings]\n{detunings}")
    out = tmp_path / "out"
    assert run_cli([scenario, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "result.csv").exists()


@OVERFLOWING_COMMON_MODES
def test_cli_validate_rejects_an_overflowing_common_mode(scenario, detunings, message, tmp_path, capsys):
    # validate reaches the check the run makes, with the same message
    config = tmp_path / "cfg"
    config.write_text(f"[scenario]\nid = {scenario}\n\n[detunings]\n{detunings}")
    assert run_cli(["validate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "config ok" not in captured.out


def test_cli_dark_states_overflowing_detuning_names_its_key(tmp_path, capsys):
    # -1e308 MHz is finite, but 2 pi times it is not; the interaction matrix
    # would hold inf - inf, so the run stops before building it (the suite
    # turns a RuntimeWarning into a failure)
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = dark-states\n\n[detunings]\ndelta1 = -1e308\n")
    out = tmp_path / "out"
    assert run_cli(["dark-states", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 5: [detunings] delta1 = -1e+308 MHz overflows once scaled by 2 pi\n"
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize(
    "scenario, extra, message",
    [
        ("dark-states", "\n[detunings]\ndelta1 = -1e308\n", "line 5: [detunings] delta1 = -1e+308 MHz overflows once scaled by 2 pi"),
        (
            "dark-states",
            "\n[detunings]\ndelta1 = 0:1e-300:1\n",
            "line 5: dark-states: [detunings] delta1 must be a number here, got a sweep",
        ),
        (
            "two-qubit-pi2",
            "\n[detunings]\ndelta1 = 0:1e-300:1\n",
            "line 5: two-qubit-pi2: [detunings] delta1 must be a number here, got a sweep",
        ),
        ("dark-states", "\n[integrator]\nhermiticity = literal\n", "line 5: dark-state spectrum requires the hermitized mode"),
        (
            "fidelity-compare",
            "\n[detunings]\ndelta1 = 450\ndelta2 = 450\ndelta3 = 450\n",
            "default: fidelity comparison needs an enabled noise model",
        ),
        (
            "three-qubit-sweep",
            "\n[detunings]\ndelta1 = 300\ndelta2 = 450\ndelta3 = 450\n",
            "line 5: three-qubit sweep needs at least 2 axis points",
        ),
        ("three-qubit-time", "", "default: three-qubit time evolution needs at least one detuning triple"),
        ("pi3", "initial_level = 9\n", "line 3: initial level must be below 8 here, got 9"),
        ("theta-sweep", "initial_level = 2\n", "line 3: initial level must be below 2 here, got 2"),
        (
            "two-qubit-pi2",
            "initial_rotation_rad = 0.5\n",
            "line 3: initial_rotation_rad needs a two-level scenario, this one has 4 levels",
        ),
        # the pi/3 pulse would span 0 us, and at 1e-320 (subnormal) inf us
        (
            "pi3",
            "\n[pulses]\nrabi_mhz = 1e308\n",
            "line 5: pi3: [pulses] rabi_mhz = 1e+308 puts the pulse span 1 / (3 rabi_mhz) at 0 us, "
            "out of range: it must be finite and > 0",
        ),
        (
            "pi3",
            "\n[pulses]\nrabi_mhz = 1e-320\n",
            "line 5: pi3: [pulses] rabi_mhz = 9.99989e-321 puts the pulse span 1 / (3 rabi_mhz) at inf us, "
            "out of range: it must be finite and > 0",
        ),
    ],
    ids=[
        "dark-states-overflow",
        "dark-states-sweep",
        "two-qubit-pi2-sweep",
        "dark-states-literal",
        "fidelity-compare-noise-off",
        "three-qubit-sweep-scalar-delta1",
        "three-qubit-time-no-sets",
        "pi3-level-9",
        "theta-sweep-level-2",
        "two-qubit-pi2-rotation",
        "pi3-span-zero",
        "pi3-span-inf",
    ],
)
def test_cli_validate_exits_as_the_run_does(scenario, extra, message, tmp_path, capsys):
    # a ScenarioConfig checks every rule that reads only the config when it
    # is built, so validate, which only parses, fails as the run does
    config = tmp_path / "cfg"
    config.write_text(f"[scenario]\nid = {scenario}\n{extra}")
    out = tmp_path / "out"
    assert run_cli([scenario, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "result.csv").exists()
    assert run_cli(["validate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "config ok" not in captured.out


@pytest.mark.parametrize("envelope, width", [("1e308", "1e-308"), ("1e-200", "1e+200"), ("2.5e-154", "4e+153")])
def test_cli_two_qubit_gaussian_width_out_of_range_names_envelope_mhz(envelope, width, tmp_path, capsys):
    # a width of 1e-308 us squares to 0 and the Gaussian's exponent would
    # divide by it; at 1e200 us the square overflows, and at 4e153 us it is
    # finite but 16 times it, the window's edge 4 widths from the centre, is
    # not. validate and the run reject it before any arithmetic, so no
    # RuntimeWarning fires (the suite turns one into a failure)
    config = tmp_path / "cfg"
    config.write_text(f"[scenario]\nid = two-qubit-pi2\n\n[pulses]\nenvelope_mhz = {envelope}\n")
    message = (
        f"error: line 5: two-qubit-pi2: [pulses] envelope_mhz = {float(envelope):g} puts the Gaussian width at "
        f"{width} us, out of range: its square must be > 0 and, times 16 (the window's edge), finite\n"
    )
    out = tmp_path / "out"
    assert run_cli(["two-qubit-pi2", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not (out / "result.csv").exists()
    assert run_cli(["validate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert "config ok" not in captured.out


def test_cli_step_hint_names_only_a_step_at_fault(tmp_path, capsys):
    # a 1e-320 MHz drive makes the gate's span overflow: the span is at fault,
    # so the message does not blame the step; a step past MAX_STEPS over a
    # finite span names where the step came from
    cases = [
        (
            "[pulses]\nrabi_mhz = 1e-320\n",
            "error: detune-sweep: evolution times must be finite, got [0, inf] us at dt = 2.65e-05 us\n",
        ),
        (
            "[integrator]\ndt_us = 1e-300\n",
            "error: detune-sweep: a span of 0.0166667 us at dt = 1e-300 us takes more than 10000000 steps; "
            "raise [integrator] dt_us\n",
        ),
    ]
    for section, message in cases:
        config = tmp_path / "cfg"
        config.write_text(f"[scenario]\nid = detune-sweep\n\n{section}")
        assert run_cli(["detune-sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out" / "result.csv").exists()


def test_cli_two_qubit_pi2_reads_no_detunings(tmp_path):
    # the four-level Hamiltonian holds no detuning: the keys are checked as
    # numbers and leave the result unchanged
    default, detuned = tmp_path / "default", tmp_path / "detuned"
    config = tmp_path / "cfg"
    config.write_text("[scenario]\nid = two-qubit-pi2\n\n[detunings]\ndelta1 = 5\ndelta2 = -7\n")
    assert run_cli(["two-qubit-pi2", "--out", str(default)]) == 0
    assert run_cli(["two-qubit-pi2", "--config", str(config), "--out", str(detuned)]) == 0
    assert (detuned / "result.csv").read_bytes() == (default / "result.csv").read_bytes()


@pytest.mark.parametrize("min_overlap", [None, 0.9], ids=["default", "raised-threshold"])
@pytest.mark.parametrize(
    "scenario, run, points",
    [
        ("detune-sweep", run_single_qubit_detuning_sweep, 31),
        ("three-qubit-sweep", run_three_qubit_detuning_sweep, 41),
    ],
    ids=["detune-sweep", "three-qubit-sweep"],
)
def test_cli_reports_undefined_phases(scenario, run, points, min_overlap, tmp_path, capsys, monkeypatch):
    # an undefined point writes phase_magnitude_rad = 0 like a measured zero
    # phase, so the summary counts them; raising the overlap threshold makes
    # some of the default points undefined
    if min_overlap is not None:
        monkeypatch.setattr(gates, "MIN_OVERLAP", min_overlap)
    undefined = run(parse_config(DEFAULT_CONFIGS[scenario])).phases[2]
    count = np.count_nonzero(undefined)
    assert (count == 0) if min_overlap is None else (0 < count < points)
    out = tmp_path / "out"
    assert run_cli([scenario, "--out", str(out)]) == 0
    assert f"{points} detuning points, {count} undefined phases\n" in capsys.readouterr().out
    lines = (out / "result.csv").read_text().splitlines()
    column = lines[0].split(",").index("phase_magnitude_rad")
    magnitudes = np.array([float(line.split(",")[column]) for line in lines[1:]])
    assert np.all(magnitudes[undefined] == 0.0)


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
    assert failing == len(chunks) - 1 and failing >= 45  # of the plan's 52 chunks
    assert capsys.readouterr().err == (
        "numerical failure: two-qubit-pi2: non-finite Hamiltonian sample "
        f"near t={chunks[failing][0]:.6g} us\n"
    )
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
def test_cli_rejects_a_dt_override_that_is_not_finite_and_positive(value, shown, tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(["pi3", "--out", str(out), "--dt-override", value]) == 2
    assert capsys.readouterr().err == f"error: --dt-override: dt_us must be finite and > 0 us, got {shown}\n"
    assert not out.exists()


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


def test_cli_non_finite_csv_cell_names_its_scenario(tmp_path, capsys, monkeypatch):
    # one NaN injected past the scenario's own gates: the CSV table's gate
    # fails closed, exit 3, nothing written, and the message leads with the
    # scenario
    import nvholo.cli as cli

    monkeypatch.setattr(cli, "compare_resonant_fidelity", lambda cfg: (math.nan, 0.9))
    config = tmp_path / "cfg"
    config.write_text(DEFAULT_CONFIGS["fidelity-compare"])
    out = tmp_path / "x"
    assert run_cli(["fidelity-compare", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: fidelity-compare: csv row 0 column 'off_fidelity' is nan\n"
    assert not (out / "result.csv").exists()
    assert not (out / "manifest").exists()


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
