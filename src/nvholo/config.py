"""Config parsing, run manifests, and CSV output.

Scenario configs are sectioned key = value text. Recognized sections are
[scenario], [pulses], [detunings], [noise], and [integrator]; a [run]
section is accepted anywhere and ignored, so a written manifest parses as a
config and reproduces the run that made it. Unknown sections or keys are
errors, reported with the line they appear on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nvholo.core import ConfigError, NumericalError
from nvholo.evolve import DEFAULT_T1_US, DEFAULT_T2_US, NoiseModel
from nvholo.gates import GateParams
from nvholo.hamiltonians import HERMITICITY_MODES
from nvholo.scenarios import ScenarioConfig, SweepSpec

KNOWN_KEYS = {
    "scenario": ("id", "initial_level", "initial_rotation_rad", "sweep", "threads"),
    "pulses": (
        "rabi_mhz",
        "drive_mhz",
        "splitting_mhz",
        "envelope_mhz",
        "carrier_mhz",
        "duration_us",
        "drive_amplitudes_mhz",
        "gate1",
        "gate2",
        "gate3",
    ),
    "detunings": ("delta1", "delta2", "delta3", "sets"),
    "noise": ("enabled", "t1_us", "t2_us"),
    "integrator": ("dt_us", "renormalize", "hermiticity"),
}

TRUE_WORDS = ("true", "yes", "on", "1")
FALSE_WORDS = ("false", "no", "off", "0")


def _parse_sections(text: str) -> dict:
    """Split config text into {section: {key: (line_no, raw_value)}}."""
    sections: dict = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name != "run" and name not in KNOWN_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {line_no}: key outside of any section")
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in current:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        current[key] = (line_no, value)
    return sections


def _reject_unknown(sections: dict):
    for name, entries in sections.items():
        if name == "run":
            continue
        allowed = KNOWN_KEYS[name]
        for key, (line_no, _) in entries.items():
            if key not in allowed:
                raise ConfigError(
                    f"line {line_no}: unknown key {key!r} in section [{name}]"
                )


def _float(entry, name: str) -> float:
    line_no, raw = entry
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {name} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {name} must be finite")
    return value


def _int(entry, name: str) -> int:
    line_no, raw = entry
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {name} must be an integer, got {raw!r}")


def _bool(entry, name: str) -> bool:
    line_no, raw = entry
    word = raw.strip().lower()
    if word in TRUE_WORDS:
        return True
    if word in FALSE_WORDS:
        return False
    raise ConfigError(f"line {line_no}: {name} must be true or false, got {raw!r}")


def _float_or_sweep(entry, name: str):
    line_no, raw = entry
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"line {line_no}: {name} sweep must be start:stop:step, got {raw!r}"
            )
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"line {line_no}: {name} sweep has a non-numeric bound")
        try:
            return SweepSpec(start, stop, step)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}")
    return _float(entry, name)


def _float_list(entry, name: str) -> tuple:
    line_no, raw = entry
    try:
        values = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"line {line_no}: {name} must be comma-separated numbers")
    return values


def _triple_list(entry, name: str) -> tuple:
    line_no, raw = entry
    triples = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError(
                f"line {line_no}: each {name} entry needs 3 numbers, got {chunk!r}"
            )
        try:
            triples.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(f"line {line_no}: {name} entry {chunk!r} is not numeric")
    return tuple(triples)


def _gate(entry, name: str) -> GateParams:
    line_no, raw = entry
    values = _float_list(entry, name)
    if len(values) not in (3, 4):
        raise ConfigError(
            f"line {line_no}: {name} must be theta,phi,lam[,gamma], got {raw!r}"
        )
    gamma = values[3] if len(values) == 4 else 0.0
    return GateParams(theta=values[0], phi=values[1], lam=values[2], gamma=gamma)


def parse_config(text: str) -> ScenarioConfig:
    """Parse sectioned config text into a validated ScenarioConfig."""
    sections = _parse_sections(text)
    _reject_unknown(sections)

    scenario = sections.get("scenario", {})
    if "id" not in scenario:
        raise ConfigError("config needs an id key in the [scenario] section")
    scenario_id = scenario["id"][1].strip()

    kwargs: dict = {"scenario_id": scenario_id}

    if "initial_level" in scenario and "initial_rotation_rad" in scenario:
        line_no = scenario["initial_rotation_rad"][0]
        raise ConfigError(
            f"line {line_no}: initial_level and initial_rotation_rad are exclusive"
        )
    if "initial_level" in scenario:
        kwargs["initial_state"] = ("level", _int(scenario["initial_level"], "initial_level"))
    if "initial_rotation_rad" in scenario:
        kwargs["initial_state"] = (
            "rotation",
            _float(scenario["initial_rotation_rad"], "initial_rotation_rad"),
        )
    if "sweep" in scenario:
        value = _float_or_sweep(scenario["sweep"], "sweep")
        if not isinstance(value, SweepSpec):
            line_no = scenario["sweep"][0]
            raise ConfigError(f"line {line_no}: sweep must be start:stop:step")
        kwargs["sweep"] = value
    # sweeps run serially, so threads is ignored; it stays a known, validated
    # key so that manifests written with it still parse
    if "threads" in scenario and _int(scenario["threads"], "threads") < 1:
        line_no = scenario["threads"][0]
        raise ConfigError(f"line {line_no}: threads must be an integer >= 1")

    pulses = sections.get("pulses", {})
    for key, target in (
        ("rabi_mhz", "rabi_mhz"),
        ("drive_mhz", "drive_mhz"),
        ("splitting_mhz", "splitting_mhz"),
        ("envelope_mhz", "envelope_mhz"),
        ("carrier_mhz", "carrier_mhz"),
        ("duration_us", "duration_us"),
    ):
        if key in pulses:
            kwargs[target] = _float(pulses[key], key)
    if "drive_amplitudes_mhz" in pulses:
        kwargs["drive_amplitudes_mhz"] = _float_list(
            pulses["drive_amplitudes_mhz"], "drive_amplitudes_mhz"
        )
    gate_keys = [k for k in ("gate1", "gate2", "gate3") if k in pulses]
    if gate_keys:
        if len(gate_keys) != 3:
            line_no = pulses[gate_keys[0]][0]
            raise ConfigError(f"line {line_no}: gate1, gate2, and gate3 go together")
        kwargs["gate_params"] = tuple(_gate(pulses[k], k) for k in ("gate1", "gate2", "gate3"))

    detunings = sections.get("detunings", {})
    deltas = [0.0, 0.0, 0.0]
    for i, key in enumerate(("delta1", "delta2", "delta3")):
        if key in detunings:
            deltas[i] = _float_or_sweep(detunings[key], key)
    kwargs["detunings"] = tuple(deltas)
    if "sets" in detunings:
        kwargs["detuning_sets"] = _triple_list(detunings["sets"], "sets")

    noise = sections.get("noise", {})
    if noise:
        enabled = _bool(noise["enabled"], "enabled") if "enabled" in noise else False
        t1 = _float(noise["t1_us"], "t1_us") if "t1_us" in noise else DEFAULT_T1_US
        t2 = _float(noise["t2_us"], "t2_us") if "t2_us" in noise else DEFAULT_T2_US
        first_line = min(entry[0] for entry in noise.values())
        try:
            kwargs["noise"] = NoiseModel(t1_us=t1, t2_us=t2, enabled=enabled)
        except ConfigError as exc:
            raise ConfigError(f"line {first_line}: {exc}")

    integrator = sections.get("integrator", {})
    if "dt_us" in integrator:
        kwargs["dt_us"] = _float(integrator["dt_us"], "dt_us")
    if "renormalize" in integrator:
        kwargs["renormalize"] = _bool(integrator["renormalize"], "renormalize")
    if "hermiticity" in integrator:
        line_no, raw = integrator["hermiticity"]
        mode = raw.strip().lower()
        if mode not in HERMITICITY_MODES:
            raise ConfigError(
                f"line {line_no}: hermiticity must be one of {HERMITICITY_MODES}"
            )
        kwargs["hermiticity"] = mode

    return ScenarioConfig(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, SweepSpec):
        return f"{value.start!r}:{value.stop!r}:{value.step!r}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: ScenarioConfig) -> str:
    """Emit config text that parses back to an equal ScenarioConfig."""
    lines = ["[scenario]", f"id = {cfg.scenario_id}"]
    kind, value = cfg.initial_state
    if kind == "level":
        lines.append(f"initial_level = {int(value)}")
    else:
        lines.append(f"initial_rotation_rad = {_fmt(float(value))}")
    if cfg.sweep is not None:
        lines.append(f"sweep = {_fmt(cfg.sweep)}")

    lines.append("")
    lines.append("[pulses]")
    lines.append(f"rabi_mhz = {_fmt(cfg.rabi_mhz)}")
    if cfg.drive_mhz is not None:
        lines.append(f"drive_mhz = {_fmt(cfg.drive_mhz)}")
    lines.append(f"splitting_mhz = {_fmt(cfg.splitting_mhz)}")
    lines.append(f"envelope_mhz = {_fmt(cfg.envelope_mhz)}")
    lines.append(f"carrier_mhz = {_fmt(cfg.carrier_mhz)}")
    if cfg.duration_us is not None:
        lines.append(f"duration_us = {_fmt(cfg.duration_us)}")
    if cfg.drive_amplitudes_mhz:
        joined = ",".join(repr(float(v)) for v in cfg.drive_amplitudes_mhz)
        lines.append(f"drive_amplitudes_mhz = {joined}")
    for i, gate in enumerate(cfg.gate_params, start=1):
        lines.append(
            f"gate{i} = {gate.theta!r},{gate.phi!r},{gate.lam!r},{gate.gamma!r}"
        )

    lines.append("")
    lines.append("[detunings]")
    for i, delta in enumerate(cfg.detunings, start=1):
        lines.append(f"delta{i} = {_fmt(delta)}")
    if cfg.detuning_sets:
        joined = "; ".join(
            ",".join(repr(float(d)) for d in triple) for triple in cfg.detuning_sets
        )
        lines.append(f"sets = {joined}")

    lines.append("")
    lines.append("[noise]")
    lines.append(f"enabled = {_fmt(cfg.noise.enabled)}")
    lines.append(f"t1_us = {_fmt(cfg.noise.t1_us)}")
    lines.append(f"t2_us = {_fmt(cfg.noise.t2_us)}")

    lines.append("")
    lines.append("[integrator]")
    if cfg.dt_us is not None:
        lines.append(f"dt_us = {_fmt(cfg.dt_us)}")
    lines.append(f"renormalize = {_fmt(cfg.renormalize)}")
    lines.append(f"hermiticity = {cfg.hermiticity}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunManifest:
    """Config plus run metadata; the whole file parses as a config."""

    cfg: ScenarioConfig
    run_info: tuple = ()

    def to_text(self) -> str:
        text = render_config(self.cfg)
        if not self.run_info:
            return text
        lines = ["", "[run]"]
        for key, value in self.run_info:
            lines.append(f"{key} = {_fmt(value)}")
        return text + "\n".join(lines) + "\n"


def parse_manifest(text: str) -> RunManifest:
    """Read a manifest back; the run section is carried through unparsed."""
    cfg = parse_config(text)
    run = _parse_sections(text).get("run", {})
    info = tuple((key, value) for key, (_, value) in run.items())
    return RunManifest(cfg=cfg, run_info=info)


# --- CSV output -------------------------------------------------------------

CSV_SIG_DIGITS = 12


@dataclass(frozen=True, eq=False)
class CsvTable:
    """Header plus one float64 column per header entry, all of one length.

    Every cell is a finite number: the first non-finite cell in row order
    raises NumericalError naming its row and column. The text gives each
    number CSV_SIG_DIGITS significant digits and writes -0.0 as 0.
    """

    header: tuple
    columns: tuple

    def __post_init__(self):
        columns = tuple(np.asarray(c, dtype=float) for c in self.columns)
        # an empty header has no column shape, so it fails the second test
        if len(columns) != len(self.header) or len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise ConfigError(f"csv header {tuple(self.header)} needs one 1-d column each, of one length")
        bad = [(int(np.argmin(ok)), j) for j, ok in enumerate(map(np.isfinite, columns)) if not ok.all()]
        if bad:
            i, j = min(bad)
            raise NumericalError(f"csv row {i} column {self.header[j]!r} is {columns[j][i]}")
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "columns", columns)

    def to_text(self) -> str:
        # one %-format per row; x + 0.0 is x, except that -0.0 becomes 0.0
        row = ",".join([f"%.{CSV_SIG_DIGITS}g"] * len(self.columns))
        values = zip(*[(c + 0.0).tolist() for c in self.columns])
        lines = [",".join(self.header)] + [row % cells for cells in values]
        return "\n".join(lines) + "\n"


def write_csv(path, table: CsvTable):
    """Write the table; numbers carry 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(table.to_text())
