"""Config parsing, run manifests, and CSV output.

Scenario configs are sectioned key = value text. One table, KEYS, defines
every key: its section, the ScenarioConfig field it feeds, and how its value
is read and written back; the known sections and keys, parsing and rendering
follow from it. A [run] section is accepted anywhere and ignored, so a
written manifest parses as a config and reproduces the run that made it.
Every config error names its line: a malformed line, an unknown section or
key and a bad value their own, and a ScenarioConfig rule the line of the
first key it concerns that the text sets, else `default:`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from nvholo.core import ConfigError, NumericalError
from nvholo.evolve import NoiseModel
from nvholo.gates import GateParams
from nvholo.scenarios import ScenarioConfig, SweepSpec

TRUE_WORDS = ("true", "yes", "on", "1")
FALSE_WORDS = ("false", "no", "off", "0")

# --- value parsers: (raw text, key) -> value; parse_config adds the line ----


def _number(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}")


def _float(raw: str, name: str) -> float:
    value = _number(raw, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}")


def _bool(raw: str, name: str) -> bool:
    word = raw.lower()
    if word in TRUE_WORDS:
        return True
    if word in FALSE_WORDS:
        return False
    raise ConfigError(f"{name} must be true or false, got {raw!r}")


def _float_or_sweep(raw: str, name: str):
    if ":" not in raw:
        return _float(raw, name)
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} sweep must be start:stop:step, got {raw!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name} sweep has a non-numeric bound")
    return SweepSpec(start, stop, step)


def _sweep(raw: str, name: str) -> SweepSpec:
    value = _float_or_sweep(raw, name)
    if not isinstance(value, SweepSpec):
        raise ConfigError(f"{name} must be start:stop:step")
    return value


def _float_list(raw: str, name: str) -> tuple:
    try:
        return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers")


def _triple_list(raw: str, name: str) -> tuple:
    triples = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError(f"each {name} entry needs 3 numbers, got {chunk!r}")
        try:
            triples.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(f"{name} entry {chunk!r} is not numeric")
    return tuple(triples)


def _gate(raw: str, name: str) -> GateParams:
    values = _float_list(raw, name)
    if len(values) not in (3, 4):
        raise ConfigError(f"{name} must be theta,phi,lam[,gamma], got {raw!r}")
    return GateParams(*values)


# sweeps run serially and no runner drives a carrier, so threads and
# carrier_mhz are ignored; they stay known, checked keys so that manifests
# written with them still parse
def _threads(raw: str, name: str):
    if _int(raw, name) < 1:
        raise ConfigError(f"{name} must be an integer >= 1")


def _carrier(raw: str, name: str):
    if _float(raw, name) < 0:
        raise ConfigError(f"{name} must be >= 0 MHz")


# --- renderers: field value -> text, or None to leave the key out ------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, SweepSpec):
        return f"{value.start!r}:{value.stop!r}:{value.step!r}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _floats(values):
    return ",".join(repr(float(v)) for v in values) if values else None


def _triples(triples):
    return "; ".join(",".join(repr(float(d)) for d in t) for t in triples) if triples else None


def _start(kind: str, cast: Callable) -> Callable:
    return lambda state: _fmt(cast(state[1])) if state[0] == kind else None


def _gate_text(g: GateParams) -> str:
    return f"{g.theta!r},{g.phi!r},{g.lam!r},{g.gamma!r}"


class Key(NamedTuple):
    """One config key. field is the ScenarioConfig field it feeds (None:
    read, checked and ignored); several keys may feed one field. A key is
    not written when its field is None or its renderer returns None."""

    section: str
    name: str
    field: str | None
    parse: Callable  # (raw text, key) -> value
    render: Callable | None  # field value -> text or None


# one row per key, in the order render_config writes them
KEYS = (
    Key("scenario", "id", "scenario_id", lambda raw, name: raw, str),
    Key("scenario", "initial_level", "initial_state", lambda raw, name: ("level", _int(raw, name)), _start("level", int)),
    Key("scenario", "initial_rotation_rad", "initial_state", lambda raw, name: ("rotation", _float(raw, name)), _start("rotation", float)),
    Key("scenario", "sweep", "sweep", _sweep, _fmt),
    Key("scenario", "threads", None, _threads, None),
    Key("pulses", "rabi_mhz", "rabi_mhz", _float, repr),
    Key("pulses", "drive_mhz", "drive_mhz", _float, repr),
    Key("pulses", "splitting_mhz", "splitting_mhz", _float, repr),
    Key("pulses", "envelope_mhz", "envelope_mhz", _float, repr),
    Key("pulses", "carrier_mhz", None, _carrier, None),
    Key("pulses", "duration_us", "duration_us", _float, repr),
    Key("pulses", "drive_amplitudes_mhz", "drive_amplitudes_mhz", _float_list, _floats),
    Key("pulses", "gate1", "gate_params", _gate, lambda gates: _gate_text(gates[0]) if gates else None),
    Key("pulses", "gate2", "gate_params", _gate, lambda gates: _gate_text(gates[1]) if gates else None),
    Key("pulses", "gate3", "gate_params", _gate, lambda gates: _gate_text(gates[2]) if gates else None),
    Key("detunings", "delta1", "detunings", _float_or_sweep, lambda deltas: _fmt(deltas[0])),
    Key("detunings", "delta2", "detunings", _float_or_sweep, lambda deltas: _fmt(deltas[1])),
    Key("detunings", "delta3", "detunings", _float_or_sweep, lambda deltas: _fmt(deltas[2])),
    Key("detunings", "sets", "detuning_sets", _triple_list, _triples),
    Key("noise", "enabled", "noise", _bool, lambda noise: _fmt(noise.enabled)),
    # inf switches a channel off; NoiseModel refuses nan and -inf
    Key("noise", "t1_us", "noise", _number, lambda noise: repr(noise.t1_us)),
    Key("noise", "t2_us", "noise", _number, lambda noise: repr(noise.t2_us)),
    Key("integrator", "dt_us", "dt_us", _float, repr),
    Key("integrator", "renormalize", "renormalize", _bool, _fmt),
    Key("integrator", "hermiticity", "hermiticity", lambda raw, name: raw.lower(), str),
)

# {section: {key: row}}
KNOWN_KEYS = {s: {k.name: k for k in KEYS if k.section == s} for s in dict.fromkeys(k.section for k in KEYS)}
# {field: its keys in table order}
FIELD_KEYS = {f: tuple(k.name for k in KEYS if k.field == f) for f in dict.fromkeys(k.field for k in KEYS)}

# --- fields fed by several keys: (values of the keys set, the field's keys) --


def _start_state(parts: dict, keys: tuple) -> tuple:
    if len(parts) > 1:
        raise ConfigError(f"{keys[0]} and {keys[1]} are exclusive", keys[1:])
    return next(iter(parts.values()))


def _gates(parts: dict, keys: tuple) -> tuple:
    if len(parts) != len(keys):
        raise ConfigError(f"{', '.join(keys[:-1])}, and {keys[-1]} go together", keys)
    return tuple(parts[k] for k in keys)


# the [noise] keys are NoiseModel's field names; a section without the
# switch leaves the model off
_NOISE_DEFAULTS = vars(NoiseModel(enabled=False))
COMBINE = {
    "initial_state": _start_state,
    "gate_params": _gates,
    "detunings": lambda parts, keys: tuple(parts.get(k, 0.0) for k in keys),
    "noise": lambda parts, keys: NoiseModel(**(_NOISE_DEFAULTS | parts)),
}


def _parse_sections(text: str) -> dict:
    """Split config text into {section: {key: (line_no, raw_value)}}; an
    unknown section or key is an error, and [run] holds any keys."""
    sections: dict = {}
    current = known = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip().lower()
            known = KNOWN_KEYS.get(name)
            if name != "run" and known is None:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {line_no}: key outside of any section")
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in current:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if known is not None and key not in known:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{name}]")
        current[key] = (line_no, value.strip())
    return sections


def parse_config(text: str, command: str | None = None) -> ScenarioConfig:
    """Parse sectioned config text into a validated ScenarioConfig. Given
    the CLI subcommand that reads it, a config for another scenario is a
    ConfigError before any ScenarioConfig rule is checked."""
    sections = _parse_sections(text)
    kwargs: dict = {}
    parts: dict = {}  # {field: {key: value}} of the fields fed by several keys
    for section, entries in sections.items():
        known = KNOWN_KEYS.get(section)
        if known is None:  # [run]
            continue
        for key, (line_no, raw) in entries.items():
            row = known[key]
            try:
                value = row.parse(raw, key)
            except ConfigError as exc:
                raise ConfigError(f"line {line_no}: {exc}", (key,)) from None
            if row.field in COMBINE:
                parts.setdefault(row.field, {})[key] = value
            elif row.field is not None:
                kwargs[row.field] = value

    scenario_id = kwargs.get("scenario_id")
    if scenario_id is None:
        raise ConfigError(f"config needs an {FIELD_KEYS['scenario_id'][0]} key in the [scenario] section")
    if command is not None and scenario_id != command:
        raise ConfigError(f"config is for scenario {scenario_id!r}, but the {command!r} subcommand was invoked")
    try:
        for field, values in parts.items():
            kwargs[field] = COMBINE[field](values, FIELD_KEYS[field])
        return ScenarioConfig(**kwargs)
    except ConfigError as exc:
        lines = {key: line_no for name, entries in sections.items() if name in KNOWN_KEYS for key, (line_no, _) in entries.items()}
        line = next((lines[key] for key in exc.keys if key in lines), None)
        raise ConfigError(f"default: {exc}" if line is None else f"line {line}: {exc}", exc.keys) from None


# per section in table order, its header (after a blank line, but for the
# first) and its rendered keys as (line prefix, field, renderer)
_RENDERED = tuple(
    (f"\n[{section}]" if i else f"[{section}]", tuple((f"{k.name} = ", k.field, k.render) for k in rows.values() if k.render))
    for i, (section, rows) in enumerate(KNOWN_KEYS.items())
)


def render_config(cfg: ScenarioConfig) -> str:
    """Emit config text that parses back to an equal ScenarioConfig."""
    lines = []
    for header, rows in _RENDERED:
        lines.append(header)
        for prefix, field, render in rows:
            value = getattr(cfg, field)
            text = None if value is None else render(value)
            if text is not None:
                lines.append(prefix + text)
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
