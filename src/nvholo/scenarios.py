"""Experiment runners for the register simulations.

Single-qubit scenarios drive a resonant or detuned two-level transition and
score the resulting rotations; the two-qubit scenario integrates the pulsed
four-level Hamiltonian through a stimulated-Raman window; the three-qubit
scenarios evaluate closed-loop register evolutions analytically, qubit by
qubit, in the frame of the preparation rotations.

Closed-loop model per qubit: the drive axis traces one loop (full sweeps on
the first two qubits with opposite senses, a small diamond on the third) and
the net effect grows linearly along the path. A differential detuning, the
per-qubit offset from the common mode of the held detunings, tilts the loop
axis by chi = arctan(dtilde / 150 MHz), speeds the traversal up by
1/cos(chi), and imprints the dispersive phase

    Phi(chi) = -pi * (sin^2 chi - sense * sin(2 chi) / 2)

relative to the untilted loop. The kinematic phase the tilt itself would add
is echoed away inside the loop, so Phi is the whole detuning response; its
wrapped magnitude saturates at pi where the loop tilt reaches a quarter turn.

The register model is evaluated as arrays, never point by point: the loop
kets (the first column of each qubit's propagator) of every sweep point or
detuning triple come from one batched call, the sweep axis in blocks of
bounded size. In the noisy fidelity loop a qubit's state is its Bloch
vector r, and each slice is a real 4x4 map of [1, r]: the step rotation,
then the channel's affine map. The loops of every qubit and configuration
go through the same batched ordered products of those maps.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from nvholo.core import (
    ConfigError,
    NumericalError,
    StateVector,
    eig_hermitian,
    ordered_product,
    state_density_fidelity,
)
from nvholo.evolve import (
    EvolutionConfig,
    NoiseModel,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,
    recommended_dt,
)
from nvholo.gates import (
    GateParams,
    phase_probe,
    single_qubit_unitary,
)
from nvholo.hamiltonians import (
    HERMITICITY_MODES,
    HERMITIZED,
    LevelSpec,
    PulseChannel,
    PulseSet,
    PulsedHamiltonian,
    angular_detunings,
    build_interaction_8,
    gaussian_width_ok,
    silent_channel,
)

SCENARIO_IDS = (
    "theta-sweep",
    "detune-sweep",
    "composite",
    "two-qubit-pi2",
    "three-qubit-sweep",
    "three-qubit-time",
    "pi3",
    "dark-states",
    "fidelity-compare",
)

RABI_DEFAULT_MHZ = 15.0
SPLITTING_DEFAULT_MHZ = 20.0
ENVELOPE_DEFAULT_MHZ = 1.1

# two-qubit pi/2 transfer: drive amplitude calibrated so the Raman-coupled
# |1>,|2> pair ends at equal weight after one gaussian pump/Stokes window
TWO_QUBIT_DRIVE_MHZ = 1.7639240686172084
TWO_QUBIT_DT_SCALE = 4.0
TWO_QUBIT_RECORDS = 512
THETA_RECORDS = 64
DARK_RECORDS = 128

# closed-loop register model
TILT_SCALE_MHZ = 150.0
LOOP_SENSES = (1.0, -1.0, 1.0)
LOOP_PREP_RAD = (5.0 * math.pi / 6.0, -math.pi / 6.0, math.pi / 3.0)
LOOP_AREAS_RAD = (math.pi, math.pi, math.pi**2 / 6.0)
DIAMOND_HALF_RAD = math.pi / 6.0
LOOP_DURATION_US = 8.9719
OFF_RESONANT_OFFSET_MHZ = 201.22
FIDELITY_SLICES = 400
TIME_EVOLUTION_SAMPLES = 201
# the detuning sweep holds at most this many bytes of (points, time, 2)
# swept-qubit kets at a time, 33 points on a 121-sample grid; its time grid
# grows with the point count, so whole-sweep arrays would grow with its square
LOOP_BLOCK_BYTES = 128 * 1024
# the noisy fidelity loop goes in pieces of this many slices, LOOP_BLOCK_BYTES
# of real 4x4 maps for the comparison's two triples of three qubits; the
# piece does not follow the batch, so a triple's fidelity has the same bits
# alone or batched
FIDELITY_PIECE_SLICES = LOOP_BLOCK_BYTES // (2 * 3 * 16 * 8)
# the 2-level pulse runner (_run_pulses) integrates blocks of points whose
# largest integrations hold at most this many bytes of records. Noisy heap
# peaks under tracemalloc: 1.5 MB for the default 33-point composite (10
# blocks of 9 to 1), 1.7 MB for 121 detune points (blocks of 18)
PULSE_BLOCK_BYTES = 1024 * 1024

MIN_SEGMENT_STEPS = 16
POPULATION_TOL = 1e-9
# far above the sweeps in use (121 points at most), far below a count whose
# axis would exhaust memory when allocated
MAX_SWEEP_POINTS = 100_000

CARDINAL_STATES = (
    np.array([1.0, 0.0], dtype=np.complex128),
    np.array([0.0, 1.0], dtype=np.complex128),
    np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0),
    np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=np.complex128) / math.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=np.complex128) / math.sqrt(2.0),
)
# composite integrates its configured start, then the cardinal states
START_NAMES = ("initial", "|0>", "|1>", "|+x>", "|-x>", "|+y>", "|-y>")
# the dimension of each scenario that reads a start state; the other four read none
START_DIMS = {"theta-sweep": 2, "detune-sweep": 2, "composite": 2, "two-qubit-pi2": 4, "pi3": 8}

_NOISE_OFF = NoiseModel(enabled=False)


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive numeric range start..stop walked in fixed steps."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        values = [self.start, self.stop, self.step]
        if not np.all(np.isfinite(values)):
            raise ConfigError("sweep bounds must be finite")
        if self.step <= 0:
            raise ConfigError(f"sweep step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ConfigError("sweep stop must be >= start")
        # checked before values() allocates; the count is floor(intervals) + 1
        intervals = (self.stop - self.start) / self.step + 1e-9
        if not intervals < MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep has more than {MAX_SWEEP_POINTS} points")

    @property
    def count(self) -> int:
        """The number of points, known without building them."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=float)


THETA_SWEEP_DEFAULT = SweepSpec(0.0, 2.0 * math.pi, math.pi / 16.0)
DETUNE_SWEEP_DEFAULT = SweepSpec(-30.0, 30.0, 2.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one scenario run.

    Building one checks every rule that reads only the config, so a
    ScenarioConfig that exists passes its run's config rules and `nvholo
    validate`, which only parses, fails as the run does. The scenario's
    rules follow the checks of each field, in the order its run meets them.
    Each rule's ConfigError names the config keys it concerns, so that
    parse_config can name their line. The rules that need the step plan stay
    with the run (_pulse_config).
    """

    scenario_id: str
    initial_state: tuple = ("level", 0)
    gate_params: tuple = ()
    detunings: tuple = (0.0, 0.0, 0.0)
    detuning_sets: tuple = ()
    sweep: SweepSpec | None = None
    rabi_mhz: float = RABI_DEFAULT_MHZ
    drive_mhz: float | None = None
    splitting_mhz: float = SPLITTING_DEFAULT_MHZ
    envelope_mhz: float = ENVELOPE_DEFAULT_MHZ
    drive_amplitudes_mhz: tuple = ()
    duration_us: float | None = None
    noise: NoiseModel = _NOISE_OFF
    hermiticity: str = HERMITIZED
    dt_us: float | None = None
    renormalize: bool = True

    def __post_init__(self):
        if self.scenario_id not in SCENARIO_IDS:
            raise ConfigError(f"unknown scenario {self.scenario_id!r}, expected one of {SCENARIO_IDS}", ("id",))
        kind = self.initial_state[0] if len(self.initial_state) == 2 else None
        if kind not in ("level", "rotation"):
            raise ConfigError("initial_state must be ('level', index) or ('rotation', angle_rad)", ("initial_level", "initial_rotation_rad"))
        if kind == "level":
            level = self.initial_state[1]
            if level != int(level) or level < 0:
                raise ConfigError(f"initial level must be an integer >= 0, got {level}", ("initial_level",))
        elif not np.isfinite(self.initial_state[1]):
            raise ConfigError("initial rotation angle must be finite", ("initial_rotation_rad",))
        for p in self.gate_params:
            if not isinstance(p, GateParams):
                raise ConfigError("gate_params entries must be GateParams values", ("gate1", "gate2", "gate3"))
        if self.sweep is not None and not isinstance(self.sweep, SweepSpec):
            raise ConfigError(f"sweep must be a SweepSpec or None, got {type(self.sweep).__name__}", ("sweep",))
        if len(self.detunings) != 3:
            raise ConfigError("detunings must have exactly 3 entries", ("delta1", "delta2", "delta3"))
        for n, d in enumerate(self.detunings, start=1):
            if not isinstance(d, SweepSpec) and not np.isfinite(d):
                raise ConfigError("detunings must be finite numbers or sweep specs", (f"delta{n}",))
        for triple in self.detuning_sets:
            if len(triple) != 3 or not np.all(np.isfinite(triple)):
                raise ConfigError("each detuning set must be a finite triple", ("sets",))
        if not self.rabi_mhz > 0:
            raise ConfigError(f"rabi must be > 0 MHz, got {self.rabi_mhz}", ("rabi_mhz",))
        if self.drive_mhz is not None and not self.drive_mhz > 0:
            raise ConfigError("drive amplitude must be > 0 MHz", ("drive_mhz",))
        if not self.splitting_mhz > 0 or not self.envelope_mhz > 0:
            key = "splitting_mhz" if not self.splitting_mhz > 0 else "envelope_mhz"
            raise ConfigError("splitting and envelope scales must be > 0 MHz", (key,))
        if self.drive_amplitudes_mhz and (
            len(self.drive_amplitudes_mhz) != 6
            or not np.all(np.isfinite(self.drive_amplitudes_mhz))
        ):
            raise ConfigError("drive_amplitudes_mhz needs exactly 6 finite entries", ("drive_amplitudes_mhz",))
        if self.duration_us is not None and not self.duration_us > 0:
            raise ConfigError("duration must be > 0 us", ("duration_us",))
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel", ("enabled", "t1_us", "t2_us"))
        if self.hermiticity not in HERMITICITY_MODES:
            raise ConfigError(f"unknown hermiticity mode {self.hermiticity!r}", ("hermiticity",))
        if self.dt_us is not None and not 0 < self.dt_us < math.inf:
            raise ConfigError(f"dt_us must be finite and > 0 us, got {self.dt_us}", ("dt_us",))

        scenario = self.scenario_id
        # two-qubit-pi2 reads no detunings, but validate and the run agree on the keys
        scalar_keys = {"two-qubit-pi2": (1, 2, 3), "dark-states": (1, 2, 3), "three-qubit-sweep": (2, 3), "fidelity-compare": (2, 3)}
        for n in scalar_keys.get(scenario, ()):
            if isinstance(self.detunings[n - 1], SweepSpec):
                raise ConfigError(f"{scenario}: [detunings] delta{n} must be a number here, got a sweep", (f"delta{n}",))
        # else the Gaussian's exponent would divide by 0 or overflow
        if scenario == "two-qubit-pi2" and not gaussian_width_ok(1.0 / self.envelope_mhz):
            raise ConfigError(
                f"{scenario}: [pulses] envelope_mhz = {self.envelope_mhz:g} puts the Gaussian width at "
                f"{1.0 / self.envelope_mhz:.3g} us, out of range: its square must be > 0 and, times 16 (the window's edge), finite",
                ("envelope_mhz",),
            )
        # else the pi/3 pulse, of the span run_pi3_rotation takes, would last 0 us or overflow
        if scenario == "pi3" and not 0.0 < 1.0 / (3.0 * self.rabi_mhz) < math.inf:
            raise ConfigError(
                f"{scenario}: [pulses] rabi_mhz = {self.rabi_mhz:g} puts the pulse span 1 / (3 rabi_mhz) at "
                f"{1.0 / (3.0 * self.rabi_mhz):.3g} us, out of range: it must be finite and > 0", ("rabi_mhz",)
            )
        if scenario == "dark-states":
            angular_detunings(self.detunings)
            if self.hermiticity != HERMITIZED:
                raise ConfigError("dark-state spectrum requires the hermitized mode", ("hermiticity",))
        # the register's tilts and loop duration would follow a non-finite common mode to NaN
        held = []
        if scenario == "three-qubit-time":
            held = [(f"sets triple {i + 1}", ("sets",), d2, d3) for i, (_, d2, d3) in enumerate(self.detuning_sets)]
        elif scenario in ("three-qubit-sweep", "fidelity-compare"):
            held = [("delta2, delta3", ("delta2", "delta3"), *self.detunings[1:])]
        for where, keys, d2, d3 in held:
            if not math.isfinite(0.5 * (d2 + d3)):
                raise ConfigError(
                    f"{scenario}: the common mode 0.5 * ({d2:g} + {d3:g}) of [detunings] {where} is not finite", keys
                )

        if scenario == "fidelity-compare" and not self.noise.enabled:
            raise ConfigError("fidelity comparison needs an enabled noise model", ("enabled",))
        delta1 = self.detunings[0]
        if scenario == "three-qubit-sweep" and (delta1.count if isinstance(delta1, SweepSpec) else 1) < 2:
            raise ConfigError("three-qubit sweep needs at least 2 axis points", ("delta1",))
        if scenario == "three-qubit-time" and not self.detuning_sets:
            raise ConfigError("three-qubit time evolution needs at least one detuning triple", ("sets",))
        if scenario == "composite" and len(self.gate_params) not in (0, 3):
            raise ConfigError(f"composite sequence needs exactly 3 gates, got {len(self.gate_params)}", ("gate1", "gate2", "gate3"))

        dim = START_DIMS.get(scenario)
        if dim is None:
            return
        kind, value = self.initial_state
        if kind == "rotation" and dim != 2:
            raise ConfigError(f"initial_rotation_rad needs a two-level scenario, this one has {dim} levels", ("initial_rotation_rad",))
        if kind == "level" and int(value) >= dim:
            raise ConfigError(f"initial level must be below {dim} here, got {int(value)}", ("initial_level",))


def _read_only_column(what: str, values, axis: np.ndarray, low: float, high: float, tol: float = 0.0):
    """values as a read-only float column, one entry per axis point (else
    ConfigError), finite (else NumericalError) and in [low, high] up to tol
    (else ConfigError)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != axis.shape:
        raise ConfigError(f"{what} has {arr.shape[0] if arr.ndim == 1 else '?'} values for {axis.shape[0]} axis points")
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{what} holds a non-finite value")
    if not (arr.min() >= low - tol and arr.max() <= high + tol):
        raise ConfigError(f"{what} leaves [{low:g}, {high:g}]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-point series over one sweep axis.

    Every series entry is a bounded fraction (population, fidelity, or
    discrepancy), one value per axis point except where a series carries a
    companion curve sampled on the same number of points. A phase-probed
    sweep also holds phases, phase_probe's (magnitude, discrepancy,
    undefined) columns with one entry per axis point: magnitudes in
    [-pi, pi] rad, 0 where the point's phase is undefined, and
    discrepancies in [0, 1]. All columns are read-only.
    """

    axis_values: np.ndarray
    series: dict
    phases: tuple = ()
    fidelities: dict = field(default_factory=dict)

    def __post_init__(self):
        axis = np.asarray(self.axis_values, dtype=float)
        if axis.ndim != 1 or axis.shape[0] < 1:
            raise ConfigError("axis_values must be a non-empty 1-d sequence")
        axis.setflags(write=False)
        object.__setattr__(self, "axis_values", axis)
        frozen = {
            name: _read_only_column(f"series {name!r}", values, axis, 0.0, 1.0, POPULATION_TOL)
            for name, values in self.series.items()
        }
        object.__setattr__(self, "series", frozen)
        if self.phases:
            magnitude, discrepancy, undefined = self.phases
            undefined = np.asarray(undefined, dtype=bool)
            if undefined.shape != axis.shape:
                raise ConfigError(f"phase undefined flags do not match the {axis.shape[0]} axis points")
            undefined.setflags(write=False)
            magnitude = _read_only_column("phase magnitude", magnitude, axis, -math.pi, math.pi)
            discrepancy = _read_only_column("phase discrepancy", discrepancy, axis, 0.0, 1.0)
            object.__setattr__(self, "phases", (magnitude, discrepancy, undefined))
        for name, value in self.fidelities.items():
            if not np.isfinite(value):
                raise ConfigError(f"fidelity {name!r} is not finite")


@dataclass(frozen=True, eq=False)
class DarkSpectrum:
    """Eigensystem of the static interaction matrix plus the dark subset."""

    eigenvalues_mhz: np.ndarray
    eigenvectors: np.ndarray
    dark_indices: tuple
    leakages: tuple

    def __post_init__(self):
        for name in ("eigenvalues_mhz", "eigenvectors"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _require_scenario(cfg: ScenarioConfig, scenario_id: str):
    if cfg.scenario_id != scenario_id:
        raise ConfigError(
            f"config is for scenario {cfg.scenario_id!r}, runner expects {scenario_id!r}"
        )


def _rx(angle: float) -> np.ndarray:
    h = 0.5 * angle
    return np.array(
        [[math.cos(h), -1j * math.sin(h)], [-1j * math.sin(h), math.cos(h)]],
        dtype=np.complex128,
    )


def _initial_state(initial_state, dim: int) -> StateVector:
    """The configured start state in dim levels: a basis level, or level 0
    rotated about x by the given angle."""
    kind, value = initial_state
    if kind == "rotation":
        return StateVector(_rx(float(value)) @ np.array([1.0, 0.0], dtype=np.complex128))
    return StateVector.basis(dim, int(value))


def _drive_matrix(rabi_mhz, delta_mhz) -> np.ndarray:
    """The x drive [[0, pi rabi], [pi rabi, 2 pi delta]] in rad/us, or a
    stack of them over arrays of rabi and delta in MHz."""
    rabi, delta = np.broadcast_arrays(rabi_mhz, delta_mhz)
    h = np.zeros(rabi.shape + (2, 2), dtype=np.complex128)
    h[..., 0, 1] = h[..., 1, 0] = math.pi * rabi
    h[..., 1, 1] = 2.0 * math.pi * delta
    return h


def _gate_time_us(theta: float, rabi_mhz: float) -> float:
    return theta / (2.0 * math.pi * rabi_mhz)


def _pulse_dt(h, span, cfg: ScenarioConfig, scale: float = 1.0):
    """Step of every integrating runner for the Hamiltonian h over span, or
    over each of an array of spans: the configured dt, else scale times
    recommended_dt, capped so each pulse takes at least MIN_SEGMENT_STEPS.
    recommended_dt probes h once, over the longest span; its own span/2 cap
    never binds below a span's span/MIN_SEGMENT_STEPS cap, so each step is
    the one a probe over its own span gives, bit for bit."""
    spans = np.asarray(span, dtype=float)
    if cfg.dt_us:
        dts = np.full(spans.shape, cfg.dt_us)
    else:
        dts = np.minimum(scale * recommended_dt(h, 0.0, float(spans.max())), spans / MIN_SEGMENT_STEPS)
    return dts if spans.ndim else float(dts)


def _pulse_config(
    span: float, dt: float, cfg: ScenarioConfig, where: str, records=None, keep_norm=False
) -> EvolutionConfig:
    """EvolutionConfig of a pulse over [0, span] at step dt, the one place
    that sets a run's record stride and renormalisation. Every step is
    recorded, or, given records, about that many (a stride of
    n_steps // records, n_steps as the config plans them). Runs
    renormalise as [integrator] renormalize says, unless keep_norm: a run
    whose recorded norm is part of its result never renormalises. A
    configured step longer than the span is a config error that names the
    point. So is any config the plan rejects; when the span is finite and
    positive, the step is at fault (past MAX_STEPS, say), and the error also
    names where the step came from."""
    if cfg.dt_us is not None and cfg.dt_us > span:
        raise ConfigError(
            f"{where}: [integrator] dt_us = {cfg.dt_us:g} exceeds the {span:.6g} us span"
        )
    renormalize = cfg.renormalize and not keep_norm
    try:
        evo = EvolutionConfig(0.0, float(span), float(dt), renormalize=renormalize)
    except ConfigError as err:
        if not 0.0 < span < math.inf:  # an overflowing span is not the step's fault
            raise ConfigError(f"{where}: {err}") from None
        source = "no [integrator] dt_us is set, so the step follows the pulse's fastest frequency"
        raise ConfigError(f"{where}: {err}; {'raise [integrator] dt_us' if cfg.dt_us else source}") from None
    if records and evo.n_steps // records > 1:  # built directly: replace() costs more per point
        evo = EvolutionConfig(0.0, float(span), float(dt), evo.n_steps // records, renormalize)
    return evo


@contextmanager
def _naming(scenario: str, points, label: str = "{}"):
    """Re-raise a NumericalError of a batched integration or gate under the
    scenario and the sweep point of its failing run, label.format(points[run])
    (formatted only on failure)."""
    try:
        yield
    except NumericalError as err:  # member is None for a call of one run
        where = f"{scenario} {label.format(points[err.member or 0])}" if len(points) else scenario
        raise NumericalError(f"{where}: {err.detail}") from err


# ---------------------------------------------------------------------------
# single-qubit sweeps


def run_single_qubit_theta_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Rotation-angle sweep of one x-axis gate applied to the prepared state.

    With noise on, each angle is also one x pulse through the master equation
    on the pulse runner (_run_pulses, about THETA_RECORDS records), read from
    its final record: a negative angle takes the negative drive, 0 none.
    """
    _require_scenario(cfg, "theta-sweep")
    thetas = (cfg.sweep or THETA_SWEEP_DEFAULT).values()
    psi0 = _initial_state(cfg.initial_state, 2).amps

    finals = np.empty((thetas.shape[0], 2))
    for i, theta in enumerate(thetas):
        gate = single_qubit_unitary(GateParams(theta=float(theta), phi=0.0, lam=0.0))
        finals[i] = np.abs(gate.entries @ psi0) ** 2
    series = {"p1": finals[:, 0], "p2": finals[:, 1]}

    if cfg.noise.enabled:
        pulses = np.stack(np.broadcast_arrays(thetas, 0.0, 0.0, 0.0), axis=-1)[:, None]
        noisy = _run_pulses(
            cfg, thetas, "theta={:g}", [pulses], [(0, True, 1)], psi0[None],
            lambda run: {"p": [pops[-1] for pops in run.pops]}, records=THETA_RECORDS,
        )
        series["p1_noisy"], series["p2_noisy"] = noisy["p"].T

    return SweepResult(axis_values=thetas, series=series)


def run_single_qubit_detuning_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Fixed quarter rotation scanned across drive detuning.

    Each detuned run is compared against the resonant reference with the
    population-discrepancy phase probe; with noise on, the same drive is also
    integrated through the master equation and scored against the ideal run.
    Every run records every step of one shared plan, so all lie on one record
    grid; the pulse runner (_run_pulses) takes the reference, then the points.
    """
    _require_scenario(cfg, "detune-sweep")
    deltas = (cfg.sweep or DETUNE_SWEEP_DEFAULT).values()
    start = StateVector.normalized(_initial_state(cfg.initial_state, 2).amps).amps[None]
    span = _gate_time_us(math.pi / 2.0, cfg.rabi_mhz)

    # one shared step size so every trajectory lands on the same record grid:
    # the step of the drive at the largest |delta|, the fastest one
    widest = _drive_matrix(cfg.rabi_mhz, float(deltas[np.argmax(np.abs(deltas))]))
    evo = _pulse_config(span, _pulse_dt(widest, span, cfg), cfg, "detune-sweep")
    pulses = np.stack(np.broadcast_arrays(math.pi / 2.0, 0.0, 0.0, deltas), axis=-1)[:, None]
    passes = [(0, False, 1)] + [(0, True, 1)] * cfg.noise.enabled
    reference = _run_pulses(
        cfg, np.zeros(1), "reference delta={:g} MHz", [np.array([[[math.pi / 2.0, 0.0, 0.0, 0.0]]])], passes[:1], start,
        lambda run: {"series": run.pops[0][None, :, 0], "final": run.final[:, 0]}, evo=evo, name_starts=False,
    )
    ref_series, ref_final = reference["series"][0], StateVector.normalized(reference["final"][0]).amps
    phase_names = ("magnitude", "discrepancy", "undefined")

    def reduce(ideal: _Stitched, noisy: _Stitched = None) -> dict:
        pops = np.stack(ideal.pops)
        values = dict(zip(phase_names, phase_probe(ref_series, ref_final, pops[..., 0], ideal.final[:, 0])))
        values["p1"], values["p2"] = pops[:, -1].T
        if noisy is not None:
            noisy_pops = np.stack(noisy.pops)
            values["p1_noisy"], values["p2_noisy"] = noisy_pops[:, -1].T
            values["discrepancy_noisy"] = np.max(np.abs(noisy_pops - pops), axis=(1, 2))
        return values

    series = _run_pulses(cfg, deltas, "delta={:g} MHz", [pulses], passes, start, reduce, evo=evo, name_starts=False)
    phases = tuple(series.pop(name) for name in phase_names)
    return SweepResult(axis_values=deltas, series=series, phases=phases)


# ---------------------------------------------------------------------------
# composite gate scenario


def run_composite_gate_scenario(cfg: ScenarioConfig) -> SweepResult:
    """Three-gate composite versus one single gate over a shared theta sweep.

    Without explicit gate_params the composite splits the rotation into
    three equal legs, each an x pulse of theta/3 chased by an instantaneous
    z kick of the same angle (theta and phi advance together), and the single
    gate spends the whole area in one pulse with one kick at the end.
    Discrepancy per point is the largest gap between the ideal and noisy
    return populations of the configured start anywhere along the pulse
    timeline; with noise on, the six cardinal states also run the composite.

    With exactly three gate_params the sequence is fixed: each gate becomes
    pre-kick, pulse, post-kick legs, the axis collapses to one point, and the
    integrated sequence is scored against the one-shot matrix product of the
    three gates (fidelities key sequence_overlap_deficit).
    """
    _require_scenario(cfg, "composite")
    psi0 = _initial_state(cfg.initial_state, 2).amps
    starts = np.stack([psi0, *CARDINAL_STATES] if cfg.noise.enabled else [psi0])
    if cfg.gate_params:
        axis, label = np.zeros(1), "sequence"
        sequences = [np.array([[(p.theta, 2.0 * math.atan(p.lam), p.phi, 0.0) for p in cfg.gate_params]])]
    else:
        axis, label = (cfg.sweep or THETA_SWEEP_DEFAULT).values(), "theta={:g}"
        single = np.stack(np.broadcast_arrays(axis, 0.0, axis, 0.0), axis=-1)[:, None]
        sequences = [np.repeat(single / 3.0, 3, axis=1), single]
    # the composite ideal, then noisy, then the single gate's, from the configured start alone
    passes = [(0, False, starts.shape[0])]
    if cfg.noise.enabled:
        passes += [(0, True, starts.shape[0])] + [(1, False, 1), (1, True, 1)] * (not cfg.gate_params)

    def reduce(ideal: _Stitched, noisy=None, ideal_single=None, noisy_single=None) -> dict:
        values = {"final": ideal.final[:, 0], "pops": [pops[-1] for pops in ideal.pops]}
        for name, a, b in (("composite", ideal, noisy), ("single", ideal_single, noisy_single)):
            if b is not None:  # the largest gap in the first start's ground population
                values[f"discrepancy_{name}"] = [np.max(np.abs(i[:, 0] - n[:, 0])) for i, n in zip(a.pops, b.pops)]
        if noisy is not None:  # each cardinal start's noisy final density against its ideal final state, in one call
            psi = ideal.final[:, 1:] / np.linalg.norm(ideal.final[:, 1:], axis=-1, keepdims=True)
            fidelity = state_density_fidelity(psi.reshape(-1, 2), noisy.final[:, 1:].reshape(-1, 2, 2))
            values["fidelity_cardinal"] = fidelity.reshape(psi.shape[:2]).mean(axis=-1)
        return values

    columns = _run_pulses(cfg, axis, label, sequences, passes, starts, reduce)
    zeros = np.zeros(axis.shape[0])
    disc, fidelity = columns.get("discrepancy_composite", zeros), columns.get("fidelity_cardinal", zeros + 1.0)
    fidelities = {"composite_max_discrepancy": float(disc.max()), "cardinal_fidelity_mean": float(fidelity.mean())}
    if cfg.gate_params:
        product = np.eye(2, dtype=np.complex128)
        for p in cfg.gate_params:
            product = single_qubit_unitary(p).entries @ product
        pops = np.abs(columns["final"]) ** 2
        deficit = float(1.0 - abs(np.vdot(product @ psi0, columns["final"][0])))
        fidelities = {"sequence_overlap_deficit": deficit, **(fidelities if cfg.noise.enabled else {})}
        return SweepResult(axis_values=axis, series={"p1": pops[:, 0], "p2": pops[:, 1]}, fidelities=fidelities)
    single = columns.get("discrepancy_single", zeros)
    fidelities["single_max_discrepancy"] = float(single.max())
    pops = columns["pops"]
    series = {"p1": pops[:, 0], "p2": pops[:, 1], "discrepancy_composite": disc, "discrepancy_single": single, "fidelity_cardinal": fidelity}
    return SweepResult(axis_values=axis, series=series, fidelities=fidelities)


# ---------------------------------------------------------------------------
# the 2-level pulse runner


class _Stitched(NamedTuple):
    """A pass over a block of points: per point, its first start's record
    populations along the legs, (records, 2), and every start's final state,
    (points, starts, 2) amplitudes or (points, starts, 2, 2) densities."""

    pops: list
    final: np.ndarray


def _kick(state: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """z kick of each run by its angle, Rz = diag(e^(-i a/2), e^(i a/2)), on
    amplitudes (..., 2) or on densities or Hamiltonians (..., 2, 2), one
    angle per leading index; a zero angle's phases are exactly 1."""
    phases = np.exp(np.multiply.outer(angles, [-0.5j, 0.5j]))
    if state.ndim == phases.ndim:
        return state * phases
    return state * phases[..., :, None] * phases.conj()[..., None, :]


def _run_pulses(cfg, axis, label: str, sequences, passes, starts, reduce, evo=None, records=None, name_starts=True) -> dict:
    """The columns that reduce makes of every point's stitched pulses, block
    by block. Point p is named label.format(axis[p]); its leg sequence k,
    sequences[k][p], holds rows (theta, pre_kick, post_kick, detuning): a z
    kick, an x pulse of area theta at detuning MHz (the negative drive for a
    negative theta, none at 0) and a z kick. A pass (k, noisy, n) integrates
    sequence k from the first n rows of starts, through the master equation
    if noisy. The caller gives the step rule: evo for every pulse, or else
    _pulse_config at the _pulse_dt of its resonant drive sign, with about
    records records. The passes of one equation share one integration per
    block (_run_pass). A ragged call pads every run to its longest run's
    records, so a point's size in a call is the record bytes (a state, a
    norm and 2 populations each) of the runs it adds, each at the records of
    its longest run over all of that run's legs, and a block holds
    consecutive points while their count times their largest size in
    either call fits PULSE_BLOCK_BYTES. reduce(*stitched), one _Stitched per
    pass in order, gives the block's columns {name: per-point values} before
    the next block is planned. A failure names the scenario, the point and,
    with name_starts, the start (START_NAMES)."""
    spans = [_gate_time_us(np.abs(legs[..., 0]), cfg.rabi_mhz) for legs in sequences]
    dts = [np.zeros(span.shape) for span in spans]
    for legs, span, dt in zip(sequences, spans, dts):
        for sign in (1.0, -1.0) if evo is None else ():
            pick = (np.copysign(1.0, legs[..., 0]) == sign) & (span > 0.0)
            if pick.any():
                dt[pick] = _pulse_dt(_drive_matrix(sign * cfg.rabi_mhz, 0.0), span[pick], cfg)
    # one call per equation, ideal then noisy: its passes (indices into
    # passes), their sequences, the runs they add per point and the bytes of
    # a record
    calls = []
    for noisy in (False, True):
        call = [i for i, (_, each, _) in enumerate(passes) if each == noisy]
        if call:
            calls.append((noisy, call, {passes[i][0] for i in call}, sum(passes[i][2] for i in call), 88 if noisy else 56))
    columns = {}

    def plan(p: int) -> list:
        # per sequence, each leg's plan, None where it has no pulse
        where = f"{cfg.scenario_id} {label.format(axis[p])}"
        return [
            [(evo or _pulse_config(s, dt[p, leg], cfg, where, records)) if s > 0.0 else None for leg, s in enumerate(span[p])]
            for span, dt in zip(spans, dts)
        ]

    def size(point: list) -> int:
        counts = [1 + sum(e.record_steps.shape[0] - 1 for e in legs if e) for legs in point]
        return max(runs * max(counts[k] for k in ks) * nbytes for _, _, ks, runs, nbytes in calls)

    def run(lo: int, plans: list):
        at = slice(lo, lo + len(plans))
        names = [label.format(x) for x in axis[at]]
        stitched = [None] * len(passes)
        for noisy, call, *_ in calls:
            group = [(sequences[passes[i][0]][at], [each[passes[i][0]] for each in plans], passes[i][2]) for i in call]
            for i, pulses in zip(call, _run_pass(cfg, names, group, starts, noisy, name_starts)):
                stitched[i] = pulses
        for name, values in reduce(*stitched).items():
            columns.setdefault(name, []).append(np.array(values))

    lo, plans, largest = 0, [], 0
    for p in range(len(axis)):
        point = plan(p)
        point_size = size(point)
        if plans and (len(plans) + 1) * max(largest, point_size) > PULSE_BLOCK_BYTES:
            run(lo, plans)
            lo, plans, largest = p, [], 0
        plans.append(point)
        largest = max(largest, point_size)
    run(lo, plans)
    return {name: np.concatenate(parts) for name, parts in columns.items()}


def _run_pass(cfg: ScenarioConfig, names, group, starts, noisy: bool, name_starts: bool) -> list:
    """The passes of one equation over a block of points as one ragged
    integration, one _Stitched per pass. group holds each pass's (legs,
    plans, n): its leg rows and leg plans per point and its start count. A
    pass adds the runs of its points that have a pulse, point by point with
    their first n starts within; the others keep their start. With more
    than one leg in the call, a run chains its legs (its cfg a tuple of leg
    plans, None past its pass's last leg), and its z kicks fold into each
    leg's drive as the frame rotation H' = Rz(phi)^dag H Rz(phi), phi the
    kicks before the leg's pulse (the T1/T2 dissipator is invariant under
    it); every final state then takes the total kick (_kick). One leg is a
    plain EvolutionConfig. A point's
    records are read from its first start's row up to its own count, every
    final state from the last row. noisy carries the densities through the
    master equation with cfg.noise; else the amplitudes, normalised, go
    through the Schrodinger equation."""
    n_legs = max(legs.shape[1] for legs, _, _ in group)
    if noisy:
        state = starts[:, :, None] * starts[:, None, :].conj()
        pops0 = np.real(np.diagonal(state[0]))
    else:
        state = starts / np.linalg.norm(starts, axis=1, keepdims=True)
        pops0 = np.abs(starts[0]) ** 2
    drives, evos, y0, runs, firsts = [], [], [], [], []
    for legs, plans, n in group:
        moving = [p for p, plan in enumerate(plans) if any(plan)]
        firsts.append((len(evos), moving))
        pulses = legs[moving]
        h = np.zeros((len(moving), n_legs, 2, 2), dtype=np.complex128)
        h[:, : legs.shape[1]] = _drive_matrix(np.copysign(cfg.rabi_mhz, pulses[..., 0]), pulses[..., 3])
        if pulses[..., 1:3].any():  # the kicks before each leg's pulse: its pre-kick and all kicks before
            phi = np.cumsum(pulses[..., 1:3].reshape(len(moving), 2 * legs.shape[1]), axis=1)[:, 0::2]
            h[:, : legs.shape[1]] = _kick(h[:, : legs.shape[1]], -phi)
        drives.append(np.repeat(h, n, axis=0))
        after = (None,) * (n_legs - legs.shape[1])
        # one plan per point, shared by its starts
        evos += [plan for p in moving for plan in [tuple(plans[p]) + after if n_legs > 1 else plans[p][0]] * n]
        y0 += [state[:n]] * len(moving)
        runs += [f"{names[p]} start={name}" if name_starts else names[p] for p in moving for name in START_NAMES[:n]]
    if runs:
        drives = np.concatenate(drives) if n_legs > 1 else np.concatenate(drives)[:, 0]
        with _naming(cfg.scenario_id, runs):
            if noisy:
                result = evolve_lindblad(drives, np.concatenate(y0), cfg.noise, evos)
            else:
                result = evolve_schrodinger(drives, np.concatenate(y0), evos)
    stitched = []
    for (legs, plans, n), (first, moving) in zip(group, firsts):
        pops = [[pops0[None]] for _ in plans]
        final = np.repeat(state[None, :n], len(plans), axis=0)
        if moving:
            rows = range(first, first + n * len(moving), n)
            final[moving] = result.states[first : first + n * len(moving), -1].reshape((len(moving), n) + state.shape[1:])
            for p, row in zip(moving, rows):  # only the first start's records are kept, as copies
                pops[p].append(result.populations[row, 1 : result.counts[row]].copy())
        if noisy:  # Hermitian to rounding, made exactly so for the fidelity's density check
            final = 0.5 * (final + np.swapaxes(final, -1, -2).conj())
        if legs[..., 1:3].any():
            final = _kick(final, np.sum(legs[..., 1:3], axis=(1, 2))[:, None])
        stitched.append(_Stitched([np.concatenate(parts) for parts in pops], final))
    return stitched


# ---------------------------------------------------------------------------
# two-qubit pi/2 transfer


def run_two_qubit_pi2(cfg: ScenarioConfig) -> Trajectory:
    """Integrate the pulsed four-level register through one Raman window.

    The four-level Hamiltonian holds the level energies and the drive, and
    reads no [detunings]: ScenarioConfig checks the keys as numbers, and they
    are ignored."""
    _require_scenario(cfg, "two-qubit-pi2")
    width = 1.0 / cfg.envelope_mhz
    span = 8.0 * width
    center = 4.0 * width
    amp = cfg.drive_mhz if cfg.drive_mhz is not None else TWO_QUBIT_DRIVE_MHZ
    omega = cfg.splitting_mhz
    spec = LevelSpec(dim=4, energies_mhz=(0.0, 0.0, omega, -omega))
    tone = PulseChannel(
        rabi_mhz=amp,
        envelope="gaussian",
        t_center_us=center,
        t_width_us=width,
    )
    pulses = PulseSet(pump=(tone, silent_channel()), stokes=(tone, silent_channel()))
    h = PulsedHamiltonian(spec, pulses)

    psi0 = _initial_state(cfg.initial_state, 4)
    dt = _pulse_dt(h, span, cfg, TWO_QUBIT_DT_SCALE)
    evo = _pulse_config(span, dt, cfg, "two-qubit-pi2", TWO_QUBIT_RECORDS)
    with _naming("two-qubit-pi2", []):
        return evolve_schrodinger(h, psi0, evo)


# ---------------------------------------------------------------------------
# closed-loop register model (three qubits, analytic)
#
# The propagator functions below take an array of tilts (or detunings) and
# return one row per entry.


def _diamond_azimuth(s: np.ndarray) -> np.ndarray:
    # tent through 0, +1, 0, -1, 0 at s = 0, 1/4, 1/2, 3/4, 1
    return np.where(s <= 0.5, 1.0 - np.abs(4.0 * s - 1.0), np.abs(4.0 * s - 3.0) - 1.0)


def _loop_kets(qubit: int, chi, s_grid) -> np.ndarray:
    """First column (a, b) of one qubit's loop rotation seen from its
    preparation frame, V^dag U V, over the path fractions s, one row per
    tilt: shape chi.shape + (len(s_grid), 2). The whole rotation is
    [[a, -b*], [b, a*]].

    U turns by beta(s) about the tilted axis n, so a = cos(beta/2) -
    i n_z sin(beta/2) and b = (n_y - i n_x) sin(beta/2); the preparation
    rotation V = Rx(prep) carries n to Rx(-prep) n, since V^dag (n.sigma) V
    is the Pauli vector of that rotated axis. The kets are written through a
    float64 view in real arithmetic, with no complex temporaries. They leave
    out the frame phase exp(i phase s) of _qubit_kets, a global factor of
    modulus 1 that no population, norm, Bloch map or fidelity reads.
    """
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    chi = np.asarray(chi, dtype=float)[..., None]
    half = 0.5 * LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit] * (1.0 / np.cos(chi)) * s  # beta / 2
    # the first two loops keep azimuth 0, so their axis is one per tilt
    azimuth = DIAMOND_HALF_RAD * _diamond_azimuth(s) if qubit == 2 else 0.0
    nx = np.cos(chi) * np.cos(azimuth)
    ny = np.cos(chi) * np.sin(azimuth)
    nz = np.sin(chi)
    cp, sp = math.cos(LOOP_PREP_RAD[qubit]), math.sin(LOOP_PREP_RAD[qubit])
    ny, nz = ny * cp + nz * sp, nz * cp - ny * sp
    c, d = np.cos(half), np.sin(half)
    kets = np.empty(c.shape + (2,), dtype=np.complex128)
    parts = kets.view(np.float64)  # Re a, Im a, Re b, Im b
    parts[..., 0], parts[..., 1] = c, -nz * d
    parts[..., 2], parts[..., 3] = ny * d, -nx * d
    return kets


def _qubit_kets(qubit: int, dtilde_mhz, s_grid) -> tuple:
    """The qubit's kets over the path from |0> without the frame phase
    (_loop_kets on the tilts) and the frame phase per detuning: Phi less the
    kinematic phase each tilted loop would add on its own, echoed away. That
    is read off the kets at s = 1, the grid's last, against the untilted
    loop's end (cos h, -i sin h), a turn by its area 2h about x."""
    chi = np.arctan2(dtilde_mhz, TILT_SCALE_MHZ)
    kets = _loop_kets(qubit, chi, s_grid)
    h = 0.5 * LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit]
    overlap = np.cos(h) * kets[..., -1, 0] + 1j * np.sin(h) * kets[..., -1, 1]
    dispersive = -math.pi * (np.sin(chi) ** 2 - LOOP_SENSES[qubit] * np.sin(2.0 * chi) / 2.0)
    return kets, dispersive - np.where(np.abs(overlap) < 1e-12, 0.0, np.angle(overlap))


def _framed(kets: np.ndarray, phase, s_grid) -> np.ndarray:
    """kets (..., samples, 2) at path fractions s_grid times exp(i phase s), a phase per row."""
    theta = np.asarray(phase, dtype=float)[..., None] * s_grid
    cos_t, sin_t = np.cos(theta)[..., None], np.sin(theta)[..., None]
    out = np.empty_like(kets)
    out.real = kets.real * cos_t - kets.imag * sin_t
    out.imag = kets.real * sin_t + kets.imag * cos_t
    return out


def _common_mode(deltas) -> np.ndarray:
    """Common mode of the held detunings, per triple (last axis of deltas)."""
    deltas = np.asarray(deltas, dtype=float)
    return 0.5 * (deltas[..., 1] + deltas[..., 2])


def _differential(deltas) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    return deltas - _common_mode(deltas)[..., None]


def _kron_kets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two state stacks sample by sample, the first factor
    most significant; b's leading axes are the last leading axes of a. The
    repeated a is multiplied in place by the tiled b, one row of a's extra
    leading axes at a time: a broadcast multiply would have numpy allocate
    iterator buffers up to the result's size."""
    out = np.repeat(a, b.shape[-1], axis=-1)
    tiled = np.tile(b, a.shape[-1])
    for row in out.reshape((-1,) + tiled.shape):
        row *= tiled
    return out


def _loop_duration_us(deltas, base_us: float):
    """Wall-clock duration of the loop per triple: the fastest-turning qubit
    sets it."""
    rate = np.max(1.0 / np.cos(np.arctan2(_differential(deltas), TILT_SCALE_MHZ)), axis=-1)
    return base_us / rate


def run_three_qubit_detuning_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the first qubit's detuning across the register loop.

    The held detunings define the common mode; their slice of the sweep is
    the on-resonant reference, and every other point is scored against it by
    the population-discrepancy phase probe. All points share one wall-clock
    window so the record grids line up.

    The register has no interaction term, so a point's state is the product
    k (x) h of the swept qubit's ket k and the held pair's ket h, and h is
    the same for every point: the register's level-0 population is
    |k_0|^2 |h_0|^2, and once normalised its final overlap with the reference
    is the swept factor's alone. So no register array is built. The held pair
    is evaluated and gated once; the swept qubit's kets (2 amplitudes per
    sample, on a grid of as many samples as the sweep has points) go in
    blocks of at most LOOP_BLOCK_BYTES, each gated and scored before the next
    is built.
    """
    _require_scenario(cfg, "three-qubit-sweep")
    grid = cfg.detunings[0].values()
    d2, d3 = cfg.detunings[1:]
    common = 0.5 * (d2 + d3)
    n_time = grid.shape[0]
    s_grid = np.linspace(0.0, 1.0, n_time)
    times = s_grid * (cfg.duration_us or LOOP_DURATION_US)
    block = max(1, LOOP_BLOCK_BYTES // (2 * 16 * n_time))  # 2 complex amplitudes per sample

    def gated(kets: np.ndarray, points, name: str = "{}") -> Trajectory:
        # the recorded-norm and population gate, naming a failing point
        with _naming("three-qubit-sweep", points, name):
            return Trajectory(times=times, populations=np.square(kets.real) + np.square(kets.imag), amplitudes=kets)

    held = [_qubit_kets(q, d - common, s_grid)[0] for q, d in ((1, d2), (2, d3))]
    held_p0 = gated(_kron_kets(*held), [f"held delta2={d2:g} MHz, delta3={d3:g} MHz"]).population_series(0)
    # the same batched call and block code as the sweep points, so the
    # held-detuning point reproduces the reference bit for bit
    ref_kets, ref_phase = _qubit_kets(0, np.array([common]) - common, s_grid)
    reference = gated(ref_kets[0], [f"reference delta1={common:g} MHz"])
    ref_series = reference.population_series(0) * held_p0
    ref_final = _framed(reference.final_state.amps[None], ref_phase[0], 1.0)[0]  # overlaps read the frame phase
    p1_final = np.empty(n_time)
    found = []
    for lo in range(0, n_time, block):
        at = slice(lo, lo + block)
        kets, phase = _qubit_kets(0, grid[at] - common, s_grid)
        level0 = gated(kets, grid[at], "delta1={:g} MHz").population_series(0) * held_p0
        p1_final[at] = level0[:, -1]
        found.append(phase_probe(ref_series, ref_final, level0, _framed(kets[:, -1:], phase, 1.0)[:, 0]))
        with _naming("three-qubit-sweep", grid[at], "delta1={:g} MHz"):  # the block's probe columns
            for what, column in zip(("phase magnitude", "phase discrepancy"), found[-1]):
                if not np.all(finite := np.isfinite(column)):
                    raise NumericalError(f"{what} holds a non-finite value", member=int(np.argmin(finite)))
        del kets, level0  # used up: the next block is built without them
    series = {"p1_final": p1_final, "p1_reference": ref_series}
    return SweepResult(axis_values=grid, series=series, phases=tuple(map(np.concatenate, zip(*found))))


def run_three_qubit_time_evolution(cfg: ScenarioConfig) -> tuple:
    """Loop trajectories for each requested detuning triple.

    Returns the on-resonant reference first, then one trajectory per triple,
    all evaluated in one batched call on a shared grid of path fractions.
    Detuned loops complete faster, so their time axes are shorter.
    """
    _require_scenario(cfg, "three-qubit-time")
    common = _common_mode(cfg.detuning_sets[0])
    base = cfg.duration_us or LOOP_DURATION_US
    deltas = np.array([(common, common, common), *cfg.detuning_sets], dtype=float)
    s_grid = np.linspace(0.0, 1.0, TIME_EVOLUTION_SAMPLES)
    dtilde = _differential(deltas)
    kets = [_framed(*_qubit_kets(q, dtilde[:, q], s_grid), s_grid) for q in range(3)]
    amps = _kron_kets(_kron_kets(kets[0], kets[1]), kets[2])
    trajs = []
    for i, (triple, duration, a) in enumerate(zip(deltas, _loop_duration_us(deltas, base), amps)):
        name = "delta=({:g}, {:g}, {:g}) MHz".format(*triple)
        with _naming("three-qubit-time", [f"reference {name}" if i == 0 else name]):
            trajs.append(Trajectory(times=s_grid * duration, populations=np.abs(a) ** 2, amplitudes=a))
    return tuple(trajs)


# ---------------------------------------------------------------------------
# pi/3 rotation on the 8-level register


def run_pi3_rotation(cfg: ScenarioConfig) -> Trajectory:
    """Resonantly rotate the |1>,|5> pair by pulse area pi/3.

    Norm renormalization stays off here; the recorded norm column is part of
    what the scenario reports.
    """
    _require_scenario(cfg, "pi3")
    rabi = cfg.rabi_mhz
    h = np.zeros((8, 8), dtype=np.complex128)
    h[0, 4] = h[4, 0] = 2.0 * math.pi * rabi / 2.0
    span = 1.0 / (3.0 * rabi)
    psi0 = _initial_state(cfg.initial_state, 8)
    evo = _pulse_config(span, _pulse_dt(h, span, cfg), cfg, "pi3", keep_norm=True)
    with _naming("pi3", []):
        return evolve_schrodinger(h, psi0, evo)


# ---------------------------------------------------------------------------
# dark-state spectrum


DARK_EIGENVALUE_REL_TOL = 1e-9


def run_dark_state_spectrum(cfg: ScenarioConfig) -> DarkSpectrum:
    """Diagonalize the static interaction matrix and probe its dark states.

    Dark states are eigenvectors with eigenvalue zero relative to the
    spectral scale; each one is evolved under the same static matrix and the
    peak population leakage out of it is reported.
    """
    _require_scenario(cfg, "dark-states")
    amps = cfg.drive_amplitudes_mhz or (cfg.rabi_mhz,) * 6
    spec = LevelSpec(
        dim=8,
        energies_mhz=(0.0,) * 8,
        detunings_mhz=cfg.detunings,
    )
    matrix = build_interaction_8(spec, amps, mode=cfg.hermiticity)
    eigenvalues, eigenvectors = eig_hermitian(matrix)
    scale = float(np.max(np.abs(eigenvalues)))
    dark_indices = tuple(
        int(i)
        for i in range(eigenvalues.shape[0])
        if abs(eigenvalues[i]) <= DARK_EIGENVALUE_REL_TOL * scale
    )

    span = cfg.duration_us or 1.0
    evo = _pulse_config(span, _pulse_dt(matrix.entries, span, cfg), cfg, "dark-states", DARK_RECORDS)
    leakages = ()
    if dark_indices:
        dark = eigenvectors[:, dark_indices].T  # one dark state per row
        starts = dark / np.linalg.norm(dark, axis=1, keepdims=True)
        with _naming("dark-states", [f"dark state {i}" for i in dark_indices]):
            traj = evolve_schrodinger(matrix.entries, starts, evo)
        stay = np.abs(traj.amplitudes @ dark.conj()[:, :, None])[..., 0] ** 2
        leakages = tuple(float(x) for x in np.max(1.0 - stay, axis=1))
    return DarkSpectrum(
        eigenvalues_mhz=eigenvalues / (2.0 * math.pi),
        eigenvectors=eigenvectors,
        dark_indices=dark_indices,
        leakages=leakages,
    )


# ---------------------------------------------------------------------------
# fidelity comparison


def _qubit_kraus(dt_us: float, noise: NoiseModel) -> np.ndarray:
    """Kraus operators of one step of amplitude damping then dephasing, the
    products of the damping pair [[1, 0], [0, a]], [[0, b], [0, 0]] with the
    dephasing pair c 1, d Z, written entrywise: shape (m, 2, 2). An all-zero
    operator (no damping or no dephasing) is dropped."""
    gamma1, gamma_phi = noise.rates()
    p = 1.0 - math.exp(-gamma1 * dt_us)
    q = 0.5 * (1.0 - math.exp(-2.0 * gamma_phi * dt_us))
    a, b = math.sqrt(1.0 - p), math.sqrt(p)
    c, d = math.sqrt(1.0 - q), math.sqrt(q)
    ops = np.zeros((4, 2, 2), dtype=np.complex128)
    ops[0, 0, 0], ops[0, 1, 1] = c, c * a
    ops[1, 0, 0], ops[1, 1, 1] = d, -d * a
    ops[2, 0, 1] = c * b
    ops[3, 0, 1] = d * b
    return ops[np.abs(ops).max(axis=(1, 2)) > 0.0]


_PAULI = np.array(
    [np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=np.complex128,
)


def _bloch_rotations(kets: np.ndarray) -> np.ndarray:
    """The rotations R_ij = 1/2 Tr(sigma_i U sigma_j U^dag) of the unitaries
    U = [[a, -b*], [b, a*]] of the kets (a, b) on the last axis, as
    homogeneous 4x4 maps of [1, r], r the Bloch vector: shape
    kets.shape[:-1] + (4, 4). Written elementwise from the kets' real parts.
    """
    p, q, r, t = np.moveaxis(kets.view(np.float64), -1, 0)  # a = p + iq, b = r + it
    aa_re, aa_im = p * p - q * q, 2.0 * p * q
    bb_re, bb_im = r * r - t * t, 2.0 * r * t
    out = np.zeros(p.shape + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = aa_re - bb_re
    out[..., 1, 2] = aa_im - bb_im
    out[..., 1, 3] = 2.0 * (p * r + q * t)
    out[..., 2, 1] = -aa_im - bb_im
    out[..., 2, 2] = aa_re + bb_re
    out[..., 2, 3] = 2.0 * (p * t - q * r)
    out[..., 3, 1] = -2.0 * (p * r - q * t)
    out[..., 3, 2] = -2.0 * (p * t + q * r)
    out[..., 3, 3] = p * p + q * q - r * r - t * t
    return out


def _step_kets(kets: np.ndarray) -> np.ndarray:
    """First columns of U_k U_{k-1}^dag for the unitaries [[a, -b*], [b, a*]]
    of consecutive kets (a, b) on axis -2: one row fewer on that axis."""
    a, b = kets[..., 1:, 0], kets[..., 1:, 1]
    a_prev, b_prev = kets[..., :-1, 0], kets[..., :-1, 1]
    out = np.empty(a.shape + (2,), dtype=np.complex128)
    out[..., 0] = a * a_prev.conj() + b.conj() * b_prev
    out[..., 1] = b * a_prev.conj() - a.conj() * b_prev
    return out


def _channel_map(kraus: np.ndarray) -> np.ndarray:
    """The affine map T_ij = 1/2 Re Tr(sigma_i sum_m M_m sigma_j M_m^dag) on
    [1, r] of the channel with Kraus operators M_m on axis -3: shape
    kraus.shape[:-3] + (4, 4)."""
    terms = np.einsum("iab,...mbc,jcd,...mad->...ij", _PAULI, kraus, _PAULI, kraus.conj())
    return 0.5 * terms.real


def _loop_fidelity(deltas, base_us: float, noise: NoiseModel, n_slices: int):
    """Register fidelity per detuning triple (last axis of deltas), the
    product of the three qubits' fidelities <ideal|rho|ideal>.

    Each slice applies per-qubit unitaries and per-qubit channels to a
    product state, so the register state stays a product and its overlap
    with the (product) ideal state factorises qubit by qubit. A qubit's rho
    is its Bloch vector r, on whose [1, r] a slice is the real 4x4 map
    T R_k R_{k-1}^T: the step rotation between the loop frames, then the
    channel. The loop phase is global and drops out. Every qubit's and
    triple's slices go through the same batched ordered products, and the
    fidelity is 1/2 [1, r_ideal] . [1, r] at the loop's end.
    """
    deltas = np.asarray(deltas, dtype=float)
    triples = deltas.reshape(-1, 3)
    chi = np.arctan2(_differential(triples), TILT_SCALE_MHZ)
    s_grid = np.linspace(0.0, 1.0, n_slices + 1)
    kets = np.stack([_loop_kets(q, chi[:, q], s_grid) for q in range(3)])
    # [1, r] of |0> seen from the first and the last frame
    ends = _bloch_rotations(kets[..., [0, -1], :])
    rho, ideal = np.moveaxis(ends[..., 0] + ends[..., 3], -2, 0)
    # channels act in the frame of the preparation rotation
    v = np.array([_rx(prep) for prep in LOOP_PREP_RAD])[:, None]
    dts = _loop_duration_us(triples, base_us) / n_slices
    kraus = [v.conj().swapaxes(-1, -2) @ _qubit_kraus(dt, noise) @ v for dt in dts]
    channels = np.stack([_channel_map(k) for k in kraus], axis=1)[..., None, :, :]
    # (qubit, triple, slice) steps R_k R_{k-1}^T, the rotations of U_k U_{k-1}^dag,
    # in pieces: each piece's product moves [1, r] on before the next is built
    for lo in range(0, n_slices, FIDELITY_PIECE_SLICES):
        slices = channels @ _bloch_rotations(_step_kets(kets[..., lo:lo + FIDELITY_PIECE_SLICES + 1, :]))
        rho = (ordered_product(slices) @ rho[..., None])[..., 0]
        del slices  # used up: the next piece is built without it
    fidelity = 0.5 * (ideal * rho).sum(axis=-1)
    return np.prod(fidelity, axis=0).reshape(deltas.shape[:-1])[()]


def compare_resonant_fidelity(cfg: ScenarioConfig) -> tuple:
    """Final-state fidelity of the noisy register loop, off- and on-resonant.

    The on-resonant configuration holds every detuning at the common mode and
    runs the full base duration; the off-resonant one offsets the qubits by
    the calibrated split (+d, +d, -d), which tilts the loops and finishes in
    a shorter wall-clock window. Returns (off_resonant, on_resonant).
    """
    _require_scenario(cfg, "fidelity-compare")
    common = 0.5 * (cfg.detunings[1] + cfg.detunings[2])
    base = cfg.duration_us or LOOP_DURATION_US
    offset = OFF_RESONANT_OFFSET_MHZ
    on = (common, common, common)
    off = (common + offset, common + offset, common - offset)
    off_fidelity, on_fidelity = _loop_fidelity((off, on), base, cfg.noise, FIDELITY_SLICES)
    return float(off_fidelity), float(on_fidelity)
