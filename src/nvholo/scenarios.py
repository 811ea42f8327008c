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
propagators of every sweep point or detuning triple come from one batched
call, the sweep axis in blocks of bounded size, and the noisy fidelity loop
is an ordered product of 4x4 superoperators, one per slice.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from nvholo.core import (
    ConfigError,
    DensityMatrix,
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
    _plan_steps,
    evolve_lindblad,
    evolve_schrodinger,
    recommended_dt,
)
from nvholo.gates import (
    GateParams,
    PhaseEstimate,
    phase_estimates,
    single_qubit_unitary,
)
from nvholo.hamiltonians import (
    HERMITICITY_MODES,
    HERMITIZED,
    LevelSpec,
    PulseChannel,
    PulseSet,
    PulsedHamiltonian,
    build_interaction_8,
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
CARRIER_DEFAULT_MHZ = 4966.0

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
# the detuning sweep holds at most this many bytes of (points, time, 8)
# register amplitudes at a time, 8 points on a 121-sample grid; its time grid
# grows with the point count, so whole-sweep arrays would grow with its square
LOOP_BLOCK_BYTES = 128 * 1024
# the detune sweep integrates its points in blocks of at most this many bytes:
# a point takes about DETUNE_RECORD_BYTES of heap per step (its ideal and noisy
# records with the integrator's working copies), and every step is recorded.
# Measured with tracemalloc on noisy 629-step sweeps: 148 B per point-step
# from 2 to 4 points per block and 210 B from 4 to 8, so 4 points go per
# block, and a 7-point sweep peaks at 0.55 MB
DETUNE_BLOCK_BYTES = 512 * 1024
DETUNE_RECORD_BYTES = 200

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

    def values(self) -> np.ndarray:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(count, dtype=float)


THETA_SWEEP_DEFAULT = SweepSpec(0.0, 2.0 * math.pi, math.pi / 16.0)
DETUNE_SWEEP_DEFAULT = SweepSpec(-30.0, 30.0, 2.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one scenario run."""

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
    carrier_mhz: float = CARRIER_DEFAULT_MHZ
    drive_amplitudes_mhz: tuple = ()
    duration_us: float | None = None
    noise: NoiseModel = _NOISE_OFF
    hermiticity: str = HERMITIZED
    dt_us: float | None = None
    renormalize: bool = True

    def __post_init__(self):
        if self.scenario_id not in SCENARIO_IDS:
            raise ConfigError(
                f"unknown scenario {self.scenario_id!r}, expected one of {SCENARIO_IDS}"
            )
        kind = self.initial_state[0] if len(self.initial_state) == 2 else None
        if kind not in ("level", "rotation"):
            raise ConfigError(
                "initial_state must be ('level', index) or ('rotation', angle_rad)"
            )
        if kind == "level":
            level = self.initial_state[1]
            if level != int(level) or level < 0:
                raise ConfigError(f"initial level must be an integer >= 0, got {level}")
        elif not np.isfinite(self.initial_state[1]):
            raise ConfigError("initial rotation angle must be finite")
        for p in self.gate_params:
            if not isinstance(p, GateParams):
                raise ConfigError("gate_params entries must be GateParams values")
        if len(self.detunings) != 3:
            raise ConfigError("detunings must have exactly 3 entries")
        for d in self.detunings:
            if not isinstance(d, SweepSpec) and not np.isfinite(d):
                raise ConfigError("detunings must be finite numbers or sweep specs")
        for triple in self.detuning_sets:
            if len(triple) != 3 or not np.all(np.isfinite(triple)):
                raise ConfigError("each detuning set must be a finite triple")
        if not self.rabi_mhz > 0:
            raise ConfigError(f"rabi must be > 0 MHz, got {self.rabi_mhz}")
        if self.drive_mhz is not None and not self.drive_mhz > 0:
            raise ConfigError("drive amplitude must be > 0 MHz")
        if not self.splitting_mhz > 0 or not self.envelope_mhz > 0:
            raise ConfigError("splitting and envelope scales must be > 0 MHz")
        if self.carrier_mhz < 0:
            raise ConfigError("carrier frequency must be >= 0 MHz")
        if self.drive_amplitudes_mhz and (
            len(self.drive_amplitudes_mhz) != 6
            or not np.all(np.isfinite(self.drive_amplitudes_mhz))
        ):
            raise ConfigError("drive_amplitudes_mhz needs exactly 6 finite entries")
        if self.duration_us is not None and not self.duration_us > 0:
            raise ConfigError("duration must be > 0 us")
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        if self.hermiticity not in HERMITICITY_MODES:
            raise ConfigError(f"unknown hermiticity mode {self.hermiticity!r}")
        if self.dt_us is not None and not self.dt_us > 0:
            raise ConfigError("dt override must be > 0 us")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-point series over one sweep axis.

    Every series entry is a bounded fraction (population, fidelity, or
    discrepancy), one value per axis point except where a series carries a
    companion curve sampled on the same number of points.
    """

    axis_values: np.ndarray
    series: dict
    phase_estimates: tuple = ()
    fidelities: dict = field(default_factory=dict)

    def __post_init__(self):
        axis = np.asarray(self.axis_values, dtype=float)
        if axis.ndim != 1 or axis.shape[0] < 1:
            raise ConfigError("axis_values must be a non-empty 1-d sequence")
        axis.setflags(write=False)
        object.__setattr__(self, "axis_values", axis)
        frozen = {}
        for name, values in self.series.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != axis.shape:
                raise ConfigError(
                    f"series {name!r} has {arr.shape[0] if arr.ndim == 1 else '?'} "
                    f"values for {axis.shape[0]} axis points"
                )
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"series {name!r} holds a non-finite value")
            if not (arr.min(initial=0.0) >= -POPULATION_TOL and arr.max(initial=0.0) <= 1.0 + POPULATION_TOL):
                raise ConfigError(f"series {name!r} leaves [0, 1]")
            arr.setflags(write=False)
            frozen[name] = arr
        object.__setattr__(self, "series", frozen)
        if self.phase_estimates:
            for est in self.phase_estimates:
                if not isinstance(est, PhaseEstimate):
                    raise ConfigError("phase_estimates entries must be PhaseEstimate values")
            if len(self.phase_estimates) != axis.shape[0]:
                raise ConfigError("phase_estimates length must match axis_values")
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


def _sweep_values(value) -> np.ndarray:
    if isinstance(value, SweepSpec):
        return value.values()
    return np.asarray([float(value)])


def _scalar_detuning(value, name: str) -> float:
    if isinstance(value, SweepSpec):
        raise ConfigError(f"{name} must be a scalar here, got a sweep spec")
    return float(value)


def _rx(angle: float) -> np.ndarray:
    h = 0.5 * angle
    return np.array(
        [[math.cos(h), -1j * math.sin(h)], [-1j * math.sin(h), math.cos(h)]],
        dtype=np.complex128,
    )


def _initial_state(initial_state, dim: int) -> StateVector:
    """The configured start state: basis level k < dim, or, in a two-level
    scenario only, level 0 rotated about x by the given angle."""
    kind, value = initial_state
    if kind == "rotation":
        if dim != 2:
            raise ConfigError(
                f"initial_rotation_rad needs a two-level scenario, this one has {dim} levels"
            )
        return StateVector(_rx(float(value)) @ np.array([1.0, 0.0], dtype=np.complex128))
    if int(value) >= dim:
        raise ConfigError(f"initial level must be below {dim} here, got {int(value)}")
    return StateVector.basis(dim, int(value))


def _drive_matrix(rabi_mhz: float, delta_mhz: float) -> np.ndarray:
    two_pi = 2.0 * math.pi
    return np.array(
        [
            [0.0, two_pi * rabi_mhz / 2.0],
            [two_pi * rabi_mhz / 2.0, two_pi * delta_mhz],
        ],
        dtype=np.complex128,
    )


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
    n_steps // records, n_steps as the integrator plans them). Runs
    renormalise as [integrator] renormalize says, unless keep_norm: a run
    whose recorded norm is part of its result never renormalises. A
    configured step longer than the span, or any step past MAX_STEPS, is a
    config error that names the point and where the step came from."""
    if cfg.dt_us is not None and cfg.dt_us > span:
        raise ConfigError(
            f"{where}: [integrator] dt_us = {cfg.dt_us:g} exceeds the {span:.6g} us span"
        )
    try:
        n_steps = _plan_steps(span, dt)[0]
    except ConfigError as err:
        source = "no [integrator] dt_us is set, so the step follows the pulse's fastest frequency"
        raise ConfigError(f"{where}: {err}; {'raise [integrator] dt_us' if cfg.dt_us else source}") from None
    stride = max(1, n_steps // records) if records else 1
    renormalize = cfg.renormalize and not keep_norm
    return EvolutionConfig(0.0, float(span), float(dt), record_stride=stride, renormalize=renormalize)


@contextmanager
def _naming(scenario: str, points: list):
    """Re-raise a NumericalError of a batched integration under the scenario
    and the sweep point of its failing run, points[run]."""
    try:
        yield
    except NumericalError as err:  # member is None for a call of one run
        where = f"{scenario} {points[err.member or 0]}" if points else scenario
        raise NumericalError(f"{where}: {err.detail}") from err


# ---------------------------------------------------------------------------
# single-qubit sweeps


def run_single_qubit_theta_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Rotation-angle sweep of one x-axis gate applied to the prepared state.

    With noise on, each angle is also one x pulse through the master equation
    on composite's segment runner (_run_segments, about THETA_RECORDS records
    each): a negative angle takes the negative drive, theta = 0 keeps the start.
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
        pulses = [(f"theta={theta:g}", [(theta, 0.0, 0.0)]) for theta in thetas]
        runs = _run_segments(pulses, psi0[None], cfg, True, THETA_RECORDS)
        series["p1_noisy"], series["p2_noisy"] = np.stack([run.pops[0, -1] for run in runs]).T

    return SweepResult(axis_values=thetas, series=series)


def run_single_qubit_detuning_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Fixed quarter rotation scanned across drive detuning.

    Each detuned run is compared against the resonant reference with the
    population-discrepancy phase probe; with noise on, the same drive is also
    integrated through the master equation and scored against the ideal run.
    Every step is recorded, so the points go in blocks of at most
    DETUNE_BLOCK_BYTES, each block with its own copy of the reference.
    """
    _require_scenario(cfg, "detune-sweep")
    deltas = (cfg.sweep or DETUNE_SWEEP_DEFAULT).values()
    psi0 = _initial_state(cfg.initial_state, 2).amps
    span = _gate_time_us(math.pi / 2.0, cfg.rabi_mhz)

    # one shared step size so every trajectory lands on the same record grid:
    # the step of the drive at the largest |delta|, the fastest one
    widest = _drive_matrix(cfg.rabi_mhz, float(deltas[np.argmax(np.abs(deltas))]))
    evo = _pulse_config(span, _pulse_dt(widest, span, cfg), cfg, "detune-sweep")
    n_records = _plan_steps(span, evo.dt_us)[0] + 1
    block = max(1, DETUNE_BLOCK_BYTES // (DETUNE_RECORD_BYTES * n_records))
    state0 = StateVector.normalized(psi0)
    rho0 = DensityMatrix.from_state(state0)
    noisy_names = ["p1_noisy", "p2_noisy", "discrepancy_noisy"] if cfg.noise.enabled else []
    series = {name: np.empty(deltas.shape[0]) for name in ["p1", "p2"] + noisy_names}

    def block_values(part: np.ndarray):
        """(phase estimates, {series name: values}) of one block of points;
        each record buffer is dropped once it is done with."""
        # the resonant reference, then the block's points: one stack of drives
        drives = np.stack([_drive_matrix(cfg.rabi_mhz, d) for d in np.append(0.0, part)])
        points = ["reference delta=0 MHz"] + [f"delta={d:g} MHz" for d in part]
        with _naming("detune-sweep", points):
            ideal = evolve_schrodinger(drives, state0, evo)
        reference = Trajectory(
            times=ideal.times, populations=ideal.populations[0], amplitudes=ideal.amplitudes[0]
        )
        found = phase_estimates(reference, ideal, level=0, reference_label="delta=0MHz")[1:]
        ideal_pops = ideal.populations[1:]
        values = {"p1": ideal_pops[:, -1, 0], "p2": ideal_pops[:, -1, 1]}
        del ideal, reference
        if cfg.noise.enabled:
            with _naming("detune-sweep", points[1:]):
                noisy = evolve_lindblad(drives[1:], rho0, cfg.noise, evo)
            values["p1_noisy"], values["p2_noisy"] = noisy.populations[:, -1].T
            gap = np.abs(noisy.populations - ideal_pops)
            values["discrepancy_noisy"] = np.max(gap, axis=(1, 2))
        return found, values

    estimates = []
    for start in range(0, deltas.shape[0], block):
        rows = slice(start, start + block)
        found, values = block_values(deltas[rows])
        estimates += found
        for name, column in values.items():
            series[name][rows] = column
    return SweepResult(axis_values=deltas, series=series, phase_estimates=tuple(estimates))


# ---------------------------------------------------------------------------
# composite gate scenario


def run_composite_gate_scenario(cfg: ScenarioConfig) -> SweepResult:
    """Three-gate composite versus one single gate over a shared theta sweep.

    Without explicit gate_params the composite splits the rotation into
    three equal legs, each an x pulse of theta/3 chased by an instantaneous
    z kick of the same angle (theta and phi advance together), and the single
    gate spends the whole area in one pulse with one kick at the end.
    Discrepancy per point is the largest gap between the ideal and noisy
    return populations anywhere along the pulse timeline.

    With exactly three gate_params the sequence is fixed: each gate becomes
    pre-kick, pulse, post-kick legs, the axis collapses to one point, and the
    integrated sequence is scored against the one-shot matrix product of the
    three gates (fidelities key sequence_overlap_deficit).
    """
    _require_scenario(cfg, "composite")
    if cfg.gate_params:
        return _fixed_sequence_result(cfg)
    thetas = (cfg.sweep or THETA_SWEEP_DEFAULT).values()
    starts = _composite_starts(cfg)
    wheres = [f"theta={float(theta):g}" for theta in thetas]
    legs = [(where, [(theta / 3.0, 0.0, theta / 3.0)] * 3) for where, theta in zip(wheres, thetas)]
    ideal_comp = _run_segments(legs, starts, cfg, False)
    finals = np.asarray([run.pops[0, -1] for run in ideal_comp])
    disc_comp = disc_single = np.zeros(thetas.shape[0])
    fidelity = np.ones(thetas.shape[0])
    if cfg.noise.enabled:
        single = [(where, [(theta, 0.0, theta)]) for where, theta in zip(wheres, thetas)]
        noisy_comp = _run_segments(legs, starts, cfg, True)
        ideal_single = _run_segments(single, starts[:1], cfg, False)
        noisy_single = _run_segments(single, starts[:1], cfg, True)
        fidelity = np.asarray(
            [_cardinal_fidelity(i.final[1:], n.final[1:]) for i, n in zip(ideal_comp, noisy_comp)]
        )
        disc_comp = np.asarray([_discrepancy(i, n) for i, n in zip(ideal_comp, noisy_comp)])
        disc_single = np.asarray([_discrepancy(i, n) for i, n in zip(ideal_single, noisy_single)])
    series = {
        "p1": finals[:, 0],
        "p2": finals[:, 1],
        "discrepancy_composite": disc_comp,
        "discrepancy_single": disc_single,
        "fidelity_cardinal": fidelity,
    }
    fidelities = {
        "composite_max_discrepancy": float(disc_comp.max()),
        "single_max_discrepancy": float(disc_single.max()),
        "cardinal_fidelity_mean": float(fidelity.mean()),
    }
    return SweepResult(axis_values=thetas, series=series, fidelities=fidelities)


def _gate_legs(params: GateParams):
    return (params.theta, 2.0 * math.atan(params.lam), params.phi)


def _fixed_sequence_result(cfg: ScenarioConfig) -> SweepResult:
    if len(cfg.gate_params) != 3:
        raise ConfigError(
            f"composite sequence needs exactly 3 gates, got {len(cfg.gate_params)}"
        )
    starts = _composite_starts(cfg)
    legs = [_gate_legs(p) for p in cfg.gate_params]
    (ideal,) = _run_segments([("sequence", legs)], starts, cfg, False)
    product = np.eye(2, dtype=np.complex128)
    for p in cfg.gate_params:
        product = single_qubit_unitary(p).entries @ product
    one_shot = product @ starts[0]
    deficit = 1.0 - abs(np.vdot(one_shot, ideal.final[0]))
    pops = np.abs(ideal.final[0]) ** 2
    series = {"p1": np.asarray([pops[0]]), "p2": np.asarray([pops[1]])}
    fidelities = {"sequence_overlap_deficit": float(deficit)}
    if cfg.noise.enabled:
        (noisy,) = _run_segments([("sequence", legs)], starts, cfg, True)
        fidelities["composite_max_discrepancy"] = _discrepancy(ideal, noisy)
        fidelities["cardinal_fidelity_mean"] = _cardinal_fidelity(ideal.final[1:], noisy.final[1:])
    return SweepResult(axis_values=np.asarray([0.0]), series=series, fidelities=fidelities)


def _composite_starts(cfg: ScenarioConfig) -> np.ndarray:
    """The configured start and, with noise on, the six cardinal states."""
    psi0 = _initial_state(cfg.initial_state, 2).amps
    return np.stack([psi0, *CARDINAL_STATES] if cfg.noise.enabled else [psi0])


class _Stitched(NamedTuple):
    """Record populations (runs, records, 2) and final states of a batch."""

    pops: np.ndarray
    final: np.ndarray


def _kick(state: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """z kick of each run by its angle, Rz = diag(e^(-i a/2), e^(i a/2)), on
    rows of amplitudes (runs, 2) or of densities (runs, 2, 2); a zero
    angle's phases are exactly 1."""
    phases = np.exp(np.multiply.outer(angles, [-0.5j, 0.5j]))
    if state.ndim == 2:
        return state * phases
    return state * phases[:, :, None] * phases.conj()[:, None, :]


def _run_segments(points, starts, cfg: ScenarioConfig, noisy: bool, records=None) -> list:
    """Stitch (theta, pre_kick, post_kick) x pulses with instantaneous z kicks
    for every sweep point, points = [(where, segments), ...] with as many
    segments each, and every start (rows); one _Stitched per point. This is
    the pulse path of composite and of the noisy theta sweep.

    Each segment position is one integration over the runs of all points
    whose pulse there has a span, point by point with the starts within, each
    point with its own drive sign, span and step (a ragged batch);
    recommended_dt probes each drive sign once per call. Each pulse records
    every step, or about records of them (_pulse_config). noisy carries the
    density matrices through the master equation with cfg.noise; otherwise
    the amplitudes go through the Schrodinger equation. A failure names the
    scenario (cfg.scenario_id), the sweep point, where, and the start
    (START_NAMES).
    """
    if noisy:
        state = starts[:, :, None] * starts[:, None, :].conj()
        pops0 = np.real(np.diagonal(state, axis1=1, axis2=2))
    else:
        state = starts.copy()
        pops0 = np.abs(state) ** 2
    n_starts = starts.shape[0]
    state = np.concatenate([state] * len(points))
    pops = [[pops0[:, None, :]] for _ in points]
    # (points, segments, 3); one step per pulse, one drive and recommended_dt per sign
    segments = np.array([segments for _, segments in points], dtype=float)
    spans = _gate_time_us(np.abs(segments[..., 0]), cfg.rabi_mhz)
    signs = np.copysign(1.0, segments[..., 0])
    drive = {sign: _drive_matrix(sign * cfg.rabi_mhz, 0.0) for sign in (1.0, -1.0)}
    dts = np.empty(spans.shape)
    for sign, h in drive.items():
        pick = (signs == sign) & (spans > 0.0)
        if pick.any():
            dts[pick] = _pulse_dt(h, spans[pick], cfg)
    for leg in range(segments.shape[1]):
        state = _kick(state, np.repeat(segments[:, leg, 1], n_starts))
        moving = np.flatnonzero(spans[:, leg] > 0.0)
        if moving.size:
            evos = []
            for p in moving:
                where = f"{cfg.scenario_id} {points[p][0]}"
                evos += [_pulse_config(spans[p, leg], dts[p, leg], cfg, where, records)] * n_starts
            drives = np.repeat([drive[sign] for sign in signs[moving, leg]], n_starts, axis=0)
            rows = (n_starts * moving[:, None] + np.arange(n_starts)).ravel()
            names = [f"{points[p][0]} start={name}" for p in moving for name in START_NAMES[:n_starts]]
            with _naming(cfg.scenario_id, names):
                if noisy:
                    trajs = evolve_lindblad(drives, state[rows], cfg.noise, evos)
                    rho = np.concatenate([traj.densities[:, -1] for traj in trajs])
                    state[rows] = 0.5 * (rho + np.swapaxes(rho, 1, 2).conj())
                else:
                    norms = np.linalg.norm(state[rows], axis=1, keepdims=True)
                    trajs = evolve_schrodinger(drives, state[rows] / norms, evos)
                    state[rows] = np.concatenate([traj.amplitudes[:, -1] for traj in trajs])
            # a block holds whole points: runs of equal configs are adjacent
            points_done = iter(moving)
            for traj in trajs:
                for first in range(0, traj.populations.shape[0], n_starts):
                    pops[next(points_done)].append(traj.populations[first : first + n_starts, 1:])
        state = _kick(state, np.repeat(segments[:, leg, 2], n_starts))
    return [
        _Stitched(np.concatenate(parts, axis=1), state[n_starts * p : n_starts * (p + 1)])
        for p, parts in enumerate(pops)
    ]


def _discrepancy(ideal: _Stitched, noisy: _Stitched) -> float:
    """Largest gap in the first run's ground population along the pulses."""
    return float(np.max(np.abs(ideal.pops[0, :, 0] - noisy.pops[0, :, 0])))


def _cardinal_fidelity(ideal: np.ndarray, noisy: np.ndarray) -> float:
    """Mean state_density_fidelity over the cardinal starts: each one's ideal
    final amplitudes (rows of ideal) against its noisy final density."""
    psi = ideal / np.linalg.norm(ideal, axis=1, keepdims=True)
    return float(np.mean(state_density_fidelity(psi, noisy)))


# ---------------------------------------------------------------------------
# two-qubit pi/2 transfer


def run_two_qubit_pi2(cfg: ScenarioConfig) -> Trajectory:
    """Integrate the pulsed four-level register through one Raman window."""
    _require_scenario(cfg, "two-qubit-pi2")
    width = 1.0 / cfg.envelope_mhz
    span = 8.0 * width
    center = 4.0 * width
    amp = cfg.drive_mhz if cfg.drive_mhz is not None else TWO_QUBIT_DRIVE_MHZ
    omega = cfg.splitting_mhz
    spec = LevelSpec(
        dim=4,
        energies_mhz=(0.0, 0.0, omega, -omega),
        detunings_mhz=tuple(_scalar_detuning(d, "two-qubit detuning") for d in cfg.detunings),
    )
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


def _loop_rotations(qubit: int, chi, s_grid) -> np.ndarray:
    """One qubit's loop rotation seen from its preparation frame, V^dag U V,
    over the path fractions, one row per tilt: shape chi.shape + (len(s_grid),
    2, 2).

    U turns by beta(s) about the tilted axis n; the preparation rotation
    V = Rx(prep) carries n to Rx(-prep) n, since V^dag (n.sigma) V is the
    Pauli vector of that rotated axis.
    """
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    chi = np.asarray(chi, dtype=float)[..., None]
    rate = 1.0 / np.cos(chi)
    beta = LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit] * rate * s
    azimuth = (
        DIAMOND_HALF_RAD * _diamond_azimuth(s) if qubit == 2 else np.zeros_like(s)
    )
    nx = np.cos(chi) * np.cos(azimuth)
    ny = np.cos(chi) * np.sin(azimuth)
    nz = np.sin(chi) * np.ones_like(s)
    cp, sp = math.cos(LOOP_PREP_RAD[qubit]), math.sin(LOOP_PREP_RAD[qubit])
    ny, nz = ny * cp + nz * sp, nz * cp - ny * sp
    c, d = np.cos(beta / 2.0), np.sin(beta / 2.0)
    u = np.empty(beta.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = c - 1j * nz * d
    u[..., 0, 1] = (-1j * nx - ny) * d
    u[..., 1, 0] = (-1j * nx + ny) * d
    u[..., 1, 1] = c + 1j * nz * d
    return u


def _dispersive_phase(qubit: int, chi) -> np.ndarray:
    return -math.pi * (np.sin(chi) ** 2 - LOOP_SENSES[qubit] * np.sin(2.0 * chi) / 2.0)


def _echo_offset(qubit: int, chi) -> np.ndarray:
    """Kinematic phase each tilted loop would add on its own; echoed away."""
    ref = _loop_rotations(qubit, 0.0, 1.0)[0, :, 0]
    act = _loop_rotations(qubit, chi, 1.0)[..., 0, :, 0]
    overlap = np.sum(ref.conj() * act, axis=-1)
    return np.where(np.abs(overlap) < 1e-12, 0.0, np.angle(overlap))


def _qubit_propagators(qubit: int, dtilde_mhz, s_grid) -> np.ndarray:
    """Frame-of-preparation propagators V^dag U(s) V over the path, one row
    per differential detuning: shape dtilde.shape + (len(s_grid), 2, 2)."""
    chi = np.arctan2(dtilde_mhz, TILT_SCALE_MHZ)
    phase = _dispersive_phase(qubit, chi) - _echo_offset(qubit, chi)
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    return _loop_rotations(qubit, chi, s) * np.exp(1j * phase[..., None] * s)[..., None, None]


def _common_mode(deltas) -> np.ndarray:
    """Common mode of the held detunings, per triple (last axis of deltas)."""
    deltas = np.asarray(deltas, dtype=float)
    return 0.5 * (deltas[..., 1] + deltas[..., 2])


def _differential(deltas) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    return deltas - _common_mode(deltas)[..., None]


def _qubit_kets(qubit: int, dtilde_mhz, s_grid) -> np.ndarray:
    """The qubit's state over the path from |0>, the first column of its
    propagators: shape dtilde.shape + (len(s_grid), 2)."""
    return _qubit_propagators(qubit, dtilde_mhz, s_grid)[..., 0]


def _kron_kets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two state stacks sample by sample, the first factor
    most significant; leading axes broadcast."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


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
    window so the record grids line up. That grid has as many samples as the
    sweep has points, so the points are evaluated in blocks that hold at most
    LOOP_BLOCK_BYTES of register amplitudes.
    """
    _require_scenario(cfg, "three-qubit-sweep")
    grid = _sweep_values(cfg.detunings[0])
    if grid.shape[0] < 2:
        raise ConfigError("three-qubit sweep needs at least 2 axis points")
    d2 = _scalar_detuning(cfg.detunings[1], "delta2")
    d3 = _scalar_detuning(cfg.detunings[2], "delta3")
    common = 0.5 * (d2 + d3)
    n_time = grid.shape[0]
    s_grid = np.linspace(0.0, 1.0, n_time)
    times = s_grid * (cfg.duration_us or LOOP_DURATION_US)

    # only the first qubit's tilt moves across the sweep
    held = _kron_kets(_qubit_kets(1, d2 - common, s_grid), _qubit_kets(2, d3 - common, s_grid))

    def records(delta1: np.ndarray) -> tuple:
        amps = _kron_kets(_qubit_kets(0, delta1 - common, s_grid), held)
        return np.abs(amps) ** 2, amps

    # the same batched call as the sweep points, so the held-detuning point
    # reproduces the reference bit for bit
    pops, amps = records(np.array([common]))
    reference = Trajectory(times=times, populations=pops[0], amplitudes=amps[0])
    label = f"delta1={common:g}MHz"
    block = max(1, LOOP_BLOCK_BYTES // (n_time * 8 * amps.itemsize))
    p1_final = np.empty(grid.shape[0])
    estimates = []
    for start in range(0, grid.shape[0], block):
        pops, amps = records(grid[start:start + block])
        batch = Trajectory(times=times, populations=pops, amplitudes=amps)
        p1_final[start:start + block] = pops[:, -1, 0]
        estimates.extend(phase_estimates(reference, batch, level=0, reference_label=label))
    series = {
        "p1_final": p1_final,
        "p1_reference": reference.population_series(0),
    }
    return SweepResult(axis_values=grid, series=series, phase_estimates=tuple(estimates))


def run_three_qubit_time_evolution(cfg: ScenarioConfig) -> tuple:
    """Loop trajectories for each requested detuning triple.

    Returns the on-resonant reference first, then one trajectory per triple,
    all evaluated in one batched call on a shared grid of path fractions.
    Detuned loops complete faster, so their time axes are shorter.
    """
    _require_scenario(cfg, "three-qubit-time")
    if not cfg.detuning_sets:
        raise ConfigError("three-qubit time evolution needs at least one detuning triple")
    base = cfg.duration_us or LOOP_DURATION_US
    common = _common_mode(cfg.detuning_sets[0])
    deltas = np.array([(common, common, common), *cfg.detuning_sets], dtype=float)
    s_grid = np.linspace(0.0, 1.0, TIME_EVOLUTION_SAMPLES)
    dtilde = _differential(deltas)
    kets = [_qubit_kets(q, dtilde[:, q], s_grid) for q in range(3)]
    amps = _kron_kets(_kron_kets(kets[0], kets[1]), kets[2])
    return tuple(
        Trajectory(times=s_grid * duration, populations=np.abs(a) ** 2, amplitudes=a)
        for duration, a in zip(_loop_duration_us(deltas, base), amps)
    )


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
    if cfg.hermiticity != HERMITIZED:
        raise ConfigError("dark-state spectrum requires the hermitized mode")
    amps = cfg.drive_amplitudes_mhz or (cfg.rabi_mhz,) * 6
    spec = LevelSpec(
        dim=8,
        energies_mhz=(0.0,) * 8,
        detunings_mhz=tuple(_scalar_detuning(d, "dark-state detuning") for d in cfg.detunings),
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


def _qubit_kraus(dt_us: float, noise: NoiseModel) -> list:
    gamma1, gamma_phi = noise.rates()
    p = 1.0 - math.exp(-gamma1 * dt_us)
    q = 0.5 * (1.0 - math.exp(-2.0 * gamma_phi * dt_us))
    ops = []
    for damp in (
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128),
        np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128),
    ):
        for deph in (
            math.sqrt(1.0 - q) * np.eye(2, dtype=np.complex128),
            math.sqrt(q) * np.diag([1.0, -1.0]).astype(np.complex128),
        ):
            op = deph @ damp
            if np.abs(op).max() > 0.0:
                ops.append(op)
    return ops


def _qubit_loop_fidelity(frames: np.ndarray, kraus: np.ndarray) -> float:
    """<ideal|rho|ideal> of one qubit after the sliced noisy loop.

    rho travels as its row-major vector, on which rho -> A rho B^dag is the
    4x4 matrix A (x) B*. A slice, the step unitary U and then the channel
    with Kraus operators M_m, is K (U (x) U*) with K = sum_m M_m (x) M_m*,
    and the loop is the ordered product of its slices.
    """
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    steps = frames[1:] @ frames[:-1].conj().transpose(0, 2, 1)
    channel = np.einsum("mij,mab->iajb", kraus, kraus.conj()).reshape(4, 4)
    slices = channel @ np.einsum("kij,kab->kiajb", steps, steps.conj()).reshape(-1, 4, 4)
    psi0 = frames[0] @ ket0
    rho = ordered_product(slices) @ np.outer(psi0, psi0.conj()).reshape(4)
    ideal = frames[-1] @ ket0
    return float(np.real(np.vdot(ideal, rho.reshape(2, 2) @ ideal)))


def _loop_fidelity(deltas, base_us: float, noise: NoiseModel, n_slices: int) -> float:
    """Register fidelity as the product of the three qubits' fidelities.

    Each slice applies per-qubit unitaries and per-qubit channels to a
    product state, so the register state stays a product and its overlap
    with the (product) ideal state factorises qubit by qubit.
    """
    dtilde = _differential(deltas)
    s_grid = np.linspace(0.0, 1.0, n_slices + 1)
    ops = np.array(_qubit_kraus(_loop_duration_us(deltas, base_us) / n_slices, noise))
    fidelity = 1.0
    for q in range(3):
        frames = _qubit_propagators(q, dtilde[q], s_grid)
        # channels act in the frame of the preparation rotation
        v = _rx(LOOP_PREP_RAD[q])
        fidelity *= _qubit_loop_fidelity(frames, v.conj().T @ ops @ v)
    return fidelity


def compare_resonant_fidelity(cfg: ScenarioConfig) -> tuple:
    """Final-state fidelity of the noisy register loop, off- and on-resonant.

    The on-resonant configuration holds every detuning at the common mode and
    runs the full base duration; the off-resonant one offsets the qubits by
    the calibrated split (+d, +d, -d), which tilts the loops and finishes in
    a shorter wall-clock window. Returns (off_resonant, on_resonant).
    """
    _require_scenario(cfg, "fidelity-compare")
    if not cfg.noise.enabled:
        raise ConfigError("fidelity comparison needs an enabled noise model")
    d2 = _scalar_detuning(cfg.detunings[1], "delta2")
    d3 = _scalar_detuning(cfg.detunings[2], "delta3")
    common = 0.5 * (d2 + d3)
    base = cfg.duration_us or LOOP_DURATION_US
    offset = OFF_RESONANT_OFFSET_MHZ
    on = (common, common, common)
    off = (common + offset, common + offset, common - offset)
    return (
        _loop_fidelity(off, base, cfg.noise, FIDELITY_SLICES),
        _loop_fidelity(on, base, cfg.noise, FIDELITY_SLICES),
    )
