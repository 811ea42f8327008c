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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    StateVector,
    eig_hermitian,
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
from nvholo.gates import GateParams, PhaseEstimate, phase_from_discrepancy, single_qubit_unitary
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
LOOP_SWEEP_DEFAULT = SweepSpec(0.0, 600.0, 15.0)
LOOP_HELD_DETUNING_MHZ = 450.0


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


def _rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


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


def _pulse_dt(h: np.ndarray, span: float, cfg: ScenarioConfig) -> float:
    """Step for the constant drive h over span: the configured dt, else
    recommended_dt, capped so the pulse takes at least MIN_SEGMENT_STEPS."""
    return cfg.dt_us or min(recommended_dt(h, 0.0, span), span / MIN_SEGMENT_STEPS)


# ---------------------------------------------------------------------------
# single-qubit sweeps


def run_single_qubit_theta_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Rotation-angle sweep of one x-axis gate applied to the prepared state."""
    _require_scenario(cfg, "theta-sweep")
    thetas = (cfg.sweep or THETA_SWEEP_DEFAULT).values()
    psi0 = _initial_state(cfg.initial_state, 2).amps

    finals = np.empty((thetas.shape[0], 2))
    for i, theta in enumerate(thetas):
        gate = single_qubit_unitary(GateParams(theta=float(theta), phi=0.0, lam=0.0))
        finals[i] = np.abs(gate.entries @ psi0) ** 2
    series = {"p1": finals[:, 0], "p2": finals[:, 1]}

    if cfg.noise.enabled:
        def noisy_point(theta: float) -> np.ndarray:
            if theta <= 0.0:
                return np.abs(psi0) ** 2
            traj = _pulsed_lindblad_gate(theta, psi0, cfg)
            return traj.populations[-1]

        noisy = np.asarray([noisy_point(theta) for theta in thetas])
        series["p1_noisy"] = noisy[:, 0]
        series["p2_noisy"] = noisy[:, 1]

    return SweepResult(axis_values=thetas, series=series)


def _pulsed_lindblad_gate(theta: float, psi0: np.ndarray, cfg: ScenarioConfig) -> Trajectory:
    h = _drive_matrix(cfg.rabi_mhz, 0.0)
    span = _gate_time_us(theta, cfg.rabi_mhz)
    dt = _pulse_dt(h, span, cfg)
    evo = EvolutionConfig(0.0, span, dt, record_stride=max(1, int(span / dt) // 64))
    rho0 = DensityMatrix.from_state(StateVector.normalized(psi0))
    return evolve_lindblad(h, rho0, cfg.noise, evo)


def run_single_qubit_detuning_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Fixed quarter rotation scanned across drive detuning.

    Each detuned run is compared against the resonant reference with the
    population-discrepancy phase probe; with noise on, the same drive is also
    integrated through the master equation and scored against the ideal run.
    """
    _require_scenario(cfg, "detune-sweep")
    deltas = (cfg.sweep or DETUNE_SWEEP_DEFAULT).values()
    psi0 = _initial_state(cfg.initial_state, 2).amps
    span = _gate_time_us(math.pi / 2.0, cfg.rabi_mhz)

    # one shared step size so every trajectory lands on the same record grid:
    # the step of the drive at the largest |delta|, the fastest one
    widest = _drive_matrix(cfg.rabi_mhz, float(deltas[np.argmax(np.abs(deltas))]))
    evo = EvolutionConfig(0.0, span, _pulse_dt(widest, span, cfg), renormalize=cfg.renormalize)
    state0 = StateVector.normalized(psi0)
    reference = evolve_schrodinger(_drive_matrix(cfg.rabi_mhz, 0.0), state0, evo)

    def sweep_point(delta: float):
        h = _drive_matrix(cfg.rabi_mhz, float(delta))
        traj = evolve_schrodinger(h, state0, evo)
        estimate = phase_from_discrepancy(
            reference, traj, level=0, reference_label="delta=0MHz"
        )
        row = [traj.populations[-1], estimate]
        if cfg.noise.enabled:
            noisy = evolve_lindblad(
                h, DensityMatrix.from_state(state0), cfg.noise, evo
            )
            row.append(noisy.populations[-1])
            row.append(float(np.max(np.abs(noisy.populations - traj.populations))))
        return row

    rows = [sweep_point(delta) for delta in deltas]
    finals = np.asarray([r[0] for r in rows])
    series = {"p1": finals[:, 0], "p2": finals[:, 1]}
    estimates = tuple(r[1] for r in rows)
    if cfg.noise.enabled:
        noisy_finals = np.asarray([r[2] for r in rows])
        series["p1_noisy"] = noisy_finals[:, 0]
        series["p2_noisy"] = noisy_finals[:, 1]
        series["discrepancy_noisy"] = np.asarray([r[3] for r in rows])
    return SweepResult(axis_values=deltas, series=series, phase_estimates=estimates)


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
    psi0 = _initial_state(cfg.initial_state, 2).amps

    def sweep_point(theta: float):
        theta = float(theta)
        legs = [(theta / 3.0, 0.0, theta / 3.0)] * 3
        single = [(theta, 0.0, theta)]
        ideal_comp = _run_segments(legs, psi0, cfg, noisy=False)
        p1_final = ideal_comp.pops[-1]
        if not cfg.noise.enabled:
            return p1_final, 0.0, 0.0, 1.0
        ideal_single = _run_segments(single, psi0, cfg, noisy=False)
        noisy_comp = _run_segments(legs, psi0, cfg, noisy=True)
        noisy_single = _run_segments(single, psi0, cfg, noisy=True)
        disc_comp = float(np.max(np.abs(ideal_comp.pops[:, 0] - noisy_comp.pops[:, 0])))
        disc_single = float(
            np.max(np.abs(ideal_single.pops[:, 0] - noisy_single.pops[:, 0]))
        )
        fid = _cardinal_fidelity(legs, cfg)
        return p1_final, disc_comp, disc_single, fid

    rows = [sweep_point(theta) for theta in thetas]
    finals = np.asarray([r[0] for r in rows])
    disc_comp = np.asarray([r[1] for r in rows])
    disc_single = np.asarray([r[2] for r in rows])
    fidelity = np.asarray([r[3] for r in rows])
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
    psi0 = _initial_state(cfg.initial_state, 2).amps
    legs = [_gate_legs(p) for p in cfg.gate_params]
    ideal = _run_segments(legs, psi0, cfg, noisy=False)
    product = np.eye(2, dtype=np.complex128)
    for p in cfg.gate_params:
        product = single_qubit_unitary(p).entries @ product
    one_shot = product @ psi0
    deficit = 1.0 - abs(np.vdot(one_shot, ideal.final))
    pops = np.abs(ideal.final) ** 2
    series = {"p1": np.asarray([pops[0]]), "p2": np.asarray([pops[1]])}
    fidelities = {"sequence_overlap_deficit": float(deficit)}
    if cfg.noise.enabled:
        noisy = _run_segments(legs, psi0, cfg, noisy=True)
        disc = float(np.max(np.abs(ideal.pops[:, 0] - noisy.pops[:, 0])))
        fidelities["composite_max_discrepancy"] = disc
        fidelities["cardinal_fidelity_mean"] = _cardinal_fidelity(legs, cfg)
    return SweepResult(axis_values=np.asarray([0.0]), series=series, fidelities=fidelities)


class _Stitched:
    """Record grid and final carried state of a piecewise run."""

    __slots__ = ("times", "pops", "final")

    def __init__(self, times, pops, final):
        self.times = times
        self.pops = pops
        self.final = final


def _kick(state: np.ndarray, angle: float) -> np.ndarray:
    rz = _rz(angle)
    if state.ndim == 1:
        return rz @ state
    return rz @ state @ rz.conj().T


def _run_segments(segments, psi0: np.ndarray, cfg: ScenarioConfig, noisy: bool) -> _Stitched:
    """Stitch (theta, pre_kick, post_kick) x pulses with instantaneous z kicks.

    noisy carries the density matrix through the master equation with
    cfg.noise; otherwise the amplitudes go through the Schrodinger equation.
    """
    if noisy:
        state = np.outer(psi0, psi0.conj())
        pops0 = np.real(np.diag(state))
    else:
        state = psi0.copy()
        pops0 = np.abs(state) ** 2
    times = [np.asarray([0.0])]
    pops = [pops0[None, :]]
    offset = 0.0
    for theta, pre_kick, post_kick in segments:
        state = _kick(state, pre_kick)
        span = _gate_time_us(abs(theta), cfg.rabi_mhz)
        if span > 0.0:
            h = _drive_matrix(math.copysign(cfg.rabi_mhz, theta), 0.0)
            evo = EvolutionConfig(0.0, span, _pulse_dt(h, span, cfg), renormalize=cfg.renormalize)
            if noisy:
                traj = evolve_lindblad(h, DensityMatrix(state), cfg.noise, evo)
                rho = np.asarray(traj.densities[-1])
                state = 0.5 * (rho + rho.conj().T)
            else:
                traj = evolve_schrodinger(h, StateVector.normalized(state), evo)
                state = traj.amplitudes[-1]
            times.append(offset + traj.times[1:])
            pops.append(traj.populations[1:])
            offset += traj.times[-1]
        state = _kick(state, post_kick)
    return _Stitched(np.concatenate(times), np.concatenate(pops), state)


def _cardinal_fidelity(segments, cfg: ScenarioConfig) -> float:
    total = 0.0
    for state in CARDINAL_STATES:
        ideal = _run_segments(segments, state, cfg, noisy=False).final
        noisy = _run_segments(segments, state, cfg, noisy=True).final
        total += state_density_fidelity(
            StateVector.normalized(ideal), DensityMatrix(noisy)
        )
    return total / len(CARDINAL_STATES)


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
    dt = cfg.dt_us or TWO_QUBIT_DT_SCALE * recommended_dt(h, 0.0, span)
    n_steps = max(1, int(round(span / dt)))
    evo = EvolutionConfig(
        0.0,
        span,
        dt,
        record_stride=max(1, n_steps // TWO_QUBIT_RECORDS),
        renormalize=cfg.renormalize,
    )
    return evolve_schrodinger(h, psi0, evo)


# ---------------------------------------------------------------------------
# closed-loop register model (three qubits, analytic)


def _diamond_azimuth(s: np.ndarray) -> np.ndarray:
    # tent through 0, +1, 0, -1, 0 at s = 0, 1/4, 1/2, 3/4, 1
    return np.where(s <= 0.5, 1.0 - np.abs(4.0 * s - 1.0), np.abs(4.0 * s - 3.0) - 1.0)


def _loop_rotations(qubit: int, chi: float, s_grid: np.ndarray) -> np.ndarray:
    """Axis-rotation factor of one qubit's loop, stacked over path fractions."""
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    rate = 1.0 / math.cos(chi)
    beta = LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit] * rate * s
    azimuth = (
        DIAMOND_HALF_RAD * _diamond_azimuth(s) if qubit == 2 else np.zeros_like(s)
    )
    nx = math.cos(chi) * np.cos(azimuth)
    ny = math.cos(chi) * np.sin(azimuth)
    nz = math.sin(chi) * np.ones_like(s)
    c, d = np.cos(beta / 2.0), np.sin(beta / 2.0)
    u = np.empty(s.shape + (2, 2), dtype=np.complex128)
    u[:, 0, 0] = c - 1j * nz * d
    u[:, 0, 1] = (-1j * nx - ny) * d
    u[:, 1, 0] = (-1j * nx + ny) * d
    u[:, 1, 1] = c + 1j * nz * d
    return u


def _dispersive_phase(qubit: int, chi: float) -> float:
    return -math.pi * (
        math.sin(chi) ** 2 - LOOP_SENSES[qubit] * math.sin(2.0 * chi) / 2.0
    )


def _echo_offset(qubit: int, chi: float) -> float:
    """Kinematic phase the tilted loop would add on its own; echoed away."""
    v = _rx(LOOP_PREP_RAD[qubit])
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    ref = v.conj().T @ _loop_rotations(qubit, 0.0, 1.0)[0] @ v @ ket0
    act = v.conj().T @ _loop_rotations(qubit, chi, 1.0)[0] @ v @ ket0
    overlap = np.vdot(ref, act)
    if abs(overlap) < 1e-12:
        return 0.0
    return float(np.angle(overlap))


def _qubit_propagators(qubit: int, dtilde_mhz: float, s_grid: np.ndarray) -> np.ndarray:
    """Frame-of-preparation propagators V^dag U(s) V over the path."""
    chi = math.atan2(dtilde_mhz, TILT_SCALE_MHZ)
    u = _loop_rotations(qubit, chi, s_grid)
    v = _rx(LOOP_PREP_RAD[qubit])
    mats = np.einsum("ij,njk,kl->nil", v.conj().T, u, v)
    phase = _dispersive_phase(qubit, chi) - _echo_offset(qubit, chi)
    return mats * np.exp(1j * phase * np.atleast_1d(s_grid))[:, None, None]


def _common_mode(deltas) -> float:
    return 0.5 * (float(deltas[1]) + float(deltas[2]))


def _register_amplitudes(deltas, s_grid: np.ndarray) -> np.ndarray:
    common = _common_mode(deltas)
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    parts = [
        _qubit_propagators(q, float(deltas[q]) - common, s_grid) @ ket0
        for q in range(3)
    ]
    return np.einsum("si,sj,sk->sijk", parts[0], parts[1], parts[2]).reshape(
        len(np.atleast_1d(s_grid)), 8
    )


def _loop_duration_us(deltas, base_us: float) -> float:
    common = _common_mode(deltas)
    rate = max(
        1.0 / math.cos(math.atan2(float(deltas[q]) - common, TILT_SCALE_MHZ))
        for q in range(3)
    )
    return base_us / rate


def _loop_trajectory(deltas, n_time: int, duration_us: float) -> Trajectory:
    s_grid = np.linspace(0.0, 1.0, n_time)
    amps = _register_amplitudes(deltas, s_grid)
    return Trajectory(
        times=s_grid * duration_us,
        populations=np.abs(amps) ** 2,
        amplitudes=amps,
    )


def run_three_qubit_detuning_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the first qubit's detuning across the register loop.

    The held detunings define the common mode; their slice of the sweep is
    the on-resonant reference, and every other point is scored against it by
    the population-discrepancy phase probe. All points share one wall-clock
    window so the record grids line up.
    """
    _require_scenario(cfg, "three-qubit-sweep")
    grid = _sweep_values(cfg.detunings[0])
    if grid.shape[0] < 2:
        raise ConfigError("three-qubit sweep needs at least 2 axis points")
    d2 = _scalar_detuning(cfg.detunings[1], "delta2")
    d3 = _scalar_detuning(cfg.detunings[2], "delta3")
    common = 0.5 * (d2 + d3)
    duration = cfg.duration_us or LOOP_DURATION_US
    n_time = grid.shape[0]
    reference = _loop_trajectory((common, d2, d3), n_time, duration)
    label = f"delta1={common:g}MHz"

    def sweep_point(delta1: float):
        traj = _loop_trajectory((float(delta1), d2, d3), n_time, duration)
        estimate = phase_from_discrepancy(reference, traj, level=0, reference_label=label)
        return float(traj.populations[-1, 0]), estimate

    rows = [sweep_point(delta1) for delta1 in grid]
    series = {
        "p1_final": np.asarray([r[0] for r in rows]),
        "p1_reference": reference.population_series(0),
    }
    return SweepResult(
        axis_values=grid,
        series=series,
        phase_estimates=tuple(r[1] for r in rows),
    )


def run_three_qubit_time_evolution(cfg: ScenarioConfig) -> tuple:
    """Loop trajectories for each requested detuning triple.

    Returns the on-resonant reference first, then one trajectory per triple.
    Detuned loops complete faster, so their time axes are shorter.
    """
    _require_scenario(cfg, "three-qubit-time")
    if not cfg.detuning_sets:
        raise ConfigError("three-qubit time evolution needs at least one detuning triple")
    base = cfg.duration_us or LOOP_DURATION_US
    common = _common_mode(cfg.detuning_sets[0])
    ref_deltas = (common, common, common)
    out = [_loop_trajectory(ref_deltas, TIME_EVOLUTION_SAMPLES, base)]
    for triple in cfg.detuning_sets:
        deltas = tuple(float(d) for d in triple)
        out.append(
            _loop_trajectory(deltas, TIME_EVOLUTION_SAMPLES, _loop_duration_us(deltas, base))
        )
    return tuple(out)


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
    dt = cfg.dt_us or recommended_dt(h, 0.0, span)
    psi0 = _initial_state(cfg.initial_state, 8)
    evo = EvolutionConfig(0.0, span, dt, renormalize=False)
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
    dt = cfg.dt_us or recommended_dt(matrix.entries, 0.0, span)
    n_steps = max(1, int(round(span / dt)))
    evo = EvolutionConfig(0.0, span, dt, record_stride=max(1, n_steps // 128))
    leakages = []
    for i in dark_indices:
        vec = eigenvectors[:, i]
        traj = evolve_schrodinger(matrix.entries, StateVector.normalized(vec), evo)
        stay = np.abs(traj.amplitudes @ vec.conj()) ** 2
        leakages.append(float(np.max(1.0 - stay)))
    return DarkSpectrum(
        eigenvalues_mhz=eigenvalues / (2.0 * math.pi),
        eigenvectors=eigenvectors,
        dark_indices=dark_indices,
        leakages=tuple(leakages),
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


def _qubit_loop_fidelity(frames: np.ndarray, kraus: list) -> float:
    """<ideal|rho|ideal> of one qubit after the sliced noisy loop."""
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    psi0 = frames[0] @ ket0
    rho = np.outer(psi0, psi0.conj())
    steps = frames[1:] @ frames[:-1].conj().transpose(0, 2, 1)
    for u in steps:
        rho = u @ rho @ u.conj().T
        rho = sum(m @ rho @ m.conj().T for m in kraus)
    ideal = frames[-1] @ ket0
    return float(np.real(np.vdot(ideal, rho @ ideal)))


def _loop_fidelity(deltas, base_us: float, noise: NoiseModel, n_slices: int) -> float:
    """Register fidelity as the product of the three qubits' fidelities.

    Each slice applies per-qubit unitaries and per-qubit channels to a
    product state, so the register state stays a product and its overlap
    with the (product) ideal state factorises qubit by qubit.
    """
    common = _common_mode(deltas)
    s_grid = np.linspace(0.0, 1.0, n_slices + 1)
    ops = _qubit_kraus(_loop_duration_us(deltas, base_us) / n_slices, noise)
    fidelity = 1.0
    for q in range(3):
        frames = _qubit_propagators(q, float(deltas[q]) - common, s_grid)
        # channels act in the frame of the preparation rotation
        v = _rx(LOOP_PREP_RAD[q])
        kraus = [v.conj().T @ op @ v for op in ops]
        fidelity *= _qubit_loop_fidelity(frames, kraus)
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


def resolved_dt_us(cfg: ScenarioConfig) -> float | None:
    """Step size the scenario will integrate with, when one applies."""
    if cfg.dt_us is not None:
        return cfg.dt_us
    if cfg.scenario_id in ("theta-sweep", "composite"):
        return 1.0 / (200.0 * math.pi * cfg.rabi_mhz)
    if cfg.scenario_id == "detune-sweep":
        sweep = cfg.sweep or DETUNE_SWEEP_DEFAULT
        f_max = max(cfg.rabi_mhz / 2.0, abs(sweep.start), abs(sweep.stop))
        span = _gate_time_us(math.pi / 2.0, cfg.rabi_mhz)
        return min(1.0 / (200.0 * 2.0 * math.pi * f_max), span / MIN_SEGMENT_STEPS)
    if cfg.scenario_id == "two-qubit-pi2":
        width = 1.0 / cfg.envelope_mhz
        amp = cfg.drive_mhz if cfg.drive_mhz is not None else TWO_QUBIT_DRIVE_MHZ
        spec = LevelSpec(4, (0.0, 0.0, cfg.splitting_mhz, -cfg.splitting_mhz))
        tone = PulseChannel(
            rabi_mhz=amp, envelope="gaussian", t_center_us=4.0 * width, t_width_us=width
        )
        pulses = PulseSet(pump=(tone, silent_channel()), stokes=(tone, silent_channel()))
        return TWO_QUBIT_DT_SCALE * recommended_dt(
            PulsedHamiltonian(spec, pulses), 0.0, 8.0 * width
        )
    if cfg.scenario_id == "pi3":
        return 1.0 / (200.0 * 2.0 * math.pi * cfg.rabi_mhz / 2.0)
    return None
