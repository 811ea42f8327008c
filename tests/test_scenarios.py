"""Scenario runner checks.

Closed-form oracles: a resonant x pulse of area theta leaves the ground
population at cos^2(theta/2); a detuned drive follows the generalized
flopping formula P2 = Omega^2/(Omega^2+Delta^2) * sin^2(pi*sqrt(...) * t).
Register-loop expectations are pinned to the analytic loop model: the phase
magnitude saturates at pi where the loop tilt passes a quarter turn, and a
detuning triple (x, d, d) leaves only the first qubit tilted.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nvholo import evolve as evolve_module
from nvholo import scenarios
from nvholo.cli import DEFAULT_CONFIGS, run_cli
from nvholo.config import parse_config, parse_manifest, render_config
from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    StateVector,
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
from nvholo.gates import GateParams, phase_from_discrepancy
from nvholo.hamiltonians import LevelSpec, PulsedHamiltonian, build_interaction_8
from nvholo.scenarios import (
    DIAMOND_HALF_RAD,
    FIDELITY_SLICES,
    LOOP_AREAS_RAD,
    LOOP_DURATION_US,
    LOOP_PREP_RAD,
    LOOP_SENSES,
    MAX_SWEEP_POINTS,
    OFF_RESONANT_OFFSET_MHZ,
    TILT_SCALE_MHZ,
    TIME_EVOLUTION_SAMPLES,
    ScenarioConfig,
    SweepResult,
    SweepSpec,
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
from nvholo.scenarios import (
    CARDINAL_STATES,
    _common_mode,
    _diamond_azimuth,
    _drive_matrix,
    _initial_state,
    _loop_duration_us,
    _loop_fidelity,
    _qubit_kraus,
    _pulse_dt,
    _rx,
)

NOISE = NoiseModel(t1_us=100.0, t2_us=50.0, enabled=True)


def with_threads_key(cfg, threads):
    """Round-trip cfg through config text that carries a threads key."""
    text = render_config(cfg).replace(
        f"id = {cfg.scenario_id}\n", f"id = {cfg.scenario_id}\nthreads = {threads}\n", 1
    )
    assert f"threads = {threads}" in text
    return parse_config(text)


def loop_sweep_config(**kw):
    base = dict(
        scenario_id="three-qubit-sweep",
        detunings=(SweepSpec(0.0, 600.0, 15.0), 450.0, 450.0),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# --- sweep spec -----------------------------------------------------------


def test_sweep_spec_values_inclusive():
    values = SweepSpec(0.0, 600.0, 15.0).values()
    assert values.shape == (41,)
    assert values[0] == 0.0
    assert values[-1] == 600.0
    assert values[20] == 300.0


def test_sweep_spec_rejects_bad_steps():
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, -0.5)
    with pytest.raises(ConfigError):
        SweepSpec(1.0, 0.0, 0.5)


def test_sweep_spec_rejects_oversized_axis():
    assert SweepSpec(0.0, MAX_SWEEP_POINTS - 1.0, 1.0).values().shape == (MAX_SWEEP_POINTS,)
    with pytest.raises(ConfigError, match="more than"):
        SweepSpec(0.0, float(MAX_SWEEP_POINTS), 1.0)
    # the span itself overflows to inf
    with pytest.raises(ConfigError, match="more than"):
        SweepSpec(-1e308, 1e308, 1.0)


def test_sweep_spec_single_point():
    values = SweepSpec(2.5, 2.5, 1.0).values()
    assert values.shape == (1,)
    assert values[0] == 2.5


# --- config validation ----------------------------------------------------


def test_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="nope")


def test_config_rejects_bad_initial_state():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", initial_state=("mystery", 1))
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", initial_state=("level", -2))


def test_two_level_runners_bound_the_initial_level():
    with pytest.raises(ConfigError, match="initial level must be below 2"):
        ScenarioConfig(scenario_id="theta-sweep", initial_state=("level", 2))


def test_config_rejects_bad_detunings():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", detunings=(0.0, 0.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", detunings=(0.0, math.nan, 0.0))


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", rabi_mhz=0.0)
    # else the run dies of an AttributeError on the sweep's values()
    for sweep in (1.0, (0.0, 1.0, 0.5)):
        with pytest.raises(ConfigError, match="sweep must be a SweepSpec or None"):
            ScenarioConfig(scenario_id="theta-sweep", sweep=sweep)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", dt_us=-1e-4)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", drive_amplitudes_mhz=(1.0, 2.0))


def test_runner_rejects_mismatched_scenario_id():
    with pytest.raises(ConfigError):
        run_pi3_rotation(ScenarioConfig(scenario_id="theta-sweep"))


# --- sweep result invariants ----------------------------------------------


def test_sweep_result_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        SweepResult(axis_values=[0.0, 1.0], series={"p1": [0.5]})
    with pytest.raises(ConfigError, match="phase magnitude has 1 values for 2 axis points"):
        SweepResult(axis_values=[0.0, 1.0], series={}, phases=([0.5], [0.0, 0.0], [False, False]))
    with pytest.raises(ConfigError, match="phase discrepancy has 3 values for 2 axis points"):
        SweepResult(axis_values=[0.0, 1.0], series={}, phases=([0.5, 0.5], [0.0] * 3, [False, False]))
    with pytest.raises(ConfigError, match="undefined flags"):
        SweepResult(axis_values=[0.0, 1.0], series={}, phases=([0.5, 0.5], [0.0, 0.0], [False]))


def test_sweep_result_rejects_out_of_range_series():
    with pytest.raises(ConfigError):
        SweepResult(axis_values=[0.0], series={"p1": [1.5]})
    with pytest.raises(ConfigError):
        SweepResult(axis_values=[0.0], series={"p1": [-0.2]})
    # phase magnitudes lie in [-pi, pi], discrepancies in [0, 1]
    for phases, column in [
        (([4.0], [0.1], [False]), "magnitude"),
        (([-4.0], [0.1], [False]), "magnitude"),
        (([0.0], [-0.1], [False]), "discrepancy"),
        (([0.0], [1.5], [False]), "discrepancy"),
    ]:
        with pytest.raises(ConfigError, match=f"phase {column} leaves"):
            SweepResult(axis_values=[0.0], series={}, phases=phases)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_result_rejects_non_finite_series(bad):
    with pytest.raises(NumericalError):
        SweepResult(axis_values=[0.0, 1.0], series={"p1": [0.5, bad]})
    with pytest.raises(NumericalError, match="phase magnitude holds a non-finite value"):
        SweepResult(axis_values=[0.0, 1.0], series={}, phases=([0.5, bad], [0.0, 0.0], [False, False]))
    with pytest.raises(NumericalError, match="phase discrepancy holds a non-finite value"):
        SweepResult(axis_values=[0.0, 1.0], series={}, phases=([0.5, 0.5], [bad, 0.0], [False, False]))


def test_sweep_result_series_are_read_only():
    result = SweepResult(axis_values=[0.0, 1.0], series={"p1": [0.25, 0.75]})
    with pytest.raises(ValueError):
        result.series["p1"][0] = 0.0
    with pytest.raises(ValueError):
        result.axis_values[0] = 9.0
    # the phase bounds are closed, and the phase columns read-only too
    result = SweepResult(axis_values=[0.0, 1.0], series={}, phases=([-math.pi, math.pi], [0.0, 1.0], [True, False]))
    assert result.phases[2].dtype == bool
    for column in result.phases:
        with pytest.raises(ValueError):
            column[0] = 0


# --- theta sweep ----------------------------------------------------------


def test_theta_sweep_matches_rabi_formula():
    result = run_single_qubit_theta_sweep(ScenarioConfig(scenario_id="theta-sweep"))
    thetas = result.axis_values
    assert thetas[0] == 0.0
    assert np.isclose(thetas[-1], 2.0 * math.pi)
    expected_p1 = np.cos(thetas / 2.0) ** 2
    assert np.allclose(result.series["p1"], expected_p1, atol=1e-12)
    assert np.allclose(
        result.series["p1"] + result.series["p2"], 1.0, atol=1e-12
    )


def test_theta_sweep_rotation_prep():
    cfg = ScenarioConfig(
        scenario_id="theta-sweep",
        initial_state=("rotation", math.pi / 2.0),
        sweep=SweepSpec(0.0, math.pi, math.pi / 2.0),
    )
    result = run_single_qubit_theta_sweep(cfg)
    # prep and gate share the x axis, so the angles add
    expected_p1 = np.cos((result.axis_values + math.pi / 2.0) / 2.0) ** 2
    assert np.allclose(result.series["p1"], expected_p1, atol=1e-12)


def test_theta_sweep_noisy_series_decay():
    cfg = ScenarioConfig(
        scenario_id="theta-sweep",
        sweep=SweepSpec(0.0, 2.0 * math.pi, math.pi / 4.0),
        noise=NOISE,
    )
    result = run_single_qubit_theta_sweep(cfg)
    assert "p1_noisy" in result.series
    ideal_p2 = result.series["p2"]
    noisy_p2 = result.series["p2_noisy"]
    # theta = pi: full inversion degraded by decay, but only slightly
    idx = 4
    assert ideal_p2[idx] == pytest.approx(1.0, abs=1e-9)
    assert 0.995 < noisy_p2[idx] < 1.0
    # theta = 0 means no pulse at all
    assert noisy_p2[0] == 0.0


# --- detuning sweep -------------------------------------------------------


def test_detuning_sweep_matches_generalized_flopping():
    cfg = ScenarioConfig(scenario_id="detune-sweep")
    result = run_single_qubit_detuning_sweep(cfg)
    deltas = result.axis_values
    omega = 15.0
    span = 1.0 / (4.0 * omega)
    general = np.sqrt(omega**2 + deltas**2)
    expected_p2 = (omega**2 / general**2) * np.sin(math.pi * general * span) ** 2
    assert np.allclose(result.series["p2"], expected_p2, atol=1e-7)


def test_detuning_sweep_reference_scores_itself_zero():
    result = run_single_qubit_detuning_sweep(ScenarioConfig(scenario_id="detune-sweep"))
    idx = int(np.argmin(np.abs(result.axis_values)))
    assert result.axis_values[idx] == 0.0
    magnitude, discrepancy, _ = result.phases
    assert discrepancy[idx] == 0.0
    assert magnitude[idx] == pytest.approx(0.0, abs=1e-12)


def test_detuning_sweep_noisy_discrepancy_peaks_on_resonance():
    cfg = ScenarioConfig(scenario_id="detune-sweep", noise=NOISE)
    result = run_single_qubit_detuning_sweep(cfg)
    disc = result.series["discrepancy_noisy"]
    idx = int(np.argmax(disc))
    assert result.axis_values[idx] == 0.0
    assert disc[idx] > 0.0


def test_detuning_sweep_threads_do_not_change_values():
    cfg = ScenarioConfig(scenario_id="detune-sweep")
    base = run_single_qubit_detuning_sweep(cfg)
    threaded = run_single_qubit_detuning_sweep(with_threads_key(cfg, 4))
    assert np.array_equal(base.series["p1"], threaded.series["p1"])
    assert np.array_equal(base.phases[0], threaded.phases[0])


# --- composite ------------------------------------------------------------


def test_composite_discrepancy_below_single():
    cfg = ScenarioConfig(scenario_id="composite", noise=NOISE)
    result = run_composite_gate_scenario(cfg)
    comp = result.fidelities["composite_max_discrepancy"]
    single = result.fidelities["single_max_discrepancy"]
    assert comp < single
    # calibrated margins for the default sweep and noise model
    assert single == pytest.approx(5.0e-4, rel=0.05)
    assert comp == pytest.approx(3.1e-4, rel=0.05)
    assert result.fidelities["cardinal_fidelity_mean"] > 0.999


def test_composite_noiseless_sweep_is_clean():
    cfg = ScenarioConfig(
        scenario_id="composite", sweep=SweepSpec(0.0, math.pi, math.pi / 4.0)
    )
    result = run_composite_gate_scenario(cfg)
    assert result.fidelities["composite_max_discrepancy"] == 0.0

    def leg_product_p1(theta):
        half_x = theta / 6.0
        rx = np.array(
            [
                [math.cos(half_x), -1j * math.sin(half_x)],
                [-1j * math.sin(half_x), math.cos(half_x)],
            ]
        )
        rz = np.diag([np.exp(-1j * theta / 6.0), np.exp(1j * theta / 6.0)])
        leg = rz @ rx
        return abs((leg @ leg @ leg)[0, 0]) ** 2

    expected_p1 = [leg_product_p1(t) for t in result.axis_values]
    assert np.allclose(result.series["p1"], expected_p1, atol=1e-9)


def test_composite_sequence_cancellation():
    gate = GateParams(theta=0.7, phi=0.4, lam=0.3)
    inverse = GateParams(
        theta=-0.7, phi=-2.0 * math.atan(0.3), lam=math.tan(-0.2)
    )
    cfg = ScenarioConfig(
        scenario_id="composite", gate_params=(gate, inverse, gate)
    )
    result = run_composite_gate_scenario(cfg)
    assert abs(result.fidelities["sequence_overlap_deficit"]) < 1e-10


def test_composite_identity_sequence_keeps_population():
    identity = (GateParams(), GateParams(), GateParams())
    cfg = ScenarioConfig(scenario_id="composite", gate_params=identity)
    result = run_composite_gate_scenario(cfg)
    assert result.series["p1"][0] == pytest.approx(1.0, abs=1e-12)


def test_composite_rejects_wrong_sequence_length():
    with pytest.raises(ConfigError):
        run_composite_gate_scenario(
            ScenarioConfig(scenario_id="composite", gate_params=(GateParams(),))
        )


def test_composite_config_with_two_gates_fails_when_built():
    # no runner is needed: a ScenarioConfig that exists passes its run's rules
    g = GateParams(theta=0.7)
    with pytest.raises(ConfigError, match="composite sequence needs exactly 3 gates, got 2"):
        ScenarioConfig(scenario_id="composite", gate_params=(g, g))


# --- two-qubit pi/2 -------------------------------------------------------


def test_two_qubit_pi2_equal_split():
    traj = run_two_qubit_pi2(ScenarioConfig(scenario_id="two-qubit-pi2"))
    finals = np.abs(traj.amplitudes[-1])
    assert finals[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.02)
    assert finals[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.02)
    assert finals[0] == pytest.approx(0.70710678, abs=1e-6)


def test_two_qubit_pi2_spectator_levels():
    traj = run_two_qubit_pi2(ScenarioConfig(scenario_id="two-qubit-pi2"))
    mags = np.abs(traj.amplitudes)
    assert np.max(np.abs(mags[:, 2] - mags[:, 3])) < 1e-12
    assert mags[0, 2] < 0.02 and mags[-1, 2] < 0.02
    assert mags[0, 3] < 0.02 and mags[-1, 3] < 0.02


def test_two_qubit_pi2_population_starts_full():
    traj = run_two_qubit_pi2(ScenarioConfig(scenario_id="two-qubit-pi2"))
    assert traj.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(np.linalg.norm(traj.amplitudes, axis=1) - 1.0) < 1e-6)


# --- three-qubit sweep ----------------------------------------------------


def test_loop_sweep_reference_inverts_population():
    result = run_three_qubit_detuning_sweep(loop_sweep_config())
    ref = result.series["p1_reference"]
    assert ref[0] == pytest.approx(1.0, abs=1e-12)
    assert ref[-1] < 1e-12
    assert np.all(np.diff(ref) < 1e-12)


def test_loop_sweep_phase_saturates_at_quarter_tilt():
    result = run_three_qubit_detuning_sweep(loop_sweep_config())
    mags = np.abs(result.phases[0])
    peak = int(np.argmax(mags))
    assert result.axis_values[peak] == 300.0
    assert mags[peak] == pytest.approx(math.pi, abs=1e-9)
    # the peak stands clear of its neighbors
    assert mags[peak] - mags[peak - 1] > 0.1
    assert mags[peak] - mags[peak + 1] > 0.1


def test_loop_sweep_discrepancy_dips_at_held_detuning():
    result = run_three_qubit_detuning_sweep(loop_sweep_config())
    discs = result.phases[1]
    idx = int(np.argmin(discs))
    assert result.axis_values[idx] == 450.0
    assert discs[idx] < 1e-15
    assert discs[idx - 1] > 1e-4 and discs[idx + 1] > 1e-4


def test_loop_sweep_reference_is_a_slice_of_the_sweep():
    result = run_three_qubit_detuning_sweep(loop_sweep_config())
    idx = list(result.axis_values).index(450.0)
    assert result.series["p1_final"][idx] == pytest.approx(
        result.series["p1_reference"][-1], abs=1e-15
    )


def test_loop_sweep_needs_axis_and_scalar_held_detunings():
    with pytest.raises(ConfigError):
        run_three_qubit_detuning_sweep(
            loop_sweep_config(detunings=(300.0, 450.0, 450.0))
        )
    with pytest.raises(ConfigError):
        run_three_qubit_detuning_sweep(
            loop_sweep_config(
                detunings=(SweepSpec(0.0, 600.0, 15.0), SweepSpec(0.0, 1.0, 1.0), 450.0)
            )
        )


def test_loop_sweep_threads_match_serial():
    serial = run_three_qubit_detuning_sweep(loop_sweep_config())
    threaded = run_three_qubit_detuning_sweep(with_threads_key(loop_sweep_config(), 3))
    assert np.array_equal(serial.series["p1_final"], threaded.series["p1_final"])


# --- three-qubit time evolution -------------------------------------------


def test_time_evolution_returns_reference_plus_each_triple():
    cfg = ScenarioConfig(
        scenario_id="three-qubit-time",
        detuning_sets=((300.0, 450.0, 450.0), (450.0, 450.0, 450.0)),
    )
    trajs = run_three_qubit_time_evolution(cfg)
    assert len(trajs) == 3
    for traj in trajs:
        assert traj.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
    # the 150 MHz differential tilts the first loop a quarter turn: sqrt(2) faster
    assert trajs[1].times[-1] == pytest.approx(LOOP_DURATION_US / math.sqrt(2.0), rel=1e-9)
    assert trajs[2].times[-1] == pytest.approx(LOOP_DURATION_US, rel=1e-12)


def test_time_evolution_requires_triples():
    with pytest.raises(ConfigError):
        run_three_qubit_time_evolution(ScenarioConfig(scenario_id="three-qubit-time"))


# --- pi/3 rotation ---------------------------------------------------------


def test_pi3_amplitude_split():
    traj = run_pi3_rotation(ScenarioConfig(scenario_id="pi3"))
    finals = np.abs(traj.amplitudes[-1])
    assert finals[4] == pytest.approx(math.sin(math.pi / 3.0), abs=1e-6)
    assert finals[0] == pytest.approx(0.5, abs=1e-6)
    others = [finals[i] for i in range(8) if i not in (0, 4)]
    assert max(others) < 1e-12


def test_pi3_norm_preserved_without_renormalization():
    traj = run_pi3_rotation(ScenarioConfig(scenario_id="pi3"))
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


# --- dark states -----------------------------------------------------------


def test_dark_spectrum_zero_rows_always_dark():
    cfg = ScenarioConfig(scenario_id="dark-states", detunings=(100.0, 200.0, 300.0))
    spectrum = run_dark_state_spectrum(cfg)
    assert set((3, 4)) <= set(spectrum.dark_indices) or len(spectrum.dark_indices) >= 2
    assert spectrum.eigenvalues_mhz.shape == (8,)
    assert all(leak <= 1e-6 for leak in spectrum.leakages)


def test_dark_spectrum_zero_matrix_is_all_dark():
    cfg = ScenarioConfig(
        scenario_id="dark-states", drive_amplitudes_mhz=(0.0,) * 6
    )
    spectrum = run_dark_state_spectrum(cfg)
    assert len(spectrum.dark_indices) == 8
    assert max(spectrum.leakages) == 0.0


@pytest.mark.parametrize("renormalize", [True, False])
def test_dark_spectrum_honours_renormalize(renormalize, monkeypatch):
    seen = []
    schrodinger = scenarios.evolve_schrodinger
    monkeypatch.setattr(
        scenarios,
        "evolve_schrodinger",
        lambda h, psi0, evo: seen.append(evo) or schrodinger(h, psi0, evo),
    )
    run_dark_state_spectrum(ScenarioConfig(scenario_id="dark-states", renormalize=renormalize))
    assert [evo.renormalize for evo in seen] == [renormalize]


def test_pi3_keeps_its_norm_when_renormalize_is_on(monkeypatch):
    seen = []
    schrodinger = scenarios.evolve_schrodinger
    monkeypatch.setattr(
        scenarios,
        "evolve_schrodinger",
        lambda h, psi0, evo: seen.append(evo) or schrodinger(h, psi0, evo),
    )
    run_pi3_rotation(ScenarioConfig(scenario_id="pi3", renormalize=True))
    assert [evo.renormalize for evo in seen] == [False]


def test_dark_spectrum_requires_hermitized_mode():
    with pytest.raises(ConfigError):
        run_dark_state_spectrum(
            ScenarioConfig(scenario_id="dark-states", hermiticity="literal")
        )


# --- fidelity comparison ---------------------------------------------------


def test_fidelity_compare_hits_calibrated_targets():
    cfg = ScenarioConfig(
        scenario_id="fidelity-compare", detunings=(450.0, 450.0, 450.0), noise=NOISE
    )
    off, on = compare_resonant_fidelity(cfg)
    assert off == pytest.approx(0.80, abs=5e-3)
    assert on == pytest.approx(0.70, abs=5e-3)
    assert off > on


def test_fidelity_compare_requires_noise():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            scenario_id="fidelity-compare", detunings=(450.0, 450.0, 450.0)
        )


def test_fidelity_compare_vanishing_noise_gives_unity():
    weak = NoiseModel(t1_us=1e9, t2_us=1e9, enabled=True)
    cfg = ScenarioConfig(
        scenario_id="fidelity-compare", detunings=(450.0, 450.0, 450.0), noise=weak
    )
    off, on = compare_resonant_fidelity(cfg)
    assert off == pytest.approx(1.0, abs=1e-6)
    assert on == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t1_us", [20.0, 100.0, 500.0])
def test_fidelity_compare_ordering_holds(t1_us):
    noise = NoiseModel(t1_us=t1_us, t2_us=min(2.0 * t1_us, 50.0), enabled=True)
    cfg = ScenarioConfig(
        scenario_id="fidelity-compare", detunings=(450.0, 450.0, 450.0), noise=noise
    )
    off, on = compare_resonant_fidelity(cfg)
    assert off > on


def kron_loop_fidelity(deltas, base_us, noise, n_slices):
    """Reference: the whole 8-level register through Kronecker-lifted steps.

    Each slice applies the three per-qubit step unitaries as one 8x8 product,
    then each qubit's Kraus channel lifted to the register with identities on
    the other two qubits.
    """
    common = _common_mode(deltas)
    s_grid = np.linspace(0.0, 1.0, n_slices + 1)
    frames = [point_qubit_propagators(q, float(deltas[q]) - common, s_grid) for q in range(3)]
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    channels = []
    for q in range(3):
        v = _rx(LOOP_PREP_RAD[q])
        mats = []
        for op in _qubit_kraus(_loop_duration_us(deltas, base_us) / n_slices, noise):
            parts = [eye, eye, eye]
            parts[q] = v.conj().T @ op @ v
            mats.append(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        channels.append(mats)
    psi0 = np.kron(np.kron(frames[0][0] @ ket0, frames[1][0] @ ket0), frames[2][0] @ ket0)
    rho = np.outer(psi0, psi0.conj())
    for k in range(n_slices):
        per = [frames[q][k + 1] @ frames[q][k].conj().T for q in range(3)]
        u = np.kron(np.kron(per[0], per[1]), per[2])
        rho = u @ rho @ u.conj().T
        for mats in channels:
            rho = sum(m @ rho @ m.conj().T for m in mats)
    ideal = np.kron(np.kron(frames[0][-1] @ ket0, frames[1][-1] @ ket0), frames[2][-1] @ ket0)
    return float(np.real(np.vdot(ideal, rho @ ideal)))


@pytest.mark.parametrize("t1_us,t2_us", [(100.0, 50.0), (20.0, 35.0)])
@pytest.mark.parametrize(
    "deltas",
    [(450.0, 450.0, 450.0), (651.22, 651.22, 248.78), (300.0, 450.0, 600.0)],
)
def test_loop_fidelity_factorises_per_qubit(deltas, t1_us, t2_us):
    noise = NoiseModel(t1_us=t1_us, t2_us=t2_us, enabled=True)
    reference = kron_loop_fidelity(deltas, LOOP_DURATION_US, noise, 20)
    product = _loop_fidelity(deltas, LOOP_DURATION_US, noise, 20)
    assert 0.0 < reference < 1.0
    assert product == pytest.approx(reference, abs=1e-12)


# --- register model against a point-by-point reference ---------------------
#
# The runners evaluate the loop model over arrays of sweep points and slices.
# The reference below is the model one point at a time: 2x2 propagators per
# tilt, one Trajectory and one phase probe per sweep point, and the noisy
# fidelity loop as one Kraus sandwich per slice and operator.


def point_loop_rotations(qubit, chi, s):
    rate = 1.0 / math.cos(chi)
    beta = LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit] * rate * s
    azimuth = DIAMOND_HALF_RAD * _diamond_azimuth(s) if qubit == 2 else np.zeros_like(s)
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


def point_qubit_propagators(qubit, dtilde_mhz, s):
    chi = math.atan2(dtilde_mhz, TILT_SCALE_MHZ)
    v = _rx(LOOP_PREP_RAD[qubit])
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    end = np.ones(1)
    ref = v.conj().T @ point_loop_rotations(qubit, 0.0, end)[0] @ v @ ket0
    act = v.conj().T @ point_loop_rotations(qubit, chi, end)[0] @ v @ ket0
    overlap = np.vdot(ref, act)
    echo = 0.0 if abs(overlap) < 1e-12 else float(np.angle(overlap))
    dispersive = -math.pi * (math.sin(chi) ** 2 - LOOP_SENSES[qubit] * math.sin(2.0 * chi) / 2.0)
    mats = np.einsum("ij,njk,kl->nil", v.conj().T, point_loop_rotations(qubit, chi, s), v)
    return mats * np.exp(1j * (dispersive - echo) * s)[:, None, None]


def point_loop_trajectory(deltas, n_time, duration_us):
    s = np.linspace(0.0, 1.0, n_time)
    common = 0.5 * (deltas[1] + deltas[2])
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    parts = [point_qubit_propagators(q, deltas[q] - common, s) @ ket0 for q in range(3)]
    amps = np.einsum("si,sj,sk->sijk", *parts).reshape(n_time, 8)
    return Trajectory(times=s * duration_us, populations=np.abs(amps) ** 2, amplitudes=amps)


def point_loop_fidelity(deltas, base_us, noise, n_slices):
    common = 0.5 * (deltas[1] + deltas[2])
    s = np.linspace(0.0, 1.0, n_slices + 1)
    ops = _qubit_kraus(_loop_duration_us(deltas, base_us) / n_slices, noise)
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    fidelity = 1.0
    for q in range(3):
        frames = point_qubit_propagators(q, deltas[q] - common, s)
        v = _rx(LOOP_PREP_RAD[q])
        kraus = [v.conj().T @ op @ v for op in ops]
        psi0 = frames[0] @ ket0
        rho = np.outer(psi0, psi0.conj())
        for u in frames[1:] @ frames[:-1].conj().transpose(0, 2, 1):
            rho = u @ rho @ u.conj().T
            rho = sum(m @ rho @ m.conj().T for m in kraus)
        ideal = frames[-1] @ ket0
        fidelity *= float(np.real(np.vdot(ideal, rho @ ideal)))
    return fidelity


def wrapped_gap(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


@pytest.mark.parametrize(
    "sweep",
    [
        SweepSpec(300.0, 450.0, 150.0),
        SweepSpec(330.0, 570.0, 15.0),
        SweepSpec(0.0, 600.0, 15.0),
        SweepSpec(0.0, 600.0, 5.0),
    ],
    ids=["2pt", "17pt", "41pt", "121pt"],
)
def test_loop_sweep_matches_point_by_point_reference(sweep):
    grid = sweep.values()
    result = run_three_qubit_detuning_sweep(loop_sweep_config(detunings=(sweep, 450.0, 450.0)))
    n = grid.shape[0]
    reference = point_loop_trajectory((450.0, 450.0, 450.0), n, LOOP_DURATION_US)
    assert np.max(np.abs(result.series["p1_reference"] - reference.population_series(0))) < 1e-12
    magnitude, discrepancy, undefined = result.phases
    for i, delta1 in enumerate(grid):
        traj = point_loop_trajectory((float(delta1), 450.0, 450.0), n, LOOP_DURATION_US)
        (want_magnitude,), (want_discrepancy,), (want_undefined,) = phase_from_discrepancy(reference, traj, level=0)
        assert abs(result.series["p1_final"][i] - traj.populations[-1, 0]) < 1e-12
        assert abs(discrepancy[i] - want_discrepancy) < 1e-12
        assert undefined[i] == want_undefined
        assert wrapped_gap(magnitude[i], want_magnitude) < 1e-12
    held = list(grid).index(450.0)
    assert result.series["p1_final"][held] == result.series["p1_reference"][-1]


def kronecker_loop_sweep(grid, d2, d3):
    """The sweep the long way: every point's 8-entry register ket, the
    reference first, scored by the Trajectory front end of the phase probe."""
    common = 0.5 * (d2 + d3)
    s = np.linspace(0.0, 1.0, grid.shape[0])
    swept = scenarios._framed(*scenarios._qubit_kets(0, np.append(common, grid) - common, s), s)
    held = [scenarios._framed(*scenarios._qubit_kets(q, d - common, s), s) for q, d in ((1, d2), (2, d3))]
    amps = np.einsum("psi,sj,sk->psijk", swept, *held).reshape(swept.shape[:2] + (8,))
    reference, actual = (
        Trajectory(times=s * LOOP_DURATION_US, populations=np.abs(a) ** 2, amplitudes=a) for a in (amps[0], amps[1:])
    )
    return reference, actual, phase_from_discrepancy(reference, actual, level=0)


@settings(max_examples=30, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    start=st.floats(-1000.0, 1000.0),
    step=st.floats(0.5, 60.0),
    points=st.integers(2, 60),
    held=st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0)),
)
def test_random_loop_sweeps_match_the_kronecker_register(start, step, points, held):
    """Random grids of 2 to 60 points and held detunings: the factorised
    sweep against the 8-entry register and the Trajectory phase probe."""
    sweep = SweepSpec(start, start + step * (points - 1), step)
    result = run_three_qubit_detuning_sweep(loop_sweep_config(detunings=(sweep, *held)))
    reference, actual, expected = kronecker_loop_sweep(result.axis_values, *held)
    assert np.max(np.abs(result.series["p1_reference"] - reference.population_series(0))) < 1e-12
    assert np.max(np.abs(result.series["p1_final"] - actual.populations[:, -1, 0])) < 1e-12
    magnitude, discrepancy, undefined = result.phases
    want_magnitude, want_discrepancy, want_undefined = expected
    assert magnitude.shape == want_magnitude.shape
    for i in range(magnitude.shape[0]):
        assert abs(discrepancy[i] - want_discrepancy[i]) < 1e-12
        assert undefined[i] == want_undefined[i]
        assert wrapped_gap(magnitude[i], want_magnitude[i]) < 1e-12


@pytest.mark.parametrize(
    "triples",
    [
        ((300.0, 450.0, 450.0),),
        ((300.0, 450.0, 450.0), (12.5, 598.0, 240.0), (450.0, 450.0, 450.0), (0.0, 0.0, 600.0)),
    ],
    ids=["1triple", "4triples"],
)
def test_time_evolution_matches_point_by_point_reference(triples):
    trajs = run_three_qubit_time_evolution(
        ScenarioConfig(scenario_id="three-qubit-time", detuning_sets=triples)
    )
    common = _common_mode(triples[0])
    expected = [point_loop_trajectory((common,) * 3, TIME_EVOLUTION_SAMPLES, LOOP_DURATION_US)]
    for triple in triples:
        duration = _loop_duration_us(triple, LOOP_DURATION_US)
        expected.append(point_loop_trajectory(triple, TIME_EVOLUTION_SAMPLES, duration))
    assert len(trajs) == len(expected)
    for got, want in zip(trajs, expected):
        assert np.max(np.abs(got.times - want.times)) < 1e-12
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12
        assert np.max(np.abs(got.populations - want.populations)) < 1e-12


@pytest.mark.parametrize("t1_us,t2_us", [(100.0, 50.0), (20.0, 35.0)])
@pytest.mark.parametrize(
    "deltas",
    [
        (450.0, 450.0, 450.0),
        (450.0 + OFF_RESONANT_OFFSET_MHZ, 450.0 + OFF_RESONANT_OFFSET_MHZ, 450.0 - OFF_RESONANT_OFFSET_MHZ),
    ],
    ids=["on", "off"],
)
def test_loop_fidelity_matches_per_slice_kraus_loop(deltas, t1_us, t2_us):
    noise = NoiseModel(t1_us=t1_us, t2_us=t2_us, enabled=True)
    reference = point_loop_fidelity(deltas, LOOP_DURATION_US, noise, FIDELITY_SLICES)
    got = _loop_fidelity(deltas, LOOP_DURATION_US, noise, FIDELITY_SLICES)
    assert 0.0 < reference < 1.0
    assert got == pytest.approx(reference, abs=1e-12)


PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)


def random_kets(rng, shape):
    parts = rng.normal(size=shape + (4,))
    parts /= np.linalg.norm(parts, axis=-1, keepdims=True)
    return parts.view(np.complex128)


def su2(kets):
    a, b = kets[..., 0], kets[..., 1]
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def test_bloch_rotations_are_the_pauli_traces_of_the_unitaries():
    kets = random_kets(np.random.default_rng(7), (5, 40))
    u = su2(kets)
    want = 0.5 * np.einsum("iab,...bc,jcd,...ad->...ij", PAULIS, u, PAULIS, u.conj()).real
    got = scenarios._bloch_rotations(kets)
    assert got.shape == (5, 40, 4, 4)
    assert np.max(np.abs(got - want)) < 1e-15
    assert np.max(np.abs(got @ got.swapaxes(-1, -2) - np.eye(4))) < 1e-14
    assert np.array_equal(got[..., 0, :], np.broadcast_to([1.0, 0.0, 0.0, 0.0], (5, 40, 4)))


def test_step_kets_give_the_step_rotations():
    # R(U_k U_{k-1}^dag) = R_k R_{k-1}^T, so a step needs no matrix product
    kets = random_kets(np.random.default_rng(8), (3, 30))
    steps = scenarios._step_kets(kets)
    u = su2(kets)
    assert np.max(np.abs(su2(steps) - u[:, 1:] @ u[:, :-1].conj().swapaxes(-1, -2))) < 1e-15
    frames = scenarios._bloch_rotations(kets)
    want = frames[:, 1:] @ frames[:, :-1].swapaxes(-1, -2)
    assert np.max(np.abs(scenarios._bloch_rotations(steps) - want)) < 1e-14


@pytest.mark.parametrize("t1_us,t2_us", [(100.0, 50.0), (20.0, 35.0), (math.inf, 10.0), (5.0, 10.0)])
def test_channel_map_of_the_kraus_operators(t1_us, t2_us):
    noise = NoiseModel(t1_us=t1_us, t2_us=t2_us, enabled=True)
    ops = np.array(_qubit_kraus(0.3, noise))
    got = scenarios._channel_map(ops)
    # trace preserving: [1, r] keeps its 1, to rounding
    assert np.max(np.abs(got[0] - [1.0, 0.0, 0.0, 0.0])) < 1e-15
    # it maps the Bloch vector of any rho as the channel maps rho
    rng = np.random.default_rng(9)
    for ket in random_kets(rng, (6,)):
        rho = np.outer(ket, ket.conj())
        out = sum(m @ rho @ m.conj().T for m in ops)
        bloch = lambda r: np.einsum("iab,ba->i", PAULIS, r).real
        assert np.max(np.abs(got @ bloch(rho) - bloch(out))) < 1e-15


def product_form_kraus(dt_us, noise):
    """The step's Kraus operators as products of the 2x2 damping and
    dephasing matrices, in the order _qubit_kraus lists them."""
    gamma1, gamma_phi = noise.rates()
    p = 1.0 - math.exp(-gamma1 * dt_us)
    q = 0.5 * (1.0 - math.exp(-2.0 * gamma_phi * dt_us))
    damping = (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]]), np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]))
    dephasing = (math.sqrt(1.0 - q) * np.eye(2), math.sqrt(q) * np.diag([1.0, -1.0]))
    ops = [(deph @ damp).astype(np.complex128) for damp in damping for deph in dephasing]
    return np.array([op for op in ops if np.abs(op).max() > 0.0])


@pytest.mark.parametrize("dt_us", [1e-3, 0.0224, 0.3, 5.0])
@pytest.mark.parametrize(
    "t1_us,t2_us",
    [(100.0, 50.0), (20.0, 35.0), (5.0, 10.0), (1e-3, 1e-3), (10.0, 20.0), (math.inf, 10.0), (math.inf, math.inf)],
)
def test_qubit_kraus_is_the_product_form_bit_for_bit(dt_us, t1_us, t2_us):
    # T2 = 2 T1 (or T1 = T2 = inf) dephases nothing and T1 = inf damps
    # nothing: those all-zero operators are dropped. Adding 0.0 turns the
    # product's -0.0 entries into 0.0, so every other bit must match
    noise = NoiseModel(t1_us=t1_us, t2_us=t2_us, enabled=True)
    want = product_form_kraus(dt_us, noise)
    got = _qubit_kraus(dt_us, noise)
    assert got.shape == want.shape and got.dtype == np.complex128
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_compare_resonant_fidelity_is_two_single_triple_loops():
    cfg = ScenarioConfig(scenario_id="fidelity-compare", detunings=(450.0, 450.0, 430.0), noise=NOISE)
    common = 440.0
    offset = OFF_RESONANT_OFFSET_MHZ
    off = _loop_fidelity((common + offset, common + offset, common - offset), LOOP_DURATION_US, NOISE, FIDELITY_SLICES)
    on = _loop_fidelity((common,) * 3, LOOP_DURATION_US, NOISE, FIDELITY_SLICES)
    assert compare_resonant_fidelity(cfg) == (off, on)
    assert isinstance(off, float)


@settings(max_examples=15, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    deltas=st.tuples(*[st.floats(-1000.0, 1000.0, allow_nan=False)] * 3),
    t1_us=st.floats(1.0, 1000.0),
    t2_ratio=st.floats(0.05, 2.0),
)
def test_random_loop_fidelities_match_the_per_slice_kraus_loop(deltas, t1_us, t2_ratio):
    """Random detuning triples and T1/T2 (T2 <= 2 T1) over 20 slices: the
    Bloch-vector product against one Kraus sandwich per slice and operator."""
    noise = NoiseModel(t1_us=t1_us, t2_us=t2_ratio * t1_us, enabled=True)
    reference = point_loop_fidelity(deltas, LOOP_DURATION_US, noise, 20)
    got = _loop_fidelity(deltas, LOOP_DURATION_US, noise, 20)
    assert got == pytest.approx(reference, abs=1e-12)


def test_kron_kets_is_the_outer_product_bit_for_bit():
    rng = np.random.default_rng(10)
    a, b = random_kets(rng, (8, 121)), random_kets(rng, (121, 2)).reshape(121, 4)
    want = (a[..., :, None] * b[..., None, :]).reshape(8, 121, 8)
    assert np.array_equal(scenarios._kron_kets(a, b), want)
    tracemalloc.start()
    try:
        out = scenarios._kron_kets(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result and the tiled second factor: an outer-product broadcast
    # held three times the result's bytes
    assert peak < 1.5 * out.nbytes


def test_loop_sweep_memory_stays_bounded():
    # 121 points: the time grid has as many samples as the sweep has points,
    # so a sweep evaluated in one piece would hold every point's trajectory
    cfg = loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 5.0), 450.0, 450.0))
    run_three_qubit_detuning_sweep(cfg)
    tracemalloc.start()
    try:
        run_three_qubit_detuning_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_detuning_sweep_memory_stays_bounded():
    # 121 noisy points of 629 steps: one batch of every point would hold
    # about 15 MB of records
    cfg = ScenarioConfig(
        scenario_id="detune-sweep",
        sweep=SweepSpec(-30.0, 30.0, 0.5),
        noise=NoiseModel(t1_us=70.0, t2_us=40.0),
    )
    run_single_qubit_detuning_sweep(cfg)
    tracemalloc.start()
    try:
        run_single_qubit_detuning_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


@pytest.mark.parametrize(
    "scenario, runner, sweep",
    [
        # the default 33 angles: one batch of every angle held 11.5 MB
        ("composite", run_composite_gate_scenario, scenarios.THETA_SWEEP_DEFAULT),
        # 200 angles of up to 629 steps: one batch held 5.2 MB
        ("theta-sweep", run_single_qubit_theta_sweep, SweepSpec(0.0, 2.0 * math.pi, 2.0 * math.pi / 199.0)),
    ],
    ids=["composite", "theta-sweep"],
)
def test_noisy_pulse_sweep_memory_stays_bounded(scenario, runner, sweep):
    # the pulse runner holds one block of angles at a time, within
    # PULSE_BLOCK_BYTES of records per integration
    runner(ScenarioConfig(scenario_id=scenario, sweep=SweepSpec(1.0, 2.0, 1.0), noise=NOISE))
    cfg = ScenarioConfig(scenario_id=scenario, sweep=sweep, noise=NOISE)
    tracemalloc.start()
    try:
        runner(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_two_qubit_pi2_memory_stays_bounded():
    # 45,696 steps in chunks of a 1 MB transfer budget: the workspace that
    # every chunk reuses (890-step chunks of ten 89-step record intervals:
    # the real-form transfers, their interval products and the monomial
    # columns) is the peak, not the run's length
    cfg = ScenarioConfig(scenario_id="two-qubit-pi2")
    run_two_qubit_pi2(cfg)
    tracemalloc.start()
    try:
        run_two_qubit_pi2(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_200_000


def test_two_qubit_pi2_takes_the_terms_path(monkeypatch):
    # the default run builds its frames from the Hamiltonian's terms: the
    # basis is checked and put in real form once per _integrate call, and
    # PulsedHamiltonian.sample serves recommended_dt's probe alone
    cfg = ScenarioConfig(scenario_id="two-qubit-pi2")
    calls = {"_integrate": 0, "_check_samples": 0, "_real_form": 0}

    def counting(name):
        original = getattr(evolve_module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return spy

    for name in calls:
        monkeypatch.setattr(evolve_module, name, counting(name))
    probing, sampled_while_probing = [], []
    recommend, sample = scenarios.recommended_dt, PulsedHamiltonian.sample

    def probe(*args):
        probing.append(True)
        try:
            return recommend(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(scenarios, "recommended_dt", probe)
    monkeypatch.setattr(
        PulsedHamiltonian,
        "sample",
        lambda self, times: sampled_while_probing.append(bool(probing)) or sample(self, times),
    )
    run_two_qubit_pi2(cfg)
    assert calls == {"_integrate": 1, "_check_samples": 1, "_real_form": 1}
    assert sampled_while_probing == [True]


# --- manifests and probes of a CLI run ---------------------------------------


def test_two_qubit_pi2_cli_run_probes_its_hamiltonian_once(tmp_path, monkeypatch):
    # recommended_dt's probe is the one sample of the default run: writing
    # the manifest takes no step, so nothing probes the Hamiltonian again
    frames = []
    sample = PulsedHamiltonian.sample
    monkeypatch.setattr(
        PulsedHamiltonian, "sample", lambda self, times: frames.append(len(times)) or sample(self, times)
    )
    assert run_cli(["two-qubit-pi2", "--out", str(tmp_path)]) == 0
    assert frames == [1025]


def test_default_manifests_report_run_keys_without_dt(tmp_path):
    # [run] holds no dt_us: a requested step is the config's [integrator] dt_us
    for scenario in DEFAULT_CONFIGS:
        out = tmp_path / scenario
        assert run_cli([scenario, "--out", str(out)]) == 0
        manifest = parse_manifest((out / "manifest").read_text())
        assert [key for key, _ in manifest.run_info] == ["artifact_version", "command", "wall_time_s"]
        assert manifest.cfg.dt_us is None


# --- batched runners against a per-run loop --------------------------------
#
# composite, detune-sweep and the noisy theta-sweep integrate their runs as
# one batch per pulse segment and block of points, dark-states as one batch.
# The references below run the same physics one run at a time through
# unbatched evolve_schrodinger / evolve_lindblad calls.


def _rz(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def per_run_segments(segments, psi0, cfg, noisy):
    """(record populations, final state) of one start through the legs."""
    state = np.outer(psi0, psi0.conj()) if noisy else psi0.copy()
    pops = [np.real(np.diag(state)) if noisy else np.abs(state) ** 2]
    for theta, pre_kick, post_kick in segments:
        rz = _rz(pre_kick)
        state = rz @ state @ rz.conj().T if noisy else rz @ state
        span = abs(theta) / (2.0 * math.pi * cfg.rabi_mhz)
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
            pops.extend(traj.populations[1:])
        rz = _rz(post_kick)
        state = rz @ state @ rz.conj().T if noisy else rz @ state
    return np.asarray(pops), state


def per_run_cardinal_fidelity(segments, cfg):
    total = 0.0
    for start in CARDINAL_STATES:
        _, ideal = per_run_segments(segments, start, cfg, noisy=False)
        _, noisy = per_run_segments(segments, start, cfg, noisy=True)
        total += state_density_fidelity(StateVector.normalized(ideal), DensityMatrix(noisy))
    return total / len(CARDINAL_STATES)


def per_run_discrepancy(segments, psi0, cfg):
    ideal, _ = per_run_segments(segments, psi0, cfg, noisy=False)
    noisy, _ = per_run_segments(segments, psi0, cfg, noisy=True)
    return float(np.max(np.abs(ideal[:, 0] - noisy[:, 0])))


# angles of 17 to 116 steps per leg (rabi 12 MHz), under both drive signs
RAGGED_SWEEP = SweepSpec(-1.5, 3.5, 1.0)

# bounds of the 2-level pulse runner's blocks: one point per block, the
# default bound, and the whole sweep in one block
PULSE_BLOCKS = [1, None, 1 << 30]
PULSE_BLOCK_IDS = ["point", "default", "whole"]


@pytest.mark.parametrize("block_bytes", PULSE_BLOCKS, ids=PULSE_BLOCK_IDS)
@pytest.mark.parametrize(
    "initial_state,renormalize,sweep,chunk_bytes",
    [
        pytest.param(("level", 0), True, SweepSpec(0.0, 2.5, 1.25), None, id="initial_state0-True"),
        pytest.param(("rotation", 0.7), True, SweepSpec(0.0, 2.5, 1.25), None, id="initial_state1-True"),
        pytest.param(("level", 1), False, SweepSpec(0.0, 2.5, 1.25), None, id="initial_state2-False"),
        pytest.param(("level", 0), True, RAGGED_SWEEP, None, id="ragged"),
        # 16-step chunks: the angles' runs end in different chunks
        pytest.param(("rotation", 0.7), False, RAGGED_SWEEP, 4096, id="ragged-chunked"),
    ],
)
def test_composite_sweep_matches_per_run_loop(
    initial_state, renormalize, sweep, chunk_bytes, block_bytes, monkeypatch
):
    if chunk_bytes is not None:
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", chunk_bytes)
    if block_bytes is not None:
        monkeypatch.setattr(scenarios, "PULSE_BLOCK_BYTES", block_bytes)
    cfg = ScenarioConfig(
        scenario_id="composite",
        sweep=sweep,
        initial_state=initial_state,
        rabi_mhz=12.0,
        noise=NoiseModel(t1_us=60.0, t2_us=45.0),
        renormalize=renormalize,
    )
    result = run_composite_gate_scenario(cfg)
    psi0 = _initial_state(initial_state, 2).amps
    for i, theta in enumerate(result.axis_values):
        legs = [(theta / 3.0, 0.0, theta / 3.0)] * 3
        single = [(theta, 0.0, theta)]
        pops, _ = per_run_segments(legs, psi0, cfg, noisy=False)
        assert abs(result.series["p1"][i] - pops[-1, 0]) < 1e-12
        assert abs(result.series["p2"][i] - pops[-1, 1]) < 1e-12
        comp = per_run_discrepancy(legs, psi0, cfg)
        assert abs(result.series["discrepancy_composite"][i] - comp) < 1e-12
        assert abs(result.series["discrepancy_single"][i] - per_run_discrepancy(single, psi0, cfg)) < 1e-12
        fid = per_run_cardinal_fidelity(legs, cfg)
        assert abs(result.series["fidelity_cardinal"][i] - fid) < 1e-12


def per_point_noisy_theta(cfg, psi0):
    """Final noisy populations of the theta sweep, one unbatched
    evolve_lindblad call per nonzero angle under the configured
    renormalisation, the negative drive for a negative angle, and the start's
    populations at theta = 0, as the sweep computed them point by point."""
    rows = []
    for theta in cfg.sweep.values():
        if theta == 0.0:
            rows.append(np.abs(psi0) ** 2)
            continue
        h = _drive_matrix(math.copysign(cfg.rabi_mhz, theta), 0.0)
        span = abs(theta) / (2.0 * math.pi * cfg.rabi_mhz)
        dt = _pulse_dt(h, span, cfg)
        n_steps = max(1, int(round(span / dt)))
        evo = EvolutionConfig(
            0.0, span, dt, record_stride=max(1, n_steps // 64), renormalize=cfg.renormalize
        )
        rho0 = DensityMatrix.from_state(StateVector.normalized(psi0))
        rows.append(evolve_lindblad(h, rho0, cfg.noise, evo).populations[-1])
    return np.asarray(rows)


@pytest.mark.parametrize("block_bytes", PULSE_BLOCKS, ids=PULSE_BLOCK_IDS)
@pytest.mark.parametrize("renormalize", [True, False])
def test_theta_sweep_noisy_matches_per_point_loop(renormalize, block_bytes, monkeypatch):
    # theta = 0 keeps the start; the others, the negative angle included,
    # take 150 to 600 steps with record strides of 2 to 9. The Lindblad step
    # keeps the trace to rounding, so the populations barely tell whether a
    # run renormalised: its config must carry the key as well
    if block_bytes is not None:
        monkeypatch.setattr(scenarios, "PULSE_BLOCK_BYTES", block_bytes)
    cfg = ScenarioConfig(
        scenario_id="theta-sweep",
        sweep=SweepSpec(-1.5, 6.0, 1.5),
        initial_state=("rotation", 0.6),
        noise=NoiseModel(t1_us=70.0, t2_us=40.0),
        renormalize=renormalize,
    )
    seen = []
    lindblad = scenarios.evolve_lindblad
    monkeypatch.setattr(
        scenarios,
        "evolve_lindblad",
        lambda h, rho0, noise, evos: seen.extend(evos) or lindblad(h, rho0, noise, evos),
    )
    result = run_single_qubit_theta_sweep(cfg)
    assert len(seen) == 5 and all(evo.renormalize == renormalize for evo in seen)
    expected = per_point_noisy_theta(cfg, _initial_state(cfg.initial_state, 2).amps)
    assert 0.0 in result.axis_values
    assert np.max(np.abs(result.series["p1_noisy"] - expected[:, 0])) < 1e-12
    assert np.max(np.abs(result.series["p2_noisy"] - expected[:, 1])) < 1e-12


def test_theta_sweep_negative_angle_rotates_under_weak_noise():
    # with T1 = T2 = 1e6 us the noisy pulse is the ideal rotation, whose sign
    # the drive carries: a negative angle moves the populations as the gate does
    cfg = ScenarioConfig(
        scenario_id="theta-sweep",
        sweep=SweepSpec(-1.5, 1.5, 1.5),
        initial_state=("rotation", 0.6),
        noise=NoiseModel(t1_us=1e6, t2_us=1e6),
    )
    result = run_single_qubit_theta_sweep(cfg)
    assert abs(result.series["p1"][0] - result.series["p1"][1]) > 0.1
    assert np.max(np.abs(result.series["p1_noisy"] - result.series["p1"])) < 1e-6
    assert np.max(np.abs(result.series["p2_noisy"] - result.series["p2"])) < 1e-6


def count_integrate_calls(monkeypatch, runner, cfg) -> int:
    calls = []
    integrate = evolve_module._integrate

    def spy(*args, **kwargs):
        calls.append(True)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(evolve_module, "_integrate", spy)
    runner(cfg)
    return len(calls)


def test_sweeps_take_one_integration_per_equation(monkeypatch):
    # the default composite: one ideal and one noisy call per block of
    # angles, each chaining the 3 composite legs and the single gate's one
    # (10 blocks of 9, 5, 4, 3, 3, 2, 2, 2, 2 and 1 angles within
    # PULSE_BLOCK_BYTES, a run's records counted over all its legs); the
    # noisy theta sweep: one call for all its angles
    composite = ScenarioConfig(scenario_id="composite", noise=NOISE)
    assert count_integrate_calls(monkeypatch, run_composite_gate_scenario, composite) == 10 * 2
    theta = ScenarioConfig(scenario_id="theta-sweep", noise=NOISE)
    assert count_integrate_calls(monkeypatch, run_single_qubit_theta_sweep, theta) == 1


@pytest.mark.parametrize("dt_us", [None, 1e-4])
def test_pulse_dt_over_many_spans_matches_one_probe_per_span(dt_us, monkeypatch):
    # spans where recommended_dt's span/2 cap binds (the shortest), where the
    # span/16 cap does, and where neither does; one probe serves them all
    cfg = ScenarioConfig(scenario_id="composite", dt_us=dt_us)
    h = _drive_matrix(-15.0, 0.0)
    spans = np.geomspace(1e-6, 10.0, 41)
    expected = [_pulse_dt(h, float(span), cfg) for span in spans]
    probes = []
    monkeypatch.setattr(scenarios, "recommended_dt", lambda *a: probes.append(a) or recommended_dt(*a))
    got = _pulse_dt(h, spans, cfg)
    assert got.tolist() == expected
    assert len(probes) == (0 if dt_us else 1)


def test_composite_fixed_sequence_matches_per_run_loop():
    gates = (
        GateParams(theta=0.7, phi=0.4, lam=0.3),
        GateParams(theta=-1.1, phi=0.2, lam=-0.5),
        GateParams(theta=0.5, phi=-0.3, lam=0.1),
    )
    noise = NoiseModel(t1_us=40.0, t2_us=30.0)
    cfg = ScenarioConfig(scenario_id="composite", gate_params=gates, noise=noise)
    result = run_composite_gate_scenario(cfg)
    legs = [(p.theta, 2.0 * math.atan(p.lam), p.phi) for p in gates]
    psi0 = np.array([1.0, 0.0], dtype=np.complex128)
    pops, final = per_run_segments(legs, psi0, cfg, noisy=False)
    assert abs(result.series["p1"][0] - abs(final[0]) ** 2) < 1e-12
    disc = per_run_discrepancy(legs, psi0, cfg)
    assert abs(result.fidelities["composite_max_discrepancy"] - disc) < 1e-12
    fid = per_run_cardinal_fidelity(legs, cfg)
    assert abs(result.fidelities["cardinal_fidelity_mean"] - fid) < 1e-12


@pytest.mark.parametrize("block_bytes", PULSE_BLOCKS, ids=PULSE_BLOCK_IDS)
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("renormalize", [True, False])
def test_detuning_sweep_matches_per_run_loop(noisy, renormalize, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(scenarios, "PULSE_BLOCK_BYTES", block_bytes)
    cfg = ScenarioConfig(
        scenario_id="detune-sweep",
        sweep=SweepSpec(-24.0, 24.0, 8.0),
        initial_state=("rotation", 0.4),
        rabi_mhz=12.0,
        noise=NoiseModel(t1_us=70.0, t2_us=40.0) if noisy else NoiseModel(enabled=False),
        renormalize=renormalize,
    )
    result = run_single_qubit_detuning_sweep(cfg)
    deltas = result.axis_values
    state0 = _initial_state(cfg.initial_state, 2)
    span = 1.0 / (4.0 * cfg.rabi_mhz)
    widest = _drive_matrix(cfg.rabi_mhz, float(deltas[np.argmax(np.abs(deltas))]))
    evo = EvolutionConfig(0.0, span, _pulse_dt(widest, span, cfg), renormalize=renormalize)
    reference = evolve_schrodinger(_drive_matrix(cfg.rabi_mhz, 0.0), state0, evo)
    magnitude, discrepancy, undefined = result.phases
    for i, delta in enumerate(deltas):
        h = _drive_matrix(cfg.rabi_mhz, float(delta))
        traj = evolve_schrodinger(h, state0, evo)
        (want_magnitude,), (want_discrepancy,), (want_undefined,) = phase_from_discrepancy(reference, traj, level=0)
        assert abs(result.series["p1"][i] - traj.populations[-1, 0]) < 1e-12
        assert abs(result.series["p2"][i] - traj.populations[-1, 1]) < 1e-12
        assert abs(discrepancy[i] - want_discrepancy) < 1e-12
        assert undefined[i] == want_undefined
        assert wrapped_gap(magnitude[i], want_magnitude) < 1e-12
        if noisy:
            rho = evolve_lindblad(h, DensityMatrix.from_state(state0), cfg.noise, evo)
            assert abs(result.series["p1_noisy"][i] - rho.populations[-1, 0]) < 1e-12
            assert abs(result.series["p2_noisy"][i] - rho.populations[-1, 1]) < 1e-12
            gap = float(np.max(np.abs(rho.populations - traj.populations)))
            assert abs(result.series["discrepancy_noisy"][i] - gap) < 1e-12
    assert ("p1_noisy" in result.series) == noisy


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"detunings": (10.0, 20.0, 30.0)},
        {"drive_amplitudes_mhz": (5.0, 7.5, 6.0, 5.5, 7.0, 6.5), "duration_us": 0.7},
    ],
    ids=["default", "detuned", "amplitudes"],
)
def test_dark_spectrum_matches_per_run_loop(kw):
    cfg = ScenarioConfig(scenario_id="dark-states", **kw)
    spectrum = run_dark_state_spectrum(cfg)
    assert len(spectrum.dark_indices) >= 2
    amps = cfg.drive_amplitudes_mhz or (cfg.rabi_mhz,) * 6
    spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8, detunings_mhz=cfg.detunings)
    matrix = build_interaction_8(spec, amps, mode=cfg.hermiticity).entries
    span = cfg.duration_us or 1.0
    dt = recommended_dt(matrix, 0.0, span)
    evo = EvolutionConfig(0.0, span, dt, record_stride=max(1, int(round(span / dt)) // 128))
    for i, leak in zip(spectrum.dark_indices, spectrum.leakages):
        vec = spectrum.eigenvectors[:, i]
        traj = evolve_schrodinger(matrix, StateVector.normalized(vec), evo)
        stay = np.abs(traj.amplitudes @ vec.conj()) ** 2
        assert abs(leak - float(np.max(1.0 - stay))) < 1e-12


@pytest.mark.parametrize("block_bytes", PULSE_BLOCKS, ids=PULSE_BLOCK_IDS)
def test_detuning_sweep_failure_names_its_point(block_bytes, monkeypatch):
    # one shared coarse step without renormalisation: only the widest
    # detuning drifts past the gate, in the last block when points are
    # integrated one per block
    if block_bytes is not None:
        monkeypatch.setattr(scenarios, "PULSE_BLOCK_BYTES", block_bytes)
    cfg = ScenarioConfig(
        scenario_id="detune-sweep",
        sweep=SweepSpec(0.0, 60.0, 60.0),
        initial_state=("level", 1),
        dt_us=1.0 / 600.0,
        renormalize=False,
    )
    span = 1.0 / (4.0 * cfg.rabi_mhz)
    evo = EvolutionConfig(0.0, span, cfg.dt_us, renormalize=False)
    state0 = _initial_state(cfg.initial_state, 2)
    with pytest.raises(NumericalError) as single:
        evolve_schrodinger(_drive_matrix(cfg.rabi_mhz, 60.0), state0, evo)
    step = re.search(r"at step (\d+) ", str(single.value)).group(1)
    with pytest.raises(NumericalError) as err:
        run_single_qubit_detuning_sweep(cfg)
    message = str(err.value)
    assert message.startswith("detune-sweep delta=60 MHz: norm drifted")
    assert f"at step {step} " in message
    assert "run " not in message


def test_composite_failure_names_theta_and_start():
    cfg = ScenarioConfig(
        scenario_id="composite",
        sweep=SweepSpec(6.0, 6.0, 1.0),
        dt_us=0.02,
        renormalize=False,
        noise=NOISE,
    )
    with pytest.raises(NumericalError, match=r"^composite theta=6 start=initial: norm drifted to [0-9.]+ at step 1 "):
        run_composite_gate_scenario(cfg)


@pytest.mark.parametrize(
    "scenario, runner, noise, dt_us",
    [
        ("composite", run_composite_gate_scenario, NOISE, 0.02),
        # the master equation keeps the trace in exact arithmetic: only a step
        # far past RK4's stability limit for T1 = 1e-4 us lets it drift
        ("theta-sweep", run_single_qubit_theta_sweep, NoiseModel(t1_us=1e-4, t2_us=1e-4), 0.001),
    ],
    ids=["composite", "theta-sweep"],
)
def test_composite_failure_names_its_angle_past_zero_angles(scenario, runner, noise, dt_us):
    # theta = 0 has no pulse and takes no run; the failing run is theta = 6's,
    # named by the scenario whose pulses the segment runner integrates
    cfg = ScenarioConfig(
        scenario_id=scenario,
        sweep=SweepSpec(0.0, 6.0, 6.0),
        dt_us=dt_us,
        renormalize=False,
        noise=noise,
    )
    with pytest.raises(NumericalError, match=f"^{scenario} theta=6 start=initial: norm drifted"):
        runner(cfg)


@pytest.mark.parametrize("noise", [NOISE, NoiseModel(enabled=False)], ids=["noisy", "ideal"])
def test_composite_recorded_norm_failure_names_its_block(noise):
    # the ideal pass integrates theta = 3 and theta = 6 as two blocks of one
    # ragged call; theta = 6's records drift past the recorded-norm gate, and
    # its member counts the runs of theta = 3's block before it
    cfg = ScenarioConfig(
        scenario_id="composite",
        sweep=SweepSpec(0.0, 6.0, 3.0),
        dt_us=0.004,
        renormalize=False,
        noise=noise,
    )
    with pytest.raises(NumericalError, match=r"^composite theta=6 start=initial: recorded norm drifted by 2\.21e-06"):
        run_composite_gate_scenario(cfg)


@pytest.mark.parametrize(
    "scenario, runner, dt_us, detail",
    [
        ("two-qubit-pi2", run_two_qubit_pi2, 0.05, "norm drifted to [0-9.]+ at step 2 "),
        ("pi3", run_pi3_rotation, 0.01, r"recorded norm drifted by [0-9.e-]+ \(> 1e-06\)"),
    ],
    ids=["two-qubit-pi2", "pi3"],
)
def test_single_run_failure_names_its_scenario(scenario, runner, dt_us, detail):
    cfg = ScenarioConfig(scenario_id=scenario, dt_us=dt_us, renormalize=False)
    with pytest.raises(NumericalError, match=f"^{scenario}: {detail}"):
        runner(cfg)


def test_dark_states_short_span_takes_min_segment_steps(monkeypatch):
    # the step comes from _pulse_dt, as for every integrating runner, so a
    # 1 ns span takes MIN_SEGMENT_STEPS and not recommended_dt's 9 steps
    runs = []
    evolve = scenarios.evolve_schrodinger
    monkeypatch.setattr(scenarios, "evolve_schrodinger", lambda h, psi0, evo: runs.append(evo) or evolve(h, psi0, evo))
    run_dark_state_spectrum(ScenarioConfig(scenario_id="dark-states", duration_us=0.001))
    (evo,) = runs
    assert evo.n_steps >= scenarios.MIN_SEGMENT_STEPS


def test_detuning_sweep_recorded_norm_failure_names_its_point():
    # within the 1e-3 drift gate, but the 30 MHz point's unrenormalised
    # records drift past Trajectory's 1e-6 recorded-norm gate
    cfg = ScenarioConfig(
        scenario_id="detune-sweep",
        sweep=SweepSpec(0.0, 60.0, 30.0),
        dt_us=1.0 / 600.0,
        renormalize=False,
    )
    with pytest.raises(NumericalError, match=r"^detune-sweep delta=30 MHz: recorded norm drifted"):
        run_single_qubit_detuning_sweep(cfg)


# --- the swept qubit's kets, once per block --------------------------------


def test_loop_sweep_builds_swept_kets_once_per_block(monkeypatch):
    # 121 points on a 121-sample grid: a block of swept-qubit kets holds 33
    # points (LOOP_BLOCK_BYTES of 2-entry kets), so the reference and 4
    # blocks; 8-point register blocks would take 16
    cfg = loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 5.0), 450.0, 450.0))
    calls, loops = [], []
    kets, loop_kets = scenarios._qubit_kets, scenarios._loop_kets

    def spy(qubit, dtilde_mhz, s_grid):
        if qubit == 0:
            calls.append(np.asarray(dtilde_mhz).shape[0])
        return kets(qubit, dtilde_mhz, s_grid)

    def loop_spy(qubit, chi, s_grid):
        loops.append((qubit, np.shape(chi), len(s_grid)))
        return loop_kets(qubit, chi, s_grid)

    monkeypatch.setattr(scenarios, "_qubit_kets", spy)
    monkeypatch.setattr(scenarios, "_loop_kets", loop_spy)
    result = run_three_qubit_detuning_sweep(cfg)
    assert calls == [1, 33, 33, 33, 22]
    assert [column.shape for column in result.phases] == [(121,)] * 3
    # one kernel call per held qubit, for the reference and per block: the
    # echo reads the s = 1 column of each call, with no call of its own
    held = [(1, (), 121), (2, (), 121)]
    assert loops == held + [(0, (n,), 121) for n in (1, 33, 33, 33, 22)]


def test_loop_sweep_builds_no_register_array(monkeypatch):
    # the held pair is the only Kronecker product: two (121, 2) kets into
    # one (121, 4) ket, built once per sweep
    calls = []
    kron = scenarios._kron_kets
    monkeypatch.setattr(scenarios, "_kron_kets", lambda a, b: calls.append((a.shape, b.shape)) or kron(a, b))
    run_three_qubit_detuning_sweep(loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 5.0), 450.0, 450.0)))
    assert calls == [((121, 2), (121, 2))]


def test_loop_sweep_memory_stays_bounded_in_the_point_count():
    # 401 points: the grid, the pieces and the blocks all grow with the point
    # count, and the kets of a piece and the amplitudes of a block stay within
    # LOOP_BLOCK_BYTES
    cfg = loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 1.5), 450.0, 450.0))
    run_three_qubit_detuning_sweep(cfg)
    tracemalloc.start()
    try:
        result = run_three_qubit_detuning_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [column.shape for column in result.phases] == [(401,)] * 3
    assert peak <= 1_000_000


def entrywise_loop_propagators(qubit, dtilde_mhz, s_grid):
    """The batched propagators as four complex entries per sample, each
    written out, with the loop phase as a complex factor."""

    def rotations(chi, s):
        chi = np.asarray(chi, dtype=float)[..., None]
        beta = LOOP_SENSES[qubit] * LOOP_AREAS_RAD[qubit] * (1.0 / np.cos(chi)) * s
        azimuth = DIAMOND_HALF_RAD * _diamond_azimuth(s) if qubit == 2 else np.zeros_like(s)
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

    chi = np.arctan2(dtilde_mhz, TILT_SCALE_MHZ)
    ref = rotations(0.0, np.ones(1))[0, :, 0]
    act = rotations(chi, np.ones(1))[..., 0, :, 0]
    overlap = np.sum(ref.conj() * act, axis=-1)
    echo = np.where(np.abs(overlap) < 1e-12, 0.0, np.angle(overlap))
    dispersive = -math.pi * (np.sin(chi) ** 2 - LOOP_SENSES[qubit] * np.sin(2.0 * chi) / 2.0)
    return rotations(chi, s_grid) * np.exp(1j * (dispersive - echo)[..., None] * s_grid)[..., None, None]


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_qubit_kets_match_the_entrywise_formula(qubit):
    s_grid = np.linspace(0.0, 1.0, FIDELITY_SLICES + 1)
    dtilde = np.array([-1e6, -600.0, -201.22, -7.5, 0.0, 3.25, 150.0, 402.44, 1e6])
    want = entrywise_loop_propagators(qubit, dtilde, s_grid)
    # the framed kets are the propagators' first column, scalar tilts included
    unframed, phase = scenarios._qubit_kets(qubit, dtilde, s_grid)
    kets = scenarios._framed(unframed, phase, s_grid)
    assert kets.shape == (dtilde.shape[0], s_grid.shape[0], 2)
    assert np.max(np.abs(kets - want[..., 0])) <= 1e-15
    scalar, scalar_phase = scenarios._qubit_kets(qubit, float(dtilde[2]), s_grid)
    assert np.array_equal(scenarios._framed(scalar, scalar_phase, s_grid), kets[2])
    # the kets without the frame phase give the whole propagator as [[a, -b*], [b, a*]]
    got = su2(unframed) * np.exp(1j * phase[:, None] * s_grid)[..., None, None]
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(2))) < 1e-14


@settings(max_examples=40, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    qubit=st.integers(0, 2),
    dtilde=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=199),
)
def test_loop_kernel_on_random_tilts_and_grids(qubit, dtilde, fractions):
    """Random tilts on sorted grids of 2 to 200 path fractions ending at 1:
    the kets without the frame phase, framed, are the entrywise propagators'
    first column; every row is a unit ket; and the s = 1 column, which the
    echo reads, is a one-sample s = 1 evaluation bit for bit."""
    dtilde = np.array(dtilde)
    s_grid = np.append(np.sort(fractions), 1.0)
    unframed, phase = scenarios._qubit_kets(qubit, dtilde, s_grid)
    want = entrywise_loop_propagators(qubit, dtilde, s_grid)[..., 0]
    assert np.max(np.abs(scenarios._framed(unframed, phase, s_grid) - want)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(unframed, axis=-1) - 1.0)) <= 1e-12
    chi = np.arctan2(dtilde, TILT_SCALE_MHZ)
    assert np.array_equal(unframed[:, -1], scenarios._loop_kets(qubit, chi, 1.0)[:, 0])


def test_cli_loop_sweep_probe_failure_names_its_point(tmp_path, capsys, monkeypatch):
    # a NaN frame phase at delta1 = 330 MHz (dtilde -120 MHz) poisons that
    # point's final ket alone: the populations pass their gates, and the
    # probe's gate of the block that holds the point names it
    kets = scenarios._qubit_kets

    def poisoned(qubit, dtilde_mhz, s_grid):
        out, phase = kets(qubit, dtilde_mhz, s_grid)
        if qubit == 0:
            phase = np.where(np.asarray(dtilde_mhz) == -120.0, np.nan, phase)
        return out, phase

    monkeypatch.setattr(scenarios, "_qubit_kets", poisoned)
    config = tmp_path / "cfg"
    config.write_text(DEFAULT_CONFIGS["three-qubit-sweep"])
    out = tmp_path / "x"
    assert run_cli(["three-qubit-sweep", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: three-qubit-sweep delta1=330 MHz: phase magnitude holds a non-finite value\n"
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize(
    "runner, cfg, name",
    [
        (
            run_three_qubit_detuning_sweep,
            loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 5.0), 450.0, 450.0)),
            "three-qubit-sweep delta1=330 MHz",
        ),
        (
            run_three_qubit_time_evolution,
            ScenarioConfig(scenario_id="three-qubit-time", detuning_sets=((300.0, 450.0, 450.0), (330.0, 450.0, 450.0))),
            r"three-qubit-time delta=\(330, 450, 450\) MHz",
        ),
    ],
    ids=["sweep", "time"],
)
def test_register_gate_failure_names_its_point(runner, cfg, name, monkeypatch):
    # a NaN in the swept qubit's kets at delta1 = 330 MHz (dtilde -120 MHz)
    # fails the recorded-norm gate of the block that holds it
    kets = scenarios._qubit_kets

    def poisoned(qubit, dtilde_mhz, s_grid):
        out, phase = kets(qubit, dtilde_mhz, s_grid)
        if qubit == 0:
            out[np.asarray(dtilde_mhz) == -120.0, 1] = np.nan
        return out, phase

    monkeypatch.setattr(scenarios, "_qubit_kets", poisoned)
    with pytest.raises(NumericalError, match=f"^{name}: recorded norm drifted by nan"):
        runner(cfg)


def test_loop_sweep_held_pair_failure_names_the_held_detunings(monkeypatch):
    # the held pair is gated once, before any block: a NaN in the second
    # qubit's kets fails its recorded-norm gate
    kets = scenarios._qubit_kets

    def poisoned(qubit, dtilde_mhz, s_grid):
        out, phase = kets(qubit, dtilde_mhz, s_grid)
        if qubit == 1:
            out[..., 1, :] = np.nan
        return out, phase

    monkeypatch.setattr(scenarios, "_qubit_kets", poisoned)
    name = "three-qubit-sweep held delta2=450 MHz, delta3=450 MHz"
    with pytest.raises(NumericalError, match=f"^{name}: recorded norm drifted by nan"):
        run_three_qubit_detuning_sweep(loop_sweep_config())


def test_loop_sweep_normalises_the_reference_final_ket_once(monkeypatch):
    # the 4 blocks of swept kets are scored against the reference's final
    # ket: the swept factor alone, normalised once per sweep and handed to
    # every block's probe
    calls, finals = [], []
    normalized = StateVector.normalized.__func__
    monkeypatch.setattr(StateVector, "normalized", classmethod(lambda cls, v: calls.append(1) or normalized(cls, v)))
    probe = scenarios.phase_probe
    monkeypatch.setattr(scenarios, "phase_probe", lambda ref_series, ref_final, *rest: finals.append(ref_final) or probe(ref_series, ref_final, *rest))
    run_three_qubit_detuning_sweep(loop_sweep_config(detunings=(SweepSpec(0.0, 600.0, 5.0), 450.0, 450.0)))
    assert len(calls) == 1
    assert len(finals) == 4 and all(final is finals[0] for final in finals)
    assert finals[0].shape == (2,)
    assert np.linalg.norm(finals[0]) == pytest.approx(1.0, abs=1e-15)
