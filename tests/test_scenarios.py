"""Scenario runner checks.

Closed-form oracles: a resonant x pulse of area theta leaves the ground
population at cos^2(theta/2); a detuned drive follows the generalized
flopping formula P2 = Omega^2/(Omega^2+Delta^2) * sin^2(pi*sqrt(...) * t).
Register-loop expectations are pinned to the analytic loop model: the phase
magnitude saturates at pi where the loop tilt passes a quarter turn, and a
detuning triple (x, d, d) leaves only the first qubit tilted.
"""

import math

import numpy as np
import pytest

from nvholo.config import parse_config, render_config
from nvholo.core import ConfigError, NumericalError
from nvholo.evolve import NoiseModel
from nvholo.gates import GateParams
from nvholo.scenarios import (
    LOOP_DURATION_US,
    LOOP_PREP_RAD,
    MAX_SWEEP_POINTS,
    ScenarioConfig,
    SweepResult,
    SweepSpec,
    compare_resonant_fidelity,
    resolved_dt_us,
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
    _common_mode,
    _loop_duration_us,
    _loop_fidelity,
    _qubit_kraus,
    _qubit_propagators,
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
    cfg = ScenarioConfig(scenario_id="theta-sweep", initial_state=("level", 2))
    with pytest.raises(ConfigError, match="initial level must be below 2"):
        run_single_qubit_theta_sweep(cfg)


def test_config_rejects_bad_detunings():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", detunings=(0.0, 0.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", detunings=(0.0, math.nan, 0.0))


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario_id="pi3", rabi_mhz=0.0)
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


def test_sweep_result_rejects_out_of_range_series():
    with pytest.raises(ConfigError):
        SweepResult(axis_values=[0.0], series={"p1": [1.5]})
    with pytest.raises(ConfigError):
        SweepResult(axis_values=[0.0], series={"p1": [-0.2]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_result_rejects_non_finite_series(bad):
    with pytest.raises(NumericalError):
        SweepResult(axis_values=[0.0, 1.0], series={"p1": [0.5, bad]})


def test_sweep_result_series_are_read_only():
    result = SweepResult(axis_values=[0.0, 1.0], series={"p1": [0.25, 0.75]})
    with pytest.raises(ValueError):
        result.series["p1"][0] = 0.0
    with pytest.raises(ValueError):
        result.axis_values[0] = 9.0


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
    assert result.phase_estimates[idx].discrepancy == 0.0
    assert result.phase_estimates[idx].magnitude_rad == pytest.approx(0.0, abs=1e-12)


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
    mags_a = [e.magnitude_rad for e in base.phase_estimates]
    mags_b = [e.magnitude_rad for e in threaded.phase_estimates]
    assert mags_a == mags_b


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
    mags = np.array([abs(e.magnitude_rad) for e in result.phase_estimates])
    peak = int(np.argmax(mags))
    assert result.axis_values[peak] == 300.0
    assert mags[peak] == pytest.approx(math.pi, abs=1e-9)
    # the peak stands clear of its neighbors
    assert mags[peak] - mags[peak - 1] > 0.1
    assert mags[peak] - mags[peak + 1] > 0.1


def test_loop_sweep_discrepancy_dips_at_held_detuning():
    result = run_three_qubit_detuning_sweep(loop_sweep_config())
    discs = np.array([e.discrepancy for e in result.phase_estimates])
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
    cfg = ScenarioConfig(
        scenario_id="fidelity-compare", detunings=(450.0, 450.0, 450.0)
    )
    with pytest.raises(ConfigError):
        compare_resonant_fidelity(cfg)


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
    frames = [_qubit_propagators(q, float(deltas[q]) - common, s_grid) for q in range(3)]
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


# --- step resolution helper -------------------------------------------------


def test_resolved_dt_is_positive_for_integrating_scenarios():
    for scenario_id in ("theta-sweep", "detune-sweep", "composite", "two-qubit-pi2", "pi3"):
        dt = resolved_dt_us(ScenarioConfig(scenario_id=scenario_id))
        assert dt is not None and dt > 0.0


def test_resolved_dt_honors_override():
    cfg = ScenarioConfig(scenario_id="pi3", dt_us=1e-5)
    assert resolved_dt_us(cfg) == 1e-5
    assert resolved_dt_us(loop_sweep_config()) is None
