"""Acceptance gate: one test per shipping criterion, one report line each.

Each test prints "criterion NN PASS/FAIL: label" so a -s or failure log
carries the verdicts; the assertions carry the same facts either way.
"""

import math
import time

import numpy as np

from nvholo.cli import run_cli
from nvholo.core import hermitian_deviation, unitary_deviation, StateVector
from nvholo.evolve import (
    EvolutionConfig,
    NoiseModel,
    convergence_check,
    evolve_lindblad,
    evolve_schrodinger,
    recommended_dt,
)
from nvholo.gates import (
    DarkStateParams,
    GateParams,
    dark_states,
    holonomic_unitary,
    orthogonal_dark_state,
    rotation_axis,
    single_qubit_unitary,
)
from nvholo.hamiltonians import (
    LevelSpec,
    PulseChannel,
    PulseSet,
    build_rotating_frame_4,
    build_rotating_frame_8,
    silent_channel,
)
from nvholo.scenarios import (
    ScenarioConfig,
    SweepSpec,
    compare_resonant_fidelity,
    run_composite_gate_scenario,
    run_dark_state_spectrum,
    run_pi3_rotation,
    run_three_qubit_detuning_sweep,
    run_two_qubit_pi2,
)

DEFAULT_NOISE = NoiseModel(t1_us=100.0, t2_us=50.0, enabled=True)
NOISE_GRID_US = (20.0, 50.0, 100.0, 200.0, 500.0)


def _report(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"criterion {num:02d} {status}: {label}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def _check(failures: list, ok: bool, message: str):
    if not ok:
        failures.append(message)


def test_criterion_01_rabi_oracle():
    failures = []
    started = time.perf_counter()
    omega = 15.0
    h = np.array(
        [[0.0, math.pi * omega], [math.pi * omega, 0.0]], dtype=np.complex128
    )
    span = 0.2
    dt = recommended_dt(h, 0.0, span)
    traj = evolve_schrodinger(
        h, StateVector.basis(2, 0), EvolutionConfig(0.0, span, dt)
    )
    analytic = np.sin(math.pi * omega * traj.times) ** 2
    worst = float(np.max(np.abs(traj.populations[:, 1] - analytic)))
    _check(failures, worst <= 1e-6, f"analytic deviation {worst:.3g} > 1e-6")

    coarse = EvolutionConfig(0.0, span, 4.0 * dt)
    fine = EvolutionConfig(0.0, span, 2.0 * dt)
    err_coarse = convergence_check(h, StateVector.basis(2, 0), coarse)
    err_fine = convergence_check(h, StateVector.basis(2, 0), fine)
    ratio = err_coarse / err_fine
    _check(failures, ratio >= 8.0, f"dt-halving error ratio {ratio:.2f} < 8")

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _report(1, f"resonant drive matches sin^2 within {worst:.1e}, "
               f"halving ratio {ratio:.1f}, {elapsed:.2f}s", failures)


def test_criterion_02_two_qubit_pi2():
    failures = []
    started = time.perf_counter()
    traj = run_two_qubit_pi2(ScenarioConfig(scenario_id="two-qubit-pi2"))
    mags = np.abs(traj.amplitudes)
    target = 1.0 / math.sqrt(2.0)
    _check(failures, abs(mags[-1, 0] - target) <= 0.02,
           f"|amp1| {mags[-1, 0]:.4f} not 0.7071 +- 0.02")
    _check(failures, abs(mags[-1, 1] - target) <= 0.02,
           f"|amp2| {mags[-1, 1]:.4f} not 0.7071 +- 0.02")
    for level in (2, 3):
        _check(failures, mags[0, level] <= 0.02 and mags[-1, level] <= 0.02,
               f"|amp{level + 1}| above 0.02 at an endpoint")
    pair_gap = float(np.max(np.abs(mags[:, 2] - mags[:, 3])))
    _check(failures, pair_gap <= 1e-6, f"|amp3|-|amp4| gap {pair_gap:.2e} > 1e-6")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _report(2, f"final split {mags[-1, 0]:.4f}/{mags[-1, 1]:.4f}, "
               f"pair gap {pair_gap:.1e}, {elapsed:.2f}s", failures)


def test_criterion_03_pi3_rotation():
    failures = []
    traj = run_pi3_rotation(ScenarioConfig(scenario_id="pi3"))
    finals = np.abs(traj.amplitudes[-1])
    _check(failures, abs(finals[4] - 0.866) <= 0.02,
           f"|amp5| {finals[4]:.4f} not 0.866 +- 0.02")
    _check(failures, abs(finals[0] - 0.5) <= 0.02,
           f"|amp1| {finals[0]:.4f} not 0.5 +- 0.02")
    outside = traj.populations.sum(axis=1) - traj.populations[:, 0] - traj.populations[:, 4]
    _check(failures, float(np.max(outside)) <= 0.02,
           f"population outside the driven pair {np.max(outside):.3g} > 0.02")
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    _check(failures, drift <= 1e-6, f"norm drift {drift:.2e} > 1e-6")
    _report(3, f"|amp5| {finals[4]:.4f}, |amp1| {finals[0]:.4f}, "
               f"norm drift {drift:.1e}", failures)


def test_criterion_04_on_resonant_return():
    failures = []
    started = time.perf_counter()
    cfg = ScenarioConfig(
        scenario_id="three-qubit-sweep",
        detunings=(SweepSpec(0.0, 600.0, 600.0 / 49.0), 450.0, 450.0),
    )
    result = run_three_qubit_detuning_sweep(cfg)
    _check(failures, len(result.axis_values) == 50,
           f"expected a 50-point sweep, got {len(result.axis_values)}")
    ref = result.series["p1_reference"]
    _check(failures, abs(ref[0] - 1.0) <= 0.01,
           f"P1 at angle 0 is {ref[0]:.4f}, not 1 +- 0.01")
    _check(failures, ref[-1] <= 0.02, f"P1 at angle pi is {ref[-1]:.3g} > 0.02")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _report(4, f"reference P1 runs {ref[0]:.3f} -> {ref[-1]:.2e}, "
               f"{elapsed:.2f}s", failures)


def test_criterion_05_phase_and_discrepancy_shape():
    failures = []
    cfg = ScenarioConfig(
        scenario_id="three-qubit-sweep",
        detunings=(SweepSpec(0.0, 600.0, 15.0), 450.0, 450.0),
    )
    result = run_three_qubit_detuning_sweep(cfg)
    axis = result.axis_values
    step = axis[1] - axis[0]
    mags = np.abs(result.phases[0])
    discs = result.phases[1]

    peak = int(np.argmax(mags))
    _check(failures, abs(axis[peak] - 300.0) <= step + 1e-9,
           f"phase peak at {axis[peak]:g} MHz, not within one step of 300")

    minima = [
        i
        for i in range(1, len(axis) - 1)
        if discs[i] <= discs[i - 1] and discs[i] <= discs[i + 1]
    ]
    near_450 = [i for i in minima if abs(axis[i] - 450.0) <= step + 1e-9]
    _check(failures, bool(near_450),
           "no local discrepancy minimum within one step of 450 MHz")
    _report(5, f"phase peak at {axis[peak]:g} MHz, discrepancy minimum at "
               f"{axis[near_450[0]] if near_450 else float('nan'):g} MHz", failures)


def test_criterion_06_dark_state_suite():
    failures = []
    spectrum = run_dark_state_spectrum(ScenarioConfig(scenario_id="dark-states"))
    _check(failures, len(spectrum.dark_indices) >= 2, "fewer than 2 dark states found")
    worst = max(spectrum.leakages) if spectrum.leakages else 1.0
    _check(failures, worst <= 1e-6, f"dark leakage {worst:.2e} > 1e-6")

    dark = dark_states(DarkStateParams(), dim=8)[2]
    partner = orthogonal_dark_state(dark)
    gate = holonomic_unitary(1.3, dark, partner)
    moved = float(np.linalg.norm(gate.entries @ dark.amps - dark.amps))
    _check(failures, moved <= 1e-12, f"gate moves the dark state by {moved:.2e}")
    _report(6, f"{len(spectrum.dark_indices)} dark states, worst leakage "
               f"{worst:.1e}, gate displacement {moved:.1e}", failures)


def test_criterion_07_fidelity_ordering():
    failures = []
    cfg = ScenarioConfig(
        scenario_id="fidelity-compare",
        detunings=(450.0, 450.0, 450.0),
        noise=DEFAULT_NOISE,
    )
    off, on = compare_resonant_fidelity(cfg)
    _check(failures, off - on >= 0.05, f"gap {off - on:.3f} < 0.05")
    _check(failures, abs(off - 0.80) <= 0.05, f"off-resonant {off:.3f} not 0.80 +- 0.05")
    _check(failures, abs(on - 0.70) <= 0.05, f"on-resonant {on:.3f} not 0.70 +- 0.05")

    violations = []
    for t1 in NOISE_GRID_US:
        for t2 in NOISE_GRID_US:
            if t2 > 2.0 * t1:
                continue
            noise = NoiseModel(t1_us=t1, t2_us=t2, enabled=True)
            grid_cfg = ScenarioConfig(
                scenario_id="fidelity-compare",
                detunings=(450.0, 450.0, 450.0),
                noise=noise,
            )
            o, n = compare_resonant_fidelity(grid_cfg)
            if not o > n:
                violations.append((t1, t2))
    _check(failures, not violations, f"ordering violated at {violations}")
    _report(7, f"off {off:.4f} vs on {on:.4f}, ordering clean across "
               f"the noise grid", failures)


def test_criterion_08_composite_beats_single():
    failures = []
    cfg = ScenarioConfig(scenario_id="composite", noise=DEFAULT_NOISE)
    result = run_composite_gate_scenario(cfg)
    comp = result.fidelities["composite_max_discrepancy"]
    single = result.fidelities["single_max_discrepancy"]
    _check(failures, comp < single,
           f"composite {comp:.3e} not below single {single:.3e}")
    _report(8, f"max discrepancy composite {comp:.2e} < single {single:.2e}",
            failures)


def test_criterion_09_property_suite(tmp_path):
    failures = []
    rng = np.random.default_rng(20260822)

    # rotating-frame builders stay Hermitian
    worst_herm = 0.0
    for _ in range(20):
        def channel():
            return PulseChannel(
                rabi_mhz=float(rng.uniform(0.5, 30.0)),
                carrier_mhz=float(rng.uniform(0.0, 50.0)),
                t_center_us=float(rng.uniform(0.0, 4.0)),
                t_width_us=float(rng.uniform(0.2, 2.0)),
                phase_rad=float(rng.uniform(-math.pi, math.pi)),
            )

        spec8 = LevelSpec(dim=8, energies_mhz=tuple(rng.uniform(-30, 30, 8)))
        pulses8 = PulseSet(
            pump=(channel(), channel(), channel()),
            stokes=(channel(), channel(), channel()),
        )
        spec4 = LevelSpec(dim=4, energies_mhz=tuple(rng.uniform(-30, 30, 4)))
        pulses4 = PulseSet(pump=(channel(), silent_channel()),
                           stokes=(channel(), channel()))
        t = float(rng.uniform(0.0, 8.0))
        for h in (build_rotating_frame_8(spec8, pulses8, t),
                  build_rotating_frame_4(spec4, pulses4, t)):
            worst_herm = max(worst_herm, hermitian_deviation(h.entries))
    _check(failures, worst_herm <= 1e-12,
           f"builder hermiticity deviation {worst_herm:.2e} > 1e-12")

    # gate constructors stay unitary
    worst_unit = 0.0
    for _ in range(50):
        params = GateParams(
            theta=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            phi=float(rng.uniform(-math.pi, math.pi)),
            lam=float(rng.uniform(-3.0, 3.0)),
        )
        worst_unit = max(worst_unit, unitary_deviation(single_qubit_unitary(params).entries))
    dark = dark_states(DarkStateParams(beta=0.7, varphi=0.3), dim=8)[0]
    partner = orthogonal_dark_state(dark)
    for _ in range(10):
        gate = holonomic_unitary(float(rng.uniform(-math.pi, math.pi)), dark, partner)
        worst_unit = max(worst_unit, unitary_deviation(gate.entries))
    _check(failures, worst_unit <= 1e-12,
           f"gate unitarity deviation {worst_unit:.2e} > 1e-12")

    # Lindblad evolution keeps trace and positivity
    omega = 15.0
    h = np.array([[0.0, math.pi * omega], [math.pi * omega, 0.0]], dtype=np.complex128)
    from nvholo.core import DensityMatrix

    traj = evolve_lindblad(
        h,
        DensityMatrix.from_state(StateVector.basis(2, 0)),
        DEFAULT_NOISE,
        EvolutionConfig(0.0, 0.2, recommended_dt(h, 0.0, 0.2)),
    )
    trace_drift = float(np.max(np.abs(traj.populations.sum(axis=1) - 1.0)))
    min_eig = min(
        float(np.linalg.eigvalsh(rho)[0]) for rho in np.asarray(traj.densities)
    )
    _check(failures, trace_drift <= 1e-6, f"trace drift {trace_drift:.2e} > 1e-6")
    _check(failures, min_eig >= -1e-6, f"density eigenvalue {min_eig:.2e} < -1e-6")

    # drive axis is periodic in theta and phi with period 2*pi/3
    worst_axis = 0.0
    for _ in range(50):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        phi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        base = rotation_axis(theta, phi)
        worst_axis = max(
            worst_axis,
            float(np.max(np.abs(rotation_axis(theta + 2 * math.pi / 3, phi) - base))),
            float(np.max(np.abs(rotation_axis(theta, phi + 2 * math.pi / 3) - base))),
        )
    _check(failures, worst_axis <= 1e-12,
           f"axis periodicity deviation {worst_axis:.2e} > 1e-12")

    # reruns write byte-identical results
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = run_cli(["theta-sweep", "--out", str(out_a)])
    code_b = run_cli(["theta-sweep", "--out", str(out_b)])
    same = (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()
    _check(failures, code_a == 0 and code_b == 0, "cli run failed")
    _check(failures, same, "re-run produced different result.csv bytes")

    _report(9, f"hermiticity {worst_herm:.1e}, unitarity {worst_unit:.1e}, "
               f"trace drift {trace_drift:.1e}, axis periodicity {worst_axis:.1e}, "
               f"deterministic csv: {same}", failures)
