import math

import numpy as np
import pytest

import nvholo.evolve as evolve_module
from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    OperatorMatrix,
    StateVector,
)
from nvholo.evolve import (
    EvolutionConfig,
    NoiseModel,
    Trajectory,
    convergence_check,
    evolve_lindblad,
    evolve_schrodinger,
    recommended_dt,
)
from nvholo.hamiltonians import LevelSpec, PulseChannel, PulsedHamiltonian, PulseSet


def rabi_hamiltonian(omega_mhz, delta_mhz=0.0):
    return 2 * np.pi * np.array(
        [[0.0, omega_mhz / 2.0], [omega_mhz / 2.0, delta_mhz]], dtype=complex
    )


def rabi_p2(times, omega_mhz, delta_mhz=0.0):
    # analytic transfer probability for a constant 2-level drive
    w = math.sqrt(omega_mhz**2 + delta_mhz**2)
    return (omega_mhz**2 / w**2) * np.sin(np.pi * w * np.asarray(times)) ** 2


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_start_us=1.0, t_end_us=1.0, dt_us=0.1)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=2.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.1, record_stride=0)


class TestSchrodinger:
    def test_zero_hamiltonian_is_static(self):
        psi0 = StateVector.normalized([0.6, 0.8j])
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        traj = evolve_schrodinger(np.zeros((2, 2), dtype=complex), psi0, cfg)
        assert np.max(np.abs(traj.amplitudes - psi0.amps)) < 1e-12

    def test_identity_hamiltonian_only_rotates_phase(self):
        psi0 = StateVector.normalized([1.0, 1.0])
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.5, dt_us=1e-3)
        traj = evolve_schrodinger(OperatorMatrix(np.eye(2)), psi0, cfg)
        assert np.max(np.abs(traj.populations - 0.5)) < 1e-9

    def test_rabi_oracle_resonant(self):
        h = rabi_hamiltonian(15.0)
        psi0 = StateVector.basis(2, 0)
        dt = recommended_dt(h, 0.0, 1.0 / 15.0)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0 / 15.0, dt_us=dt)
        traj = evolve_schrodinger(h, psi0, cfg)
        expected = rabi_p2(traj.times, 15.0)
        assert np.max(np.abs(traj.population_series(1) - expected)) < 1e-6
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-9

    def test_rabi_full_flip(self):
        h = rabi_hamiltonian(15.0)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0 / 30.0, dt_us=1e-4)
        traj = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        assert traj.population_series(1)[-1] == pytest.approx(1.0, abs=1e-6)

    def test_rabi_detuned_half_transfer(self):
        # at delta = omega the transfer tops out at 1/2
        h = rabi_hamiltonian(15.0, delta_mhz=15.0)
        t_half = 1.0 / (30.0 * math.sqrt(2.0))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=t_half, dt_us=5e-5)
        traj = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        p2 = traj.population_series(1)
        assert p2[-1] == pytest.approx(0.5, abs=1e-6)
        assert np.max(p2) <= 0.5 + 1e-6

    def test_fourth_order_convergence(self):
        h = rabi_hamiltonian(15.0)
        psi0 = StateVector.basis(2, 0)
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0 / 15.0, dt_us=dt)
            traj = evolve_schrodinger(h, psi0, cfg)
            expected = rabi_p2(traj.times, 15.0)
            errors.append(np.max(np.abs(traj.population_series(1) - expected)))
        assert errors[0] > 1e-9  # above the floating point floor
        assert errors[0] / errors[1] >= 8.0

    def test_sampler_and_callable_sources_agree(self):
        spec = LevelSpec(dim=4, energies_mhz=(0.0, 0.0, 20.0, -20.0))
        channel = PulseChannel(rabi_mhz=3.0, t_center_us=0.5, t_width_us=0.15)
        off = PulseChannel(rabi_mhz=0.0, envelope="constant")
        ham = PulsedHamiltonian(spec, PulseSet((channel, off), (channel, off)))
        psi0 = StateVector.basis(4, 0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=1.0, dt_us=2e-4, record_stride=50
        )
        via_sampler = evolve_schrodinger(ham, psi0, cfg)
        via_callable = evolve_schrodinger(lambda t: ham(t), psi0, cfg)
        assert np.max(np.abs(via_sampler.populations - via_callable.populations)) < 1e-12

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        with pytest.raises(NumericalError):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_dimension_mismatch_rejected(self):
        h = np.zeros((4, 4), dtype=complex)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        with pytest.raises(ConfigError):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_norm_drift_rejected_at_huge_dt(self):
        h = rabi_hamiltonian(15.0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=1.0, dt_us=0.02, renormalize=False
        )
        with pytest.raises(NumericalError):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_renormalize_keeps_unit_records(self):
        h = rabi_hamiltonian(15.0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=0.5, dt_us=2e-4, record_stride=25
        )
        traj = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        assert np.max(np.abs(np.linalg.norm(traj.amplitudes, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-8

    def test_record_grid(self):
        h = np.zeros((2, 2), dtype=complex)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=1.0, dt_us=0.01, record_stride=7
        )
        traj = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert len(traj.times) == 16  # 0, 7, ..., 98, then the final step 100
        assert np.all(np.diff(traj.times) > 0)

    def test_chunking_does_not_change_results(self, monkeypatch):
        h = rabi_hamiltonian(5.0)

        def run():
            cfg = EvolutionConfig(
                t_start_us=0.0, t_end_us=0.3, dt_us=1e-3, record_stride=10
            )
            src = lambda t: h  # callable source defeats the constant fast path
            return evolve_schrodinger(src, StateVector.basis(2, 0), cfg)

        whole = run()
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 7)
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        chunked = run()
        assert np.max(np.abs(whole.populations - chunked.populations)) < 1e-13



def random_hamiltonian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.pi * (raw + raw.conj().T)


def sequential_reference(transfer, y0, n_steps, stride, renormalize, norm_of):
    """Records and pre-renormalisation norms of a plain y <- T y loop."""
    record_at = set(range(0, n_steps + 1, stride)) | {n_steps}
    y = y0.copy()
    records, norms = [y.copy()], [norm_of(y)]
    for step in range(1, n_steps + 1):
        y = transfer @ y
        if step in record_at:
            norm = norm_of(y)
            if renormalize:
                y = y / norm
            records.append(y.copy())
            norms.append(norm)
    return np.array(records), np.array(norms)


# the matrix takes the constant-H fill, the callable the time-dependent one
SOURCES = {"matrix": lambda h: h, "callable": lambda h: (lambda t: h)}


class TestConstantPropagation:
    """Both fills of _integrate against a sequential loop over the same RK4 T;
    each test runs the Hamiltonian once per entry of SOURCES."""

    N_STEPS = 60

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("stride", [1, 7, N_STEPS])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    def test_matches_sequential_loop(
        self, monkeypatch, kind, dim, stride, renormalize, chunked
    ):
        if chunked:  # 5-step chunks: boundaries both on and off the record grid
            monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        rng = np.random.default_rng(dim * 100 + stride)
        h = random_hamiltonian(rng, dim)
        psi0 = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        dt = 0.02 / float(np.max(np.abs(h)))
        cfg = EvolutionConfig(
            t_start_us=0.0,
            t_end_us=self.N_STEPS * dt,
            dt_us=dt,
            record_stride=stride,
            renormalize=renormalize,
        )
        dt = (cfg.t_end_us - cfg.t_start_us) / self.N_STEPS
        if kind == "schrodinger":
            a = -1j * h
            y0 = psi0.amps.astype(complex)

            def run(source):
                traj = evolve_schrodinger(source, psi0, cfg)
                return traj, traj.amplitudes

            def norm_of(y):
                return float(np.linalg.norm(y))

            def populations(records):
                return np.abs(records) ** 2

        else:
            noise = NoiseModel(t1_us=40.0, t2_us=30.0)
            eye = np.eye(dim)
            a = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + noise.dissipator(dim)
            y0 = DensityMatrix.from_state(psi0).entries.flatten()

            def run(source):
                traj = evolve_lindblad(source, DensityMatrix.from_state(psi0), noise, cfg)
                return traj, traj.densities.reshape(len(traj.times), -1)

            def norm_of(y):
                return float(np.real(np.trace(y.reshape(dim, dim))))

            def populations(records):
                return np.real(np.diagonal(records.reshape(-1, dim, dim), axis1=1, axis2=2))

        transfer = evolve_module._transfer_stack(a[None], a[None], a[None], dt)[0]
        records, norms = sequential_reference(
            transfer, y0, self.N_STEPS, stride, renormalize, norm_of
        )
        for name, wrap in SOURCES.items():
            traj, recorded = run(wrap(h))
            assert recorded.shape == records.shape, name
            assert np.max(np.abs(recorded - records)) < 1e-12, name
            assert np.max(np.abs(traj.populations - populations(records))) < 1e-12, name
            assert np.max(np.abs(traj.norms - norms)) < 1e-12, name

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_drift_failure_names_first_offending_step(self, monkeypatch, stride, chunked):
        if chunked:
            monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        h = rabi_hamiltonian(15.0)
        dt = 0.008  # coarse enough that the unrenormalised norm decays
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=2.0, dt_us=dt, record_stride=stride, renormalize=False
        )
        transfer = evolve_module._transfer_stack(
            -1j * h[None], -1j * h[None], -1j * h[None], dt
        )[0]
        chunk = evolve_module._chunk_steps(2)
        y = np.array([1.0, 0.0], dtype=complex)
        first = None
        for step in range(1, 251):
            y = transfer @ y
            checked = step % stride == 0 or step % chunk == 0
            if checked and abs(np.linalg.norm(y) - 1.0) > evolve_module.MAX_NORM_DRIFT:
                first = step
                break
        assert first is not None
        for wrap in SOURCES.values():
            with pytest.raises(NumericalError, match=f"at step {first} "):
                evolve_schrodinger(wrap(h), StateVector.basis(2, 0), cfg)

    def test_overflow_between_records_raises(self):
        # the state overflows to inf/NaN long before the only record at step
        # 5000; NaN must fail the drift gate, not slip past it
        h = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=50.0, dt_us=0.01, record_stride=5000)
        with pytest.raises(NumericalError, match="at step 5000 "):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_overflow_inside_a_chunk_raises_at_its_boundary(self, monkeypatch):
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 300)
        h = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=50.0, dt_us=0.01, record_stride=5000)
        with pytest.raises(NumericalError, match="at step 300 "):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_overflow_raises_for_lindblad(self):
        h = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho0 = DensityMatrix.from_state(StateVector.basis(2, 0))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=50.0, dt_us=0.01, record_stride=5000)
        with pytest.raises(NumericalError):
            evolve_lindblad(h, rho0, NoiseModel(), cfg)


class TestNoiseModel:
    def test_rejects_unphysical_t2(self):
        with pytest.raises(ConfigError):
            NoiseModel(t1_us=100.0, t2_us=300.0)

    def test_rejects_non_positive_times(self):
        with pytest.raises(ConfigError):
            NoiseModel(t1_us=0.0, t2_us=50.0)
        with pytest.raises(ConfigError):
            NoiseModel(t1_us=100.0, t2_us=-1.0)

    def test_rates(self):
        gamma1, gamma_phi = NoiseModel(t1_us=100.0, t2_us=50.0).rates()
        assert gamma1 == pytest.approx(0.01, abs=1e-15)
        assert gamma_phi == pytest.approx(0.02 - 0.005, abs=1e-15)

    def test_infinite_times_disable_channels(self):
        assert NoiseModel(t1_us=math.inf, t2_us=math.inf).rates() == (0.0, 0.0)
        assert NoiseModel(t1_us=math.inf, t2_us=math.inf).lindblad_operators(2) == ()

    def test_single_qubit_operators(self):
        ops = NoiseModel(t1_us=100.0, t2_us=100.0).lindblad_operators(2)
        assert len(ops) == 2
        lower, deph = ops
        assert lower[0, 1] == pytest.approx(0.1, abs=1e-15)  # sqrt(1/100)
        assert np.count_nonzero(lower) == 1
        assert deph[0, 0] == pytest.approx(0.05, abs=1e-15)  # sqrt(0.005/2)
        assert deph[1, 1] == pytest.approx(-0.05, abs=1e-15)

    def test_first_qubit_acts_on_leading_bit(self):
        ops = NoiseModel(t1_us=100.0, t2_us=200.0).lindblad_operators(8)
        lower = ops[0]  # first qubit damping: clears the weight-4 bit
        expected_pairs = {(0, 4), (1, 5), (2, 6), (3, 7)}
        pairs = {tuple(idx) for idx in np.argwhere(np.abs(lower) > 0)}
        assert pairs == expected_pairs


class TestLindblad:
    def test_amplitude_damping_closed_form(self):
        rho0 = DensityMatrix.from_state(StateVector.basis(2, 1))
        noise = NoiseModel(t1_us=100.0, t2_us=200.0)  # pure damping
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=100.0, dt_us=0.05, record_stride=40
        )
        traj = evolve_lindblad(np.zeros((2, 2), complex), rho0, noise, cfg)
        expected = np.exp(-traj.times / 100.0)
        assert np.max(np.abs(traj.population_series(1) - expected)) < 1e-6

    def test_dephasing_closed_form(self):
        plus = StateVector.normalized([1.0, 1.0])
        rho0 = DensityMatrix.from_state(plus)
        noise = NoiseModel(t1_us=math.inf, t2_us=50.0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=50.0, dt_us=0.05, record_stride=50
        )
        traj = evolve_lindblad(np.zeros((2, 2), complex), rho0, noise, cfg)
        coherences = np.abs(traj.densities[:, 0, 1])
        assert np.max(np.abs(coherences - 0.5 * np.exp(-traj.times / 50.0))) < 1e-6

    def test_combined_channels_decay_at_total_rate(self):
        plus = StateVector.normalized([1.0, 1.0])
        rho0 = DensityMatrix.from_state(plus)
        noise = NoiseModel(t1_us=100.0, t2_us=50.0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=20.0, dt_us=0.02, record_stride=100
        )
        traj = evolve_lindblad(np.zeros((2, 2), complex), rho0, noise, cfg)
        coherences = np.abs(traj.densities[:, 0, 1])
        assert np.max(np.abs(coherences - 0.5 * np.exp(-traj.times / 50.0))) < 1e-6

    def test_three_qubit_damping_rate_adds(self):
        rho0 = DensityMatrix.from_state(StateVector.basis(8, 7))  # all excited
        noise = NoiseModel(t1_us=100.0, t2_us=200.0)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=20.0, dt_us=0.02, record_stride=100
        )
        traj = evolve_lindblad(np.zeros((8, 8), complex), rho0, noise, cfg)
        expected = np.exp(-3.0 * traj.times / 100.0)
        assert np.max(np.abs(traj.population_series(7) - expected)) < 1e-6

    def test_trace_preserved_and_positive_under_drive(self):
        rng = np.random.default_rng(77)
        noise = NoiseModel(t1_us=40.0, t2_us=30.0)
        for dim in (2, 4):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = np.pi * (raw + raw.conj().T)
            rho0 = DensityMatrix.from_state(StateVector.basis(dim, 0))
            cfg = EvolutionConfig(
                t_start_us=0.0, t_end_us=5.0, dt_us=5e-4, record_stride=200
            )
            traj = evolve_lindblad(h, rho0, noise, cfg)
            traces = np.real(np.trace(traj.densities, axis1=1, axis2=2))
            assert np.max(np.abs(traces - 1.0)) < 1e-6
            for rho in traj.densities:
                eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
                assert eigs[0] >= -1e-6

    def test_zero_noise_limit_matches_schrodinger(self):
        h = rabi_hamiltonian(15.0)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0 / 15.0, dt_us=1e-4)
        pure = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        noise = NoiseModel(t1_us=1e9, t2_us=1e9)
        rho0 = DensityMatrix.from_state(StateVector.basis(2, 0))
        noisy = evolve_lindblad(h, rho0, noise, cfg)
        assert np.max(np.abs(pure.populations - noisy.populations)) < 1e-5

    def test_disabled_noise_rejected(self):
        noise = NoiseModel(enabled=False)
        rho0 = DensityMatrix.from_state(StateVector.basis(2, 0))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        with pytest.raises(ConfigError):
            evolve_lindblad(np.zeros((2, 2), complex), rho0, noise, cfg)


class TestConvergenceCheck:
    def test_zero_hamiltonian(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        value = convergence_check(
            np.zeros((2, 2), complex), StateVector.basis(2, 0), cfg
        )
        assert value == 0.0

    def test_smooth_pulse_at_recommended_dt(self):
        def pulse(t):
            drive = 5.0 * math.exp(-((t - 0.5) ** 2) / (2 * 0.1**2))
            return rabi_hamiltonian(drive)

        dt = recommended_dt(pulse, 0.0, 1.0)
        psi0 = StateVector.basis(2, 0)
        fine = convergence_check(
            pulse, psi0, EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=dt)
        )
        assert fine <= 1e-6
        coarse = convergence_check(
            pulse,
            psi0,
            EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=10 * dt),
        )
        assert coarse > fine

    def test_recommended_dt_value(self):
        h = rabi_hamiltonian(15.0)
        dt = recommended_dt(h, 0.0, 1.0)
        assert dt == pytest.approx(1.0 / (200.0 * np.pi * 15.0), rel=1e-12)


class TestTrajectory:
    def test_state_accessors(self):
        h = rabi_hamiltonian(15.0)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0 / 30.0, dt_us=1e-4)
        traj = evolve_schrodinger(h, StateVector.basis(2, 0), cfg)
        assert traj.dim == 2
        assert traj.state(0).population(0) == pytest.approx(1.0, abs=1e-12)
        assert traj.final_state.population(1) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_drifted_records(self):
        times = np.array([0.0, 1.0])
        amps = np.array([[1.0, 0.0], [1.001, 0.0]], dtype=complex)
        pops = np.abs(amps) ** 2
        with pytest.raises(NumericalError):
            Trajectory(times=times, populations=pops, amplitudes=amps)

    def test_rejects_non_finite_records(self):
        times = np.array([0.0, 1.0])
        amps = np.array([[1.0, 0.0], [np.nan, 0.0]], dtype=complex)
        with pytest.raises(NumericalError):
            Trajectory(times=times, populations=np.abs(amps) ** 2, amplitudes=amps)

    def test_rejects_non_monotonic_times(self):
        times = np.array([0.0, 0.0])
        amps = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ConfigError):
            Trajectory(times=times, populations=np.abs(amps) ** 2, amplitudes=amps)
