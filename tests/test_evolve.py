import dataclasses
import functools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

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


class Terms:
    """A terms source H(t) = sum_k c_k(t) B_k: a basis and a function of the
    times giving the real (n, K) coefficients, by default the one column of
    ones, so that Terms([h]) is a constant h on the time-dependent path."""

    def __init__(self, basis, coefficients=lambda times: np.ones((times.shape[0], 1))):
        self.basis, self.coefficients = np.asarray(basis, dtype=complex), coefficients

    def terms(self):
        return self.basis

    def sample(self, times):
        return np.tensordot(self.coefficients(np.asarray(times, dtype=float)), self.basis, axes=1)


def constant_and(*columns):
    """Coefficients 1, then each function of the times given."""
    return lambda times: np.stack([np.ones_like(times)] + [f(times) for f in columns], axis=-1)


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

    def test_plan_is_derived_from_the_five_inputs(self):
        # equality, hashing and repr take the inputs alone, and replace()
        # plans again
        cfg = EvolutionConfig(0.0, 1.0, 0.003, record_stride=7)
        assert (cfg.n_steps, cfg.step_us) == (333, 1.0 / 333)
        assert cfg.record_steps[-2:].tolist() == [329, 333] and not cfg.record_steps.flags.writeable
        same = EvolutionConfig(0.0, 1.0, 0.003, 7)
        assert cfg == same and hash(cfg) == hash(same)
        assert repr(cfg) == "EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.003, record_stride=7, renormalize=True)"
        assert dataclasses.replace(cfg, dt_us=0.5).n_steps == 2

    def test_step_count_is_capped(self, monkeypatch):
        # a step far below the span is a config error before anything is
        # allocated, for a span/dt that overflows to inf too
        h, start = rabi_hamiltonian(1.0), StateVector.basis(2, 0)
        for dt in (1e-12, 5e-324):
            with pytest.raises(ConfigError, match=f"more than {evolve_module.MAX_STEPS} steps"):
                evolve_schrodinger(h, start, EvolutionConfig(0.0, 1.0, dt))
        monkeypatch.setattr(evolve_module, "MAX_STEPS", 100)
        assert len(evolve_schrodinger(h, start, EvolutionConfig(0.0, 1.0, 0.01)).times) == 101
        with pytest.raises(ConfigError, match="more than 100 steps"):
            evolve_schrodinger(Terms([h]), start, EvolutionConfig(0.0, 1.0, 0.0099))
        # any run of a ragged call: its config fails when it is built
        with pytest.raises(ConfigError, match="more than 100 steps"):
            cfgs = [EvolutionConfig(0.0, 1.0, 0.01), EvolutionConfig(0.0, 1.0, 0.0099)]
            evolve_lindblad(np.stack([h, h]), DensityMatrix.from_state(start), NOISE, cfgs)


PLANS = st.tuples(
    st.floats(-10.0, 10.0),  # t_start_us
    st.floats(1e-3, 5.0),  # span_us
    st.floats(1.0, 300.0),  # span / dt
    st.integers(1, 40),  # record_stride
)


def planned_config(plan) -> EvolutionConfig:
    t_start, span, steps, stride = plan
    t_end = t_start + span
    return EvolutionConfig(t_start, t_end, (t_end - t_start) / steps, record_stride=stride)


def assert_reports_its_plan(times, cfg):
    """The plan, checked from its definition, and the trajectory's times
    equal to t_start + step_us * record_steps, bit for bit."""
    span = cfg.t_end_us - cfg.t_start_us
    assert cfg.n_steps == max(1, round(span / cfg.dt_us))
    assert cfg.step_us == span / cfg.n_steps
    steps = cfg.record_steps
    assert steps[0] == 0 and steps[-1] == cfg.n_steps
    gaps = np.diff(steps)
    assert np.all(gaps[:-1] == cfg.record_stride) and 0 < gaps[-1] <= cfg.record_stride
    assert times.shape == steps.shape
    assert np.array_equal(times, cfg.t_start_us + cfg.step_us * steps)


@settings(max_examples=30, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(plan=PLANS, ragged=st.lists(PLANS, min_size=2, max_size=3))
def test_trajectory_times_are_the_configs_plan(plan, ragged):
    # a slow drive: the times do not depend on H, and the drift gate passes
    h, start = 0.01 * rabi_hamiltonian(1.0, 0.5), StateVector.basis(2, 0)
    cfg = planned_config(plan)
    for source in (h, np.stack([h, -h]), Terms([h])):
        assert_reports_its_plan(evolve_schrodinger(source, start, cfg).times, cfg)
    # a ragged call carries no times: each run's count of records is its plan's
    cfgs = [planned_config(p) for p in ragged]
    result = evolve_schrodinger(np.stack([h] * len(cfgs)), start, cfgs)
    assert result.counts.tolist() == [len(cfg.record_steps) for cfg in cfgs]
    assert result.states.shape[1] == max(result.counts)


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
            # a one-term source takes the time-dependent path
            return evolve_schrodinger(Terms([h]), StateVector.basis(2, 0), cfg)

        whole = run()
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 7)
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        chunked = run()
        assert np.max(np.abs(whole.populations - chunked.populations)) < 1e-13



def random_hamiltonian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.pi * (raw + raw.conj().T)


def sequential_reference(transfers, y0, stride, renormalize, norm_of):
    """Records and pre-renormalisation norms of a plain y <- T[k] y loop over
    a stack of per-step transfers."""
    n_steps = len(transfers)
    record_at = set(range(0, n_steps + 1, stride)) | {n_steps}
    y = y0.copy()
    records, norms = [y.copy()], [norm_of(y)]
    for step in range(1, n_steps + 1):
        y = transfers[step - 1] @ y
        if step in record_at:
            norm = norm_of(y)
            if renormalize:
                y = y / norm
            records.append(y.copy())
            norms.append(norm)
    return np.array(records), np.array(norms)


# the matrix takes the constant-H fill, the one-term source the time-dependent one
SOURCES = {"matrix": lambda h: h, "terms": lambda h: Terms([h])}


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
        # 5-step chunks: the constant fill's ends fall on and off the record
        # grid; the terms path cuts 7- and 60-step intervals into pieces
        if chunked:
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

        transfer = evolve_module._constant_transfer(a, dt)
        transfers = np.broadcast_to(transfer, (self.N_STEPS,) + transfer.shape)
        records, norms = sequential_reference(transfers, y0, stride, renormalize, norm_of)
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
        transfer = evolve_module._constant_transfer(-1j * h, dt)
        # only records are checked, so the chunks (plain ones for the
        # constant fill, whole record intervals on the terms path) do not
        # move the named step
        y = np.array([1.0, 0.0], dtype=complex)
        first = None
        for step in range(1, 251):
            y = transfer @ y
            checked = step % stride == 0 or step == 250
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

    def test_overflow_inside_a_chunk_raises_at_the_next_record(self, monkeypatch):
        # 300-step chunks: the state overflows in the first, and the gate
        # names the record at step 5000 as it does in one chunk
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 300)
        h = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=50.0, dt_us=0.01, record_stride=5000)
        with pytest.raises(NumericalError, match=r"drifted to (nan|inf) at step 5000 \(t=50 us\)"):
            evolve_schrodinger(h, StateVector.basis(2, 0), cfg)

    def test_overflow_raises_for_lindblad(self):
        h = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho0 = DensityMatrix.from_state(StateVector.basis(2, 0))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=50.0, dt_us=0.01, record_stride=5000)
        with pytest.raises(NumericalError):
            evolve_lindblad(h, rho0, NoiseModel(), cfg)


class TestBatchedPropagation:
    """A batched call against one unbatched call per run: one Hamiltonian with
    several starts (as a matrix or a one-term source), or a stack of constant
    Hamiltonians with one start."""

    N_STEPS = 40
    RUNS = 3

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    @pytest.mark.parametrize("axis", ["starts", "starts-terms", "hamiltonians"])
    def test_batch_matches_per_run(
        self, monkeypatch, axis, kind, dim, stride, renormalize, chunked
    ):
        if chunked:
            monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        rng = np.random.default_rng(dim * 10 + stride)
        hs = [random_hamiltonian(rng, dim) for _ in range(self.RUNS)]
        starts = [
            StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            for _ in range(self.RUNS)
        ]
        dt = 0.02 / max(float(np.max(np.abs(h))) for h in hs)
        cfg = EvolutionConfig(
            t_start_us=0.0,
            t_end_us=self.N_STEPS * dt,
            dt_us=dt,
            record_stride=stride,
            renormalize=renormalize,
        )
        noise = NoiseModel(t1_us=40.0, t2_us=30.0)
        if kind == "schrodinger":
            def run(h, start):
                traj = evolve_schrodinger(h, start, cfg)
                return traj, traj.amplitudes

            def state(psi):
                return psi

            def stack(psis):
                return np.stack([psi.amps for psi in psis])
        else:
            def run(h, start):
                traj = evolve_lindblad(h, start, noise, cfg)
                return traj, traj.densities

            def state(psi):
                return DensityMatrix.from_state(psi)

            def stack(psis):
                return np.stack([state(psi).entries for psi in psis])

        if axis == "hamiltonians":
            batched, records = run(np.stack(hs), state(starts[0]))
            runs = [(h, state(starts[0])) for h in hs]
        else:
            source = hs[0] if axis == "starts" else Terms([hs[0]])
            batched, records = run(source, stack(starts))
            runs = [(source, state(psi)) for psi in starts]
        n_records = len(batched.times)
        assert records.shape[:2] == (self.RUNS, n_records)
        assert batched.populations.shape == (self.RUNS, n_records, dim)
        assert batched.norms.shape == (self.RUNS, n_records)
        for b, (h, start) in enumerate(runs):
            single, single_records = run(h, start)
            assert np.array_equal(single.times, batched.times)
            assert np.max(np.abs(records[b] - single_records)) < 1e-12
            assert np.max(np.abs(batched.populations[b] - single.populations)) < 1e-12
            assert np.max(np.abs(batched.norms[b] - single.norms)) < 1e-12

    def test_drift_failure_names_member_and_its_step(self):
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=2.0, dt_us=0.008, renormalize=False
        )
        calm, drifting, faster = (rabi_hamiltonian(f) for f in (1.0, 15.0, 25.0))
        start = StateVector.basis(2, 0)
        steps = {}
        for name, h in (("drifting", drifting), ("faster", faster)):
            with pytest.raises(NumericalError) as single:
                evolve_schrodinger(h, start, cfg)
            steps[name] = int(re.search(r"at step (\d+) ", str(single.value)).group(1))
        assert steps["faster"] < steps["drifting"]
        with pytest.raises(NumericalError, match=f"run 2: .*at step {steps['drifting']} ") as err:
            evolve_schrodinger(np.stack([calm, calm, drifting, calm]), start, cfg)
        assert err.value.member == 2
        # the earliest failing step wins, whichever member it belongs to
        with pytest.raises(NumericalError, match=f"run 3: .*at step {steps['faster']} ") as err:
            evolve_schrodinger(np.stack([calm, drifting, calm, faster]), start, cfg)
        assert err.value.member == 3
        starts = np.stack([start.amps, start.amps])
        with pytest.raises(NumericalError, match=f"run 0: .*at step {steps['drifting']} "):
            evolve_schrodinger(drifting, starts, cfg)

    def test_unbatched_failure_names_no_member(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=2.0, dt_us=0.008, renormalize=False)
        with pytest.raises(NumericalError) as err:
            evolve_schrodinger(rabi_hamiltonian(15.0), StateVector.basis(2, 0), cfg)
        assert err.value.member is None
        assert str(err.value).startswith("norm drifted")

    def test_rejects_mismatched_batches(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.1, dt_us=0.01)
        hs = np.stack([rabi_hamiltonian(1.0)] * 3)
        starts = np.stack([StateVector.basis(2, 0).amps] * 2)
        with pytest.raises(ConfigError):
            evolve_schrodinger(hs, starts, cfg)

    @pytest.mark.parametrize(
        "starts",
        [
            [[1.0, 0.0], [0.6, 0.7]],  # second row not normalised
            [[1.0, 0.0], [np.nan, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # no register has 3 levels
        ],
    )
    def test_rejects_invalid_start_rows(self, starts):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.1, dt_us=0.01)
        with pytest.raises(ConfigError):
            evolve_schrodinger(np.zeros((2, 2)), np.asarray(starts, dtype=complex), cfg)

    def test_rejects_invalid_density_rows(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.1, dt_us=0.01)
        good = DensityMatrix.from_state(StateVector.basis(2, 0)).entries
        for bad in (np.diag([1.5, -0.5]), np.array([[0.5, 0.5], [0.0, 0.5]]), 2.0 * good):
            with pytest.raises(ConfigError):
                evolve_lindblad(np.zeros((2, 2)), np.stack([good, bad]), NoiseModel(), cfg)

    def test_chunk_budget_counts_the_batch(self):
        # a step holds a complex state per run and, for a terms source of K
        # terms, its share of the workspace that _workspace allocates for the
        # chunk, in real form up to REAL_FORM_MAX_DIM; the scaled basis and
        # the polynomial are held once. Only the 16-step floor may exceed the
        # budget. A source whose polynomial is over POLYNOMIAL_MAX_BYTES, here
        # K = 3 at y_dim 64 (a dim-8 Lindblad source), is refused before any
        # workspace is built
        budget = evolve_module.TRANSFER_CHUNK_BYTES
        refused = set()
        for y_dim in (2, 4, 16, 64):
            real = y_dim <= evolve_module.REAL_FORM_MAX_DIM
            side, dtype = (2 * y_dim, float) if real else (y_dim, complex)
            for batch in (1, 7, 32):
                for n_terms in (0, 1, 2, 3):
                    if n_terms and evolve_module._polynomial_bytes(y_dim, n_terms) > evolve_module.POLYNOMIAL_MAX_BYTES:
                        refused.add((y_dim, n_terms))
                        continue
                    steps = evolve_module._chunk_steps(y_dim, batch, n_terms, 1)
                    held = steps * batch * y_dim * 16
                    if n_terms:
                        matrices = np.zeros((n_terms, side, side), dtype)
                        ws = evolve_module._workspace(matrices, steps, 1, np.empty((batch, y_dim), complex))
                        held = matrices.nbytes + sum(a.nbytes for a in ws)
                    assert held <= budget or steps == 16
                    assert steps <= evolve_module._chunk_steps(y_dim, 1, n_terms, 1)
        assert refused == {(64, 3)}


def schrodinger_parts():
    """lift and measure of the Schrodinger equation, for calls to _integrate
    that leave out evolve_schrodinger's recorded-norm gate."""

    def lift(stack):
        return -1j * stack

    def measure(y, out=None):
        pops = np.square(y.real, out=out)
        pops += np.square(y.imag)
        return np.sqrt(pops.sum(axis=-1)), pops

    return lift, measure


def assert_matches_per_run_calls(result, singles, field):
    """Each run of a ragged result against its own unbatched call, to
    1e-12: its count, its records, norms and populations, and the rows past
    its end, which copy its last record."""
    assert result.counts.tolist() == [len(single.times) for single in singles]
    for r, (count, single) in enumerate(zip(result.counts, singles)):
        pairs = ((result.states, getattr(single, field)), (result.norms, single.norms), (result.populations, single.populations))
        for got, want in pairs:
            assert np.max(np.abs(got[r, :count] - want)) < 1e-12
            assert np.array_equal(got[r, count:], np.broadcast_to(got[r, count - 1], got[r, count:].shape))


class TestRaggedPropagation:
    """A stack of constant Hamiltonians (or one shared by every run) with one
    EvolutionConfig per run, against one unbatched call per run. Runs 1 and 2
    share a config, and one gate takes every run's records."""

    STEPS = (23, 40, 40, 9)
    STARTS_US = (0.0, 0.3, 0.3, -0.1)
    DT_SCALES = (1.0, 1.25, 1.25, 0.8)
    MIXED_RENORMALIZE = (True, False, False, True)

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("renormalize", [True, False, "mixed"])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    def test_matches_per_run_calls(self, monkeypatch, kind, dim, stride, renormalize, chunked):
        if chunked:  # 5-step chunks: the runs end in different chunks
            monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        rng = np.random.default_rng(dim * 10 + stride)
        hs = [random_hamiltonian(rng, dim) for _ in self.STEPS]
        starts = [
            StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            for _ in self.STEPS
        ]
        base = 0.02 / max(float(np.max(np.abs(h))) for h in hs)
        cfgs = []
        for run, (n_steps, t0) in enumerate(zip(self.STEPS, self.STARTS_US)):
            dt = base * self.DT_SCALES[run]
            renorm = self.MIXED_RENORMALIZE[run] if renormalize == "mixed" else renormalize
            cfgs.append(EvolutionConfig(t0, t0 + n_steps * dt, dt, stride, renorm))
        assert cfgs[1] == cfgs[2]
        noise = NoiseModel(t1_us=40.0, t2_us=30.0)
        if kind == "schrodinger":
            def run(h, start, cfg):
                return evolve_schrodinger(h, start, cfg)

            def stack(psis):
                return np.stack([psi.amps for psi in psis])

            def state(psi):
                return psi
        else:
            def run(h, start, cfg):
                return evolve_lindblad(h, start, noise, cfg)

            def stack(psis):
                return np.stack([DensityMatrix.from_state(psi).entries for psi in psis])

            def state(psi):
                return DensityMatrix.from_state(psi)

        field = "amplitudes" if kind == "schrodinger" else "densities"
        for stacked in (True, False):
            result = run(np.stack(hs) if stacked else hs[0], stack(starts), cfgs)
            singles = [run(hs[r] if stacked else hs[0], state(start), cfg) for r, (start, cfg) in enumerate(zip(starts, cfgs))]
            assert_matches_per_run_calls(result, singles, field)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_drift_failure_names_lowest_run_at_earliest_step(self, stride):
        # stride 1 fills the records directly, stride 7 gathers each block's
        # checked steps; a single run checks the same steps in both
        start = StateVector.basis(2, 0)

        def cfg(span_us, dt=0.008):
            return EvolutionConfig(
                t_start_us=0.0, t_end_us=span_us, dt_us=dt, record_stride=stride, renormalize=False
            )

        calm, drifting, faster = (rabi_hamiltonian(f) for f in (1.0, 15.0, 25.0))
        steps = {}
        for name, h in (("drifting", drifting), ("faster", faster)):
            with pytest.raises(NumericalError) as single:
                evolve_schrodinger(h, start, cfg(2.0))
            steps[name] = int(re.search(r"at step (\d+) ", str(single.value)).group(1))
        assert steps["faster"] < steps["drifting"]
        # runs 1 and 2 fail at the same step under their own spans: the lower wins
        hs = np.stack([calm, drifting, drifting, calm])
        cfgs = [cfg(0.5, 0.004), cfg(1.6), cfg(2.0), cfg(1.0, 0.005)]
        with pytest.raises(NumericalError, match=f"run 1: .*at step {steps['drifting']} ") as err:
            evolve_schrodinger(hs, start, cfgs)
        assert err.value.member == 1
        # the earliest failing step wins, whichever run it belongs to
        hs = np.stack([calm, drifting, calm, faster])
        cfgs = [cfg(0.5, 0.004), cfg(1.6), cfg(1.0, 0.005), cfg(2.0)]
        with pytest.raises(NumericalError, match=f"run 3: .*at step {steps['faster']} ") as err:
            evolve_schrodinger(hs, start, cfgs)
        assert err.value.member == 3

    @pytest.mark.parametrize("stride", [1, 2])
    def test_drift_after_a_runs_end_is_not_its_own(self, stride):
        # an RK4 step of |lambda| dt just above 2 sqrt(2) grows the norm
        # slowly; without renormalisation it crosses the gate at step
        # `cross`, and the gate sees it at the first checked step after
        lift, measure = schrodinger_parts()
        w = 2.0 * math.pi
        grow = np.array([[0.0, w], [w, 0.0]], dtype=complex)
        dt = math.sqrt(8.0 + 6e-5) / w
        a = -1j * grow
        transfer = evolve_module._constant_transfer(a, dt)
        y = np.array([1.0, 0.0], dtype=complex)
        cross = next(
            step for step in range(1, 10_000)
            if abs(np.linalg.norm(y := transfer @ y) - 1.0) > evolve_module.MAX_NORM_DRIFT
        )
        assert cross > 10
        calm = rabi_hamiltonian(0.5)
        y0 = np.array([1.0, 0.0], dtype=complex)
        ends = (cross - 3, 3 * cross)
        cfgs = [
            EvolutionConfig(0.0, ends[0] * dt, dt, record_stride=stride, renormalize=False),
            EvolutionConfig(0.0, ends[1] * 0.001, 0.001, renormalize=False),
        ]
        hs = np.stack([grow, calm])
        counts, _, norms, _ = evolve_module._integrate(hs, lift, y0, cfgs, 2, measure)
        single = evolve_module._integrate(grow, lift, y0, cfgs[0], 2, measure)
        assert counts[0] == len(single[0])
        assert np.max(np.abs(norms[0, : counts[0]] - single[2])) < 1e-12
        # the rows past its end copy its last record, within the gate
        assert np.max(np.abs(norms[0] - 1.0)) <= evolve_module.MAX_NORM_DRIFT
        # the same run two steps past the crossing fails there
        cfgs[0] = EvolutionConfig(0.0, (cross + 2) * dt, dt, record_stride=stride, renormalize=False)
        seen = cross + (-cross) % stride
        with pytest.raises(NumericalError, match=f"at step {seen} ") as err:
            evolve_module._integrate(hs, lift, y0, cfgs, 2, measure)
        assert err.value.member == 0

    # |lambda| dt = sqrt(8 + 2e-7): each unrenormalised step grows the norm
    # by about 8.9e-8, so 5 steps drift by 4.4e-7, 100 by 8.9e-6 and
    # 30,000 by 2.7e-3
    GROW = np.array([[0.0, 2.0 * math.pi], [2.0 * math.pi, 0.0]], dtype=complex)
    GROW_DT = math.sqrt(8.0 + 2e-7) / (2.0 * math.pi)

    def grow_config(self, steps):
        return EvolutionConfig(0.0, steps * self.GROW_DT, self.GROW_DT, renormalize=False)

    def test_rows_past_a_runs_end_copy_its_last_record(self):
        # every step recorded, so the doubling fills the records themselves
        # past the short run's end, where it would drift past the 1e-3 gate
        # by the long run's end; the call passes, as its padding copies the
        # short run's last record
        calm, start = rabi_hamiltonian(0.5), StateVector.basis(2, 0)
        cfgs = [self.grow_config(5), EvolutionConfig(0.0, 30.0, 0.001, renormalize=False)]
        transfer = evolve_module._constant_transfer(-1j * self.GROW, self.GROW_DT)
        assert abs(np.linalg.norm(np.linalg.matrix_power(transfer, 30_000)[:, 0]) - 1.0) > evolve_module.MAX_NORM_DRIFT
        result = evolve_schrodinger(np.stack([self.GROW, calm]), start, cfgs)
        assert result.counts.tolist() == [len(cfg.record_steps) for cfg in cfgs] == [6, 30_001]
        single = evolve_schrodinger(self.GROW, start, cfgs[0])
        assert np.max(np.abs(result.states[0, :6] - single.amplitudes)) < 1e-12
        for padded in (result.states, result.norms, result.populations):
            assert np.array_equal(padded[0, 6:], np.broadcast_to(padded[0, 5], padded[0, 6:].shape))
        assert not result.states.flags.writeable

    def test_recorded_gate_names_the_runs_index_in_the_call(self):
        # unrenormalised runs within the 1e-3 drift gate: a grown run's
        # recorded norm fails the 1e-6 gate, in the third of four blocks
        calm, start = rabi_hamiltonian(0.5), StateVector.basis(2, 0)
        short, long = (EvolutionConfig(0.0, span, 0.001, renormalize=False) for span in (0.05, 0.2))
        cfgs = [short, long, self.grow_config(100), long]
        with pytest.raises(NumericalError, match=r"^run 2: recorded norm drifted by 8\.89e-06 \(> 1e-06\)") as err:
            evolve_schrodinger(np.stack([calm, calm, self.GROW, calm]), start, cfgs)
        assert err.value.member == 2
        # two failing runs: the lower is named, though the higher drifts further
        cfgs[3] = self.grow_config(1000)
        with pytest.raises(NumericalError, match=r"^run 2: recorded norm drifted by 8\.89e-06") as err:
            evolve_schrodinger(np.stack([calm, calm, self.GROW, self.GROW]), start, cfgs)
        assert err.value.member == 2
        # the norm check comes first: run 3's drift is named before run 0's
        # negative population, which is named once the norms pass
        cfgs[2:] = [long, short]
        good = evolve_schrodinger(calm, start, cfgs)
        pops = good.populations.copy()
        pops[0, 1, 0] = -1e-3
        drifted = good.states.copy()
        drifted[3] *= 1.0 + 1e-5
        out = (good.counts, drifted, good.norms, pops)
        with pytest.raises(NumericalError, match=r"^run 3: recorded norm drifted"):
            evolve_module._result(out, cfgs, "amplitudes", (2,))
        with pytest.raises(NumericalError, match=r"^run 0: recorded population fell to -0\.001") as err:
            evolve_module._result(out[:1] + (good.states,) + out[2:], cfgs, "amplitudes", (2,))
        assert err.value.member == 0

    @pytest.mark.parametrize("stride", [1, 5000])
    def test_overflow_fails_closed_and_names_its_run(self, stride):
        # run 1 overflows to inf and NaN between its checks when they are
        # sparse; the calm runs around it end earlier or later
        blowup = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        calm = rabi_hamiltonian(1.0)
        cfgs = [
            EvolutionConfig(0.0, 1.0, 0.01),
            EvolutionConfig(0.0, 50.0, 0.01, record_stride=stride),
            EvolutionConfig(0.0, 60.0, 0.01),
        ]
        with pytest.raises(NumericalError, match="^run 1: norm drifted") as err:
            evolve_schrodinger(np.stack([calm, blowup, calm]), StateVector.basis(2, 0), cfgs)
        assert err.value.member == 1
        if stride > 1:
            assert re.search(r"drifted to (nan|inf) at step 5000 ", str(err.value))

    def test_rejects_configs_it_cannot_batch(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.1, dt_us=0.01)
        start = StateVector.basis(2, 0)
        hs = np.stack([rabi_hamiltonian(1.0)] * 3)
        with pytest.raises(ConfigError):
            evolve_schrodinger(hs, start, [cfg, cfg])
        with pytest.raises(ConfigError):
            evolve_schrodinger(Terms([hs[0]]), start, [cfg])
        with pytest.raises(ConfigError):
            evolve_schrodinger(hs, start, [])


# small states only: the first 64-entry state (dim-8 Lindblad) of a process
# may stall in threaded BLAS
RAGGED_CASES = [("schrodinger", 2), ("schrodinger", 4), ("lindblad", 2)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    case=st.sampled_from(RAGGED_CASES),
    seed=st.integers(0, 2**16),
    configs=st.lists(
        st.tuples(st.integers(1, 60), st.integers(1, 12), st.booleans(), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
    every_step=st.booleans(),
    stacked=st.booleans(),
    small_budget=st.booleans(),
)
def test_random_ragged_runs_match_per_run_calls(case, seed, configs, every_step, stacked, small_budget):
    """Ragged batches of a constant H or a stack: 1 to 5 configs of random
    start, span, stride and renormalisation, each for 1 to 3 consecutive
    runs, so that a block holds several, against one call per run, in one
    chunk or in 5-step chunks. every_step records every step of every run."""
    kind, dim = case
    rng = np.random.default_rng(seed)
    runs = sum(repeats for *_, repeats in configs)
    hs = [random_hamiltonian(rng, dim) for _ in range(runs if stacked else 1)]
    base = 0.02 / max(float(np.max(np.abs(h))) for h in hs)
    cfgs = []
    for n_steps, stride, renormalize, repeats in configs:
        t0 = rng.uniform(-1.0, 1.0)
        t1 = t0 + n_steps * base * rng.uniform(0.5, 1.0)
        cfg = EvolutionConfig(t0, t1, (t1 - t0) / n_steps, 1 if every_step else stride, renormalize)
        cfgs += [cfg] * repeats
    psis = [StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)) for _ in cfgs]
    lindblad = kind == "lindblad"
    singles = [DensityMatrix.from_state(psi) for psi in psis] if lindblad else psis
    starts = np.stack([y0.entries if lindblad else y0.amps for y0 in singles])
    field = "densities" if lindblad else "amplitudes"

    def run(h, y0, cfg):
        return evolve_lindblad(h, y0, NOISE, cfg) if lindblad else evolve_schrodinger(h, y0, cfg)

    with pytest.MonkeyPatch.context() as patch:
        if small_budget:
            patch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
            patch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        result = run(np.stack(hs) if stacked else hs[0], starts, cfgs)
        per_run = [run(hs[r if stacked else 0], y0, cfg) for r, (y0, cfg) in enumerate(zip(singles, cfgs))]
        assert_matches_per_run_calls(result, per_run, field)


def six_product_transfers(a1, a2, a3, dt):
    """RK4 transfer matrices for y' = A(t) y, expanded into six products."""
    m21 = a2 @ a1
    m32 = a2 @ a2
    m43 = a3 @ a2
    m321 = a2 @ m21
    m432 = a3 @ m32
    m4321 = a3 @ m321
    out = (dt / 6.0) * (a1 + 4.0 * a2 + a3)
    out += (dt * dt / 6.0) * (m21 + m32 + m43)
    out += (dt**3 / 12.0) * (m321 + m432)
    out += (dt**4 / 24.0) * m4321
    return out + np.eye(a1.shape[-1])


NOISE = NoiseModel(t1_us=40.0, t2_us=30.0)


def generator(kind, h):
    """A(t) of the Schrodinger or the row-major Lindblad equation for H = h."""
    if kind == "schrodinger":
        return -1j * h
    eye = np.eye(h.shape[-1])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + NOISE.dissipator(h.shape[-1])


def lifted_terms(kind, basis):
    """The generator terms A_k of a Hermitian basis B_k, so that
    A(t) = sum_k c_k(t) A_k; a Lindblad dissipator joins A_0 alone."""
    if kind == "schrodinger":
        return -1j * basis
    eye = np.eye(basis.shape[-1])
    terms = -1j * (np.einsum("kij,ab->kiajb", basis, eye) - np.einsum("ij,kba->kiajb", eye, basis))
    terms = terms.reshape(basis.shape[0], eye.size, eye.size)
    terms[0] += NOISE.dissipator(basis.shape[-1])
    return terms


def end_byte(a):
    """The address one past the last byte of a view with no negative stride."""
    return a.__array_interface__["data"][0] + sum((n - 1) * s for n, s in zip(a.shape, a.strides)) + a.itemsize


def chunk_transfers(p, c, n_steps):
    """The transfers of n_steps steps whose coefficients at the start, middle
    and end are c's rows, as a chunk of a terms source makes them through
    the polynomial of its basis scaled by dt/2, p."""
    carry = np.zeros((1, p.shape[-1]), dtype=p.dtype).view(complex)  # a real form's states
    ws = evolve_module._workspace(p, n_steps, n_steps, carry)
    coefficients, calls, _ = evolve_module._chunk_calls(ws, n_steps, n_steps, carry, p)
    np.copyto(coefficients, c)
    for call in calls:
        call()
    return ws.transfers[:n_steps]


class TestRK4Polynomial:
    """The transfers of the polynomial in the coefficients against the RK4
    step expanded into six products of the generator's frames."""

    @pytest.mark.parametrize("n_terms", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    def test_matches_six_product_form(self, kind, dim, n_terms):
        rng = np.random.default_rng(100 * dim + n_terms)
        terms = lifted_terms(kind, np.stack([random_hamiltonian(rng, dim) for _ in range(n_terms)]))
        n = 6
        c = np.ones((2 * n + 1, n_terms))
        c[:, 1:] = rng.uniform(-1.0, 1.0, (2 * n + 1, n_terms - 1))
        dt = 0.05 / sum(float(np.max(np.abs(a))) for a in terms)
        a = np.einsum("tk,kij->tij", c, terms)
        theirs = six_product_transfers(a[0:-1:2], a[1::2], a[2::2], dt)
        # real form up to REAL_FORM_MAX_DIM, as the integrator takes it
        if terms.shape[-1] <= evolve_module.REAL_FORM_MAX_DIM:
            terms, theirs = evolve_module._real_form(terms), evolve_module._real_form(theirs)
        p = (dt / 2.0) * terms
        polynomial = evolve_module._rk4_polynomial(p)
        # (1 + m)^2 (1 + m + m(m + 1)/2) monomials in the m = K - 1
        # coefficients after c_0, then I
        m = n_terms - 1
        assert polynomial.shape[0] == (1 + m) ** 2 * (1 + m + m * (m + 1) // 2) + 1
        assert np.array_equal(polynomial[-1], np.eye(p.shape[-1]))
        ours = chunk_transfers(p, c, n)
        assert np.max(np.abs(ours - theirs)) <= 1e-15 * np.max(np.abs(theirs))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    def test_constant_transfer_matches_six_product_form(self, kind, dim):
        # one matrix, and a stack of them with a step per run
        rng = np.random.default_rng(dim)
        a = np.stack([generator(kind, random_hamiltonian(rng, dim)) for _ in range(3)])
        dt = 0.05 / float(np.max(np.abs(a)))
        for ours, theirs in (
            (evolve_module._constant_transfer(a[0], dt), six_product_transfers(a[0], a[0], a[0], dt)),
            (
                evolve_module._constant_transfer(a, dt * np.array([1.0, 0.5, 0.8])[:, None, None]),
                np.stack([six_product_transfers(m, m, m, dt * s) for m, s in zip(a, (1.0, 0.5, 0.8))]),
            ),
        ):
            assert ours.shape == theirs.shape
            assert np.max(np.abs(ours - theirs)) <= 1e-15 * np.max(np.abs(theirs))


class TestRealForm:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_complex_products(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        y = rng.normal(size=(6, n, 1)) + 1j * rng.normal(size=(6, n, 1))
        real = evolve_module._real_form(m)
        assert real.shape == (6, 2 * n, 2 * n) and real.dtype == np.float64
        states = (m @ y)[..., 0].view(np.float64)
        ours = (real @ y[..., 0].view(np.float64)[..., None])[..., 0]
        assert np.max(np.abs(ours - states)) <= 1e-15 * np.max(np.abs(states))
        # a product of forms is the form of the product, so the RK4 stages
        # and the interval products run on the real form unchanged
        products = evolve_module._real_form(m[::2] @ m[1::2])
        ours = real[::2] @ real[1::2]
        assert np.max(np.abs(ours - products)) <= 1e-15 * np.max(np.abs(products))


def driven_hamiltonian(h0, h1, omega):
    """H(t) = h0 + cos(omega t) h1 as a terms source."""
    return Terms([h0, h1], constant_and(lambda times: np.cos(omega * times)))


def stepwise_transfers(kind, source, dt, n_steps):
    """Per-step RK4 transfers from t = 0, built here from the frames of
    source.sample at each step's start, middle and end."""
    frames = source.sample((dt / 2.0) * np.arange(2 * n_steps + 1))
    a = np.stack([generator(kind, h) for h in frames])
    return six_product_transfers(a[0:-1:2], a[1::2], a[2::2], dt)


@functools.lru_cache(maxsize=None)
def driven_case(kind, dim, n_steps):
    """(source, config times, per-step transfers) of a driven random H."""
    rng = np.random.default_rng(1000 + dim)
    h0, h1 = random_hamiltonian(rng, dim), random_hamiltonian(rng, dim)
    dt = 0.02 / float(np.max(np.abs(h0)) + np.max(np.abs(h1)))
    t_end = n_steps * dt
    source = driven_hamiltonian(h0, h1, 3.0 * np.pi / t_end)
    dt = t_end / n_steps  # the step _plan_steps snaps to
    return source, (t_end, dt), stepwise_transfers(kind, source, dt, n_steps)


class TestTimeDependentPropagation:
    """The time-dependent fill of _integrate against a per-step y <- T(t) y
    loop over transfers built in the test from the same Hamiltonian samples,
    for a batch of starts (a single start is a batch of one on the same path,
    which TestConstantPropagation's one-term source runs)."""

    N_STEPS = 100
    RUNS = 2
    # the default budget already cuts a dim-8 Lindblad run into 16-step chunks
    CASES = [
        (kind, dim, chunked)
        for kind in ("schrodinger", "lindblad")
        for dim in (2, 4, 8)
        for chunked in (False, True)
        if not (chunked and kind == "lindblad" and dim == 8)
    ]

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("stride", [1, 7, 89, N_STEPS])
    @pytest.mark.parametrize("kind, dim, chunked", CASES)
    def test_matches_stepwise_loop(self, monkeypatch, kind, dim, chunked, stride, renormalize):
        # 16-step chunks: whole intervals at strides 1 and 7, pieces of one
        # interval at strides 89 and 100
        if chunked:
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        assert kind != "lindblad" or dim != 8 or evolve_module._chunk_steps(64, self.RUNS, 2) == 16
        source, (t_end, dt), transfers = driven_case(kind, dim, self.N_STEPS)
        cfg = EvolutionConfig(
            t_start_us=0.0, t_end_us=t_end, dt_us=dt, record_stride=stride, renormalize=renormalize
        )
        forms = []
        real_form = evolve_module._real_form
        monkeypatch.setattr(
            evolve_module, "_real_form", lambda m: forms.append(m.shape) or real_form(m)
        )
        rng = np.random.default_rng(dim)
        psis = [
            StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            for _ in range(self.RUNS)
        ]
        if kind == "schrodinger":
            starts = [psi.amps.astype(complex) for psi in psis]
            traj = evolve_schrodinger(source, np.stack(starts), cfg)
            recorded = traj.amplitudes

            def norm_of(y):
                return float(np.linalg.norm(y))

            def populations(records):
                return np.abs(records) ** 2

        else:
            rhos = [DensityMatrix.from_state(psi) for psi in psis]
            starts = [rho.entries.flatten() for rho in rhos]
            traj = evolve_lindblad(source, np.stack([rho.entries for rho in rhos]), NOISE, cfg)
            recorded = traj.densities.reshape(self.RUNS, len(traj.times), -1)

            def norm_of(y):
                return float(np.real(np.trace(y.reshape(dim, dim))))

            def populations(records):
                return np.real(np.diagonal(records.reshape(-1, dim, dim), axis1=1, axis2=2))

        for run, y0 in enumerate(starts):
            records, norms = sequential_reference(transfers, y0, stride, renormalize, norm_of)
            assert recorded[run].shape == records.shape
            assert np.max(np.abs(recorded[run] - records)) < 1e-12
            assert np.max(np.abs(traj.populations[run] - populations(records))) < 1e-12
            assert np.max(np.abs(traj.norms[run] - norms)) < 1e-12
        # the size rule: states of up to 8 entries (Schrodinger at every dim,
        # Lindblad at dim 2) run in real form, larger ones stay complex
        assert bool(forms) == (kind == "schrodinger" or dim == 2)

    def test_overflow_between_records_raises_at_next_check(self):
        # calm until t = 0.5 us, then a drive whose RK4 steps overflow the
        # state long before the record at step 250 (one 500-step chunk)
        big = 1000.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        step = Terms([np.zeros((2, 2)), big], constant_and(lambda times: 1.0 * (times > 0.5)))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=5.0, dt_us=0.01, record_stride=250)
        with pytest.raises(NumericalError, match="at step 250 "):
            evolve_schrodinger(step, StateVector.basis(2, 0), cfg)


class TestRecordGate:
    """A call gates its padded records once, after its last chunk (_gate),
    whatever its chunk count and however its runs' configs differ; a failure
    names the earliest failing record step, its time and, in a batch, the
    lowest failing run."""

    @staticmethod
    def spy_on_gates(monkeypatch):
        gates = []
        gate = evolve_module._gate
        monkeypatch.setattr(evolve_module, "_gate", lambda *args: gates.append(args[1].shape) or gate(*args))
        return gates

    def test_default_two_qubit_pi2_gates_once(self, monkeypatch, caplog):
        from nvholo import scenarios
        from nvholo.config import ScenarioConfig

        gates = self.spy_on_gates(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="nvholo.evolve"):
            scenarios.run_two_qubit_pi2(ScenarioConfig(scenario_id="two-qubit-pi2"))
        (chunks,) = [int(n) for n in re.findall(r"(\d+) chunks of up to", caplog.text)]
        assert chunks == 52
        assert len(gates) == 1

    def test_default_composite_gates_once_per_call(self, monkeypatch):
        from nvholo import scenarios
        from nvholo.cli import DEFAULT_CONFIGS
        from nvholo.config import parse_config

        calls = []
        integrate = evolve_module._integrate
        monkeypatch.setattr(evolve_module, "_integrate", lambda *args: calls.append(1) or integrate(*args))
        gates = self.spy_on_gates(monkeypatch)
        scenarios.run_composite_gate_scenario(parse_config(DEFAULT_CONFIGS["composite"]))
        assert len(calls) == len(gates) == 24

    def test_ragged_call_gates_once(self, monkeypatch):
        # runs of three configs in 5-step chunks, the longest run 40 steps;
        # the records match per-run calls, which gate once each
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        h, start = rabi_hamiltonian(1.0), StateVector.basis(2, 0)
        cfgs = [EvolutionConfig(0.0, span, 0.01, record_stride=stride) for span, stride in ((0.2, 3), (0.4, 1), (0.3, 7))]
        cfgs = [cfgs[0], cfgs[1], cfgs[1], cfgs[2]]
        gates = self.spy_on_gates(monkeypatch)
        result = evolve_schrodinger(h, np.stack([start.amps] * 4), cfgs)
        assert gates == [(4, 41, 2)]  # (runs, records, y), padded to the longest run
        singles = [evolve_schrodinger(h, start, cfg) for cfg in cfgs]
        assert len(gates) == 5
        assert_matches_per_run_calls(result, singles, "amplitudes")

    def test_ragged_failure_names_its_run(self, monkeypatch):
        # runs 0-1 and 2-3 share two configs, in 5-step chunks; run 3 drifts
        # past the 1e-3 gate, at the step where it does alone
        monkeypatch.setattr(evolve_module, "MAX_CHUNK_STEPS", 5)
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        start = StateVector.basis(2, 0)
        calm, drifting = rabi_hamiltonian(1.0), rabi_hamiltonian(15.0)
        short, long = (EvolutionConfig(0.0, span, 0.008, renormalize=False) for span in (0.5, 2.0))
        with pytest.raises(NumericalError) as single:
            evolve_schrodinger(drifting, start, long)
        assert single.value.member is None
        detail = re.search(r"norm drifted to [0-9.]+ at step \d+ \(t=[0-9.]+ us\)", str(single.value)).group(0)
        gates = self.spy_on_gates(monkeypatch)
        with pytest.raises(NumericalError, match=f"^run 3: {re.escape(detail)}") as err:
            evolve_schrodinger(np.stack([calm, calm, calm, drifting]), start, [short, short, long, long])
        assert err.value.member == 3
        assert len(gates) == 1

    def test_driven_blowup_names_the_earliest_failing_record(self, monkeypatch):
        # a drive switched on at t = 0.3 us takes |lambda| dt = 50, where
        # each RK4 step grows the state by about 2.6e5: in 15-step chunks at
        # stride 5 it overflows to inf and NaN well before the run's end,
        # and the gate names the first record whose norm, reported against
        # the record before it, is out of the 1e-3 gate
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        w = 5000.0
        source = Terms(
            [np.diag([1.0, -1.0]), [[0.0, w], [w, 0.0]]], constant_and(lambda times: 1.0 * (times > 0.3))
        )
        cfg = EvolutionConfig(0.0, 1.0, 0.01, record_stride=5)
        y0 = np.array([1.0, 0.0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            transfers = stepwise_transfers("schrodinger", source, cfg.step_us, cfg.n_steps)
            _, norms = sequential_reference(transfers, y0, 5, True, np.linalg.norm)
            _, raw = sequential_reference(transfers, y0, 5, False, np.linalg.norm)
        failing = ~(np.abs(norms - 1.0) <= evolve_module.MAX_NORM_DRIFT)
        first = int(cfg.record_steps[np.argmax(failing)])
        assert first == 35 and not np.isfinite(raw[-1])
        gates = self.spy_on_gates(monkeypatch)
        with pytest.raises(NumericalError, match=rf"^norm drifted to [0-9.e+]+ at step {first} \(t=0\.35 us\); reduce dt"):
            evolve_schrodinger(source, StateVector.basis(2, 0), cfg)
        assert len(gates) == 1


class TestChunkPlan:
    """A terms source's chunks, read from its coefficients calls (one per
    chunk, 2 n + 1 frames from the chunk's first step): they tile the run,
    fit the budget in steps and in workspace bytes, and end on record steps
    unless a record interval is longer than the budget."""

    @pytest.mark.parametrize("budget", ["default", "1 byte"])
    @pytest.mark.parametrize("stride", [1, 7, 89, 100])
    @pytest.mark.parametrize("kind, dim, n_steps", [("schrodinger", 2, 5000), ("lindblad", 4, 600)])
    def test_chunks_hold_whole_record_intervals(
        self, monkeypatch, caplog, kind, dim, n_steps, stride, budget
    ):
        if budget == "1 byte":
            monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        workspaces = []
        workspace = evolve_module._Workspace
        monkeypatch.setattr(
            evolve_module, "_Workspace", lambda *arrays: workspaces.append(arrays) or workspace(*arrays)
        )
        calls = []

        def coefficients(times):
            calls.append(times)
            return np.ones((times.shape[0], 1))

        h = random_hamiltonian(np.random.default_rng(dim), dim)
        dt = 0.02 / float(np.max(np.abs(h)))
        cfg = EvolutionConfig(0.0, n_steps * dt, dt, record_stride=stride)
        dt = cfg.t_end_us / n_steps
        with caplog.at_level(logging.DEBUG, logger="nvholo.evolve"):
            if kind == "schrodinger":
                evolve_schrodinger(Terms([h], coefficients), StateVector.basis(dim, 0), cfg)
            else:
                rho0 = DensityMatrix.from_state(StateVector.basis(dim, 0))
                evolve_lindblad(Terms([h], coefficients), rho0, NOISE, cfg)
        y_dim = dim if kind == "schrodinger" else dim * dim
        limit = evolve_module._chunk_steps(y_dim, 1, 1, stride)
        lengths = [(len(times) - 1) // 2 for times in calls]
        ends = np.cumsum(lengths)
        starts = ends - lengths
        assert ends[-1] == n_steps
        assert all(abs(times[0] - k0 * dt) < 1e-9 * dt * n_steps for times, k0 in zip(calls, starts))
        assert max(lengths) <= limit
        if stride <= limit:
            # whole intervals, as many as fit, the run's end closing the last chunk
            assert all(length == limit // stride * stride for length in lengths[:-1])
            assert all(end % stride == 0 for end in ends[:-1])
        else:
            # pieces of one interval: limit steps each but the interval's last
            assert all(k0 // stride == (k1 - 1) // stride for k0, k1 in zip(starts, ends))
            cut = [k1 % stride != 0 and k1 != n_steps for k1 in ends]
            assert all(length == limit for length, inside in zip(lengths, cut) if inside)
        (arrays,) = workspaces
        if budget == "default":
            assert sum(a.nbytes for a in arrays) <= evolve_module.TRANSFER_CHUNK_BYTES
        assert f"{len(calls)} chunks of up to {max(lengths)} steps" in caplog.text

    @pytest.mark.parametrize("stride", [1, 2, 7, 89, 5000])
    @pytest.mark.parametrize("y_dim, runs, n_terms", [(4, 1, 2), (4, 7, 2), (16, 1, 2), (2, 1, 3)])
    def test_workspace_is_what_the_chunks_write(self, y_dim, runs, n_terms, stride):
        # the two-qubit source (K = 2 at y_dim 4), a batch of it, a dim-4
        # Lindblad source with the polynomial in complex form and a K = 3
        # source, all under POLYNOMIAL_MAX_BYTES. _chunk_steps charges
        # exactly the bytes of the scaled basis and of the workspace with its
        # polynomial, as many steps as fit. The calls of every chunk the plan
        # cuts reach the end of each buffer of interval products and nothing
        # past it. At stride 5000 a chunk is a piece of one interval
        budget = evolve_module.TRANSFER_CHUNK_BYTES
        real = y_dim <= evolve_module.REAL_FORM_MAX_DIM
        side, dtype = (2 * y_dim, float) if real else (y_dim, complex)
        assert evolve_module._polynomial_bytes(y_dim, n_terms) <= evolve_module.POLYNOMIAL_MAX_BYTES
        matrices = np.zeros((n_terms, side, side), dtype)  # the scaled basis
        carry = np.zeros((runs, y_dim), complex)
        steps = evolve_module._chunk_steps(y_dim, runs, n_terms, stride)
        assert evolve_module._workspace_bytes(y_dim, runs, n_terms, steps, stride) <= budget
        assert evolve_module._workspace_bytes(y_dim, runs, n_terms, steps + 1, stride) > budget
        assert (stride > steps) == (stride == 5000)
        ends = evolve_module._chunk_ends(3 * max(stride, steps) + 5, stride, steps)
        lengths = {k1 - k0 for k0, k1 in zip([0] + ends, ends)}
        ws = evolve_module._workspace(matrices, max(lengths), stride, carry)  # as _integrate sizes it
        held = matrices.nbytes + sum(a.nbytes for a in ws)
        assert held == evolve_module._workspace_bytes(y_dim, runs, n_terms, max(lengths), stride)
        reached = {"products": 0, "spare": 0}
        for n in lengths:
            _, calls, _ = evolve_module._chunk_calls(ws, n, stride, carry, matrices)
            arrays = [a for call in calls for a in (*call.args, *call.keywords.values()) if isinstance(a, np.ndarray)]
            for name in reached:
                buffer = getattr(ws, name)
                for a in arrays:
                    if buffer.size and np.shares_memory(a, buffer):
                        reached[name] = max(reached[name], end_byte(a) - end_byte(buffer) + buffer.nbytes)
        assert reached == {"products": ws.products.nbytes, "spare": ws.spare.nbytes}
        if stride < 3:  # stride 1 takes no round, stride 2 one per interval
            assert (ws.products.shape[0], ws.spare.shape[0]) == (max(lengths) // 2 if stride == 2 else 0, 0)


# states of up to 8 entries take the real form, Lindblad at dim 2 among them
DRIVEN_CASES = [("schrodinger", 2), ("schrodinger", 4), ("schrodinger", 8), ("lindblad", 2)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    case=st.sampled_from(DRIVEN_CASES),
    n_terms=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    n_steps=st.integers(1, 120),
    stride=st.integers(1, 130),
    small_budget=st.booleans(),
    renormalize=st.booleans(),
)
def test_random_driven_runs_match_the_stepwise_loop(
    case, n_terms, seed, n_steps, stride, small_budget, renormalize
):
    """Random terms sources of 1 to 3 terms against the per-step loop over
    transfers built from their samples, in one chunk or in 16-step chunks."""
    kind, dim = case
    rng = np.random.default_rng(seed)
    basis = [random_hamiltonian(rng, dim) for _ in range(n_terms)]
    dt = 0.02 / sum(float(np.max(np.abs(h))) for h in basis)
    t_end = n_steps * dt
    # each channel a tone that turns by at most 0.05 rad per step, so that
    # unrenormalised runs stay within the recorded-norm gate
    rates = rng.uniform(0.0, 0.05 / dt, n_terms - 1)
    phases = rng.uniform(-np.pi, np.pi, n_terms - 1)
    tones = [lambda times, w=w, p=p: np.cos(w * times + p) for w, p in zip(rates, phases)]
    source = Terms(basis, constant_and(*tones))
    cfg = EvolutionConfig(0.0, t_end, dt, record_stride=stride, renormalize=renormalize)
    transfers = stepwise_transfers(kind, source, t_end / n_steps, n_steps)
    psis = np.stack(
        [StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)).amps for _ in range(2)]
    )
    with pytest.MonkeyPatch.context() as patch:
        if small_budget:
            patch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        if kind == "schrodinger":
            traj = evolve_schrodinger(source, psis, cfg)
            recorded, starts = traj.amplitudes, psis
        else:
            rhos = np.einsum("bi,bj->bij", psis, psis.conj())
            traj = evolve_lindblad(source, rhos, NOISE, cfg)
            recorded, starts = traj.densities.reshape(2, len(traj.times), -1), rhos.reshape(2, -1)

    def norm_of(y):
        if kind == "schrodinger":
            return float(np.linalg.norm(y))
        return float(np.real(np.trace(y.reshape(dim, dim))))

    for run, y0 in enumerate(starts):
        records, norms = sequential_reference(transfers, y0, stride, renormalize, norm_of)
        assert recorded[run].shape == records.shape
        assert np.max(np.abs(recorded[run] - records)) < 1e-12
        assert np.max(np.abs(traj.norms[run] - norms)) < 1e-12
        if kind == "schrodinger":
            pops = np.abs(records) ** 2
        else:
            pops = np.real(np.diagonal(records.reshape(-1, dim, dim), axis1=1, axis2=2))
        assert np.max(np.abs(traj.populations[run] - pops)) < 1e-12


def cos_terms(basis, nan_after=math.inf):
    """H(t) = B_0 + cos(3 t) B_1; the coefficients turn NaN after nan_after."""

    def coefficients(times):
        c = constant_and(lambda times: np.cos(3.0 * times))(times)
        c[times > nan_after] = np.nan
        return c

    return Terms(basis, coefficients)


def pulsed_hamiltonian(dim, carriers, plain=0):
    """Distinct tones with phases, the first carriers of them with a carrier
    (two terms each) and the next plain ones without (one term each), on
    pump and Stokes slots in turn from pump 1 and Stokes 2: K = 1 +
    2 carriers + plain terms. Stokes 1 and any slot left over stay silent."""
    rng = np.random.default_rng(40 + dim)
    spec = LevelSpec(dim=dim, energies_mhz=tuple(rng.uniform(-5.0, 5.0, size=dim)))

    def tone(carrier):
        return PulseChannel(
            rabi_mhz=float(rng.uniform(1.0, 4.0)),
            carrier_mhz=float(rng.uniform(-3.0, 3.0)) if carrier else 0.0,
            t_center_us=0.1,
            t_width_us=0.04,
            phase_rad=float(rng.uniform(-np.pi, np.pi)),
        )

    pairs = dim // 4 + 1
    tones = [tone(k < carriers) for k in range(carriers + plain)]
    tones += [PulseChannel(0.0)] * (2 * pairs - 1 - len(tones))
    return PulsedHamiltonian(spec, PulseSet(tuple(tones[0::2]), (PulseChannel(0.0),) + tuple(tones[1::2])))


# (carriers, plain) of a pulsed source of each (kind, dim) under
# POLYNOMIAL_MAX_BYTES: K = 7, 5, 4 and 2 terms
UNDER_CAP = {("schrodinger", 4): (3, 0), ("schrodinger", 8): (1, 2), ("lindblad", 4): (1, 1), ("lindblad", 8): (0, 1)}


class TestTermsPath:
    """A terms source's basis is checked and lifted once per call, and its
    RK4 polynomial capped at POLYNOMIAL_MAX_BYTES."""

    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    @pytest.mark.parametrize("dim", [4, 8])
    def test_pulsed_hamiltonian_matches_stepwise_loop(self, monkeypatch, kind, dim):
        # as many terms as the cap admits, a carrier among them where K
        # leaves room for its two
        ham = pulsed_hamiltonian(dim, *UNDER_CAP[kind, dim])
        checks = []
        check = evolve_module._check_samples
        monkeypatch.setattr(
            evolve_module, "_check_samples", lambda *args: checks.append(1) or check(*args)
        )
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.2, dt_us=2e-3, record_stride=7)
        transfers = stepwise_transfers(kind, ham, 2e-3, 100)
        rng = np.random.default_rng(dim)
        starts = np.stack(
            [StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)).amps
             for _ in range(2)]
        )
        if kind == "schrodinger":
            traj = evolve_schrodinger(ham, starts, cfg)
            recorded, y0s = traj.amplitudes, starts

            def norm_of(y):
                return float(np.linalg.norm(y))

            def populations(records):
                return np.abs(records) ** 2

        else:
            rhos = np.einsum("bi,bj->bij", starts, starts.conj())
            traj = evolve_lindblad(ham, rhos, NOISE, cfg)
            recorded, y0s = traj.densities.reshape(2, 16, -1), rhos.reshape(2, -1)

            def norm_of(y):
                return float(np.real(np.trace(y.reshape(dim, dim))))

            def populations(records):
                return np.real(np.diagonal(records.reshape(-1, dim, dim), axis1=1, axis2=2))

        assert len(checks) == 1  # the basis, once per call
        for run, y0 in enumerate(y0s):
            records, norms = sequential_reference(transfers, y0, 7, True, norm_of)
            assert recorded[run].shape == records.shape == (16, y0.size)
            assert np.max(np.abs(recorded[run] - records)) < 1e-12
            assert np.max(np.abs(traj.populations[run] - populations(records))) < 1e-12
            assert np.max(np.abs(traj.norms[run] - norms)) < 1e-12

    @pytest.mark.parametrize(
        "kind, dim, n_terms, y_dim, held",
        [("lindblad", 4, 7, 16, "5,623,808"), ("schrodinger", 8, 11, 8, "16,357,376"), ("lindblad", 8, 11, 64, "523,436,032")],
        ids=["lindblad-4", "schrodinger-8", "lindblad-8"],
    )
    def test_refuses_a_polynomial_over_the_cap(self, monkeypatch, kind, dim, n_terms, y_dim, held):
        # carriers on every slot but the silent Stokes one; the refusal comes
        # before the polynomial or the workspace is built, so the call's heap
        # peak stays far below the polynomial's bytes
        ham = pulsed_hamiltonian(dim, carriers=(n_terms - 1) // 2)
        assert len(ham.terms()) == n_terms
        built = []
        for name in ("_rk4_polynomial", "_workspace"):
            monkeypatch.setattr(evolve_module, name, lambda *args, name=name: built.append(name))
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=0.2, dt_us=2e-3)
        start = StateVector.basis(dim, 0)
        message = rf"K = {n_terms} terms on states of {y_dim} entries needs an RK4 polynomial of {held} B"
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=message):
                if kind == "schrodinger":
                    evolve_schrodinger(ham, start, cfg)
                else:
                    evolve_lindblad(ham, DensityMatrix.from_state(start), NOISE, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 1_000_000

    BASIS = np.array([np.diag([1.0, -1.0]), [[0.0, 2.0], [2.0, 0.0]]], dtype=complex)

    def test_non_finite_coefficient_names_its_chunk(self, monkeypatch):
        # 16-step chunks of dt = 0.01 cut each 50-step record interval into
        # 16, 16, 16 and 2 steps: the first NaN frame (t = 0.56 us) lies in
        # the chunk of steps 50-66, whose frames start at t = 0.5 us
        monkeypatch.setattr(evolve_module, "TRANSFER_CHUNK_BYTES", 1)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01, record_stride=50)
        source = cos_terms(self.BASIS, nan_after=0.555)
        with pytest.raises(NumericalError, match=r"non-finite Hamiltonian sample near t=0\.5 us"):
            evolve_schrodinger(source, StateVector.basis(2, 0), cfg)

    def test_basis_gates(self):
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        skewed = self.BASIS.copy()
        skewed[1, 0, 1] = 3.0
        with pytest.raises(NumericalError, match="non-Hermitian"):
            evolve_schrodinger(cos_terms(skewed), StateVector.basis(2, 0), cfg)
        wide = np.zeros((2, 4, 4), dtype=complex)
        with pytest.raises(ConfigError, match=r"expected \(2, 2\)"):
            evolve_schrodinger(cos_terms(wide), StateVector.basis(2, 0), cfg)

    @pytest.mark.parametrize("bad", ["complex", "columns"])
    def test_rejects_malformed_coefficients(self, monkeypatch, bad):
        source = cos_terms(self.BASIS)
        coefficients = source.coefficients
        if bad == "complex":
            source.coefficients = lambda times: coefficients(times) + 0j
        else:
            source.coefficients = lambda times: np.tile(coefficients(times), 2)
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        with pytest.raises(ConfigError, match="coefficients must be real"):
            evolve_schrodinger(source, StateVector.basis(2, 0), cfg)

    @pytest.mark.parametrize("kind", ["schrodinger", "lindblad"])
    def test_rejects_a_constant_term_not_at_weight_one(self, kind):
        # c_0 = 2 with B_0 / 2 is the same H(t), but the dissipator joins B_0
        # at weight 1, so it would be scaled by 2 without a word
        half = cos_terms(np.array([self.BASIS[0] / 2.0, self.BASIS[1]]))
        doubled = half.coefficients
        half.coefficients = lambda times: doubled(times) * [2.0, 1.0]
        cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
        start = StateVector.basis(2, 0)
        with pytest.raises(ConfigError, match="coefficient of B_0 must be 1 at every time, got 2"):
            if kind == "schrodinger":
                evolve_schrodinger(half, start, cfg)
            else:
                evolve_lindblad(half, DensityMatrix.from_state(start), NOISE, cfg)


class SampleOnly:
    """Frames through .sample alone, without terms() and coefficients()."""

    def sample(self, times):
        return np.zeros((len(times), 2, 2), dtype=complex)


@pytest.mark.parametrize(
    "source", [lambda t: np.zeros((2, 2)), SampleOnly()], ids=["callable", "sample-only"]
)
def test_rejected_sources_fail_closed(source):
    # neither a callable of t nor an object with .sample alone is a source;
    # both fail as ConfigError naming the three kinds, not AttributeError
    accepted = r"constant matrix .*stack of them, or a terms source with terms\(\)"
    cfg = EvolutionConfig(t_start_us=0.0, t_end_us=1.0, dt_us=0.01)
    with pytest.raises(ConfigError, match=accepted):
        evolve_schrodinger(source, StateVector.basis(2, 0), cfg)
    with pytest.raises(ConfigError, match=accepted):
        recommended_dt(source, 0.0, 1.0)


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
        # rabi_hamiltonian(drive) is drive * rabi_hamiltonian(1)
        gaussian = lambda times: 5.0 * np.exp(-((times - 0.5) ** 2) / (2 * 0.1**2))
        pulse = Terms([np.zeros((2, 2)), rabi_hamiltonian(1.0)], constant_and(gaussian))

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

    def test_batch_checks_every_run(self):
        times = np.array([0.0, 1.0])
        good = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        batch = np.stack([good, good, good])
        traj = Trajectory(times=times, populations=np.abs(batch) ** 2, amplitudes=batch)
        assert traj.dim == 2
        assert traj.population_series(1).shape == (3, 2)
        for bad in (1.001, np.nan):
            drifted = batch.copy()
            drifted[2, 1, 0] = bad
            with pytest.raises(NumericalError):
                Trajectory(times=times, populations=np.abs(drifted) ** 2, amplitudes=drifted)
        with pytest.raises(ConfigError):
            Trajectory(times=np.array([0.0, 0.5, 1.0]), populations=np.abs(batch) ** 2)

    def test_drift_failure_names_first_failing_run(self):
        times = np.array([0.0, 1.0])
        good = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        batch = np.stack([good, good, good, good])
        batch[1, 1, 0] = 0.6 + 2e-5
        batch[3, 0, 0] = np.nan
        with pytest.raises(NumericalError, match=r"^run 1: recorded norm drifted by 1\.[0-9]+e-05") as err:
            Trajectory(times=times, populations=np.abs(batch) ** 2, amplitudes=batch)
        assert err.value.member == 1
        with pytest.raises(NumericalError) as err:
            Trajectory(times=times, populations=np.abs(batch[1]) ** 2, amplitudes=batch[1])
        assert err.value.member is None

    def test_drift_in_imaginary_part_of_a_strided_batch_names_its_run(self):
        # the norms are summed from the real and imaginary views, so a drift
        # carried by the imaginary part alone, in a non-contiguous batch, fails
        times = np.array([0.0, 1.0])
        good = np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=complex)
        batch = np.stack([good, good, good])
        batch[2, 1, 1] = 0.8j + 3e-6j
        strided = np.swapaxes(np.swapaxes(batch, 0, 2).copy(), 0, 2)
        assert not strided.flags.c_contiguous
        with pytest.raises(NumericalError, match=r"^run 2: recorded norm drifted by 2\.[0-9]+e-06") as err:
            Trajectory(times=times, populations=np.abs(strided) ** 2, amplitudes=strided)
        assert err.value.member == 2
        ok = np.stack([good] * 3)
        Trajectory(times=times, populations=np.abs(ok) ** 2, amplitudes=ok)

    def test_rejects_non_monotonic_times(self):
        times = np.array([0.0, 0.0])
        amps = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ConfigError):
            Trajectory(times=times, populations=np.abs(amps) ** 2, amplitudes=amps)


class TestDissipatorCache:
    def test_equal_models_share_one_read_only_entry(self):
        a = NoiseModel(t1_us=70.0, t2_us=40.0).dissipator(4)
        b = NoiseModel(t1_us=70.0, t2_us=40.0).dissipator(4)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        assert NoiseModel(t1_us=70.0, t2_us=41.0).dissipator(4) is not a

    def test_cache_is_bounded(self):
        info = NoiseModel.dissipator.cache_info()
        assert info.maxsize is not None and info.maxsize <= 16
        for k in range(3 * info.maxsize):
            NoiseModel(t1_us=100.0 + k, t2_us=50.0).dissipator(2)
        assert NoiseModel.dissipator.cache_info().currsize <= info.maxsize
