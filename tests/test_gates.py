import math

import numpy as np
import pytest

from nvholo.core import ConfigError, StateVector, unitary_deviation
from nvholo.evolve import Trajectory
from nvholo.gates import (
    DarkStateParams,
    GateParams,
    dark_states,
    holonomic_unitary,
    orthogonal_dark_state,
    phase_from_discrepancy,
    rotation_axis,
    single_qubit_unitary,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def amplitude_trajectory(amps_list, times=None):
    amps = np.asarray(amps_list, dtype=complex)
    if times is None:
        times = np.linspace(0.0, 1.0, amps.shape[0])
    return Trajectory(
        times=np.asarray(times, dtype=float),
        populations=np.abs(amps) ** 2,
        amplitudes=amps,
    )


class TestRotationAxis:
    def test_poles_and_equator(self):
        assert np.allclose(rotation_axis(0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(rotation_axis(np.pi / 6, 0.0), [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(
            rotation_axis(np.pi / 6, np.pi / 6), [0.0, 1.0, 0.0], atol=1e-12
        )

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            assert np.linalg.norm(rotation_axis(theta, phi)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_periodicity_two_pi_thirds(self):
        rng = np.random.default_rng(12)
        step = 2 * np.pi / 3
        for _ in range(20):
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            base = rotation_axis(theta, phi)
            assert np.max(np.abs(rotation_axis(theta + step, phi) - base)) < 1e-12
            assert np.max(np.abs(rotation_axis(theta, phi + step) - base)) < 1e-12


class TestDarkStates:
    def test_beta_half_pi_selects_first_level(self):
        d_prime, _, _ = dark_states(DarkStateParams(beta=np.pi / 2, varphi=0.0))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(d_prime.amps - expected)) < 1e-12

    def test_beta_zero_selects_second_levels(self):
        d_prime, d_double, _ = dark_states(DarkStateParams(beta=0.0, varphi=0.0))
        assert d_prime.population(1) == pytest.approx(1.0, abs=1e-12)
        assert d_double.population(3) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support_and_normalization(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            params = DarkStateParams(
                beta=rng.uniform(-np.pi, np.pi), varphi=rng.uniform(-np.pi, np.pi)
            )
            d_prime, d_double, d_full = dark_states(params)
            assert abs(np.vdot(d_prime.amps, d_double.amps)) == 0.0
            for state in (d_prime, d_double, d_full):
                assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
            combo = (d_prime.amps + d_double.amps) / math.sqrt(2.0)
            assert np.max(np.abs(d_full.amps - combo)) < 1e-12

    def test_phase_convention(self):
        d_prime, _, _ = dark_states(
            DarkStateParams(beta=np.pi / 4, varphi=np.pi / 3), dim=4
        )
        root_half = 1.0 / math.sqrt(2.0)
        assert d_prime.amps[0] == pytest.approx(
            root_half * np.exp(-1j * np.pi / 3), abs=1e-12
        )
        assert d_prime.amps[1] == pytest.approx(
            root_half * np.exp(1j * np.pi / 3), abs=1e-12
        )

    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            dark_states(DarkStateParams(), dim=3)


class TestOrthogonalDarkState:
    def test_orthogonality(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            params = DarkStateParams(
                beta=rng.uniform(0, np.pi), varphi=rng.uniform(0, np.pi)
            )
            _, _, d_full = dark_states(params)
            partner = orthogonal_dark_state(d_full)
            assert abs(np.vdot(d_full.amps, partner.amps)) < 1e-12

    def test_deterministic_tie_break(self):
        # dark = e0 forces the partner onto the next basis vector
        partner = orthogonal_dark_state(StateVector.basis(4, 0))
        assert partner.population(1) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_block_partner(self):
        _, _, d_full = dark_states(DarkStateParams(beta=np.pi / 4, varphi=0.0), dim=4)
        partner = orthogonal_dark_state(d_full)
        # projecting e0 out of the flat combination leaves (3,-1,-1,-1)/(2*sqrt(3))
        assert abs(partner.amps[0]) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-12
        )


class TestHolonomicUnitary:
    def test_zero_phase_is_identity(self):
        _, _, d_full = dark_states(DarkStateParams())
        u = holonomic_unitary(0.0, d_full, orthogonal_dark_state(d_full))
        assert np.max(np.abs(u.entries - np.eye(8))) < 1e-15

    def test_full_loop_flips_partner(self):
        _, _, d_full = dark_states(DarkStateParams(beta=0.3, varphi=0.7))
        partner = orthogonal_dark_state(d_full)
        u = holonomic_unitary(2 * np.pi, d_full, partner)
        assert np.max(np.abs(u.entries @ d_full.amps - d_full.amps)) < 1e-12
        assert np.max(np.abs(u.entries @ partner.amps + partner.amps)) < 1e-12

    def test_partner_picks_up_half_phase(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            gamma = rng.uniform(-2 * np.pi, 2 * np.pi)
            params = DarkStateParams(
                beta=rng.uniform(0, np.pi), varphi=rng.uniform(0, np.pi)
            )
            _, _, d_full = dark_states(params)
            partner = orthogonal_dark_state(d_full)
            u = holonomic_unitary(gamma, d_full, partner)
            assert u.unitary
            got = u.entries @ partner.amps
            expected = np.exp(0.5j * gamma) * partner.amps
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_commutes_with_dark_projector(self):
        _, _, d_full = dark_states(DarkStateParams(beta=1.1, varphi=0.4))
        u = holonomic_unitary(1.3, d_full, orthogonal_dark_state(d_full)).entries
        proj = np.outer(d_full.amps, np.conj(d_full.amps))
        assert np.max(np.abs(u @ proj - proj @ u)) <= 1e-12

    def test_rejects_non_orthogonal(self):
        a = StateVector.basis(4, 0)
        b = StateVector.normalized([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ConfigError):
            holonomic_unitary(1.0, a, b)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ConfigError):
            holonomic_unitary(1.0, StateVector.basis(4, 0), StateVector.basis(8, 1))


class TestGateParams:
    def test_ratio_consistency(self):
        GateParams(lam=0.5, detuning_mhz=5.0, rabi_mhz=10.0)
        with pytest.raises(ConfigError):
            GateParams(lam=0.4, detuning_mhz=5.0, rabi_mhz=10.0)

    def test_rejects_non_positive_rabi(self):
        with pytest.raises(ConfigError):
            GateParams(rabi_mhz=0.0)


class TestSingleQubitUnitary:
    def test_identity(self):
        u = single_qubit_unitary(GateParams())
        assert np.max(np.abs(u.entries - np.eye(2))) < 1e-15

    def test_pi_rotation_is_x_up_to_phase(self):
        u = single_qubit_unitary(GateParams(theta=np.pi))
        assert np.max(np.abs(u.entries - (-1j) * PAULI_X)) < 1e-12

    def test_detuning_phase(self):
        # lam = 1 puts a quarter-turn z-phase in front
        u = single_qubit_unitary(GateParams(lam=1.0))
        expected = np.diag(
            [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]
        )
        assert np.max(np.abs(u.entries - expected)) < 1e-12

    def test_always_unitary(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            params = GateParams(
                theta=rng.uniform(-np.pi, np.pi),
                phi=rng.uniform(-np.pi, np.pi),
                lam=rng.uniform(-5, 5),
            )
            u = single_qubit_unitary(params)
            assert unitary_deviation(u.entries) < 1e-12


class TestPhaseFromDiscrepancy:
    def test_identical_records(self):
        traj = amplitude_trajectory([[1.0, 0.0], [0.6, 0.8]])
        magnitude, discrepancy, undefined = phase_from_discrepancy(traj, traj, level=0)
        assert discrepancy.tolist() == [0.0]
        assert magnitude.tolist() == [0.0]
        assert undefined.tolist() == [False]

    def test_global_phase_shows_up_in_magnitude(self):
        base = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        ref = amplitude_trajectory(base)
        act = amplitude_trajectory(np.exp(1j * np.pi / 4) * base)
        (magnitude,), (discrepancy,), _ = phase_from_discrepancy(ref, act, level=0)
        assert discrepancy == 0.0
        assert magnitude == pytest.approx(np.pi / 4, abs=1e-12)

    def test_orthogonal_finals_flagged_undefined(self):
        ref = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]])
        act = amplitude_trajectory([[1.0, 0.0], [0.0, 1.0]])
        (magnitude,), (discrepancy,), (undefined,) = phase_from_discrepancy(ref, act, level=0)
        assert undefined
        assert magnitude == 0.0
        assert discrepancy == pytest.approx(1.0, abs=1e-12)

    def test_rejects_grid_mismatch(self):
        ref = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]], times=[0.0, 1.0])
        act = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]], times=[0.0, 0.5])
        with pytest.raises(ConfigError):
            phase_from_discrepancy(ref, act, level=0)

    def test_batch_matches_each_run(self):
        ref = amplitude_trajectory([[1.0, 0.0], [0.6, 0.8]])
        runs = [
            [[1.0, 0.0], [0.6, 0.8]],
            np.exp(1j * np.pi / 4) * np.array([[1.0, 0.0], [0.8, 0.6]]),
            [[1.0, 0.0], [0.8, -0.6j]],
            [[0.0, 1.0], [0.8, -0.6]],
        ]
        batch = amplitude_trajectory(
            np.stack([np.asarray(r, dtype=complex) for r in runs]), times=[0.0, 1.0]
        )
        columns = phase_from_discrepancy(ref, batch, level=0)
        assert [column.shape for column in columns] == [(len(runs),)] * 3
        for i, run in enumerate(runs):
            single = phase_from_discrepancy(ref, amplitude_trajectory(run), 0)
            assert [column[i] for column in columns] == [column[0] for column in single]
        assert columns[2].tolist() == [False, False, False, True]

    def test_batch_rejects_grid_mismatch(self):
        ref = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]], times=[0.0, 1.0])
        batch = amplitude_trajectory([[[1.0, 0.0], [1.0, 0.0]]] * 3, times=[0.0, 0.5])
        with pytest.raises(ConfigError):
            phase_from_discrepancy(ref, batch, level=0)


class TestPhaseBranch:
    """Phases land in [-pi, pi); an overlap on the negative real axis, up to
    a rounding residue of either sign, reads -pi."""

    @pytest.mark.parametrize("residue", [3.7e-16, -3.7e-16, 0.0])
    def test_negative_real_overlap_reads_minus_pi(self, residue):
        ref = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]])
        final = np.array([-0.629 + 1j * residue, math.sqrt(1.0 - 0.629**2)])
        act = amplitude_trajectory([[1.0, 0.0], final])
        (magnitude,), _, _ = phase_from_discrepancy(ref, act, level=0)
        assert magnitude == -math.pi

    def test_phases_away_from_the_tie_are_unchanged(self):
        ref = amplitude_trajectory([[1.0, 0.0], [1.0, 0.0]])
        for angle in (3.0, -3.0, math.pi - 1e-9, 0.5):
            final = np.array([0.6 * np.exp(1j * angle), 0.8])
            act = amplitude_trajectory([[1.0, 0.0], final])
            (magnitude,), _, _ = phase_from_discrepancy(ref, act, level=0)
            assert magnitude == pytest.approx(angle, abs=1e-12)
