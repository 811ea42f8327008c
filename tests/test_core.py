import numpy as np
import pytest

from nvholo.core import (
    ConfigError,
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    eig_hermitian,
    inner_product,
    last_axis_sum,
    ordered_product,
    product_rounds,
    state_density_fidelity,
)

SQRT_HALF = 0.7071067811865476

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalized(amps)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return OperatorMatrix((a + a.conj().T) / 2)


class TestStateVector:
    def test_basis_state(self):
        psi = StateVector.basis(4, 2)
        assert psi.dim == 4
        assert psi.amps[2] == 1.0
        assert np.allclose(psi.populations(), [0, 0, 1, 0])

    def test_normalized_factory(self):
        psi = StateVector.normalized([3.0, 4.0])
        assert np.allclose(psi.amps, [0.6, 0.8])

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ConfigError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            StateVector(np.array([np.nan, 0.0]))
        with pytest.raises(ConfigError):
            StateVector.normalized([np.inf, 1.0])

    def test_amplitudes_are_read_only(self):
        psi = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0

    def test_populations_sum_to_one(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 8):
            for _ in range(20):
                psi = random_state(rng, dim)
                assert abs(psi.populations().sum() - 1.0) < 1e-9


class TestInnerProduct:
    def test_self_product_is_one(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 8):
            psi = random_state(rng, dim)
            assert abs(inner_product(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        a = StateVector.basis(8, 0)
        b = StateVector.basis(8, 1)
        assert inner_product(a, b) == 0.0

    def test_superposition_overlap(self):
        plus = StateVector.normalized([1.0, 1.0])
        one = StateVector.basis(2, 0)
        assert abs(inner_product(plus, one) - SQRT_HALF) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, 4)
        b = random_state(rng, 4)
        phase = np.exp(1j * np.pi / 3)
        a_rot = StateVector(phase * a.amps)
        expected = np.conj(phase) * inner_product(a, b)
        assert abs(inner_product(a_rot, b) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            inner_product(StateVector.basis(2, 0), StateVector.basis(4, 0))


def pure_fidelity(a, b):
    return state_density_fidelity(a, DensityMatrix.from_state(b))


class TestFidelity:
    """Pure-state fidelity, through the pure-target / mixed-state overlap."""

    def test_self_fidelity(self):
        psi = StateVector.normalized([1.0, 2.0j, -1.0, 0.5])
        assert pure_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert pure_fidelity(StateVector.basis(8, 0), StateVector.basis(8, 7)) == 0.0

    def test_half_overlap(self):
        plus = StateVector.normalized([1.0, 1.0])
        assert pure_fidelity(StateVector.basis(2, 0), plus) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = random_state(rng, 8)
            b = random_state(rng, 8)
            f_ab = pure_fidelity(a, b)
            assert f_ab == pytest.approx(pure_fidelity(b, a), abs=1e-15)
            assert 0.0 <= f_ab <= 1.0


class TestPartialPopulation:
    def test_basis_state_levels(self):
        psi = StateVector.basis(8, 0)
        assert psi.population(0) == 1.0
        assert psi.population(4) == 0.0

    def test_superposition(self):
        plus = StateVector.normalized([1.0, 1.0])
        assert plus.population(0) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            StateVector.basis(2, 0).population(2)


class TestOperatorMatrix:
    def test_hermitian_flag_validated(self):
        with pytest.raises(ConfigError):
            OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_unitary_flag_validated(self):
        with pytest.raises(ConfigError):
            OperatorMatrix(np.diag([2.0, 1.0]), unitary=True)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            OperatorMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            OperatorMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestEigHermitian:
    def test_identity(self):
        values, vectors = eig_hermitian(OperatorMatrix(np.eye(2)))
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(vectors.conj().T @ vectors, np.eye(2))

    def test_diagonal_matrix(self):
        values, vectors = eig_hermitian(OperatorMatrix(np.diag([-3.0, 0.0, 5.0])))
        assert np.allclose(values, [-3.0, 0.0, 5.0])
        # eigenvectors are the standard basis up to phase
        assert np.allclose(np.abs(vectors), np.eye(3))

    def test_symmetric_swap_closed_form(self):
        values, vectors = eig_hermitian(OperatorMatrix(PAULI_X))
        assert np.allclose(values, [-1.0, 1.0])
        low = np.array([1.0, -1.0]) * SQRT_HALF
        high = np.array([1.0, 1.0]) * SQRT_HALF
        assert abs(abs(np.vdot(low, vectors[:, 0])) - 1.0) < 1e-12
        assert abs(abs(np.vdot(high, vectors[:, 1])) - 1.0) < 1e-12

    def test_random_matrices(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 4, 8):
            for _ in range(10):
                m = random_hermitian(rng, dim)
                values, vectors = eig_hermitian(m)
                assert np.all(np.diff(values) >= 0)
                gram = vectors.conj().T @ vectors
                assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
                rebuilt = (vectors * values) @ vectors.conj().T
                scale = np.max(np.abs(m.entries))
                assert np.max(np.abs(rebuilt - m.entries)) < 1e-8 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError):
            eig_hermitian(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestDensityMatrix:
    def test_from_pure_state(self):
        plus = StateVector.normalized([1.0, 1.0])
        rho = DensityMatrix.from_state(plus)
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))
        assert np.allclose(rho.populations(), [0.5, 0.5])

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.populations() == pytest.approx([0.25] * 4)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ConfigError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ConfigError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_state_density_fidelity_matches_pure_case(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = random_state(rng, 4)
            b = random_state(rng, 4)
            rho = DensityMatrix.from_state(b)
            assert state_density_fidelity(a, rho) == pytest.approx(
                abs(inner_product(a, b)) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_state_density_fidelity_batch_matches_per_run(self, dim):
        rng = np.random.default_rng(31)
        psis = [random_state(rng, dim) for _ in range(5)]
        weights = rng.uniform(size=(5, 3))
        rhos = []
        for row in weights / weights.sum(axis=1, keepdims=True):
            pure = [DensityMatrix.from_state(random_state(rng, dim)).entries for _ in row]
            rhos.append(DensityMatrix(sum(w * rho for w, rho in zip(row, pure))))
        entries = np.stack([r.entries for r in rhos])
        got = state_density_fidelity(np.stack([p.amps for p in psis]), entries)
        assert got.shape == (5,)
        for value, psi, rho in zip(got, psis, rhos):
            assert abs(value - state_density_fidelity(psi, rho)) < 1e-15
        # one target against many densities broadcasts too
        many = state_density_fidelity(psis[0], entries)
        assert np.max(np.abs(many - [state_density_fidelity(psis[0], r) for r in rhos])) < 1e-15

    def test_state_density_fidelity_batch_validates_every_run(self):
        rhos = np.stack([np.diag([1.0, 0.0]), np.diag([1.5, -0.5])]).astype(complex)
        amps = np.stack([StateVector.basis(2, 0).amps] * 2)
        with pytest.raises(ConfigError):
            state_density_fidelity(amps, rhos)
        with pytest.raises(ConfigError):
            state_density_fidelity(amps * 2.0, rhos[:1])
        with pytest.raises(ConfigError):
            state_density_fidelity(np.stack([StateVector.basis(4, 0).amps] * 2), rhos)


def concatenating_product(mats):
    """The pairwise tree as it was written with a full-stack concatenate at
    every odd round: the pairing ordered_product must keep."""
    while mats.shape[-3] > 1:
        paired = mats[..., 1::2, :, :] @ mats[..., :-1:2, :, :]
        odd = mats.shape[-3] % 2
        mats = np.concatenate([paired, mats[..., -1:, :, :]], axis=-3) if odd else paired
    return mats[..., 0, :, :]


class TestOrderedProduct:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_keeps_the_pairing_and_the_order(self, n, dtype):
        rng = np.random.default_rng(n)
        mats = rng.normal(size=(3, n, 4, 4)).astype(dtype)
        if dtype is np.complex128:
            mats += 1j * rng.normal(size=mats.shape)
        # unit spectral norms: every product has norm <= 1, so the tolerance is absolute
        mats /= np.linalg.norm(mats, ord=2, axis=(-2, -1))[..., None, None]
        loop = np.broadcast_to(np.eye(4), (3, 4, 4)).astype(dtype)
        for k in range(n):
            loop = mats[:, k] @ loop
        old = concatenating_product(mats)
        half = (n + 1) // 2
        buffers = (np.empty((3 * half, 16), dtype), np.empty((3 * half, 16), dtype))
        for product in (ordered_product(mats), ordered_product(mats, buffers)):
            assert product.shape == (3, 4, 4)
            assert np.array_equal(product, old)
            assert np.max(np.abs(product - loop)) < 1e-12
        # the leading axis is a batch: each row is its own sequence's product
        assert np.array_equal(ordered_product(mats[1]), old[1])

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 89])
    def test_rounds_built_once_run_on_each_refill(self, n):
        # the views stay bound to their buffers: refilling mats and running
        # the same rounds again gives the new sequence's product
        rng = np.random.default_rng(n)
        mats = np.empty((2, n, 4, 4))
        half = (n + 1) // 2
        calls, product = product_rounds(mats, (np.empty((2 * half, 16)), np.empty((2 * half, 16))))
        assert sum(call.func is np.matmul for call in calls) == (n - 1).bit_length()
        for _ in range(3):
            mats[...] = rng.normal(size=mats.shape) / 4.0
            for call in calls:
                call()
            assert np.array_equal(product, concatenating_product(mats))


class TestLastAxisSum:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_bits_as_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(14, 106, n)) * np.exp(rng.normal(scale=8.0, size=(14, 106, n)))
        for arr in (x, x[:5, 3:90], x[..., ::-1], np.square(x), x[0, 0]):
            got = last_axis_sum(arr)
            assert got.shape == arr.shape[:-1]
            assert np.array_equal(got, arr.sum(axis=-1))

    def test_leaves_its_input_alone(self):
        x = np.arange(12.0).reshape(3, 4)
        x.setflags(write=False)
        assert np.array_equal(last_axis_sum(x), [6.0, 22.0, 38.0])
