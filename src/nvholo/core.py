"""Dense complex linear algebra and quantum-state primitives for 2 to 8 levels.

All containers are immutable after construction: input arrays are copied and
the copies marked read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

ATOL_NORM = 1e-9
ATOL_HERMITIAN = 1e-12
ATOL_UNITARY = 1e-10
MIN_DENSITY_EIGENVALUE = -1e-8
STATE_DIMS = (2, 4, 8)
MAX_DIM = 8


class ConfigError(ValueError):
    """Invalid configuration or constructor input. CLI exit code 2."""


class NumericalError(RuntimeError):
    """Numerical failure during integration. CLI exit code 3. member is the
    failing run of a batched integration (else None), and detail the message
    without it, for a runner to name the run by its sweep point."""

    def __init__(self, detail: str, member: int | None = None):
        super().__init__(detail if member is None else f"run {member}: {detail}")
        self.detail, self.member = detail, member


def _frozen_complex_array(values, label, ndim):
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ConfigError(f"{label}: expected {ndim}-d array, got {arr.ndim}-d")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{label}: contains NaN or Inf")
    arr.setflags(write=False)
    return arr


def hermitian_deviation(entries: np.ndarray) -> float:
    """max|M - M^dag| over a matrix or a stack of them (last two axes)."""
    return float(np.max(np.abs(entries - np.swapaxes(entries, -1, -2).conj())))


def checked_amplitudes(values, ndim: int) -> np.ndarray:
    """Frozen normalized amplitudes over 2, 4 or 8 levels; one state per row
    when ndim is 2."""
    arr = _frozen_complex_array(values, "state amplitudes", ndim)
    if arr.shape[-1] not in STATE_DIMS or arr.size == 0:
        raise ConfigError(f"state dimension must be one of {STATE_DIMS}, got {arr.shape[-1]}")
    drift = float(np.max(np.abs(np.linalg.norm(arr, axis=-1) - 1.0)))
    if drift > ATOL_NORM:
        raise ConfigError(f"state norm is off 1 by {drift:.3g} (> {ATOL_NORM})")
    return arr


def checked_densities(values, ndim: int) -> np.ndarray:
    """Frozen Hermitian, unit-trace, positive-semidefinite matrix; one per
    leading index when ndim is 3."""
    arr = _frozen_complex_array(values, "density entries", ndim)
    if arr.shape[-1] != arr.shape[-2] or arr.shape[-1] not in STATE_DIMS or arr.size == 0:
        raise ConfigError(f"density matrix must be square with dim in {STATE_DIMS}")
    if hermitian_deviation(arr) > ATOL_HERMITIAN:
        raise ConfigError("density matrix is not Hermitian within 1e-12")
    drift = float(np.max(np.abs(np.trace(arr, axis1=-2, axis2=-1).real - 1.0)))
    if drift > ATOL_NORM:
        raise ConfigError(f"density trace is off 1 by {drift:.3g} (> {ATOL_NORM})")
    min_eig = float(np.min(np.linalg.eigvalsh(arr)[..., 0]))
    if min_eig < MIN_DENSITY_EIGENVALUE:
        raise ConfigError(f"density matrix has eigenvalue {min_eig:.3g} < 0")
    return arr


def unitary_deviation(entries: np.ndarray) -> float:
    """max|M^dag M - I|."""
    dim = entries.shape[0]
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(dim))))


def product_rounds(mats: np.ndarray, buffers=None) -> tuple[list, np.ndarray]:
    """The rounds of ordered_product(mats, buffers) as calls bound to views,
    and the view that holds the product once they have run. Calls bound to
    reused buffers are built once and run each time the buffers refill."""
    lead, n, shape = mats.shape[:-3], mats.shape[-3], mats.shape[-2:]
    if buffers is None:
        half = (n + 1) // 2
        buffers = [np.empty(lead + (m,) + shape, mats.dtype) for m in (half, (half + 1) // 2)]
    flats = [b.reshape(-1) for b in buffers]
    calls, turn = [], 0
    while n > 1:
        pairs, odd = divmod(n, 2)
        size = math.prod(lead) * (pairs + odd) * shape[0] * shape[1]
        out = flats[turn][:size].reshape(lead + (pairs + odd,) + shape)
        left, right = mats[..., 1::2, :, :], mats[..., :-1:2, :, :]
        calls.append(partial(np.matmul, left, right, out[..., :pairs, :, :]))
        calls += [partial(np.copyto, out[..., -1, :, :], mats[..., -1, :, :])] if odd else []
        mats, n, turn = out, pairs + odd, 1 - turn
    return calls, mats[..., 0, :, :]


def ordered_product(mats: np.ndarray, buffers=None) -> np.ndarray:
    """M[n-1] @ ... @ M[0] of the sequence of matrices on axis -3, for every
    leading index at once, multiplied pairwise in log2(n) batched rounds.

    Each round writes its pairs into one of two buffers in turn and copies
    an odd last matrix after them, so no round concatenates the stack.
    buffers, if given, are two C-contiguous arrays of mats' dtype with room
    for half of mats' matrices each (rounded up); the result is then a view
    into one of them, or into mats when n is 1."""
    calls, product = product_rounds(mats, buffers)
    for call in calls:
        call()
    return product


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over 2, 4, or 8 basis levels."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", checked_amplitudes(self.amps, ndim=1))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def basis(cls, dim: int, level: int) -> "StateVector":
        """Computational basis state |level> in the given dimension."""
        if not 0 <= level < dim:
            raise IndexError(f"level {level} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[level] = 1.0
        return cls(amps)

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Build a state from arbitrary amplitudes, dividing out the norm."""
        arr = np.asarray(values, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not np.isfinite(norm):
            raise ConfigError("cannot normalize zero or non-finite amplitudes")
        return cls(arr / norm)

    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def population(self, level: int) -> float:
        """Population |amps[level]|^2 of a single basis level."""
        if not 0 <= level < self.dim:
            raise IndexError(f"level {level} out of range for dim {self.dim}")
        return float(abs(self.amps[level]) ** 2)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise ConfigError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense square complex matrix with optional Hermitian/unitary validation.

    Setting a flag at construction enforces the corresponding invariant:
    hermitian requires max|M - M^dag| <= 1e-12 (scaled by the largest entry)
    and unitary requires max|M^dag M - I| <= 1e-10.
    """

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries, "operator entries", ndim=2)
        if arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"operator must be square, got shape {arr.shape}")
        if not 1 <= arr.shape[0] <= MAX_DIM:
            raise ConfigError(f"operator dimension must be 1..{MAX_DIM}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if self.hermitian and hermitian_deviation(arr) > ATOL_HERMITIAN * scale:
            raise ConfigError("hermitian flag set on a non-Hermitian matrix")
        if self.unitary and unitary_deviation(arr) > ATOL_UNITARY:
            raise ConfigError("unitary flag set on a non-unitary matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def eig_hermitian(m: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian matrix.

    The Hermiticity precondition is checked against a tolerance scaled by the
    largest entry magnitude.
    """
    arr = m.entries
    scale = max(1.0, float(np.max(np.abs(arr))))
    if hermitian_deviation(arr) > ATOL_HERMITIAN * scale:
        raise ConfigError("eig_hermitian requires a Hermitian matrix")
    values, vectors = np.linalg.eigh(arr)
    return values, vectors


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over the register."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", checked_densities(self.entries, ndim=2))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        return cls(np.outer(psi.amps, psi.amps.conj()))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


def state_density_fidelity(psi, rho):
    """<psi|rho|psi>, the overlap of a pure target with a mixed state,
    clipped to [0, 1]. psi may be a (runs, dim) array of normalized
    amplitudes and rho a (runs, dim, dim) array of densities, broadcast
    against each other; a batch gives one overlap per run."""
    amps = psi.amps if isinstance(psi, StateVector) else checked_amplitudes(psi, 2)
    entries = rho.entries if isinstance(rho, DensityMatrix) else checked_densities(rho, 3)
    if amps.shape[-1] != entries.shape[-1]:
        raise ConfigError(f"dimension mismatch: {amps.shape[-1]} vs {entries.shape[-1]}")
    overlap = np.einsum("...i,...ij,...j->...", amps.conj(), entries, amps)
    value = np.clip(np.real(overlap), 0.0, 1.0)
    return float(value) if value.ndim == 0 else value
