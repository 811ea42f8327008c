"""Dense complex linear algebra and quantum-state primitives for 2 to 8 levels.

All containers are immutable after construction: input arrays are copied and
the copies marked read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Numerical failure during integration. CLI exit code 3."""


def _frozen_complex_array(values, label, ndim):
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ConfigError(f"{label}: expected {ndim}-d array, got {arr.ndim}-d")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{label}: contains NaN or Inf")
    arr.setflags(write=False)
    return arr


def hermitian_deviation(entries: np.ndarray) -> float:
    """max|M - M^dag|, zero for exactly Hermitian matrices."""
    return float(np.max(np.abs(entries - entries.conj().T)))


def unitary_deviation(entries: np.ndarray) -> float:
    """max|M^dag M - I|."""
    dim = entries.shape[0]
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(dim))))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over 2, 4, or 8 basis levels."""

    amps: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amps, "state amplitudes", ndim=1)
        if arr.shape[0] not in STATE_DIMS:
            raise ConfigError(
                f"state dimension must be one of {STATE_DIMS}, got {arr.shape[0]}"
            )
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > ATOL_NORM:
            raise ConfigError(f"state norm is {norm:.12g}, not 1 within {ATOL_NORM}")
        object.__setattr__(self, "amps", arr)

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
        arr = _frozen_complex_array(self.entries, "density entries", ndim=2)
        if arr.shape[0] != arr.shape[1] or arr.shape[0] not in STATE_DIMS:
            raise ConfigError(
                f"density matrix must be square with dim in {STATE_DIMS}"
            )
        if hermitian_deviation(arr) > ATOL_HERMITIAN:
            raise ConfigError("density matrix is not Hermitian within 1e-12")
        trace = float(np.trace(arr).real)
        if abs(trace - 1.0) > ATOL_NORM:
            raise ConfigError(f"density trace is {trace:.12g}, not 1 within {ATOL_NORM}")
        min_eig = float(np.linalg.eigvalsh(arr)[0])
        if min_eig < MIN_DENSITY_EIGENVALUE:
            raise ConfigError(f"density matrix has eigenvalue {min_eig:.3g} < 0")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        return cls(np.outer(psi.amps, psi.amps.conj()))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


def state_density_fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """<psi|rho|psi>, the overlap of a pure target with a mixed state."""
    if psi.dim != rho.dim:
        raise ConfigError(f"dimension mismatch: {psi.dim} vs {rho.dim}")
    value = float(np.real(psi.amps.conj() @ rho.entries @ psi.amps))
    return min(max(value, 0.0), 1.0)
