"""Geometric gate construction from dark states.

A register qubit lives in the two ground levels of each encoding block.
Driving the block so that one superposition (the dark state) decouples
while its orthogonal partner picks up a controllable phase implements a
rotation about an axis set entirely by the drive geometry.  This module
builds those dark states, the unitaries they generate, and the
diagnostics used to read rotation angles back out of simulated
populations: the phase probe returns plain columns, a magnitude, a
discrepancy and an undefined flag per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, OperatorMatrix, StateVector, inner_product
from .evolve import Trajectory

ATOL_ORTHOGONAL = 1e-10
MIN_OVERLAP = 1e-6
MIN_COLUMN_NORM = 1e-9
PHASE_TIE_ULPS = 8  # |imag| within this many ulps of |real| counts as on the real axis


@dataclass(frozen=True)
class GateParams:
    """Drive parameters for one holonomic rotation.

    lam is the dimensionless detuning-to-drive ratio.  When both the
    detuning and the drive amplitude are supplied, lam must equal their
    ratio.
    """

    theta: float = 0.0
    phi: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0
    detuning_mhz: float | None = None
    rabi_mhz: float | None = None

    def __post_init__(self):
        for name in ("theta", "phi", "lam", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.rabi_mhz is not None and self.rabi_mhz <= 0:
            raise ConfigError(f"rabi_mhz must be positive, got {self.rabi_mhz!r}")
        if self.detuning_mhz is not None and self.rabi_mhz is not None:
            implied = self.detuning_mhz / self.rabi_mhz
            if abs(implied - self.lam) > 1e-12:
                raise ConfigError(
                    "lam must equal detuning_mhz / rabi_mhz; "
                    f"got lam={self.lam!r} but ratio {implied!r}"
                )


@dataclass(frozen=True)
class DarkStateParams:
    """Superposition angles selecting the decoupled state."""

    beta: float = math.pi / 4.0
    varphi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.varphi)):
            raise ConfigError("beta and varphi must be finite")


def rotation_axis(theta: float, phi: float) -> np.ndarray:
    """Unit Bloch vector addressed by drive angles (theta, phi).

    The geometry triples both angles, so the axis is periodic in each
    argument with period 2*pi/3.
    """
    return np.array(
        [
            math.sin(3.0 * theta) * math.cos(3.0 * phi),
            math.sin(3.0 * theta) * math.sin(3.0 * phi),
            math.cos(3.0 * theta),
        ]
    )


def dark_states(params: DarkStateParams, dim: int = 8):
    """Decoupled superpositions for one driven block.

    Returns (d_prime, d_double_prime, d_full): the ground-pair dark
    state on levels 0 and 1, the auxiliary-pair dark state on levels 2
    and 3, and their equal combination.  Levels outside the block carry
    no amplitude.
    """
    if dim not in (4, 8):
        raise ConfigError(f"dark states are defined for dim 4 or 8, got {dim!r}")
    sin_b = math.sin(params.beta)
    cos_b = math.cos(params.beta)
    phase = np.exp(1j * params.varphi)

    d_prime = np.zeros(dim, dtype=complex)
    d_prime[0] = sin_b / phase
    d_prime[1] = cos_b * phase

    d_double = np.zeros(dim, dtype=complex)
    d_double[2] = sin_b / phase
    d_double[3] = cos_b * phase

    d_full = (d_prime + d_double) / math.sqrt(2.0)
    return (
        StateVector.normalized(d_prime),
        StateVector.normalized(d_double),
        StateVector(d_full),
    )


def orthogonal_dark_state(dark: StateVector) -> StateVector:
    """Deterministic partner orthogonal to the dark state.

    Built by Gram-Schmidt from the lowest-index basis vector of the
    four-level driven block that keeps a nonzero component after
    projecting the dark state out.
    """
    amps = np.asarray(dark.amps)
    for k in range(min(4, dark.dim)):
        candidate = np.zeros(dark.dim, dtype=complex)
        candidate[k] = 1.0
        candidate -= np.vdot(amps, candidate) * amps
        norm = np.linalg.norm(candidate)
        if norm > MIN_COLUMN_NORM:
            return StateVector(candidate / norm)
    raise ConfigError("dark state spans the whole block; no orthogonal partner")


def holonomic_unitary(
    gamma: float, dark: StateVector, dark_orth: StateVector
) -> OperatorMatrix:
    """Gate that leaves the dark state alone and phases its partner.

    U = exp(i*gamma/2) |dark_orth><dark_orth| + |dark><dark| + identity
    on everything orthogonal to the pair.
    """
    if dark.dim != dark_orth.dim:
        raise ConfigError(f"dimension mismatch: {dark.dim} vs {dark_orth.dim}")
    overlap = inner_product(dark, dark_orth)
    if abs(overlap) > ATOL_ORTHOGONAL:
        raise ConfigError(
            f"states must be orthogonal; |overlap| = {abs(overlap):.3e}"
        )
    partner = np.asarray(dark_orth.amps)
    u = np.eye(dark.dim, dtype=complex)
    u += (np.exp(0.5j * gamma) - 1.0) * np.outer(partner, partner.conj())
    return OperatorMatrix(u, unitary=True)


def single_qubit_unitary(params: GateParams) -> OperatorMatrix:
    """2x2 rotation R_z(phi) . R_x(theta) . R_z(2*arctan(lam)).

    The trailing z-phase encodes the detuning-to-drive ratio, vanishing
    on resonance.
    """
    pre = 2.0 * math.atan(params.lam)
    rz_pre = np.array(
        [[np.exp(-0.5j * pre), 0.0], [0.0, np.exp(0.5j * pre)]], dtype=complex
    )
    half = params.theta / 2.0
    rx = np.array(
        [
            [math.cos(half), -1j * math.sin(half)],
            [-1j * math.sin(half), math.cos(half)],
        ],
        dtype=complex,
    )
    rz_post = np.array(
        [[np.exp(-0.5j * params.phi), 0.0], [0.0, np.exp(0.5j * params.phi)]],
        dtype=complex,
    )
    return OperatorMatrix(rz_post @ rx @ rz_pre, unitary=True)


def phase_from_discrepancy(reference: Trajectory, actual: Trajectory, level: int) -> tuple:
    """Read rotation phases out of two population records.

    The discrepancy is the largest pointwise population difference at the
    monitored level; the magnitude is the phase of the final-state overlap.
    When the overlap is too small to carry a phase the point is flagged
    undefined and its magnitude pinned to zero. actual is one run, or a batch
    of runs on the reference's grid (leading axes on its records). Returns
    phase_probe's three arrays, one entry per run in row-major order.
    """
    if reference.times.shape != actual.times.shape or np.max(
        np.abs(reference.times - actual.times)
    ) > 1e-12:
        raise ConfigError("trajectories must share the sampling grid")
    if reference.amplitudes is None or actual.amplitudes is None:
        raise ConfigError("phase extraction needs amplitude records")
    ref = reference.population_series(level), reference.final_state.amps
    return phase_probe(*ref, actual.population_series(level), actual.amplitudes[..., -1, :])


def phase_probe(ref_series, ref_final, series, finals) -> tuple:
    """The phase rules on arrays: the reference's level series (time,) and
    normalised final state (dim,) against the runs' level series
    (..., time) and final states (..., dim). Returns (magnitude, discrepancy,
    undefined), one entry per run in row-major order. The runs' final states
    need only be near 1 in norm, as records that passed the recorded-norm
    gate are. Magnitudes lie in [-pi, pi): an overlap on the negative real
    axis, up to a few ulps of rounding either way, reads -pi.
    """
    act = series.reshape(-1, ref_series.shape[0])
    discrepancy = np.minimum(np.max(np.abs(ref_series - act), axis=1), 1.0)
    finals = finals.reshape(-1, ref_final.shape[0])
    overlap = (finals @ ref_final.conj()) / np.linalg.norm(finals, axis=1)
    undefined = np.abs(overlap) < MIN_OVERLAP
    residue = PHASE_TIE_ULPS * np.finfo(float).eps * np.abs(overlap.real)
    tie = (overlap.real < 0.0) & (np.abs(overlap.imag) <= residue)
    magnitude = np.where(undefined, 0.0, np.where(tie, -math.pi, np.angle(overlap)))
    return magnitude, discrepancy, undefined
