"""Rotating-frame and interaction-picture Hamiltonians for the 4- and 8-level
NV register models, driven by pump/Stokes pulse channels.

Unit convention: every user-facing frequency (Rabi amplitude, carrier,
detuning, level energy) is linear MHz and every time is microseconds.
Builders multiply by 2*pi on the way in, so matrix entries are angular
rad/us with hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from nvholo.core import ConfigError, OperatorMatrix

TWO_PI = 2.0 * np.pi
ENVELOPE_KINDS = ("constant", "gaussian", "sin_squared")
GAUSSIAN_CUTOFF_WIDTHS = 4.0
LITERAL = "literal"
HERMITIZED = "hermitized"
HERMITICITY_MODES = (LITERAL, HERMITIZED)


@dataclass(frozen=True)
class EnvelopeShape:
    """Dimensionless pulse envelope, valued in [0, 1] everywhere."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in ENVELOPE_KINDS:
            raise ConfigError(
                f"unknown envelope kind {self.kind!r}, expected one of {ENVELOPE_KINDS}"
            )


def envelope_values(envelope, times, t_center_us: float, t_width_us: float) -> np.ndarray:
    """Vectorized envelope evaluation at the given times.

    constant is 1 on [t_center - width/2, t_center + width/2] and 0 outside;
    gaussian is exp(-(t-t_center)^2 / (2 width^2)) truncated at 4 widths;
    sin_squared spans one width centered on t_center.
    """
    kind = envelope.kind if isinstance(envelope, EnvelopeShape) else envelope
    if kind not in ENVELOPE_KINDS:
        raise ConfigError(f"unknown envelope kind {kind!r}")
    if t_width_us <= 0:
        raise ConfigError("envelope width must be > 0")
    x = np.asarray(times, dtype=float) - t_center_us
    if kind == "constant":
        return np.where(np.abs(x) <= t_width_us / 2.0, 1.0, 0.0)
    if kind == "gaussian":
        values = np.exp(x**2 / -(2.0 * t_width_us**2))
        return np.where(np.abs(x) <= GAUSSIAN_CUTOFF_WIDTHS * t_width_us, values, 0.0)
    values = np.sin(np.pi * (x / t_width_us + 0.5)) ** 2
    return np.where(np.abs(x) <= t_width_us / 2.0, values, 0.0)


@dataclass(frozen=True)
class PulseChannel:
    """One drive tone: Rabi amplitude, carrier, envelope, timing, phase."""

    rabi_mhz: float
    carrier_mhz: float = 0.0
    envelope: EnvelopeShape = EnvelopeShape("gaussian")
    t_center_us: float = 0.0
    t_width_us: float = 1.0
    phase_rad: float = 0.0

    def __post_init__(self):
        scalars = [
            self.rabi_mhz,
            self.carrier_mhz,
            self.t_center_us,
            self.t_width_us,
            self.phase_rad,
        ]
        if not np.all(np.isfinite(scalars)):
            raise ConfigError("pulse channel contains non-finite values")
        if self.rabi_mhz < 0:
            raise ConfigError("rabi amplitude must be >= 0")
        if self.t_width_us <= 0:
            raise ConfigError("pulse width must be > 0")
        if isinstance(self.envelope, str):
            object.__setattr__(self, "envelope", EnvelopeShape(self.envelope))

    def amplitudes(self, times) -> np.ndarray:
        """Complex drive amplitude in angular units (rad/us) at each time. A
        zero carrier's phasor is one constant, so it takes one exp in all."""
        times = np.asarray(times, dtype=float)
        env = envelope_values(self.envelope, times, self.t_center_us, self.t_width_us)
        phases = self.phase_rad - TWO_PI * self.carrier_mhz * times if self.carrier_mhz else self.phase_rad
        return TWO_PI * self.rabi_mhz * env * np.exp(1j * phases)


def silent_channel() -> PulseChannel:
    """A zero-amplitude placeholder for unused drive slots."""
    return PulseChannel(rabi_mhz=0.0, envelope=EnvelopeShape("constant"))


@dataclass(frozen=True)
class PulseSet:
    """Paired pump/Stokes channels: 2 + 2 for dim 4, 3 + 3 for dim 8."""

    pump: tuple
    stokes: tuple

    def __post_init__(self):
        pump = tuple(self.pump)
        stokes = tuple(self.stokes)
        if len(pump) != len(stokes) or len(pump) not in (2, 3):
            raise ConfigError(
                "pulse set needs 2 pump + 2 stokes channels (4-level) "
                "or 3 + 3 (8-level)"
            )
        for ch in pump + stokes:
            if not isinstance(ch, PulseChannel):
                raise ConfigError("pulse set entries must be PulseChannel values")
        object.__setattr__(self, "pump", pump)
        object.__setattr__(self, "stokes", stokes)


@dataclass(frozen=True)
class LevelSpec:
    """Level energies and drive detunings for a 4- or 8-level register."""

    dim: int
    energies_mhz: tuple
    detunings_mhz: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.dim not in (4, 8):
            raise ConfigError(f"level dimension must be 4 or 8, got {self.dim}")
        energies = tuple(float(e) for e in self.energies_mhz)
        detunings = tuple(float(d) for d in self.detunings_mhz)
        if len(energies) != self.dim:
            raise ConfigError(
                f"expected {self.dim} level energies, got {len(energies)}"
            )
        if len(detunings) != 3:
            raise ConfigError("detunings must have exactly 3 entries")
        if not np.all(np.isfinite(energies)) or not np.all(np.isfinite(detunings)):
            raise ConfigError("level energies and detunings must be finite")
        object.__setattr__(self, "energies_mhz", energies)
        object.__setattr__(self, "detunings_mhz", detunings)


def _check_mode(mode: str):
    if mode not in HERMITICITY_MODES:
        raise ConfigError(
            f"unknown hermiticity mode {mode!r}, expected one of {HERMITICITY_MODES}"
        )


@dataclass(frozen=True, eq=False)
class PulsedHamiltonian:
    """Time-dependent rotating-frame Hamiltonian over a pulse set.

    H(t) is affine in the drive amplitudes: H(t) = sum_k c_k(t) B_k over the
    constant Hermitian basis terms() and the real coefficients(times). B_0
    holds the level energies (c_0 = 1); each distinct driven channel, with
    coupling pattern C summed over the slots it fills, adds X = C + C^dag and
    Y = i (C - C^dag) with coefficients Re a(t) and Im a(t), since
    a C + conj(a) C^dag = Re a X + Im a Y. Silent channels (rabi 0) add no
    terms. c_0 is 1 at every time, as the integrator requires of a terms
    source: the Lindblad dissipator joins B_0 alone. The integrator takes
    terms() and coefficients(times); sample(times), the (n, dim, dim) stack
    coefficients @ terms, serves recommended_dt's probe and single frames.

    The coupling layout for dim 8 pairs pump channels 1/2 on the
    (|1><7| - |1><8|) pattern, Stokes channels 1/2 on (|2><7| + |2><8|) with
    an overall minus, plus the single couplings pump 3 on (1,3) and Stokes 3
    on (2,4). For dim 4 the same pump/Stokes sign pattern acts on (1,3)/(1,4)
    and (2,3)/(2,4).
    """

    spec: LevelSpec
    pulses: PulseSet

    def __post_init__(self):
        expected = 3 if self.spec.dim == 8 else 2
        if len(self.pulses.pump) != expected:
            raise ConfigError(
                f"dim {self.spec.dim} needs {expected} pump/stokes channel pairs, "
                f"got {len(self.pulses.pump)}"
            )

    @property
    def dim(self) -> int:
        return self.spec.dim

    @cached_property
    def _driven(self) -> tuple:
        """The distinct channels with a drive, in order of first use: equal
        channels have equal amplitudes, and silent ones are zero. Cached per
        instance, as hashing the frozen channels on every call is slow."""
        return tuple(
            ch for ch in dict.fromkeys(self.pulses.pump + self.pulses.stokes) if ch.rabi_mhz
        )

    def terms(self) -> np.ndarray:
        """The (K, dim, dim) Hermitian basis: B_0, then X and Y per driven
        channel."""
        dim = self.spec.dim
        pump, stokes = self.pulses.pump, self.pulses.stokes
        first, second = (6, 7) if dim == 8 else (2, 3)
        slots = []  # (channel, row, column, weight) above the diagonal
        for sign, p, s in zip((1.0, -1.0), pump, stokes):
            slots += [(p, 0, first, 0.5j * sign), (p, 0, second, -0.5j * sign)]
            slots += [(s, 1, first, -0.5j * sign), (s, 1, second, -0.5j * sign)]
        if dim == 8:
            slots += [(pump[2], 0, 2, 0.5j), (stokes[2], 1, 3, -0.5j)]
        couplings = {ch: np.zeros((dim, dim), dtype=np.complex128) for ch in self._driven}
        for ch, row, column, weight in slots:
            if ch in couplings:
                couplings[ch][row, column] += weight
        basis = [np.diag(TWO_PI * np.asarray(self.spec.energies_mhz)).astype(np.complex128)]
        for c in couplings.values():
            basis += [c + c.conj().T, 1j * (c - c.conj().T)]
        return np.stack(basis)

    def coefficients(self, times) -> np.ndarray:
        """The real (n, K) coefficients of terms() at the times: 1, then
        Re a(t) and Im a(t) per driven channel, in angular units."""
        times = np.asarray(times, dtype=float)
        out = np.ones(times.shape + (1 + 2 * len(self._driven),))
        for k, ch in enumerate(self._driven):
            amplitude = ch.amplitudes(times)
            out[..., 2 * k + 1] = amplitude.real
            out[..., 2 * k + 2] = amplitude.imag
        return out

    def sample(self, times) -> np.ndarray:
        basis = self.terms()
        frames = self.coefficients(times) @ basis.reshape(basis.shape[0], -1)
        return frames.reshape((-1,) + basis.shape[1:])


def build_rotating_frame_8(spec: LevelSpec, pulses: PulseSet, t: float) -> OperatorMatrix:
    """8x8 rotating-frame Hamiltonian at time t (Hermitian by construction)."""
    if spec.dim != 8:
        raise ConfigError(f"expected dim 8, got {spec.dim}")
    return OperatorMatrix(PulsedHamiltonian(spec, pulses).sample([t])[0], hermitian=True)


def build_rotating_frame_4(spec: LevelSpec, pulses: PulseSet, t: float) -> OperatorMatrix:
    """4x4 rotating-frame Hamiltonian at time t (Hermitian by construction)."""
    if spec.dim != 4:
        raise ConfigError(f"expected dim 4, got {spec.dim}")
    return OperatorMatrix(PulsedHamiltonian(spec, pulses).sample([t])[0], hermitian=True)


def build_interaction_8(spec: LevelSpec, rabi_mhz, mode: str = HERMITIZED) -> OperatorMatrix:
    """8x8 interaction-picture matrix over six drive amplitudes.

    literal mode reproduces the published layout entry for entry, including
    its asymmetric delta_1 entries at (3,7) and (6,3) and the all-zero
    rows/columns 4 and 5; hermitized mode returns (M + M^dag)/2.
    """
    if spec.dim != 8:
        raise ConfigError(f"expected dim 8, got {spec.dim}")
    _check_mode(mode)
    r = np.asarray(rabi_mhz, dtype=np.complex128)
    if r.shape != (6,):
        raise ConfigError(f"expected 6 drive amplitudes, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ConfigError("drive amplitudes must be finite")
    r = TWO_PI * r
    d1, d2, d3 = (TWO_PI * d for d in spec.detunings_mhz)
    m = np.zeros((8, 8), dtype=np.complex128)
    m[0, 2] = 0.5j * r[0]
    m[0, 6] = 0.5j * r[1]
    m[0, 7] = 0.5j * r[2]
    m[1, 5] = -0.5j * r[5]
    m[1, 6] = -0.5j * r[4]
    m[1, 7] = -0.5j * r[3]
    m[2, 0] = -0.5j * np.conj(r[0])
    m[2, 2] = d1
    m[2, 6] = d1
    m[5, 1] = 0.5j * np.conj(r[5])
    m[5, 2] = d1
    m[5, 5] = d1
    m[6, 0] = -0.5j * np.conj(r[1])
    m[6, 1] = 0.5j * np.conj(r[4])
    m[6, 6] = d2
    m[7, 0] = -0.5j * np.conj(r[2])
    m[7, 1] = 0.5j * np.conj(r[3])
    m[7, 7] = d3
    if mode == HERMITIZED:
        return OperatorMatrix((m + m.conj().T) / 2.0, hermitian=True)
    return OperatorMatrix(m)
