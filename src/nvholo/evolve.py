"""Fixed-step integrators for the Schrodinger and Lindblad equations.

The stepper is classical fourth order with the Hamiltonian sampled at the
substage times t, t + dt/2, t + dt. Both equations are linear, so every step
is a transfer matrix T, and _integrate propagates the steps in chunks. A
chunk's states are filled in one of two ways:

- constant H: T is built once, and the states T^j y come from powers of T by
  doubling, a handful of array products instead of a step loop;
- time-dependent H: the chunk is sampled and its transfer matrices are
  assembled with batched products, then applied one after another.

Either way, one checkpoint pass over the filled states checks the norm drift,
renormalises and stores the records. Fixed steps keep runs bit-for-bit
reproducible.

The requested dt is snapped to an integer number of steps spanning exactly
[t_start, t_end], so endpoints are hit without a fractional step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    OperatorMatrix,
    StateVector,
)

LOG = logging.getLogger(__name__)

DEFAULT_T1_US = 100.0
DEFAULT_T2_US = 50.0
SAMPLES_PER_ANGULAR_UNIT = 200.0
ATOL_SAMPLE_HERMITIAN = 1e-10
MAX_NORM_DRIFT = 1e-3
ATOL_RECORDED_NORM = 1e-6
TRANSFER_CHUNK_BYTES = 32_000_000
MAX_CHUNK_STEPS = 8192


@dataclass(frozen=True)
class EvolutionConfig:
    t_start_us: float
    t_end_us: float
    dt_us: float
    record_stride: int = 1
    renormalize: bool = True

    def __post_init__(self):
        values = [self.t_start_us, self.t_end_us, self.dt_us]
        if not np.all(np.isfinite(values)):
            raise ConfigError("evolution times must be finite")
        if self.dt_us <= 0:
            raise ConfigError("dt must be > 0")
        if self.t_end_us <= self.t_start_us:
            raise ConfigError("t_end must exceed t_start")
        if self.dt_us > self.t_end_us - self.t_start_us:
            raise ConfigError("dt must not exceed the evolution span")
        if self.record_stride != int(self.record_stride) or self.record_stride < 1:
            raise ConfigError("record_stride must be an integer >= 1")


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit amplitude damping (rate 1/t1) and pure dephasing
    (rate 1/t2 - 1/(2 t1)), applied identically to every qubit of the
    register. Infinite times switch the corresponding channel off."""

    t1_us: float = DEFAULT_T1_US
    t2_us: float = DEFAULT_T2_US
    enabled: bool = True

    def __post_init__(self):
        if not self.t1_us > 0:
            raise ConfigError(f"t1 must be > 0, got {self.t1_us}")
        if not self.t2_us > 0:
            raise ConfigError(f"t2 must be > 0, got {self.t2_us}")
        if self.t2_us > 2.0 * self.t1_us:
            raise ConfigError(
                f"t2 ({self.t2_us} us) exceeds 2*t1 ({2.0 * self.t1_us} us); "
                "pure dephasing rate would be negative"
            )

    def rates(self) -> tuple[float, float]:
        """(amplitude damping rate, pure dephasing rate) in 1/us."""
        gamma1 = 0.0 if math.isinf(self.t1_us) else 1.0 / self.t1_us
        total2 = 0.0 if math.isinf(self.t2_us) else 1.0 / self.t2_us
        return gamma1, max(total2 - gamma1 / 2.0, 0.0)

    def lindblad_operators(self, dim: int) -> tuple[np.ndarray, ...]:
        """Collapse operators on the register encoding, one damping and one
        dephasing operator per qubit. The first qubit is the most
        significant bit of the 0-based level index."""
        if dim not in (2, 4, 8):
            raise ConfigError(f"noise operators require dim in (2, 4, 8), got {dim}")
        gamma1, gamma_phi = self.rates()
        n_qubits = dim.bit_length() - 1
        ops = []
        for qubit in range(n_qubits):
            weight = n_qubits - 1 - qubit
            lower = np.zeros((dim, dim), dtype=np.complex128)
            zdiag = np.ones(dim)
            for k in range(dim):
                if (k >> weight) & 1:
                    lower[k - (1 << weight), k] = 1.0
                    zdiag[k] = -1.0
            if gamma1 > 0.0:
                ops.append(math.sqrt(gamma1) * lower)
            if gamma_phi > 0.0:
                ops.append(math.sqrt(gamma_phi / 2.0) * np.diag(zdiag).astype(np.complex128))
        return tuple(ops)

    def dissipator(self, dim: int) -> np.ndarray:
        """Time-independent dissipative part of the master equation, acting
        on row-major vectorized density matrices."""
        eye = np.eye(dim)
        total = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for op in self.lindblad_operators(dim):
            ldl = op.conj().T @ op
            total += np.kron(op, op.conj())
            total -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        return total


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded time series of one evolution.

    norms holds the state norm (or density trace) at each recorded step as
    it was before any renormalization, so it documents integrator drift
    even when per-step correction is on.
    """

    times: np.ndarray
    populations: np.ndarray
    amplitudes: np.ndarray = None
    densities: np.ndarray = None
    norms: np.ndarray = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pops = np.asarray(self.populations, dtype=float)
        if times.ndim != 1 or pops.ndim != 2 or pops.shape[0] != times.shape[0]:
            raise ConfigError("trajectory arrays have inconsistent shapes")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if self.amplitudes is not None:
            actual = np.linalg.norm(np.asarray(self.amplitudes), axis=1)
        elif self.densities is not None:
            actual = np.real(np.trace(np.asarray(self.densities), axis1=1, axis2=2))
        else:
            actual = None
        if actual is not None:
            drift = float(np.max(np.abs(actual - 1.0)))
            if not drift <= ATOL_RECORDED_NORM:
                raise NumericalError(
                    f"recorded norm drifted by {drift:.3g} (> {ATOL_RECORDED_NORM})"
                )
        for name in ("times", "populations", "amplitudes", "densities", "norms"):
            value = getattr(self, name)
            if value is not None:
                arr = np.asarray(value)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.populations.shape[1]

    def state(self, index: int) -> StateVector:
        if self.amplitudes is None:
            raise ConfigError("trajectory holds no state-vector records")
        return StateVector.normalized(self.amplitudes[index])

    @property
    def final_state(self) -> StateVector:
        return self.state(-1)

    def population_series(self, level: int) -> np.ndarray:
        return self.populations[:, level]


def _as_source(h_of_t):
    """(sample, constant): sample maps an array of times to the stack of
    Hamiltonian frames at those times; constant says every frame is equal."""
    if isinstance(h_of_t, OperatorMatrix):
        h_of_t = h_of_t.entries
    if isinstance(h_of_t, np.ndarray):
        entries = np.asarray(h_of_t, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ConfigError("constant Hamiltonian must be a square matrix")
        return (lambda times: np.broadcast_to(entries, (len(times),) + entries.shape)), True
    if hasattr(h_of_t, "sample"):
        return (lambda times: np.asarray(h_of_t.sample(times), dtype=np.complex128)), False
    if callable(h_of_t):

        def sample(times):
            frames = []
            for t in times:
                h = h_of_t(float(t))
                frames.append(h.entries if isinstance(h, OperatorMatrix) else h)
            return np.asarray(frames, dtype=np.complex128)

        return sample, False
    raise ConfigError(
        "Hamiltonian must be a matrix, a sampler with .sample(times), "
        "or a callable of time"
    )


def _plan_steps(cfg: EvolutionConfig) -> tuple[int, float]:
    span = cfg.t_end_us - cfg.t_start_us
    n_steps = max(1, int(round(span / cfg.dt_us)))
    return n_steps, span / n_steps


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=int)


def _chunk_steps(dim: int) -> int:
    per_step = dim * dim * 16 * 10
    return int(min(MAX_CHUNK_STEPS, max(16, TRANSFER_CHUNK_BYTES // per_step)))


def _check_samples(stack: np.ndarray, dim: int, where: str):
    if stack.shape[1:] != (dim, dim):
        raise ConfigError(
            f"Hamiltonian samples have shape {stack.shape[1:]}, expected ({dim}, {dim})"
        )
    if not np.all(np.isfinite(stack)):
        raise NumericalError(f"non-finite Hamiltonian sample near {where}")
    deviation = float(np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1))))))
    tolerance = ATOL_SAMPLE_HERMITIAN * max(1.0, float(np.max(np.abs(stack))))
    if deviation > tolerance:
        raise NumericalError(
            f"non-Hermitian Hamiltonian sample near {where} "
            f"(deviation {deviation:.3g})"
        )


def _transfer_stack(a_start, a_mid, a_end, dt: float) -> np.ndarray:
    """Exact RK4 update matrices for the linear system y' = A(t) y."""
    m21 = a_mid @ a_start
    m32 = a_mid @ a_mid
    m43 = a_end @ a_mid
    m321 = a_mid @ m21
    m432 = a_end @ m32
    m4321 = a_end @ m321
    out = (dt / 6.0) * (a_start + 4.0 * a_mid + a_end)
    out += (dt * dt / 6.0) * (m21 + m32 + m43)
    out += (dt**3 / 12.0) * (m321 + m432)
    out += (dt**4 / 24.0) * m4321
    dim = out.shape[-1]
    idx = np.arange(dim)
    out[:, idx, idx] += 1.0
    return out


def _fill_by_doubling(states: np.ndarray, powers: list, m: int):
    """Rows 1..m of states = T^j times row 0, from powers = [T, T^2, T^4, ...]:
    rows n..2n-1 are T^n times rows 0..n-1. The products go through einsum's
    own loop, because OpenBLAS splits a gemm this tall across threads and
    their start-up dwarfs the product."""
    filled = 1
    for power in powers:
        if filled > m:
            break
        take = min(filled, m + 1 - filled)
        np.einsum("kj,ij->ki", states[:take], power, out=states[filled : filled + take])
        filled += take


def _integrate(h_of_t, lift, y0, cfg, dim_protect, measure):
    """Shared chunked integrator for the linear system y' = A(t) y.

    lift maps a validated Hamiltonian sample stack to the A(t) stack of the
    system; measure maps vectors with a leading batch axis to (norm-like
    scalars, populations); dim_protect is the Hamiltonian dimension used for
    sample validation.

    The steps are cut into chunks of _chunk_steps. Each chunk fills a buffer
    whose row j is the state j steps past the chunk start, in one of two ways:
    a constant H has a single RK4 transfer matrix T, and the rows come from
    powers of T by doubling (_fill_by_doubling); a time-dependent H is sampled
    over the chunk, lifted to its stack of transfer matrices, and the rows are
    filled one matrix-vector product at a time.

    One checkpoint block then reads the filled rows at the chunk's records
    and at its end: it checks the norm drift of each, renormalises, stores
    the records, and carries the last row into the next chunk. No row is
    renormalised while the chunk is filled; a scalar commutes with the linear
    map, so each reported norm is the ratio of its raw norm to that of the
    record before it, as a step-by-step renormalising loop would report it.
    """
    sample, constant = _as_source(h_of_t)
    n_steps, dt = _plan_steps(cfg)
    record_at = _record_steps(n_steps, int(cfg.record_stride))
    n_records = record_at.shape[0]
    y_dim = y0.shape[0]

    times = cfg.t_start_us + dt * record_at.astype(float)
    records = np.empty((n_records, y_dim), dtype=np.complex128)
    norms = np.empty(n_records, dtype=float)
    pops = np.empty((n_records, dim_protect), dtype=float)

    norm0, pop0 = measure(y0)
    records[0] = y0
    norms[0] = norm0
    pops[0] = pop0
    next_record = 1
    max_drift = abs(norm0 - 1.0)

    def transfers(k0: int, k1: int) -> np.ndarray:
        sub = cfg.t_start_us + (dt / 2.0) * np.arange(2 * k0, 2 * k1 + 1)
        stack = sample(sub)
        _check_samples(stack, dim_protect, f"t={sub[0]:.6g} us")
        a = lift(stack)
        return _transfer_stack(a[0:-1:2], a[1::2], a[2::2], dt)

    chunk = min(_chunk_steps(y_dim), n_steps)
    states = np.empty((chunk + 1, y_dim), dtype=np.complex128)
    states[0] = y0
    # transfers and states may overflow; the drift check rejects NaN and Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if constant:
            powers = [transfers(0, 1)[0]]  # T, T^2, T^4, ...
            while (1 << len(powers)) <= chunk:
                powers.append(powers[-1] @ powers[-1])
        for k0 in range(0, n_steps, chunk):
            k1 = min(k0 + chunk, n_steps)
            if constant:
                _fill_by_doubling(states, powers, k1 - k0)
            else:
                transfer = transfers(k0, k1)
                for j in range(k1 - k0):
                    np.matmul(transfer[j], states[j], out=states[j + 1])

            last_record = int(np.searchsorted(record_at, k1, side="right"))
            checked = record_at[next_record:last_record]
            if checked.shape[0] == 0 or checked[-1] != k1:
                checked = np.append(checked, k1)
            raw = states[checked - k0]
            raw_norms, _ = measure(raw)
            divisors = np.ones_like(raw_norms)
            if cfg.renormalize:
                divisors[1:] = raw_norms[:-1]
            reported = raw_norms / divisors
            drifts = np.abs(reported - 1.0)
            failed = ~(drifts <= MAX_NORM_DRIFT)  # NaN fails too
            if failed.any():
                first = int(np.argmax(failed))
                step = int(checked[first])
                raise NumericalError(
                    f"norm drifted to {reported[first]:.6g} at step {step} "
                    f"(t={cfg.t_start_us + step * dt:.6g} us); reduce dt"
                )
            max_drift = max(max_drift, float(np.max(drifts)))
            if cfg.renormalize:
                raw /= raw_norms[:, None]
            n_new = last_record - next_record
            records[next_record:last_record] = raw[:n_new]
            norms[next_record:last_record] = reported[:n_new]
            pops[next_record:last_record] = measure(raw[:n_new])[1]
            next_record = last_record
            scale = 1.0
            if cfg.renormalize:
                scale = raw_norms[-1] if n_new == checked.shape[0] else divisors[-1]
            states[0] = states[k1 - k0] / scale

    LOG.debug(
        "integrated %d steps of dt=%.3g us; max norm drift %.3e",
        n_steps,
        dt,
        max_drift,
    )
    return times, records, norms, pops


def evolve_schrodinger(h_of_t, psi0: StateVector, cfg: EvolutionConfig) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi (hbar = 1, angular units)."""
    dim = psi0.dim

    def lift(stack):
        return -1j * stack

    def measure(y):
        pops = np.real(y) ** 2 + np.imag(y) ** 2
        return np.sqrt(pops.sum(axis=-1)), pops

    times, records, norms, pops = _integrate(
        h_of_t, lift, psi0.amps.astype(np.complex128), cfg, dim, measure
    )
    return Trajectory(
        times=times, populations=pops, amplitudes=records, norms=norms
    )


def evolve_lindblad(
    h_of_t, rho0: DensityMatrix, noise: NoiseModel, cfg: EvolutionConfig
) -> Trajectory:
    """Integrate the master equation with the configured noise channels."""
    if not noise.enabled:
        raise ConfigError("noise model is disabled; use evolve_schrodinger instead")
    dim = rho0.dim
    dissipator = noise.dissipator(dim)
    eye = np.eye(dim)
    diag_slice = slice(0, dim * dim, dim + 1)

    def lift(stack):
        n = stack.shape[0]
        kron_hi = (
            stack[:, :, None, :, None] * eye[None, None, :, None, :]
        ).reshape(n, dim * dim, dim * dim)
        ht = np.transpose(stack, (0, 2, 1))
        kron_iht = (
            eye[None, :, None, :, None] * ht[:, None, :, None, :]
        ).reshape(n, dim * dim, dim * dim)
        return -1j * (kron_hi - kron_iht) + dissipator

    def measure(y):
        diag = np.real(y[..., diag_slice])
        return diag.sum(axis=-1), diag

    times, records, norms, pops = _integrate(
        h_of_t, lift, rho0.entries.flatten(), cfg, dim, measure
    )
    return Trajectory(
        times=times,
        populations=pops,
        densities=records.reshape(-1, dim, dim),
        norms=norms,
    )


def convergence_check(h_of_t, psi0: StateVector, cfg: EvolutionConfig) -> float:
    """Max population difference between runs at dt and dt/2; a small value
    validates the step size."""
    n_steps, dt = _plan_steps(cfg)
    span = cfg.t_end_us - cfg.t_start_us
    base = evolve_schrodinger(h_of_t, psi0, replace(cfg, dt_us=dt))
    half = evolve_schrodinger(
        h_of_t,
        psi0,
        replace(
            cfg,
            dt_us=span / (2 * n_steps),
            record_stride=int(cfg.record_stride) * 2,
        ),
    )
    return float(np.max(np.abs(base.populations - half.populations)))


def recommended_dt(h_of_t, t_start_us: float, t_end_us: float, probe_points: int = 1025) -> float:
    """Default step: 1/(200 f_max) with f_max the largest angular frequency
    (max matrix entry magnitude, rad/us) seen on a dense probe grid."""
    if t_end_us <= t_start_us:
        raise ConfigError("t_end must exceed t_start")
    sample, constant = _as_source(h_of_t)
    # a constant H needs one frame, not the whole probe grid
    stack = sample(np.linspace(t_start_us, t_end_us, 1 if constant else probe_points))
    f_max = max(float(np.max(np.abs(stack))), 1.0)
    dt = 1.0 / (SAMPLES_PER_ANGULAR_UNIT * f_max)
    return min(dt, (t_end_us - t_start_us) / 2.0)
