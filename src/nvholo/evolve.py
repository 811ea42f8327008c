"""Fixed-step integrators for the Schrodinger and Lindblad equations.

The stepper is classical fourth order with the Hamiltonian sampled at the
substage times t, t + dt/2, t + dt. Both equations are linear, so every step
is a transfer matrix T, and _integrate propagates the steps in chunks,
materialising the states only at the steps it checks (records, chunk ends):

- constant H: T is built once, and the states T^j y come from powers of T by
  doubling, a handful of array products instead of a step loop;
- time-dependent H: the chunk's A(t) frames are built and its transfer
  matrices follow in batched products; those between two checked steps are
  multiplied into one matrix by a pairwise tree, and the states cross it in
  one product. States of up to REAL_FORM_MAX_DIM entries (Schrodinger at dims
  2, 4, 8 and Lindblad at dim 2) take these products in the equivalent real
  form, where each complex entry is a 2x2 real block, because numpy's
  per-matrix cost on small complex stacks exceeds their arithmetic. A source
  that gives H(t) = sum_k c_k(t) B_k through terms() and coefficients(times)
  (PulsedHamiltonian) has its basis checked, lifted and put in that form once
  per call, so a chunk's frames are one product of its real coefficients with
  the basis; other sources are sampled, checked and lifted frame by frame.

Either way, one checkpoint pass checks the norm drift, renormalises and stores
the records. Fixed steps keep runs bit-for-bit reproducible. One call
integrates a batch of runs on one time grid: start states with a leading run
axis, or a stack of constant H's, one per run, broadcast against a single
other; an unbatched call is a batch of one, and every run keeps its own drift
gate and renormalisation. The requested dt is snapped to an integer number of
steps spanning exactly [t_start, t_end], without a fractional step.
"""

from __future__ import annotations

import functools
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
    checked_amplitudes,
    checked_densities,
    ordered_product,
)

LOG = logging.getLogger(__name__)

DEFAULT_T1_US = 100.0
DEFAULT_T2_US = 50.0
SAMPLES_PER_ANGULAR_UNIT = 200.0
ATOL_SAMPLE_HERMITIAN = 1e-10
MAX_NORM_DRIFT = 1e-3
ATOL_RECORDED_NORM = 1e-6
TRANSFER_CHUNK_BYTES = 1_000_000
MAX_CHUNK_STEPS = 8192
REAL_FORM_MAX_DIM = 8


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

    @functools.lru_cache(maxsize=8)  # bounded: models come and go with T1, T2
    def dissipator(self, dim: int) -> np.ndarray:
        """Time-independent dissipative part of the master equation, acting
        on row-major vectorized density matrices; cached, so read-only."""
        eye = np.eye(dim)
        total = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for op in self.lindblad_operators(dim):
            ldl = op.conj().T @ op
            total += np.kron(op, op.conj())
            total -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        total.setflags(write=False)
        return total


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded time series of one evolution, or of a batch of evolutions on
    one time grid (leading batch axes before the time axis). Every run's
    records are checked; a failure names the first failing run as its member.

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
        if times.ndim != 1 or pops.ndim < 2 or pops.shape[-2] != times.shape[0]:
            raise ConfigError("trajectory arrays have inconsistent shapes")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if self.amplitudes is not None:
            actual = np.linalg.norm(np.asarray(self.amplitudes), axis=-1)
        elif self.densities is not None:
            actual = np.real(np.trace(np.asarray(self.densities), axis1=-2, axis2=-1))
        else:
            actual = None
        if actual is not None:
            drift = np.max(np.abs(actual - 1.0).reshape(-1, actual.shape[-1]), axis=1)
            run = int(np.argmax(~(drift <= ATOL_RECORDED_NORM)))
            if not drift[run] <= ATOL_RECORDED_NORM:
                raise NumericalError(
                    f"recorded norm drifted by {drift[run]:.3g} (> {ATOL_RECORDED_NORM})",
                    member=run if drift.shape[0] > 1 else None,
                )
        for name in ("times", "populations", "amplitudes", "densities", "norms"):
            value = getattr(self, name)
            if value is not None:
                arr = np.asarray(value)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.populations.shape[-1]

    def state(self, index: int) -> StateVector:
        """State at record index of an unbatched trajectory."""
        if self.amplitudes is None:
            raise ConfigError("trajectory holds no state-vector records")
        return StateVector.normalized(self.amplitudes[index])

    @property
    def final_state(self) -> StateVector:
        return self.state(-1)

    def population_series(self, level: int) -> np.ndarray:
        return self.populations[..., level]


def _as_source(h_of_t):
    """(sample, constant, terms): sample maps an array of times to the stack
    of Hamiltonian frames at those times (a run axis after the time axis for
    a stack of constant H's); constant says every frame is equal; terms is
    the source itself when it is a sampler that also gives
    H(t) = sum_k c_k(t) B_k through terms() and coefficients(times), as
    PulsedHamiltonian does, and None otherwise."""
    if isinstance(h_of_t, OperatorMatrix):
        h_of_t = h_of_t.entries
    if isinstance(h_of_t, np.ndarray):
        entries = np.asarray(h_of_t, dtype=np.complex128)
        if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
            raise ConfigError("constant Hamiltonian must be a square matrix or a stack of them")
        return (lambda times: np.broadcast_to(entries, (len(times),) + entries.shape)), True, None
    if hasattr(h_of_t, "sample"):
        terms = h_of_t if hasattr(h_of_t, "terms") and hasattr(h_of_t, "coefficients") else None
        return (lambda times: np.asarray(h_of_t.sample(times), dtype=np.complex128)), False, terms
    if callable(h_of_t):

        def sample(times):
            frames = []
            for t in times:
                h = h_of_t(float(t))
                frames.append(h.entries if isinstance(h, OperatorMatrix) else h)
            return np.asarray(frames, dtype=np.complex128)

        return sample, False, None
    raise ConfigError(
        "Hamiltonian must be a matrix, a sampler with .sample(times), "
        "or a callable of time"
    )


def _plan_steps(cfg: EvolutionConfig) -> tuple[int, float]:
    span = cfg.t_end_us - cfg.t_start_us
    n_steps = max(1, int(round(span / cfg.dt_us)))
    return n_steps, span / n_steps


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, stride)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _chunk_steps(y_dim: int, runs: int = 1, transfers: bool = True) -> int:
    """Steps per chunk within TRANSFER_CHUNK_BYTES: a step holds one complex
    state per run and, for a time-dependent H, five matrices in the form its
    transfers are built in (two lifted frames and three RK4 stages while
    _transfer_stack runs, the peak of a chunk); a real form (_real_form)
    matrix takes twice the bytes of its complex one. A source with terms
    builds its frames in that form directly, from a few coefficients per
    frame, so the count holds for it too."""
    matrix_bytes = 16 * y_dim**2 * (2 if y_dim <= REAL_FORM_MAX_DIM else 1)
    per_step = 16 * y_dim * runs + 5 * matrix_bytes * transfers
    return int(min(MAX_CHUNK_STEPS, max(16, TRANSFER_CHUNK_BYTES // per_step)))


def _check_samples(stack: np.ndarray, dim: int, where: str):
    if stack.shape[-2:] != (dim, dim):
        raise ConfigError(
            f"Hamiltonian samples have shape {stack.shape[-2:]}, expected ({dim}, {dim})"
        )
    if not np.all(np.isfinite(stack)):
        raise NumericalError(f"non-finite Hamiltonian sample near {where}")
    deviation = float(np.max(np.abs(stack - np.conj(np.swapaxes(stack, -1, -2)))))
    tolerance = ATOL_SAMPLE_HERMITIAN * max(1.0, float(np.max(np.abs(stack))))
    if deviation > tolerance:
        raise NumericalError(
            f"non-Hermitian Hamiltonian sample near {where} "
            f"(deviation {deviation:.3g})"
        )


def _real_form(m: np.ndarray) -> np.ndarray:
    """The (..., 2n, 2n) real matrices equivalent to complex (..., n, n) ones,
    each entry a + ib a 2x2 block [[a, -b], [b, a]] (the K1 form of Day and
    Heroux, SIAM J. Sci. Comput. 23(2), 2001): _real_form(m) @ y.view(float64)
    is (m @ y).view(float64), and sums and products of the forms are the
    forms of the sums and products.

    numpy's matmul costs far more per matrix on stacks of small complex
    matrices than on their real forms, so the real form pays off for small
    states although it doubles the flops and the bytes. REAL_FORM_MAX_DIM is
    the largest state size (y_dim) that takes it. Measured on a shared 2-vCPU
    host (numpy 2.4.6): a (381, 4, 4) complex matmul took 121 us and its
    (381, 8, 8) real form 20.5 us; driven runs of 100 records, complex
    against real form, best of 7, took 0.073 against 0.024 s at y_dim 2,
    0.10 against 0.09 s (Schrodinger dim 4) and 0.12 against 0.08 s
    (Lindblad dim 2) at y_dim 4, 0.13-0.14 s either way at y_dim 8, 0.19
    against 0.20 s at y_dim 16 and 0.19 against 0.50 s at y_dim 64.
    """
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (n, 2, n, 2))
    out[..., :, 0, :, 0] = out[..., :, 1, :, 1] = m.real
    out[..., :, 1, :, 0] = m.imag
    np.negative(m.imag, out=out[..., :, 0, :, 1])
    return out.reshape(m.shape[:-2] + (2 * n, 2 * n))


def _transfer_stack(a1, a2, a3, dt: float) -> np.ndarray:
    """Exact RK4 update matrices for y' = A(t) y from A at each step's start,
    middle and end: T = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) in stage form, three
    batched products, updated in place (temporaries cost more at dim 4)."""
    k2 = a2 @ a1  # K2 = a2 + dt/2 a2 K1, with K1 = a1
    k2 *= dt / 2.0
    k2 += a2
    k3 = a2 @ k2  # K3 = a2 + dt/2 a2 K2
    k3 *= dt / 2.0
    k3 += a2
    out = a3 @ k3  # K4 = a3 + dt a3 K3
    out *= dt
    out += a3
    k2 += k3  # 2 (K2 + K3) + K1, with K4 in out
    k2 *= 2.0
    k2 += a1
    out += k2
    out *= dt / 6.0
    idx = np.arange(out.shape[-1])
    out[..., idx, idx] += 1.0
    return out


def _fill_by_doubling(states: np.ndarray, powers: list, m: int):
    """Rows 1..m of states = T^j times row 0, from powers = [T, T^2, T^4, ...]:
    rows n..2n-1 are T^n times rows 0..n-1, one state per run in each row
    and T one matrix or one per run. The products go through einsum's own
    loop, because OpenBLAS splits a gemm this tall across threads and their
    start-up dwarfs the product."""
    subscripts = "kbj,ij->kbi" if powers[0].ndim == 2 else "kbj,bij->kbi"
    filled = 1
    for power in powers:
        if filled > m:
            break
        take = min(filled, m + 1 - filled)
        np.einsum(subscripts, states[:take], power, out=states[filled : filled + take])
        filled += take


def _cross_intervals(carry: np.ndarray, transfer: np.ndarray, offsets: np.ndarray):
    """The complex states at a chunk's checked step offsets, the last one its
    end: the transfers between checked steps as one matrix each, equal
    intervals batched. Real transfers (_real_form) carry the states as their
    float64 view, and the states are returned through that view, not copied."""
    lengths = np.diff(offsets, prepend=0)
    cuts = np.flatnonzero(np.diff(lengths)) + 1
    raw = np.empty((offsets.shape[0],) + carry.shape, dtype=np.complex128)
    rows = raw.view(transfer.dtype)
    y = carry.view(transfer.dtype)
    for i, j in zip(np.append(0, cuts), np.append(cuts, offsets.shape[0])):
        steps = transfer[offsets[i] - lengths[i] : offsets[j - 1]]
        products = ordered_product(steps.reshape((j - i, lengths[i]) + transfer.shape[1:]))
        # each run's row times P^T is P times its state
        for product, out in zip(np.swapaxes(products, -1, -2), rows[i:j]):
            y = np.matmul(y, product, out=out)
    return raw


def _integrate(h_of_t, lift, y0, cfg, dim_protect, measure, offset=None):
    """Shared chunked integrator for the linear system y' = A(t) y.

    lift maps a validated Hamiltonian sample stack linearly to the A(t) stack
    of the system, and offset, if given, is A's constant part, so that
    A(t) = lift(H(t)) + offset (the Lindblad dissipator); measure maps
    vectors with leading axes to (norm-like scalars, populations);
    dim_protect is the Hamiltonian dimension used for sample validation. y0
    may carry a leading run axis and h_of_t be a stack of constant H's; a
    batched call returns its arrays with the run axis first.

    The steps are cut into chunks of _chunk_steps; a chunk's checked steps are
    its records and its end. A constant H has one RK4 transfer matrix T (or
    one per run), and the chunk's states come from powers of T by doubling
    (_fill_by_doubling). A time-dependent H gives the chunk's A(t) frames,
    from which its transfer matrices are built, and _cross_intervals carries
    the states from one checked step to the next in one product each. When
    y_dim is at most REAL_FORM_MAX_DIM, the frames are in real form
    (_real_form), the transfers and their products are real, and the states
    cross them as float64 views of the complex records.

    _as_source tells a source with terms from the others, and the chunk loop
    calls one frame function for either. A source with terms has its basis
    validated by _check_samples, lifted (B_0 takes the offset, each channel
    term the linear part alone) and put in real form once per call; a chunk
    then checks that its coefficients are finite, naming its first frame
    time as the sample check does, and takes one (frames, K) @ (K, m*m)
    product. Matrices, other samplers and callables are sampled, checked,
    lifted and converted per chunk.

    One checkpoint block then checks each run's norm drift at the checked
    steps, renormalises, stores the records and carries the chunk end on.
    No state is renormalised inside a chunk; a scalar commutes with the
    linear map, so each reported norm is the ratio of its raw norm to that of
    the record before it, as a step-by-step renormalising loop would report
    it. A drift failure names the earliest failing step and, in a batch, the
    lowest run that fails there.
    """
    sample, constant, terms = _as_source(h_of_t)
    n_steps, dt = _plan_steps(cfg)
    record_at = _record_steps(n_steps, int(cfg.record_stride))
    n_records = record_at.shape[0]
    y0 = np.asarray(y0, dtype=np.complex128)
    batched = y0.ndim == 2 or (isinstance(h_of_t, np.ndarray) and h_of_t.ndim == 3)
    y0 = y0.reshape(-1, y0.shape[-1])
    runs, y_dim = y0.shape
    times = cfg.t_start_us + dt * record_at.astype(float)
    real = not constant and y_dim <= REAL_FORM_MAX_DIM

    def lifted(stack: np.ndarray, where: str) -> np.ndarray:
        _check_samples(stack, dim_protect, where)
        a = lift(stack)
        if offset is not None:  # a basis takes it on its constant term alone
            a[: None if terms is None else 1] += offset
        return _real_form(a) if real else a

    if terms is None:

        def frames(sub: np.ndarray) -> np.ndarray:
            return lifted(sample(sub), f"t={sub[0]:.6g} us")

    else:
        # a real combination of Hermitian matrices is Hermitian, so a chunk
        # checks only that its coefficients are finite
        basis = lifted(np.asarray(terms.terms(), dtype=np.complex128), "its terms")
        shape, basis = basis.shape[1:], basis.reshape(basis.shape[0], -1)

        def frames(sub: np.ndarray) -> np.ndarray:
            c = np.asarray(terms.coefficients(sub))
            if c.shape != (sub.shape[0], basis.shape[0]) or np.iscomplexobj(c):
                raise ConfigError(
                    f"coefficients must be real with shape {(sub.shape[0], basis.shape[0])}, "
                    f"got {c.dtype} {c.shape}"
                )
            if not np.all(np.isfinite(c)):
                raise NumericalError(f"non-finite Hamiltonian sample near t={sub[0]:.6g} us")
            return (c @ basis).reshape(sub.shape + shape)

    def chunk_transfers(k0: int, k1: int) -> np.ndarray:
        # the frames go on return and the transfers once crossed, so neither
        # is held while the next chunk is built
        a = frames(cfg.t_start_us + (dt / 2.0) * np.arange(2 * k0, 2 * k1 + 1))
        return _transfer_stack(a[0:-1:2], a[1::2], a[2::2], dt)

    # transfers and states may overflow; the drift check rejects NaN and Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if constant:
            a = frames(np.full(1, cfg.t_start_us))[0]  # every frame is this one
            powers = [_transfer_stack(a, a, a, dt)]  # T, T^2, T^4, ...; a stack per run
            if powers[0].ndim == 3:
                if runs not in (1, powers[0].shape[0]):
                    raise ConfigError(f"{runs} start states for {powers[0].shape[0]} H's")
                runs = powers[0].shape[0]
        chunk = min(_chunk_steps(y_dim, runs, transfers=not constant), n_steps)
        if constant:
            while (1 << len(powers)) <= chunk:
                powers.append(powers[-1] @ powers[-1])
            states = np.empty((chunk + 1, runs, y_dim), dtype=np.complex128)
        carry = np.broadcast_to(y0, (runs, y_dim))
        records = np.empty((runs, n_records, y_dim), dtype=np.complex128)
        norms = np.empty((runs, n_records), dtype=float)
        pops = np.empty((runs, n_records, dim_protect), dtype=float)
        records[:, 0] = carry
        norms[:, 0], pops[:, 0] = measure(carry)
        next_record = 1
        max_drift = float(np.max(np.abs(norms[:, 0] - 1.0)))

        for k0 in range(0, n_steps, chunk):
            k1 = min(k0 + chunk, n_steps)
            last_record = int(np.searchsorted(record_at, k1, side="right"))
            checked = record_at[next_record:last_record]
            if checked.shape[0] == 0 or checked[-1] != k1:
                checked = np.append(checked, k1)
            if constant:
                states[0] = carry
                _fill_by_doubling(states, powers, k1 - k0)
                raw = states[checked - k0]
            else:
                raw = _cross_intervals(carry, chunk_transfers(k0, k1), checked - k0)

            raw_norms, _ = measure(raw)
            divisors = np.ones_like(raw_norms)
            if cfg.renormalize:
                divisors[1:] = raw_norms[:-1]
            reported = raw_norms / divisors
            drifts = np.abs(reported - 1.0)
            failed = ~(drifts <= MAX_NORM_DRIFT)  # NaN fails too
            if failed.any():
                row, run = np.unravel_index(np.argmax(failed), failed.shape)
                step = int(checked[row])
                raise NumericalError(
                    f"norm drifted to {reported[row, run]:.6g} at step {step} "
                    f"(t={cfg.t_start_us + step * dt:.6g} us); reduce dt",
                    member=int(run) if runs > 1 else None,
                )
            max_drift = max(max_drift, float(np.max(drifts)))
            n_new = last_record - next_record
            ends_on_record = cfg.renormalize and n_new == checked.shape[0]
            carry = raw[-1] / (raw_norms[-1] if ends_on_record else divisors[-1])[:, None]
            if cfg.renormalize:
                raw /= raw_norms[..., None]
            records[:, next_record:last_record] = np.swapaxes(raw[:n_new], 0, 1)
            norms[:, next_record:last_record] = reported[:n_new].T
            pops[:, next_record:last_record] = np.swapaxes(measure(raw[:n_new])[1], 0, 1)
            next_record = last_record

    LOG.debug(
        "integrated %d runs of %d steps of dt=%.3g us; max norm drift %.3e",
        runs, n_steps, dt, max_drift,
    )
    return (times, records, norms, pops) if batched else (times, records[0], norms[0], pops[0])


def evolve_schrodinger(h_of_t, psi0, cfg: EvolutionConfig) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi (hbar = 1, angular units).

    psi0 is a StateVector or a (runs, dim) array of normalized amplitudes,
    and h_of_t may be a (runs, dim, dim) stack of constant Hamiltonians; a
    batched call returns a Trajectory with a leading run axis.
    """
    y0 = psi0.amps if isinstance(psi0, StateVector) else checked_amplitudes(psi0, 2)
    dim = y0.shape[-1]

    def lift(stack):
        return -1j * stack

    def measure(y):
        pops = np.real(y) ** 2 + np.imag(y) ** 2
        return np.sqrt(pops.sum(axis=-1)), pops

    times, records, norms, pops = _integrate(h_of_t, lift, y0, cfg, dim, measure)
    return Trajectory(times=times, populations=pops, amplitudes=records, norms=norms)


def evolve_lindblad(h_of_t, rho0, noise: NoiseModel, cfg: EvolutionConfig) -> Trajectory:
    """Integrate the master equation with the configured noise channels; rho0
    may be a (runs, dim, dim) array, batched as in evolve_schrodinger."""
    if not noise.enabled:
        raise ConfigError("noise model is disabled; use evolve_schrodinger instead")
    entries = rho0.entries if isinstance(rho0, DensityMatrix) else checked_densities(rho0, 3)
    dim = entries.shape[-1]
    dissipator = noise.dissipator(dim)
    eye = np.eye(dim)
    diag_slice = slice(0, dim * dim, dim + 1)

    def lift(stack):
        # -i (H (x) I - I (x) H^T), summed in place: two frame stacks at most
        shape = stack.shape[:-2] + (dim * dim, dim * dim)
        a = (stack[..., :, None, :, None] * eye[None, :, None, :]).reshape(shape)
        ht = np.swapaxes(stack, -1, -2)
        a -= (eye[:, None, :, None] * ht[..., None, :, None, :]).reshape(shape)
        a *= -1j
        return a

    def measure(y):
        diag = np.real(y[..., diag_slice])
        return diag.sum(axis=-1), diag

    y0 = entries.reshape(entries.shape[:-2] + (dim * dim,))
    times, records, norms, pops = _integrate(h_of_t, lift, y0, cfg, dim, measure, dissipator)
    densities = records.reshape(records.shape[:-1] + (dim, dim))
    return Trajectory(times=times, populations=pops, densities=densities, norms=norms)


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
    sample, constant, _ = _as_source(h_of_t)
    # a constant H needs one frame, not the whole probe grid
    stack = sample((t_start_us,) if constant else np.linspace(t_start_us, t_end_us, probe_points))
    f_max = max(float(np.max(np.abs(stack))), 1.0)
    dt = 1.0 / (SAMPLES_PER_ANGULAR_UNIT * f_max)
    return min(dt, (t_end_us - t_start_us) / 2.0)
