"""Fixed-step integrators for the Schrodinger and Lindblad equations.

The stepper is classical fourth order, with the Hamiltonian sampled at the
substage times t, t + dt/2 and t + dt. Both equations are linear, so every
step is a transfer matrix T. _integrate has three parts:

- A plan. The requested dt is snapped to a whole number of steps spanning
  exactly [t_start, t_end]. The steps are cut into chunks within a byte
  budget. In each chunk, a run is checked at its records and its last step,
  and only those states are materialised.
- Two producers of the checked states. For a constant H, T is built once
  per run, and the states come from powers of T by doubling, run-major.
  When every step is recorded, they are written into the records. For a
  time-dependent H = sum_k c_k(t) B_k, one workspace serves every chunk, its
  views bound once per chunk length: the frames are one product of the
  coefficients with the basis, the transfers follow in place, and the
  states cross each record interval in one product.
- One checkpoint per block of runs. It measures the checked states once,
  checks the norm drift, renormalises and stores the records.

A Hamiltonian is one of three kinds: a constant matrix (ndarray or
OperatorMatrix), a (runs, dim, dim) stack of constant matrices, one per run,
or a terms source, an object with terms(), coefficients(times) and
sample(times), as PulsedHamiltonian has. A terms source's first coefficient
is 1 at every time: B_0 is its constant term, and the Lindblad dissipator
joins B_0 alone. Any other input is a ConfigError.

States of up to REAL_FORM_MAX_DIM entries (Schrodinger at dims 2, 4, 8 and
Lindblad at dim 2) take the products in the equivalent real form, where
each complex entry is a 2x2 real block. numpy's per-matrix cost on small
complex stacks exceeds their arithmetic.

One call integrates a batch of runs: start states with a leading run axis,
or a stack of constant H's, one per run. An unbatched call is a batch of
one. Every run keeps its own drift gate and renormalisation. Runs share one
time grid, except that constant-H runs may each take their own
EvolutionConfig (a ragged batch). That call returns one block per run of
consecutive equal configs. Fixed steps keep runs bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    OperatorMatrix,
    StateVector,
    checked_amplitudes,
    checked_densities,
    product_rounds,
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
# the most steps one run may take: far above the runs in use (376,991 at
# most), so that a step far below every pulse's timescale is a config error
# before its step grid and records are allocated
MAX_STEPS = 10_000_000


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
    records are checked: its norm may drift by ATOL_RECORDED_NORM at most and
    no population may fall below -ATOL_RECORDED_NORM. A failure names the
    first failing run as its member.

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
        if self.amplitudes is not None:  # from the real and imaginary views: no complex copy
            amps = np.asarray(self.amplitudes)
            squares = np.einsum("...i,...i->...", amps.real, amps.real)
            actual = np.sqrt(squares + np.einsum("...i,...i->...", amps.imag, amps.imag))
        elif self.densities is not None:
            actual = np.real(np.trace(np.asarray(self.densities), axis1=-2, axis2=-1))
        else:
            actual = None
        if actual is not None:
            drift = np.max(np.abs(actual - 1.0).reshape(-1, actual.shape[-1]), axis=1)
            detail = f"recorded norm drifted by {{:.3g}} (> {ATOL_RECORDED_NORM})"
            _check_runs(drift <= ATOL_RECORDED_NORM, drift, detail)
        low = np.min(pops.reshape(-1, pops.shape[-2] * pops.shape[-1]), axis=1)
        _check_runs(low >= -ATOL_RECORDED_NORM, low, "recorded population fell to {:.3g}")
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


def _check_runs(ok: np.ndarray, values: np.ndarray, detail: str):
    """Raise NumericalError for the first run whose ok is False, with its
    value in detail; a batch of several runs names that run as the member."""
    run = int(np.argmin(ok))
    if not ok[run]:
        raise NumericalError(detail.format(values[run]), member=run if ok.shape[0] > 1 else None)


def _as_source(h_of_t):
    """(entries, terms), exactly one of them None: entries is the complex
    (dim, dim) matrix of a constant H or the (runs, dim, dim) stack of one
    per run; terms is a terms source, an object with terms(),
    coefficients(times) and sample(times) that gives
    H(t) = sum_k c_k(t) B_k with c_0 = 1, as PulsedHamiltonian does. Any
    other input raises ConfigError, callables of t and objects with .sample
    alone included."""
    if isinstance(h_of_t, OperatorMatrix):
        h_of_t = h_of_t.entries
    if isinstance(h_of_t, np.ndarray):
        entries = np.asarray(h_of_t, dtype=np.complex128)
        if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
            raise ConfigError("constant Hamiltonian must be a square matrix or a stack of them")
        return entries, None
    if all(hasattr(h_of_t, name) for name in ("terms", "coefficients", "sample")):
        return None, h_of_t
    raise ConfigError(
        "Hamiltonian must be a constant matrix (ndarray or OperatorMatrix), a "
        "(runs, dim, dim) stack of them, or a terms source with terms(), "
        f"coefficients(times) and sample(times); got {type(h_of_t).__name__}"
    )


def _plan_steps(span: float, dt: float) -> tuple[int, float]:
    """Step count over span at about dt, and the step that fills it exactly.
    A span of more than MAX_STEPS steps is a ConfigError, raised before any
    array of the run is allocated."""
    if not span / dt <= MAX_STEPS:
        raise ConfigError(f"a span of {span:.6g} us at dt = {dt:.3g} us takes more than {MAX_STEPS} steps")
    n_steps = max(1, int(round(span / dt)))
    return n_steps, span / n_steps


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, stride)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _chunk_steps(y_dim: int, runs: int = 1, transfers: bool = True) -> int:
    """Steps per chunk within TRANSFER_CHUNK_BYTES: a step holds one complex
    state per run (a chunk's fill buffer, the crossing's rows, or the
    checkpoint's working arrays when the records are the buffer) and, for a
    terms source (transfers), four matrices of its workspace (_Workspace) in
    the form its transfers are built in: an even and an odd frame and two RK4
    stages, whose buffers the interval products reuse. The even frames hold
    one matrix more than the chunk has steps. A real form (_real_form) matrix
    takes twice the bytes of its complex one. A constant H or a stack of them
    builds no per-step matrices."""
    matrix_bytes = 16 * y_dim**2 * (2 if y_dim <= REAL_FORM_MAX_DIM else 1) * transfers
    per_step = 16 * y_dim * runs + 4 * matrix_bytes
    return int(min(MAX_CHUNK_STEPS, max(16, (TRANSFER_CHUNK_BYTES - matrix_bytes) // per_step)))


def _chunk_ends(n_steps: int, stride: int, budget: int) -> list:
    """The last step of each chunk, in order, ending with n_steps. A chunk
    holds as many whole record intervals of stride steps as fit in budget
    steps, the last chunk the run's shorter last interval too; an interval
    longer than budget is cut into pieces of budget steps and its rest. So
    every chunk end is a record step, except inside such a long interval.
    Stride 1 gives plain budget-step chunks."""
    if stride <= budget:
        size = budget // stride * stride
        ends = np.arange(size, n_steps, size)
    else:
        pieces = np.append(np.arange(budget, stride, budget), stride)
        ends = (np.arange(0, n_steps, stride)[:, None] + pieces).ravel()
    return ends[ends < n_steps].tolist() + [n_steps]


def _check_samples(stack: np.ndarray, dim: int, what: str):
    """Shape, finite entries and Hermiticity of a constant H or a basis."""
    if stack.shape[-2:] != (dim, dim):
        raise ConfigError(
            f"Hamiltonian {what} has shape {stack.shape[-2:]}, expected ({dim}, {dim})"
        )
    if not np.all(np.isfinite(stack)):
        raise NumericalError(f"non-finite Hamiltonian {what}")
    deviation = float(np.max(np.abs(stack - np.conj(np.swapaxes(stack, -1, -2)))))
    tolerance = ATOL_SAMPLE_HERMITIAN * max(1.0, float(np.max(np.abs(stack))))
    if deviation > tolerance:
        raise NumericalError(f"non-Hermitian Hamiltonian {what} (deviation {deviation:.3g})")


def _real_form(m: np.ndarray) -> np.ndarray:
    """The (..., 2n, 2n) real matrices equivalent to complex (..., n, n) ones,
    each entry a + ib a 2x2 block [[a, -b], [b, a]] (the K1 form of Day and
    Heroux, SIAM J. Sci. Comput. 23(2), 2001): _real_form(m) @ y.view(float64)
    is (m @ y).view(float64), and sums and products of the forms are the
    forms of the sums and products.

    numpy's matmul costs far more per matrix on stacks of small complex
    matrices than on their real forms, so the real form pays off for small
    states although it doubles the flops and the bytes. REAL_FORM_MAX_DIM is
    the largest state size (y_dim) that takes it (timings in CHANGES.md).
    """
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (n, 2, n, 2))
    out[..., :, 0, :, 0] = out[..., :, 1, :, 1] = m.real
    out[..., :, 1, :, 0] = m.imag
    np.negative(m.imag, out=out[..., :, 0, :, 1])
    return out.reshape(m.shape[:-2] + (2 * n, 2 * n))


def _transfer_stack(f1, f2, f3, g2, g3) -> np.ndarray:
    """Exact RK4 update matrices for y' = A(t) y from the frames F = dt/2 A
    at each step's start, middle and end, written over f2. In the scaled
    stage form (G = dt/2 K), G2 = F2 + F2 F1, G3 = F2 + F2 G2 and
    T = I + (F1 + F3)/3 + 2/3 (G2 + G3 + F3 G3), which is
    T = I + dt/6 (K1 + 2 K2 + 2 K3 + K4): three batched products and eight
    passes, all updated in place. g2 and g3 are buffers of f2's shape for the
    stages; f2 must share no memory with the others, while f1 and f3 may
    overlap (consecutive frames of one stack) or be one array (a constant H)."""
    np.matmul(f2, f1, out=g2)
    g2 += f2
    np.matmul(f2, g2, out=g3)
    g3 += f2
    g2 += g3
    np.matmul(f3, g3, out=f2)  # F2 is spent: F3 G3 takes its buffer
    f2 += g2
    np.add(f1, f3, out=g3)
    g3 *= 0.5
    f2 += g3
    f2 *= 2.0 / 3.0
    diagonal = np.einsum("...ii->...i", f2)  # a writable view
    diagonal += 1.0
    return f2


def _constant_transfer(a: np.ndarray, dt) -> np.ndarray:
    """The RK4 transfer of a constant A, or of a stack of them with dt one
    per run (shape (runs, 1, 1)), through _transfer_stack."""
    f = a * (dt / 2.0)
    return _transfer_stack(f, f.copy(), f, np.empty_like(f), np.empty_like(f))


def _fill_by_doubling(states: np.ndarray, powers: list, m: int):
    """Rows 1..m of each run's states = T^j times its row 0, from powers =
    [T, T^2, T^4, ...] in row form (transposed, as the run's rows multiply
    them from the right): rows n..2n-1 are rows 0..n-1 times T^n, one
    batched product per power, T one matrix or one per run.

    The states are run-major, (runs, steps, y), so that a run's rows are one
    matrix and its records a slice of them. In real form (_real_form) the
    products are float64 GEMMs, which numpy hands to BLAS one run at a time,
    faster than complex matmuls or a step-major einsum (timings in
    CHANGES.md)."""
    filled = 1
    for power in powers:
        if filled > m:
            break
        take = min(filled, m + 1 - filled)
        np.matmul(states[:, :take], power, out=states[:, filled : filled + take])
        filled += take


class _Workspace(NamedTuple):
    """The buffers of a terms source's chunks, allocated once per call for
    the longest chunk of n steps and reused by every chunk: the frames at
    the steps' ends (n + 1) and middles (n), both prescaled by dt/2, the two
    RK4 stages (n each), which also hold the interval products, all
    C-contiguous matrices in the basis dtype, and the crossing's complex
    rows, one per checked step of a chunk and run."""

    even: np.ndarray
    odd: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    rows: np.ndarray


def _chunk_calls(ws: _Workspace, n: int, stride: int, carry: np.ndarray) -> tuple:
    """(frames, calls, rows) of a chunk of n steps: the outputs of its two
    frame products, and calls bound to views of the workspace that build its
    transfers over the odd frames (_transfer_stack), multiply those of each
    record interval into one matrix in the stage buffers (product_rounds)
    and carry the states across it into rows, the checked states, as a row
    times P^T; real transfers (_real_form) take the float64 view of a row."""
    even, odd = ws.even[: n + 1], ws.odd[:n]
    calls = [functools.partial(_transfer_stack, even[:-1], odd, even[1:], ws.g2[:n], ws.g3[:n])]
    whole, shape = n // stride, odd.shape[1:]
    pieces = [odd[: whole * stride].reshape((whole, stride) + shape)] if whole else []
    if whole * stride < n:
        pieces.append(odd[whole * stride :][None])
    rows, y, k = ws.rows.view(odd.dtype), carry.view(odd.dtype), 0
    for piece in pieces:  # the rest reuses the buffers once the whole intervals are crossed
        rounds, products = product_rounds(piece, (ws.g2, ws.g3))
        calls += rounds
        for product in np.swapaxes(products, -1, -2):
            calls.append(functools.partial(np.matmul, y, product, rows[:, k]))
            y, k = rows[:, k], k + 1
    return (even.reshape(n + 1, -1), odd.reshape(n, -1)), calls, ws.rows[:, :k]


class _Block(NamedTuple):
    """Consecutive runs lo..hi-1 of a call that share one EvolutionConfig."""

    lo: int
    hi: int
    t_start_us: float
    n_steps: int
    dt: float
    record_at: np.ndarray
    renormalize: bool


def _blocks(cfgs: tuple, runs: int) -> list:
    cuts = [r for r in range(1, len(cfgs)) if cfgs[r] != cfgs[r - 1]]
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [len(cfgs) if len(cfgs) > 1 else runs]):
        cfg = cfgs[lo]
        n_steps, dt = _plan_steps(cfg.t_end_us - cfg.t_start_us, cfg.dt_us)
        record_at = _record_steps(n_steps, int(cfg.record_stride))
        blocks.append(_Block(lo, hi, cfg.t_start_us, n_steps, dt, record_at, bool(cfg.renormalize)))
    return blocks


def _checks(blocks: list, ends: list):
    """Per chunk k0..k1 of ends, (k0, k1, plan), the plan a list of
    (block, first, new, steps) for each block whose runs reach past k0: steps
    the block's record steps in (k0, end] followed by end = min(k1, n_steps)
    unless that is a record step, first the index of the first of those
    records and new their count. One search per block finds every chunk's."""
    cuts = [0] + ends
    bounds = [b.record_at.searchsorted(np.minimum(cuts, b.n_steps), "right").tolist() for b in blocks]
    for i, (k0, k1) in enumerate(zip(cuts, ends)):
        plan = []
        for b, bound in zip(blocks, bounds):
            if b.n_steps > k0:
                first, last = bound[i], bound[i + 1]
                steps, end = b.record_at[first:last], min(k1, b.n_steps)
                if first == last or steps[-1] != end:
                    steps = np.append(steps, end)
                plan.append((b, first, last - first, steps))
        yield k0, k1, plan


def _checkpoint(measure, rows, steps, renorm: bool, n_records: int, out):
    """Measure a block's checked rows (runs, M, y), at steps, once, their
    populations into out unless it is None; return the drift failure (step, run,
    reported norm) or None, the largest drift, and the reported norms and
    populations of the first n_records rows, which are records. With renorm
    the rows are renormalised in place (their populations later, by
    _integrate), and a last row off the record grid keeps the scale of the
    record before it."""
    raw, found = measure(rows, out)
    reported = raw.copy() if renorm else raw
    if renorm:
        reported[:, 1:] /= raw[:, :-1]
    # the largest |reported - 1| from the extremes; a NaN is both, and fails
    largest = max(float(reported.max()) - 1.0, 1.0 - float(reported.min()))
    if not largest <= MAX_NORM_DRIFT:
        failed = ~(np.abs(reported - 1.0) <= MAX_NORM_DRIFT)
        col = int(np.argmax(failed.any(axis=0)))
        run = int(np.argmax(failed[:, col]))
        return (int(steps[col]), run, float(reported[run, col])), 0.0, None, None
    if renorm:
        if n_records < raw.shape[1]:
            raw[:, -1] = raw[:, -2] if n_records else 1.0
        # times reciprocals, as numpy divides a complex by a real; the
        # float64 view takes them without a complex copy of the scales
        view = rows.view(np.float64)
        view *= (1.0 / raw)[..., None]
    return None, largest, reported[:, :n_records], found[:, :n_records]


def _doubling_chunks(a, blocks: list, ends: list, chunk: int, carry, records):
    """The checked rows of a constant A or a stack of them (one per run): per
    chunk, one iterable of (block, first, new, steps, rows) in _checks order.
    Each run has one RK4 transfer matrix T (one for all when they share A),
    and the chunk's states come from the carried states and powers of T by
    doubling (_fill_by_doubling) into a run-major buffer. When every step of
    every run is recorded, records is that buffer and a block's rows are a
    view of it; else records is None and the rows are gathered.
    Ragged runs are filled to the longest, each checked to its own end."""
    runs, y_dim = carry.shape
    dt = blocks[0].dt
    if len(blocks) > 1:  # a transfer per run, each with its own step
        dt = np.repeat([b.dt for b in blocks], [b.hi - b.lo for b in blocks])[:, None, None]
        a = np.broadcast_to(a, (runs,) + a.shape[-2:])
    # T, T^2, T^4, ... in row form; a stack per run
    powers = [np.ascontiguousarray(np.swapaxes(_constant_transfer(a, dt), -1, -2))]
    while (1 << len(powers)) <= chunk:
        powers.append(powers[-1] @ powers[-1])
    if records is None:
        states = np.empty((runs, chunk + 1, y_dim), dtype=np.complex128)
    for k0, k1, plan in _checks(blocks, ends):
        if records is not None:
            states = records[:, k0 : k1 + 1]
        states[:, 0] = carry
        _fill_by_doubling(states.view(powers[0].dtype), powers, k1 - k0)
        yield [  # given records: their view [b.lo:b.hi, first:first + new]
            (b, first, new, steps, states[b.lo : b.hi, steps - k0 if records is None else slice(1, new + 1)])
            for b, first, new, steps in plan
        ]


def _crossing_chunks(terms, basis, block: _Block, ends: list, chunk: int, stride: int, carry):
    """The checked rows of a terms source, one block, per chunk as in
    _doubling_chunks. A chunk holds whole record intervals (_chunk_ends) in
    one workspace (_Workspace) for the longest chunk, worked through calls
    bound to its views once per chunk length (_chunk_calls), so a chunk does
    only its arithmetic: its real coefficients must be finite (a failure
    names the chunk's first frame time) and have c_0 = 1; scaled by dt/2,
    they give the frames as one (frames, K) @ (K, m*m) product each with the
    lifted basis at the steps' ends and middles, and the calls run."""
    shape, flat, dt = basis.shape[1:], basis.reshape(basis.shape[0], -1), block.dt
    mats = [np.empty((chunk + extra,) + shape, basis.dtype) for extra in (1, 0, 0, 0)]
    ws = _Workspace(*mats, np.empty((len(carry), -(-chunk // stride), carry.shape[1]), np.complex128))
    built = {}
    for k0, k1, plan in _checks([block], ends):
        # a real combination of Hermitian matrices is Hermitian, so a chunk
        # checks only its coefficients
        times = block.t_start_us + (dt / 2.0) * np.arange(2 * k0, 2 * k1 + 1)
        c = np.asarray(terms.coefficients(times))
        if c.shape != (times.shape[0], flat.shape[0]) or np.iscomplexobj(c):
            raise ConfigError(
                f"coefficients must be real with shape {(times.shape[0], flat.shape[0])}, "
                f"got {c.dtype} {c.shape}"
            )
        if not math.isfinite(c.sum()) and not np.isfinite(c).all():  # a finite sum has finite terms
            raise NumericalError(f"non-finite Hamiltonian sample near t={times[0]:.6g} us")
        if (c[:, 0] != 1.0).any():  # the offset sits on B_0 at weight 1
            raise ConfigError(
                f"the coefficient of B_0 must be 1 at every time, got "
                f"{c[np.argmax(c[:, 0] != 1.0), 0]:.6g} near t={times[0]:.6g} us"
            )
        c = c * (dt / 2.0)  # frames F = dt/2 A, from the coefficients
        if k1 - k0 not in built:
            built[k1 - k0] = _chunk_calls(ws, k1 - k0, stride, carry)
        frames, calls, rows = built[k1 - k0]
        np.matmul(c[0::2], flat, out=frames[0])
        np.matmul(c[1::2], flat, out=frames[1])
        for call in calls:
            call()
        yield [(b, first, new, steps, rows) for b, first, new, steps in plan]


def _integrate(h_of_t, lift, y0, cfg, dim_protect, measure, offset=None):
    """Shared chunked integrator for the linear system y' = A(t) y.

    h_of_t is a constant matrix, a stack of them (one per run) or a terms
    source (_as_source). lift maps a validated Hamiltonian stack linearly to
    the A stack of the system, and offset, if given, is A's constant part, so
    that A(t) = lift(H(t)) + offset (the Lindblad dissipator); measure(y, out)
    maps vectors with leading axes to (norm-like scalars, populations), the
    populations new or written into out, where they sum to the square of the
    norm (state vectors) or to the norm itself (densities); dim_protect is the
    Hamiltonian dimension used for validation. y0 may carry a leading run axis
    and h_of_t be a stack of constant H's; a batched call returns its arrays
    with the run axis first. cfg is one EvolutionConfig, or, for a constant H
    or a stack of them, a sequence of one per run: the runs then differ in
    span, step, record stride and renormalisation, and the call returns a list
    with one (times, records, norms, populations) per block of consecutive
    runs that share a config.

    The Hamiltonian is checked by _check_samples, lifted and, when y_dim is
    at most REAL_FORM_MAX_DIM, put in real form (_real_form) once per call:
    a constant H whole, with the offset, and a terms source's basis with the
    offset on B_0 alone, each channel term taking the linear part only.

    The plan cuts the steps into chunks of at most _chunk_steps (_chunk_ends);
    in each chunk, a block checks its records and its last step there
    (_checks). A producer gives each block's checked rows, chunk by chunk:
    _doubling_chunks for a constant H or a stack, _crossing_chunks for a terms
    source. One loop runs _checkpoint on each block's rows, stores the records,
    their norms and populations (renormalised once, at the end), and carries
    the chunk end on. No state is renormalised inside a chunk; a scalar
    commutes with the linear map, so each reported norm is the ratio of its
    raw norm to that of the record before it, as a step-by-step
    renormalising loop would report it. A drift failure names the earliest
    failing step and, in a batch, the lowest run that fails there.
    """
    entries, terms = _as_source(h_of_t)
    constant = terms is None
    ragged = not isinstance(cfg, EvolutionConfig)
    cfgs = tuple(cfg) if ragged else (cfg,)
    if not cfgs or not all(isinstance(c, EvolutionConfig) for c in cfgs):
        raise ConfigError("cfg must be an EvolutionConfig or a sequence of them, one per run")
    if ragged and not constant:
        raise ConfigError("per-run configs need a constant Hamiltonian or a stack of them")
    y0 = np.asarray(y0, dtype=np.complex128)
    stacked = constant and entries.ndim == 3
    batched = y0.ndim == 2 or stacked
    y0 = y0.reshape(-1, y0.shape[-1])
    y_dim = y0.shape[1]
    counts = (y0.shape[0], entries.shape[0] if stacked else 1, len(cfgs))
    runs = max(counts)
    if not set(counts) <= {1, runs}:
        raise ConfigError(f"{counts[0]} start states, {counts[1]} H's and {counts[2]} configs in one batch")
    blocks = _blocks(cfgs, runs)
    n_max = max(b.n_steps for b in blocks)
    stride = 1 if constant else int(cfgs[0].record_stride)
    ends = _chunk_ends(n_max, stride, _chunk_steps(y_dim, runs, transfers=not constant))
    chunk = max(k1 - k0 for k0, k1 in zip([0] + ends, ends))

    # a constant H as a one-term basis: term 0 takes the offset either way
    basis = entries[None] if constant else np.asarray(terms.terms(), dtype=np.complex128)
    _check_samples(basis, dim_protect, "matrix" if constant else "basis")
    basis = lift(basis)
    if offset is not None:
        basis[0] += offset
    if y_dim <= REAL_FORM_MAX_DIM:
        basis = _real_form(basis)

    n_records = max(b.record_at.shape[0] for b in blocks)
    records = np.empty((runs, n_records, y_dim), dtype=np.complex128)
    norms = np.empty((runs, n_records), dtype=float)
    pops = np.empty((runs, n_records, dim_protect), dtype=float)
    records[:, 0] = y0
    norms[:, 0], pops[:, 0] = measure(records[:, 0])
    carry = records[:, 0].copy()
    max_drift = float(np.max(np.abs(norms[:, 0] - 1.0)))
    # every step of every run recorded: the doubling fills the records themselves
    direct = constant and all(b.record_at.shape[0] == b.n_steps + 1 for b in blocks)

    # transfers and states may overflow; the drift check rejects NaN and Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if constant:
            chunks = _doubling_chunks(basis[0], blocks, ends, chunk, carry, records if direct else None)
        else:
            chunks = _crossing_chunks(terms, basis, blocks[0], ends, chunk, stride, carry)
        for checks in chunks:
            failures = []
            for b, first, new, steps, rows in checks:
                at = (slice(b.lo, b.hi), slice(first, first + new))
                out = pops[at] if rows.shape[1] == new else None  # rows that are all records
                failure, drift, reported, found = _checkpoint(measure, rows, steps, b.renormalize, new, out)
                if failure is not None:
                    failures.append((failure[0], failure[1] + b.lo, failure[2]))
                    continue
                max_drift = max(max_drift, drift)
                if not direct:
                    records[at] = rows[:, :new]
                if out is None:
                    pops[at] = found
                norms[at] = reported
                carry[b.lo : b.hi] = rows[:, -1]
            if failures:
                step, run, value = min(failures)
                b = next(b for b in blocks if b.lo <= run < b.hi)
                raise NumericalError(
                    f"norm drifted to {value:.6g} at step {step} "
                    f"(t={b.t_start_us + step * b.dt:.6g} us); reduce dt",
                    member=run if runs > 1 else None,
                )
        for b in blocks:  # the populations of renormalised records, by their sums
            if b.renormalize:
                found = pops[b.lo : b.hi, 1 : b.record_at.shape[0]]
                found *= (1.0 / found.sum(axis=-1))[..., None]

    LOG.debug(
        "integrated %d runs of up to %d steps in %d blocks, %d chunks of up to %d steps; "
        "max norm drift %.3e",
        runs, n_max, len(blocks), len(ends), chunk, max_drift,
    )
    out = [
        (
            b.t_start_us + b.dt * b.record_at.astype(float),
            records[b.lo : b.hi, : b.record_at.shape[0]],
            norms[b.lo : b.hi, : b.record_at.shape[0]],
            pops[b.lo : b.hi, : b.record_at.shape[0]],
        )
        for b in blocks
    ]
    if ragged:
        return out
    return out[0] if batched else tuple(x[0] if i else x for i, x in enumerate(out[0]))


def _trajectories(out, cfg, field: str, state_shape: tuple):
    """_integrate's output as a Trajectory, its records as field in states of
    state_shape; for one config per run, a tuple of one per block, where a
    block's failing run is numbered as a member of the whole call."""

    def trajectory(times, records, norms, pops):
        states = records.reshape(records.shape[:-1] + state_shape)
        return Trajectory(times=times, populations=pops, norms=norms, **{field: states})

    if isinstance(cfg, EvolutionConfig):
        return trajectory(*out)
    trajs, lo = [], 0
    for block in out:
        try:
            trajs.append(trajectory(*block))
        except NumericalError as err:
            if len(out) == 1:
                raise
            raise NumericalError(err.detail, member=lo + (err.member or 0)) from err
        lo += block[1].shape[0]
    return tuple(trajs)


def evolve_schrodinger(h_of_t, psi0, cfg: EvolutionConfig) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi (hbar = 1, angular units).

    psi0 is a StateVector or a (runs, dim) array of normalized amplitudes,
    and h_of_t may be a (runs, dim, dim) stack of constant Hamiltonians; a
    batched call returns a Trajectory with a leading run axis. For a constant
    H or a stack of them, cfg may be a sequence of one EvolutionConfig per
    run; the call then returns a tuple of batched Trajectories, one per block
    of consecutive runs that share a config.
    """
    y0 = psi0.amps if isinstance(psi0, StateVector) else checked_amplitudes(psi0, 2)
    dim = y0.shape[-1]

    def lift(stack):
        return -1j * stack

    def measure(y, out=None):
        squares = np.square(y.view(np.float64))
        pops = np.add(squares[..., 0::2], squares[..., 1::2], out=out)
        return np.sqrt(pops.sum(axis=-1)), pops

    return _trajectories(_integrate(h_of_t, lift, y0, cfg, dim, measure), cfg, "amplitudes", (dim,))


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

    def measure(y, out=None):
        diag = y[..., diag_slice].real
        if out is None:
            out = np.empty(diag.shape)
        np.copyto(out, diag)
        return out.sum(axis=-1), out

    y0 = entries.reshape(entries.shape[:-2] + (dim * dim,))
    out = _integrate(h_of_t, lift, y0, cfg, dim, measure, dissipator)
    return _trajectories(out, cfg, "densities", (dim, dim))


def convergence_check(h_of_t, psi0: StateVector, cfg: EvolutionConfig) -> float:
    """Max population difference between runs at dt and dt/2; a small value
    validates the step size."""
    span = cfg.t_end_us - cfg.t_start_us
    n_steps, dt = _plan_steps(span, cfg.dt_us)
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
    stack, terms = _as_source(h_of_t)
    if terms is not None:  # a constant H is its one frame
        stack = terms.sample(np.linspace(t_start_us, t_end_us, probe_points))
    f_max = max(float(np.max(np.abs(stack))), 1.0)
    dt = 1.0 / (SAMPLES_PER_ANGULAR_UNIT * f_max)
    return min(dt, (t_end_us - t_start_us) / 2.0)
