"""Fixed-step integrators for the Schrodinger and Lindblad equations.

The stepper is classical fourth order, with the Hamiltonian sampled at the
substage times t, t + dt/2 and t + dt. Both equations are linear, so every
step is a transfer matrix T. _integrate has three parts:

- A plan. Each EvolutionConfig plans its own steps once, when it is built:
  the requested dt is snapped to n_steps steps of step_us spanning exactly
  [t_start, t_end], with the records at record_steps. The call cuts the
  steps into chunks within a byte budget. A chunk materialises only a run's
  records and its own last state, which it carries on raw.
- Two producers of the records, both with T as one polynomial. For a
  constant H, T is built once per run, in Horner form, and the states come
  from powers of T by doubling, run-major. When every step is recorded,
  they are written into the records. For a time-dependent
  H = sum_k c_k(t) B_k, T is a fixed polynomial in the coefficients at the
  step's start, middle and end, its matrices and I built once per call.
  One workspace serves every chunk, its views bound once per chunk length:
  the transfers are one product of the chunk's monomial columns and a row
  of ones with the polynomial, and the states cross each record interval
  in one product. The coefficients and monomials hold the step axis last,
  so each multiply that fills them runs over the chunk's steps; the
  buffers of interval products hold what the product rounds write, about
  three quarters of a chunk's transfers and none at stride 1. The byte
  budget counts exactly what the call holds. A source whose polynomial
  would hold more than POLYNOMIAL_MAX_BYTES is a ConfigError, raised before
  any of it is built.
- One gate per call, after the last chunk, over the padded records of all
  its runs. It pads the rows past each run's end, measures the records
  once, checks the norm drift and renormalises the runs that ask for it.

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
EvolutionConfig (a ragged batch), returned as one RaggedResult of padded
records. Fixed steps keep runs bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
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
    hermitian_deviation,
    last_axis_sum,
    product_rounds,
    round_sizes,
)

LOG = logging.getLogger(__name__)

DEFAULT_T1_US = 100.0
DEFAULT_T2_US = 50.0
SAMPLES_PER_ANGULAR_UNIT = 200.0
ATOL_SAMPLE_HERMITIAN = 1e-10
MAX_NORM_DRIFT = 1e-3
ATOL_RECORDED_NORM = 1e-6
TRANSFER_CHUNK_BYTES = 1_000_000
# the most a terms source's RK4 polynomial may hold (_polynomial_bytes): a
# cap of its own, as a smaller chunk budget only cuts shorter chunks
POLYNOMIAL_MAX_BYTES = 1_000_000
MAX_CHUNK_STEPS = 8192
REAL_FORM_MAX_DIM = 8
# the most steps one run may take: far above the runs in use (376,991 at
# most), so that a step far below every pulse's timescale is a config error
# before its step grid and records are allocated
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class EvolutionConfig:
    """A run's time grid, planned once when it is built: dt_us is snapped to
    the n_steps steps of step_us that span [t_start_us, t_end_us] exactly,
    and the records fall at record_steps, every record_stride steps and at
    the last. A span of more than MAX_STEPS steps is a ConfigError, raised
    before any array of the run is allocated. Equality and hashing take the
    five inputs alone."""

    t_start_us: float
    t_end_us: float
    dt_us: float
    record_stride: int = 1
    renormalize: bool = True
    n_steps: int = field(init=False, compare=False, repr=False)
    step_us: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # math.isfinite, not numpy: one config is built per pulse and point
        if not (math.isfinite(self.t_start_us) and math.isfinite(self.t_end_us) and math.isfinite(self.dt_us)):
            raise ConfigError(
                f"evolution times must be finite, got [{self.t_start_us:.6g}, {self.t_end_us:.6g}] us "
                f"at dt = {self.dt_us:.3g} us"
            )
        if self.dt_us <= 0:
            raise ConfigError("dt must be > 0")
        if self.t_end_us <= self.t_start_us:
            raise ConfigError("t_end must exceed t_start")
        span = self.t_end_us - self.t_start_us
        if self.dt_us > span:
            raise ConfigError("dt must not exceed the evolution span")
        if self.record_stride != int(self.record_stride) or self.record_stride < 1:
            raise ConfigError("record_stride must be an integer >= 1")
        if not span / self.dt_us <= MAX_STEPS:
            raise ConfigError(f"a span of {span:.6g} us at dt = {self.dt_us:.3g} us takes more than {MAX_STEPS} steps")
        n_steps = max(1, int(round(span / self.dt_us)))
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "step_us", span / n_steps)

    @functools.cached_property
    def record_steps(self) -> np.ndarray:
        """The recorded steps, read-only: 0, record_stride, ... and n_steps."""
        steps = np.arange(0, self.n_steps + 1, int(self.record_stride))
        if steps[-1] != self.n_steps:
            steps = np.append(steps, self.n_steps)
        steps.setflags(write=False)
        return steps


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
            raise ConfigError(f"t1 must be > 0, got {self.t1_us}", ("t1_us",))
        if not self.t2_us > 0:
            raise ConfigError(f"t2 must be > 0, got {self.t2_us}", ("t2_us",))
        if self.t2_us > 2.0 * self.t1_us:
            raise ConfigError(
                f"t2 ({self.t2_us} us) exceeds 2*t1 ({2.0 * self.t1_us} us); "
                "pure dephasing rate would be negative",
                ("t2_us", "t1_us"),
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

        def kron(a, b):  # np.kron's products, as one broadcast multiply
            return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim * dim, dim * dim)

        total = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for op in self.lindblad_operators(dim):
            ldl = op.conj().T @ op
            total += kron(op, op.conj())
            total -= 0.5 * (kron(ldl, eye) + kron(eye, ldl.T))
        total.setflags(write=False)
        return total


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded time series of one evolution, or of a batch of evolutions on
    one time grid (leading batch axes before the time axis), read-only and
    gated when it is built (_check_records).

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
        _check_records(pops, self.amplitudes, self.densities)
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

    @functools.cached_property  # arrays are read-only: a reference normalises once
    def final_state(self) -> StateVector:
        return self.state(-1)

    def population_series(self, level: int) -> np.ndarray:
        return self.populations[..., level]


class RaggedResult(NamedTuple):
    """A ragged call's records (one EvolutionConfig per run), read-only:
    padded (runs, records, ...) arrays of the states, their norms before
    renormalisation and their populations, gated in one pass by the
    integrator (_gate) and once more when built (_check_records). Run r's
    records are its first counts[r] rows, and the rows after them copy its
    last, so states[:, -1] holds every run's final state."""

    states: np.ndarray
    norms: np.ndarray
    populations: np.ndarray
    counts: np.ndarray


def _check_records(pops: np.ndarray, amplitudes=None, densities=None):
    """The gate on recorded runs (time axis before the state's axes): a
    run's norm, from its amplitudes or its densities' traces, may drift by
    ATOL_RECORDED_NORM at most, then no population may fall below
    -ATOL_RECORDED_NORM. A failure names the first failing run with its
    value, as the member of a batch of several runs."""
    checks = []
    if amplitudes is not None or densities is not None:
        if amplitudes is not None:  # from the real and imaginary views: no complex copy
            amps = np.asarray(amplitudes)
            actual = np.sqrt(last_axis_sum(np.square(amps.real) + np.square(amps.imag)))
        else:
            actual = last_axis_sum(np.asarray(densities).diagonal(axis1=-2, axis2=-1).real)
        drift = np.max(np.abs(actual - 1.0).reshape(-1, actual.shape[-1]), axis=1)
        checks.append((drift <= ATOL_RECORDED_NORM, drift, f"recorded norm drifted by {{:.3g}} (> {ATOL_RECORDED_NORM})"))
    low = np.min(pops.reshape(-1, pops.shape[-2] * pops.shape[-1]), axis=1)
    for ok, values, detail in checks + [(low >= -ATOL_RECORDED_NORM, low, "recorded population fell to {:.3g}")]:
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


def _monomials(n_terms: int) -> int:
    """The count N = K^2 K(K+1)/2 of monomials of the RK4 polynomial
    (_rk4_polynomial) of a source of K terms. N grows as K^4, so
    POLYNOMIAL_MAX_BYTES caps it (_polynomial_bytes)."""
    return n_terms**3 * (n_terms + 1) // 2


def _polynomial_bytes(y_dim: int, n_terms: int) -> int:
    """The bytes of the RK4 polynomial of a source of n_terms terms on states
    of y_dim entries: N + 1 matrices (_monomials), each in real form
    (_real_form, twice its complex bytes) up to REAL_FORM_MAX_DIM. At K = 11,
    a dim-8 Lindblad source with five carrier channels, it would hold 523 MB."""
    return (_monomials(n_terms) + 1) * 16 * y_dim**2 * (2 if y_dim <= REAL_FORM_MAX_DIM else 1)


def _product_buffers(chunk: int, stride: int) -> tuple[int, int]:
    """The matrices of a terms source's two buffers of interval products for
    chunks of at most chunk steps in record intervals of stride steps: as
    many as the rounds (round_sizes) write into each, over the chunk's whole
    intervals at once or over its rest, whichever is more. A shorter chunk
    writes no more, and stride 1 writes none."""
    whole, rest = divmod(chunk, stride)
    first, second = (max(whole * a, b) for a, b in zip(round_sizes(stride), round_sizes(rest)))
    return first, second


def _workspace_bytes(y_dim: int, runs: int, n_terms: int, chunk: int, stride: int) -> int:
    """The bytes a terms source of n_terms terms holds for chunks of at most
    chunk steps: its scaled basis and the workspace that _workspace
    allocates, with its polynomial (_polynomial_bytes). A real form
    (_real_form) matrix takes twice the bytes of its complex one."""
    columns = _monomials(n_terms)
    # the basis, the transfers and the interval products, then the
    # coefficients, the middle monomials and the monomial columns
    matrices = n_terms + chunk + sum(_product_buffers(chunk, stride))
    floats = n_terms * (2 * chunk + 1) + (n_terms * (n_terms + 1) // 2 + columns + 1) * chunk
    rows = -(-chunk // stride) * runs
    matrix = 16 * y_dim**2 * (2 if y_dim <= REAL_FORM_MAX_DIM else 1)
    return _polynomial_bytes(y_dim, n_terms) + matrix * matrices + 8 * floats + 16 * y_dim * rows


def _chunk_steps(y_dim: int, runs: int = 1, n_terms: int = 0, stride: int = 1) -> int:
    """Steps per chunk within TRANSFER_CHUNK_BYTES, at least 16 and at most
    MAX_CHUNK_STEPS. A constant H or a stack of them (n_terms 0) builds no
    per-step matrices: a step holds one complex state per run, in a chunk's
    fill buffer or in the records when they are the buffer. A terms source
    of n_terms terms, in record intervals of stride steps, takes the most
    steps whose bytes (_workspace_bytes) fit; they grow with the steps, so a
    bisection finds them."""
    if not n_terms:
        return int(min(MAX_CHUNK_STEPS, max(16, TRANSFER_CHUNK_BYTES // (16 * y_dim * runs))))
    lo, hi = 16, max(16, MAX_CHUNK_STEPS)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _workspace_bytes(y_dim, runs, n_terms, mid, stride) <= TRANSFER_CHUNK_BYTES:
            lo = mid
        else:
            hi = mid - 1
    return min(MAX_CHUNK_STEPS, lo)


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
    deviation = hermitian_deviation(stack)
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


def _middle_columns(n_terms: int) -> np.ndarray:
    """(K, K) column of c_b c_c among a step's K(K+1)/2 middle monomials of
    degree <= 2 in the K - 1 coefficients after c_0 = 1: 1, c_1, ..., c_m,
    then c_i c_j for 1 <= i <= j <= m in row order."""
    cols = np.zeros((n_terms, n_terms), dtype=np.intp)
    cols[0] = cols[:, 0] = np.arange(n_terms)
    i, j = np.triu_indices(n_terms - 1)
    cols[i + 1, j + 1] = cols[j + 1, i + 1] = n_terms + np.arange(i.size)
    return cols


def _rk4_polynomial(p: np.ndarray) -> np.ndarray:
    """The RK4 transfer of y' = A(t) y as a polynomial in A's coefficients.
    p holds the K prescaled terms of F = dt/2 A = sum_k c_k p_k, c_0 = 1;
    the result is the (N + 1, s, s) stack of the N = K^2 K(K+1)/2 matrices
    M[d, q, a] in row order, then I, with
    T = I + sum M[d, q, a] c_d(start) mid_q c_a(end) over a step, mid_q the
    middle monomials (_middle_columns).

    With F1, F2 and F3 the frames at the step's start, middle and end, the
    RK4 step T = I + (F1 + F3)/3 + 2/3 (G2 + G3 + F3 G3), G2 = F2 + F2 F1,
    G3 = F2 + F2 G2 (dt/2 times the stages K), expands into nine weighted
    words: 1/3 F1, 1/3 F3, 4/3 F2 and 2/3 each of F2 F1, F2 F2, F3 F2,
    F2 F2 F1, F3 F2 F2 and F3 F2 F2 F1. Every word is a sum over its terms'
    products, each of which lands on the monomial of its coefficients. A
    step is affine in its coefficients, so this is exact for any K
    (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.1). I is a matrix
    of its own, against a row of ones among the monomial columns, and not
    folded into M[0, 0, 0]: last in the product's sums, it is added once to
    their total, which leaves the transfers at the rounding of the stages."""
    k, middle = np.arange(p.shape[0]), _middle_columns(p.shape[0])
    pp = p[:, None] @ p  # pp[a, b] = p_a p_b
    ppp = p[:, None, None] @ pp
    pppp = p[:, None, None, None] @ ppp
    stack = np.zeros((k.size**2 * (middle.max() + 1) + 1,) + p.shape[1:], p.dtype)
    stack[-1] = np.eye(p.shape[-1])
    m = stack[:-1].reshape((k.size, middle.max() + 1, k.size) + p.shape[1:])
    words = [  # weight, products, the (start, middle, end) index of each
        (1.0 / 3.0, p, (k, 0, 0)),  # F1
        (1.0 / 3.0, p, (0, 0, k)),  # F3
        (4.0 / 3.0, p, (0, k, 0)),  # F2
        (2.0 / 3.0, pp, (k, k[:, None], 0)),  # F2 F1: pp[b, d]
        (2.0 / 3.0, pp, (0, middle, 0)),  # F2 F2: pp[b, c]
        (2.0 / 3.0, pp, (0, k, k[:, None])),  # F3 F2: pp[a, b]
        (2.0 / 3.0, ppp, (k, middle[:, :, None], 0)),  # F2 F2 F1: ppp[b, c, d]
        (2.0 / 3.0, ppp, (0, middle, k[:, None, None])),  # F3 F2 F2: ppp[a, b, c]
        (2.0 / 3.0, pppp, (k, middle[:, :, None], k[:, None, None, None])),  # F3 F2 F2 F1
    ]
    for weight, products, at in words:
        np.add.at(m, at, weight * products)
    return stack


def _constant_transfer(a: np.ndarray, dt) -> np.ndarray:
    """The RK4 transfer of a constant A, or of a stack of them with dt one
    per run (shape (runs, 1, 1)): _rk4_polynomial at one term, in Horner
    form in P = dt/2 A, T = I + P(2 + P(2 + P(4/3 + 2/3 P))), three batched
    products."""
    p = a * (dt / 2.0)
    buffers = (p * (2.0 / 3.0), np.empty_like(p))  # in turn, with no allocation per product
    diagonals = [b.reshape(b.shape[:-2] + (-1,))[..., :: b.shape[-1] + 1] for b in buffers]  # writable views
    for k, term in enumerate((4.0 / 3.0, 2.0, 2.0)):
        diagonals[k % 2] += term
        np.matmul(p, buffers[k % 2], out=buffers[1 - k % 2])
    diagonals[1] += 1.0
    return buffers[1]


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
    """What a terms source's chunks hold, allocated once per call for the
    longest chunk of n steps and reused by every chunk: its polynomial of K
    terms (_rk4_polynomial, N matrices and I), then the coefficients at the
    steps' ends and middles (K rows of 2n + 1), the middle monomials (W
    rows) and the monomial columns (N rows and one of ones), which hold the
    step axis last, so that every multiply that fills them runs over a row
    of contiguous steps. These three are flat, so that a shorter chunk takes
    contiguous rows too. Then come the transfers (n) and two buffers of
    interval products, as many as the rounds write into each
    (_product_buffers), all matrices C-contiguous in the basis dtype; and
    the crossing's complex rows, one per interval or piece a chunk crosses,
    per run."""

    polynomial: np.ndarray
    coefficients: np.ndarray
    middle: np.ndarray
    columns: np.ndarray
    transfers: np.ndarray
    products: np.ndarray
    spare: np.ndarray
    rows: np.ndarray


def _workspace(matrices: np.ndarray, chunk: int, stride: int, carry: np.ndarray) -> _Workspace:
    """The workspace of a terms source's chunks of at most chunk steps in
    record intervals of stride steps, for its basis scaled by dt/2
    (matrices), whose polynomial it builds, and for its runs' states, carry.
    _workspace_bytes counts its bytes with those of the basis."""
    n_terms, shape = matrices.shape[0], matrices.shape[-2:]
    polynomial = _rk4_polynomial(matrices)
    return _Workspace(
        polynomial,
        np.empty(n_terms * (2 * chunk + 1)),
        np.empty(n_terms * (n_terms + 1) // 2 * chunk),
        np.empty(len(polynomial) * chunk),
        *(np.empty((size,) + shape, matrices.dtype) for size in (chunk, *_product_buffers(chunk, stride))),
        np.empty((len(carry), -(-chunk // stride), carry.shape[1]), np.complex128),
    )


def _transfer_calls(ws: _Workspace, n: int, matrices: np.ndarray) -> tuple:
    """(coefficients, calls) of a chunk of n steps of a source whose basis
    scaled by dt/2 is matrices: the (2n + 1, K) view of the workspace that
    takes its coefficients, and calls bound to views of the workspace that
    make its transfers from them: they fill the N monomial columns (start,
    middle of degree <= 2, end), each a row of n steps, and the row of ones
    of I, and make the transfers as one (n, N + 1) @ (N + 1, s*s) product
    of their transpose with the call's polynomial (_rk4_polynomial), which
    BLAS takes as it is, in the float64 view of complex matrices, as the
    coefficients are real."""
    n_terms = matrices.shape[0]
    flat = ws.transfers[:n].reshape(n, -1).view(np.float64)
    c = ws.coefficients[: n_terms * (2 * n + 1)].reshape(n_terms, 2 * n + 1)
    start, mid, end, width = c[:, 0:-1:2], c[:, 1::2], c[:, 2::2], n_terms * (n_terms + 1) // 2
    middle = ws.middle[: width * n].reshape(width, n)
    columns = ws.columns[: ws.polynomial.shape[0] * n].reshape(-1, n)
    grid, polynomial = columns[:-1].reshape(n_terms, width, n_terms, n), ws.polynomial.reshape(columns.shape[0], -1)
    calls = [functools.partial(np.copyto, middle[:n_terms], mid)]
    for i, lo in enumerate(_middle_columns(n_terms).diagonal()[1:], start=1):  # c_i c_j, j >= i
        calls.append(functools.partial(np.multiply, mid[i], mid[i:], out=middle[lo : lo + n_terms - i]))
    # numpy's ufuncs allocate iterator buffers as large as the operands for a
    # broadcast, so the grid takes einsum (one product per entry, the same
    # bits); the row of ones is rewritten every chunk, as a chunk of another
    # length lays its rows over it
    return c.T, calls + [
        # c_0 = 1 (checked): start monomial 1's columns are middle times end
        functools.partial(np.einsum, "qn,an->qan", middle, end, out=grid[0]),
        functools.partial(np.einsum, "dn,qan->dqan", start[1:], grid[0], out=grid[1:]),
        functools.partial(columns[-1].fill, 1.0),
        functools.partial(np.matmul, columns.T, polynomial.view(np.float64), out=flat),
    ]


def _chunk_calls(ws: _Workspace, n: int, stride: int, carry: np.ndarray, matrices: np.ndarray) -> tuple:
    """(coefficients, calls, rows) of a chunk of n steps: the view that takes
    its coefficients, and calls bound to views of the workspace that make its
    transfers (_transfer_calls), multiply those of each record interval into
    one matrix (product_rounds) and carry the states across it into rows, as
    a row times P^T: the states at the chunk's record steps or, in a piece
    of a longer interval, at its last step. Real transfers (_real_form) take
    the float64 view of a row."""
    transfers = ws.transfers[:n]
    coefficients, calls = _transfer_calls(ws, n, matrices)
    whole, shape = n // stride, transfers.shape[1:]
    pieces = [transfers[: whole * stride].reshape((whole, stride) + shape)] if whole else []
    if whole * stride < n:
        pieces.append(transfers[whole * stride :][None])
    rows, y, k = ws.rows.view(transfers.dtype), carry.view(transfers.dtype), 0
    for piece in pieces:  # the rest reuses the buffers once the whole intervals are crossed
        rounds, products = product_rounds(piece, (ws.products, ws.spare))
        calls += rounds
        for product in np.swapaxes(products, -1, -2):
            calls.append(functools.partial(np.matmul, y, product, rows[:, k]))
            y, k = rows[:, k], k + 1
    return coefficients, calls, ws.rows[:, :k]


def _record_bounds(cfg: EvolutionConfig, ends: list) -> list:
    """Per chunk cut (0, then ends), one past the index of the last record
    of cfg's run at or before it: chunk i writes its records
    bounds[i]..bounds[i + 1] - 1, none once the run has ended."""
    return cfg.record_steps.searchsorted(np.minimum([0] + ends, cfg.n_steps), "right").tolist()


def _gate(measure, records, pops, counts: list, renorm: list):
    """Gate a call's padded records (runs, records, y) once, after its last
    chunk. counts and renorm hold each run's record count and whether it
    renormalises, or one entry for all runs. The rows past each run's count
    copy its last record; one measure gives the raw norms and the
    populations, into pops. Unrenormalised, a run reports its raw norms;
    renormalised, record k >= 2 reports raw_k / raw_(k-1), as a scalar
    commutes with the linear map. Return the reported norms and the largest
    drift |reported - 1|. Past MAX_NORM_DRIFT (a NaN is past it) nothing is
    renormalised. Else the records after the start of the runs that
    renormalise, and their populations, are divided in place by their raw
    norms and by their sums, every other run scaled by exactly 1, and a row
    past a run's count reports its run's last reported norm."""
    n_records = records.shape[1]
    padded = [(r, count) for r, count in enumerate(counts) if count < n_records]
    for r, count in padded:
        records[r, count:] = records[r, count - 1]
    raw, _ = measure(records, pops)
    reported = raw
    if any(renorm):
        # in a mixed call, keep marks the runs that do not renormalise
        keep = None if all(renorm) else ~np.array(renorm)
        reported = raw.copy()
        reported[:, 2:] /= raw[:, 1:-1]
        if keep is not None:
            reported[keep] = raw[keep]
    # the largest |reported - 1| from the extremes; a NaN is both, and fails
    largest = max(float(reported.max()) - 1.0, 1.0 - float(reported.min()))
    if not largest <= MAX_NORM_DRIFT:
        return reported, largest
    if any(renorm):
        # times reciprocals, as numpy divides a complex by a real; the
        # float64 view takes them without a complex copy of the scales
        scales = (records[:, 1:].view(np.float64), 1.0 / raw[:, 1:]), (pops[:, 1:], 1.0 / last_axis_sum(pops[:, 1:]))
        for rows, scale in scales:
            if keep is not None:
                scale[keep] = 1.0
            rows *= scale[..., None]
    for r, count in padded:
        reported[r, count:] = reported[r, count - 1]
    return reported, largest


def _doubling_fill(a, cfgs: tuple, ends: list, chunk: int, records, direct: bool):
    """Fill the records of a constant A or a stack of them (one per run)
    from their start states, records[:, 0], chunk by chunk. cfgs holds one
    EvolutionConfig for every run, or one per run. Each run has one RK4
    transfer matrix T (one for all when they share A and the step), and
    the chunk's states come from the raw states at the chunk's start and
    powers of T by doubling (_fill_by_doubling) into a run-major buffer.
    When every step of every run is recorded (direct), records is that
    buffer; else each run's records are gathered from it, all runs' at once
    under one config. Ragged runs are filled to the longest, each recorded
    to its own end."""
    runs, _, y_dim = records.shape
    steps = [c.step_us for c in cfgs]
    dt = steps[0]
    if len(set(steps)) > 1:  # a transfer per run, each with its own step
        dt = np.array(steps)[:, None, None]
        a = np.broadcast_to(a, (runs,) + a.shape[-2:])
    # T, T^2, T^4, ... in row form; a stack per run
    powers = [np.ascontiguousarray(np.swapaxes(_constant_transfer(a, dt), -1, -2))]
    while (1 << len(powers)) <= chunk:
        powers.append(powers[-1] @ powers[-1])
    if not direct:
        states = np.empty((runs, chunk + 1, y_dim), dtype=np.complex128)
        states[:, 0] = records[:, 0]
        rows = range(runs) if len(cfgs) > 1 else [slice(None)]
        gathers = [(r, c, _record_bounds(c, ends)) for r, c in zip(rows, cfgs)]
    n = 0
    for i, (k0, k1) in enumerate(zip([0] + ends, ends)):
        if direct:  # row k0 holds the last chunk's end
            states = records[:, k0 : k1 + 1]
        else:  # the last chunk's end, row n, starts this one
            states[:, 0] = states[:, n]
        n = k1 - k0
        _fill_by_doubling(states.view(powers[0].dtype), powers, n)
        if not direct:
            for r, c, bound in gathers:
                first, last = bound[i], bound[i + 1]
                records[r, first:last] = states[r, c.record_steps[first:last] - k0]


def _crossing_fill(terms, basis, cfg: EvolutionConfig, ends: list, chunk: int, stride: int, records):
    """Fill the records of a terms source, one block, from their start
    states, records[:, 0], chunk by chunk. The call builds the RK4
    transfer's polynomial in the coefficients once (_rk4_polynomial) from
    the lifted basis scaled by dt/2. A chunk holds whole record intervals
    (_chunk_ends) in one workspace (_Workspace) for the longest chunk,
    worked through calls bound to its views once per chunk length
    (_chunk_calls), so a chunk does only its arithmetic: its real
    coefficients must be finite (a failure names the chunk's first frame
    time) and have c_0 = 1; copied into the workspace, they give the
    transfers, and the calls run. Its records go into records, and its last
    row is carried on raw."""
    n_terms, dt = basis.shape[0], cfg.step_us
    matrices = basis * (dt / 2.0)
    carry = records[:, 0].copy()
    ws, built = _workspace(matrices, chunk, stride, carry), {}
    bounds = _record_bounds(cfg, ends)
    for k0, k1, first, last in zip([0] + ends, ends, bounds, bounds[1:]):
        # a real combination of Hermitian matrices is Hermitian, so a chunk
        # checks only its coefficients
        times = cfg.t_start_us + (dt / 2.0) * np.arange(2 * k0, 2 * k1 + 1)
        c = np.asarray(terms.coefficients(times))
        if c.shape != (times.shape[0], n_terms) or np.iscomplexobj(c):
            raise ConfigError(
                f"coefficients must be real with shape {(times.shape[0], n_terms)}, "
                f"got {c.dtype} {c.shape}"
            )
        if not math.isfinite(c.sum()) and not np.isfinite(c).all():  # a finite sum has finite terms
            raise NumericalError(f"non-finite Hamiltonian sample near t={times[0]:.6g} us")
        if (c[:, 0] != 1.0).any():  # the offset sits on B_0 at weight 1
            raise ConfigError(
                f"the coefficient of B_0 must be 1 at every time, got "
                f"{c[np.argmax(c[:, 0] != 1.0), 0]:.6g} near t={times[0]:.6g} us"
            )
        if k1 - k0 not in built:
            built[k1 - k0] = _chunk_calls(ws, k1 - k0, stride, carry, matrices)
        coefficients, calls, rows = built[k1 - k0]
        np.copyto(coefficients, c)
        for call in calls:
            call()
        records[:, first:last] = rows[:, : last - first]
        carry[:] = rows[:, -1]


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
    and h_of_t be a stack of constant H's; it returns (times, records, norms,
    populations), a batched call's with the run axis first. cfg is one
    EvolutionConfig, or, for a constant H or a stack of them, a sequence of
    one per run: the runs then differ in span, step, record stride and
    renormalisation, and times gives way to each run's record count, its
    rows past that count copies of its last record.

    The Hamiltonian is checked by _check_samples (a terms source's
    polynomial against POLYNOMIAL_MAX_BYTES too), lifted and, when y_dim is
    at most REAL_FORM_MAX_DIM, put in real form (_real_form) once per call:
    a constant H whole, with the offset, and a terms source's basis with the
    offset on B_0 alone, each channel term taking the linear part only.

    Each run reads its steps, step size and record steps from its config,
    planned when the config was built. The call cuts the longest run's steps
    into chunks of at most _chunk_steps (_chunk_ends). A producer fills the
    records chunk by chunk, carrying each chunk's raw end state on:
    _doubling_fill for a constant H or a stack, _crossing_fill for a terms
    source. No state is renormalised before the last chunk, so a run whose
    raw states overflow fails the gate, closed, on a NaN or an Inf. Then the
    call's padded records are gated once (_gate): padded, measured, checked
    for norm drift and renormalised. A scalar commutes with the linear map,
    so each reported norm is the ratio of its raw norm to that of the record
    before it, as a step-by-step renormalising loop would report it. A drift
    failure names the earliest failing record step and, in a batch, the
    lowest run that fails there.
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
    sizes = (y0.shape[0], entries.shape[0] if stacked else 1, len(cfgs))
    runs = max(sizes)
    if not set(sizes) <= {1, runs}:
        raise ConfigError(f"{sizes[0]} start states, {sizes[1]} H's and {sizes[2]} configs in one batch")

    # a constant H as a one-term basis: term 0 takes the offset either way
    basis = entries[None] if constant else np.asarray(terms.terms(), dtype=np.complex128)
    _check_samples(basis, dim_protect, "matrix" if constant else "basis")
    if not constant and (held := _polynomial_bytes(y_dim, basis.shape[0])) > POLYNOMIAL_MAX_BYTES:
        raise ConfigError(
            f"a terms source of K = {basis.shape[0]} terms on states of {y_dim} entries needs an RK4 "
            f"polynomial of {held:,} B, over POLYNOMIAL_MAX_BYTES = {POLYNOMIAL_MAX_BYTES:,} B"
        )
    basis = lift(basis)
    if offset is not None:
        basis[0] += offset
    if y_dim <= REAL_FORM_MAX_DIM:
        basis = _real_form(basis)

    n_max = max(c.n_steps for c in cfgs)
    stride = 1 if constant else int(cfgs[0].record_stride)
    ends = _chunk_ends(n_max, stride, _chunk_steps(y_dim, runs, 0 if constant else basis.shape[0], stride))
    chunk = max(k1 - k0 for k0, k1 in zip([0] + ends, ends))

    counts = [c.record_steps.shape[0] for c in cfgs]
    records = np.empty((runs, max(counts), y_dim), dtype=np.complex128)
    pops = np.empty((runs, max(counts), dim_protect), dtype=float)
    records[:, 0] = y0

    # transfers and states may overflow; the drift gate rejects NaN and Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if constant:
            # every step of every run recorded: the doubling fills the records themselves
            direct = all(count == c.n_steps + 1 for count, c in zip(counts, cfgs))
            _doubling_fill(basis[0], cfgs, ends, chunk, records, direct)
        else:
            _crossing_fill(terms, basis, cfgs[0], ends, chunk, stride, records)
        norms, drift = _gate(measure, records, pops, counts, [c.renormalize for c in cfgs])
        if not drift <= MAX_NORM_DRIFT:
            # the earliest failing record step, then the lowest run failing there
            failed = ~(np.abs(norms - 1.0) <= MAX_NORM_DRIFT)
            each = cfgs if len(cfgs) == runs else cfgs * runs
            firsts = [(int(r), int(np.argmax(failed[r]))) for r in np.flatnonzero(failed.any(axis=1))]
            step, run, k = min((int(each[r].record_steps[k]), r, k) for r, k in firsts)
            raise NumericalError(
                f"norm drifted to {norms[run, k]:.6g} at step {step} "
                f"(t={each[run].t_start_us + step * each[run].step_us:.6g} us); reduce dt",
                member=run if runs > 1 else None,
            )

    LOG.debug(
        "integrated %d runs of up to %d steps, %d chunks of up to %d steps; max norm drift %.3e",
        runs, n_max, len(ends), chunk, drift,
    )
    if ragged:
        return np.full(runs, counts), records, norms, pops
    times = cfg.t_start_us + cfg.step_us * cfg.record_steps.astype(float)
    return (times, records, norms, pops) if batched else (times, records[0], norms[0], pops[0])


def _result(out, cfg, field: str, state_shape: tuple):
    """_integrate's output as a Trajectory, its records as field in states of
    state_shape; for one config per run, as one RaggedResult."""
    times_or_counts, records, norms, pops = out
    states = records.reshape(records.shape[:-1] + state_shape)
    if isinstance(cfg, EvolutionConfig):
        return Trajectory(times=times_or_counts, populations=pops, norms=norms, **{field: states})
    _check_records(pops, **{field: states})
    for a in (states, norms, pops, times_or_counts):
        a.setflags(write=False)
    return RaggedResult(states, norms, pops, times_or_counts)


def evolve_schrodinger(h_of_t, psi0, cfg: EvolutionConfig) -> Trajectory | RaggedResult:
    """Integrate i dpsi/dt = H(t) psi (hbar = 1, angular units).

    psi0 is a StateVector or a (runs, dim) array of normalized amplitudes,
    and h_of_t may be a (runs, dim, dim) stack of constant Hamiltonians; a
    batched call returns a Trajectory with a leading run axis. For a constant
    H or a stack of them, cfg may be a sequence of one EvolutionConfig per
    run; the call then returns one RaggedResult, whose gate names a failing
    run by its index in the call.
    """
    y0 = psi0.amps if isinstance(psi0, StateVector) else checked_amplitudes(psi0, 2)
    dim = y0.shape[-1]

    def lift(stack):
        return -1j * stack

    def measure(y, out=None):
        squares = np.square(y.view(np.float64))
        pops = np.add(squares[..., 0::2], squares[..., 1::2], out=out)
        return np.sqrt(last_axis_sum(pops)), pops

    return _result(_integrate(h_of_t, lift, y0, cfg, dim, measure), cfg, "amplitudes", (dim,))


def evolve_lindblad(h_of_t, rho0, noise: NoiseModel, cfg: EvolutionConfig) -> Trajectory | RaggedResult:
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
        return last_axis_sum(out), out

    y0 = entries.reshape(entries.shape[:-2] + (dim * dim,))
    out = _integrate(h_of_t, lift, y0, cfg, dim, measure, dissipator)
    return _result(out, cfg, "densities", (dim, dim))


def convergence_check(h_of_t, psi0: StateVector, cfg: EvolutionConfig) -> float:
    """Max population difference between runs at dt and dt/2; a small value
    validates the step size."""
    base = evolve_schrodinger(h_of_t, psi0, cfg)
    half_cfg = replace(cfg, dt_us=cfg.step_us / 2.0, record_stride=int(cfg.record_stride) * 2)
    half = evolve_schrodinger(h_of_t, psi0, half_cfg)
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
