"""Time evolution and steady states of Lindblad models.

The master-equation generator is built in one place,
:func:`generator_triplets`, as sparse COO triplets of the vectorized
superoperator. :func:`liouvillian_matrix` densifies them for small
models; the sparse consumers wrap them in scipy CSR/CSC matrices, and the
sparse steady state first folds them onto the two sectors of the
model's weak symmetry (``LindbladModel.parity``), each solved apart:
the two are factored one after the other, and each sector's LU is freed
before the next is made. Its uniqueness test is sigma_{n-1}(L) = 1 / max
over sectors s of ||L_s^+||_2, the even sector's pseudo-inverse taken
by a projected solve with the LU of its trace-bordered matrix
(:func:`steady_state`). Measured on 2 vCPUs, holding one factor at a
time cut the peak RSS growth of the full model's solve (g2 = 2 g1, f =
0.1) from 105 to 68 MB at d = 72 and from 209 to 122 MB at d = 98.

Two engines, chosen by the Hilbert dimension alone (:func:`engine_for`):

* ``aggregated``  for d <= MAX_SUPEROP_DIM: builds the one-step RK4
                  transfer matrix of the dense generator and raises it
                  to the store stride, so a whole store interval is one
                  matvec. This is exactly fixed-step RK4 (the transfer
                  matrix is the RK4 stability polynomial of the
                  generator, not a matrix exponential), just amortized.
* ``direct``      above it: applies the exact propagator exp(L tau) to
                  vec(rho) as a truncated Taylor series on the CSR
                  generator (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
                  488 (2011), Alg. 3.2), planned once per model and run
                  for the one interval tau between marks
                  (:func:`_taylor_plan`) and applied once per mark
                  (:func:`_taylor_step`). The generator has about 11
                  nonzeros per row, so the engine has no dimension cap,
                  and its states do not depend on the step size, which
                  only places the marks.

The two differ by the aggregated engine's RK4 error, about 1e-12 at
f <= 0.1 and the base step; tests pin the agreement at 1e-10.

MAX_SUPEROP_DIM, 32, is where the two cross. Measured on 2 vCPUs, one
fresh process per run with scipy loaded, f = 0.1, the full model with
g2 = 2 g1 unless named symmetric, median wall seconds of three runs,
aggregated / direct: a short trace (every 100 steps to t = 2), a long
one (every 10 steps to t = 50), both with every observable, and a D_NM
run (horizon 20, eps 0.05):

    d = 18               0.52 / 0.02    0.27 / 2.15    0.09 / 0.43
    d = 32               1.09 / 0.03    2.97 / 3.29    1.26 / 1.27
    d = 32, symmetric    1.01 / 0.02    2.97 / 3.59    1.31 / 1.16
    d = 34, symmetric    1.26 / 0.05    3.95 / 3.79    1.80 / 1.24
    d = 50               12.7 / 0.06    21.5 / 6.64    14.6 / 2.47

The short d = 18 run on the aggregated engine is bimodal, 0.06 to 0.53
s over six runs, and 0.05 to 0.08 s on one BLAS thread.

At 32 the direct engine still loses the long trace. Above it the
aggregated engine's d^2 x d^2 products cost more than their
amortization saves, and they hold more memory: 638 against 68 MB peak
on the short d = 50 trace, 639 against 65 MB on its D_NM run.

Every trajectory, a trace (:func:`integrate`, :func:`trace_stack`) or
the map tomography of :mod:`dimer_nm.nonmarkov`, is stepped here, and
each numerical decision about it is made once: the grid it is sampled
on (:func:`uniform_grid`, capped by :func:`grid_steps`), the steps of
each sampling interval (:func:`substeps`: :func:`steps_over`, the
fewest whole steps with none longer than :func:`suggest_dt` of the
model from BASE_DT), the engine
(:func:`engine_for`) and its stride loop (:func:`propagate`, which steps
a stack of models from (D, k) matrices of k vectorized states, each
model at one stride of its own over at least one whole stride, in parts
that it cuts, on the aggregated engine one stacked product per mark,
and hands the samples of each part over in blocks of at most _CHUNK
marks, each starting at the last mark of the block before), the
trace-drift abort
(:func:`check_drift`), the state validity rule (:func:`_defects`, with
the eigenvalue floor EIG_FLOOR, which a trace applies to each block of
states: one Cholesky factorization of the shifted Hermitian parts
screens the block against the floor, and only a block that fails it
takes its eigenvalues, to name the first state below the floor and its
exact lowest eigenvalue; :func:`steady_state` applies it to its one
state, with trace and Hermiticity defects of at most 1e-12, in
:func:`_checked_state`) and the observables. Every trace is stored on
one grid, uniform_grid(t_end, store interval), which covers t_end in at
least two whole intervals, and its marks are the grid's points: each
model steps every interval in sub equal steps of grid[-1] / (n sub), sub
its own. A trace steps a stack of models of one dims
(:func:`trace_stack`; :func:`integrate` is its stack of one that also
stores the states) as one :func:`propagate` call, each model at its own
step and stride, and takes each block from the block's own view, model
by model: its states are checked and observed into per-model arrays of
one value per mark, so only :func:`integrate` holds an (n_stored, d, d)
stack. Measured on 2 vCPUs, fig1, fig3 and eq8 run back
to back (the benchmark's traces workload, median of 10) peak at 34.25
MB with the f values of each trace as one stack, against 37.04 MB with
each f integrated and its states stored alone.

:func:`propagate` alone cuts a stack into parts, for a trace and for
the tomography alike, and steps them one after the other. A part
builds its operators and its block buffer as its first block is taken
and drops them once its last block is, so one part's are alive at a
time. On the aggregated engine each model of a part holds its d^2 x
d^2 stride operator, and each mark's stacked product reads every
operator of the part, so a part holds at most _STACK_BYTES, 4 MiB, of
operators, or one model: 202 models at d = 6, 2 at d = 18, 1 at d = 24
to 32. The direct engine takes no stacked product, so each of its parts
is one model with one Taylor plan. Measured on 2 vCPUs with 2 MiB of
L2 cache each, seven f values stepped to t = 50 every 0.01 (median of
5): as one stack they took 26 % less wall time than one by one at d = 6
and 11 % less at d = 12, but 38 % more at d = 16 and 49 % more at
d = 18, where two together took 2 % more and four 33 % more. Peak RSS
growth of four f values (0.01, 0.1, 1, 10) after a run of one, against
one part of all four: a d = 32 full-model D_NM sweep (g2 = 2 g1,
horizon 20, eps 0.05, on one CPU) 0.5-1.9 against 50 MB, and a d = 72
full-model evolve (g2 = 2 g1, t_end 2, both observables) 37 against
71 MB, the same bits. A 4-f d = 32 evolve grows the peak by 99 MB to
t = 0.5 and by about 100 MB to t = 50, against 99 and 116 MB with each
f integrated alone, and 146 and 143 MB with the four operators held at
once.

_CHUNK, 128 marks, bounds every working set of a run. No engine's bits
depend on where blocks end, as each mark is one step from the mark
before, nor on the stack or the part a model runs in. Measured on 2 vCPUs, the fig2
D_NM sweep peaks at 35.0 MB with 128-mark blocks against 38.7 MB with
1024-mark ones, and a cold run takes about 5,600 minor page faults
against 108,000; 64-mark blocks peak no lower and run slower, and
256-mark ones peak 0.3 MB lower but take twice the faults.

scipy is imported lazily, so ``import dimer_nm`` and the dense runs
(every trajectory up to MAX_SUPEROP_DIM, steady states below
SPARSE_STEADY_MIN_DIM) do not pay for it: the direct engine loads
``scipy.sparse`` alone, and only the sparse steady-state solve loads
``scipy.sparse.linalg`` (SuperLU, ARPACK and scipy's OpenBLAS).

The sparse steady-state solve (SuperLU and ARPACK), each block of the
direct engine and the state checks and observables of each block of a
trace run on one BLAS thread (:func:`opalg.one_blas_thread`),
as do the model builds. Their BLAS calls are small or bound by memory,
so a second thread mostly spins. Measured on 2 vCPUs, the d = 72 sparse
steady solve of the full model (g2 = 2 g1, f = 0.1) took 1.9-2.5 s wall
and 3.8-4.5 s CPU with the default threads, and 1.4 s wall and CPU on
one (two runs each); at d = 98 it took 3.9-4.4 s wall and 7.6-8.7 s CPU
with the default threads, and 3.0-4.5 s wall and CPU on one (five runs
each). The aggregated engine keeps the default threads, as its dense
products gain from them: with OPENBLAS_NUM_THREADS=1 a d = 18 ``nmm --model
full`` run (horizon 20, eps 0.05) went from 0.11-0.12 s to 0.12-0.17 s
wall, and a d = 32 evolve (t_end 50) from 3.8-4.2 s to 5.9-6.3 s.
"""

import contextlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import entanglement, opalg
from .errors import (
    DimensionError,
    DimerNMError,
    NonUniqueSteadyStateError,
    NumericalDriftError,
    SingularSystemError,
)
from .model import LindbladModel

MAX_SUPEROP_DIM = 32
BASE_DT = 1e-3  # base RK4 step in dimer units, before stiff rates shrink it
TRACE_ABORT_TOL = 1e-6
EIG_FLOOR = -1e-8  # lowest eigenvalue a valid state may have
# most points a grid of uniform_grid may hold, 50 times fig2's 20 000 per
# f; map_tomography holds a 256-byte map per point, 256 MB at the cap
MAX_GRID_POINTS = 1_000_000
# marks per block propagate hands over, each checked and observed as
# one by a trace; bounds every working set of a run
_CHUNK = 128
# most bytes of stride operators one stacked product of the aggregated
# engine reads per mark: propagate steps a stack in parts of at most this
_STACK_BYTES = 4 * 2**20
DEGENERACY_TOL = 1e-10
# steady_state solves Hilbert dimensions below this densely (full SVD,
# LAPACK solve) and from it on with one sparse LU per parity sector.
# Measured per solve on 2 vCPUs, median of 7, the two paths break even
# near d = 12 on the symmetric model (8-9 ms each); on the full model
# (g2 = 2 g1, f = 0.1) the sparse one takes 13 ms at d = 18 against
# 38 ms, and 65 ms at d = 32 against 0.66 s. Its scipy import costs
# 0.3 s and 30 MB once per process, which a sweep of about 15 solves
# repays at d = 18.
SPARSE_STEADY_MIN_DIM = 18


def _defects(rho):
    """|tr rho - 1|, Hermiticity defect and, where it lies below EIG_FLOOR,
    the lowest eigenvalue of a state or of each state in a stack (..., d, d);
    EIG_FLOOR where the lowest eigenvalue clears it. A state with a
    non-finite entry counts as the zero matrix with trace defect inf,
    failing every check.

    The floor is screened with one Cholesky factorization of the
    Hermitian parts shifted by -EIG_FLOOR: it succeeds when every lowest
    eigenvalue lies above the floor, up to rounding (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10). Only a stack that
    fails the screen takes its eigenvalues, so the one reported is exact.
    """
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        rho = np.where(finite[..., None, None], rho, 0.0)
    trace = np.where(finite, np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0), np.inf)
    herm = opalg.hermiticity_defect(rho)
    hermitian = opalg.hermitize(rho)
    try:
        np.linalg.cholesky(hermitian - EIG_FLOOR * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        return trace, herm, np.minimum(np.linalg.eigvalsh(hermitian)[..., 0], EIG_FLOOR)
    return trace, herm, np.full(trace.shape, EIG_FLOOR)


def _checked_state(rho):
    """rho, once its trace and Hermiticity defects are at most 1e-12 and
    its lowest eigenvalue clears EIG_FLOOR (:func:`_defects`); raises
    NumericalDriftError at the first check it fails."""
    trace, herm, low = (float(x) for x in _defects(rho))
    if trace > 1e-12:
        raise NumericalDriftError(f"trace deviates from 1 by {trace:.3e}")
    if herm > 1e-12:
        raise NumericalDriftError(f"Hermiticity defect {herm:.3e}")
    if low < EIG_FLOOR:
        raise NumericalDriftError(f"negative population {low:.3e}")
    return rho


@dataclass
class Trajectory:
    """One trace's marks, observables and diagnostics, and the states an
    :func:`integrate` run stores; :func:`trace_stack` stores none."""

    times: np.ndarray
    states: np.ndarray  # (n_stored, d, d), or None
    observables: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def generator_triplets(h_eff, jumps):
    """COO triplets ``(rows, cols, vals)`` of the vectorized generator.

    The master equation is
    rho_dot = -i (h_eff rho - rho h_eff^dag) + sum rate L rho L^dag;
    tests pin the generator against this formula applied directly
    (``tests/oracles.py``). Column stacking maps A rho B to
    kron(B.T, A) vec(rho), so the equation becomes
    -i kron(I, h) + i kron(h*, I) + sum rate kron(L*, L). Each
    Kronecker term is expanded over the nonzeros of its two factors.
    Entries may repeat a (row, col) position and are to be summed.
    ``jumps`` is an iterable of (operator, rate) pairs. numpy only.
    """
    h = np.asarray(h_eff, dtype=complex)
    d = h.shape[0]
    parts = []

    def kron_term(a, b, coef):
        ai, aj = np.nonzero(a)
        bk, bm = np.nonzero(b)
        parts.append((
            (ai[:, None] * d + bk).ravel(),
            (aj[:, None] * d + bm).ravel(),
            (coef * (a[ai, aj][:, None] * b[bk, bm])).ravel(),
        ))

    eye = np.eye(d, dtype=complex)
    kron_term(eye, h, -1j)
    kron_term(h.conj(), eye, 1j)
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        kron_term(op.conj(), op, rate)
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return rows, cols, vals


def sparse_generator(h_eff, jumps):
    """:func:`generator_triplets` as a scipy CSR matrix (imports scipy)."""
    from scipy import sparse

    n = np.shape(h_eff)[0] ** 2
    rows, cols, vals = generator_triplets(h_eff, jumps)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def liouvillian_matrix(model: LindbladModel):
    """Dense vectorized generator, column-stacking convention.

    A rho B maps to (B.T kron A) vec(rho). Refuses a Hilbert dimension
    above MAX_SUPEROP_DIM, 32, where the direct engine takes over; the
    direct engine and the sparse steady state have no such cap.
    """
    d = model.dim
    if d > MAX_SUPEROP_DIM:
        raise DimensionError(
            f"dimension {d} exceeds the superoperator guard {MAX_SUPEROP_DIM}"
        )
    n = d * d
    rows, cols, vals = generator_triplets(model.h_eff, model.jumps)
    lmat = np.zeros((n, n), dtype=complex)
    np.add.at(lmat.reshape(-1), rows * n + cols, vals)
    return lmat


def rk4_transfer_matrix(lmat, dt: float):
    """One-step propagation matrix of fixed-step RK4 for a linear generator.

    Horner form of I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24. Applying it
    n times is bit-for-bit the same linear map as n RK4 steps.
    """
    n = lmat.shape[0]
    eye = np.eye(n, dtype=complex)
    hl = dt * lmat
    t = eye + hl / 4.0
    t = eye + (hl / 3.0) @ t
    t = eye + (hl / 2.0) @ t
    return eye + hl @ t


def suggest_dt(model: LindbladModel, base: float = BASE_DT) -> float:
    """Step size heuristic tied to the fastest damping channel.

    The base step (BASE_DT unless the caller sets one), shrunk once the
    largest jump rate exceeds the reference linewidth scale (rate 40 in
    dimer units); stiff overdamped modes then get proportionally finer steps.
    """
    max_rate = max((rate for _, rate in model.jumps), default=0.0)
    return base / max(1.0, max_rate / 40.0)


def steps_over(interval: float, dt: float) -> int:
    """Fewest whole steps spanning interval with none longer than dt.

    At least one. A quotient interval / dt that rounding lifts just above
    a whole number counts as that number. The slack is 1e-12 of the
    quotient, which covers the rounding of a long run (about 3e-9 near
    3e7 steps), plus 1e-9 for a short one.
    """
    return max(1, math.ceil(interval / dt * (1.0 - 1e-12) - 1e-9))


def substeps(model: LindbladModel, interval: float, base: float = BASE_DT):
    """(step, n): the n = :func:`steps_over` (interval, :func:`suggest_dt`
    (model, base)) equal steps of length interval / n that span one
    sampling interval of model, a trace's storage interval or a grid
    step of the map tomography."""
    n = steps_over(interval, suggest_dt(model, base))
    return interval / n, n


def grid_steps(horizon: float, eps: float) -> int:
    """The n of :func:`uniform_grid` (horizon, eps), or DimerNMError
    unless both are positive and finite and the grid holds at most
    MAX_GRID_POINTS points."""
    if not (0 < eps < math.inf and 0 < horizon < math.inf):  # nan fails too
        raise DimerNMError("horizon and eps must be positive and finite")
    # n <= ceil(horizon / eps), and an overflowing quotient is inf
    if not horizon / eps <= MAX_GRID_POINTS - 1:
        raise DimerNMError(f"{horizon / eps:.3g} steps would take more than "
                           f"{MAX_GRID_POINTS} grid points")
    return max(2, steps_over(horizon, eps))


def uniform_grid(horizon: float, eps: float) -> np.ndarray:
    """Grid [0, eps, ..., n eps] covering the horizon, 2 <= n <
    MAX_GRID_POINTS (:func:`grid_steps`)."""
    return eps * np.arange(grid_steps(horizon, eps) + 1, dtype=float)


def engine_for(model: LindbladModel, method: str = "auto") -> str:
    """The engine :func:`propagate` runs model on.

    ``auto`` takes the aggregated engine for d <= MAX_SUPEROP_DIM and the
    direct one above it, so the choice depends on the dimension alone and
    the models of a stack, which share dims, share one engine.
    """
    if method == "auto":
        method = "aggregated" if model.dim <= MAX_SUPEROP_DIM else "direct"
    if method not in ("aggregated", "direct"):
        raise DimerNMError(f"unknown integration method {method!r}")
    return method


def propagate(models, v, step_sizes, strides, n_marks, keep=None, method: str = "auto"):
    """Propagate a stack of models in parts, each handed over in blocks of marks.

    The models share dims. Model i starts from v[i], a (D, k) matrix
    whose k columns are vectorized states, and is sampled n_marks >= 2
    times, every strides[i] steps of step_sizes[i]: mark k is at time
    k * strides[i] * step_sizes[i]. One stride per model is the rule: a
    trace is one call, its marks the points of its grid (:func:`_stepped`).

    Yields (first, blocks) for each part of the stack, in order: the
    models from index first to the next part's first. On the aggregated
    engine a part holds as many models as fit _STACK_BYTES of stride
    operators, 16 d^4 bytes each, or one: 202 at d = 6, 2 at d = 18, 1 at
    d = 24 to 32. On the direct engine, which takes no stacked product,
    a part is one model. blocks yields (lo, block) for blocks of at most
    _CHUNK marks: block[j, k] holds the part's model first + j's v, or
    keep @ v, at mark lo + k. Each block after the first starts at the
    last mark of the block before, with the same bits, so a block of m
    marks spans m - 1 whole stride intervals. Each block is a view of
    one buffer that the next block overwrites, so the caller copies
    what it keeps. A part builds its operators and its buffer when its
    first block is taken, and frees them once its blocks are exhausted,
    so a caller that takes each part's blocks before the next part
    holds one part's at a time; an error of a part's stepping, such as
    a Taylor plan that fails, is raised as that part's blocks are taken.

    All models run on the one engine :func:`engine_for` gives. Each
    model runs exactly as it would in a stack of one.
    """
    if any(m.dims != models[0].dims for m in models):
        raise DimensionError("propagate stacks models of equal dims only")
    if n_marks < 2:
        raise DimerNMError(f"propagate samples at least two marks, got {n_marks}")
    engine = engine_for(models[0], method)
    spans = [(lo, min(_CHUNK, n_marks - lo)) for lo in range(0, n_marks - 1, _CHUNK - 1)]
    size = max(1, _STACK_BYTES // (16 * models[0].dim ** 4)) if engine == "aggregated" else 1
    for first in range(0, len(models), size):
        part = slice(first, first + size)
        yield first, _blocks(engine, models[part], np.array(v[part], dtype=complex),
                             step_sizes[part], strides[part], spans, keep)


def _blocks(engine, models, x, step_sizes, strides, spans, keep):
    """The blocks of one part of :func:`propagate`, from its starts x.

    The engine, :func:`_aggregated` or :func:`_direct`, first makes the
    part's step, which takes every model of the part from one mark to
    the next, and the scope each block is taken in. Each mark is one
    step from the mark before, so a model's marks are the same bits in
    a stack of one and wherever the blocks end. The scope holds a block,
    not the yield, so the caller's work between blocks keeps its BLAS
    threads.
    """
    step, scope = (_aggregated if engine == "aggregated" else _direct)(models, step_sizes, strides)
    rows = x.shape[1] if keep is None else len(keep)
    out = np.empty((len(x), spans[0][1], rows, x.shape[2]), dtype=complex)
    for lo, m in spans:
        with scope():
            out[:, 0] = _kept(keep, x)
            for k in range(1, m):
                x = step(x)
                out[:, k] = _kept(keep, x)
        yield lo, out[:, :m]


def _aggregated(models, step_sizes, strides):
    """The aggregated engine's (step, scope) of a part: each model's
    stride operator, the power of its transfer matrix, built once, and
    the models advanced together, one stacked product per mark, which
    runs each model's product exactly as a stack of one would. Its dense
    products gain from the default BLAS threads, so the scope is empty."""
    g = np.stack([np.linalg.matrix_power(rk4_transfer_matrix(liouvillian_matrix(m), dt), int(s))
                  for m, dt, s in zip(models, step_sizes, strides)])
    return (lambda x: g @ x), contextlib.nullcontext


def _direct(models, step_sizes, strides):
    """The direct engine's (step, scope) of a part, one model: its
    Taylor plan (:func:`_taylor_plan`) made once for its one interval
    tau = stride x step, each mark one :func:`_taylor_step` from the
    mark before, and each block on one BLAS thread."""
    [plan] = [_taylor_plan(m, s * dt) for m, dt, s in zip(models, step_sizes, strides)]
    return (lambda x: _taylor_step(plan, x[0])[None]), opalg.one_blas_thread


# theta_m, the largest ||tau A||_1 for which m Taylor terms meet the
# tolerance 2^-53: Higham, Functions of Matrices (SIAM, 2008), Table
# A.3, for m <= 30, and Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011), Table 3.1, for m = 35 to 55
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0 ** -53


@dataclass(frozen=True)
class _TaylorPlan:
    """exp(tau L) = e^(tau mu) exp(tau A), A = L - mu I, mu = tr L / D,
    taken as s sub-steps of a Taylor series of at most m terms."""

    a: object  # scipy CSR matrix
    tau: float
    mu: complex
    m: int
    s: int


def _taylor_plan(model, tau):
    """The :class:`_TaylorPlan` of model's exact propagator over tau.

    (m, s) minimizes m ceil(||tau A||_1 / theta_m) over _THETA, ties to
    the smaller m (Al-Mohy & Higham 2011, Code Fragment 3.1, its branch
    on the exact 1-norm); a zero A takes (0, 1). NumericalDriftError, before any step, when
    ||tau A||_1 is not finite or s exceeds MAX_GRID_POINTS: a bath so hot
    that a mark would take more sub-steps than a grid holds points.
    """
    from scipy import sparse

    gen = sparse_generator(model.h_eff, model.jumps)
    n = gen.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
        mu = gen.trace() / float(n)
        a = gen - mu * sparse.eye(n, n, dtype=gen.dtype, format="csr")
        norm = tau * abs(a).sum(axis=0).max()
    if norm == 0:
        return _TaylorPlan(a, tau, mu, 0, 1)
    # no pair takes fewer sub-steps than ||tau A||_1 / theta_55, so that
    # bound is checked before the small thetas divide the norm, which
    # overflows near 1e300
    if norm / _THETA[55] <= MAX_GRID_POINTS:  # nan fails too
        steps = {m: math.ceil(norm / theta) for m, theta in _THETA.items()}
        m = min(steps, key=lambda m: m * steps[m])  # the first minimum: the smaller m
        if steps[m] <= MAX_GRID_POINTS:
            return _TaylorPlan(a, tau, mu, m, steps[m])
    raise NumericalDriftError(
        f"||tau (L - mu I)||_1 = {norm:.3e} at tau = {tau:.3e} would take more than "
        f"{MAX_GRID_POINTS} Taylor sub-steps per mark")


def _taylor_step(plan, b):
    """exp(tau L) b for a (D, k) matrix b: the core of Al-Mohy & Higham
    2011, Alg. 3.2, in scipy's order of operations. Each of the s
    sub-steps sums Taylor terms until the last two together fall below
    _TAYLOR_TOL of the sum, in matrix inf-norms, and then scales the sum
    by e^(tau mu / s)."""
    a, tau, s = plan.a, plan.tau, plan.s
    f = b
    eta = np.exp(tau * plan.mu / float(s))
    for _ in range(s):
        c1 = np.linalg.norm(b, np.inf)
        for j in range(plan.m):
            b = (tau / float(s * (j + 1))) * a.dot(b)
            c2 = np.linalg.norm(b, np.inf)
            f = f + b
            if c1 + c2 <= _TAYLOR_TOL * np.linalg.norm(f, np.inf):
                break
            c1 = c2
        f = eta * f
        b = f
    return f


def _kept(keep, x):
    return x if keep is None else keep @ x


def check_drift(defect, times, dt: float):
    """Raise NumericalDriftError at the first time where the trace defect
    exceeds TRACE_ABORT_TOL or is not finite."""
    defect = np.asarray(defect)
    drifted = np.flatnonzero(~(defect <= TRACE_ABORT_TOL))
    if drifted.size:
        k = drifted[0]
        raise NumericalDriftError(
            f"trace drifted by {defect[k]:.3e} at t={times[k]:.6g} "
            f"(dt={dt:.3e})"
        )


def _check_defects(trace, low, times, dt: float):
    """Raise NumericalDriftError at the first drifted or non-finite state
    of a run (:func:`check_drift`), and failing that at the first state
    with a lowest eigenvalue below EIG_FLOOR, naming its eigenvalue and
    time. trace and low are :func:`_defects`' of each stored state."""
    check_drift(trace, times, dt)
    negative = np.flatnonzero(low < EIG_FLOOR)
    if negative.size:
        k = negative[0]
        raise NumericalDriftError(
            f"lowest eigenvalue {low[k]:.3e} at t={times[k]:.6g} "
            f"(dt={dt:.3e})"
        )


def expectation(state, op):
    """Real expectation value tr(op rho) of a state or of each state in a
    stack (..., d, d); rejects residual imaginary parts."""
    val = np.einsum("ij,...ji->...", np.asarray(op), np.asarray(state))
    if np.any(np.abs(val.imag) > 1e-10):
        raise DimerNMError(f"expectation has imaginary part {np.abs(val.imag).max():.3e}")
    return val.real


class _Run:
    """One model's run in a stack of :func:`_stepped`: its grid, its
    step, and the defects and observables of the states it has taken."""

    def __init__(self, model, rho0, times, stride, observables):
        self.rho0 = np.asarray(rho0, dtype=complex)
        d = model.dim
        if self.rho0.shape != (d, d):
            raise DimensionError(f"rho0 shape {self.rho0.shape} does not match dims {model.dims}")
        modes = len(model.dims) > 1
        if observables is None:
            observables = (("inversion", "log_negativity", "singlet_overlap")
                           + ("mode_excitation",) * modes)
        for name in observables:
            if name not in ("inversion", "log_negativity", "singlet_overlap", "mode_excitation"):
                raise DimerNMError(f"unknown observable {name!r}")
            if name == "mode_excitation" and not modes:
                raise DimerNMError("mode_excitation requires a model with mode slots")
        n_stored = times.shape[0]
        self.times, self.stride = times, stride
        self.n_steps = (n_stored - 1) * stride
        self.dt = times[-1] / self.n_steps
        self.model = model
        self.trace, self.low = np.empty(n_stored), np.empty(n_stored)
        self.herm = 0.0
        self.obs = {name: np.empty(n_stored) for name in observables}
        # the number operator of each mode slot, for mode_excitation
        self.numbers = [opalg.embed(np.diag(np.arange(n, dtype=complex)), slot, model.dims)
                        for slot, n in enumerate(model.dims)
                        if slot and "mode_excitation" in self.obs]
        self.observing = True
        self.error = None  # an observable's DimerNMError, raised after the checks

    def take(self, at, rho):
        """Check the states rho (m, d, d), stored states at to at + m - 1,
        and observe them until the run fails a check or an observable."""
        span = slice(at, at + rho.shape[0])
        trace, herm, low = _defects(rho)
        self.trace[span], self.low[span] = trace, low
        self.herm = max(self.herm, float(herm.max()))
        if not self.observing:
            return
        if not ((trace <= TRACE_ABORT_TOL).all() and (low >= EIG_FLOOR).all()):
            self.observing = False  # the run raises at its end
            return
        try:
            self._observe(span, rho)
        except DimerNMError as exc:
            self.observing, self.error = False, exc

    def _observe(self, span, rho):
        if not self.obs:
            return
        model = self.model
        reduced = entanglement.reduce_to_dimer(rho, model.dims, model.basis)
        for name, values in self.obs.items():
            if name == "inversion":
                site = entanglement.basis_change(reduced, "site").rho
                values[span] = (site[:, 1, 1] - site[:, 0, 0]).real
            elif name == "log_negativity":
                values[span] = entanglement.log_negativity(reduced)
            elif name == "singlet_overlap":
                values[span] = entanglement.singlet_overlap(reduced)
            else:  # mode_excitation
                # occupation of the most excited physical oscillator;
                # model.mode_weight converts collective-mode quanta, and a
                # dark center-of-mass mode adds its thermal share
                w = model.mode_weight
                values[span] = w * np.max([expectation(rho, n) for n in self.numbers], axis=0) \
                    + (1.0 - w) * model.n_th

    def result(self, method, states):
        """The run's Trajectory, or the error of its first failed check
        (:func:`_check_defects`), and failing that of its observables."""
        _check_defects(self.trace, self.low, self.times, self.dt)
        if self.error is not None:
            raise self.error
        diagnostics = {
            "dt": self.dt,
            "n_steps": self.n_steps,
            "method": method,
            "max_trace_defect": float(self.trace.max()),
            "max_hermiticity_defect": self.herm,
        }
        return Trajectory(times=self.times, states=states, observables=self.obs,
                          diagnostics=diagnostics)


def _stepped(models, rho0s, grid, strides, observables, method, store):
    """Each model's :class:`Trajectory` on grid, its states stored only
    with store (a stack of one), from one stacked :func:`propagate` run.

    Model i takes strides[i] equal steps of grid[-1] / (n strides[i]) in
    each of the n intervals of grid. Every run is checked (:class:`_Run`)
    before anything steps; on the direct engine, a stack of several
    models also makes and drops each model's Taylor plan, in stack order,
    so a plan that fails raises before any part steps. Each block is
    taken from its own view, model by model, on one BLAS thread: its
    states are checked (:func:`_defects`) and observed, each state once,
    and the block is overwritten by the next. A part that raises as it
    steps raises here; each run raises the error of its checks once
    every part has stepped, in stack order.
    """
    runs = [_Run(model, rho0, grid, stride, observables)
            for model, rho0, stride in zip(models, rho0s, strides, strict=True)]
    if not runs:
        return []
    method = engine_for(models[0], method)
    if method == "direct" and len(runs) > 1:
        for run in runs:
            _taylor_plan(run.model, run.stride * run.dt)
    d = models[0].dim
    states = np.empty((grid.shape[0], d, d), dtype=complex) if store else None
    v = np.stack([opalg.vec(run.rho0)[:, None] for run in runs])
    for i, blocks in propagate(models, v, [run.dt for run in runs], strides, grid.shape[0],
                               method=method):
        for lo, block in blocks:
            # a block after the first starts at a mark already taken
            seen = 1 if lo else 0
            with opalg.one_blas_thread():
                for run, rows in zip(runs[i:], block[:, seen:, :, 0]):
                    # vec is column stacking, so each row is a transposed state
                    rho = rows.reshape(-1, d, d).transpose(0, 2, 1)
                    if states is not None:
                        states[lo + seen:lo + block.shape[1]] = rho
                    run.take(lo + seen, rho)
        # the views of the part's buffer go before the next part builds
        del block, rows, rho
    with opalg.one_blas_thread():
        return [run.result(method, states) for run in runs]


def integrate(model: LindbladModel, rho0, t_end: float, dt=None,
              store_every: int = 10, observables=None, method: str = "auto") -> Trajectory:
    """Evolution from rho0 through :func:`propagate`, its states stored
    on uniform_grid(t_end, store_every dt), store_every steps per grid
    interval: :func:`trace_stack`'s run of one model that keeps them.

    t_end must be positive and finite. dt defaults to :func:`suggest_dt`
    and must be positive; store_every must be a whole number >= 1 within
    float range. Each is checked before anything is allocated, and so is
    the grid (:func:`grid_steps`: at least two intervals, at most
    MAX_GRID_POINTS points), which covers t_end as every sampled run's
    does, so its last mark may lie past t_end. The run takes store_every
    equal steps of grid[-1] / (n store_every) in each of the n intervals,
    fixed-step RK4 on the aggregated engine and marks of the exact
    propagator on the direct one; a state at a chosen time t is the last
    of a run whose two intervals end at t. The first state is rho0. The
    run is one part of propagate on either engine, so a Taylor plan
    that fails on the direct engine raises before any step. Each block
    of states is checked by :func:`_defects` as it is handed over. A
    trace drift beyond TRACE_ABORT_TOL or a non-finite state
    (:func:`check_drift`), and failing that a lowest eigenvalue below
    EIG_FLOOR, raises NumericalDriftError naming the first such time and
    the step size (:func:`_check_defects`). Each block is screened
    against the floor with one shifted Cholesky factorization; only a
    block that fails the screen takes the eigenvalues of its states, so
    the error reports the exact lowest eigenvalue, and a run that passes
    knows only that every stored state clears the floor.

    observables: names from {inversion, log_negativity, singlet_overlap,
    mode_excitation}, each taken block by block as the states are
    checked, until a check fails; default is all that apply to the
    model. A name that is unknown or does not apply raises DimerNMError
    before the run steps. An observable that raises (an imaginary part
    above 1e-10) does so after the checks, naming the largest in its
    block.
    """
    if not 0 < t_end < math.inf:  # nan fails too
        raise DimerNMError(f"t_end must be positive and finite, got {t_end}")
    if dt is None:
        dt = suggest_dt(model)
    elif not dt > 0:  # nan fails too
        raise DimerNMError(f"dt must be positive, got {dt}")
    if not (store_every >= 1 and store_every % 1 == 0):  # nan, inf fail too
        raise DimerNMError(f"store_every must be a whole number >= 1, got {store_every}")
    if store_every > sys.float_info.max:  # an int, which no float holds
        raise DimerNMError(f"store_every must be within float range, "
                           f"got a {store_every.bit_length()}-bit integer")
    (traj,) = _stepped([model], [rho0], uniform_grid(t_end, store_every * dt),
                       [int(store_every)], observables, method, store=True)
    return traj


def trace_stack(models, rho0s, t_end: float, store_dt: float, bases, observables=None,
                method: str = "auto") -> list:
    """One Trajectory per model of a stack, in order, with states None,
    each stored on uniform_grid(t_end, store_dt), the one array every
    Trajectory.times holds.

    The models share dims, and model i runs from rho0s[i], each grid
    interval in the steps :func:`substeps` gives it from its base step
    bases[i]: sub equal steps of grid[-1] / (n sub) over the n
    intervals, so a stiff model steps finer. Each base must be positive
    and finite, and each input is checked as :func:`integrate` checks
    it, run by run, before anything steps (DimerNMError). The stack is
    one :func:`propagate` run, stepped in the parts propagate cuts and
    streamed block by block into each model's checks and observables,
    so no (n_stored, d, d) stack is held: each model's observables and
    diagnostics are the bits integrate gives it alone at its step and
    stride. A model that fails its checks raises the error integrate
    raises for it; where several fail, the first in the stack wins,
    once every part has stepped. A Taylor plan that fails on the direct
    engine raises before any part steps.
    """
    for base in bases:
        if not 0 < base < math.inf:  # nan fails too
            raise DimerNMError(f"base step must be positive and finite, got {base}")
    grid = uniform_grid(t_end, store_dt)
    strides = [substeps(m, store_dt, base)[1] for m, base in zip(models, bases, strict=True)]
    return _stepped(models, rho0s, grid, strides, observables, method, store=False)


def steady_state(model: LindbladModel) -> np.ndarray:
    """Null vector of the generator, via a trace-normalized bordered solve.

    The row of vec index 0 of the generator L is replaced by the trace
    functional and the system solved against the unit vector of that
    row, which is well posed exactly when the kernel is one-dimensional.
    Uniqueness is always tested: the second-smallest singular value
    sigma_{n-1} of L must clear DEGENERACY_TOL ||L||_F, relative to the
    Frobenius norm of the summed generator (:func:`opalg.frobenius`, on both
    paths), otherwise NonUniqueSteadyStateError is raised. The bound is
    relative so that a generator of huge entries, such as a bath at n_th
    = 1e6, cannot pass a kernel degenerate to rounding. Measured
    sigma_{n-1} / ||L||_F: at least 7.6e-6 on every non-degenerate
    solve checked (the tests, the fig2 f range at n_th = 0 and 0.2, the
    full model at d = 50 from f = 0.01 to 1), below 1e-14 on the
    degenerate ones.

    Below SPARSE_STEADY_MIN_DIM the dense generator gets a full SVD and a
    LAPACK solve. From it on L is split by the model's parity Pi: S =
    Pi (x) Pi commutes with L, so in orthonormal bases of S's even and
    odd sectors (:func:`_sectors`) L is L_even (+) L_odd, and its
    singular values are those of the two blocks together. vec(I) is
    even, and so are the trace functional and the steady state. The
    bordered L_even is factored once with a sparse LU and solved, and
    L_odd is factored once too, after L_even's factor is freed, so one
    sector's LU is alive at a time. The rule is sigma_{n-1}(L) = 1 / max over
    sectors s of ||L_s^+||_2, each norm from :func:`_sigma_min` (ARPACK,
    or the dense L_s^+ of a sector of size 2 or less). L_odd^+ is
    L_odd^-1, and L_even^+ = P_x B^-1 Z P_y is the projected bordered
    solve: B the bordered L_even, Z zeroing the bordered row, y the unit
    left null vector vec(I)/sqrt(d) in the sector basis, x the normalized
    solution and P_v = 1 - v v^H. A model with parity None is
    one sector, the whole space, solved from L's own triplets. An
    exactly singular factor means a degenerate kernel and raises
    NonUniqueSteadyStateError too; a solve that misses opalg's residual
    bound, or a generator with a non-finite entry, raises
    SingularSystemError.

    Returns the (d, d) density matrix, trace-normalized and Hermitian,
    once :func:`_checked_state` has passed it.
    """
    parts = [model.h_eff, [rate for _, rate in model.jumps]] + [op for op, _ in model.jumps]
    if not all(np.isfinite(a).all() for a in parts):
        raise SingularSystemError("the generator has non-finite entries")
    if model.dim < SPARSE_STEADY_MIN_DIM:
        x = _steady_vec_dense(model)
    else:
        # imported first, so that scipy's own OpenBLAS is loaded and pinned too
        import scipy.sparse.linalg  # noqa: F401
        with opalg.one_blas_thread():
            x = _steady_vec_sparse(model)
    rho = opalg.hermitize(opalg.unvec(x))
    rho /= np.trace(rho).real
    return _checked_state(rho)


def _check_unique(sigma, l_norm):
    """Raise NonUniqueSteadyStateError unless sigma_{n-1}(L) clears
    DEGENERACY_TOL ||L||_F, l_norm = ||L||_F; a nan sigma fails too."""
    if not sigma > DEGENERACY_TOL * l_norm:
        raise NonUniqueSteadyStateError(
            f"second-smallest singular value {sigma:.3e} below {DEGENERACY_TOL:.0e} "
            f"x ||L||_F = {l_norm:.3e}; the steady state is not unique")


def _steady_vec_dense(model):
    lmat = liouvillian_matrix(model)
    d = model.dim
    try:
        s = np.linalg.svd(lmat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"SVD of the generator failed: {exc}") from exc
    _check_unique(s[-2], opalg.frobenius(lmat))
    a = lmat.copy()
    a[0, :] = opalg.vec(np.eye(d, dtype=complex)).conj()
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    return opalg.solve_linear(a, b)


def _sectors(d, parity):
    """The even and the odd sector of S = Pi (x) Pi on vec(rho), Pi =
    parity, each in an orthonormal basis.

    S maps e_k, k = i + d j, to t_k e_(q_k), with q_k = perm[i] + d
    perm[j] and t_k = sign[i] sign[j]. A fixed index k = q_k spans
    sector t_k alone, and a pair k < q_k spans (e_k + t_k e_q) / sqrt(2)
    in the even and (e_k - t_k e_q) / sqrt(2) in the odd one. A sector
    is (pos, sgn, weight, n): e_k has component sgn[k] sqrt(weight[k])
    on basis vector pos[k] of the n, pos[k] = -1 where it has none;
    weight is 1 for a fixed index and 0.5 for a paired one, so the
    product of two components, sgn sgn' sqrt(weight weight'), is exact
    wherever it can be. Basis vectors are numbered by their smallest
    index. parity None is the identity: the whole space is one even
    sector, and the odd one is empty.
    """
    n = d * d
    perm, sign = (np.arange(d), np.ones(d)) if parity is None else parity
    k = np.arange(n)
    i, j = k % d, k // d
    q, t = perm[i] + d * perm[j], sign[i] * sign[j]
    paired = q != k
    weight = np.where(paired, 0.5, 1.0)
    sectors = []
    for s in (1.0, -1.0):
        first = (k < q) | (~paired & (t == s))
        pos = np.full(n, -1)
        pos[first] = np.arange(np.count_nonzero(first))
        pos[q[first]] = pos[first]
        sgn = np.ones(n)
        sgn[q[first & paired]] = s * t[first & paired]
        sectors.append((pos, sgn, weight, int(np.count_nonzero(first))))
    return sectors


def _fold(rows, cols, vals, sector):
    """The triplets of Q^T L Q, Q the orthonormal basis of one sector of
    :func:`_sectors` and L the generator of triplets (rows, cols, vals)."""
    pos, sgn, weight, _ = sector
    r, c = pos[rows], pos[cols]
    inside = (r >= 0) & (c >= 0)
    scale = sgn[rows] * sgn[cols] * np.sqrt(weight[rows] * weight[cols])
    return r[inside], c[inside], (scale * vals)[inside]


def _steady_vec_sparse(model):
    from scipy import sparse

    even, odd = _sectors(model.dim, model.parity)
    triplets = generator_triplets(model.h_eff, model.jumps)
    # ||L||_F of the summed entries, as the dense path takes it of lmat
    l_norm = opalg.frobenius(sparse.csr_matrix((triplets[2], triplets[:2])).data)
    folded = [_fold(*triplets, s) for s in (even, odd)]
    del triplets
    # both sectors are folded, and the full triplets dropped, before any
    # LU is made; each LU dies with the scope that makes it, the even
    # one's when _even_sector returns, so the two are never alive together
    vec, sigma = _even_sector(model.dim, even, *folded.pop(0), l_norm)
    # the odd sector holds no trace, so L_odd is nonsingular exactly when
    # the steady state is unique, and its smallest singular value is the
    # other candidate for sigma_{n-1} of L
    n_odd = odd[-1]
    if n_odd:
        o_rows, o_cols, o_vals = folded.pop()
        lu_odd = _sector_lu(sparse.csc_matrix((o_vals, (o_rows, o_cols)), shape=(n_odd, n_odd)),
                            "odd-sector")
        sigma = min(sigma, _sigma_min(n_odd, lu_odd.solve,
                                      lambda r: lu_odd.solve(r, trans="H"), l_norm))
    _check_unique(sigma, l_norm)
    return vec


def _even_sector(d, sector, rows, cols, vals, l_norm):
    """(vec(rho), sigma) from the even sector's triplets (rows, cols,
    vals): the steady state, unnormalized, from the LU of the bordered
    L_even, and sigma_{n-1}(L_even) = 1 / ||L_even^+||_2, taken at the
    scale l_norm = ||L||_F (:func:`_sigma_min`)."""
    from scipy import sparse

    pos, sgn, weight, n = sector
    coef = sgn * np.sqrt(weight)
    # vec(I) is even, as is the steady state: y = Q^T vec(I), and the
    # bordered matrix B is L_even with row r0, vec index 0's, replaced
    # by y^H
    trace_vec = np.arange(d) * (d + 1)  # vec(I) is 1 exactly there
    y = np.zeros(n)
    np.add.at(y, pos[trace_vec], coef[trace_vec])
    trace_cols = np.flatnonzero(y)
    r0 = pos[0]
    keep = rows != r0
    bordered = sparse.csc_matrix((
        np.concatenate([vals[keep], y[trace_cols]]),
        (np.concatenate([rows[keep], np.full(trace_cols.size, r0)]),
         np.concatenate([cols[keep], trace_cols])),
    ), shape=(n, n))
    lu = _sector_lu(bordered, "bordered even-sector")
    e0 = np.zeros(n, dtype=complex)
    e0[r0] = 1.0
    x = lu.solve(e0)
    opalg.check_residual(bordered, x, e0, a_norm=opalg.frobenius(bordered.data))

    # L_even's pseudo-inverse from the LU of B: row r0 of L_even is
    # -(1/y_r0) sum_{i != r0} y_i row i (y_r0 != 0, as vec index 0 is a
    # diagonal entry), so for r orthogonal to y, B s = Z r (Z zeroing
    # entry r0) solves L_even s = r, and projecting s off the null vector
    # x gives L_even^+ r = P_x B^-1 Z P_y r, P_v = 1 - v v^H for unit v.
    # Its largest singular value is 1 / sigma_{n-1}(L_even).
    yh, xh = y / math.sqrt(d), x / np.linalg.norm(x)

    def off(v, r):
        return r - v * (v.conj() @ r)

    def pinv(r):
        s = off(yh, r)
        s[r0] = 0.0
        return off(xh, lu.solve(s))

    def pinv_h(r):
        s = lu.solve(off(xh, r), trans="H")
        s[r0] = 0.0
        return off(yh, s)

    return np.where(pos >= 0, coef * x[pos], 0.0), _sigma_min(n, pinv, pinv_h, l_norm)


def _sector_lu(a, name):
    """SuperLU factors of a, the generator that name describes;
    NonUniqueSteadyStateError when a is exactly singular."""
    from scipy.sparse.linalg import splu

    try:
        return splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NonUniqueSteadyStateError(
            f"{name} generator is exactly singular ({exc}); "
            "the steady state is not unique"
        ) from exc


def _sigma_min(n, solve, solve_h, scale):
    """Smallest nonzero singular value of an n x n matrix M, scale over the
    largest of scale M^+, given solve: r -> M^+ r and solve_h: r -> (M^+)^H
    r. scale is ||L||_F of the generator M is a block of, so the operator
    ARPACK sees has a norm of ||L||_F / sigma however hot the bath: on M^+
    alone, at n_th = 1e300, its products of entries near 1e-300 underflow
    and it stops with a zero starting vector. ARPACK takes it for n > 2; a
    smaller M, below ARPACK's smallest problem, takes the norm of scale
    M^+ from its n columns."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

    op = LinearOperator((n, n),
                        matvec=lambda r: scale * solve(np.asarray(r, dtype=complex).ravel()),
                        rmatvec=lambda r: scale * solve_h(np.asarray(r, dtype=complex).ravel()),
                        dtype=complex)
    if n <= 2:
        return scale / np.linalg.norm(op.matmat(np.eye(n)), 2)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed: reproducible
    try:
        top = svds(op, k=1, v0=v0, return_singular_vectors=False)[0]
    except ArpackError as exc:
        raise DimerNMError(f"uniqueness test did not converge: {exc}") from exc
    return scale / top
