"""Time evolution and steady states of Lindblad models.

The master-equation generator is built in one place,
:func:`generator_triplets`, as sparse COO triplets of the vectorized
superoperator. :func:`liouvillian_matrix` densifies them for small
models; the sparse consumers wrap them in scipy CSR/CSC matrices.

Two engines, chosen by the Hilbert dimension alone (:func:`engine_for`):

* ``aggregated``  for d <= MAX_SUPEROP_DIM: builds the one-step RK4
                  transfer matrix of the dense generator and raises it
                  to the store stride, so a whole store interval is one
                  matvec. This is exactly fixed-step RK4 (the transfer
                  matrix is the RK4 stability polynomial of the
                  generator, not a matrix exponential), just amortized.
* ``direct``      above it: applies the exact propagator exp(L tau) to
                  vec(rho) with scipy's ``expm_multiply`` on the CSR
                  generator (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
                  488 (2011)), one call per model and block. The
                  generator has about 11 nonzeros per row, so the engine
                  has no dimension cap, and its states do not depend on
                  the step size, which only places the marks.

The two differ by the aggregated engine's RK4 error, about 1e-12 at
f <= 0.1 and the base step; tests pin the agreement at 1e-10.

Every trajectory, an :func:`integrate` run or the map tomography of
:mod:`dimer_nm.nonmarkov`, is stepped here, and each numerical decision
about it is made once: the step size (:func:`suggest_dt`, from BASE_DT),
the number of steps over an interval (:func:`steps_over`, the fewest
whole steps with none longer than the step size), the engine
(:func:`engine_for`) and its stride loop (:func:`propagate`, which steps
a stack of models together, each at one stride of its own, on the
aggregated engine one stacked product per mark, and hands the samples
over in blocks of at most _CHUNK marks, each starting at the last mark
of the block before; a trace with a shorter last store interval steps it
in a second call), the trace-drift abort (:func:`check_drift`), the state validity rule
(:func:`_defects`, with the eigenvalue floor EIG_FLOOR) and the
observables, which :func:`integrate` takes over the stored stack at once.

scipy is imported lazily, only by the direct engine and by the sparse
steady-state solve, so ``import dimer_nm`` and the dense runs (every
trajectory up to MAX_SUPEROP_DIM, steady states below
SPARSE_STEADY_MIN_DIM) do not pay for it.
"""

import math
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

MAX_SUPEROP_DIM = 64
BASE_DT = 1e-3  # base RK4 step in dimer units, before stiff rates shrink it
TRACE_ABORT_TOL = 1e-6
EIG_FLOOR = -1e-8  # lowest eigenvalue a valid state may have
_CHECK_BLOCK = 512  # stored states per validity check; bounds its temporaries
_CHUNK = 1024  # marks per block propagate hands over; bounds its working set
DEGENERACY_TOL = 1e-10
# steady_state solves Hilbert dimensions below this densely (full SVD,
# LAPACK solve) and from it on with a sparse LU. Measured per solve on 2
# vCPUs, the two paths break even near d = 10 (4 ms each); at d = 18 the
# sparse one takes 11 ms against 41 ms, at d = 32 37 ms against 0.73 s.
# Its scipy import costs 0.3 s and 30 MB once per process, which a sweep
# of about 15 solves repays at d = 18.
SPARSE_STEADY_MIN_DIM = 18


@dataclass(frozen=True)
class QuantumState:
    """Density matrix plus subsystem dimensions."""

    rho: np.ndarray
    dims: tuple

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.rho.shape != (d, d):
            raise DimensionError(
                f"state shape {self.rho.shape} does not match dims {self.dims}"
            )

    def validate(self, trace_tol=1e-9, herm_tol=1e-10, eig_floor=EIG_FLOOR):
        trace, herm, low = (float(x) for x in _defects(self.rho))
        if trace > trace_tol:
            raise NumericalDriftError(f"trace deviates from 1 by {trace:.3e}")
        if herm > herm_tol:
            raise NumericalDriftError(f"Hermiticity defect {herm:.3e}")
        if low < eig_floor:
            raise NumericalDriftError(f"negative population {low:.3e}")
        return self


def _defects(rho):
    """|tr rho - 1|, Hermiticity defect and lowest eigenvalue of a state or
    of each state in a stack (..., d, d). A state with a non-finite entry
    counts as the zero matrix with trace defect inf, failing every check."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    rho = np.where(finite[..., None, None], rho, 0.0)
    trace = np.where(finite, np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0), np.inf)
    return trace, opalg.hermiticity_defect(rho), np.linalg.eigvalsh(opalg.hermitize(rho))[..., 0]


@dataclass
class Trajectory:
    """Stored snapshots of one integration run."""

    times: np.ndarray
    states: np.ndarray  # (n_stored, d, d)
    dims: tuple
    basis: str
    observables: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> QuantumState:
        return QuantumState(rho=self.states[-1], dims=self.dims)


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

    A rho B maps to (B.T kron A) vec(rho). Guarded to Hilbert dimension
    64 so the d^2 x d^2 dense matrix stays manageable; the direct engine
    and the sparse steady state have no such cap.
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
    """Propagate a stack of models, handed over in blocks of marks.

    The models share dims. Model i starts from v[i], vec(rho) or a matrix
    whose columns are vectorized states, and is sampled n_marks times,
    every strides[i] steps of step_sizes[i]: mark k is at time
    k * strides[i] * step_sizes[i]. One stride per model is the rule; a
    run with a shorter last interval makes a second call from its last
    state.
    Yields (lo, block) for blocks of at most _CHUNK marks:
    block[i, j] holds model i's v, or keep @ v, at mark lo + j. Each
    block after the first starts at the last mark of the block before,
    with the same bits, so a block of m marks spans m - 1 whole stride
    intervals. Each block is a view of one buffer that the next block
    overwrites, so the caller copies what it keeps.

    All models run on the one engine :func:`engine_for` gives. Each
    model runs exactly as it would in a stack of one.
    """
    n = len(models)
    if any(m.dims != models[0].dims for m in models):
        raise DimensionError("propagate stacks models of equal dims only")
    engine = engine_for(models[0], method)
    v = np.array(v, dtype=complex)
    # a trailing column axis on vectors keeps every product a matrix product
    x = v[..., None] if v.ndim == 2 else v
    shape = v.shape[1:] if keep is None else (len(keep),) + v.shape[2:]
    spans = [(lo, min(_CHUNK, n_marks - lo)) for lo in range(0, max(n_marks - 1, 1), _CHUNK - 1)]
    block = np.empty((n, spans[0][1]) + shape, dtype=complex)
    # the engines write their rows with the column axis kept
    out = block.reshape(block.shape[:3] + x.shape[-1:])
    blocks = _aggregated if engine == "aggregated" else _direct
    for lo, m in blocks(models, x, step_sizes, strides, spans, keep, out):
        yield lo, block[:, :m]


def _aggregated(models, x, step_sizes, strides, spans, keep, out):
    """The aggregated engine's blocks for :func:`propagate`: writes every
    model's rows into out and yields each (lo, m) of spans.

    Each model's stride operator, the power of its transfer matrix, is
    built once. The models advance together, one stacked product per
    mark, which runs each model's product exactly as a stack of one would.
    """
    g = np.stack([np.linalg.matrix_power(rk4_transfer_matrix(liouvillian_matrix(m), dt), int(s))
                  for m, dt, s in zip(models, step_sizes, strides)])
    for lo, m in spans:
        out[:, 0] = _kept(keep, x)
        for k in range(1, m):
            x = g @ x
            out[:, k] = _kept(keep, x)
        yield lo, m


def _direct(models, x, step_sizes, strides, spans, keep, out):
    """The direct engine's blocks for :func:`propagate`: writes every
    model's rows into out and yields each (lo, m) of spans.

    Each model's CSR generator is built once, and each block of a model
    is one ``expm_multiply`` call on the grid of its marks, so the model
    gets the same bits as in a stack of one.
    """
    from scipy.sparse.linalg import expm_multiply

    gens = [sparse_generator(m.h_eff, m.jumps) for m in models]
    x = list(x)
    for lo, m in spans:
        for i, gen in enumerate(gens):
            out[i, 0] = _kept(keep, x[i])
            if m > 1:
                stop = ((m - 1) * strides[i]) * step_sizes[i]
                xs = expm_multiply(gen, x[i], start=0.0, stop=stop, num=m, endpoint=True)
                x[i] = xs[-1]
                out[i, 1:m] = _kept(keep, xs[1:])
        yield lo, m


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


def expectation(state, op):
    """Real expectation value tr(op rho) of a state or of each state in a
    stack (..., d, d); rejects residual imaginary parts."""
    rho = getattr(state, "rho", state)
    val = np.einsum("ij,...ji->...", np.asarray(op), np.asarray(rho))
    if np.any(np.abs(val.imag) > 1e-10):
        raise DimerNMError(f"expectation has imaginary part {np.abs(val.imag).max():.3e}")
    return val.real


def integrate(model: LindbladModel, rho0, t_end: float, dt=None,
              store_every: int = 10, observables=None, method: str = "auto") -> Trajectory:
    """Evolution from rho0 over [0, t_end] through :func:`propagate`.

    dt defaults to :func:`suggest_dt` and must be positive; the run takes
    :func:`steps_over` (t_end, dt) equal steps, fixed-step RK4 on the
    aggregated engine and marks of the exact propagator on the direct one.
    States are stored every ``store_every`` steps (a whole number >= 1)
    plus the final step, and checked by :func:`_defects`, _CHECK_BLOCK at
    a time. A trace drift beyond TRACE_ABORT_TOL or a non-finite state
    (:func:`check_drift`), and failing that a lowest eigenvalue below
    EIG_FLOOR, raises NumericalDriftError naming the first such time and
    the step size.

    observables: names from {inversion, log_negativity, singlet_overlap,
    mode_excitation}, each taken over the whole stored stack; default is
    all that apply to the model.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = model.dim
    if rho0.shape != (d, d):
        raise DimensionError(f"rho0 shape {rho0.shape} does not match dims {model.dims}")
    if t_end <= 0:
        raise DimerNMError(f"t_end must be positive, got {t_end}")
    if dt is None:
        dt = suggest_dt(model)
    elif not dt > 0:  # nan fails too
        raise DimerNMError(f"dt must be positive, got {dt}")
    if not (store_every >= 1 and float(store_every).is_integer()):  # nan, inf fail too
        raise DimerNMError(f"store_every must be a whole number >= 1, got {store_every}")
    store_every = int(store_every)
    n_steps = steps_over(t_end, dt)
    dt_eff = t_end / n_steps

    # whole store intervals in one call; a partial last one is a second
    # call of one interval from the last whole-interval state
    n_whole, tail = divmod(n_steps, store_every)
    marks = list(range(0, n_steps + 1, store_every)) + [n_steps] * (tail > 0)

    method = engine_for(model, method)
    states = np.empty((len(marks), d, d), dtype=complex)
    v, at = opalg.vec(rho0), 0
    for stride, n_marks in [(store_every, n_whole + 1)] + [(tail, 2)] * (tail > 0):
        for lo, block in propagate([model], [v], [dt_eff], [stride], n_marks, method=method):
            # vec is column stacking, so each row of block[0] is a transposed state
            states[at + lo:at + lo + block.shape[1]] = block[0].reshape(-1, d, d).transpose(0, 2, 1)
        at += n_marks - 1
        v = opalg.vec(states[at])
    times = dt_eff * np.asarray(marks, dtype=float)

    trace, herm, low = np.concatenate([
        _defects(states[lo:lo + _CHECK_BLOCK])
        for lo in range(0, states.shape[0], _CHECK_BLOCK)], axis=1)
    check_drift(trace, times, dt_eff)
    negative = np.flatnonzero(low < EIG_FLOOR)
    if negative.size:
        k = negative[0]
        raise NumericalDriftError(
            f"lowest eigenvalue {low[k]:.3e} at t={times[k]:.6g} "
            f"(dt={dt_eff:.3e})"
        )

    if observables is None:
        observables = ("inversion", "log_negativity", "singlet_overlap") + (
            ("mode_excitation",) if len(model.dims) > 1 else ())
    reduced = entanglement.reduce_to_dimer(states, model.dims, model.basis)
    obs = {}
    for name in observables:
        if name == "inversion":
            site = entanglement.basis_change(reduced, "site").rho
            obs[name] = (site[:, 1, 1] - site[:, 0, 0]).real
        elif name == "log_negativity":
            obs[name] = entanglement.log_negativity(reduced)
        elif name == "singlet_overlap":
            obs[name] = entanglement.singlet_overlap(reduced)
        elif name == "mode_excitation":
            if len(model.dims) < 2:
                raise DimerNMError("mode_excitation requires a model with mode slots")
            # occupation of the most excited physical oscillator;
            # model.mode_weight converts collective-mode quanta
            numbers = [opalg.embed(np.diag(np.arange(d, dtype=complex)), slot, model.dims)
                       for slot, d in enumerate(model.dims) if slot]
            obs[name] = model.mode_weight * np.max([expectation(states, n) for n in numbers], axis=0)
        else:
            raise DimerNMError(f"unknown observable {name!r}")

    diagnostics = {
        "dt": dt_eff,
        "n_steps": n_steps,
        "method": method,
        "max_trace_defect": float(trace.max()),
        "max_hermiticity_defect": float(herm.max()),
        "min_eigenvalue": float(low.min()),
    }
    return Trajectory(times=times, states=states, dims=model.dims,
                      basis=model.basis, observables=obs, diagnostics=diagnostics)


def steady_state(model: LindbladModel) -> QuantumState:
    """Null vector of the generator, via a trace-normalized bordered solve.

    Row 0 of the generator L is replaced by the trace functional and the
    system solved against e0, which is well posed exactly when the
    kernel is one-dimensional. Uniqueness is always tested: the
    second-smallest singular value sigma_{n-1} of L must clear
    DEGENERACY_TOL, otherwise NonUniqueSteadyStateError is raised.

    Below SPARSE_STEADY_MIN_DIM the dense generator gets a full SVD and a
    LAPACK solve. From it on the bordered matrix is factored once with a
    sparse LU, and sigma_{n-1} is the smallest singular value of the
    deflated M = L + c y x^H: y = vec(I)/sqrt(d) is the left null vector,
    x the normalized solution and c >= ||L||_2, so M has the singular
    values of L with 0 replaced by c. An exactly singular bordered
    matrix means a degenerate kernel and raises
    NonUniqueSteadyStateError too; a solve that misses opalg's residual
    bound, or a generator with a non-finite entry, raises
    SingularSystemError.
    """
    parts = [model.h_eff, [rate for _, rate in model.jumps]] + [op for op, _ in model.jumps]
    if not all(np.isfinite(a).all() for a in parts):
        raise SingularSystemError("the generator has non-finite entries")
    if model.dim < SPARSE_STEADY_MIN_DIM:
        x = _steady_vec_dense(model)
    else:
        x = _steady_vec_sparse(model)
    rho = opalg.hermitize(opalg.unvec(x))
    rho /= np.trace(rho).real
    return QuantumState(rho=rho, dims=model.dims).validate(trace_tol=1e-12, herm_tol=1e-12)


def _non_unique(sigma):
    return NonUniqueSteadyStateError(
        f"second-smallest singular value {sigma:.3e} below "
        f"{DEGENERACY_TOL:.0e}; the steady state is not unique"
    )


def _steady_vec_dense(model):
    lmat = liouvillian_matrix(model)
    d = model.dim
    try:
        s = np.linalg.svd(lmat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"SVD of the generator failed: {exc}") from exc
    if s[-2] < DEGENERACY_TOL:
        raise _non_unique(s[-2])
    a = lmat.copy()
    a[0, :] = opalg.vec(np.eye(d, dtype=complex)).conj()
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    return opalg.solve_linear(a, b)


def _steady_vec_sparse(model):
    from scipy import sparse
    from scipy.sparse.linalg import ArpackError, LinearOperator, splu, svds

    d = model.dim
    n = d * d
    rows, cols, vals = generator_triplets(model.h_eff, model.jumps)
    trace_cols = np.arange(d) * (d + 1)  # vec(I) is 1 exactly there
    # bordered matrix B = L with row 0 replaced by vec(I)^H
    keep = rows != 0
    bordered = sparse.csc_matrix((
        np.concatenate([vals[keep], np.ones(d)]),
        (np.concatenate([rows[keep], np.zeros(d, dtype=rows.dtype)]),
         np.concatenate([cols[keep], trace_cols])),
    ), shape=(n, n))
    try:
        lu = splu(bordered, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NonUniqueSteadyStateError(
            f"bordered generator is exactly singular ({exc}); "
            "the steady state is not unique"
        ) from exc
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    x = lu.solve(e0)
    opalg.check_residual(bordered, x, e0, a_norm=np.linalg.norm(bordered.data))

    # M = L + c y x^H = B + U V with U = [-e0, c y], V = [w; x^H] and
    # w = vec(I)^H - L[0, :], so M^-1 and M^-H follow from the LU of B
    # by Woodbury. Row and column sums of |vals| bound ||L||_inf and
    # ||L||_1, and c = sqrt(||L||_1 ||L||_inf) >= ||L||_2.
    xh = x / np.linalg.norm(x)
    c = math.sqrt(np.bincount(rows, np.abs(vals), n).max()
                  * np.bincount(cols, np.abs(vals), n).max())
    u = np.zeros((n, 2), dtype=complex)
    u[0, 0] = -1.0
    u[trace_cols, 1] = c / math.sqrt(d)
    w = np.zeros(n, dtype=complex)
    w[trace_cols] = 1.0
    np.subtract.at(w, cols[~keep], vals[~keep])
    v = np.stack([w, xh.conj()])
    z = lu.solve(u)
    zh = lu.solve(np.ascontiguousarray(v.conj().T), trans="H")
    cap = np.eye(2) + v @ z

    def m_inv(r):
        s = lu.solve(np.asarray(r, dtype=complex).ravel())
        return s - z @ np.linalg.solve(cap, v @ s)

    def m_inv_h(r):
        s = lu.solve(np.asarray(r, dtype=complex).ravel(), trans="H")
        return s - zh @ np.linalg.solve(cap.conj().T, u.conj().T @ s)

    op = LinearOperator((n, n), matvec=m_inv, rmatvec=m_inv_h, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed: reproducible
    try:
        top = svds(op, k=1, v0=v0, return_singular_vectors=False)[0]
    except ArpackError as exc:
        raise DimerNMError(f"uniqueness test did not converge: {exc}") from exc
    sigma = 1.0 / top
    if sigma < DEGENERACY_TOL:
        raise _non_unique(sigma)
    return x
