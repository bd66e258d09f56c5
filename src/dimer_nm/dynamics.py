"""Time evolution and steady states of Lindblad models.

The master-equation generator is built in one place,
:func:`generator_triplets`, as sparse COO triplets of the vectorized
superoperator. :func:`liouvillian_matrix` densifies them for small
models; the sparse consumers wrap them in scipy CSR/CSC matrices.

Two interchangeable fixed-step RK4 engines:

* ``direct``      steps vec(rho) with CSR matvecs on the generator
                  (:func:`rk4_steps`), about 11 nonzeros per row, so it
                  has no dimension cap.
* ``aggregated``  builds the one-step RK4 transfer matrix of the dense
                  generator and raises it to the store stride, so a
                  whole store interval is one matvec. This is still
                  exactly fixed-step RK4 (the transfer matrix is the RK4
                  stability polynomial of the generator, not a matrix
                  exponential), just amortized.

Both produce identical trajectories to rounding; tests pin the
equivalence at 1e-10.

Each numerical decision of a trajectory is made here once: the step size
(:func:`suggest_dt`), the state validity rule (:func:`_defects`) and the
observables, which :func:`integrate` takes over the stored stack at once.

scipy is imported lazily, only by the direct engine and by the sparse
steady-state solve, so ``import dimer_nm`` and small dense runs do not
pay for it.
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
_CHECK_BLOCK = 512  # stored states per validity check; bounds its temporaries
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

    def validate(self, trace_tol=1e-9, herm_tol=1e-10, eig_floor=-1e-8):
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


def rhs(model: LindbladModel, rho):
    """Master-equation right-hand side (reference formula).

    rho_dot = -i (h_eff rho - rho h_eff^dag) + sum rate L rho L^dag.
    :func:`generator_triplets` encodes exactly this map, and both engines
    step it; tests pin the two against each other.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimensionError(
            f"state shape {rho.shape} does not match model dims {model.dims}"
        )
    h = model.h_eff
    out = -1j * (h @ rho - rho @ h.conj().T)
    for op, rate in model.jumps:
        out += rate * (op @ rho @ op.conj().T)
    return out


def generator_triplets(h_eff, jumps):
    """COO triplets ``(rows, cols, vals)`` of the vectorized generator.

    Column stacking maps A rho B to kron(B.T, A) vec(rho), so :func:`rhs`
    becomes -i kron(I, h) + i kron(h*, I) + sum rate kron(L*, L). Each
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


def rk4_steps(gen, v, dt: float, n_steps: int):
    """Advance v by n_steps of fixed-step RK4 under v' = gen v.

    gen is any matrix with ``@`` (scipy sparse or dense). Each step is the
    transfer polynomial of :func:`rk4_transfer_matrix` in Horner form,
    four matvecs. Returns a new array; v is not modified.
    """
    stages = [(dt / k) * gen for k in (4.0, 3.0, 2.0, 1.0)]
    v = np.array(v, dtype=complex)
    for _ in range(int(n_steps)):
        w = v
        for stage in stages:
            w = stage @ w
            w += v
        v = w
    return v


def suggest_dt(model: LindbladModel, base: float = BASE_DT) -> float:
    """Step size heuristic tied to the fastest damping channel.

    The base step (BASE_DT unless the caller sets one), shrunk once the
    largest jump rate exceeds the reference linewidth scale (rate 40 in
    dimer units); stiff overdamped modes then get proportionally finer steps.
    """
    max_rate = max((rate for _, rate in model.jumps), default=0.0)
    return base / max(1.0, max_rate / 40.0)


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
    """Fixed-step RK4 evolution from rho0 over [0, t_end].

    dt defaults to :func:`suggest_dt`. States are stored every
    ``store_every`` steps (plus the final step) and checked by
    :func:`_defects`, _CHECK_BLOCK at a time. A trace drift beyond 1e-6,
    or a non-finite state, raises NumericalDriftError naming the first
    such time and the step size to shrink.

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
    if dt is None or dt <= 0:
        dt = suggest_dt(model)
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    dt_eff = t_end / n_steps
    store_every = max(1, int(store_every))

    marks = list(range(0, n_steps + 1, store_every))
    if marks[-1] != n_steps:
        marks.append(n_steps)

    if method == "auto":
        method = "aggregated" if (d <= MAX_SUPEROP_DIM and n_steps >= 100) else "direct"
    if method not in ("aggregated", "direct"):
        raise DimerNMError(f"unknown integration method {method!r}")

    if method == "aggregated":
        p = rk4_transfer_matrix(liouvillian_matrix(model), dt_eff)
        g = np.linalg.matrix_power(p, store_every)

        def advance(v, stride):
            return (g if stride == store_every else np.linalg.matrix_power(p, stride)) @ v
    else:
        gen = sparse_generator(model.h_eff, model.jumps)

        def advance(v, stride):
            return rk4_steps(gen, v, dt_eff, stride)

    states = [rho0.copy()]
    v = opalg.vec(rho0)
    for prev, mark in zip(marks, marks[1:]):
        v = advance(v, mark - prev)
        states.append(opalg.unvec(v))

    times = dt_eff * np.asarray(marks, dtype=float)
    states = np.stack(states)

    trace, herm, low = np.concatenate([
        _defects(states[lo:lo + _CHECK_BLOCK])
        for lo in range(0, states.shape[0], _CHECK_BLOCK)], axis=1)
    drifted = np.flatnonzero(trace > TRACE_ABORT_TOL)
    if drifted.size:
        k = drifted[0]
        raise NumericalDriftError(
            f"trace drifted by {trace[k]:.3e} at t={times[k]:.6g} "
            f"(dt={dt_eff:.3e}); reduce the step size"
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
