"""Dense operator algebra on tensor-product Hilbert spaces.

Conventions used everywhere in the package:

* operators are dense complex numpy arrays,
* a composite space is described by a tuple ``dims`` of subsystem
  dimensions, slot 0 leftmost, basis ordered row-major lexicographically
  (slot 0 is the slowest index),
* ``vec`` stacks columns (Fortran order), so a superoperator acting as
  ``A rho B`` has matrix ``kron(B.T, A)``.

Heavy factorizations delegate to LAPACK through numpy; the functions here
add the shape/Hermiticity validation and error reporting the rest of the
package relies on.
"""

import math

import numpy as np

from .errors import DimensionError, NonHermitianError, SingularSystemError

HERMITICITY_RTOL = 1e-12
SOLVE_RESIDUAL_RTOL = 1e-9


def _as_complex(a):
    return np.ascontiguousarray(np.asarray(a, dtype=complex))


def _check_square(a, name="operator", stacked=False):
    """Require one square matrix, or with ``stacked`` a stack (..., n, n)."""
    if not (a.ndim >= 2 if stacked else a.ndim == 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


def _check_dims(a, dims, name="operator"):
    d = int(np.prod(dims))
    if a.shape != (d, d):
        raise DimensionError(
            f"{name} shape {a.shape} does not match dims {tuple(dims)} (product {d})"
        )


def hermiticity_defect(a) -> float:
    """Largest entry of ``|A - A^dag|``; zero for exactly Hermitian input."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def _dagger(a):
    return np.swapaxes(a.conj(), -1, -2)


def hermitize(a):
    """Return the Hermitian part ``(A + A^dag) / 2`` of a matrix or of each
    matrix in a stack (..., n, n)."""
    a = _as_complex(a)
    _check_square(a, stacked=True)
    return (a + _dagger(a)) / 2.0


def _require_hermitian(a, name):
    """Reject the first matrix of a stack whose defect exceeds the tolerance."""
    if not a.size:
        return
    defect = np.abs(a - _dagger(a)).max(axis=(-2, -1)).ravel()
    scale = np.abs(a).max(axis=(-2, -1)).ravel()
    bad = defect > HERMITICITY_RTOL * np.maximum(scale, 1e-300)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonHermitianError(
            f"{name} requires Hermitian input: defect {defect[k]:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * max|A| = {HERMITICITY_RTOL * scale[k]:.3e}"
        )


def kron(a, b):
    """Kronecker product with slot 0 on the left."""
    return np.kron(_as_complex(a), _as_complex(b))


def embed(op, slot: int, dims):
    """Lift a single-subsystem operator to the full product space.

    Parameters
    ----------
    op : (d_slot, d_slot) array
    slot : which subsystem the operator acts on
    dims : subsystem dimensions, slot 0 leftmost
    """
    dims = tuple(int(d) for d in dims)
    op = _as_complex(op)
    _check_square(op, "embedded operator")
    if not 0 <= slot < len(dims):
        raise DimensionError(f"slot {slot} outside dims of length {len(dims)}")
    if op.shape[0] != dims[slot]:
        raise DimensionError(
            f"operator of dimension {op.shape[0]} cannot occupy slot {slot} "
            f"of dimension {dims[slot]}"
        )
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, op if i == slot else np.eye(d, dtype=complex))
    return out


def make_destroy(n_fock: int):
    """Truncated bosonic annihilation operator on an n_fock-level ladder."""
    if n_fock < 2:
        raise DimensionError(f"mode needs at least 2 levels, got {n_fock}")
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)


def partial_trace(rho, dims, keep):
    """Trace out every slot not listed in ``keep``.

    The result is ordered by the original slot order of the kept
    subsystems regardless of the order given in ``keep``.
    """
    dims = tuple(int(d) for d in dims)
    rho = _as_complex(rho)
    _check_dims(rho, dims, "state")
    keep = sorted(set(int(k) for k in keep))
    if keep and not (0 <= keep[0] and keep[-1] < len(dims)):
        raise DimensionError(f"keep={keep} outside dims of length {len(dims)}")
    n = len(dims)
    t = rho.reshape(dims + dims)
    ndim_left = n
    for slot in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=slot, axis2=slot + ndim_left)
        ndim_left -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_transpose(rho, dims, slot: int):
    """Transpose one tensor slot in place, leaving the others untouched."""
    dims = tuple(int(d) for d in dims)
    rho = _as_complex(rho)
    _check_dims(rho, dims, "state")
    n = len(dims)
    if not 0 <= slot < n:
        raise DimensionError(f"slot {slot} outside dims of length {n}")
    t = rho.reshape(dims + dims)
    t = np.swapaxes(t, slot, slot + n)
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(d, d))


def hermitian_eigen(a):
    """Eigenvalues of a Hermitian matrix, ascending.

    Input is validated against a relative Hermiticity tolerance and
    symmetrized before the solve, so eigenvalues are exactly real.
    """
    a = _as_complex(a)
    _check_square(a)
    _require_hermitian(a, "hermitian_eigen")
    return np.linalg.eigvalsh(hermitize(a))


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues. Restricted to Hermitian input.

    For the Hermitian matrices this package produces (density operators,
    partial transposes, Choi matrices) the trace norm is exactly the sum
    of |eigenvalue|; anything non-Hermitian is rejected rather than
    silently routed through a singular-value fallback.
    """
    a = _as_complex(a)
    _check_square(a)
    return float(trace_norms(a))


def trace_norms(a):
    """:func:`trace_norm` of each matrix in a stack (..., n, n).

    A LinAlgError of the eigensolver propagates.
    """
    a = _as_complex(a)
    _check_square(a, stacked=True)
    _require_hermitian(a, "trace_norm")
    return np.abs(np.linalg.eigvalsh(hermitize(a))).sum(axis=-1)


def solve_linear(a, b):
    """Solve ``A x = b`` with a residual check.

    b may be a vector or a matrix of stacked right-hand sides. Raises
    SingularSystemError carrying a condition estimate when the system is
    singular or the residual exceeds
    ``1e-9 * (||A|| ||x|| + ||b||)`` (Frobenius norms).
    """
    a = _as_complex(a)
    _check_square(a, "coefficient matrix")
    b = np.asarray(b, dtype=complex)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "linear system is singular", cond=_cond_estimate(a)
        ) from exc
    check_residual(a, x, b)
    return x


def solve_linear_stack(a, b):
    """Solve ``A_k X_k = B_k`` for stacks a (k, n, n) and b (k, n, m).

    Every system gets :func:`solve_linear`'s residual check, and the
    first one to fail, or an exactly singular one, raises
    SingularSystemError.
    """
    a = _as_complex(a)
    _check_square(a, "coefficient matrix", stacked=True)
    b = np.asarray(b, dtype=complex)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("a linear system in the stack is singular",
                                  cond=math.inf) from exc
    check_residual(a, x, b, axis=(-2, -1))
    return x


def check_residual(a, x, b, axis=None, a_norm=None):
    """Raise SingularSystemError unless ``A x = b`` meets the bound of
    :func:`solve_linear`, per system when ``axis`` is given.

    ``a`` may be a scipy sparse matrix when its Frobenius norm is passed
    as ``a_norm``; the error then carries no condition estimate.
    """
    resid = np.ravel(np.linalg.norm(a @ x - b, axis=axis))
    dense = a_norm is None
    if dense:
        a_norm = np.linalg.norm(a, axis=axis)
    bound = np.ravel(SOLVE_RESIDUAL_RTOL * (
        a_norm * np.linalg.norm(x, axis=axis) + np.linalg.norm(b, axis=axis)
    ))
    bad = ~np.isfinite(resid) | (resid > bound)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularSystemError(
            f"solve residual {resid[k]:.3e} exceeds bound {bound[k]:.3e}",
            cond=_cond_estimate(a if axis is None else a[k]) if dense else None,
        )


def condition_numbers(a):
    """Two-norm condition estimates of a matrix or a stack (..., n, n).

    inf where the smallest singular value is 0 or non-finite. A
    LinAlgError of the SVD propagates.
    """
    s = np.linalg.svd(_as_complex(a), compute_uv=False)
    smin = s[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[..., 0] / smin
    return np.where((smin == 0.0) | ~np.isfinite(smin), np.inf, cond)


def _cond_estimate(a) -> float:
    try:
        return float(condition_numbers(a))
    except np.linalg.LinAlgError:
        return math.inf


def condition_number(a) -> float:
    """Two-norm condition estimate (inf when exactly singular)."""
    return _cond_estimate(_as_complex(a))


def vec(rho):
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v):
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v, dtype=complex)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionError(f"vector of length {v.size} is not a square matrix")
    return v.reshape(d, d, order="F")
