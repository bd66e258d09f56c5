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
package relies on. The norms, Hermiticity checks and condition estimates
take one matrix or a stack (..., n, n); :func:`solve_linear` takes one
system. There is no general partial trace here:
:func:`dimer_nm.entanglement.reduce_to_dimer` traces out the modes
itself. :func:`one_blas_thread` runs the paths that gain nothing from
more BLAS threads on one.
"""

import math
import os
import sys
import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NonHermitianError, SingularSystemError

HERMITICITY_RTOL = 1e-12
SOLVE_RESIDUAL_RTOL = 1e-9

# one_blas_thread's state, under _blas_lock: the OpenBLAS handles of the
# last scan and len(sys.modules) at it, a handle (or None) per library
# path ever seen, and the counts to restore while any block holds
_blas_lock = threading.Lock()
_blas_scan = (-1, ())
_blas_handles = {}
_blas_held = {}
_blas_holders = 0


def _as_complex(a):
    return np.ascontiguousarray(np.asarray(a, dtype=complex))


def _check_square(a, name="operator", stacked=False):
    """Require one square matrix, or with ``stacked`` a stack (..., n, n)."""
    if not (a.ndim >= 2 if stacked else a.ndim == 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


def hermiticity_defect(a):
    """Largest entry of ``|A - A^dag|`` of a matrix, or of each matrix in
    a stack (..., n, n); zero for exactly Hermitian input."""
    a = np.asarray(a)
    return np.abs(a - _dagger(a)).max(axis=(-2, -1), initial=0.0)


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
    defect = np.ravel(hermiticity_defect(a))
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


def trace_norm(a):
    """Sum of absolute eigenvalues of a Hermitian matrix (a float), or of
    each matrix in a stack (..., n, n) (an array).

    For the Hermitian matrices this package produces (density operators,
    partial transposes, Choi matrices) the trace norm is exactly the sum
    of |eigenvalue|; anything non-Hermitian is rejected rather than
    silently routed through a singular-value fallback. A LinAlgError of
    the eigensolver propagates.
    """
    a = _as_complex(a)
    _check_square(a, stacked=True)
    _require_hermitian(a, "trace_norm")
    norms = np.abs(np.linalg.eigvalsh(hermitize(a))).sum(axis=-1)
    return float(norms) if a.ndim == 2 else norms


def solve_linear(a, b):
    """Solve ``A x = b`` for one system (n, n), with a residual check.

    b is (n,) or (n, m). Raises SingularSystemError when the system is
    singular or its residual exceeds ``1e-9 * (||A|| ||x|| + ||b||)``
    (Frobenius norms); the error carries the condition estimate.
    """
    a = _as_complex(a)
    _check_square(a, "coefficient matrix")
    b = np.asarray(b, dtype=complex)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("linear system is singular", cond=condition_number(a)) from exc
    check_residual(a, x, b)
    return x


def check_residual(a, x, b, axis=None, a_norm=None):
    """Raise SingularSystemError unless ``A x = b`` meets the bound of
    :func:`solve_linear`, per system of a stack when ``axis`` is given.

    ``a`` may be a scipy sparse matrix of one system when its Frobenius
    norm is passed as ``a_norm``; the error then carries no condition
    estimate, and the norms are taken by :func:`frobenius`, so that a
    matrix of huge entries overflows neither the residual nor its bound.
    """
    dense = a_norm is None
    if dense:
        def norm(v):
            return np.linalg.norm(v, axis=axis)
        a_norm = norm(a)
    else:
        norm = frobenius
    resid = np.asarray(norm(a @ x - b))
    bound = np.asarray(SOLVE_RESIDUAL_RTOL * (a_norm * norm(x) + norm(b)))
    bad = ~np.isfinite(resid) | (resid > bound)
    if bad.any():
        k = int(np.argmax(bad))
        cond = float(np.broadcast_to(condition_number(a), bad.shape).flat[k]) if dense else None
        raise SingularSystemError(
            f"solve residual {resid.flat[k]:.3e} exceeds bound {bound.flat[k]:.3e}", cond=cond)


def frobenius(a):
    """||a||_F over the entries of a (a float), each scaled by the largest
    first, so that no square overflows; the largest |entry| where that is
    not finite, and 0 for no entries. As a float, a product of such norms
    that overflows is inf without a warning."""
    peak = float(np.abs(a).max(initial=0.0))
    if not 0.0 < peak < math.inf:  # zero, inf or nan
        return peak
    return peak * float(np.linalg.norm(a / peak))


def condition_number(a):
    """Two-norm condition estimate of a matrix (a float), or of each
    matrix in a stack (..., n, n) (an array).

    inf where the smallest singular value is 0 or non-finite, or where
    the SVD does not converge.
    """
    a = _as_complex(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return math.inf
        # one matrix stopped the stack: take each on its own
        return np.reshape([condition_number(m) for m in a.reshape((-1,) + a.shape[-2:])],
                          a.shape[:-2])
    smin = s[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[..., 0] / smin
    cond = np.where((smin == 0.0) | ~np.isfinite(smin), np.inf, cond)
    return float(cond) if a.ndim == 2 else cond


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


def _openblas_libs():
    """ctypes handles of the loaded OpenBLAS libraries that export
    ``openblas_set_num_threads_local``; none where /proc/self/maps is
    missing. A library loads only with an import, so the scan is redone
    only after sys.modules changes size. Call under _blas_lock.
    """
    global _blas_scan
    key = len(sys.modules)
    if _blas_scan[0] != key:
        import ctypes

        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                paths = sorted({p for p in (line.split()[-1] for line in fh)
                                if "openblas" in os.path.basename(p).lower()})
        except OSError:
            paths = []
        for path in paths:
            if path not in _blas_handles:
                try:
                    lib = ctypes.CDLL(path)
                    setter = lib.openblas_set_num_threads_local
                except (OSError, AttributeError):
                    lib = None
                else:
                    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
                _blas_handles[path] = lib
        _blas_scan = key, tuple(_blas_handles[p] for p in paths if _blas_handles[p])
    return _blas_scan[1]


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, and restore
    each library's previous count on the way out, also when it raises.

    For the sparse LU and ARPACK of a steady state, the sparse
    propagator and the small dense products of model builds and state
    checks, more BLAS threads cost more CPU than they save wall time.
    ``openblas_set_num_threads_local`` sets the process-wide count in
    the OpenBLAS builds numpy and scipy ship, so other threads' BLAS
    calls run on one thread too while a block runs. Blocks may nest and
    overlap across threads: the first sets the counts, the last restores
    them. A library that loads inside a block is missed, so callers
    import scipy before they enter. Without OpenBLAS this does nothing.
    """
    global _blas_holders
    with _blas_lock:
        for lib in _openblas_libs():
            if lib not in _blas_held:
                _blas_held[lib] = lib.openblas_set_num_threads_local(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if not _blas_holders:
                for lib, count in _blas_held.items():
                    lib.openblas_set_num_threads_local(count)
                _blas_held.clear()
