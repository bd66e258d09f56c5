"""Reference implementations the tests check the package against.

Each is the slow, direct form of something the package computes another
way, and only tests call it:

* :func:`rhs` applies the master equation to one state; the package
  builds it once as a generator (:func:`dynamics.generator_triplets`).
* :func:`log_negativity_via_partial_transpose` embeds the sector state
  in the two-qubit space and takes the trace norm of its partial
  transpose; the package uses the closed form
  (:func:`entanglement.log_negativity`).
* :func:`defects_by_eigenvalues` is the state validity rule with the
  lowest eigenvalue of every state taken by ``eigvalsh``; the package
  screens the eigenvalue floor with one shifted Cholesky factorization
  per stack (:func:`dynamics._defects`).
* :func:`apply_map` acts with a tomographed sector map on one state.
* :func:`intermediate_map` and :func:`g_of_t` are the per-point D_NM
  path: one map inverted at a time, after an SVD of it, with the rate
  clipped at 0; the package runs the stacked, screened rates of
  :func:`nonmarkov.nm_measure`.

:func:`integrate_to` is no oracle but the one way the tests take a
single state at a chosen time from :func:`dynamics.integrate`.
"""

import math

import numpy as np

from dimer_nm import opalg
from dimer_nm.dynamics import integrate, steps_over, suggest_dt
from dimer_nm.entanglement import basis_change
from dimer_nm.errors import DimensionError, DimerNMError, SingularSystemError
from dimer_nm.model import SITE_BASIS
from dimer_nm.nonmarkov import COND_MAX, choi_matrix


def rhs(model, rho):
    """Master-equation right-hand side
    rho_dot = -i (h_eff rho - rho h_eff^dag) + sum rate L rho L^dag."""
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


def defects_by_eigenvalues(rho):
    """|tr rho - 1|, Hermiticity defect and lowest eigenvalue of a state or
    of each state in a stack (..., d, d). A state with a non-finite entry
    counts as the zero matrix with trace defect inf."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    rho = np.where(finite[..., None, None], rho, 0.0)
    trace = np.where(finite, np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0), np.inf)
    return trace, opalg.hermiticity_defect(rho), np.linalg.eigvalsh(opalg.hermitize(rho))[..., 0]


def partial_transpose(rho, dims, slot: int):
    """Transpose one tensor slot, leaving the others untouched."""
    dims = tuple(int(d) for d in dims)
    rho = np.asarray(rho, dtype=complex)
    d = int(np.prod(dims))
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match dims {dims}")
    n = len(dims)
    if not 0 <= slot < n:
        raise DimensionError(f"slot {slot} outside dims of length {n}")
    t = np.swapaxes(rho.reshape(dims + dims), slot, slot + n)
    return np.ascontiguousarray(t.reshape(d, d))


def embed_two_qubit(state):
    """Lift the sector state to the full 4-dimensional two-site space.

    Sector entries [|01>, |10>] land on indices 1 and 2 of the
    lexicographic two-qubit basis; the 0- and 2-excitation populations
    are zero by construction.
    """
    out = np.zeros((4, 4), dtype=complex)
    out[1:3, 1:3] = basis_change(state, SITE_BASIS).rho
    return out


def log_negativity_via_partial_transpose(state) -> float:
    """Embed, partially transpose site 1, take the trace norm. Makes no
    structural assumption; must agree with the closed form to near
    machine precision."""
    pt = partial_transpose(embed_two_qubit(state), (2, 2), slot=0)
    return math.log2(opalg.trace_norm(pt))


def apply_map(superop, rho):
    """Act with a vectorized map on a sector density matrix."""
    return opalg.unvec(np.asarray(superop) @ opalg.vec(rho))


class SingularMapError(SingularSystemError):
    """Dynamical map is not invertible at the reported time."""

    def __init__(self, t, cond=None):
        super().__init__(f"dynamical map singular at t={t:.6g}", cond=cond)
        self.t = t


def grid_index(family, t: float) -> int:
    """Index of time t on the family's grid; DimerNMError when off it."""
    n = round(t / family.eps)
    if not (0 <= n < len(family)) or abs(t - n * family.eps) > 1e-9 * max(1.0, abs(t)):
        raise DimerNMError(f"t={t} is not on the tomography grid (eps={family.eps})")
    return n


def intermediate_map(family, t: float, eps=None):
    """E(t + eps, t) by inverting the map up to t. eps defaults to the grid
    step. SingularMapError when cond of that map exceeds COND_MAX."""
    if eps is None:
        eps = family.eps
    steps = round(eps / family.eps)
    if steps < 1 or abs(eps - steps * family.eps) > 1e-9 * eps:
        raise DimerNMError(f"eps={eps} is not a multiple of the grid step {family.eps}")
    n = grid_index(family, t)
    if n + steps >= len(family):
        raise DimerNMError(f"t + eps = {t + eps} falls past the tomography horizon")
    a = family.maps[n]
    cond = opalg.condition_number(a)
    if cond > COND_MAX:
        raise SingularMapError(float(family.times[n]), cond=cond)
    # E A = B  =>  A^T E^T = B^T
    return opalg.solve_linear(a.T, family.maps[n + steps].T).T


def g_of_t(family, t: float, eps=None) -> float:
    """CP-violation rate of the intermediate map starting at t."""
    if eps is None:
        eps = family.eps
    e = intermediate_map(family, t, eps)
    return max(0.0, (opalg.trace_norm(choi_matrix(e)) - 1.0) / eps)


def integrate_to(model, rho0, t: float, dt=None, observables=()):
    """integrate from rho0 on the grid [0, t/2, t], so the last state is
    the one at t, in the fewest equal steps none longer than dt
    (:func:`dynamics.suggest_dt` of the model when None)."""
    n = steps_over(t / 2, suggest_dt(model) if dt is None else dt)
    return integrate(model, rho0, t, dt=t / 2 / n, store_every=n, observables=observables)
