"""Divisibility-based memory measure of the reduced sector dynamics.

Pipeline: tomograph the family of dynamical maps Lambda(t, 0) of the
dimer sector on a uniform grid, form the intermediate maps

    E(t + eps, t) = Lambda(t + eps, 0) Lambda(t, 0)^{-1},

test each for complete positivity through its Choi matrix, and integrate
the CP-violation rate

    g(t) = max(0, (||Choi(E)||_1 - 1) / eps)

into I = integral g dt and the normalized measure D = I / (1 + I).
Memoryless dynamics gives g identically zero.

Map inversion degrades as Lambda becomes singular (strong damping kills
coherences); times where the condition number exceeds COND_MAX are
skipped and recorded, g is interpolated across interior gaps, and the
integral is truncated at the last invertible time.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import opalg
from .dynamics import liouvillian_matrix, rk4_transfer_matrix, suggest_dt
from .errors import DimerNMError, NumericalDriftError, SingularMapError
from .model import LindbladModel, environment_state

COND_MAX = 1e10
TRACE_PRESERVATION_TOL = 1e-6
# nm_measure warns when the effective horizon falls short of this many
# relaxation times 1 / gamma_eff
HORIZON_WARN_FACTOR = 5.0
_CHUNK = 1024  # grid points per stacked LAPACK call; bounds the working set

# vec index of the sector basis matrix E_ij = |i><j| (column stacking)
_TRACE_VEC = np.array([1.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class DynamicalMapFamily:
    """Sector maps Lambda(t, 0) on a uniform time grid starting at 0."""

    times: np.ndarray
    maps: np.ndarray  # (n_times, 4, 4)
    eps: float
    basis: str

    def __len__(self):
        return self.times.shape[0]

    def index_of(self, t: float) -> int:
        n = round(t / self.eps)
        if not (0 <= n < len(self)) or abs(t - n * self.eps) > 1e-9 * max(1.0, abs(t)):
            raise DimerNMError(f"t={t} is not on the tomography grid (eps={self.eps})")
        return n


def uniform_grid(horizon: float, eps: float) -> np.ndarray:
    """Grid [0, eps, ..., n eps] covering the horizon."""
    if eps <= 0 or horizon <= 0:
        raise DimerNMError("horizon and eps must be positive")
    n = max(2, math.ceil(horizon / eps - 1e-9))
    return eps * np.arange(n + 1, dtype=float)


def map_tomography(model: LindbladModel, t_grid, dt=None) -> DynamicalMapFamily:
    """Reconstruct Lambda(t, 0) by evolving the four sector basis matrices.

    Each basis matrix is tensored with the model's environment state
    (vacuum, or the thermal diagonal for n_th > 0) and the four
    vectorized initial conditions are propagated together as the columns
    of one matrix, so the whole tomography is a single batched
    propagation. Aborts if any map fails trace preservation beyond 1e-6.
    """
    if model.dims[0] != 2:
        raise DimerNMError("tomography expects the 2-dimensional sector at slot 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2 or t_grid[0] != 0.0:
        raise DimerNMError("t_grid must start at 0 and carry at least two points")
    spac = np.diff(t_grid)
    eps = float(spac[0])
    if eps <= 0 or not np.allclose(spac, eps, rtol=1e-9, atol=0.0):
        raise DimerNMError("t_grid must be uniform")

    env_state = environment_state(model)
    denv = env_state.shape[0]
    d = 2 * denv

    # stacked initial conditions: column i + 2j holds vec(E_ij kron env)
    v = np.zeros((d * d, 4), dtype=complex)
    for j in range(2):
        for i in range(2):
            e_ij = np.zeros((2, 2), dtype=complex)
            e_ij[i, j] = 1.0
            v[:, i + 2 * j] = opalg.vec(opalg.kron(e_ij, env_state))

    # reduction matrix: vec(full) -> vec(partial trace over the modes)
    red = np.zeros((4, d * d))
    for j in range(2):
        for i in range(2):
            for k in range(denv):
                red[i + 2 * j, (j * denv + k) * d + (i * denv + k)] = 1.0

    if dt is None or dt <= 0:
        dt = suggest_dt(model)
    steps_per = max(1, math.ceil(eps / dt - 1e-9))
    sub_dt = eps / steps_per
    prop = np.linalg.matrix_power(
        rk4_transfer_matrix(liouvillian_matrix(model), sub_dt), steps_per
    )

    n_times = t_grid.shape[0]
    maps = np.empty((n_times, 4, 4), dtype=complex)
    maps[0] = red @ v
    for n in range(1, n_times):
        v = prop @ v
        maps[n] = red @ v

    worst = float(np.abs(_TRACE_VEC @ maps - _TRACE_VEC).max())
    # a diverged propagation can overflow to nan, which compares False
    if not math.isfinite(worst) or worst > TRACE_PRESERVATION_TOL:
        raise NumericalDriftError(
            f"tomography violates trace preservation by {worst:.3e}; "
            f"reduce dt (currently {sub_dt:.3e})"
        )
    return DynamicalMapFamily(times=t_grid, maps=maps, eps=eps, basis=model.basis)


def _intermediate(family: DynamicalMapFamily, n: int, steps: int):
    a = family.maps[n]
    b = family.maps[n + steps]
    cond = opalg.condition_number(a)
    if cond > COND_MAX:
        raise SingularMapError(float(family.times[n]), cond=cond)
    # E A = B  =>  A^T E^T = B^T
    return opalg.solve_linear(a.T, b.T).T


def intermediate_map(family: DynamicalMapFamily, t: float, eps=None):
    """E(t + eps, t) by inverting the map up to t. eps defaults to the grid step."""
    if eps is None:
        eps = family.eps
    steps = round(eps / family.eps)
    if steps < 1 or abs(eps - steps * family.eps) > 1e-9 * eps:
        raise DimerNMError(f"eps={eps} is not a multiple of the grid step {family.eps}")
    n = family.index_of(t)
    if n + steps >= len(family):
        raise DimerNMError(f"t + eps = {t + eps} falls past the tomography horizon")
    return _intermediate(family, n, steps)


def apply_map(superop, rho):
    """Act with a vectorized map on a sector density matrix."""
    return opalg.unvec(np.asarray(superop) @ opalg.vec(rho))


def choi_matrix(superop):
    """Choi state of a sector map, or of each map in a stack (..., 4, 4).

    Column-stacking vec convention. Index gymnastics: the map element
    <r| E(|r'><c'|) |c> sits at [r + 2c, r' + 2c'], and the Choi entry
    C[(r,i),(r',j)] needs <r|E(|i><j|)|r'> / 2. Hermitized before
    return; trace 1 for a trace-preserving map.
    """
    e = np.asarray(superop, dtype=complex)
    if e.shape[-2:] != (4, 4):
        raise DimerNMError(f"sector map must be 4x4, got {e.shape}")
    lead = e.shape[:-2]
    k = len(lead)
    c = e.reshape(lead + (2, 2, 2, 2)).transpose(
        tuple(range(k)) + (k + 1, k + 3, k, k + 2))
    return opalg.hermitize((c / 2.0).reshape(lead + (4, 4)))


def g_of_t(family: DynamicalMapFamily, t: float, eps=None) -> float:
    """CP-violation rate of the intermediate map starting at t."""
    if eps is None:
        eps = family.eps
    e = intermediate_map(family, t, eps)
    return max(0.0, (opalg.trace_norm(choi_matrix(e)) - 1.0) / eps)


@dataclass(frozen=True)
class NMResult:
    """Integrated memory measure and the series behind it.

    times/g: the interpolated g series on intermediate-map midpoints up
    to the last invertible time. horizon is that effective limit;
    horizon_warning flags an effective horizon shorter than
    HORIZON_WARN_FACTOR relaxation times 1 / gamma_eff.
    """

    times: np.ndarray
    g: np.ndarray
    integral: float
    d_nm: float
    eps: float
    horizon: float
    requested_horizon: float
    skipped_times: tuple
    horizon_warning: bool


def _rates(family, lo, hi):
    """(g before the clip at 0, invertible mask) for grid points lo..hi-1.

    A map with a non-finite entry counts as singular, as its condition
    estimate is inf on the per-point path.
    """
    a = family.maps[lo:hi]
    finite = np.isfinite(a).all(axis=(-2, -1))
    cond = np.full(hi - lo, np.inf)
    cond[finite] = opalg.condition_numbers(a[finite])
    ok = ~(cond > COND_MAX)
    g = np.zeros(hi - lo)
    if ok.any():
        # E A = B  =>  A^T E^T = B^T
        et = opalg.solve_linear_stack(
            a[ok].transpose(0, 2, 1), family.maps[lo + 1:hi + 1][ok].transpose(0, 2, 1))
        choi = choi_matrix(et.transpose(0, 2, 1))
        g[ok] = (opalg.trace_norms(choi) - 1.0) / family.eps
    return g, ok


def nm_measure(family: DynamicalMapFamily, gamma_eff=None) -> NMResult:
    """Integrate g over the family's grid into I and D = I / (1 + I).

    The grid is taken in chunks of _CHUNK points, each as stacked LAPACK
    calls.
    """
    ts = family.times
    eps = family.eps
    n_points = len(family) - 1
    g = np.empty(n_points)
    ok = np.empty(n_points, dtype=bool)
    for lo in range(0, n_points, _CHUNK):
        hi = min(lo + _CHUNK, n_points)
        g[lo:hi], ok[lo:hi] = _rates(family, lo, hi)
    if not ok.any():
        raise DimerNMError("no invertible intermediate map anywhere on the grid")

    starts = ts[:-1]
    tv = starts[ok] + eps / 2.0
    gv = np.where(g > 0.0, g, 0.0)[ok]  # max(0, g), as g_of_t clips
    mids = starts + eps / 2.0
    grid = mids[mids <= tv[-1] + 1e-12]
    series = np.interp(grid, tv, gv)
    integral = float(np.trapezoid(series, grid))
    d_nm = integral / (1.0 + integral)
    horizon = float(grid[-1] + eps / 2.0)
    warning = bool(gamma_eff) and horizon < HORIZON_WARN_FACTOR / float(gamma_eff or 1.0)
    return NMResult(
        times=grid, g=series, integral=integral, d_nm=d_nm, eps=eps,
        horizon=horizon, requested_horizon=float(ts[-1]),
        skipped_times=tuple(float(t) for t in starts[~ok]), horizon_warning=warning,
    )


def nm_for_model(model: LindbladModel, eps: float, horizon: float,
                 dt=None, gamma_eff=None) -> NMResult:
    """Tomography plus measure over [0, horizon] in one call."""
    fam = map_tomography(model, uniform_grid(horizon, eps), dt=dt)
    return nm_measure(fam, gamma_eff=gamma_eff)
