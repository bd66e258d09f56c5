"""Divisibility-based memory measure of the reduced sector dynamics.

Pipeline: tomograph the family of dynamical maps Lambda(t, 0) of the
dimer sector on the uniform grid :func:`uniform_grid` (horizon, eps),
form the intermediate maps

    E(t + eps, t) = Lambda(t + eps, 0) Lambda(t, 0)^{-1},

test each for complete positivity through its Choi matrix, and integrate
the CP-violation rate

    g(t) = max(0, (||Choi(E)||_1 - 1) / eps)

into I = integral g dt and the normalized measure D = I / (1 + I).
Memoryless dynamics gives g identically zero.

Map inversion degrades as Lambda becomes singular (strong damping kills
coherences); times where the condition number exceeds COND_MAX are
skipped and recorded, g is interpolated across interior gaps, and the
integral is truncated at the last invertible time. The batched rates
place each map on its side of COND_MAX with the Frobenius estimate
est = ||A||_F ||A^-1||_F, from one stacked inverse; for a 4 x 4 map
cond <= est <= 4 cond. Only the maps it leaves undecided, about 2.4 %
of a fig2 run, take the SVD (:func:`opalg.condition_number`), so the
mask is the one an SVD of every map gives. A per-point path that takes
the SVD at every map, inverts one map at a time and clips each rate at
0 lives in the test suite (``tests/oracles.py``) and serves as an
independent check.

The tomography is a trajectory like any other: :mod:`dimer_nm.dynamics`
picks its step size and step count and decides its trace-drift abort
(:func:`dynamics.suggest_dt`, :func:`dynamics.steps_over`,
:func:`dynamics.check_drift`), and steps it (:func:`dynamics.propagate`)
on either engine and at any dimension. No function here takes a step.

D_NM is computed one way per shape, both on the grid
:func:`uniform_grid` (horizon, eps). One model goes through
``nm_measure(map_tomography(model, eps, horizon))``, which holds the
model's whole map family, so it can be inspected. A stack of models of
one dims, an f grid say, goes through :func:`nm_sweep`: one stacked
propagation, whose blocks of maps go, per model, through the drift
check and the rates before the next block is stepped, so no model's
whole map family is held. Every model gets exactly the numbers it gets
alone. A model that fails drops out of the rates and the measure, not
out of the stack.

The measure knows no physical rate: NMResult reports the effective
horizon, and whether it is short against 1 / gamma_eff is decided by
the harness, which notes it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import opalg
from .dynamics import check_drift, propagate, steps_over, suggest_dt
from .errors import DimerNMError
from .model import LindbladModel, environment_state

COND_MAX = 1e10
# most points a grid of uniform_grid may hold, 50 times fig2's 20 000 per
# f; map_tomography holds a 256-byte map per point, 256 MB at the cap
MAX_GRID_POINTS = 1_000_000
# Relative slack of the Frobenius screen's two cut-offs (_invertible).
# The screen's estimate and the SVD's condition number each carry about
# 1e-5 relative rounding at cond <= 4 COND_MAX (machine epsilon times
# cond); the slack stays a hundredfold above it, so a map the screen
# places on one side of COND_MAX is on the same side for the SVD.
_SCREEN_SLACK = 1e-3

# vec index of the sector basis matrix E_ij = |i><j| (column stacking)
_TRACE_VEC = np.array([1.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class DynamicalMapFamily:
    """Sector maps Lambda(t, 0) on a uniform time grid starting at 0."""

    times: np.ndarray
    maps: np.ndarray  # (n_times, 4, 4)
    eps: float

    def __len__(self):
        return self.times.shape[0]


def grid_steps(horizon: float, eps: float) -> int:
    """The n of :func:`uniform_grid` (horizon, eps), or DimerNMError
    unless both are positive and finite and the grid holds at most
    MAX_GRID_POINTS points."""
    if not (0 < eps < math.inf and 0 < horizon < math.inf):  # nan fails too
        raise DimerNMError("horizon and eps must be positive and finite")
    # n <= ceil(horizon / eps), and an overflowing quotient is inf
    if not horizon / eps <= MAX_GRID_POINTS - 1:
        raise DimerNMError(
            f"horizon / eps = {horizon / eps:.3g} would take more than "
            f"{MAX_GRID_POINTS} grid points")
    return max(2, steps_over(horizon, eps))


def uniform_grid(horizon: float, eps: float) -> np.ndarray:
    """Grid [0, eps, ..., n eps] covering the horizon, 2 <= n <
    MAX_GRID_POINTS (:func:`grid_steps`)."""
    return eps * np.arange(grid_steps(horizon, eps) + 1, dtype=float)


def map_tomography(model: LindbladModel, eps: float, horizon: float) -> DynamicalMapFamily:
    """Reconstruct Lambda(t, 0) on :func:`uniform_grid` (horizon, eps) by
    evolving the four sector basis matrices.

    Each basis matrix is tensored with the model's environment state
    (vacuum, or the thermal diagonal for n_th > 0) and the four
    vectorized initial conditions are propagated together as the columns
    of one matrix through :func:`dynamics.propagate`, so the whole
    tomography is a single batched propagation on either engine, with no
    dimension cap. Each eps takes :func:`dynamics.steps_over` steps of at
    most :func:`dynamics.suggest_dt` of the model. Aborts through
    :func:`dynamics.check_drift` at the first map that fails trace
    preservation.
    """
    t_grid = uniform_grid(horizon, eps)
    maps = np.empty((t_grid.shape[0], 4, 4), dtype=complex)
    (sub_dt,), blocks = _tomography([model], t_grid, eps)
    for lo, block in blocks:
        _check_maps(block[0], t_grid[lo:], sub_dt)
        maps[lo:lo + block.shape[1]] = block[0]
    return DynamicalMapFamily(times=t_grid, maps=maps, eps=float(eps))


def _tomography(models, t_grid, eps):
    """(sub-steps, blocks): the sector maps of each model on t_grid, one stack.

    blocks is :func:`dynamics.propagate`'s, with block[i, k] the map
    Lambda(t_grid[lo + k], 0) of model i, not yet drift-checked. Each
    model takes steps_over(eps, suggest_dt(model)) steps per eps.
    """
    if any(m.dims[0] != 2 for m in models):
        raise DimerNMError("tomography expects the 2-dimensional sector at slot 0")

    def lifted(env):
        # entry i + 2j is vec(E_ij kron env), E_ij = |i><j| being the
        # unvec of unit vector i + 2j
        return np.stack([opalg.vec(opalg.kron(opalg.unvec(e), env)) for e in np.eye(4)])

    # initial conditions per model in the columns; the reduction
    # vec(full) -> vec(partial trace over the modes) takes row i + 2j
    # from E_ij kron I_env
    v = [lifted(environment_state(model)).T for model in models]
    red = lifted(np.eye(int(np.prod(models[0].dims[1:]))))
    steps = [steps_over(eps, suggest_dt(model)) for model in models]
    sub_dts = [eps / s for s in steps]
    return sub_dts, propagate(models, v, sub_dts, steps, t_grid.shape[0], keep=red)


def _check_maps(maps, times, sub_dt):
    """check_drift on the trace preservation of a run of sector maps."""
    check_drift(np.abs(_TRACE_VEC @ maps - _TRACE_VEC).max(axis=-1), times, sub_dt)


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


@dataclass(frozen=True)
class NMResult:
    """Integrated memory measure and the series behind it.

    times/g: the interpolated g series on intermediate-map midpoints up
    to the last invertible time. horizon is that effective limit, and
    requested_horizon the end of the tomography grid; whether the
    effective one is long enough is the caller's to judge. skipped_times
    holds the start times of the intermediate maps skipped as not
    invertible, a float64 array.
    """

    times: np.ndarray
    g: np.ndarray
    integral: float
    d_nm: float
    eps: float
    horizon: float
    requested_horizon: float
    skipped_times: np.ndarray


def _invertible(a):
    """Mask of the maps in a stack (k, 4, 4) with cond(A) <= COND_MAX.

    Equal to ~(opalg.condition_number(a) > COND_MAX), with a map that
    has a non-finite entry counting as singular, as its condition
    estimate is inf. For a 4 x 4 map the Frobenius estimate
    est = ||A||_F ||A^-1||_F brackets the two-norm condition number,
    cond <= est <= 4 cond, so one stacked inverse decides every
    map with est <= COND_MAX (1 - _SCREEN_SLACK), invertible, or
    est > 4 COND_MAX (1 + _SCREEN_SLACK), singular. The SVD decides the
    rest: the maps in between, those whose est overflows or is nan, and
    the whole stack when the inverse finds an exactly singular map.
    """
    ok = np.zeros(a.shape[0], dtype=bool)
    idx = np.flatnonzero(np.isfinite(a).all(axis=(-2, -1)))
    b = a[idx]
    try:
        inv = np.linalg.inv(b)
    except np.linalg.LinAlgError:  # an exactly singular map: the SVD takes them all
        pass
    else:
        with np.errstate(over="ignore"):
            na = (b.real ** 2 + b.imag ** 2).sum(axis=(-2, -1))
            ni = (inv.real ** 2 + inv.imag ** 2).sum(axis=(-2, -1))
            est2 = na * ni
        low = est2 <= (COND_MAX * (1.0 - _SCREEN_SLACK)) ** 2
        # est >= 2, so a squared norm that underflows far enough to lose
        # accuracy makes the other overflow: only a finite est2 is accurate
        high = np.isfinite(est2) & (est2 > (4.0 * COND_MAX * (1.0 + _SCREEN_SLACK)) ** 2)
        ok[idx[low]] = True
        idx = idx[~(low | high)]
    if idx.size:
        ok[idx] = ~(opalg.condition_number(a[idx]) > COND_MAX)
    return ok


def _rates(maps, eps):
    """(g before the clip at 0, invertible mask) of the intermediate maps
    between consecutive maps of a run, len(maps) - 1 points.

    The mask is :func:`_invertible`'s: a Frobenius-norm screen, with the
    SVD for the maps it cannot place on one side of COND_MAX.
    """
    a = maps[:-1]
    ok = _invertible(a)
    g = np.zeros(a.shape[0])
    if ok.any():
        # E A = B  =>  A^T E^T = B^T
        et = opalg.solve_linear(a[ok].transpose(0, 2, 1), maps[1:][ok].transpose(0, 2, 1))
        choi = choi_matrix(et.transpose(0, 2, 1))
        g[ok] = (opalg.trace_norm(choi) - 1.0) / eps
    return g, ok


def _measure(ts, eps, g, ok):
    """NMResult from the raw rates g and invertible mask ok on grid ts."""
    if not ok.any():
        raise DimerNMError("no invertible intermediate map anywhere on the grid")
    starts = ts[:-1]
    tv = starts[ok] + eps / 2.0
    gv = np.where(g > 0.0, g, 0.0)[ok]  # max(0, g)
    mids = starts + eps / 2.0
    grid = mids[mids <= tv[-1] + 1e-12]
    series = np.interp(grid, tv, gv)
    integral = float(np.trapezoid(series, grid))
    d_nm = integral / (1.0 + integral)
    return NMResult(
        times=grid, g=series, integral=integral, d_nm=d_nm, eps=eps,
        horizon=float(grid[-1] + eps / 2.0), requested_horizon=float(ts[-1]),
        skipped_times=starts[~ok],
    )


def nm_measure(family: DynamicalMapFamily) -> NMResult:
    """Integrate g over the family's grid into I and D = I / (1 + I).

    The rates of the whole family are one set of stacked LAPACK calls.
    """
    return _measure(family.times, family.eps, *_rates(family.maps, family.eps))


def nm_sweep(models, eps: float, horizon: float) -> list:
    """Tomography plus measure on :func:`uniform_grid` (horizon, eps) for a
    stack of models.

    The models share dims; their tomography is one stacked propagation
    (:func:`dynamics.propagate`), and each block of maps goes, per model,
    through the drift check and the rates before the next is stepped, so
    no model's whole map family is held. A block's maps from grid point
    lo give the rates from lo on, and the next block starts at its last
    map. Returns a list with one entry per model, in order: its NMResult,
    equal bit for bit to ``nm_measure(map_tomography(model, eps,
    horizon))``, or the DimerNMError that stopped it. A model's first
    error skips its later blocks; the others run as they would alone.
    """
    t_grid = uniform_grid(horizon, eps)
    n = len(models)
    if not n:
        return []
    sub_dts, blocks = _tomography(models, t_grid, eps)
    g = [np.empty(t_grid.shape[0] - 1) for _ in models]
    ok = [np.empty(t_grid.shape[0] - 1, dtype=bool) for _ in models]
    results = [None] * n  # a model's error as soon as it has one
    for lo, block in blocks:
        hi = lo + block.shape[1] - 1  # the block's last map starts the next
        for i, maps in enumerate(block):
            if results[i] is None:
                try:
                    _check_maps(maps, t_grid[lo:], sub_dts[i])
                    g[i][lo:hi], ok[i][lo:hi] = _rates(maps, eps)
                except DimerNMError as exc:
                    results[i] = exc
    # the list holds every result at once (3.5 MB on fig2), so what they
    # replace goes first: the block buffer, which the last block views,
    # and each model's rates as its result is built
    del block, maps
    for i in range(n):
        if results[i] is None:
            try:
                results[i] = _measure(t_grid, eps, g[i], ok[i])
            except DimerNMError as exc:
                results[i] = exc
        g[i] = ok[i] = None
    return results
