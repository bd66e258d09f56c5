"""Divisibility-based memory measure of the reduced sector dynamics.

Pipeline: tomograph the family of dynamical maps Lambda(t, 0) of the
dimer sector on the grid :func:`dynamics.uniform_grid` (horizon, eps),
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
factor each map once: one stacked solve A^T [E^T | X] = [B^T | I] gives
the intermediate map E and A^-1 = X^T, and the Frobenius estimate
est = ||A||_F ||A^-1||_F places the map on its side of COND_MAX; for a
4 x 4 map cond <= est <= 4 cond. Only the maps it leaves undecided,
about 2.4 % of a fig2 run, take the SVD (:func:`opalg.condition_number`),
so the mask is the one an SVD of every map gives. The rates are one
float64 array, nan where a map is not invertible. A per-point path that
takes the SVD at every map, inverts one map at a time and clips each
rate at 0 lives in the test suite (``tests/oracles.py``) and serves as
an independent check.

The tomography is a trajectory like any other: :mod:`dimer_nm.dynamics`
sizes its grid as it sizes a trace's, picks the steps of each grid step
eps as it picks those of a trace's storage interval, decides its
trace-drift abort (:func:`dynamics.uniform_grid`,
:func:`dynamics.substeps`, :func:`dynamics.check_drift`), and steps it
(:func:`dynamics.propagate`, the four basis states as the columns of
one matrix) on either engine and at any dimension, in the parts that
propagate cuts a stack into. No function here takes a step, decides
one or cuts a stack.

D_NM is computed one way per shape, both on the grid
:func:`dynamics.uniform_grid` (horizon, eps). One model goes through
``nm_measure(map_tomography(model, eps, horizon))``, which holds the
model's whole map family, so it can be inspected. A stack of models of
one dims, an f grid say, goes through :func:`nm_sweep`, which splits
the models over the usable CPUs: one interleaved share per CPU, this
process running one and a forked worker each other, and k = 1 forks
nothing. Each share is one stacked propagation, stepped part by part,
whose blocks of maps go, per model, through the drift check and the
rates before the next block is stepped, so no model's whole map family
is held; a model keeps the rates of a block only if the block holds an
invertible map. The workers send their rates back, and this process
builds every result, so the results of one sweep share one tomography
grid and one midpoint array, and each derives its skipped times from a
bool per map. Every model gets exactly the numbers it gets alone,
whatever the split. A
model that fails, or whose part fails as it steps (a Taylor plan
refused on the direct engine, where each part is one model), drops out
of the rates and the measure, not out of the stack.

The measure knows no physical rate: NMResult reports the effective
horizon, and whether it is short against 1 / gamma_eff is decided by
the harness, which notes it.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import opalg
from .dynamics import check_drift, propagate, substeps, uniform_grid
from .errors import DimerNMError
from .model import LindbladModel, environment_state

COND_MAX = 1e10
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


def map_tomography(model: LindbladModel, eps: float, horizon: float) -> DynamicalMapFamily:
    """Reconstruct Lambda(t, 0) on :func:`uniform_grid` (horizon, eps) by
    evolving the four sector basis matrices.

    Each basis matrix is tensored with the model's environment state
    (vacuum, or the thermal diagonal for n_th > 0) and the four
    vectorized initial conditions are propagated together as the columns
    of one matrix through :func:`dynamics.propagate`, so the whole
    tomography is a single batched propagation on either engine, with no
    dimension cap. Each eps takes the steps :func:`dynamics.substeps`
    gives the model from BASE_DT. Aborts through
    :func:`dynamics.check_drift` at the first map that fails trace
    preservation.
    """
    t_grid = uniform_grid(horizon, eps)
    maps = np.empty((t_grid.shape[0], 4, 4), dtype=complex)
    (sub_dt,), [(_, blocks)] = _tomography([model], t_grid, eps)
    for lo, block in blocks:
        _check_maps(block[0], t_grid[lo:], sub_dt)
        maps[lo:lo + block.shape[1]] = block[0]
    return DynamicalMapFamily(times=t_grid, maps=maps, eps=float(eps))


def _tomography(models, t_grid, eps):
    """(sub-steps, parts): the sector maps of each model on t_grid, one stack.

    parts is :func:`dynamics.propagate`'s, with block[j, k] of the part
    of first model i the map Lambda(t_grid[lo + k], 0) of model i + j,
    not yet drift-checked. Each model takes :func:`dynamics.substeps`
    (model, eps) per eps.
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
    sub_dts, steps = zip(*(substeps(model, eps) for model in models))
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
    to the last invertible time; times is a prefix view of one midpoint
    array, which the results of one :func:`nm_sweep` share. horizon is
    that effective limit. grid is the tomography grid, shared like the
    midpoints, and invertible holds, per intermediate map, whether it
    was inverted. requested_horizon, the end of the grid, and
    skipped_times, the start times of the maps skipped as not invertible
    (a float64 array), are derived from them on access. Whether the
    effective horizon is long enough is the caller's to judge.
    """

    times: np.ndarray
    g: np.ndarray
    integral: float
    d_nm: float
    eps: float
    horizon: float
    grid: np.ndarray
    invertible: np.ndarray

    @property
    def requested_horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def skipped_times(self) -> np.ndarray:
        return self.grid[:-1][~self.invertible]


def _solve_invertible(a, b):
    """(ok, et) for the intermediate maps E with E A = B of two stacks
    (k, 4, 4): ok masks the maps A with cond(A) <= COND_MAX, and et holds
    E^T for each map ok holds, not yet residual-checked.

    ok is ~(opalg.condition_number(a) > COND_MAX), with a map that has a
    non-finite entry counting as singular, as its condition estimate is
    inf. One stacked solve A^T [E^T | X] = [B^T | I] of the finite maps
    gives E^T and X = A^-T. For a 4 x 4 map the Frobenius estimate
    est = ||A||_F ||A^-1||_F brackets the two-norm condition number,
    cond <= est <= 4 cond, so the solve decides every map with
    est <= COND_MAX (1 - _SCREEN_SLACK), invertible, or
    est > 4 COND_MAX (1 + _SCREEN_SLACK), singular. The SVD decides the
    rest: the maps in between, those whose est overflows or is nan, and
    the whole stack when the solve finds an exactly singular map, whose
    invertible maps are then solved on their own.
    """
    ok = np.zeros(a.shape[0], dtype=bool)
    idx = np.flatnonzero(np.isfinite(a).all(axis=(-2, -1)))
    at = np.ascontiguousarray(a[idx].transpose(0, 2, 1))
    bt = b[idx].transpose(0, 2, 1)
    try:
        x = np.linalg.solve(at, np.concatenate([bt, np.broadcast_to(np.eye(4), bt.shape)], axis=-1))
    except np.linalg.LinAlgError:  # an exactly singular map: the SVD takes them all
        x, undecided = None, np.ones(idx.size, dtype=bool)
    else:
        inv = x[..., 4:]
        with np.errstate(over="ignore"):
            na = (at.real ** 2 + at.imag ** 2).sum(axis=(-2, -1))
            ni = (inv.real ** 2 + inv.imag ** 2).sum(axis=(-2, -1))
            est2 = na * ni
        low = est2 <= (COND_MAX * (1.0 - _SCREEN_SLACK)) ** 2
        # est >= 2, so a squared norm that underflows far enough to lose
        # accuracy makes the other overflow: only a finite est2 is accurate
        high = np.isfinite(est2) & (est2 > (4.0 * COND_MAX * (1.0 + _SCREEN_SLACK)) ** 2)
        ok[idx[low]] = True
        undecided = ~(low | high)
    if undecided.any():
        ok[idx[undecided]] = ~(opalg.condition_number(a[idx[undecided]]) > COND_MAX)
    if x is None:
        return ok, np.linalg.solve(a[ok].transpose(0, 2, 1), b[ok].transpose(0, 2, 1))
    return ok, x[ok[idx], :, :4]


def _rates(maps, eps):
    """g before the clip at 0 of the intermediate maps between
    consecutive maps of a run, len(maps) - 1 points, nan where the map
    is not invertible (:func:`_solve_invertible`). An invertible map's g
    is never nan, as its E passes :func:`opalg.check_residual` first.
    """
    a, b = maps[:-1], maps[1:]
    ok, et = _solve_invertible(a, b)
    g = np.full(ok.shape[0], np.nan)
    if ok.any():
        opalg.check_residual(np.ascontiguousarray(a[ok].transpose(0, 2, 1)), et,
                             b[ok].transpose(0, 2, 1), axis=(-2, -1))
        g[ok] = (opalg.trace_norm(choi_matrix(et.transpose(0, 2, 1))) - 1.0) / eps
    return g


def _measure(ts, mids, eps, g):
    """NMResult from the raw rates g (nan where a map is not invertible)
    on the increasing grid ts, whose midpoints ts[:-1] + eps / 2 are mids."""
    ok = ~np.isnan(g)
    if not ok.any():
        raise DimerNMError("no invertible intermediate map anywhere on the grid")
    tv = mids[ok]
    gv = g[ok]
    gv = np.where(gv > 0.0, gv, 0.0)  # max(0, g)
    grid = mids[:np.flatnonzero(ok)[-1] + 1]  # up to the last invertible map
    series = np.interp(grid, tv, gv)
    integral = float(np.trapezoid(series, grid))
    d_nm = integral / (1.0 + integral)
    return NMResult(
        times=grid, g=series, integral=integral, d_nm=d_nm, eps=eps,
        horizon=float(grid[-1] + eps / 2.0), grid=ts, invertible=ok,
    )


def nm_measure(family: DynamicalMapFamily) -> NMResult:
    """Integrate g over the family's grid into I and D = I / (1 + I).

    The rates of the whole family are one set of stacked LAPACK calls.
    """
    ts, eps = family.times, family.eps
    return _measure(ts, ts[:-1] + eps / 2.0, eps, _rates(family.maps, eps))


def nm_sweep(models, eps: float, horizon: float) -> list:
    """Tomography plus measure on :func:`uniform_grid` (horizon, eps) for a
    stack of models.

    The models share dims. The stack is cut into k = min(len(models),
    usable CPUs) interleaved shares, ``models[j::k]``: this process runs
    share 0, and each other share runs in a forked worker process
    (:func:`_split_rates`); k = 1 forks nothing. Each share is one
    stacked propagation (:func:`dynamics.propagate`), stepped in the
    parts propagate cuts, and each block of maps goes, per model,
    through the drift check and the rates before the next is stepped,
    so no model's whole map family is held. A block's maps from grid
    point lo give the rates from lo on, and the next block starts at
    its last map; a model keeps the rates of a block only if they hold
    an invertible map. Returns a list with one entry per model, in
    order: its NMResult, equal bit for bit to
    ``nm_measure(map_tomography(model, eps, horizon))``, or the
    DimerNMError that stopped it. This process builds every result, so
    the results share one grid and one midpoint array. A model's first
    error skips its later blocks, and an error raised as a part steps
    stops the models of that part that have not failed yet; the others
    run as they would alone.
    """
    t_grid = uniform_grid(horizon, eps)
    outcomes = _split_rates(models, t_grid, eps, max(1, min(len(models), _usable_cpus())))
    mids = t_grid[:-1] + eps / 2.0
    # the list holds every result at once, so each model's rates go as
    # its result is built
    for i, kept in enumerate(outcomes):
        if isinstance(kept, list):
            g = np.full(mids.shape[0], np.nan)
            for lo, rates in kept:
                g[lo:lo + rates.shape[0]] = rates
            try:
                outcomes[i] = _measure(t_grid, mids, eps, g)
            except DimerNMError as exc:
                outcomes[i] = exc
    return outcomes


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the
    platform reports one (Linux), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _sweep_rates(models, t_grid, eps):
    """Per model, in order, the (lo, rates) of its blocks that hold an
    invertible map, or the DimerNMError that stopped it: one stacked
    tomography on t_grid, streamed part by part and block by block into
    the rates. An error raised while a part steps stops that part's
    models alone, and the next part steps on."""
    if not models:
        return []
    sub_dts, parts = _tomography(models, t_grid, eps)
    parts = list(parts)  # no part steps before its blocks are taken
    ends = [first for first, _ in parts[1:]] + [len(models)]
    out = [[] for _ in models]
    for (first, blocks), end in zip(parts, ends):
        try:
            for lo, block in blocks:
                for i, maps in enumerate(block, first):
                    if isinstance(out[i], list):
                        try:
                            _check_maps(maps, t_grid[lo:], sub_dts[i])
                            g = _rates(maps, eps)
                        except DimerNMError as exc:
                            out[i] = exc
                        else:
                            if not np.isnan(g).all():
                                out[i].append((lo, g))
        except DimerNMError as exc:
            out[first:end] = [o if isinstance(o, DimerNMError) else exc for o in out[first:end]]
    return out


def _split_rates(models, t_grid, eps, k):
    """:func:`_sweep_rates` of models, share ``models[j::k]`` in a forked
    worker for j = 1 .. k - 1 and share 0 in this process. k = 1 runs
    share 0 alone: it forks nothing and loads no ``multiprocessing``.

    Each worker sends its outcomes, or the exception that stopped its
    whole share, through a one-way pipe; this process receives each
    before it joins the worker. A worker that exits without sending
    raises DimerNMError with its exit code. On any error the workers
    still running are terminated, and every worker is joined.
    """
    outcomes = [None] * len(models)
    workers = []
    try:
        for j in range(1, k):
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            with send:
                proc = ctx.Process(target=_send_rates, args=(send, models[j::k], t_grid, eps))
                proc.start()
            workers.append((proc, recv))
        outcomes[0::k] = _sweep_rates(models[0::k], t_grid, eps)
        for j, (proc, recv) in enumerate(workers, 1):
            try:
                got = recv.recv()
            except EOFError:
                proc.join()
                raise DimerNMError(f"the nm_sweep worker of share {j} of {k} exited with "
                                   f"code {proc.exitcode} before sending its rates") from None
            if isinstance(got, BaseException):
                raise got
            outcomes[j::k] = got
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            proc.join()
            recv.close()
    return outcomes


def _send_rates(send, models, t_grid, eps):
    """A worker's share of :func:`_split_rates`: send its outcomes, or the
    exception that stopped the whole share."""
    try:
        got = _sweep_rates(models, t_grid, eps)
    except Exception as exc:
        got = exc
    send.send(got)
