"""Acceptance gate: one test per headline claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Fixtures are module-scoped because the trace and sweep computations are
shared across several criteria.
"""

import math

import numpy as np
import pytest

from dimer_nm.dynamics import (
    integrate,
    liouvillian_matrix,
    steady_state,
    suggest_dt,
)
from dimer_nm.entanglement import (
    log_negativity,
    reduce_to_dimer,
    singlet_overlap,
)
from dimer_nm.errors import DimerNMError
from dimer_nm.harness import HORIZON_WARN_FACTOR, initial_state
from dimer_nm.model import (
    ModelParams,
    apply_f,
    build_full_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
    steady_state_dd_closed_form,
)
from dimer_nm.nonmarkov import choi_matrix, map_tomography, nm_measure, nm_sweep
from dimer_nm import opalg
from oracles import apply_map, integrate_to, log_negativity_via_partial_transpose, rhs

GAMMA_EFF = 0.1
TRACE_FS = (0.01, 0.1, 1.0, 100.0)
TRACE_T_END = 50.0
STORE_DT = 0.01


def _verdict(n: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _symmetric(f: float, **kw) -> ModelParams:
    return apply_f(f, ModelParams.symmetric(**kw))


def _random_density(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def count_envelope_maxima(times, values):
    """Count local maxima of the |values| envelope.

    Peaks of |values| are collected first; the envelope count is the
    number of local maxima of the peak-height sequence, including the
    opening peak when it dominates its successor. A damped oscillation
    without revivals scores 1; beating (collapse and revival) scores 2
    or more. Returns (count, times_of_envelope_maxima).
    """
    x = np.abs(np.asarray(values, dtype=float))
    t = np.asarray(times, dtype=float)
    peak_idx = [
        i for i in range(1, x.shape[0] - 1)
        if x[i] >= x[i - 1] and x[i] > x[i + 1]
    ]
    if not peak_idx:
        return 0, []
    heights = x[peak_idx]
    count, locs = 0, []
    if heights.shape[0] == 1 or heights[0] > heights[1]:
        count += 1
        locs.append(float(t[peak_idx[0]]))
    for k in range(1, heights.shape[0] - 1):
        if heights[k] >= heights[k - 1] and heights[k] > heights[k + 1]:
            count += 1
            locs.append(float(t[peak_idx[k]]))
    return count, locs


@pytest.fixture(scope="module")
def paper_traces():
    """t in [0, 50] trajectories at the figure parameters, shared time grid."""
    out = {}
    for f in TRACE_FS:
        model = build_symmetric_model(_symmetric(f))
        dt = suggest_dt(model)
        out[f] = integrate(
            model, initial_state(model), TRACE_T_END, dt=dt,
            store_every=round(STORE_DT / dt),
            observables=("inversion", "log_negativity", "mode_excitation"),
        )
    return out


@pytest.fixture(scope="module")
def dnm_sweep():
    """RHP degree over the figure's f grid plus the deep-Markovian point."""
    horizon = 20.0 / GAMMA_EFF
    fs = list(np.geomspace(0.0035, 3.6554, 15))
    # one stacked sweep; each entry equals its one-model run bit for bit
    models = [build_symmetric_model(_symmetric(f)) for f in fs + [100.0]]
    results = nm_sweep(models, eps=0.01, horizon=horizon)
    for res in results:
        if isinstance(res, DimerNMError):
            raise res
    # no f of the figure's grid gets the harness's short-horizon note
    assert all(res.horizon >= HORIZON_WARN_FACTOR / GAMMA_EFF for res in results[:-1])
    return fs, [res.d_nm for res in results[:-1]], results[-1].d_nm


@pytest.fixture(scope="module")
def tomo_family():
    model = build_symmetric_model(_symmetric(0.1))
    return model, map_tomography(model, 0.05, 10.0)


def test_criterion_1_closed_form_cross_check():
    worst = 0.0
    for f in (0.01, 0.1, 1.0):
        p = _symmetric(f, n_fock=2)
        model = build_symmetric_model(p)
        red = reduce_to_dimer(steady_state(model), model.dims, model.basis)
        numeric = singlet_overlap(red)
        closed = steady_state_dd_closed_form(p)
        worst = max(worst, abs(numeric - closed) / closed)
    ref = steady_state_dd_closed_form(_symmetric(0.1, n_fock=2))
    ok = worst <= 5e-2 and abs(ref - 0.8225806451612903) <= 1e-12
    _verdict(1, ok, "two-level-mode steady state matches closed form "
                    f"(worst rel err {worst:.2e}, value(f=0.1) {ref:.10f})")


def test_criterion_2_markovian_separability():
    model = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
    ss = steady_state(model)
    ln = log_negativity(reduce_to_dimer(ss, model.dims, model.basis))
    dist = float(np.max(np.abs(ss - np.eye(2) / 2.0)))
    ok = ln <= 1e-6 and dist <= 1e-6
    _verdict(2, ok, "Lindblad dephasing baseline is separable and maximally "
                    f"mixed (logneg {ln:.2e}, max|rho - I/2| {dist:.2e})")


def test_criterion_3_long_time_entanglement():
    model = build_symmetric_model(_symmetric(0.01))
    traj = integrate_to(model, initial_state(model), 200.0 / GAMMA_EFF,
                        observables=("log_negativity", "singlet_overlap"))
    ln = traj.observables["log_negativity"][-1]
    ov = traj.observables["singlet_overlap"][-1]
    ok = ln > 0.9 and ov > 0.95
    _verdict(3, ok, "f=0.01 long-time state is near one e-bit "
                    f"(logneg {ln:.6f}, singlet overlap {ov:.6f})")


def test_criterion_4_dnm_monotonicity(dnm_sweep):
    fs, ds, deep = dnm_sweep
    rises = [ds[i + 1] - ds[i] for i in range(len(ds) - 1)]
    ok = all(r < 1e-6 for r in rises) and deep <= 1e-4
    _verdict(4, ok, "D_NM decreases along the f grid and vanishes deep in "
                    f"the Markovian regime (range [{ds[-1]:.2e}, {ds[0]:.3f}],"
                    f" worst rise {max(rises):.2e}, D_NM(f=100) {deep:.2e})")


def test_criterion_5_truncation_validity(paper_traces):
    peak = max(float(np.max(t.observables["mode_excitation"]))
               for t in paper_traces.values())
    fine = build_symmetric_model(_symmetric(0.01, n_fock=4))
    traj4 = integrate_to(fine, initial_state(fine), TRACE_T_END,
                         observables=("log_negativity",))
    delta = abs(paper_traces[0.01].observables["log_negativity"][-1]
                - traj4.observables["log_negativity"][-1])
    ok = peak <= 0.1 and delta < 1e-3
    _verdict(5, ok, f"mode excitation stays bounded (peak {peak:.4f} <= 0.1) "
                    f"and n_fock 3->4 shifts final logneg by {delta:.2e}")


def test_criterion_6_asymmetric_robustness():
    g1 = math.sqrt(0.05)
    p = ModelParams(omega1=0.0, omega2=0.0, J=1.0, Omega1=2.0, Omega2=2.0,
                    g1=g1, g2=2.0 * g1, kappa1=1.0, kappa2=1.0, n_fock=3)
    assert 2.0 * p.g1 < p.kappa1 and 2.0 * p.g2 < p.kappa2
    model = build_full_model(p)
    red = reduce_to_dimer(steady_state(model), model.dims, model.basis)
    ov = singlet_overlap(red)
    ok = ov >= 0.9
    _verdict(6, ok, f"g2/g1=2 keeps steady singlet overlap at {ov:.4f} >= 0.9")


def test_criterion_7_finite_temperature():
    model = build_symmetric_model(_symmetric(0.01, n_th=0.1))
    red = reduce_to_dimer(steady_state(model), model.dims, model.basis)
    ln = log_negativity(red)
    ok = 0.80 <= ln <= 0.90
    _verdict(7, ok, f"n_th=0.1, f=0.01 steady logneg {ln:.6f} in [0.80, 0.90]")


def test_criterion_8_property_suite(paper_traces, tomo_family):
    rng = np.random.default_rng(101)
    failures = []

    diag = paper_traces[0.1].diagnostics
    low = np.linalg.eigvalsh(opalg.hermitize(paper_traces[0.1].states))[:, 0].min()
    if not (diag["max_trace_defect"] <= 1e-9
            and diag["max_hermiticity_defect"] <= 1e-10
            and low >= -1e-8):
        failures.append("state-validity")

    model = build_symmetric_model(_symmetric(0.1))
    lmat = liouvillian_matrix(model)
    for _ in range(20):
        rho = _random_density(rng, model.dim)
        expected = opalg.vec(rhs(model, rho))
        scale = max(1.0, float(np.linalg.norm(expected)))
        if np.linalg.norm(lmat @ opalg.vec(rho) - expected) > 1e-12 * scale:
            failures.append("rhs-vs-liouvillian")
            break

    worst = max(
        abs(log_negativity(st) - log_negativity_via_partial_transpose(st))
        for st in (reduce_to_dimer(_random_density(rng), (2,), "site")
                   for _ in range(1000))
    )
    if worst > 1e-10:
        failures.append("logneg-dual-route")

    order_model = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
    h = order_model.h_herm
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(-1j * w)) @ v.conj().T
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    exact = u @ rho0 @ u.conj().T
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_to(order_model, rho0, 1.0, dt=dt)
        errs.append(float(np.max(np.abs(traj.states[-1] - exact))))
    order = math.log2(errs[0] / errs[1])
    if order < 3.5:
        failures.append(f"rk4-order({order:.2f})")

    tomo_model, family = tomo_family
    min_eig = min(float(np.linalg.eigvalsh(choi_matrix(m))[0])
                  for m in family.maps)
    if min_eig < -1e-7:
        failures.append("full-map-cp")

    sigma = _random_density(rng)
    env = np.zeros((3, 3), dtype=complex)
    env[0, 0] = 1.0
    worst_map = 0.0
    for idx in (40, 200):
        t = family.times[idx]
        traj = integrate_to(tomo_model, opalg.kron(sigma, env), t)
        direct = reduce_to_dimer(traj.states[-1], tomo_model.dims,
                                 tomo_model.basis).rho
        mapped = apply_map(family.maps[idx], sigma)
        worst_map = max(worst_map, float(np.max(np.abs(direct - mapped))))
    if worst_map > 1e-8:
        failures.append("tomography-vs-direct")

    markov = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
    res = nm_measure(map_tomography(markov, 0.1, 50.0))
    if res.d_nm > 1e-6:
        failures.append("markov-dnm")

    ok = not failures
    _verdict(8, ok, "property suite (validity, generator equivalence, dual "
                    "logneg routes, RK4 order, CP maps, tomography, Markovian "
                    "D_NM)" + ("" if ok else f" failing: {failures}"))


def test_criterion_9_beating_signature(paper_traces):
    deep = paper_traces[100.0]
    memory = paper_traces[0.01]
    n_deep, _ = count_envelope_maxima(deep.times,
                                      deep.observables["inversion"])
    n_mem, _ = count_envelope_maxima(memory.times,
                                     memory.observables["inversion"])
    ok = n_deep <= 1 and n_mem >= 2
    _verdict(9, ok, "population envelope is monotone at f=100 "
                    f"({n_deep} max) and beats at f=0.01 ({n_mem} maxima)")


class TestEnvelopeCounting:
    """The envelope count criterion 9 rests on, on known signals."""

    def test_damped_oscillation_single_maximum(self):
        t = np.linspace(0.0, 50.0, 2001)
        count, _ = count_envelope_maxima(t, np.exp(-0.1 * t) * np.cos(5.0 * t))
        assert count == 1

    def test_beating_counted(self):
        t = np.linspace(0.0, 50.0, 2001)
        count, locs = count_envelope_maxima(t, np.cos(0.2 * t) * np.cos(5.0 * t))
        assert count >= 2
        assert locs == sorted(locs)

    def test_monotone_decay_scores_zero(self):
        t = np.linspace(0.0, 10.0, 101)
        count, locs = count_envelope_maxima(t, np.exp(-t))
        assert count == 0
        assert locs == []
