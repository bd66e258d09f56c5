"""Dynamical-map tomography, intermediate maps, and the memory measure."""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from dimer_nm import cli, dynamics, nonmarkov, opalg
from dimer_nm.dynamics import uniform_grid
from dimer_nm.entanglement import reduce_to_dimer
from dimer_nm.errors import ConfigError, DimerNMError, NumericalDriftError, SingularSystemError
from dimer_nm import harness
from dimer_nm.harness import RunConfig, run_f_sweep
from dimer_nm.model import (
    ModelParams,
    apply_f,
    build_full_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
)
from dimer_nm.nonmarkov import (
    DynamicalMapFamily,
    choi_matrix,
    map_tomography,
    nm_measure,
    nm_sweep,
)
from oracles import SingularMapError, apply_map, g_of_t, integrate_to, intermediate_map

GAMMA_EFF = 0.1
PHI = np.zeros((4, 4), dtype=complex)  # |Phi><Phi| for (|00>+|11>)/sqrt(2)
for _r in (0, 3):
    for _c in (0, 3):
        PHI[_r, _c] = 0.5


def dephasing_map(lam: float) -> np.ndarray:
    """Sector map scaling both coherences by lam (column-stacking order)."""
    return np.diag([1.0, lam, lam, 1.0]).astype(complex)


def dephasing_family(lams, eps: float) -> DynamicalMapFamily:
    maps = np.stack([dephasing_map(v) for v in lams])
    times = eps * np.arange(len(lams), dtype=float)
    return DynamicalMapFamily(times=times, maps=maps, eps=eps)


def symmetric_model(f, **kwargs):
    return build_symmetric_model(apply_f(f, ModelParams.symmetric(**kwargs)))


def asymmetric_full_model(n_fock, f=0.1):
    """Full model with g2 = 2 g1, dims (2, n_fock, n_fock)."""
    p = ModelParams.symmetric(n_fock=n_fock)
    return build_full_model(apply_f(f, dataclasses.replace(p, g2=2.0 * p.g1)))


@pytest.fixture(scope="module")
def family_f01():
    """Tomography of the collective-mode model at f = 0.1 over 10/J."""
    model = symmetric_model(0.1)
    return model, map_tomography(model, 0.05, 10.0)


class TestUniformGrid:
    def test_shape_and_spacing(self):
        grid = uniform_grid(1.0, 0.1)
        assert grid[0] == 0.0
        assert np.allclose(np.diff(grid), 0.1, rtol=0, atol=1e-15)
        assert grid[-1] >= 1.0 - 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DimerNMError):
            uniform_grid(0.0, 0.1)
        with pytest.raises(DimerNMError):
            uniform_grid(1.0, -0.1)

    @pytest.mark.parametrize("horizon, eps", [(np.nan, 0.01), (np.inf, 0.01),
                                              (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_non_finite(self, horizon, eps):
        # the grid is the input check of both D_NM entry points
        model = symmetric_model(0.1)
        for call in (lambda: uniform_grid(horizon, eps),
                     lambda: map_tomography(model, eps, horizon),
                     lambda: nm_sweep([model], eps, horizon)):
            with pytest.raises(DimerNMError, match="horizon and eps must be positive and finite"):
                call()


    def test_caps_the_number_of_points(self):
        cap = dynamics.MAX_GRID_POINTS
        assert len(uniform_grid(cap - 1.0, 1.0)) == cap
        model = symmetric_model(0.1)
        # one point over the cap, and a quotient that overflows to inf
        for horizon, eps in ((float(cap), 1.0), (1e300, 1e-10)):
            for call in (lambda: uniform_grid(horizon, eps),
                         lambda: map_tomography(model, eps, horizon),
                         lambda: nm_sweep([model], eps, horizon)):
                with pytest.raises(DimerNMError, match=f"more than {cap} grid points"):
                    call()


class TestTomography:
    def test_zero_time_map_is_identity(self, family_f01):
        _, fam = family_f01
        assert np.allclose(fam.maps[0], np.eye(4), atol=1e-12)

    def test_trace_preserving_everywhere(self, family_f01):
        _, fam = family_f01
        tvec = np.array([1.0, 0.0, 0.0, 1.0])
        worst = np.abs(tvec @ fam.maps - tvec).max()
        assert worst <= 1e-8

    def test_matches_direct_evolution(self, family_f01):
        model, fam = family_f01
        rng = np.random.default_rng(61)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        env = np.zeros((3, 3), dtype=complex)
        env[0, 0] = 1.0
        for n in (3, 17, 60, 121, 200):
            t = fam.times[n]
            via_map = apply_map(fam.maps[n], rho)
            traj = integrate_to(model, opalg.kron(rho, env), float(t))
            direct = reduce_to_dimer(traj.states[-1], model.dims, model.basis).rho
            assert np.max(np.abs(via_map - direct)) <= 1e-8

    def test_reduction_linear(self, family_f01):
        model, _ = family_f01
        rng = np.random.default_rng(62)
        rhos = []
        for _ in range(2):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            r = a @ a.conj().T
            rhos.append(r / np.trace(r).real)
        env = np.zeros((3, 3), dtype=complex)
        env[0, 0] = 1.0
        mix = 0.3 * rhos[0] + 0.7 * rhos[1]
        finals = []
        for r in (rhos[0], rhos[1], mix):
            traj = integrate_to(model, opalg.kron(r, env), 2.0)
            finals.append(reduce_to_dimer(traj.states[-1], model.dims, model.basis).rho)
        combined = 0.3 * finals[0] + 0.7 * finals[1]
        assert np.max(np.abs(finals[2] - combined)) <= 1e-10

    def test_full_maps_completely_positive(self, family_f01):
        _, fam = family_f01
        for n in range(len(fam)):
            evals = np.linalg.eigvalsh(choi_matrix(fam.maps[n]))
            assert evals.min() >= -1e-7

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborts_on_unstable_step(self, monkeypatch):
        model = symmetric_model(100.0)
        monkeypatch.setattr(dynamics, "suggest_dt", lambda m, base: 0.01)
        with pytest.raises(NumericalDriftError) as exc:
            map_tomography(model, 0.1, 1.0)
        assert str(exc.value).endswith("(dt=1.000e-02)")
        assert "reduce the step size" not in str(exc.value)


class TestTomographyEngines:
    def test_direct_matches_aggregated(self, monkeypatch):
        model = asymmetric_full_model(3)
        assert model.dim == 18
        aggregated = map_tomography(model, 0.05, 2.0)
        # with the dense cap below d the aggregated engine cannot run
        # (liouvillian_matrix would raise), so auto takes the direct one
        monkeypatch.setattr(dynamics, "MAX_SUPEROP_DIM", 4)
        direct = map_tomography(model, 0.05, 2.0)
        assert np.max(np.abs(direct.maps - aggregated.maps)) <= 1e-10

    def test_beyond_the_dense_cap_is_trace_preserving(self):
        model = asymmetric_full_model(6)
        assert model.dim == 72 > dynamics.MAX_SUPEROP_DIM
        fam = map_tomography(model, 0.05, 0.1)
        tvec = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.abs(tvec @ fam.maps - tvec).max() <= 1e-12
        assert np.allclose(fam.maps[0], np.eye(4), atol=1e-14)
        assert not np.allclose(fam.maps[-1], np.eye(4), atol=1e-3)


class TestIntermediateMap:
    def test_zero_start_returns_family_map(self, family_f01):
        _, fam = family_f01
        e = intermediate_map(fam, 0.0)
        assert np.max(np.abs(e - fam.maps[1])) <= 1e-12

    def test_composition(self, family_f01):
        _, fam = family_f01
        eps = fam.eps
        for t in (0.5, 1.0, 3.0):
            two_step = intermediate_map(fam, t, 2 * eps)
            chained = intermediate_map(fam, t + eps, eps) @ intermediate_map(fam, t, eps)
            assert np.max(np.abs(two_step - chained)) <= 1e-7

    def test_advances_the_family(self, family_f01):
        _, fam = family_f01
        for n in (2, 40, 100):
            t = fam.times[n]
            e = intermediate_map(fam, float(t))
            assert np.max(np.abs(e @ fam.maps[n] - fam.maps[n + 1])) <= 1e-8

    def test_singular_map_reported_with_time(self):
        lams = [1.0, 0.8, 0.6, 0.4, 0.2, 1e-30, 0.5, 0.5]
        fam = dephasing_family(lams, 0.1)
        with pytest.raises(SingularMapError) as exc:
            intermediate_map(fam, 0.5)
        assert exc.value.t == pytest.approx(0.5)

    def test_grid_validation(self, family_f01):
        _, fam = family_f01
        with pytest.raises(DimerNMError):
            intermediate_map(fam, 0.033)  # off-grid
        with pytest.raises(DimerNMError):
            intermediate_map(fam, 0.5, eps=0.07)  # not a multiple
        with pytest.raises(DimerNMError):
            intermediate_map(fam, float(fam.times[-1]))  # past the horizon


class TestChoiMatrix:
    def test_identity_map(self):
        choi = choi_matrix(np.eye(4))
        assert np.allclose(choi, PHI, atol=1e-15)

    def test_full_dephasing(self):
        choi = choi_matrix(dephasing_map(0.0))
        assert np.allclose(choi, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)
        assert np.linalg.eigvalsh(choi).min() >= 0.0

    def test_inverse_dephasing_breaks_positivity(self):
        choi = choi_matrix(dephasing_map(np.exp(0.3)))
        assert np.linalg.eigvalsh(choi).min() < -1e-3

    def test_unit_trace_for_trace_preserving(self):
        for lam in (0.0, 0.4, 1.0):
            assert np.trace(choi_matrix(dephasing_map(lam))).real == pytest.approx(1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimerNMError):
            choi_matrix(np.eye(9))


class TestGOfT:
    def test_zero_for_contracting_coherence(self):
        lams = np.exp(-0.1 * np.arange(20))
        fam = dephasing_family(lams, 0.1)
        for t in (0.0, 0.5, 1.5):
            assert g_of_t(fam, t) == 0.0

    def test_positive_for_recohering_map(self):
        lams = 0.5 + 0.4 * np.cos(2.0 * 0.05 * np.arange(80))
        fam = dephasing_family(lams, 0.05)
        assert g_of_t(fam, 2.0) > 0.0

    def test_memoryless_baseline_flat_zero(self):
        model = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        fam = map_tomography(model, 0.1, 50.0)
        gs = [g_of_t(fam, float(t)) for t in fam.times[:-1]]
        assert max(gs) <= 1e-8


class TestNMMeasure:
    def test_memoryless_baseline_measures_zero(self):
        model = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        res = nm_measure(map_tomography(model, 0.1, 50.0))
        assert res.d_nm <= 1e-6
        assert res.integral <= 1e-6
        assert res.horizon == pytest.approx(res.requested_horizon)
        assert np.array_equal(res.skipped_times, [])

    @pytest.mark.parametrize("eps", [0.1, 1e-13])
    def test_series_ends_at_the_last_invertible_map(self, eps):
        # 50 maps, singular from index 40 on: 40 intermediate maps invert,
        # so the series stops at midpoint 39 and the horizon at 40 eps,
        # however close the midpoints sit
        lams = np.where(np.arange(50) < 40, 0.5 + 0.4 * np.cos(0.3 * np.arange(50)), 1e-30)
        res = nm_measure(dephasing_family(lams, eps))
        assert res.invertible.tolist() == [True] * 40 + [False] * 9
        assert res.times.shape == (40,)
        assert res.horizon == pytest.approx(40 * eps, rel=1e-12)
        assert res.integral == pytest.approx(per_point_measure(dephasing_family(lams, eps))[0],
                                             rel=1e-12)

    def test_matches_log_rise_oracle(self):
        # diagonal dephasing family with lam(t) = 0.5 + 0.4 cos(2t):
        # I converges to the total rise of log(lam), two intervals of
        # log(0.9 / 0.1) each, as eps -> 0
        eps = 0.005
        n = int(round(2.0 * np.pi / eps))
        ts = eps * np.arange(n + 1)
        fam = dephasing_family(0.5 + 0.4 * np.cos(2.0 * ts), eps)
        res = nm_measure(fam)
        exact = 2.0 * np.log(9.0)
        assert res.integral == pytest.approx(exact, rel=0.02)
        assert res.d_nm == pytest.approx(exact / (1.0 + exact), rel=0.02)

    def test_normalization_identity(self, family_f01):
        model, fam = family_f01
        res = nm_measure(fam)
        assert res.d_nm == res.integral / (1.0 + res.integral)
        assert 0.0 <= res.d_nm < 1.0

    def test_singular_interior_skipped_and_bridged(self):
        lams = [1.0, 0.5, 0.5, 0.5, 0.5, 1e-30, 0.5, 0.5, 0.5]
        fam = dephasing_family(lams, 0.1)
        res = nm_measure(fam)
        assert res.skipped_times == pytest.approx(np.array([0.5]))
        assert np.isfinite(res.integral)
        assert res.d_nm == pytest.approx(0.0, abs=1e-12)

    def test_skipped_times_is_a_float64_array(self):
        # 8 B per skipped point, not a 32 B Python float, derived from the
        # invertible mask and the family's own grid
        lams = [1.0, 0.5, 1e-30, 0.5, 1e-30, 0.5, 0.5]
        fam = dephasing_family(lams, 0.1)
        res = nm_measure(fam)
        skipped = res.skipped_times
        assert isinstance(skipped, np.ndarray) and skipped.dtype == np.float64
        assert skipped.shape == (2,) and skipped.nbytes == 16
        assert res.grid is fam.times and res.requested_horizon == fam.times[-1]
        assert res.invertible.tolist() == [True, True, False, True, False, True]
        assert np.array_equal(skipped, fam.times[:-1][~res.invertible])

    def test_discretization_stability(self):
        model = symmetric_model(0.0035)
        horizon = 100.0
        coarse = nm_measure(map_tomography(model, 0.01, horizon))
        fine = nm_measure(map_tomography(model, 0.005, horizon))
        assert fine.integral == pytest.approx(coarse.integral, rel=0.05)


def per_point_measure(family):
    """nm_measure rebuilt from intermediate_map and choi_matrix, one point at a time."""
    eps = family.eps
    raw_t, raw_g, skipped = [], [], []
    for t in family.times[:-1]:
        try:
            e = intermediate_map(family, float(t))
        except SingularMapError:
            skipped.append(float(t))
            continue
        raw_t.append(t + eps / 2.0)
        raw_g.append(max(0.0, (opalg.trace_norm(choi_matrix(e)) - 1.0) / eps))
    mids = family.times[:-1] + eps / 2.0
    grid = mids[mids <= raw_t[-1]]
    integral = float(np.trapezoid(np.interp(grid, raw_t, raw_g), grid))
    return integral, tuple(skipped)


def with_map(family, n, m):
    maps = family.maps.copy()
    maps[n] = m
    return DynamicalMapFamily(times=family.times, maps=maps, eps=family.eps)


class TestBatchedParity:
    """The stacked nm_measure against the per-point path."""

    def assert_parity(self, fam):
        integral, skipped = per_point_measure(fam)
        res = nm_measure(fam)
        assert np.array_equal(res.skipped_times, skipped)
        assert res.integral == pytest.approx(integral, rel=1e-12, abs=0.0)

    def test_tomography_fixture(self, family_f01):
        self.assert_parity(family_f01[1])

    def test_dephasing_families(self):
        ts = 0.005 * np.arange(3000)
        self.assert_parity(dephasing_family(0.5 + 0.4 * np.cos(2.0 * ts), 0.005))
        # coherences decay past the COND_MAX cut-off near t = 11.5
        fam = dephasing_family(np.exp(-2.0 * ts), 0.005)
        self.assert_parity(fam)
        assert 0 < len(nm_measure(fam).skipped_times) < len(fam) // 2

    def test_singular_interior_family(self):
        lams = [1.0, 0.5, 0.5, 0.5, 0.5, 1e-30, 0.5, 0.5, 0.5]
        self.assert_parity(dephasing_family(lams, 0.1))
        # an exactly singular map stops the stacked solve: the SVD decides
        # every map, and the invertible ones are solved on their own
        lams = [1.0, 0.5, 0.9, 0.0, 0.5, 0.6, 0.3, 0.5]
        self.assert_parity(dephasing_family(lams, 0.1))

    def test_spans_several_chunks_with_singular_points(self):
        ts = 0.01 * np.arange(2500)
        lams = 0.5 + 0.4 * np.cos(3.0 * ts)
        lams[[0, 1023, 1024, 2047, 2400]] = 1e-30
        self.assert_parity(dephasing_family(lams, 0.01))

    def test_leading_nan_map_counts_as_singular(self, family_f01):
        fam = with_map(family_f01[1], 0, np.full((4, 4), np.nan))
        self.assert_parity(fam)
        assert nm_measure(fam).skipped_times[0] == 0.0

    def test_interior_nan_map_raises_like_per_point(self, family_f01):
        fam = with_map(family_f01[1], 50, np.full((4, 4), np.nan))
        with pytest.raises(SingularSystemError):
            per_point_measure(fam)
        with pytest.raises(SingularSystemError):
            nm_measure(fam)

    def test_residual_failure_raises(self, family_f01, monkeypatch):
        monkeypatch.setattr(opalg, "SOLVE_RESIDUAL_RTOL", 0.0)
        with pytest.raises(SingularSystemError) as exc:
            nm_measure(family_f01[1])
        assert not isinstance(exc.value, SingularMapError)

    def test_residual_failure_becomes_nan_row(self, monkeypatch):
        monkeypatch.setattr(opalg, "SOLVE_RESIDUAL_RTOL", 0.0)
        cfg = RunConfig(experiment="nmm", f_list="0.1", eps=0.05, horizon=5.0)
        csv_text, _ = run_f_sweep(cfg)
        row = csv_text.splitlines()[1].split(",")
        assert row[1] == "nan" and row[2] == "nan"


def svd_mask(maps):
    """The per-point path's verdict on each map: cond(A) <= COND_MAX by the
    SVD, a non-finite map counting as singular."""
    return np.array([not opalg.condition_number(m) > nonmarkov.COND_MAX for m in maps])


def spy_svd(monkeypatch):
    """The size of each stack opalg.condition_number sees from now on."""
    seen = []
    svd = opalg.condition_number
    monkeypatch.setattr(opalg, "condition_number", lambda a: seen.append(len(a)) or svd(a))
    return seen


def svd_solved(a, b):
    """_solve_invertible by the per-point path's rules: the SVD's mask, and
    a solve of its own for the maps it holds."""
    ok = svd_mask(a)
    return ok, np.linalg.solve(a[ok].transpose(0, 2, 1), b[ok].transpose(0, 2, 1))


def screened(maps, monkeypatch):
    """(mask, number of maps the SVD saw) of the batched conditioning test,
    solving E A = A."""
    seen = spy_svd(monkeypatch)
    try:
        maps = np.asarray(maps)
        mask = nonmarkov._solve_invertible(maps, maps)[0]
    finally:
        monkeypatch.undo()
    return mask, sum(seen)


def maps_with_spectrum(spec, n=64, seed=71):
    """n maps U diag(spec) V^dag with Haar-random unitaries U, V."""
    rng = np.random.default_rng(seed)

    def unitaries():
        z = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        return np.linalg.qr(z)[0]

    return (unitaries() * np.asarray(spec, dtype=float)) @ unitaries().conj().transpose(0, 2, 1)


def spectra(c):
    """Singular values with cond c. est = ||A||_F ||A^-1||_F is about
    sqrt(3) c for the first two, c + 2 for the third, the least a 4 x 4
    map reaches, and 2 c for the fourth, the most it reaches at large c."""
    return {
        "one_small": [1.0, 1.0, 1.0, 1.0 / c],
        "one_large": [1.0, 1.0 / c, 1.0 / c, 1.0 / c],
        "geometric": [1.0, c ** -0.5, c ** -0.5, 1.0 / c],
        "two_small": [1.0, 1.0, 1.0 / c, 1.0 / c],
    }


class TestInvertibleScreen:
    """The Frobenius screen behind the batched mask against the SVD."""

    @pytest.mark.parametrize("rel", [-1e-7, 1e-7])
    @pytest.mark.parametrize("kind", ["one_small", "one_large", "geometric", "two_small"])
    def test_at_cond_max(self, kind, rel, monkeypatch):
        # the SVD's own rounding (about 1e-6 here) puts some maps on each
        # side of COND_MAX, so every one must reach it
        maps = maps_with_spectrum(spectra(nonmarkov.COND_MAX * (1.0 + rel))[kind])
        mask, n_svd = screened(maps, monkeypatch)
        assert np.array_equal(mask, svd_mask(maps))
        assert n_svd == len(maps)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_at_the_screens_edges(self, side, monkeypatch):
        # est = c + 2 (geometric) at the lower cut-off, est = 2 c
        # (two_small) at the upper one; outside the band the SVD sees none
        s = nonmarkov._SCREEN_SLACK
        low = nonmarkov.COND_MAX * (1.0 - s) * (1.0 + side * 1e-4)
        high = 2.0 * nonmarkov.COND_MAX * (1.0 + s) * (1.0 - side * 1e-4)
        maps = np.concatenate([maps_with_spectrum(spectra(low)["geometric"]),
                               maps_with_spectrum(spectra(high)["two_small"])])
        mask, n_svd = screened(maps, monkeypatch)
        assert np.array_equal(mask, svd_mask(maps))
        assert mask[:64].all() and not mask[64:].any()
        assert n_svd == (len(maps) if side == 1 else 0)

    def test_exactly_singular_map_sends_the_stack_to_the_svd(self, monkeypatch):
        maps = maps_with_spectrum([1.0, 0.5, 0.2, 0.1], n=8)
        maps[3, :, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(maps)
        mask, n_svd = screened(maps, monkeypatch)
        assert np.array_equal(mask, svd_mask(maps))
        assert not mask[3] and mask.sum() == 7
        assert n_svd == 8

    def test_overflowing_norms_go_to_the_svd(self, monkeypatch):
        # inverse entries of 1e300, and a well-conditioned map whose own
        # squared norm overflows or underflows; no overflow warning escapes
        maps = np.stack([np.diag([1.0, 1.0, 1.0, 1e-300]),
                         np.diag([1.0, 1e-300, 1.0, 1.0])[[1, 3, 0, 2]],
                         1e160 * np.eye(4), 1e-160 * np.eye(4), np.eye(4)]).astype(complex)
        mask, n_svd = screened(maps, monkeypatch)
        assert np.array_equal(mask, svd_mask(maps))
        assert mask.tolist() == [False, False, True, True, True]
        assert n_svd == 4

    def test_nan_map_is_singular_without_the_svd(self, monkeypatch):
        maps = maps_with_spectrum([1.0, 0.5, 0.2, 0.1], n=4)
        maps[1, 2, 0] = np.nan
        maps[2] = np.inf
        mask, n_svd = screened(maps, monkeypatch)
        assert np.array_equal(mask, svd_mask(maps))
        assert mask.tolist() == [True, False, False, True]
        assert n_svd == 0

    def test_svd_sees_few_points_of_a_fig2_run(self, monkeypatch):
        # f = 1 at fig2's eps over 100 / J crosses the cut-off near t = 59
        model = symmetric_model(1.0)
        seen = spy_svd(monkeypatch)
        (res,) = nm_sweep([model], eps=0.01, horizon=100.0)
        assert 1000 < len(res.skipped_times) and res.horizon < 60.0
        assert 0 < sum(seen) < 0.05 * 10_000
        monkeypatch.setattr(nonmarkov, "_solve_invertible", svd_solved)
        assert_same_result(res, nm_sweep([model], eps=0.01, horizon=100.0)[0])


SWEEP_FS = (0.01, 1.0, 3.6554, 100.0)  # 10, 27, 37 and 1000 steps per eps of 0.01


class Overran(Exception):
    """A block outlived its deadline; not an OSError, which
    multiprocessing's wait for a child swallows."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Overran in the block after seconds, so a sweep that would
    wait on its workers forever fails instead."""
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def split_ways(monkeypatch):
    """Yield k = 1, 2 and 3 in turn while nm_sweep sees k usable CPUs, so
    it splits its models k ways; no worker outlives the splits."""
    for k in (1, 2, 3):
        monkeypatch.setattr(nonmarkov, "_usable_cpus", lambda k=k: k)
        yield k
    assert multiprocessing.active_children() == []


def assert_same_result(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.g, b.g)
    assert a.integral == b.integral and a.d_nm == b.d_nm
    assert a.horizon == b.horizon
    assert np.array_equal(a.skipped_times, b.skipped_times)


class TestSweep:
    """nm_sweep: one stacked tomography, streamed block by block into the rates."""

    def test_bit_identical_to_solo_runs(self, monkeypatch):
        # 1201 grid points: ten blocks at the default 128 marks, so the
        # rates cross nine block seams, and two blocks at 1024 marks
        assert dynamics._CHUNK == 128
        self.check_bit_identical_to_solo_runs(monkeypatch)
        monkeypatch.setattr(dynamics, "_CHUNK", 1024)
        self.check_bit_identical_to_solo_runs(monkeypatch)
        # parts of one d = 6 stride operator's bytes: each model steps alone
        monkeypatch.setattr(dynamics, "_STACK_BYTES", 16 * 6 ** 4)
        self.check_bit_identical_to_solo_runs(monkeypatch, part=1)

    def test_bit_identical_to_solo_runs_across_short_blocks(self, monkeypatch):
        # 200 blocks of 7 marks, so the rates cross many block seams
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        self.check_bit_identical_to_solo_runs(monkeypatch)

    @staticmethod
    def check_bit_identical_to_solo_runs(monkeypatch, part=len(SWEEP_FS)):
        """Each split gives the solo results; a spy on the aggregated
        engine sees this process's share step in parts of part models."""
        models = [symmetric_model(f) for f in SWEEP_FS]
        solo = [nm_measure(map_tomography(model, 0.01, 12.0)) for model in models]
        sizes, real = [], dynamics._aggregated

        def spy(models, *args):
            sizes.append(len(models))
            return real(models, *args)

        monkeypatch.setattr(dynamics, "_aggregated", spy)
        for k in split_ways(monkeypatch):
            sizes.clear()
            swept = nm_sweep(models, eps=0.01, horizon=12.0)
            share = len(models[0::k])
            assert sizes == [min(part, share - i) for i in range(0, share, part)]
            assert isinstance(swept, list) and len(swept) == len(models)
            for res, ref in zip(swept, solo):
                assert_same_result(res, ref)

    def test_results_share_one_grid(self):
        models = [symmetric_model(f) for f in SWEEP_FS]
        swept = nm_sweep(models, eps=0.01, horizon=60.0)
        t_grid = uniform_grid(60.0, 0.01)
        # f = 1 loses its maps near t = 59, so the prefixes differ in length
        assert len({res.times.shape[0] for res in swept}) > 1
        for res in swept:
            assert np.shares_memory(res.times, swept[0].times)
            assert res.grid is swept[0].grid
            assert np.array_equal(res.grid, t_grid)
            assert res.invertible.dtype == bool and res.invertible.shape == (t_grid.shape[0] - 1,)
            assert res.skipped_times.dtype == np.float64
            assert np.array_equal(res.skipped_times, t_grid[:-1][~res.invertible])
        assert len(swept[1].skipped_times) > 0

    def test_failing_model_drops_alone(self, monkeypatch):
        # model 1 is in a worker's share whenever the models split
        models = [symmetric_model(f) for f in SWEEP_FS]
        broken = dataclasses.replace(models[1], h_eff=np.full_like(models[1].h_eff, np.nan))
        with pytest.raises(NumericalDriftError) as exc:
            map_tomography(broken, 0.01, 12.0)
        solo = [nm_measure(map_tomography(model, 0.01, 12.0)) for model in models]
        for _ in split_ways(monkeypatch):
            swept = nm_sweep([models[0], broken] + models[2:], eps=0.01, horizon=12.0)
            assert type(swept[1]) is NumericalDriftError
            assert str(swept[1]) == str(exc.value)
            for i in (0, 2, 3):
                assert_same_result(swept[i], solo[i])

    def test_failing_part_drops_its_models_alone(self, monkeypatch):
        # at d = 34 the tomography runs on the direct engine, one model a
        # part; under a cap of 1000 Taylor sub-steps per mark f = 1000's
        # plan fails before it steps, while f = 0.01 and 0.1 take one
        # sub-step a mark
        monkeypatch.setattr(dynamics, "MAX_GRID_POINTS", 1000)
        models = [symmetric_model(f, n_fock=17) for f in (0.01, 1000.0, 0.1)]
        assert dynamics.engine_for(models[0]) == "direct"
        with pytest.raises(NumericalDriftError, match="more than 1000 Taylor sub-steps") as exc:
            map_tomography(models[1], 0.05, 2.0)
        solo = [nm_measure(map_tomography(models[i], 0.05, 2.0)) for i in (0, 2)]
        for _ in split_ways(monkeypatch):
            swept = nm_sweep(models, eps=0.05, horizon=2.0)
            assert type(swept[1]) is NumericalDriftError
            assert str(swept[1]) == str(exc.value)
            assert_same_result(swept[0], solo[0])
            assert_same_result(swept[2], solo[1])

    @pytest.mark.parametrize("k", [2, 3])
    def test_worker_that_exits_without_sending_raises(self, k, monkeypatch):
        monkeypatch.setattr(nonmarkov, "_usable_cpus", lambda: k)
        parent, share = os.getpid(), nonmarkov._sweep_rates

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return share(*args)

        monkeypatch.setattr(nonmarkov, "_sweep_rates", dying)
        models = [symmetric_model(f) for f in SWEEP_FS]
        with deadline(30), pytest.raises(DimerNMError, match="exited with code 3 before sending"):
            nm_sweep(models, eps=0.01, horizon=2.0)
        assert multiprocessing.active_children() == []

    def test_worker_share_error_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(nonmarkov, "_usable_cpus", lambda: 2)
        parent, share = os.getpid(), nonmarkov._sweep_rates

        def failing(*args):
            if os.getpid() != parent:
                raise SingularSystemError("worker share", cond=5.0)
            return share(*args)

        monkeypatch.setattr(nonmarkov, "_sweep_rates", failing)
        models = [symmetric_model(f) for f in SWEEP_FS]
        with deadline(30), pytest.raises(SingularSystemError, match="worker share") as exc:
            nm_sweep(models, eps=0.01, horizon=2.0)
        assert exc.value.cond == 5.0
        assert multiprocessing.active_children() == []

    def test_error_here_terminates_the_workers(self, monkeypatch):
        monkeypatch.setattr(nonmarkov, "_usable_cpus", lambda: 3)
        parent, share = os.getpid(), nonmarkov._sweep_rates

        def stalled(*args):
            if os.getpid() != parent:
                time.sleep(60.0)
                return share(*args)
            raise NumericalDriftError("parent share")

        monkeypatch.setattr(nonmarkov, "_sweep_rates", stalled)
        models = [symmetric_model(f) for f in SWEEP_FS]
        with deadline(30), pytest.raises(NumericalDriftError, match="parent share"):
            nm_sweep(models, eps=0.01, horizon=2.0)
        assert multiprocessing.active_children() == []

    def test_failing_f_is_a_nan_row_with_its_note(self, monkeypatch, caplog):
        cfg = RunConfig(experiment="nmm", f_list="0.01,1,3.6554", eps=0.05, horizon=12.0)
        clean = run_f_sweep(cfg)[0].splitlines()
        build = harness.model_for

        def model_for(cfg, f, n_fock=None):
            m = build(cfg, f, n_fock)
            return dataclasses.replace(m, h_eff=m.h_eff * np.nan) if f == 1.0 else m

        monkeypatch.setattr(harness, "model_for", model_for)
        caplog.clear()
        broken = run_f_sweep(cfg)[0].splitlines()
        assert broken[1] == clean[1] and broken[3] == clean[3]
        assert broken[2].split(",")[1:3] == ["nan", "nan"]
        assert "nmm: f=1: trace drifted by nan" in caplog.text

    def test_sweep_level_error_fills_every_row(self, caplog):
        cfg = RunConfig(experiment="nmm", f_list="0.1,1", eps=0.01, horizon=2.0)
        # set past RunConfig's own check, which freezes the config, so
        # nm_sweep rejects it
        object.__setattr__(cfg, "eps", -0.01)
        rows = [line.split(",") for line in run_f_sweep(cfg)[0].splitlines()[1:]]
        assert [row[1] for row in rows] == ["nan", "nan"]
        assert caplog.text.count("horizon and eps must be positive") == 2

    def test_no_model_builds(self, tmp_path, capsys):
        # a model kind its parameters do not fit stops the run before any
        # f, as a configuration error
        with pytest.raises(ConfigError, match="symmetric model requires identical"):
            RunConfig(experiment="nmm", model="symmetric", g2=2.0, f_list="0.1,1",
                      eps=0.05, horizon=2.0)
        path = tmp_path / "unequal.cfg"
        path.write_text("model = symmetric\ng2 = 2\n")
        out = str(tmp_path / "unequal")
        assert cli.main(["nmm", "--f", "0.1", "--eps", "0.05", "--horizon", "2",
                         "--config", str(path), "--out", out]) == 2
        assert "configuration error: symmetric model requires" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")
