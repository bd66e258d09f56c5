"""Master-equation integration, the superoperator form, and steady states."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dimer_nm import dynamics, opalg
from dimer_nm import model as model_module
from dimer_nm.dynamics import (
    BASE_DT,
    EIG_FLOOR,
    MAX_SUPEROP_DIM,
    TRACE_ABORT_TOL,
    check_drift,
    engine_for,
    expectation,
    integrate,
    liouvillian_matrix,
    propagate,
    rk4_transfer_matrix,
    sparse_generator,
    steady_state,
    steps_over,
    suggest_dt,
    trace_stack,
)
from dimer_nm.entanglement import log_negativity, reduce_to_dimer, singlet_overlap
from dimer_nm.errors import (
    DimensionError,
    DimerNMError,
    NonUniqueSteadyStateError,
    NumericalDriftError,
    SingularSystemError,
)
from dimer_nm.harness import initial_state
from dimer_nm.model import (
    LindbladModel,
    ModelParams,
    apply_f,
    build_full_model,
    build_global_mode_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
)
from oracles import defects_by_eigenvalues, rhs

GAMMA_EFF = 0.1  # 2 g^2 / kappa at the default parameters, any f


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def symmetric_model(f, **kwargs):
    return build_symmetric_model(apply_f(f, ModelParams.symmetric(**kwargs)))


def asymmetric_full_model(n_fock, f=0.1, g1=None, **kwargs):
    """Full model with g2 = 2 g1, dims (2, n_fock, n_fock); kwargs replace
    further parameters."""
    p = ModelParams.symmetric(n_fock=n_fock)
    g1 = p.g1 if g1 is None else g1
    return build_full_model(apply_f(f, dataclasses.replace(p, g1=g1, g2=2.0 * g1, **kwargs)))


def kron_generator(model):
    """The dense np.kron formula that generator_triplets replaced."""
    eye = np.eye(model.dim, dtype=complex)
    h = model.h_eff
    lmat = -1j * np.kron(eye, h) + 1j * np.kron(h.conj(), eye)
    for op, rate in model.jumps:
        lmat += rate * np.kron(op.conj(), op)
    return lmat


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def no_propagate(*args, **kwargs):
    raise AssertionError("the run stepped")


FORCE_DENSE = 10 ** 9  # SPARSE_STEADY_MIN_DIM values that force one path
FORCE_SPARSE = 0


class TestRhs:
    def test_closed_system_commutator(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_hermitian(rng, 2)
            expect = -1j * (m.h_herm @ rho - rho @ m.h_herm)
            assert np.allclose(rhs(m, rho), expect, atol=1e-14)

    def test_traceless(self):
        m = symmetric_model(0.1)
        rng = np.random.default_rng(32)
        for _ in range(100):
            rho = random_hermitian(rng, m.dim)
            val = abs(np.trace(rhs(m, rho)))
            assert val <= 1e-12 * np.linalg.norm(rho)

    def test_vanishes_at_steady_state(self):
        m = symmetric_model(0.1)
        ss = steady_state(m)
        assert np.max(np.abs(rhs(m, ss))) < 1e-9

    def test_rejects_dimension_mismatch(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimensionError):
            rhs(m, np.eye(5))


class TestLiouvillianMatrix:
    def test_matches_rhs(self):
        m = symmetric_model(0.1)
        lmat = liouvillian_matrix(m)
        rng = np.random.default_rng(33)
        for _ in range(20):
            rho = rng.standard_normal((m.dim, m.dim)) + 1j * rng.standard_normal(
                (m.dim, m.dim)
            )
            via_matrix = opalg.unvec(lmat @ opalg.vec(rho))
            direct = rhs(m, rho)
            scale = max(np.max(np.abs(direct)), 1.0)
            assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * scale

    def test_trace_row_vanishes(self):
        m = symmetric_model(0.1)
        lmat = liouvillian_matrix(m)
        trace_row = opalg.vec(np.eye(m.dim)).conj() @ lmat
        assert np.max(np.abs(trace_row)) < 1e-10

    def test_annihilates_steady_state(self):
        m = symmetric_model(0.1)
        lmat = liouvillian_matrix(m)
        ss = steady_state(m)
        assert np.linalg.norm(lmat @ opalg.vec(ss)) <= 1e-9

    def test_unitary_spectrum_imaginary(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        lmat = liouvillian_matrix(m)
        evals = np.linalg.eigvals(lmat)
        assert np.max(np.abs(evals.real)) < 1e-10

    def test_rejects_oversize(self):
        m = build_full_model(apply_f(0.1, ModelParams.symmetric(n_fock=6)))
        assert m.dim == 72
        with pytest.raises(DimensionError):
            liouvillian_matrix(m)


class TestGenerator:
    @pytest.mark.parametrize("n_fock", [None, 3], ids=["symmetric_d6", "full_d18"])
    def test_densified_triplets_match_kron_formula_and_rhs(self, n_fock):
        m = symmetric_model(0.1) if n_fock is None else asymmetric_full_model(n_fock)
        lmat = liouvillian_matrix(m)
        assert np.max(np.abs(lmat - kron_generator(m))) <= 1e-15 * np.max(np.abs(lmat))
        rng = np.random.default_rng(36)
        for _ in range(5):
            rho = random_matrix(rng, m.dim)
            direct = rhs(m, rho)
            via_matrix = opalg.unvec(lmat @ opalg.vec(rho))
            assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_sparse_matvec_matches_rhs_beyond_dense_guard(self):
        m = asymmetric_full_model(6)
        assert m.dim == 72 > MAX_SUPEROP_DIM
        gen = sparse_generator(m.h_eff, m.jumps)
        rng = np.random.default_rng(37)
        for _ in range(3):
            rho = random_matrix(rng, m.dim)
            direct = rhs(m, rho)
            via_matrix = opalg.unvec(gen @ opalg.vec(rho))
            assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestIntegrate:
    def test_two_level_exchange_oscillation(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        traj = integrate(m, rho0, 10.0, dt=1e-3, observables=("inversion",))
        expect = np.cos(2.0 * traj.times)
        assert np.max(np.abs(traj.observables["inversion"] - expect)) < 1e-6

    def test_state_invariants_along_run(self):
        m = symmetric_model(0.1)
        traj = integrate(m, initial_state(m), 50.0, observables=[])
        assert traj.diagnostics["max_trace_defect"] <= 1e-9
        assert traj.diagnostics["max_hermiticity_defect"] <= 1e-10
        assert np.linalg.eigvalsh(opalg.hermitize(traj.states))[:, 0].min() >= -1e-8
        assert np.all(np.diff(traj.times) > 0)
        # spot-check a stored state directly
        mid = traj.states[traj.states.shape[0] // 2]
        assert abs(np.trace(mid) - 1.0) <= 1e-9
        assert opalg.hermiticity_defect(mid) <= 1e-10

    def test_closed_system_purity_conserved(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        psi = np.array([0.6, 0.8j], dtype=complex)
        rho0 = np.outer(psi, psi.conj())
        traj = integrate(m, rho0, 50.0, observables=[])
        purities = [np.trace(s @ s).real for s in traj.states]
        assert np.max(np.abs(np.asarray(purities) - 1.0)) <= 1e-8

    def test_observed_order_of_convergence(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        u = np.cos(1.0) * np.eye(2) - 1j * np.sin(1.0) * np.array([[0, 1], [1, 0]])
        exact = u @ rho0 @ u.conj().T
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate(m, rho0, 1.0, dt=dt, store_every=1000, observables=[])
            errs.append(np.max(np.abs(traj.states[-1] - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_engines_agree(self):
        m = symmetric_model(0.1)
        rho0 = initial_state(m)
        kw = dict(dt=1e-3, store_every=200, observables=[])
        direct = integrate(m, rho0, 2.0, method="direct", **kw)
        aggregated = integrate(m, rho0, 2.0, method="aggregated", **kw)
        assert direct.diagnostics["method"] == "direct"
        assert aggregated.diagnostics["method"] == "aggregated"
        diff = np.max(np.abs(direct.states - aggregated.states))
        assert diff < 1e-10

    def test_unstable_step_aborts_with_diagnostic(self):
        m = symmetric_model(100.0)
        with pytest.raises(NumericalDriftError) as exc:
            integrate(m, initial_state(m), 0.3, dt=0.01, observables=[])
        assert "dt" in str(exc.value)

    def test_drift_error_names_the_first_drifting_time(self):
        # just past the RK4 stability limit (fastest rate 8000) the trace
        # error grows about 2 % per step and first exceeds the tolerance
        # beyond the first check block, well before anything overflows
        m = symmetric_model(100.0)
        n_steps, t_end = 2500, 2500 * 3.5e-4
        p = rk4_transfer_matrix(liouvillian_matrix(m), t_end / n_steps)
        v = opalg.vec(initial_state(m))
        trace_row = opalg.vec(np.eye(m.dim)).conj()
        first = None
        for k in range(1, n_steps + 1):
            v = p @ v
            if first is None and abs(trace_row @ v - 1.0) > TRACE_ABORT_TOL:
                first = k
        assert dynamics._CHUNK < first < n_steps
        with pytest.raises(NumericalDriftError) as exc:
            integrate(m, initial_state(m), t_end, dt=t_end / n_steps, store_every=1,
                      observables=[], method="aggregated")
        assert f"at t={first * t_end / n_steps:.6g} " in str(exc.value)

    def test_negative_eigenvalue_aborts_while_the_trace_holds(self):
        # at this step the f = 100 model sits on the RK4 stability edge:
        # the traceless part of the state grows until its lowest
        # eigenvalue reaches -3e8, while the trace stays within
        # TRACE_ABORT_TOL, so only the eigenvalue floor catches it
        m = symmetric_model(100.0)
        dt, n_steps = 3.5e-4, 1800
        p = rk4_transfer_matrix(liouvillian_matrix(m), dt)
        v = opalg.vec(initial_state(m))
        trace_row = opalg.vec(np.eye(m.dim)).conj()
        first = None
        for k in range(1, n_steps + 1):
            v = p @ v
            assert abs(trace_row @ v - 1.0) <= TRACE_ABORT_TOL
            low = np.linalg.eigvalsh(opalg.hermitize(opalg.unvec(v)))[0]
            if first is None and low < EIG_FLOOR:
                first = k
        assert first is not None and low < -1.0
        with pytest.raises(NumericalDriftError) as exc:
            integrate(m, initial_state(m), n_steps * dt, dt=dt, store_every=1,
                      observables=[], method="aggregated")
        assert str(exc.value).startswith("lowest eigenvalue")
        assert f"at t={first * dt:.6g} " in str(exc.value)
        assert str(exc.value).endswith(f"(dt={dt:.3e})")

    def test_checked_state_and_integrate_share_the_eigenvalue_floor(self):
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        below = np.diag([1.0 - 2 * EIG_FLOOR, 2 * EIG_FLOOR]).astype(complex)
        above = np.diag([1.0 - EIG_FLOOR / 2, EIG_FLOOR / 2]).astype(complex)
        with pytest.raises(NumericalDriftError):
            dynamics._checked_state(below)
        with pytest.raises(NumericalDriftError) as exc:
            integrate(m, below, 1.0, observables=[])
        assert "at t=0 " in str(exc.value)
        dynamics._checked_state(above)
        # exchange keeps the spectrum and dephasing mixes, so the lowest
        # eigenvalue never falls below its start
        states = integrate(m, above, 1.0, observables=[]).states
        assert np.linalg.eigvalsh(opalg.hermitize(states))[:, 0].min() >= EIG_FLOOR

    def test_stacked_observables_match_per_state(self):
        m = asymmetric_full_model(3)
        traj = integrate(m, initial_state(m), 1.0, store_every=100)
        assert set(traj.observables) == {
            "inversion", "log_negativity", "singlet_overlap", "mode_excitation"}
        numbers = [opalg.embed(opalg.make_destroy(3).conj().T @ opalg.make_destroy(3),
                               slot, m.dims) for slot in (1, 2)]
        for k, rho in enumerate(traj.states):
            red = reduce_to_dimer(rho, m.dims, m.basis)
            assert traj.observables["inversion"][k] == (red.rho[1, 1] - red.rho[0, 0]).real
            assert traj.observables["log_negativity"][k] == log_negativity(red)
            assert traj.observables["singlet_overlap"][k] == singlet_overlap(red)
            assert traj.observables["mode_excitation"][k] == pytest.approx(
                max(expectation(rho, n) for n in numbers), abs=1e-14)

    def test_unknown_observable_rejected(self, monkeypatch):
        m = symmetric_model(0.1)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), 0.1, observables=("purity",))
        # rejected before the run steps, also after a valid name
        monkeypatch.setattr(dynamics, "propagate", no_propagate)
        with pytest.raises(DimerNMError, match="^unknown observable 'purity'$"):
            integrate(m, initial_state(m), 0.1, observables=("inversion", "purity"))

    def test_rejects_bad_inputs(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimensionError):
            integrate(m, np.eye(5), 1.0)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), -1.0)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), 1.0, method="leapfrog")
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(DimerNMError, match="dt must be positive"):
                integrate(m, initial_state(m), 0.01, dt=dt)
        for store_every in (0, -3, 2.7, float("nan"), float("inf")):
            with pytest.raises(DimerNMError, match="store_every must be a whole number >= 1"):
                integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=store_every)
        with pytest.raises(DimerNMError, match="store_every must be within float range"):
            integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=10 ** 400)

    def test_store_every_past_int64_stores_the_ends(self):
        m = symmetric_model(0.1)
        ends = integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=10 ** 300,
                         observables=[])
        assert np.array_equal(ends.times, [0.0, 0.01])
        idiom = integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=10 ** 9,
                          observables=[])
        assert np.array_equal(ends.states, idiom.states)

    def test_caps_the_stored_states(self, monkeypatch):
        # 1e12 steps stored every 10 would take 1e11 + 1 states; the cap
        # is checked before anything is allocated
        m = symmetric_model(0.1)
        with pytest.raises(DimerNMError, match=r"^t_end 1e\+09 at step 1\.000e-03 stored every "
                                               r"10 steps would take 100000000001 states"):
            integrate(m, initial_state(m), 1e9)
        # the count takes in the start and a partial last interval
        monkeypatch.setattr(dynamics, "MAX_GRID_POINTS", 5)
        assert integrate(m, initial_state(m), 0.04, dt=1e-3, observables=[]).times.shape == (5,)
        with pytest.raises(DimerNMError, match="would take 6 states, more than 5"):
            integrate(m, initial_state(m), 0.041, dt=1e-3, observables=[])

    def test_rejects_non_finite_t_end(self):
        m = symmetric_model(0.1)
        for t_end in (float("nan"), float("inf")):
            with pytest.raises(DimerNMError, match="t_end must be positive and finite"):
                integrate(m, initial_state(m), t_end)

    def test_whole_float_store_every_is_a_count(self):
        m = symmetric_model(0.1)
        traj = integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=3.0, observables=[])
        assert np.array_equal(traj.times, 1e-3 * np.array([0, 3, 6, 9, 10]))

    def test_no_step_means_suggest_dt(self):
        m = symmetric_model(100.0)
        traj = integrate(m, initial_state(m), 0.01, observables=[])
        assert traj.diagnostics["dt"] == suggest_dt(m)

    def test_mode_excitation_needs_modes(self, monkeypatch):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        with pytest.raises(DimerNMError):
            integrate(m, np.eye(2, dtype=complex) / 2, 1.0,
                      observables=("mode_excitation",))
        monkeypatch.setattr(dynamics, "propagate", no_propagate)
        with pytest.raises(DimerNMError, match="^mode_excitation requires a model with mode"):
            integrate(m, np.eye(2, dtype=complex) / 2, 1.0,
                      observables=("mode_excitation",))


class TestTraceStack:
    """trace_stack steps its runs as one propagation and gives each model
    the bits and the error integrate gives it alone."""

    @pytest.mark.parametrize("method", ["aggregated", "direct"])
    @pytest.mark.parametrize("t_end, tail", [(0.3, 0), (0.305, 5)])
    def test_each_model_gets_its_solo_bits(self, monkeypatch, method, t_end, tail):
        # 30 whole store intervals of 10, 20 and 40 steps, and with a tail
        # a last one of 5, 10 and 20, over 7-mark blocks
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        models = [symmetric_model(f) for f in (0.1, 1.0, 10.0)]
        rho0s = [initial_state(m) for m in models]
        dts, strides = [1e-3, 5e-4, 2.5e-4], [10, 20, 40]
        stacked = trace_stack(models, rho0s, t_end, dts, strides, method=method)
        for i, traj in enumerate(stacked):
            alone = integrate(models[i], rho0s[i], t_end, dt=dts[i], store_every=strides[i],
                              method=method)
            assert traj.states is None
            assert traj.diagnostics == alone.diagnostics
            assert traj.diagnostics["n_steps"] == (300 + tail) * 2 ** i
            assert np.array_equal(traj.times, alone.times)
            assert set(traj.observables) == {
                "inversion", "log_negativity", "singlet_overlap", "mode_excitation"}
            for name, values in alone.observables.items():
                assert np.array_equal(traj.observables[name], values)

    def test_aggregated_stack_steps_in_parts(self, monkeypatch):
        # a part holds at most _STACK_BYTES of stride operators, 16 d^4
        # bytes each: 3 at d = 6 under a cap of 70,000 bytes, so four
        # models step as 3 and 1, whole intervals then tail in each; the
        # direct engine holds no operator and steps all four as one
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        monkeypatch.setattr(dynamics, "_STACK_BYTES", 70_000)
        sizes = []
        real = dynamics.propagate

        def spy(models, *args, **kwargs):
            sizes.append(len(models))
            return real(models, *args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate", spy)
        models = [symmetric_model(f) for f in (0.1, 0.3, 1.0, 3.0)]
        rho0s = [initial_state(m) for m in models]
        for method, parts in (("aggregated", [3, 3, 1, 1]), ("direct", [4, 4])):
            sizes.clear()
            stacked = trace_stack(models, rho0s, 0.305, [1e-3] * 4, [10] * 4, method=method)
            assert sizes == parts
            for model, rho0, traj in zip(models, rho0s, stacked):
                alone = integrate(model, rho0, 0.305, dt=1e-3, store_every=10, method=method)
                assert traj.diagnostics == alone.diagnostics
                for name, values in alone.observables.items():
                    assert np.array_equal(traj.observables[name], values)

    def test_drifting_model_raises_its_solo_error(self, monkeypatch):
        # f = 100 sits past the RK4 stability limit at this step and
        # drifts past the first blocks (TestIntegrate); a model below the
        # eigenvalue floor from the start fails first in the stack
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        models = [symmetric_model(f) for f in (0.1, 100.0, 1.0)]
        dt, t_end = 3.5e-4, 2500 * 3.5e-4
        below = np.diag([1.0 - 2 * EIG_FLOOR, 2 * EIG_FLOOR, 0, 0, 0, 0]).astype(complex)
        starts = [initial_state(m) for m in models]
        for rho0s, failing, head in ((starts, 1, "trace drifted by "),
                                     ([below] + starts[1:], 0, "lowest eigenvalue ")):
            with pytest.raises(NumericalDriftError) as alone:
                integrate(models[failing], rho0s[failing], t_end, dt=dt, store_every=1,
                          method="aggregated")
            with pytest.raises(NumericalDriftError) as stacked:
                trace_stack(models, rho0s, t_end, [dt] * 3, [1] * 3, method="aggregated")
            assert str(stacked.value) == str(alone.value)
            assert str(alone.value).startswith(head)

    @pytest.mark.parametrize("method, stack_bytes", [("aggregated", 4 * 2**20),
                                                     ("aggregated", 256), ("direct", 4 * 2**20)])
    def test_first_failing_model_wins(self, monkeypatch, method, stack_bytes):
        # under a cap of 256 bytes the aggregated engine steps each d = 2
        # model alone
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        monkeypatch.setattr(dynamics, "_STACK_BYTES", stack_bytes)
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        good = np.diag([0.5, 0.5]).astype(complex)
        lows = [np.diag([1.0 - k * EIG_FLOOR, k * EIG_FLOOR]).astype(complex) for k in (2, 3)]
        with pytest.raises(NumericalDriftError) as alone:
            integrate(m, lows[0], 0.1, method=method)
        with pytest.raises(NumericalDriftError) as stacked:
            trace_stack([m] * 3, [good] + lows, 0.1, [None] * 3, [10] * 3, method=method)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("lowest eigenvalue -2.000e-08 at t=0 ")

    def test_observable_error_waits_for_the_checks(self, monkeypatch):
        # an anti-Hermitian part on the sector's diagonal fails
        # singlet_overlap's imaginary-part check from the first state on;
        # a run that also fails a check in a later block raises that
        # check's error, as checks come first
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        m = symmetric_model(100.0)
        rho0 = initial_state(m) + np.diag([1e-3j, 0, 0, -1e-3j, 0, 0])
        with pytest.raises(DimerNMError, match="^overlap has imaginary part 1.000e-03$"):
            integrate(m, rho0, 0.1)
        dt, t_end = 3.5e-4, 2500 * 3.5e-4
        with pytest.raises(NumericalDriftError) as alone:
            integrate(m, rho0, t_end, dt=dt, store_every=1, method="aggregated")
        assert str(alone.value).startswith("trace drifted by ")
        fine = symmetric_model(0.1)
        with pytest.raises(NumericalDriftError) as stacked:
            trace_stack([fine, m], [initial_state(fine), rho0], t_end, [dt] * 2, [1] * 2,
                        method="aggregated")
        assert str(stacked.value) == str(alone.value)

    def test_inputs_checked_before_any_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "propagate", no_propagate)
        m = symmetric_model(0.1)
        rho0 = initial_state(m)
        with pytest.raises(DimensionError):
            trace_stack([m, m], [rho0, np.eye(5)], 0.1, [None] * 2, [10] * 2)
        with pytest.raises(DimerNMError, match="^unknown observable 'purity'$"):
            trace_stack([m, m], [rho0] * 2, 0.1, [None] * 2, [10] * 2, observables=("purity",))
        # 10 whole intervals against 5, and a tail of 5 steps against none
        for strides in ([10, 20], [10, 15]):
            with pytest.raises(DimerNMError, match="^stacked runs store at different marks: "):
                trace_stack([m, m], [rho0] * 2, 0.1, [None] * 2, strides)
        assert trace_stack([], [], 0.1, [], []) == []


class TestStepsOver:
    def test_whole_multiples_take_no_extra_step(self):
        # the quotients land just off the integer, on either side:
        # 2.9999999999999996, 3.0000000000000004, 6.000000000000001,
        # 999.9999999999999
        assert steps_over(0.3, 0.1) == 3
        assert steps_over(3 * 0.1, 0.1) == 3
        assert steps_over(3 * 0.1, 0.05) == 6
        assert steps_over(10 * 1e-3, 1e-5) == 1000
        assert steps_over(1.0, 0.1) == 10

    def test_long_runs_take_no_extra_step(self):
        # 333.3 at 0.01 / 886 is 29530380 steps, a quotient that rounds
        # to 29530380.000000004: 4e-9 above, beyond an absolute 1e-9
        assert 333.3 / (0.01 / 886) - 33330 * 886 > 1e-9
        assert steps_over(333.3, 0.01 / 886) == 33330 * 886

    def test_any_excess_takes_one_more_step(self):
        assert steps_over(1e-3, 1e-3 / 1.4) == 2
        assert steps_over(1.0 + 1e-6, 0.1) == 11

    def test_at_least_one_step(self):
        assert steps_over(1e-12, 1.0) == 1
        assert steps_over(0.0, 1.0) == 1

    def test_fewest_steps_none_longer_than_dt(self):
        rng = np.random.default_rng(41)
        for interval, dt in rng.uniform(1e-4, 1.0, size=(200, 2)):
            n = steps_over(interval, dt)
            assert interval / n <= dt * (1 + 1e-8)
            assert n == 1 or interval / (n - 1) > dt


class TestCheckDrift:
    def test_within_tolerance_passes(self):
        check_drift(np.array([0.0, TRACE_ABORT_TOL]), np.array([0.0, 1.0]), 0.1)

    def test_names_the_first_time_over_tolerance(self):
        with pytest.raises(NumericalDriftError) as exc:
            check_drift(np.array([0.0, 2e-6, 5e-6]), np.array([0.0, 0.5, 1.0]), 0.1)
        assert "by 2.000e-06 at t=0.5 (dt=1.000e-01)" in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_as_drift(self, bad):
        with pytest.raises(NumericalDriftError) as exc:
            check_drift(np.array([0.0, bad, 1.0]), np.array([0.0, 0.5, 1.0]), 0.1)
        assert "at t=0.5 " in str(exc.value)


def state_with_spectrum(rng, low, d):
    """A random unit-trace Hermitian matrix of dimension d whose lowest
    eigenvalue is ``low``, to rounding, and whose others are positive."""
    q, _ = np.linalg.qr(random_matrix(rng, d))
    rest = rng.uniform(0.5, 1.0, d - 1)
    return (q * np.append(low, rest * (1.0 - low) / rest.sum())) @ q.conj().T


class TestStateScreen:
    """_defects screens the eigenvalue floor with one shifted Cholesky
    factorization per stack, and must accept and reject exactly as the
    eigvalsh rule, oracles.defects_by_eigenvalues."""

    @staticmethod
    def rejected(stack):
        """The states the screen rejects, after checking every output of
        _defects against the oracle's."""
        trace, herm, low = dynamics._defects(stack)
        o_trace, o_herm, o_low = defects_by_eigenvalues(stack)
        assert np.array_equal(trace, o_trace)
        assert np.array_equal(herm, o_herm)
        # the exact lowest eigenvalue where it is below the floor, the
        # floor where it clears it
        assert np.array_equal(low, np.minimum(o_low, EIG_FLOOR))
        return o_low < EIG_FLOOR

    @pytest.mark.parametrize("d", [6, 72])
    def test_random_density_matrices(self, d):
        rng = np.random.default_rng(d)
        chunk = np.stack([random_density(rng, d) for _ in range(dynamics._CHUNK)])
        assert not self.rejected(chunk).any()
        lows = EIG_FLOOR * rng.choice([-1.0, 1.0], 16) * 10.0 ** rng.uniform(-3, 3, 16)
        mixed = np.stack([state_with_spectrum(rng, low, d) for low in lows])
        assert np.array_equal(self.rejected(mixed), lows < EIG_FLOOR)
        for rho, low in zip(mixed, lows):
            assert self.rejected(rho) == (low < EIG_FLOOR)

    @pytest.mark.parametrize("d", [6, 72])
    def test_lowest_eigenvalue_at_the_floor(self, d):
        rng = np.random.default_rng(100 + d)
        below = state_with_spectrum(rng, EIG_FLOOR * (1 + 1e-3), d)
        above = state_with_spectrum(rng, EIG_FLOOR * (1 - 1e-3), d)
        assert self.rejected(below) and not self.rejected(above)
        assert self.rejected(np.stack([above, below, above])).tolist() == [False, True, False]
        assert not self.rejected(np.stack([above] * 3)).any()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_chunk_with_a_non_finite_state(self, value):
        rng = np.random.default_rng(41)
        chunk = np.stack([random_density(rng, 6) for _ in range(8)])
        chunk[3, 0, 1] = value
        assert not self.rejected(chunk).any()
        chunk[5] = state_with_spectrum(rng, 2 * EIG_FLOOR, 6)
        assert np.flatnonzero(self.rejected(chunk)).tolist() == [5]
        assert np.flatnonzero(~np.isfinite(dynamics._defects(chunk)[0])).tolist() == [3]
        assert not np.isfinite(chunk[3, 0, 1])  # the input is not written

    def test_error_names_the_only_bad_state_of_a_chunk(self):
        rng = np.random.default_rng(77)
        n, dt = 3 * dynamics._CHUNK, 0.01
        states = np.stack([random_density(rng, 6) for _ in range(n)])
        k = dynamics._CHUNK + 77  # index 77 of the second chunk
        states[k] = state_with_spectrum(rng, -1e-6, 6)
        chunk = states[dynamics._CHUNK:2 * dynamics._CHUNK]
        assert np.flatnonzero(self.rejected(chunk)).tolist() == [77]
        times = dt * np.arange(n)
        trace, _, low = np.concatenate([dynamics._defects(states[lo:lo + dynamics._CHUNK])
                                        for lo in range(0, n, dynamics._CHUNK)], axis=1)
        with pytest.raises(NumericalDriftError) as exc:
            dynamics._check_defects(trace, low, times, dt)
        low = defects_by_eigenvalues(states[k])[2]
        assert str(exc.value) == f"lowest eigenvalue {low:.3e} at t={times[k]:.6g} (dt=1.000e-02)"
        assert low < EIG_FLOOR

    def test_checked_state_screens_at_its_floor(self):
        rng = np.random.default_rng(43)
        deep = state_with_spectrum(rng, -1e-6, 6)
        with pytest.raises(NumericalDriftError, match=r"^negative population -1\.000e-06$"):
            dynamics._checked_state(deep)
        shallow = state_with_spectrum(rng, -1e-9, 6)
        assert dynamics._checked_state(shallow) is shallow


def seamless(blocks, axis=0):
    """Blocks of propagate joined along their mark axis, each later block
    without its seam mark, the last mark of the block before."""
    return np.concatenate([blocks[0]] + [np.delete(b, 0, axis=axis) for b in blocks[1:]],
                          axis=axis)


def propagated(model, v0, dt, stride, n_marks, **kwargs):
    """propagate on a stack of one, its blocks joined at their seams; a
    vector v0 goes in as one column and comes out as a vector."""
    column = v0.ndim == 1
    stack = seamless([block[0].copy() for _, block in propagate(
        [model], [v0[:, None] if column else v0], [dt], [stride], n_marks, **kwargs)])
    return stack[..., 0] if column else stack


class TestPropagate:
    def test_marks_count_steps_and_keep_projects(self):
        m = symmetric_model(0.1)
        v0 = opalg.vec(initial_state(m))
        assert engine_for(m, "aggregated") == "aggregated"
        stack = propagated(m, v0, 1e-3, 3, 4, method="aggregated")
        assert stack.shape == (4, m.dim ** 2)
        p = rk4_transfer_matrix(liouvillian_matrix(m), 1e-3)
        for k, mark in enumerate([0, 3, 6, 9]):
            expect = np.linalg.matrix_power(p, mark) @ v0
            assert np.max(np.abs(stack[k] - expect)) <= 1e-14
        keep = np.random.default_rng(43).standard_normal((3, m.dim ** 2))
        kept = propagated(m, v0, 1e-3, 3, 4, keep=keep, method="aggregated")
        assert kept.shape == (4, 3)
        assert np.max(np.abs(kept - stack @ keep.T)) <= 1e-13

    def test_engines_agree_on_columns(self):
        m = symmetric_model(0.1)
        rng = np.random.default_rng(44)
        v0 = rng.standard_normal((m.dim ** 2, 2)) + 1j * rng.standard_normal((m.dim ** 2, 2))
        assert engine_for(m, "direct") == "direct"
        direct = propagated(m, v0, 1e-3, 100, 5, method="direct")
        aggregated = propagated(m, v0, 1e-3, 100, 5, method="aggregated")
        assert direct.shape == (5, m.dim ** 2, 2)
        assert np.max(np.abs(direct - aggregated)) <= 1e-10 * np.max(np.abs(v0))
        single = propagated(m, v0[:, 1], 1e-3, 100, 5, method="direct")
        assert np.max(np.abs(direct[..., 1] - single)) <= 1e-13

    def test_auto_engine_rule(self):
        # the dimension alone decides: aggregated up to the dense cap,
        # direct above it, for a short run as for a long one
        m = symmetric_model(0.1)
        n_cap = MAX_SUPEROP_DIM // 2
        at_cap, over_cap = (symmetric_model(0.1, n_fock=n) for n in (n_cap, n_cap + 1))
        assert at_cap.dim == MAX_SUPEROP_DIM < over_cap.dim
        full = [asymmetric_full_model(n) for n in (5, 6)]
        assert [x.dim for x in full] == [50, 72]
        assert [engine_for(x) for x in (m, at_cap, over_cap, *full)] == \
            ["aggregated", "aggregated", "direct", "direct", "direct"]
        for t_end in (1e-3, 0.05, 5.0):  # 1, 50 and 5000 steps
            traj = integrate(m, initial_state(m), t_end, observables=[])
            assert traj.diagnostics["method"] == "aggregated"

    def test_rejects_unknown_engine(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimerNMError):
            engine_for(m, "leapfrog")
        with pytest.raises(DimerNMError):
            next(propagate([m], [opalg.vec(initial_state(m))[:, None]], [1e-3], [1], 2,
                           method="leapfrog"))

    def test_blocks_hold_at_most_chunk_marks(self):
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        v0 = opalg.vec(np.eye(2) / 2.0)[:, None]
        n_marks = 2 * dynamics._CHUNK + 5
        starts, sizes = [], []
        for lo, block in propagate([m], [v0], [1e-3], [1], n_marks):
            starts.append(lo)
            sizes.append(block.shape[1])
        # each later block starts at the last mark of the block before
        assert max(sizes) <= dynamics._CHUNK
        assert sum(sizes) - (len(sizes) - 1) == n_marks
        assert starts == list(np.cumsum([0] + [s - 1 for s in sizes[:-1]]))

    def test_blocks_share_their_seam_mark(self, monkeypatch):
        # on either engine the seam mark is written twice with the same
        # bits; joined at the seams, the blocks are a run in one block,
        # bit for bit: each mark is one step from the mark before, of one
        # stride operator on the aggregated engine and of one Taylor plan
        # on the direct one
        models = [symmetric_model(f) for f in (0.01, 1.0, 100.0)]
        dts, strides, n_marks = [1e-3, 5e-4, 1e-5], [3, 2, 10], 20
        rng = np.random.default_rng(46)
        v0 = rng.standard_normal((3, models[0].dim ** 2, 4)) + 0j
        for method in ("aggregated", "direct"):
            (whole,) = [block.copy() for _, block in
                        propagate(models, v0, dts, strides, n_marks, method=method)]
            monkeypatch.setattr(dynamics, "_CHUNK", 7)
            blocks = [block.copy() for _, block in
                      propagate(models, v0, dts, strides, n_marks, method=method)]
            monkeypatch.undo()
            assert [b.shape[1] for b in blocks] == [7, 7, 7, 2]
            for before, after in zip(blocks, blocks[1:]):
                assert np.array_equal(after[:, 0], before[:, -1])
            assert np.array_equal(seamless(blocks, axis=1), whole)

    def test_stack_is_bit_identical_to_stacks_of_one(self, monkeypatch):
        # different steps and strides in one stack, over several blocks,
        # each model as it runs alone, on either engine
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        models = [symmetric_model(f) for f in (0.01, 1.0, 100.0)]
        dts = [1e-3, 5e-4, 1e-5]
        strides, n_marks = [3, 2, 10], 20
        rng = np.random.default_rng(45)
        v0 = rng.standard_normal((3, models[0].dim ** 2, 4)) + 0j
        keep = rng.standard_normal((4, models[0].dim ** 2))
        oracles = {
            "aggregated": lambda m, dt, mark: np.linalg.matrix_power(
                rk4_transfer_matrix(liouvillian_matrix(m), dt), mark),
            "direct": lambda m, dt, mark: expm(liouvillian_matrix(m) * (dt * mark)),
        }
        for method, oracle in oracles.items():
            stacked = seamless([block.copy() for _, block in propagate(
                models, v0, dts, strides, n_marks, keep=keep, method=method)], axis=1)
            for i in range(3):
                alone = propagated(models[i], v0[i], dts[i], strides[i], n_marks, keep=keep,
                                   method=method)
                assert np.array_equal(stacked[i], alone)
                expect = [keep @ oracle(models[i], dts[i], k * strides[i]) @ v0[i]
                          for k in range(n_marks)]
                assert np.max(np.abs(stacked[i] - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_one_mark_run_builds_no_operator(self, monkeypatch):
        # store_every past the step count, the final-state idiom, leaves
        # integrate no whole store interval, so it steps the tail alone and
        # builds no stride operator (the transfer matrix to the power 1e9
        # here); propagate rejects a run of one mark before any build
        built = []
        for name in ("rk4_transfer_matrix", "sparse_generator"):
            def spy(*args, _fn=getattr(dynamics, name), _name=name):
                built.append(_name)
                return _fn(*args)
            monkeypatch.setattr(dynamics, name, spy)
        m = symmetric_model(0.1)
        v0 = opalg.vec(initial_state(m))
        for method in ("aggregated", "direct"):
            with pytest.raises(DimerNMError, match="at least two marks, got 1"):
                next(propagate([m], [v0[:, None]], [1e-3], [10 ** 9], 1, method=method))
        assert built == []
        traj = integrate(m, initial_state(m), 1.0, store_every=10 ** 9, observables=[],
                         method="aggregated")
        assert built == ["rk4_transfer_matrix"]  # the 1000-step tail's alone
        # the start and the tail, the same bits as the tail stepped alone
        expect = propagated(m, v0, traj.diagnostics["dt"], 1000, 2, method="aggregated")
        assert np.array_equal(traj.states, expect.reshape(2, m.dim, m.dim).transpose(0, 2, 1))

    def test_rejects_models_of_different_dims(self):
        small, big = symmetric_model(0.1), symmetric_model(0.1, n_fock=4)
        vs = [opalg.vec(initial_state(m))[:, None] for m in (small, big)]
        with pytest.raises(DimensionError):
            next(propagate([small, big], vs, [1e-3] * 2, [100] * 2, 2))

    def test_integrate_partial_last_interval_on_the_aggregated_engine(self):
        # 20 whole store intervals plus a 50-step last one, each stored
        # state the RK4 transfer matrix raised to its step count
        m = symmetric_model(1.0)
        rho0 = initial_state(m)
        traj = integrate(m, rho0, 2.05, store_every=100, observables=[], method="aggregated")
        assert traj.diagnostics["method"] == "aggregated"
        assert traj.diagnostics["n_steps"] == 2050
        assert traj.times[-1] == pytest.approx(2.05, rel=1e-15)
        p = rk4_transfer_matrix(liouvillian_matrix(m), traj.diagnostics["dt"])
        for mark, rho in zip(list(range(0, 2001, 100)) + [2050], traj.states):
            expect = opalg.unvec(np.linalg.matrix_power(p, mark) @ opalg.vec(rho0))
            assert np.max(np.abs(rho - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestExactPropagator:
    """The direct engine is exp(L t) v, whatever the step size."""

    @pytest.mark.parametrize("n_fock", [None, 3], ids=["symmetric_d6", "full_d18"])
    def test_propagate_matches_dense_exponential(self, n_fock):
        m = symmetric_model(0.1) if n_fock is None else asymmetric_full_model(n_fock)
        lmat = liouvillian_matrix(m)
        rng = np.random.default_rng(46)
        v0 = rng.standard_normal((m.dim ** 2, 4)) + 1j * rng.standard_normal((m.dim ** 2, 4))
        stack = propagated(m, v0, 1e-3, 100, 8, method="direct")
        for k in range(8):
            expect = expm(lmat * (1e-3 * 100 * k)) @ v0
            assert np.max(np.abs(stack[k] - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n_fock", [None, 3], ids=["symmetric_d6", "full_d18"])
    def test_integrate_matches_dense_exponential(self, n_fock):
        m = symmetric_model(1.0) if n_fock is None else asymmetric_full_model(n_fock, f=1.0)
        lmat = liouvillian_matrix(m)
        rho0 = initial_state(m)
        # the oracle steps exp(L 0.1) from rho0 and ends with one exp(L 0.05)
        step, tail = expm(lmat * 0.1), expm(lmat * 0.05)
        marks = [opalg.vec(rho0)]
        for _ in range(20):
            marks.append(step @ marks[-1])
        # 20 whole store intervals, then the same plus a 50-step last one
        for t_end, expected in ((2.0, marks), (2.05, marks + [tail @ marks[-1]])):
            traj = integrate(m, rho0, t_end, store_every=100, observables=[], method="direct")
            assert traj.diagnostics["method"] == "direct"
            assert traj.times[-1] == pytest.approx(t_end, rel=1e-15)
            assert traj.times[:21] == pytest.approx(0.1 * np.arange(21), rel=1e-12)
            for rho, v in zip(traj.states, expected, strict=True):
                expect = opalg.unvec(v)
                assert np.max(np.abs(rho - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_step_size_does_not_move_the_states(self):
        # the d = 72 trace of the full model, at dt and at dt / 2; the
        # step size only places the marks. The run does not depend on
        # numpy's global random state either, which scipy's norm
        # estimates draw from.
        m = asymmetric_full_model(6)
        assert engine_for(m) == "direct"
        rho0 = initial_state(m)
        coarse = integrate(m, rho0, 2.0, dt=1e-3, store_every=100, observables=[])
        fine = integrate(m, rho0, 2.0, dt=5e-4, store_every=200, observables=[])
        assert coarse.diagnostics["method"] == fine.diagnostics["method"] == "direct"
        assert np.allclose(coarse.times, fine.times, rtol=0, atol=1e-15)
        assert np.max(np.abs(coarse.states - fine.states)) <= 1e-13
        saved = np.random.get_state()
        try:
            np.random.seed(47)
            again = integrate(m, rho0, 2.0, dt=1e-3, store_every=100, observables=[])
        finally:
            np.random.set_state(saved)
        assert np.array_equal(again.states, coarse.states)


class TestTaylorKernel:
    """The direct engine's plan (dynamics._taylor_plan) and the step it
    takes per mark (dynamics._taylor_step)."""

    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("n_fock", [None, 3], ids=["d6", "d18"])
    def test_step_matches_dense_exponential(self, n_fock, n_th):
        # measured worst error 1.7e-14 of the largest entry (d = 18, n_th
        # = 0, tau = 10, 29 sub-steps)
        m = symmetric_model(0.1, n_th=n_th) if n_fock is None else \
            asymmetric_full_model(n_fock, n_th=n_th)
        lmat = liouvillian_matrix(m)
        rng = np.random.default_rng(48)
        v = rng.standard_normal((m.dim ** 2, 4)) + 1j * rng.standard_normal((m.dim ** 2, 4))
        for tau in (1e-3, 0.1, 1.0, 10.0):
            plan = dynamics._taylor_plan(m, tau)
            expect = expm(lmat * tau) @ v
            for k in (1, 4):
                got = dynamics._taylor_step(plan, v[:, :k])
                assert got.shape == (m.dim ** 2, k)
                assert np.max(np.abs(got - expect[:, :k])) <= 1e-13 * np.max(np.abs(expect))

    def test_step_is_scipys_core_bit_for_bit(self):
        # the kernel and its theta table mirror scipy's expm_multiply
        # core operation for operation; skipped where scipy moved them
        ref = pytest.importorskip("scipy.sparse.linalg._expm_multiply")
        if not hasattr(ref, "_expm_multiply_simple_core"):
            pytest.skip("scipy has no _expm_multiply_simple_core")
        assert dynamics._THETA == ref._theta
        m = asymmetric_full_model(3, n_th=0.2)
        v = np.random.default_rng(50).standard_normal((m.dim ** 2, 4)) + 0j
        for tau in (1e-3, 1.0, 10.0):
            plan = dynamics._taylor_plan(m, tau)
            expect = ref._expm_multiply_simple_core(plan.a, v, tau, plan.mu, plan.m, plan.s)
            assert np.array_equal(dynamics._taylor_step(plan, v), expect)

    def test_plan_takes_the_fewest_products(self):
        # ||tau A||_1 from the dense generator, A = L - (tr L / D) I; the
        # plan's m s is the least m ceil(||tau A||_1 / theta_m), at the
        # smallest m that reaches it
        thetas = dynamics._THETA
        assert len(thetas) == 35 and list(thetas.values()) == sorted(thetas.values())
        m = asymmetric_full_model(3, n_th=0.2)
        lmat = liouvillian_matrix(m)
        a = lmat - np.trace(lmat) / lmat.shape[0] * np.eye(lmat.shape[0])
        for tau in (1e-3, 0.1, 1.0, 10.0, 1e3):
            norm = tau * np.abs(a).sum(axis=0).max()
            cost = {k: k * math.ceil(norm / theta) for k, theta in thetas.items()}
            least = min(cost.values())
            plan = dynamics._taylor_plan(m, tau)
            assert plan.tau == tau
            assert (plan.m, plan.s) == (min(k for k in cost if cost[k] == least),
                                        math.ceil(norm / thetas[plan.m]))
            assert plan.m * plan.s == least

    def test_zero_generator_steps_as_the_identity(self):
        m = LindbladModel(h_eff=np.zeros((3, 3), dtype=complex), jumps=(), dims=(3,),
                          basis=model_module.SITE_BASIS)
        plan = dynamics._taylor_plan(m, 0.5)
        assert (plan.m, plan.s, plan.mu) == (0, 1, 0.0)
        v = np.random.default_rng(49).standard_normal((9, 2)) + 0j
        assert np.array_equal(dynamics._taylor_step(plan, v), v)

    @pytest.mark.parametrize("n_th", [1e12, 1e20, 1e300])
    def test_hot_bath_fails_typed_before_a_step(self, monkeypatch, n_th):
        # so hot a bath needs more Taylor sub-steps per mark than a grid
        # holds points; at 1e300 ||tau A||_1 / theta_1 would overflow
        m = asymmetric_full_model(6, n_th=n_th)
        assert m.dim == 72
        monkeypatch.setattr(dynamics, "_taylor_step", no_propagate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDriftError, match=r"more than 1000000 Taylor sub-steps"):
                integrate(m, initial_state(m), 0.5, dt=1e-3, store_every=10, observables=[])


class TestSuggestDt:
    def test_base_step(self):
        assert suggest_dt(symmetric_model(0.1)) == pytest.approx(1e-3)
        assert suggest_dt(symmetric_model(1.0)) == pytest.approx(1e-3)

    def test_overdamped_shrinks(self):
        assert suggest_dt(symmetric_model(100.0)) == pytest.approx(1e-5)
        assert suggest_dt(symmetric_model(2.0)) == pytest.approx(5e-4)

    def test_scales_a_given_base_step(self):
        assert suggest_dt(symmetric_model(0.1), BASE_DT) == suggest_dt(symmetric_model(0.1))
        assert suggest_dt(symmetric_model(0.1), 2e-3) == pytest.approx(2e-3)
        assert suggest_dt(symmetric_model(100.0), 5e-4) == pytest.approx(5e-6)
        # the rule reads the model's rates, not f: a linewidth of 2000 at
        # f = 1 gives mode damping 4000, a hundred times the reference
        stiff = build_symmetric_model(ModelParams.symmetric(g=10.0, kappa=2000.0))
        assert suggest_dt(stiff) == pytest.approx(1e-5)


class TestSteadyState:
    def test_dephasing_baseline_is_maximally_mixed(self):
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        ss = steady_state(m)
        assert np.max(np.abs(ss - np.eye(2) / 2.0)) <= 1e-6

    def test_weak_memory_regime_singlet_population(self):
        ss = steady_state(symmetric_model(0.01))
        red = reduce_to_dimer(ss, (2, 3), "delocalized")
        assert singlet_overlap(red) >= 0.95

    def test_is_fixed_point_of_integration(self):
        m = symmetric_model(0.1)
        ss = steady_state(m)
        horizon = 10.0 / GAMMA_EFF
        traj = integrate(m, ss, horizon, store_every=10**9, observables=[])
        assert np.max(np.abs(traj.states[-1] - ss)) <= 1e-8

    def test_matches_long_time_integration(self):
        m = symmetric_model(0.1)
        ss = steady_state(m)
        traj = integrate(m, initial_state(m), 200.0 / GAMMA_EFF,
                         store_every=10**9, observables=[])
        assert np.max(np.abs(traj.states[-1] - ss)) <= 1e-6

    def test_non_unique_reported(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(m)

    @pytest.mark.parametrize("build, n_th", [
        (build_symmetric_model, 1e6), (build_symmetric_model, 1e20),
        (build_symmetric_model, 1e300), (build_full_model, 1e6), (build_full_model, 1e20),
    ], ids=["dense_d6-1e6", "dense_d6-1e20", "dense_d6-1e300", "sparse_d18-1e6",
            "sparse_d18-1e20"])
    def test_kernel_degenerate_to_rounding_reported(self, build, n_th):
        # so hot a bath makes sigma_{n-1} tiny next to ||L||_F, and the
        # bordered solve's answer meaningless; the rule is relative. At
        # 1e300 the squares of L's entries would overflow unscaled
        m = build(apply_f(0.1, ModelParams.symmetric(n_th=n_th)))
        assert (m.dim < dynamics.SPARSE_STEADY_MIN_DIM) == (build is build_symmetric_model)
        with pytest.raises(NonUniqueSteadyStateError, match=r"below 1e-10 x \|\|L\|\|_F = "):
            steady_state(m)

    def test_validated_output(self):
        ss = steady_state(symmetric_model(0.1))
        assert abs(np.trace(ss) - 1.0) < 1e-12
        assert opalg.hermiticity_defect(ss) < 1e-12
        assert np.linalg.eigvalsh(ss).min() >= -1e-8


# the models test_sector_sigma_matches_dense_svd checks, by the ids it
# gives them: a Hilbert dimension or a name, each model at f and whether
# it declares a parity
SIGMA_MODELS = {
    6: (lambda f: symmetric_model(f), True),
    18: (lambda f: asymmetric_full_model(3, f), True),
    32: (lambda f: asymmetric_full_model(4, f), True),
    # a diagonal parity, which splits vec(rho) without pairing entries
    "symmetric_d18": (lambda f: symmetric_model(f, n_fock=9), True),
    "thermal_d18": (lambda f: asymmetric_full_model(3, f, n_th=0.2), True),
    # unequal site energies break the exchange parity: one sector
    "detuned_d18": (lambda f: asymmetric_full_model(3, f, omega1=0.3), False),
}


class TestSparseSteadyState:
    @pytest.mark.parametrize("f", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("case", list(SIGMA_MODELS))
    def test_sector_sigma_matches_dense_svd(self, monkeypatch, case, f):
        # sigma_{n-1} from the sector pseudo-inverses against the dense SVD
        build, has_parity = SIGMA_MODELS[case]
        m = build(f)
        assert (m.parity is not None) == has_parity
        lmat = liouvillian_matrix(m)
        ratio = np.linalg.svd(lmat, compute_uv=False)[-2] / np.linalg.norm(lmat)
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_SPARSE)
        # the sparse sigma_{n-1} / ||L||_F lies within 1e-8 relative of the
        # dense one exactly when it clears the lower bracket and fails the
        # upper one
        monkeypatch.setattr(dynamics, "DEGENERACY_TOL", ratio * (1.0 - 1e-8))
        steady_state(m)
        monkeypatch.setattr(dynamics, "DEGENERACY_TOL", ratio * (1.0 + 1e-8))
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(m)

    @pytest.mark.parametrize("n_fock", [3, 4], ids=["d18", "d32"])
    def test_two_sectors_match_one(self, n_fock):
        m = asymmetric_full_model(n_fock)
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM and m.parity is not None
        whole = steady_state(dataclasses.replace(m, parity=None))
        assert np.max(np.abs(steady_state(m) - whole)) <= 1e-12

    def test_one_sector_factor_alive_at_a_time(self, monkeypatch):
        # each factor comes wrapped in a proxy that records when it is
        # freed; the even sector's must be freed before the odd one's is made
        import weakref

        real, calls, freed = dynamics._sector_lu, [], []

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, *args, **kwargs):
                return self.lu.solve(*args, **kwargs)

        def spy(a, name):
            calls.append((name, list(freed)))
            factor = Factor(real(a, name))
            weakref.finalize(factor, freed.append, name)
            return factor

        monkeypatch.setattr(dynamics, "_sector_lu", spy)
        m = asymmetric_full_model(3)
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM and m.parity is not None
        steady_state(m)
        assert calls == [("bordered even-sector", []),
                         ("odd-sector", ["bordered even-sector"])]
        # a model with no parity is one sector, factored once
        calls.clear()
        steady_state(dataclasses.replace(m, parity=None))
        assert [name for name, _ in calls] == ["bordered even-sector"]

    def test_odd_second_null_vector_is_non_unique(self):
        # a site-basis sector dephased by sigma_z, with no Hamiltonian,
        # next to a damped mode it does not couple to: the identity and
        # sigma_z on the sector, each times the mode's vacuum, are both
        # stationary. The first is even under the exchange parity and
        # the second odd, so the even sector alone finds one null vector
        dims = (2, 9)
        sz = opalg.embed(np.diag([-1.0, 1.0]), 0, dims)
        a = opalg.embed(opalg.make_destroy(9), 1, dims)
        jumps = ((sz, 0.1), (a, 4.0))
        h_eff = 2.0 * a.conj().T @ a - 0.5j * sum(r * op.conj().T @ op for op, r in jumps)
        sign = np.kron([1.0, 1.0], (-1.0) ** np.arange(9))
        m = LindbladModel(h_eff=h_eff, jumps=jumps, dims=dims, basis=model_module.SITE_BASIS,
                          parity=(np.r_[9:18, 0:9], sign))
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM
        with pytest.raises(NonUniqueSteadyStateError, match="^odd-sector generator"):
            steady_state(m)

    # the d = 2 baseline's sectors of 2 lie below ARPACK's smallest
    # problem, so their norms come from the dense pseudo-inverses
    @pytest.mark.parametrize("build", [
        lambda: symmetric_model(0.1),
        lambda: asymmetric_full_model(3),
        lambda: build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric()),
        lambda: symmetric_model(0.1, n_fock=2),
        lambda: build_global_mode_model(apply_f(0.1, dataclasses.replace(
            ModelParams.symmetric(), g2=2.0))),
    ], ids=["symmetric_d6", "full_d18", "markovian_d2", "symmetric_d4", "global_d6"])
    def test_matches_dense_path(self, monkeypatch, build):
        m = build()
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_DENSE)
        dense = steady_state(m)
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_SPARSE)
        sparse = steady_state(m)
        assert np.max(np.abs(dense - sparse)) <= 1e-12

    @pytest.mark.parametrize("n_fock, min_dim", [(3, FORCE_DENSE), (3, FORCE_SPARSE), (5, None)],
                             ids=["d18_dense", "d18_sparse", "d50_default"])
    def test_non_unique_on_both_paths(self, monkeypatch, n_fock, min_dim):
        # g1 = g2 = 0 decouples the dimer, whose unitary exchange leaves
        # both of its eigenprojectors stationary
        if min_dim is not None:
            monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", min_dim)
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(asymmetric_full_model(n_fock, g1=0.0))

    @pytest.mark.parametrize("min_dim", [FORCE_DENSE, FORCE_SPARSE], ids=["dense", "sparse"])
    def test_residual_failure_raises(self, monkeypatch, min_dim):
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", min_dim)
        monkeypatch.setattr(opalg, "SOLVE_RESIDUAL_RTOL", 0.0)
        with pytest.raises(SingularSystemError):
            steady_state(asymmetric_full_model(3))

    @pytest.mark.parametrize("min_dim", [FORCE_DENSE, FORCE_SPARSE], ids=["dense", "sparse"])
    def test_non_finite_generator_raises_typed_error(self, monkeypatch, min_dim):
        m = asymmetric_full_model(3)
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", min_dim)
        nan_h = LindbladModel(h_eff=np.full_like(m.h_eff, np.nan), jumps=m.jumps,
                              dims=m.dims, basis=m.basis)
        inf_rate = LindbladModel(h_eff=m.h_eff, jumps=m.jumps[:-1] + ((m.jumps[-1][0], np.inf),),
                                 dims=m.dims, basis=m.basis)
        for bad in (nan_h, inf_rate):
            with pytest.raises(SingularSystemError):
                steady_state(bad)

    def test_hot_bath_fails_typed(self):
        # at n_th = 1e300 the squares in the bordered solve's residual and
        # its bound would overflow unscaled, a RuntimeWarning
        m = asymmetric_full_model(3, n_th=1e300)
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimerNMError):
                steady_state(m)

    @pytest.mark.parametrize("n_fock", [3, 5])
    def test_hot_bath_kernel_degenerate_to_rounding_reported(self, n_fock):
        # at n_th = 1e300 the entries of L_s^+ lie near 1e-300, and ARPACK's
        # products of them underflowed to a zero starting vector; scaled
        # by ||L||_F they are O(1), and the test reports the degenerate
        # kernel as it does at n_th = 1e20
        m = asymmetric_full_model(n_fock, n_th=1e300)
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM
        with pytest.raises(NonUniqueSteadyStateError, match=r"below 1e-10 x \|\|L\|\|_F = "):
            steady_state(m)

    def test_unconverged_uniqueness_test_raises_typed_error(self, monkeypatch):
        from scipy.sparse import linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(sla, "svds", no_convergence)
        with pytest.raises(DimerNMError):
            steady_state(asymmetric_full_model(3))


class TestBlasThreadScopes:
    """The paths opalg.one_blas_thread pins, read through spies."""

    def spied_runs(self, monkeypatch, blas_counts):
        """{(run, spied function): the thread counts it saw per call} over
        a model build, a sparse steady state and a trace on each engine at
        d = 18, and the results."""
        import scipy.sparse.linalg as sla

        seen, run = {}, ["build"]
        for owner, name in ((model_module, "LindbladModel"), (sla, "splu"), (sla, "svds"),
                            (dynamics, "_taylor_step"), (dynamics, "_kept"),
                            (dynamics, "check_drift")):
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                seen.setdefault((run[0], _name), []).append(set(blas_counts()))
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        m = asymmetric_full_model(3)
        assert m.dim >= dynamics.SPARSE_STEADY_MIN_DIM
        run[0] = "steady"
        results = [steady_state(m)]
        for method in ("direct", "aggregated"):
            run[0] = method
            results.append(integrate(m, initial_state(m), 0.02, method=method).states)
        assert set(blas_counts()) == {3}
        return seen, results

    def test_pinned_paths_run_on_one_thread(self, monkeypatch, blas_counts):
        seen, _ = self.spied_runs(monkeypatch, blas_counts)
        # the aggregated engine's stepping keeps its threads
        assert all(counts == {3} for counts in seen.pop(("aggregated", "_kept")))
        assert sorted(seen) == [
            ("aggregated", "check_drift"), ("build", "LindbladModel"),
            ("direct", "_kept"), ("direct", "_taylor_step"), ("direct", "check_drift"),
            ("steady", "splu"), ("steady", "svds")]
        assert all(counts == {1} for calls in seen.values() for counts in calls)

    def test_paths_run_when_no_library_is_found(self, monkeypatch, blas_counts):
        _, pinned = self.spied_runs(monkeypatch, blas_counts)
        monkeypatch.setattr(opalg, "_openblas_libs", lambda: ())
        seen, results = self.spied_runs(monkeypatch, blas_counts)
        assert all(counts == {3} for calls in seen.values() for counts in calls)
        for a, b in zip(pinned, results):
            assert np.allclose(a, b, rtol=0.0, atol=1e-13)

    def test_scipy_loads_before_the_pin(self):
        # in a fresh interpreter scipy's OpenBLAS loads only with the
        # sparse steady solve, and must load before it pins; the direct
        # engine needs scipy.sparse alone, which loads no OpenBLAS, so
        # its pin holds every library the run loads
        script = (
            "import dataclasses, sys\n"
            "from dimer_nm import dynamics, opalg\n"
            "from dimer_nm.harness import initial_state\n"
            "from dimer_nm.model import ModelParams, apply_f, build_full_model\n"
            "p = ModelParams.symmetric(n_fock=3)\n"
            "m = build_full_model(apply_f(0.1, dataclasses.replace(p, g2=2.0)))\n"
            "real, seen = opalg.one_blas_thread, []\n"
            "def spy():\n"
            "    with opalg._blas_lock:\n"
            "        seen.append(len(opalg._openblas_libs()))\n"
            "    return real()\n"
            "opalg.one_blas_thread = spy\n"
            "run = sys.argv[1]\n"
            "if run == 'steady':\n"
            "    dynamics.steady_state(m)\n"
            "else:\n"
            "    dynamics.integrate(m, initial_state(m), 0.01, method='direct')\n"
            "with opalg._blas_lock:\n"
            "    ran = len(opalg._openblas_libs())\n"
            "import scipy.sparse.linalg\n"
            "with opalg._blas_lock:\n"
            "    print(seen[0], ran, len(opalg._openblas_libs()))\n"
        )
        import os
        import subprocess
        import sys

        import dimer_nm

        path = os.path.dirname(os.path.dirname(dimer_nm.__file__))
        for run in ("steady", "direct"):
            out = subprocess.run(
                [sys.executable, "-c", script, run], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path), check=True)
            first, ran, loaded = map(int, out.stdout.split())
            assert first == ran
            assert (ran == loaded) if run == "steady" else (ran < loaded)


class TestExpectation:
    def test_normalization(self):
        rng = np.random.default_rng(34)
        rho = random_density(rng, 4)
        assert expectation(rho, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_inversion_sign_convention(self):
        # sector basis ordering is {|01>, |10>}
        inversion = np.diag([-1.0, 1.0]).astype(complex)
        assert expectation(np.diag([0.0, 1.0]).astype(complex), inversion) == 1.0
        assert expectation(np.diag([1.0, 0.0]).astype(complex), inversion) == -1.0

    def test_rejects_imaginary_result(self):
        rng = np.random.default_rng(35)
        rho = random_density(rng, 3)
        skew = 1j * opalg.make_destroy(3)
        with pytest.raises(DimerNMError):
            expectation(rho, skew + np.eye(3))

    def test_stack_matches_per_state(self):
        rng = np.random.default_rng(36)
        stack = np.stack([random_density(rng, 4) for _ in range(5)])
        op = random_hermitian(rng, 4)
        out = expectation(stack, op)
        assert out.shape == (5,)
        for k in range(5):
            assert out[k] == pytest.approx(expectation(stack[k], op), abs=1e-14)
        with pytest.raises(DimerNMError):
            expectation(stack, op + 1j * opalg.make_destroy(4))


class TestCheckedState:
    """The check steady_state ends with, dynamics._checked_state: trace and
    Hermiticity defects at most 1e-12, lowest eigenvalue at least EIG_FLOOR."""

    def test_validates_invariants(self):
        good = np.eye(2, dtype=complex) / 2.0
        assert dynamics._checked_state(good) is good
        with pytest.raises(NumericalDriftError, match=r"^trace deviates from 1 by 1\.000e\+00$"):
            dynamics._checked_state(np.eye(2, dtype=complex))
        bad_herm = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NumericalDriftError, match=r"^Hermiticity defect 2\.000e-01$"):
            dynamics._checked_state(bad_herm)
        bad_pos = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NumericalDriftError, match=r"^negative population -5\.000e-01$"):
            dynamics._checked_state(bad_pos)

    def test_tolerances_of_the_steady_state(self):
        # 1e-12 on the trace and Hermiticity defects, either side of it
        dynamics._checked_state(np.diag([0.5 + 5e-13, 0.5]).astype(complex))
        with pytest.raises(NumericalDriftError, match="^trace deviates"):
            dynamics._checked_state(np.diag([0.5 + 2e-12, 0.5]).astype(complex))
        skew = np.eye(2, dtype=complex) / 2.0
        skew[0, 1] = 5e-13
        dynamics._checked_state(skew)
        skew[0, 1] = 2e-12
        with pytest.raises(NumericalDriftError, match="^Hermiticity defect"):
            dynamics._checked_state(skew)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, value):
        rho = np.eye(2, dtype=complex) / 2.0
        rho[0, 1] = value
        with pytest.raises(NumericalDriftError, match="^trace deviates from 1 by inf$"):
            dynamics._checked_state(rho)
