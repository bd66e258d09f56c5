"""Master-equation integration, the superoperator form, and steady states."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from dimer_nm import dynamics, opalg
from dimer_nm.dynamics import (
    BASE_DT,
    EIG_FLOOR,
    MAX_SUPEROP_DIM,
    TRACE_ABORT_TOL,
    QuantumState,
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
    build_markovian_dephasing_model,
    build_symmetric_model,
)
from oracles import rhs

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


def asymmetric_full_model(n_fock, f=0.1, g1=None):
    """Full model with g2 = 2 g1, dims (2, n_fock, n_fock)."""
    p = ModelParams.symmetric(n_fock=n_fock)
    g1 = p.g1 if g1 is None else g1
    return build_full_model(apply_f(f, dataclasses.replace(p, g1=g1, g2=2.0 * g1)))


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
        assert np.max(np.abs(rhs(m, ss.rho))) < 1e-9

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
        assert np.linalg.norm(lmat @ opalg.vec(ss.rho)) <= 1e-9

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
        assert traj.diagnostics["min_eigenvalue"] >= -1e-8
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

    def test_final_state_property(self):
        m = symmetric_model(0.1)
        traj = integrate(m, initial_state(m), 1.0, store_every=500, observables=[])
        final = traj.final
        assert isinstance(final, QuantumState)
        assert np.array_equal(final.rho, traj.states[-1])

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
        assert dynamics._CHECK_BLOCK < first < n_steps
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

    def test_validate_and_integrate_share_the_eigenvalue_floor(self):
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        below = np.diag([1.0 - 2 * EIG_FLOOR, 2 * EIG_FLOOR]).astype(complex)
        above = np.diag([1.0 - EIG_FLOOR / 2, EIG_FLOOR / 2]).astype(complex)
        with pytest.raises(NumericalDriftError):
            QuantumState(rho=below, dims=(2,)).validate()
        with pytest.raises(NumericalDriftError) as exc:
            integrate(m, below, 1.0, observables=[])
        assert "at t=0 " in str(exc.value)
        QuantumState(rho=above, dims=(2,)).validate()
        # exchange keeps the spectrum and dephasing mixes, so the lowest
        # eigenvalue never falls below its start
        assert integrate(m, above, 1.0, observables=[]).diagnostics["min_eigenvalue"] >= EIG_FLOOR

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

    def test_unknown_observable_rejected(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), 0.1, observables=("purity",))

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

    def test_whole_float_store_every_is_a_count(self):
        m = symmetric_model(0.1)
        traj = integrate(m, initial_state(m), 0.01, dt=1e-3, store_every=3.0, observables=[])
        assert np.array_equal(traj.times, 1e-3 * np.array([0, 3, 6, 9, 10]))

    def test_no_step_means_suggest_dt(self):
        m = symmetric_model(100.0)
        traj = integrate(m, initial_state(m), 0.01, observables=[])
        assert traj.diagnostics["dt"] == suggest_dt(m)

    def test_mode_excitation_needs_modes(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        with pytest.raises(DimerNMError):
            integrate(m, np.eye(2, dtype=complex) / 2, 1.0,
                      observables=("mode_excitation",))


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


def seamless(blocks, axis=0):
    """Blocks of propagate joined along their mark axis, each later block
    without its seam mark, the last mark of the block before."""
    return np.concatenate([blocks[0]] + [np.delete(b, 0, axis=axis) for b in blocks[1:]],
                          axis=axis)


def propagated(model, v0, dt, stride, n_marks, **kwargs):
    """propagate on a stack of one, its blocks joined at their seams."""
    return seamless([block[0].copy() for _, block in
                     propagate([model], [v0], [dt], [stride], n_marks, **kwargs)])


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
        at_cap, over_cap = symmetric_model(0.1, n_fock=32), symmetric_model(0.1, n_fock=33)
        assert at_cap.dim == MAX_SUPEROP_DIM < over_cap.dim
        assert [engine_for(x) for x in (m, at_cap, over_cap, asymmetric_full_model(6))] == \
            ["aggregated", "aggregated", "direct", "direct"]
        for t_end in (1e-3, 0.05, 5.0):  # 1, 50 and 5000 steps
            traj = integrate(m, initial_state(m), t_end, observables=[])
            assert traj.diagnostics["method"] == "aggregated"

    def test_rejects_unknown_engine(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimerNMError):
            engine_for(m, "leapfrog")
        with pytest.raises(DimerNMError):
            next(propagate([m], [opalg.vec(initial_state(m))], [1e-3], [1], 2,
                           method="leapfrog"))

    def test_blocks_hold_at_most_chunk_marks(self):
        m = build_markovian_dephasing_model(GAMMA_EFF, ModelParams.symmetric())
        v0 = opalg.vec(np.eye(2) / 2.0)
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
        # bit for bit on the aggregated engine, whose marks are products
        # of one stride operator, and to rounding on the direct one, where
        # expm_multiply fits its Taylor steps to each block's interval
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
            joined = seamless(blocks, axis=1)
            if method == "aggregated":
                assert np.array_equal(joined, whole)
            else:
                assert np.max(np.abs(joined - whole)) <= 1e-13 * np.max(np.abs(whole))

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

    def test_rejects_models_of_different_dims(self):
        small, big = symmetric_model(0.1), symmetric_model(0.1, n_fock=4)
        vs = [opalg.vec(initial_state(m)) for m in (small, big)]
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
        # 20 whole store intervals, then the same plus a 50-step last one
        for t_end in (2.0, 2.05):
            traj = integrate(m, rho0, t_end, store_every=100, observables=[], method="direct")
            assert traj.diagnostics["method"] == "direct"
            assert traj.times[-1] == pytest.approx(t_end, rel=1e-15)
            for t, rho in zip(traj.times, traj.states):
                expect = opalg.unvec(expm(lmat * t) @ opalg.vec(rho0))
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
        assert np.max(np.abs(ss.rho - np.eye(2) / 2.0)) <= 1e-6

    def test_weak_memory_regime_singlet_population(self):
        ss = steady_state(symmetric_model(0.01))
        red = reduce_to_dimer(ss.rho, (2, 3), "delocalized")
        assert singlet_overlap(red) >= 0.95

    def test_is_fixed_point_of_integration(self):
        m = symmetric_model(0.1)
        ss = steady_state(m)
        horizon = 10.0 / GAMMA_EFF
        traj = integrate(m, ss.rho, horizon, store_every=10**9, observables=[])
        assert np.max(np.abs(traj.states[-1] - ss.rho)) <= 1e-8

    def test_matches_long_time_integration(self):
        m = symmetric_model(0.1)
        ss = steady_state(m)
        traj = integrate(m, initial_state(m), 200.0 / GAMMA_EFF,
                         store_every=10**9, observables=[])
        assert np.max(np.abs(traj.states[-1] - ss.rho)) <= 1e-6

    def test_non_unique_reported(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(m)

    def test_validated_output(self):
        ss = steady_state(symmetric_model(0.1))
        assert abs(np.trace(ss.rho) - 1.0) < 1e-12
        assert opalg.hermiticity_defect(ss.rho) < 1e-12
        assert np.linalg.eigvalsh(ss.rho).min() >= -1e-8


class TestSparseSteadyState:
    @pytest.mark.parametrize("f", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("dim", [6, 18, 32])
    def test_deflated_sigma_matches_dense_svd(self, monkeypatch, dim, f):
        m = symmetric_model(f) if dim == 6 else asymmetric_full_model({18: 3, 32: 4}[dim], f)
        assert m.dim == dim
        sigma = np.linalg.svd(liouvillian_matrix(m), compute_uv=False)[-2]
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_SPARSE)
        # the sparse sigma_{n-1} lies within 1e-8 relative of the dense one
        # exactly when it clears the lower bracket and fails the upper one
        monkeypatch.setattr(dynamics, "DEGENERACY_TOL", sigma * (1.0 - 1e-8))
        steady_state(m)
        monkeypatch.setattr(dynamics, "DEGENERACY_TOL", sigma * (1.0 + 1e-8))
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(m)

    @pytest.mark.parametrize("n_fock", [None, 3], ids=["symmetric_d6", "full_d18"])
    def test_matches_dense_path(self, monkeypatch, n_fock):
        m = symmetric_model(0.1) if n_fock is None else asymmetric_full_model(n_fock)
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_DENSE)
        dense = steady_state(m).rho
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", FORCE_SPARSE)
        sparse = steady_state(m).rho
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

    def test_unconverged_uniqueness_test_raises_typed_error(self, monkeypatch):
        from scipy.sparse import linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(sla, "svds", no_convergence)
        with pytest.raises(DimerNMError):
            steady_state(asymmetric_full_model(3))


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


class TestQuantumState:
    def test_validates_invariants(self):
        good = QuantumState(np.eye(2, dtype=complex) / 2.0, (2,))
        good.validate()
        with pytest.raises(DimerNMError):
            QuantumState(np.eye(2, dtype=complex), (2,)).validate()
        bad_herm = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(DimerNMError):
            QuantumState(bad_herm, (2,)).validate()
        bad_pos = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DimerNMError):
            QuantumState(bad_pos, (2,)).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, value):
        rho = np.eye(2, dtype=complex) / 2.0
        rho[0, 1] = value
        with pytest.raises(NumericalDriftError):
            QuantumState(rho, (2,)).validate()

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionError):
            QuantumState(np.eye(3, dtype=complex) / 3.0, (2,))
