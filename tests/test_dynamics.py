"""Master-equation integration, the superoperator form, and steady states."""

import dataclasses

import numpy as np
import pytest

from dimer_nm import dynamics, opalg
from dimer_nm.dynamics import (
    MAX_SUPEROP_DIM,
    QuantumState,
    expectation,
    integrate,
    liouvillian_matrix,
    rhs,
    sparse_generator,
    steady_state,
    suggest_dt,
)
from dimer_nm.entanglement import reduce_to_dimer, singlet_overlap
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

    def test_rejects_bad_inputs(self):
        m = symmetric_model(0.1)
        with pytest.raises(DimensionError):
            integrate(m, np.eye(5), 1.0)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), -1.0)
        with pytest.raises(DimerNMError):
            integrate(m, initial_state(m), 1.0, method="leapfrog")

    def test_mode_excitation_needs_modes(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        with pytest.raises(DimerNMError):
            integrate(m, np.eye(2, dtype=complex) / 2, 1.0,
                      observables=("mode_excitation",))


class TestSuggestDt:
    def test_base_step(self):
        assert suggest_dt(symmetric_model(0.1)) == pytest.approx(1e-3)
        assert suggest_dt(symmetric_model(1.0)) == pytest.approx(1e-3)

    def test_overdamped_shrinks(self):
        assert suggest_dt(symmetric_model(100.0)) == pytest.approx(1e-5)
        assert suggest_dt(symmetric_model(2.0)) == pytest.approx(5e-4)


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
        bad = LindbladModel(h_eff=np.full_like(m.h_eff, np.nan), jumps=m.jumps,
                            dims=m.dims, basis=m.basis)
        monkeypatch.setattr(dynamics, "SPARSE_STEADY_MIN_DIM", min_dim)
        with pytest.raises(DimerNMError):
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

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionError):
            QuantumState(np.eye(3, dtype=complex) / 3.0, (2,))
