"""Model constructors, the f-parametrization, and cross-model equivalence."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dimer_nm import opalg
from dimer_nm.dynamics import integrate, liouvillian_matrix
from dimer_nm.entanglement import basis_change, reduce_to_dimer
from dimer_nm.errors import ConfigError, DimensionError, DimerNMError
from dimer_nm.harness import initial_state
from dimer_nm.model import (
    DELOCALIZE,
    MAX_HILBERT_DIM,
    ModelParams,
    apply_f,
    build_full_model,
    build_global_mode_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
    effective_dephasing_rate,
    environment_state,
    steady_state_dd_closed_form,
    thermal_mode_state,
)
from oracles import rhs


class TestApplyF:
    def test_identity_at_unity(self):
        base = ModelParams.symmetric()
        assert apply_f(1.0, base) == base

    def test_definition(self):
        out = apply_f(4.0, ModelParams.symmetric(g=1.0, kappa=20.0))
        assert out.g1 == pytest.approx(2.0)
        assert out.g2 == pytest.approx(2.0)
        assert out.kappa1 == pytest.approx(80.0)
        assert out.kappa2 == pytest.approx(80.0)

    def test_noise_strength_invariant(self):
        base = ModelParams.symmetric()
        ref = base.g1**2 / base.kappa1
        for f in (0.0035, 0.1, 3.6554):
            p = apply_f(f, base)
            assert p.g1**2 / p.kappa1 == pytest.approx(ref, rel=1e-15)

    def test_rejects_nonpositive_f(self):
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            apply_f(0.0, ModelParams.symmetric())
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            apply_f(-1.0, ModelParams.symmetric())


class TestEffectiveDephasingRate:
    def test_reference_point(self):
        assert effective_dephasing_rate(1.0, 20.0) == pytest.approx(0.1)

    def test_no_coupling(self):
        assert effective_dephasing_rate(0.0, 20.0) == 0.0

    def test_invariant_under_rescaling(self):
        for f in (0.01, 0.5, 7.0):
            assert effective_dephasing_rate(
                np.sqrt(f) * 1.0, f * 20.0
            ) == pytest.approx(0.1, rel=1e-14)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            effective_dephasing_rate(1.0, 0.0)


class TestFullModel:
    def test_decoupled_sector_block(self):
        p = ModelParams(omega1=0.3, omega2=0.7, J=1.0, Omega1=2.0, Omega2=2.0,
                        g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, n_fock=3)
        m = build_full_model(p)
        h = m.h_herm
        nf2 = p.n_fock * p.n_fock
        idx = [0, nf2]  # both modes in vacuum, sector states |01>, |10>
        block = h[np.ix_(idx, idx)]
        assert np.allclose(block, [[0.7, 1.0], [1.0, 0.3]], atol=1e-14)

    def test_hermitian_part_is_undamped_hamiltonian(self):
        p = apply_f(0.1, ModelParams.symmetric())
        undamped = ModelParams.symmetric(g=p.g1, kappa=0.0)
        assert np.allclose(
            build_full_model(p).h_herm,
            build_full_model(undamped).h_herm,
            atol=1e-14,
        )

    def test_damping_matches_jumps(self):
        m = build_full_model(apply_f(0.1, ModelParams.symmetric()))
        assert m.damping_defect() < 1e-12
        anti = (m.h_eff - m.h_eff.conj().T) / (-2.0j)
        assert np.linalg.eigvalsh(opalg.hermitize(anti)).min() >= -1e-12

    def test_shapes_and_rates(self):
        p = apply_f(0.1, ModelParams.symmetric(n_fock=3))
        m = build_full_model(p)
        assert m.dims == (2, 3, 3)
        assert m.dim == 18
        assert all(op.shape == (18, 18) for op, _ in m.jumps)
        assert [rate for _, rate in m.jumps] == pytest.approx([2 * p.kappa1] * 2)
        assert m.mode_weight == 1.0

    def test_thermal_jumps_added(self):
        p = apply_f(0.1, ModelParams.symmetric(n_fock=3, n_th=0.1))
        m = build_full_model(p)
        rates = sorted(rate for _, rate in m.jumps)
        down = 2 * p.kappa1 * 1.1
        up = 2 * p.kappa1 * 0.1
        assert rates == pytest.approx(sorted([down, down, up, up]))


class TestHilbertDimensionCap:
    def test_largest_models_build_and_the_next_are_refused(self):
        # the cap is 2 * n_fock**modes <= MAX_HILBERT_DIM = 128
        assert MAX_HILBERT_DIM == 128
        p = ModelParams.symmetric()
        assert build_full_model(replace(p, n_fock=8)).dim == 128
        assert build_symmetric_model(replace(p, n_fock=64)).dim == 128
        for build, n_fock in ((build_full_model, 9), (build_symmetric_model, 65),
                              (build_global_mode_model, 10 ** 300)):
            with pytest.raises(DimerNMError, match="^n_fock must be small enough"):
                build(replace(p, n_fock=n_fock))


class TestSymmetricModel:
    def test_level_splitting(self):
        p = ModelParams.symmetric(omega=0.5, g=0.0, kappa=1.0)
        m = build_symmetric_model(p)
        h = m.h_herm
        # vacuum-column entries of the two sector states |u>, |d>
        assert h[0, 0].real == pytest.approx(0.5 + 1.0)
        assert h[p.n_fock, p.n_fock].real == pytest.approx(0.5 - 1.0)

    def test_coupling_enhancement(self):
        p = apply_f(0.1, ModelParams.symmetric())
        m = build_symmetric_model(p)
        # <u,1|H|d,0>: collective coupling carries a sqrt(2) factor
        assert m.h_herm[1, p.n_fock].real == pytest.approx(np.sqrt(2.0) * p.g1)

    def test_dark_state_is_stationary_without_coupling(self):
        p = ModelParams.symmetric(g=0.0, kappa=1.0)
        m = build_symmetric_model(p)
        vac = np.zeros((p.n_fock, p.n_fock), dtype=complex)
        vac[0, 0] = 1.0
        rho_d = opalg.kron(np.diag([0.0, 1.0]).astype(complex), vac)
        assert np.max(np.abs(rhs(m, rho_d))) < 1e-14

    def test_rejects_asymmetric_parameters(self):
        p = ModelParams(omega1=0, omega2=0, J=1, Omega1=2, Omega2=2,
                        g1=1.0, g2=1.5, kappa1=2.0, kappa2=2.0, n_fock=3)
        with pytest.raises((ConfigError, DimerNMError)):
            build_symmetric_model(p)

    def test_mode_weight_halved(self):
        m = build_symmetric_model(apply_f(0.1, ModelParams.symmetric()))
        assert m.mode_weight == 0.5

    def test_matches_full_model_trajectories(self):
        # collective-mode reduction against the two-mode construction
        for f, n_th, t_end, state_tol, excitation_tol in (
            # truncation error of the rotated cutoff sits below 1e-6 from
            # n_fock=4 at f=0.01 (measured 4.3e-7 and 9.2e-8)
            (0.01, 0.0, 50.0, 1e-6, 1e-5),
            # the dark center-of-mass mode holds n_th: measured 9.5e-4 and
            # 1.5e-3, where leaving its share out reads 0.098 apart
            (0.1, 0.2, 5.0, 5e-3, 5e-3),
        ):
            p = apply_f(f, ModelParams.symmetric(n_fock=4, n_th=n_th))
            mf, ms = build_full_model(p), build_symmetric_model(p)
            tf = integrate(mf, initial_state(mf), t_end, store_every=100,
                           observables=("mode_excitation",))
            ts = integrate(ms, initial_state(ms), t_end, store_every=100,
                           observables=("mode_excitation",))
            worst = 0.0
            for k in range(tf.times.shape[0]):
                rf = reduce_to_dimer(tf.states[k], mf.dims, mf.basis)
                rs = basis_change(reduce_to_dimer(ts.states[k], ms.dims, ms.basis), "site")
                worst = max(worst, float(np.max(np.abs(rf.rho - rs.rho))))
            assert worst < state_tol
            # per-oscillator excitation reads the same through both routes
            diff = np.max(np.abs(tf.observables["mode_excitation"]
                                 - ts.observables["mode_excitation"]))
            assert diff < excitation_tol


class TestGlobalModeModel:
    def test_equal_couplings_decouple(self):
        p = ModelParams.symmetric(g=0.7, kappa=2.0)
        m = build_global_mode_model(p)
        coupling = m.h_herm - build_global_mode_model(
            ModelParams.symmetric(g=0.0, kappa=2.0)
        ).h_herm
        assert np.max(np.abs(coupling)) < 1e-14

    def test_coupling_difference(self):
        p = ModelParams(omega1=0, omega2=0, J=1, Omega1=2, Omega2=2,
                        g1=2.0, g2=1.0, kappa1=2.0, kappa2=2.0, n_fock=3)
        m = build_global_mode_model(p)
        # coupling element between the sector states through one quantum
        block = m.h_herm[:2 * p.n_fock, :2 * p.n_fock]
        strengths = np.abs(block[np.abs(block) > 1e-12])
        assert np.any(np.isclose(strengths, 1.0, atol=1e-12))

    def test_sector_is_the_rotated_site_hamiltonian(self):
        # unequal sites; the mode-vacuum block of h_eff is the sector alone
        p = ModelParams(omega1=0.3, omega2=-0.7, J=1.3, Omega1=2, Omega2=2,
                        g1=0.4, g2=1.1, kappa1=2.0, kappa2=2.0, n_fock=3)
        m = build_global_mode_model(p)
        idx = [0, p.n_fock]
        sector = m.h_eff[np.ix_(idx, idx)]
        assert np.array_equal(sector, sector.conj().T)
        site = np.array([[p.omega2, p.J], [p.J, p.omega1]], dtype=complex)
        assert np.max(np.abs(sector - DELOCALIZE @ site @ DELOCALIZE)) <= 1e-15

    def test_sign_flip_symmetry(self):
        kw = dict(omega1=0, omega2=0, J=1, Omega1=2, Omega2=2,
                  kappa1=2.0, kappa2=2.0, n_fock=3)
        ma = build_global_mode_model(ModelParams(g1=1.0, g2=2.0, **kw))
        mb = build_global_mode_model(ModelParams(g1=2.0, g2=1.0, **kw))
        ta = integrate(ma, initial_state(ma), 5.0, store_every=100, observables=[])
        tb = integrate(mb, initial_state(mb), 5.0, store_every=100, observables=[])
        for k in range(ta.times.shape[0]):
            ra = reduce_to_dimer(ta.states[k], ma.dims, ma.basis).rho
            rb = reduce_to_dimer(tb.states[k], mb.dims, mb.basis).rho
            assert np.max(np.abs(ra - rb)) < 1e-12


class TestMarkovianBaseline:
    def test_zero_rate_is_unitary(self):
        m = build_markovian_dephasing_model(0.0, ModelParams.symmetric())
        assert not m.jumps
        assert np.max(np.abs(m.h_eff - m.h_eff.conj().T)) < 1e-15

    def test_structure(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        assert m.dims == (2,)
        assert len(m.jumps) == 2
        assert [rate for _, rate in m.jumps] == pytest.approx([0.05, 0.05])
        ops = [op for op, _ in m.jumps]
        assert np.allclose(ops[0], -ops[1], atol=1e-15)

    def test_coherence_decays(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        traj = integrate(m, plus, 30.0, observables=("log_negativity",))
        logneg = traj.observables["log_negativity"]
        assert logneg[0] == pytest.approx(1.0, abs=1e-9)
        assert logneg[-1] < 0.01


class TestClosedForm:
    def test_unit_limit(self):
        p = ModelParams.symmetric(g=0.0, kappa=0.0)
        assert steady_state_dd_closed_form(p) == pytest.approx(1.0)

    def test_overdamped_limit(self):
        p = apply_f(1e8, ModelParams.symmetric())
        assert steady_state_dd_closed_form(p) == pytest.approx(0.5, abs=1e-5)

    def test_reference_value(self):
        p = apply_f(0.1, ModelParams.symmetric())
        assert steady_state_dd_closed_form(p) == pytest.approx(
            20.4 / 24.8, abs=1e-14
        )

    def test_bounded_on_sweep_grid(self):
        for f in np.geomspace(0.0035, 3.6554, 15):
            val = steady_state_dd_closed_form(apply_f(float(f), ModelParams.symmetric()))
            assert 0.0 <= val <= 1.0


class TestEnvironmentStates:
    def test_vacuum(self):
        state = thermal_mode_state(3, 0.0)
        assert np.allclose(state, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_thermal_ratios(self):
        n_th = 0.1
        state = thermal_mode_state(4, n_th)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-14)
        ratio = n_th / (1.0 + n_th)
        diag = np.diag(state).real
        for k in range(3):
            assert diag[k + 1] / diag[k] == pytest.approx(ratio, rel=1e-12)

    def test_environment_of_full_model(self):
        m = build_full_model(apply_f(0.1, ModelParams.symmetric(n_fock=3)))
        env = environment_state(m)
        assert env.shape == (9, 9)
        vac = np.zeros((3, 3), dtype=complex)
        vac[0, 0] = 1.0
        assert np.allclose(env, opalg.kron(vac, vac), atol=1e-15)

    def test_environment_of_sector_model(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        assert environment_state(m).shape == (1, 1)


def parity_builds(n_th):
    """{name: model} of every builder that declares the exchange parity,
    at n_fock = 3, f = 0.1 and n_th, and of the full model with unequal
    modes."""
    p = apply_f(0.1, ModelParams.symmetric(n_fock=3, n_th=n_th))
    unequal = replace(p, g2=2.0 * p.g1)
    return {
        "symmetric": build_symmetric_model(p),
        "full": build_full_model(unequal),
        "global": build_global_mode_model(unequal),
        "markovian": build_markovian_dephasing_model(0.1, p),
        "full_unequal_modes": build_full_model(
            replace(unequal, kappa2=2.0 * p.kappa1, Omega2=3.0)),
    }


class TestParity:
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    def test_generator_commutes_exactly(self, n_th):
        for name, m in parity_builds(n_th).items():
            perm, sign = m.parity
            pi = np.zeros((m.dim, m.dim))
            pi[perm, np.arange(m.dim)] = sign
            assert np.array_equal(pi @ pi, np.eye(m.dim)), name
            s = np.kron(pi, pi)
            lmat = liouvillian_matrix(m)
            assert np.abs(lmat @ s - s @ lmat).max() == 0.0, name

    def test_sector_parities(self):
        models = parity_builds(0.0)
        # the site exchange swaps the site basis and flips |d> of the
        # delocalized one; each mode adds its number parity
        perm, sign = models["full"].parity
        assert np.array_equal(perm, np.r_[9:18, 0:9])
        assert np.array_equal(sign[:9], [1, -1, 1, -1, 1, -1, 1, -1, 1])
        assert np.array_equal(sign[9:], sign[:9])
        perm, sign = models["symmetric"].parity
        assert np.array_equal(perm, np.arange(6))
        assert np.array_equal(sign, [1, -1, 1, -1, 1, -1])
        perm, sign = models["markovian"].parity
        assert (list(perm), list(sign)) == ([1, 0], [1.0, 1.0])

    @pytest.mark.parametrize("build", [build_full_model, build_global_mode_model])
    def test_unequal_sites_declare_none(self, build):
        p = apply_f(0.1, ModelParams.symmetric(n_fock=3))
        assert build(replace(p, omega1=0.3)).parity is None
        assert build(p).parity is not None

    def test_rejects_parity_of_another_dimension(self):
        m = build_markovian_dephasing_model(0.1, ModelParams.symmetric())
        with pytest.raises(DimensionError):
            replace(m, parity=(np.arange(3), np.ones(3)))


class TestParamValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            ModelParams.symmetric(J=0.0)
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            ModelParams.symmetric(n_fock=1)
        with pytest.raises((ConfigError, DimerNMError, ValueError)):
            ModelParams.symmetric(n_th=-0.5)

    def test_symmetry_flag(self):
        assert ModelParams.symmetric().is_symmetric
        asym = ModelParams(omega1=0, omega2=0, J=1, Omega1=2, Omega2=2,
                           g1=1.0, g2=2.0, kappa1=20.0, kappa2=20.0, n_fock=3)
        assert not asym.is_symmetric

    @pytest.mark.parametrize("key, bad, message", [
        ("J", 0.0, "J must be > 0.0, got 0.0"),
        ("J", float("nan"), "J must be > 0.0, got nan"),
        ("n_fock", 1, "n_fock must be >= 2, got 1"),
        ("n_th", -0.5, "n_th must be >= 0.0, got -0.5"),
        ("kappa1", -1.0, "kappa1 must be >= 0.0, got -1.0"),
        ("kappa2", float("nan"), "kappa2 must be >= 0.0, got nan"),
    ], ids=["J", "J-nan", "n_fock", "n_th", "kappa1", "kappa2-nan"])
    def test_bound_messages_start_with_the_key(self, key, bad, message):
        with pytest.raises(DimerNMError, match=f"^{re.escape(message)}$"):
            ModelParams(**{key: bad})

    @pytest.mark.parametrize("build", [build_symmetric_model, build_full_model,
                                       build_global_mode_model])
    def test_bath_past_float_range_refused(self, build):
        # at f = 1 kappa = 20: 2 kappa (1 + n_th) overflows at n_th = 1e307,
        # and at 1e306 the rates, 4e307, are finite but not the shift,
        # their sum times L^dag L, up to 9 times a rate at n_fock = 6;
        # neither warns on the way
        for n_th, message in ((1e307, "jump rate inf is not finite at n_th = 1e+307"),
                              (1e306, "the damping shift is not finite at n_th = 1e+306")):
            with pytest.raises(DimerNMError, match=f"^{re.escape(message)}$"):
                build(ModelParams.symmetric(n_fock=6, n_th=n_th))
        assert np.isfinite(build(ModelParams.symmetric(n_fock=3, n_th=1e300)).h_eff).all()

    def test_closed_form_holds_for_symmetric_cold_parameters_only(self):
        assert ModelParams.symmetric().has_closed_form
        for p in (ModelParams(g2=2.0), ModelParams(omega1=0.3), ModelParams.symmetric(n_th=0.2)):
            assert not p.has_closed_form
            with pytest.raises(DimerNMError, match="^closed form is defined for"):
                steady_state_dd_closed_form(p)
