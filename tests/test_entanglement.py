"""Dimer reduction, basis handling, log negativity, and singlet overlap."""

import numpy as np
import pytest

from dimer_nm import opalg
from dimer_nm.entanglement import (
    DimerState,
    basis_change,
    embed_two_qubit,
    log_negativity,
    log_negativity_via_partial_transpose,
    reduce_to_dimer,
    singlet_overlap,
    site_coherence,
)
from dimer_nm.errors import DimensionError, DimerNMError

# site-basis singlet: (|01> - |10>)/sqrt(2) over the ordering {|01>, |10>}
SINGLET_SITE = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
LOG2_1P6 = 0.6780719051126377  # log2(1 + 2*0.3)


def random_sector_state(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestReduceToDimer:
    def test_product_state(self):
        vac = np.zeros((3, 3), dtype=complex)
        vac[0, 0] = 1.0
        full = opalg.kron(SINGLET_SITE, vac)
        red = reduce_to_dimer(full, (2, 3), "site")
        assert red.basis == "site"
        assert np.allclose(red.rho, SINGLET_SITE, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        red = reduce_to_dimer(rho, (2, 3, 2), "site")
        assert np.trace(red.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_index_summation(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for m in range(3):
                    oracle[i, j] += rho[i * 3 + m, j * 3 + m]
        red = reduce_to_dimer(rho, (2, 3), "site")
        assert np.allclose(red.rho, oracle, atol=1e-13)

    def test_rejects_non_sector_leading_slot(self):
        with pytest.raises(DimensionError):
            reduce_to_dimer(np.eye(9) / 9.0, (3, 3), "site")


class TestBasisChange:
    def test_dark_state_to_site_singlet(self):
        dark = DimerState(np.diag([0.0, 1.0]).astype(complex), "delocalized")
        out = basis_change(dark, "site")
        assert out.basis == "site"
        assert np.allclose(out.rho, SINGLET_SITE, atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(43)
        state = DimerState(random_sector_state(rng), "site")
        back = basis_change(basis_change(state, "delocalized"), "site")
        assert np.allclose(back.rho, state.rho, atol=1e-14)

    def test_noop_when_already_there(self):
        rng = np.random.default_rng(44)
        state = DimerState(random_sector_state(rng), "site")
        assert np.array_equal(basis_change(state, "site").rho, state.rho)

    def test_spectrum_invariant(self):
        rng = np.random.default_rng(45)
        state = DimerState(random_sector_state(rng), "site")
        rotated = basis_change(state, "delocalized")
        assert np.allclose(
            np.linalg.eigvalsh(state.rho),
            np.linalg.eigvalsh(rotated.rho),
            atol=1e-13,
        )

    def test_rejects_unknown_basis(self):
        state = DimerState(SINGLET_SITE, "site")
        with pytest.raises(DimerNMError):
            basis_change(state, "bell")


class TestLogNegativity:
    def test_singlet_is_one_ebit(self):
        assert log_negativity(DimerState(SINGLET_SITE, "site")) == pytest.approx(1.0)

    def test_maximally_mixed_is_separable(self):
        mixed = DimerState(np.eye(2, dtype=complex) / 2.0, "site")
        assert log_negativity(mixed) == pytest.approx(0.0, abs=1e-15)

    def test_reference_coherence(self):
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        state = DimerState(rho, "site")
        assert log_negativity(state) == pytest.approx(LOG2_1P6, abs=1e-12)
        assert log_negativity_via_partial_transpose(state) == pytest.approx(
            LOG2_1P6, abs=1e-12
        )

    def test_closed_form_matches_pipeline(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            state = DimerState(random_sector_state(rng), "site")
            fast = log_negativity(state)
            oracle = log_negativity_via_partial_transpose(state)
            assert abs(fast - oracle) <= 1e-10

    def test_range_and_zero_condition(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            state = DimerState(random_sector_state(rng), "site")
            val = log_negativity(state)
            assert 0.0 <= val <= 1.0
        p = 0.37
        diagonal = DimerState(np.diag([p, 1 - p]).astype(complex), "site")
        assert log_negativity(diagonal) == 0.0

    def test_invariant_under_local_phases(self):
        rng = np.random.default_rng(48)
        rho = random_sector_state(rng)
        base = log_negativity(DimerState(rho, "site"))
        for phi in (0.3, 1.2, 2.9):
            u = np.diag([1.0, np.exp(1j * phi)])
            rotated = DimerState(u @ rho @ u.conj().T, "site")
            assert log_negativity(rotated) == pytest.approx(base, abs=1e-12)

    def test_delocalized_input_rotated_first(self):
        dark = DimerState(np.diag([0.0, 1.0]).astype(complex), "delocalized")
        assert log_negativity(dark) == pytest.approx(1.0)


class TestTwoQubitEmbedding:
    def test_populations_confined(self):
        rng = np.random.default_rng(49)
        rho = random_sector_state(rng)
        out = embed_two_qubit(DimerState(rho, "site"))
        assert out.shape == (4, 4)
        assert np.allclose(out[1:3, 1:3], rho, atol=1e-15)
        mask = np.ones((4, 4), dtype=bool)
        mask[1:3, 1:3] = False
        assert np.max(np.abs(out[mask])) == 0.0

    def test_singlet_partial_transpose_spectrum(self):
        out = embed_two_qubit(DimerState(SINGLET_SITE, "site"))
        pt = opalg.partial_transpose(out, (2, 2), 0)
        assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert opalg.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)


class TestSingletOverlap:
    def test_self_overlap(self):
        assert singlet_overlap(DimerState(SINGLET_SITE, "site")) == pytest.approx(1.0)

    def test_orthogonal_partner(self):
        bright = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        assert singlet_overlap(DimerState(bright, "site")) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_completeness_with_partner(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            state = DimerState(random_sector_state(rng), "site")
            deloc = basis_change(state, "delocalized").rho
            u_pop = deloc[0, 0].real
            assert singlet_overlap(state) + u_pop == pytest.approx(1.0, abs=1e-12)

    def test_delocalized_input(self):
        dark = DimerState(np.diag([0.0, 1.0]).astype(complex), "delocalized")
        assert singlet_overlap(dark) == pytest.approx(1.0)


class TestDimerStateValidation:
    def test_shape_and_basis_checked(self):
        with pytest.raises(DimensionError):
            DimerState(np.eye(3, dtype=complex) / 3.0, "site")
        with pytest.raises(DimerNMError):
            DimerState(SINGLET_SITE, "fourier")

    def test_site_coherence(self):
        rho = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.5]], dtype=complex)
        c = site_coherence(DimerState(rho, "site"))
        assert c == pytest.approx(0.2 - 0.1j)


class TestStacks:
    """Every observable of a stack (..., 2, 2) equals it state by state."""

    @staticmethod
    def stack(seed, basis):
        rng = np.random.default_rng(seed)
        rho = np.stack([random_sector_state(rng) for _ in range(12)]).reshape(3, 4, 2, 2)
        return DimerState(rho, basis)

    @pytest.mark.parametrize("basis", ["site", "delocalized"])
    def test_log_negativity_matches_pipeline_per_state(self, basis):
        state = self.stack(60, basis)
        out = log_negativity(state)
        assert out.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            single = DimerState(state.rho[idx], basis)
            assert out[idx] == log_negativity(single)
            assert abs(out[idx] - log_negativity_via_partial_transpose(single)) <= 1e-10

    @pytest.mark.parametrize("basis", ["site", "delocalized"])
    def test_overlap_coherence_and_basis_change_per_state(self, basis):
        state = self.stack(61, basis)
        overlap = singlet_overlap(state)
        coherence = site_coherence(state)
        rotated = basis_change(state, "site" if basis == "delocalized" else "delocalized")
        for idx in np.ndindex(3, 4):
            single = DimerState(state.rho[idx], basis)
            assert overlap[idx] == singlet_overlap(single)
            assert coherence[idx] == site_coherence(single)
            assert np.array_equal(rotated.rho[idx], basis_change(single, rotated.basis).rho)

    def test_reduce_to_dimer_per_state(self):
        rng = np.random.default_rng(62)
        full = np.stack([
            opalg.kron(random_sector_state(rng), np.diag(rng.random(3)).astype(complex))
            for _ in range(5)
        ])
        out = reduce_to_dimer(full, (2, 3), "site")
        assert out.rho.shape == (5, 2, 2)
        for k in range(5):
            assert np.array_equal(out.rho[k], reduce_to_dimer(full[k], (2, 3), "site").rho)

    def test_imaginary_overlap_in_a_stack_rejected(self):
        rho = np.stack([SINGLET_SITE, SINGLET_SITE])
        rho[1] = rho[1] + 1e-6j * np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DimerNMError):
            singlet_overlap(DimerState(rho, "site"))

    def test_stack_of_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            DimerState(np.zeros((4, 3, 3), dtype=complex), "site")
        with pytest.raises(DimensionError):
            DimerState(np.zeros(4, dtype=complex), "site")
