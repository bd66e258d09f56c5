"""Operator algebra layer: tensor construction, reductions, norms, solves."""

import numpy as np
import pytest

from dimer_nm import opalg
from dimer_nm.errors import DimensionError, NonHermitianError, SingularSystemError

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# two-qubit singlet (|01> - |10>)/sqrt(2) as a 4x4 projector
_sv = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET_2Q = np.outer(_sv, _sv.conj())


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(opalg.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_case(self):
        out = opalg.kron(SIGMA_Z, np.eye(3))
        assert np.array_equal(out, np.diag([1, 1, 1, -1, -1, -1]).astype(complex))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = np.trace(opalg.kron(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_associative(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = opalg.kron(opalg.kron(a, b), c)
        rhs = opalg.kron(a, opalg.kron(b, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


class TestEmbed:
    def test_first_slot(self):
        assert np.array_equal(
            opalg.embed(SIGMA_Z, 0, (2, 3)), opalg.kron(SIGMA_Z, np.eye(3))
        )

    def test_second_slot(self):
        a = opalg.make_destroy(3)
        assert np.array_equal(opalg.embed(a, 1, (2, 3)), opalg.kron(np.eye(2), a))

    def test_middle_slot(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expect = opalg.kron(np.eye(2), opalg.kron(x, np.eye(2)))
        assert np.allclose(opalg.embed(x, 1, (2, 3, 2)), expect, rtol=0, atol=0)

    def test_disjoint_slots_commute(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = random_hermitian(rng, 2)
            y = random_hermitian(rng, 2)
            ex = opalg.embed(x, 1, (2, 2, 2))
            ey = opalg.embed(y, 2, (2, 2, 2))
            assert np.max(np.abs(ex @ ey - ey @ ex)) < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            opalg.embed(np.eye(3), 0, (2, 3))
        with pytest.raises(DimensionError):
            opalg.embed(np.eye(2), 2, (2, 3))


class TestMakeDestroy:
    def test_qubit_limit(self):
        assert np.array_equal(opalg.make_destroy(2), np.array([[0, 1], [0, 0]]))

    def test_superdiagonal(self):
        a = opalg.make_destroy(3)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(a) == 2

    def test_number_operator(self):
        a = opalg.make_destroy(3)
        assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_rejects_single_level(self):
        with pytest.raises(DimensionError):
            opalg.make_destroy(1)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(15)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        full = opalg.kron(rho_a, rho_b)
        assert np.allclose(opalg.partial_trace(full, (2, 3), {0}), rho_a, atol=1e-12)
        assert np.allclose(opalg.partial_trace(full, (2, 3), {1}), rho_b, atol=1e-12)

    def test_unnormalized_factor(self):
        rng = np.random.default_rng(16)
        rho_a = random_density(rng, 2)
        b = random_hermitian(rng, 3)
        out = opalg.partial_trace(opalg.kron(rho_a, b), (2, 3), {0})
        assert np.allclose(out, np.trace(b) * rho_a, atol=1e-12)

    def test_all_slots(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 6)
        out = opalg.partial_trace(rho, (2, 3), set())
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_singlet_times_vacuum(self):
        vac = np.zeros((3, 3), dtype=complex)
        vac[0, 0] = 1.0
        full = opalg.kron(SINGLET_2Q, vac)
        out = opalg.partial_trace(full, (4, 3), {0})
        assert np.allclose(out, SINGLET_2Q, atol=1e-14)

    def test_matches_index_summation(self):
        # brute-force oracle: keep slots 0 and 2 of a (2, 3, 2) space
        rng = np.random.default_rng(18)
        rho = random_density(rng, 12)
        t = rho.reshape(2, 3, 2, 2, 3, 2)
        oracle = np.einsum("imjkml->ijkl", t).reshape(4, 4)
        out = opalg.partial_trace(rho, (2, 3, 2), {0, 2})
        assert np.allclose(out, oracle, atol=1e-13)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            opalg.partial_trace(np.eye(5), (2, 3), {0})
        with pytest.raises(DimensionError):
            opalg.partial_trace(np.zeros((4, 5, 5)), (2, 3), {0})

    @pytest.mark.parametrize("keep", [{0}, {1}, {0, 2}, {1, 2}, set()])
    def test_stack_matches_per_state(self, keep):
        rng = np.random.default_rng(19)
        stack = np.stack([random_density(rng, 12) for _ in range(6)]).reshape(2, 3, 12, 12)
        out = opalg.partial_trace(stack, (2, 3, 2), keep)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], opalg.partial_trace(stack[idx], (2, 3, 2), keep))


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(19)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        out = opalg.partial_transpose(opalg.kron(rho_a, rho_b), (2, 3), 0)
        assert np.allclose(out, opalg.kron(rho_a.T, rho_b), atol=1e-14)

    def test_singlet_spectrum(self):
        out = opalg.partial_transpose(SINGLET_2Q, (2, 2), 0)
        evals = np.linalg.eigvalsh(out)
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(20)
        rho = random_hermitian(rng, 4)
        out = opalg.partial_transpose(
            opalg.partial_transpose(rho, (2, 2), 1), (2, 2), 1
        )
        assert np.array_equal(out, rho)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 6)
        out = opalg.partial_transpose(rho, (2, 3), 1)
        assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-14)
        assert opalg.hermiticity_defect(out) < 1e-14

    def test_rejects_bad_slot(self):
        with pytest.raises(DimensionError):
            opalg.partial_transpose(np.eye(6), (2, 3), 2)


class TestHermitianEigen:
    def test_diagonal_input(self):
        assert np.allclose(
            opalg.hermitian_eigen(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
        )

    def test_pauli_spectrum(self):
        assert np.allclose(opalg.hermitian_eigen(SIGMA_X), [-1.0, 1.0], atol=1e-15)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            evals = opalg.hermitian_eigen(h)
            _, vecs = np.linalg.eigh(h)
            for i in range(6):
                res = np.linalg.norm(h @ vecs[:, i] - evals[i] * vecs[:, i])
                assert res < 1e-9

    def test_sum_and_product(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 4)
        evals = opalg.hermitian_eigen(h)
        scale = 4 * np.max(np.abs(h))
        assert abs(evals.sum() - np.trace(h).real) <= 1e-10 * scale
        det = np.linalg.det(h).real
        assert abs(np.prod(evals) - det) <= 1e-8 * max(abs(det), 1e-30)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            opalg.hermitian_eigen(bad)


class TestTraceNorm:
    def test_diagonal(self):
        assert opalg.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_density_matrices(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            rho = random_density(rng, 5)
            assert opalg.trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_partially_transposed_singlet(self):
        pt = opalg.partial_transpose(SINGLET_2Q, (2, 2), 0)
        assert opalg.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_bounds_trace(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            assert opalg.trace_norm(h) >= abs(np.trace(h).real) - 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            opalg.trace_norm(opalg.make_destroy(3))


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0 + 2.0j, -0.5, 3.0])
        assert np.allclose(opalg.solve_linear(np.eye(3), b), b, atol=1e-15)

    def test_diagonal(self):
        x = opalg.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-15)

    def test_random_residual(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            a = 4.0 * np.eye(8) + (
                rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            )
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            x = opalg.solve_linear(a, b)
            res = np.linalg.norm(a @ x - b)
            bound = 1e-9 * (
                np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
            )
            assert res <= bound

    def test_singular_system_reported(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystemError) as exc:
            opalg.solve_linear(a, np.array([1.0, 1.0]))
        assert "condition" in str(exc.value)


class TestStacked:
    """Stacked variants agree with the one-matrix calls, matrix by matrix."""

    def test_match_one_matrix_calls(self):
        rng = np.random.default_rng(29)
        a = 4.0 * np.eye(4) + (
            rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        )
        b = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        x = opalg.solve_linear_stack(a, b)
        for k in range(5):
            assert np.array_equal(x[k], opalg.solve_linear(a[k], b[k]))
        a[2] = 0.0
        assert list(opalg.condition_numbers(a)) == [opalg.condition_number(m) for m in a]
        assert opalg.condition_numbers(a)[2] == np.inf
        h = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        assert list(opalg.trace_norms(h)) == [opalg.trace_norm(m) for m in h]

    def test_rejects_any_non_hermitian_matrix(self):
        stack = np.stack([np.eye(3, dtype=complex), opalg.make_destroy(3)])
        with pytest.raises(NonHermitianError):
            opalg.trace_norms(stack)

    def test_residual_failure_raises(self, monkeypatch):
        monkeypatch.setattr(opalg, "SOLVE_RESIDUAL_RTOL", 0.0)
        rng = np.random.default_rng(30)
        a = 4.0 * np.eye(6) + rng.standard_normal((3, 6, 6))
        with pytest.raises(SingularSystemError):
            opalg.solve_linear_stack(a, rng.standard_normal((3, 6, 2)))

    def test_exactly_singular_system_raises(self):
        a = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(SingularSystemError):
            opalg.solve_linear_stack(a, np.ones((2, 3, 1)))


class TestVecConvention:
    def test_column_stacking(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = opalg.vec(a)
        for i in range(3):
            for j in range(3):
                assert v[i + 3 * j] == a[i, j]

    def test_round_trip(self):
        rng = np.random.default_rng(28)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(opalg.unvec(opalg.vec(a)), a)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(DimensionError):
            opalg.unvec(np.zeros(5))


class TestHermitize:
    def test_defect_and_projection(self):
        assert opalg.hermiticity_defect(SIGMA_X) == 0.0
        bad = SIGMA_X + np.array([[0.0, 1e-3j], [0.0, 0.0]])
        fixed = opalg.hermitize(bad)
        assert opalg.hermiticity_defect(fixed) < 1e-16
        assert opalg.hermiticity_defect(bad) > 1e-4

    def test_defect_of_a_stack_matches_per_matrix(self):
        rng = np.random.default_rng(58)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        stack[2] = opalg.hermitize(stack[2])
        out = opalg.hermiticity_defect(stack)
        assert out.shape == (5,)
        assert out[2] == 0.0
        for k in range(5):
            assert out[k] == opalg.hermiticity_defect(stack[k])
        assert opalg.hermiticity_defect(np.zeros((0, 0))) == 0.0

    def test_condition_number(self):
        a = np.diag([1.0, 1e-3])
        assert opalg.condition_number(a) == pytest.approx(1e3, rel=1e-12)
