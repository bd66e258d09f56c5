"""Operator algebra layer: tensor construction, norms, solves."""

import warnings

import numpy as np
import pytest

from dimer_nm import opalg
from dimer_nm.errors import DimensionError, NonHermitianError, SingularSystemError
from oracles import partial_transpose

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


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(19)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        out = partial_transpose(opalg.kron(rho_a, rho_b), (2, 3), 0)
        assert np.allclose(out, opalg.kron(rho_a.T, rho_b), atol=1e-14)

    def test_singlet_spectrum(self):
        out = partial_transpose(SINGLET_2Q, (2, 2), 0)
        evals = np.linalg.eigvalsh(out)
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(20)
        rho = random_hermitian(rng, 4)
        out = partial_transpose(
            partial_transpose(rho, (2, 2), 1), (2, 2), 1
        )
        assert np.array_equal(out, rho)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 6)
        out = partial_transpose(rho, (2, 3), 1)
        assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-14)
        assert opalg.hermiticity_defect(out) < 1e-14

    def test_rejects_bad_slot(self):
        with pytest.raises(DimensionError):
            partial_transpose(np.eye(6), (2, 3), 2)


class TestTraceNorm:
    def test_diagonal(self):
        assert opalg.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_density_matrices(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            rho = random_density(rng, 5)
            assert opalg.trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_partially_transposed_singlet(self):
        pt = partial_transpose(SINGLET_2Q, (2, 2), 0)
        assert opalg.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_bounds_trace(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            assert opalg.trace_norm(h) >= abs(np.trace(h).real) - 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            opalg.trace_norm(opalg.make_destroy(3))


class TestHermitianEigen:
    """The Hermitian eigensolve, reached through trace_norm, is gated on Hermiticity."""

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            opalg.trace_norm(bad)


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

    def test_singular_system_reports_its_condition(self):
        # a zero column: LAPACK stops at an exactly zero pivot, and the
        # error carries the system's own estimate
        rng = np.random.default_rng(31)
        a = 4.0 * np.eye(3) + rng.standard_normal((3, 3))
        a[:, 1] = 0.0
        with pytest.raises(SingularSystemError) as exc:
            opalg.solve_linear(a, np.ones((3, 1)))
        assert exc.value.cond == opalg.condition_number(a)
        assert exc.value.cond > 1e15

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionError):
            opalg.solve_linear(np.stack([np.eye(3), np.eye(3)]), np.ones(3))


class TestStacked:
    """A stack (..., n, n) gives the one-matrix calls' results, matrix by matrix."""

    def test_match_one_matrix_calls(self):
        rng = np.random.default_rng(29)
        a = 4.0 * np.eye(4) + (
            rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        )
        a[2] = 0.0
        assert list(opalg.condition_number(a)) == [opalg.condition_number(m) for m in a]
        assert opalg.condition_number(a)[2] == np.inf
        h = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        assert list(opalg.trace_norm(h)) == [opalg.trace_norm(m) for m in h]

    def test_rejects_any_non_hermitian_matrix(self):
        stack = np.stack([np.eye(3, dtype=complex), opalg.make_destroy(3)])
        with pytest.raises(NonHermitianError):
            opalg.trace_norm(stack)

    def test_residual_failure_raises(self, monkeypatch):
        # check_residual per system of a stack, as the D_NM rates call it
        monkeypatch.setattr(opalg, "SOLVE_RESIDUAL_RTOL", 0.0)
        rng = np.random.default_rng(30)
        a = 4.0 * np.eye(6) + rng.standard_normal((3, 6, 6))
        b = rng.standard_normal((3, 6, 2))
        with pytest.raises(SingularSystemError):
            opalg.check_residual(a, np.linalg.solve(a, b), b, axis=(-2, -1))

    def test_sparse_residual_of_huge_entries(self):
        # entries near 1e300, as a bath at n_th = 1e300 gives the sparse
        # steady solve: the scaled norms square no entry, so neither the
        # residual nor its bound overflows, and a good solve passes
        from scipy import sparse

        rng = np.random.default_rng(31)
        m = 4.0 * np.eye(6) + rng.standard_normal((6, 6))
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = sparse.csr_matrix(1e300 * m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a_norm = opalg.frobenius(a.data)
            assert a_norm == pytest.approx(1e300 * np.linalg.norm(m), rel=1e-14)
            opalg.check_residual(a, x, a @ x, a_norm=a_norm)
            cases = ([], [0.0], [3.0, -4.0], [1.0, np.inf])
            assert [opalg.frobenius(np.array(v)) for v in cases] == [0.0, 0.0, 5.0, np.inf]


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



class TestOneBlasThread:
    def test_pins_and_restores(self, blas_counts):
        with opalg.one_blas_thread():
            assert set(blas_counts()) == {1}
        assert set(blas_counts()) == {3}

    def test_restores_when_the_block_raises(self, blas_counts):
        with pytest.raises(ZeroDivisionError):
            with opalg.one_blas_thread():
                1 / 0
        assert set(blas_counts()) == {3}

    def test_nested_and_overlapping_blocks_restore_once(self, blas_counts):
        import threading

        with opalg.one_blas_thread():
            with opalg.one_blas_thread():
                pass
            assert set(blas_counts()) == {1}
        # a block on another thread that outlives the first one's
        entered, release = threading.Event(), threading.Event()

        def hold():
            with opalg.one_blas_thread():
                entered.set()
                release.wait(10.0)

        other = threading.Thread(target=hold)
        with opalg.one_blas_thread():
            other.start()
            assert entered.wait(10.0)
        assert set(blas_counts()) == {1}
        release.set()
        other.join()
        assert set(blas_counts()) == {3}

    def test_many_threads_leave_no_block_held(self, blas_counts):
        import sys
        import threading

        def churn():
            for _ in range(200):
                with opalg.one_blas_thread():
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert opalg._blas_holders == 0 and not opalg._blas_held
        assert set(blas_counts()) == {3}

    def test_lookup_rescans_only_after_an_import(self, blas_counts, monkeypatch):
        import builtins
        import sys
        import types

        opened = []
        real_open = builtins.open

        def spy(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        for _ in range(3):
            with opalg.one_blas_thread():
                pass
        assert opened == []
        monkeypatch.setitem(sys.modules, "newly_imported", types.ModuleType("newly_imported"))
        for _ in range(3):
            with opalg.one_blas_thread():
                assert set(blas_counts()) == {1}
        assert opened == ["/proc/self/maps"]

    def test_does_nothing_without_a_library(self, blas_counts, monkeypatch):
        monkeypatch.setattr(opalg, "_openblas_libs", lambda: ())
        with opalg.one_blas_thread():
            assert set(blas_counts()) == {3}
        assert set(blas_counts()) == {3}
