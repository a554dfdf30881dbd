import numpy as np
import pytest

from pseudobath.linalg import (
    DimensionMismatchError,
    LinAlgError,
    NotHermitianError,
    hermitian_eigenvalues,
    integrate_linear_ode,
)


def random_hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (x + x.conj().T)


class TestHermitianEigen:
    """Ordering, accuracy and input checks of the Hermitian eigenvalue solve."""

    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.diag([2.0, 1.0])), [1.0, 2.0])

    def test_matches_reference_eigensolver(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 4, 9):
            a = random_hermitian(rng, n, scale=3.0)
            got = hermitian_eigenvalues(a)
            np.testing.assert_allclose(got, np.linalg.eigvalsh(a), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros((2, 3)))


class TestHermitianEigenvalues:
    def test_matches_full_diagonalization(self):
        rng = np.random.default_rng(14)
        for n in (1, 3, 8):
            a = random_hermitian(rng, n, scale=2.0)
            np.testing.assert_array_equal(
                hermitian_eigenvalues(a), np.linalg.eigvalsh(0.5 * (a + a.conj().T))
            )
            np.testing.assert_allclose(
                hermitian_eigenvalues(a), np.linalg.eigh(a).eigenvalues, atol=1e-12
            )

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(15)
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        got = hermitian_eigenvalues(stack)
        assert got.shape == (5, 4)
        for a, row in zip(stack, got):
            np.testing.assert_array_equal(row, hermitian_eigenvalues(a))
        stack[3, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(stack)
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros(3))

    def test_same_input_checks(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(LinAlgError):
            hermitian_eigenvalues(np.array([[np.nan]]))


class TestIntegrateLinearOde:
    def test_returns_time_by_dim_array(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate_linear_ode(m, np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 7))
        assert isinstance(ys, np.ndarray)
        assert ys.shape == (7, 2)
        np.testing.assert_array_equal(ys[0], [1.0, 0.0])
        single = integrate_linear_ode(m, np.array([1.0, 0.0]), np.array([0.0]))
        assert single.shape == (1, 2)

    def test_zero_generator_constant(self):
        grid = np.linspace(0.0, 5.0, 21)
        ys = integrate_linear_ode(np.zeros((2, 2)), np.array([1.0, 0.0]), grid)
        for y in ys:
            np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_scalar_phase_rotation(self):
        ys = integrate_linear_ode(np.eye(1), np.array([1.0]), np.array([0.0, np.pi]))
        assert abs(ys[-1][0] - (-1.0)) < 1e-9

    def test_pauli_x_quarter_period(self):
        # closed form: exp(-i X t) (1,0) = (cos t, -i sin t)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate_linear_ode(m, np.array([1.0, 0.0]), np.array([0.0, np.pi / 2]))
        np.testing.assert_allclose(ys[-1], [0.0, -1.0j], atol=1e-9)

    def test_norm_conserved_for_hermitian_generator(self):
        rng = np.random.default_rng(20)
        m = random_hermitian(rng, 4, scale=4.0)
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y0 /= np.linalg.norm(y0)
        ys = integrate_linear_ode(m, y0, np.linspace(0.0, 10.0, 41))
        norms = [np.linalg.norm(y) for y in ys]
        assert max(abs(n - 1.0) for n in norms) < 1e-8

    def test_tolerance_refinement(self):
        rng = np.random.default_rng(21)
        m = random_hermitian(rng, 3, scale=2.0)
        y0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        grid = np.array([0.0, 10.0])
        coarse = integrate_linear_ode(m, y0, grid, rtol=1e-9, atol=1e-12)[-1]
        fine = integrate_linear_ode(m, y0, grid, rtol=5e-10, atol=5e-13)[-1]
        assert np.linalg.norm(coarse - fine) < 10 * 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            integrate_linear_ode(np.eye(2), np.array([1.0]), np.array([0.0, 1.0]))

    def test_bad_grid(self):
        with pytest.raises(LinAlgError):
            integrate_linear_ode(np.eye(1), np.array([1.0]), np.array([1.0, 2.0]))
