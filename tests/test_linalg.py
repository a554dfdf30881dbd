import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import pseudobath
from pseudobath import linalg
from pseudobath.dynamics import evolve
from pseudobath.linalg import (
    DimensionMismatchError,
    LinAlgError,
    NotHermitianError,
    hermitian_eigenvalues,
    propagate_blocks,
)
from pseudobath.model import BathModel, InitialState, LorentzPeak, SystemHamiltonian, TimeGrid
from pseudobath.pseudomode import build_effective_hamiltonian, dilation_threshold


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


def integrate(m, y0, grid):
    """dy/dt = -i M y on a grid, with M as a single block."""
    m = np.asarray(m, dtype=complex)[np.newaxis]
    return propagate_blocks(m, np.asarray(y0, dtype=complex)[np.newaxis], grid)[0]


class TestIntegrateLinearOde:
    """The generic linear-ODE checks, with the whole generator as one block."""

    def test_returns_time_by_dim_array(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate(m, np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 7))
        assert isinstance(ys, np.ndarray)
        assert ys.shape == (7, 2)
        np.testing.assert_array_equal(ys[0], [1.0, 0.0])
        single = integrate(m, np.array([1.0, 0.0]), np.array([0.0]))
        assert single.shape == (1, 2)

    def test_zero_generator_constant(self):
        grid = np.linspace(0.0, 5.0, 21)
        ys = integrate(np.zeros((2, 2)), np.array([1.0, 0.0]), grid)
        for y in ys:
            np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_scalar_phase_rotation(self):
        ys = integrate(np.eye(1), np.array([1.0]), np.array([0.0, np.pi]))
        assert abs(ys[-1][0] - (-1.0)) < 1e-9

    def test_pauli_x_quarter_period(self):
        # closed form: exp(-i X t) (1,0) = (cos t, -i sin t)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate(m, np.array([1.0, 0.0]), np.array([0.0, np.pi / 2]))
        np.testing.assert_allclose(ys[-1], [0.0, -1.0j], atol=1e-9)

    def test_norm_conserved_for_hermitian_generator(self):
        rng = np.random.default_rng(20)
        m = random_hermitian(rng, 4, scale=4.0)
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y0 /= np.linalg.norm(y0)
        ys = integrate(m, y0, np.linspace(0.0, 10.0, 41))
        norms = [np.linalg.norm(y) for y in ys]
        assert max(abs(n - 1.0) for n in norms) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            integrate(np.eye(2), np.array([1.0]), np.array([0.0, 1.0]))

    def test_bad_grid(self):
        with pytest.raises(LinAlgError):
            integrate(np.eye(1), np.array([1.0]), np.array([1.0, 2.0]))


GRIDS = {"linspace": np.linspace(0.0, 10.0, 201), "steps 1, 4, 5": np.array([0.0, 1.0, 5.0, 10.0])}


def dilatable_generator(rng, n, k, eta):
    """A random N-level system in a K-peak bath, H lifted above the dilation
    threshold so that the norm cannot grow."""
    peaks = tuple(
        LorentzPeak(g=rng.uniform(0.1, 1.0), gamma=rng.uniform(0.1, 2.0), epsilon=rng.uniform(-1, 1))
        for _ in range(k)
    )
    bath = BathModel(peaks=peaks, eta=eta)
    h = random_hermitian(rng, n)
    h += max(0.0, dilation_threshold(bath) - np.linalg.eigvalsh(h)[0]) * np.eye(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    init = InitialState(psi=psi / np.linalg.norm(psi), psi0=0.0)
    return SystemHamiltonian(h), bath, init


class TestPropagateBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_evolve_matches_dense_expm(self, n, k):
        rng = np.random.default_rng(100 + 10 * n + k)
        for eta in (0.0, 0.4):
            h, bath, init = dilatable_generator(rng, n, k, eta)
            heff = build_effective_hamiltonian(h, bath)
            for t in GRIDS.values():
                ys = evolve(h, bath, init, TimeGrid(t)).vectors
                for i in range(0, len(t), 20):
                    exact = expm(-1j * t[i] * heff) @ ys[0]
                    assert np.abs(ys[i] - exact).max() <= 1e-12

    def test_each_block_matches_its_expm(self):
        # non-normal blocks with growing and decaying modes, on a grid with
        # four runs of equal steps
        rng = np.random.default_rng(7)
        blocks = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        blocks -= 0.5j * np.eye(4) * np.arange(1, 4)[:, np.newaxis, np.newaxis]
        z0 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        t = np.concatenate([np.linspace(0.0, 0.3, 4), [0.4], np.linspace(1.0, 2.5, 7), [3.0]])
        z = propagate_blocks(blocks, z0, t)
        assert z.shape == (3, t.size, 4)
        np.testing.assert_array_equal(z[:, 0], z0)
        for b, z0_b, z_b in zip(blocks, z0, z):
            for ti, zi_b in zip(t, z_b):
                exact = expm(-1j * ti * b) @ z0_b
                assert np.abs(zi_b - exact).max() <= 1e-12 * (1.0 + np.abs(exact).max())

    @pytest.mark.parametrize(
        "t, calls",
        [
            (np.linspace(0.0, 8.0, 4001), 12),
            (np.linspace(0.0, 1.0, 2), 1),
            (np.array([0.0, 1.0, 5.0, 10.0]), 3),
            (np.array([0.0, 1.0, 2.0, 3.0, 5.0, 7.0]), 4),
        ],
    )
    def test_stacked_expm_calls_per_grid(self, monkeypatch, t, calls):
        # a run of m equal steps takes ceil(log2(m + 1)) stacked expm calls
        seen = []
        monkeypatch.setattr(linalg, "expm", lambda a: seen.append(a.shape) or expm(a))
        propagate_blocks(np.zeros((2, 3, 3)), np.ones((2, 3)), t)
        assert seen == [(2, 3, 3)] * calls

    def test_matches_dop853_at_tight_tolerance(self):
        h, bath, init = dilatable_generator(np.random.default_rng(5), 2, 2, 0.5)
        t = np.linspace(0.0, 8.0, 801)
        ys = evolve(h, bath, init, TimeGrid(t)).vectors
        gen = -1j * build_effective_hamiltonian(h, bath)
        sol = solve_ivp(
            lambda _, y: gen @ y, (0.0, t[-1]), ys[0], method="DOP853", t_eval=t,
            rtol=1e-12, atol=1e-14,
        )
        assert sol.success
        assert np.abs(ys - sol.y.T).max() <= 1e-10

    def test_cli_import_leaves_scipy_integrate_out(self):
        src = str(pathlib.Path(pseudobath.__file__).resolve().parents[1])
        code = "import sys, pseudobath.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"
