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
from pseudobath.dynamics import evolve, evolve_group
from pseudobath.linalg import (
    CHUNK_ROWS,
    LinAlgError,
    hermitian_eigenvalues,
    propagate_chunks,
)
from pseudobath.model import BathModel, InitialState, LorentzPeak, SystemHamiltonian
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
        with pytest.raises(LinAlgError, match="^matrix is not Hermitian "):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(LinAlgError, match=r"^expected square matrices, got shape \(2, 3\)$"):
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
        with pytest.raises(LinAlgError, match="^matrix is not Hermitian "):
            hermitian_eigenvalues(stack)
        with pytest.raises(LinAlgError, match=r"^expected square matrices, got shape \(3,\)$"):
            hermitian_eigenvalues(np.zeros(3))

    def test_same_input_checks(self):
        with pytest.raises(LinAlgError, match="^matrix is not Hermitian "):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(LinAlgError, match=r"^expected square matrices, got shape \(2, 3\)$"):
            hermitian_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(LinAlgError, match="^matrix contains non-finite entries$"):
            hermitian_eigenvalues(np.array([[np.nan]]))


def propagate_whole(blocks, z0, step, count):
    """The pieces of ``propagate_chunks`` joined into one (N, T, d) array."""
    return np.concatenate(list(propagate_chunks(blocks, z0, step, count)), axis=1)


def integrate(m, y0, step, count):
    """dy/dt = -i M y at the times k * step, with M as a single block."""
    m = np.asarray(m, dtype=complex)[np.newaxis]
    return propagate_whole(m, np.asarray(y0, dtype=complex)[np.newaxis], step, count)[0]


class TestIntegrateLinearOde:
    """The generic linear-ODE checks, with the whole generator as one block."""

    def test_returns_time_by_dim_array(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate(m, np.array([1.0, 0.0]), 1.0 / 6.0, 7)
        assert isinstance(ys, np.ndarray)
        assert ys.shape == (7, 2)
        np.testing.assert_array_equal(ys[0], [1.0, 0.0])
        single = integrate(m, np.array([1.0, 0.0]), 1.0, 1)
        assert single.shape == (1, 2)

    def test_zero_generator_constant(self):
        ys = integrate(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.25, 21)
        for y in ys:
            np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_scalar_phase_rotation(self):
        ys = integrate(np.eye(1), np.array([1.0]), np.pi, 2)
        assert abs(ys[-1][0] - (-1.0)) < 1e-9

    def test_pauli_x_quarter_period(self):
        # closed form: exp(-i X t) (1,0) = (cos t, -i sin t)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        ys = integrate(m, np.array([1.0, 0.0]), np.pi / 2, 2)
        np.testing.assert_allclose(ys[-1], [0.0, -1.0j], atol=1e-9)

    def test_norm_conserved_for_hermitian_generator(self):
        rng = np.random.default_rng(20)
        m = random_hermitian(rng, 4, scale=4.0)
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y0 /= np.linalg.norm(y0)
        ys = integrate(m, y0, 0.25, 41)
        norms = [np.linalg.norm(y) for y in ys]
        assert max(abs(n - 1.0) for n in norms) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(LinAlgError, match=r"^blocks of shape \(1, 2, 2\) do not match"):
            integrate(np.eye(2), np.array([1.0]), 1.0, 2)

    def test_bad_grid(self):
        # the grid is checked by dynamics, on the first next and not before
        h, init = SystemHamiltonian(np.eye(1)), InitialState(psi=np.array([1.0]), psi0=0.0)
        chunks = evolve_group([(h, BathModel(), init)], 5e-324, 3)
        with pytest.raises(LinAlgError, match="strictly increasing and start at 0"):
            next(chunks)


#: (t_max, points) of a grid and the rows of it that are checked
GRIDS = {"linspace": (10.0, 201, range(0, 201, 20)), "rows 0, 1, 5, 10": (10.0, 11, (0, 1, 5, 10))}


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
            for t_max, points, rows in GRIDS.values():
                traj = evolve(h, bath, init, t_max, points)
                t, ys = traj.times, traj.vectors
                for i in rows:
                    exact = expm(-1j * t[i] * heff) @ ys[0]
                    assert np.abs(ys[i] - exact).max() <= 1e-12

    def test_each_block_matches_its_expm(self):
        # non-normal blocks with growing and decaying modes
        rng = np.random.default_rng(7)
        blocks = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        blocks -= 0.5j * np.eye(4) * np.arange(1, 4)[:, np.newaxis, np.newaxis]
        z0 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        t = np.linspace(0.0, 3.0, 13)
        z = propagate_whole(blocks, z0, 0.25, t.size)
        assert z.shape == (3, t.size, 4)
        np.testing.assert_array_equal(z[:, 0], z0)
        for b, z0_b, z_b in zip(blocks, z0, z):
            for ti, zi_b in zip(t, z_b):
                exact = expm(-1j * ti * b) @ z0_b
                assert np.abs(zi_b - exact).max() <= 1e-12 * (1.0 + np.abs(exact).max())

    @pytest.mark.parametrize(
        "t, calls",
        [
            ((8.0 / 4000, 4001), 12),
            ((1.0, 2), 1),
            ((1.0, 11), 4),
            ((1.0, 5001), 13),
        ],
    )
    def test_stacked_expm_calls_per_grid(self, monkeypatch, t, calls):
        # m < CHUNK_ROWS steps take ceil(log2(m + 1)) stacked expm calls, and
        # a longer grid 12 + 1
        seen = []
        monkeypatch.setattr(linalg, "expm", lambda a: seen.append(a.shape) or expm(a))
        propagate_whole(np.zeros((2, 3, 3)), np.ones((2, 3)), *t)
        assert seen == [(2, 3, 3)] * calls

    def test_pieces_of_a_grid(self):
        blocks, z0 = np.zeros((2, 3, 3)), np.ones((2, 3))
        for points, sizes in ((4096, [4096]), (4097, [4096, 1]), (10000, [4096, 4096, 1808])):
            pieces = list(propagate_chunks(blocks, z0, 1.0 / (points - 1), points))
            assert [piece.shape for piece in pieces] == [(2, size, 3) for size in sizes]

    def test_matches_dop853_at_tight_tolerance(self):
        h, bath, init = dilatable_generator(np.random.default_rng(5), 2, 2, 0.5)
        traj = evolve(h, bath, init, 8.0, 801)
        t, ys = traj.times, traj.vectors
        gen = -1j * build_effective_hamiltonian(h, bath)
        sol = solve_ivp(
            lambda _, y: gen @ y, (0.0, t[-1]), ys[0], method="DOP853", t_eval=t,
            rtol=1e-12, atol=1e-14,
        )
        assert sol.success
        assert np.abs(ys - sol.y.T).max() <= 1e-10

    def test_million_steps_match_one_dense_expm(self):
        # 245 chunks: a row is up to 12 doubling and 244 chunk products from z0
        h, bath, init = dilatable_generator(np.random.default_rng(9), 2, 2, 0.3)
        for piece in evolve_group([(h, bath, init)], 20.0, 10**6 + 1):
            assert len(piece.times) <= CHUNK_ROWS
        assert piece.times[-1] == 20.0
        exact = expm(-20.0j * build_effective_hamiltonian(h, bath)) @ evolve(
            h, bath, init, 20.0, 1
        ).vectors[0]
        assert np.abs(exact).max() > 0.05
        assert np.abs(piece.vectors[0, -1] - exact).max() <= 1e-12

    def test_cli_import_leaves_scipy_integrate_out(self):
        src = str(pathlib.Path(pseudobath.__file__).resolve().parents[1])
        code = "import sys, pseudobath.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


def doubling_reference(blocks, z0, step, count):
    """The propagator before chunking: every row filled by doubling, rows
    [p, 2p) from rows [0, p) for p up to count - 1."""
    z = np.empty((blocks.shape[0], count, blocks.shape[1]), dtype=complex)
    z[:, 0] = z0
    p = 1
    while p < count:
        rows = min(p, count - p)
        z[:, p : p + rows] = z[:, :rows] @ expm(-1j * (p * step) * blocks).swapaxes(-1, -2)
        p *= 2
    return z


def random_blocks(seed, n=3, d=4):
    """Non-normal blocks with growing and decaying modes, and a start."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    blocks -= 0.3j * np.eye(d) * np.arange(1, n + 1)[:, np.newaxis, np.newaxis]
    return blocks, rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


class TestChunks:
    @pytest.mark.parametrize(
        "t",
        [(8.0 / 4000, 4001), (20.0 / (CHUNK_ROWS - 1), CHUNK_ROWS), (1.0, 1)],
        ids=["4001", "4096", "one point"],
    )
    def test_short_grids_keep_the_doubling_arithmetic(self, t):
        # one piece, bitwise as before
        blocks, z0 = random_blocks(11)
        pieces = list(propagate_chunks(blocks, z0, *t))
        assert len(pieces) == 1
        z = np.concatenate(pieces, axis=1)
        np.testing.assert_array_equal(z, doubling_reference(blocks, z0, *t))

    def test_runs_across_chunk_boundaries(self, monkeypatch):
        # 8-row chunks: 70 rows fill eight chunks and end inside a ninth
        monkeypatch.setattr(linalg, "CHUNK_ROWS", 8)
        calls = []
        monkeypatch.setattr(linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
        blocks, z0 = random_blocks(12)
        t = np.arange(70) * 0.04
        pieces = list(propagate_chunks(blocks, z0, 0.04, t.size))
        # doubling to C rows, plus one chunk step past C
        assert len(calls) == 3 + 1
        assert all(1 <= piece.shape[1] <= 8 for piece in pieces)
        z = np.concatenate(pieces, axis=1)
        np.testing.assert_array_equal(z, propagate_whole(blocks, z0, 0.04, t.size))
        for b, z0_b, z_b in zip(blocks, z0, z):
            for ti, zi_b in zip(t, z_b):
                exact = expm(-1j * ti * b) @ z0_b
                assert np.abs(zi_b - exact).max() <= 1e-12 * (1.0 + np.abs(exact).max())
