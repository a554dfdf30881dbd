import ast
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pseudobath
from pseudobath import volterra
from pseudobath.dynamics import evolve
from pseudobath.model import (
    BathModel,
    InitialState,
    LorentzPeak,
    SystemHamiltonian,
    lorentz_correlation,
    ohmic_cutoff_correlation,
)
from pseudobath.pseudomode import build_effective_hamiltonian
from pseudobath.linalg import LinAlgError
from pseudobath.volterra import (
    OracleTrajectory,
    deviation_norms,
    solve_cutoff_family,
    solve_integro_differential,
)

PSI0 = np.array([1.0 + 0.0j])


def two_sum_march(generator, gvals, psi0, h, steps):
    """Reference march: predictor and corrector each sum the whole trapezoid
    history directly, with fresh weight arrays at every step."""
    n = psi0.shape[0]
    y = np.zeros((steps + 1, n), dtype=complex)
    y[0] = psi0
    a = -1j * generator
    g0 = gvals[0]
    for k in range(steps):
        if k == 0:
            mem_k = np.zeros(n, dtype=complex)
        else:
            w = np.ones(k + 1)
            w[0] = 0.5
            w[-1] = 0.5
            mem_k = h * ((w * gvals[k::-1]) @ y[: k + 1])
        f_k = a @ y[k] - mem_k
        y_pred = y[k] + h * f_k
        w = np.ones(k + 2)
        w[0] = 0.5
        w[-1] = 0.5
        kern = gvals[k + 1 :: -1]
        mem_next = h * ((w[:-1] * kern[:-1]) @ y[: k + 1] + 0.5 * g0 * y_pred)
        f_next = a @ y_pred - mem_next
        y[k + 1] = y[k] + 0.5 * h * (f_k + f_next)
    return y


def one_sum_march(generator, gvals, psi0, h, steps):
    """Reference march, one step at a time: the corrector's trapezoid sum over
    y[0..k], completed with the new endpoint, is the next predictor's memory
    term."""
    n = psi0.shape[0]
    y = np.zeros((steps + 1, n), dtype=complex)
    y[0] = psi0
    a = -1j * generator
    g0 = gvals[0]
    # trapezoid weights of y[0..k] in the history at t_{k+1}, endpoint excluded
    w = np.ones(steps)
    w[0] = 0.5
    mem = np.zeros(n, dtype=complex)  # h * history integral at t_k
    for k in range(steps):
        f_k = a @ y[k] - mem
        y_pred = y[k] + h * f_k
        settled = (w[: k + 1] * gvals[k + 1 : 0 : -1]) @ y[: k + 1]
        f_next = a @ y_pred - h * (settled + 0.5 * g0 * y_pred)
        y[k + 1] = y[k] + 0.5 * h * (f_k + f_next)
        mem = h * (settled + 0.5 * g0 * y[k + 1])
    return y


def blocked_march_reference(generator, gvals, psi0, h, steps):
    """The blocked march as first written: the near-field matrix built by one
    4-D index and each block solved by scipy's solve_triangular."""
    from scipy.linalg import solve_triangular

    n = psi0.shape[0]
    eye = np.eye(n)
    a = -1j * generator
    m = a - 0.5 * h * gvals[0] * eye
    q = eye + h * m
    padded = np.zeros(2 * steps + 1, dtype=complex)
    padded[: steps + 1] = -0.5 * h * h * gvals
    alpha, beta = padded[:-1], padded[1:]
    bsize = min(max(1, volterra._BLOCK_ORDER // n), steps)
    kern = alpha[:bsize, None, None] * q + beta[:bsize, None, None] * eye
    kern[0] += 0.5 * h * (q @ a + m) + 0.25 * h * h * gvals[0] * q
    csum = np.cumsum(kern, axis=0)
    shifted = np.concatenate((np.zeros((1, n, n)), -csum[:-1]))
    i, c = np.arange(bsize), np.arange(n)
    lag = np.maximum(np.subtract.outer(i, i), 0)
    lower = shifted[lag[:, None, :, None], c[:, None, None], c].reshape(bsize * n, bsize * n)
    spectra = []
    while (bsize << len(spectra)) < steps:
        width = 2 * (bsize << len(spectra))
        spectra.append(np.fft.fft(np.stack((alpha[:width], beta[:width])), axis=1))
    y = np.empty((steps + 1, n), dtype=complex)
    y[0] = psi0
    far = -0.5 * (alpha[:steps, None] * (q @ psi0) + beta[:steps, None] * psi0)
    for k0 in range(0, steps, bsize):
        b = min(bsize, steps - k0)
        rhs = csum[:b] @ y[k0] + far[k0 : k0 + b]
        d = solve_triangular(
            lower[: b * n, : b * n], rhs.ravel(), lower=True, unit_diagonal=True,
            check_finite=False,
        )
        y[k0 + 1 : k0 + b + 1] = y[k0] + np.cumsum(d.reshape(b, n), axis=0)
        lo = k0 + b
        if lo >= steps:
            break
        done = lo // bsize
        level = (done & -done).bit_length() - 1
        span = bsize << level
        spec_a, spec_b = spectra[level]
        ys = np.fft.fft(y[lo - span : lo], n=2 * span, axis=0)
        conv = np.fft.ifft(spec_a[:, None] * (ys @ q.T) + spec_b[:, None] * ys, axis=0)
        far[lo : lo + span] += conv[span : span + steps - lo]
    return y


def oracle_reference(generator, kernel, kernel_scale, psi0, t_max, steps, extrapolate):
    """States and error estimate of ``_solve_on_grid`` as first written: the
    kernel sampled on the coarse and on the fine grid, each march by
    ``blocked_march_reference``."""
    h = t_max / steps
    gvals = kernel_scale * kernel(np.arange(steps + 1) * h)
    y = blocked_march_reference(generator, gvals, psi0, h, steps)
    if not extrapolate:
        return y, None
    times_fine = np.arange(2 * steps + 1) * (h / 2.0)
    gvals_fine = kernel_scale * kernel(times_fine)
    y_half = blocked_march_reference(generator, gvals_fine, psi0, h / 2.0, 2 * steps)[::2]
    error = float(np.linalg.norm(y_half - y, axis=1).max()) / 3.0
    return (4.0 * y_half - y) / 3.0, error


def assert_matches_reference(monkeypatch, reference, solve):
    new = solve().states
    monkeypatch.setattr(volterra, "_solve_volterra_core", reference)
    ref = solve().states
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


class TestMarch:
    H2 = SystemHamiltonian(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.9]]))
    PSI2 = np.array([0.6, 0.5j])
    PEAKS = (LorentzPeak(0.7, 0.5, 0.2), LorentzPeak(0.4, 1.1, -0.3))
    BATHS = {
        "lorentz": BathModel(PEAKS),
        "ohmic-cutoff": BathModel(eta=0.5, cutoff=20.0),
    }

    H3 = SystemHamiltonian(
        np.array([[0.3, 0.2 - 0.1j, 0.0], [0.2 + 0.1j, 0.9, 0.4j], [0.0, -0.4j, -0.5]])
    )
    PSI3 = np.array([0.6, 0.5j, -0.3])
    SYSTEMS = {1: (SystemHamiltonian(np.array([[0.3]])), PSI0), 2: (H2, PSI2), 3: (H3, PSI3)}

    @pytest.mark.parametrize("extrapolate", [False, True])
    @pytest.mark.parametrize("bath", sorted(BATHS))
    def test_matches_two_sum_reference(self, monkeypatch, bath, extrapolate):
        solve = lambda: solve_integro_differential(
            self.H2, self.BATHS[bath], self.PSI2, 2.0, 400, extrapolate=extrapolate
        )
        assert_matches_reference(monkeypatch, two_sum_march, solve)

    @pytest.mark.parametrize("extrapolate", [False, True])
    @pytest.mark.parametrize("offset", [-37, 0, 1, 93])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_boundaries(self, monkeypatch, n, offset, extrapolate):
        # fewer steps than one block, exactly one block, and ragged last blocks
        h_s, psi0 = self.SYSTEMS[n]
        steps = volterra._BLOCK_ORDER // n + offset
        solve = lambda: solve_integro_differential(
            h_s, self.BATHS["lorentz"], psi0, 2.0, steps, extrapolate=extrapolate
        )
        assert_matches_reference(monkeypatch, two_sum_march, solve)

    @pytest.mark.parametrize("extrapolate", [False, True])
    @pytest.mark.parametrize("offset", [-37, 0, 1, 93])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_for_bit_with_the_first_march(self, n, offset, extrapolate):
        # the direct trtrs call, the strided near-field build and the one
        # kernel sampling change no bit of any oracle state
        h_s, psi0 = self.SYSTEMS[n]
        steps = volterra._BLOCK_ORDER // n + offset
        f = 1.0 / (1.0 + 0.5j * 0.7)
        kernel = lambda t: lorentz_correlation(self.PEAKS, t)
        traj = solve_integro_differential(
            h_s, BathModel(self.PEAKS, 0.7), psi0, 2.0, steps, extrapolate
        )
        states, error = oracle_reference(
            f * h_s.matrix, kernel, f, f * psi0, 2.0, steps, extrapolate
        )
        assert np.array_equal(traj.states, states)
        assert traj.error_estimate == error

    @pytest.mark.parametrize("order", [1, 5, 7])
    def test_bit_for_bit_with_small_blocks(self, monkeypatch, order):
        # blocks of one and two steps, with ragged last blocks
        monkeypatch.setattr(volterra, "_BLOCK_ORDER", order)
        kernel = lambda t: ohmic_cutoff_correlation(0.5, 20.0, t)
        h_s = self.H3.matrix + 0.5 * 20.0 / np.pi * np.eye(3)
        traj = solve_integro_differential(
            self.H3, self.BATHS["ohmic-cutoff"], self.PSI3, 1.0, 23, True
        )
        states, error = oracle_reference(h_s, kernel, 1.0, self.PSI3, 1.0, 23, True)
        assert np.array_equal(traj.states, states)
        assert traj.error_estimate == error

    def test_fine_grid_holds_the_coarse_grid(self):
        # the coarse march of an extrapolated run reads every other fine kernel sample
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = int(rng.integers(10, 100_000))
            h = float(10.0 ** rng.uniform(-3.0, 4.0)) / s
            coarse = np.arange(s + 1) * h
            assert np.array_equal(coarse, (np.arange(2 * s + 1) * (h / 2.0))[::2])

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_sharp_ohmic_cutoff(self, monkeypatch, extrapolate):
        # Omega = 80 at the coarsest step the cutoff family accepts, h = 0.1 / Omega
        omega, steps = 80.0, 1000
        bath = BathModel(eta=0.5, cutoff=omega)
        solve = lambda: solve_integro_differential(
            self.H3, bath, self.PSI3, steps * 0.1 / omega, steps, extrapolate=extrapolate
        )
        assert_matches_reference(monkeypatch, two_sum_march, solve)

    def test_no_drift_over_a_long_march(self, monkeypatch):
        h_s = SystemHamiltonian(np.array([[1.0]]))
        bath = BathModel(eta=0.5, cutoff=80.0)
        solve = lambda: solve_integro_differential(h_s, bath, PSI0, 20.0, 16000)
        assert_matches_reference(monkeypatch, one_sum_march, solve)

    def test_independent_of_the_pseudomode_route(self):
        tree = ast.parse(inspect.getsource(volterra))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        }
        imported |= {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        assert not {name.rsplit(".", 1)[-1] for name in imported} & {"pseudomode", "dynamics"}

    def test_independent_of_the_pseudomode_route_at_run_time(self):
        # the oracle reads the bath from model; nothing it imports may load the other route
        code = (
            "import sys, pseudobath.volterra; "
            "print(sorted({'pseudobath.pseudomode', 'pseudobath.dynamics'} & set(sys.modules)))"
        )
        src = str(pathlib.Path(pseudobath.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert result.stdout == "[]\n"


class TestIntegroDifferential:
    def test_memoryless_limit(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        traj = solve_integro_differential(h, BathModel(), PSI0, np.pi, 2000)
        assert abs(traj.states[-1, 0] - (-1.0)) < 1e-5

    def test_matches_pseudomode_route(self):
        # two independent derivations of the same dynamics
        peak = LorentzPeak(g=0.5, gamma=0.2, epsilon=0.0)
        h = SystemHamiltonian(np.zeros((1, 1)))
        oracle = solve_integro_differential(h, BathModel((peak,)), PSI0, 10.0, 4000)
        init = InitialState(psi=PSI0, psi0=0.0)
        traj = evolve(h, BathModel(peaks=(peak,)), init, 10.0, 4001)
        assert deviation_norms(traj, oracle)[0] < 1e-6

    def test_second_order_convergence(self):
        peak = LorentzPeak(g=1.5, gamma=0.5, epsilon=1.0)
        h = SystemHamiltonian(np.array([[0.8]]))
        bath = BathModel((peak,))
        fine = solve_integro_differential(h, bath, PSI0, 10.0, 16000)
        errs = []
        for steps in (1000, 2000, 4000):
            traj = solve_integro_differential(h, bath, PSI0, 10.0, steps)
            r = 16000 // steps
            shared = OracleTrajectory(fine.times[::r], fine.states[::r])
            errs.append(deviation_norms(traj, shared)[0])
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert all(1.7 <= p <= 2.3 for p in orders)

    def test_extrapolation_improves_accuracy(self):
        peak = LorentzPeak(g=2.0, gamma=0.3, epsilon=2.0)
        h = SystemHamiltonian(np.array([[1.0]]))
        lam, v = np.linalg.eig(build_effective_hamiltonian(h, BathModel(peaks=(peak,))))
        c = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
        bath = BathModel((peak,))
        plain = solve_integro_differential(h, bath, PSI0, 10.0, 4000)
        extra = solve_integro_differential(h, bath, PSI0, 10.0, 4000, extrapolate=True)
        exact = (v[0, :] * (np.exp(-1j * np.outer(plain.times, lam)) * c)).sum(axis=1)
        err_plain = np.abs(plain.states[:, 0] - exact).max()
        err_extra = np.abs(extra.states[:, 0] - exact).max()
        assert err_extra < err_plain / 50
        assert err_extra < 1e-7

    def test_error_estimate_is_second_order(self):
        peak = LorentzPeak(g=1.5, gamma=0.5, epsilon=1.0)
        h = SystemHamiltonian(np.array([[0.8]]))
        estimates = [
            solve_integro_differential(
                h, BathModel((peak,)), PSI0, 10.0, steps, extrapolate=True
            ).error_estimate
            for steps in (1000, 2000)
        ]
        assert 1.7 <= np.log2(estimates[0] / estimates[1]) <= 2.3
        plain = solve_integro_differential(h, BathModel((peak,)), PSI0, 10.0, 1000)
        assert plain.error_estimate is None

    def test_norm_bounded_for_lorentz_kernel(self):
        peak = LorentzPeak(g=1.0, gamma=1.0, epsilon=0.0)
        h = SystemHamiltonian(np.array([[0.0]]))
        traj = solve_integro_differential(h, BathModel((peak,)), PSI0, 10.0, 2000)
        norms = np.linalg.norm(traj.states, axis=1)
        assert norms.max() <= 1.0 + 10 * traj.times[1]


class TestRenormalized:
    def test_eta_zero_identical(self):
        peak = LorentzPeak(g=0.7, gamma=0.9, epsilon=-0.4)
        h = SystemHamiltonian(np.array([[0.6]]))
        # f is exactly 1 at eta = 0: the plain memory equation, unscaled
        a = volterra._solve_volterra_core(
            h.matrix, lorentz_correlation((peak,), np.arange(501) * 0.01), PSI0, 0.01, 500
        )
        b = solve_integro_differential(h, BathModel((peak,), eta=0.0), PSI0, 5.0, 500)
        np.testing.assert_array_equal(a, b.states)

    def test_scalar_closed_form(self):
        # G_c = 0: psi(t) = psi(0)/(1+i eta/2) * exp(-i E t/(1+i eta/2))
        eta, energy = 1.2, 0.8
        h = SystemHamiltonian(np.array([[energy]]))
        traj = solve_integro_differential(h, BathModel(eta=eta), PSI0, 4.0, 4000)
        f = 1.0 / (1.0 + 0.5j * eta)
        exact = f * np.exp(-1j * energy * f * traj.times)
        assert np.abs(traj.states[:, 0] - exact).max() < 1e-6

    def test_matches_ohmic_pseudomode_route(self):
        peak = LorentzPeak(g=0.5, gamma=1.0, epsilon=0.3)
        h = SystemHamiltonian(np.array([[1.0]]))
        eta = 1.0
        oracle = solve_integro_differential(
            h, BathModel((peak,), eta), PSI0, 10.0, 4000, extrapolate=True
        )
        init = InitialState(psi=PSI0, psi0=0.0)
        traj = evolve(h, BathModel(peaks=(peak,), eta=eta), init, 10.0, 4001)
        assert deviation_norms(traj, oracle)[0] < 1e-6


class TestCutoffFamily:
    def test_eta_zero_reduces_to_plain_solver(self):
        peak = LorentzPeak(g=0.8, gamma=0.7, epsilon=0.1)
        h = SystemHamiltonian(np.array([[0.5]]))
        plain = solve_integro_differential(h, BathModel((peak,)), PSI0, 2.0, 400)
        family = solve_cutoff_family(h, BathModel((peak,)), [50.0], PSI0, 2.0, 400)
        np.testing.assert_allclose(family[0].states, plain.states, atol=1e-14)

    def test_step_too_coarse_rejected(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        with pytest.raises(LinAlgError, match=r"^step 5\.000e-02 too coarse for cutoff 1000\.0: "):
            solve_cutoff_family(h, BathModel(eta=0.5), [1000.0], PSI0, 5.0, 100)

    def test_counterterm_cancellation_keeps_trajectories_bounded(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        family = solve_cutoff_family(h, BathModel(eta=0.5), [20.0, 40.0], PSI0, 5.0, 4000)
        for traj in family:
            assert np.linalg.norm(traj.states, axis=1).max() <= 2.0

    def test_converges_to_renormalized_limit(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        eta = 0.5
        bath = BathModel(eta=eta)
        ref = solve_integro_differential(h, bath, PSI0, 5.0, 8000, extrapolate=True)
        family = solve_cutoff_family(h, bath, [20.0, 80.0], PSI0, 5.0, 8000)
        mask = ref.times >= 0.5
        devs = [
            np.linalg.norm(traj.states - ref.states, axis=1)[mask].max()
            for traj in family
        ]
        assert devs[1] < devs[0]


class TestCompare:
    def test_identical_is_zero(self):
        h = SystemHamiltonian(np.array([[0.3]]))
        traj = solve_integro_differential(h, BathModel(), PSI0, 1.0, 100)
        assert deviation_norms(traj, traj)[0] == 0.0
        assert deviation_norms(traj, traj)[1] == 0.0

    def test_grid_mismatch(self):
        h = SystemHamiltonian(np.array([[0.3]]))
        a = solve_integro_differential(h, BathModel(), PSI0, 1.0, 100)
        b = solve_integro_differential(h, BathModel(), PSI0, 0.7713, 100)
        with pytest.raises(ValueError, match=r"^grids differ \(101 and 101 points\)$"):
            deviation_norms(a, b)

    def test_grid_equality_is_relative(self):
        # linspace and arange(steps + 1) * h differ by 1.8e-12 at the end
        t_max, steps = 12345.6789, 11
        states = np.ones((steps + 1, 1), dtype=complex)
        a = OracleTrajectory(np.linspace(0.0, t_max, steps + 1), states)
        b = OracleTrajectory(np.arange(steps + 1) * (t_max / steps), states)
        assert deviation_norms(a, b)[0] == 0.0
        moved = b.times.copy()
        moved[5] += 1e-9 * t_max
        with pytest.raises(ValueError, match=r"^grids differ \(12 and 12 points\)$"):
            deviation_norms(a, OracleTrajectory(moved, states))
        h = SystemHamiltonian(np.array([[0.3]]))
        coarse = solve_integro_differential(h, BathModel(), PSI0, 1.0, 100)
        refined = solve_integro_differential(h, BathModel(), PSI0, 1.0, 200)
        with pytest.raises(ValueError, match=r"^grids differ \(101 and 201 points\)$"):
            deviation_norms(coarse, refined)

    def test_shift_by_one_point_scales_with_derivative(self):
        h = SystemHamiltonian(np.array([[2.0]]))
        traj = solve_integro_differential(h, BathModel(), PSI0, 5.0, 1000)
        shifted = np.roll(traj.states, 1, axis=0)
        diff = np.abs(traj.states[1:] - shifted[1:]).max()
        # |dpsi/dt| = |E| = 2, h = 0.005
        assert diff == pytest.approx(2.0 * traj.times[1], rel=0.05)
