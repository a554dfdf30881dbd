import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobath import pseudomode
from pseudobath.model import BathModel, LorentzPeak, SystemHamiltonian
from pseudobath.linalg import hermitian_eigenvalues
from pseudobath.pseudomode import (
    block_stack,
    build_effective_hamiltonian,
    check_dilation_closed_form,
    dilation_threshold,
    optical_potential,
)


def random_hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (x + x.conj().T)


def random_bath(rng, k, eta=0.0, lo=0.1, hi=2.0):
    peaks = tuple(
        LorentzPeak(
            g=float(rng.uniform(lo, hi)),
            gamma=float(rng.uniform(lo, hi)),
            epsilon=float(rng.uniform(-2.0, 2.0)),
        )
        for _ in range(k)
    )
    return BathModel(peaks=peaks, eta=eta)


def reference_generator(h, bath):
    """The generator assembled block by block, peak by peak."""
    n, k = h.n, bath.k
    f = 1.0 / (1.0 + 0.5j * bath.eta)
    dim = (k + 1) * n
    m = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(n)
    m[:n, :n] = f * h.matrix
    for j, p in enumerate(bath.peaks, start=1):
        lo = j * n
        m[:n, lo : lo + n] = f * p.g * eye
        m[lo : lo + n, :n] = p.g * eye
        m[lo : lo + n, lo : lo + n] = (p.epsilon - 0.5j * p.gamma) * eye
    return m


def reference_blocks(h, bath):
    """One (K+1) x (K+1) block per eigenvalue of H, each built on its own."""
    f = 1.0 / (1.0 + 0.5j * bath.eta)
    g = np.array([p.g for p in bath.peaks])
    diag = np.array([p.epsilon - 0.5j * p.gamma for p in bath.peaks])
    blocks = []
    for alpha, e_alpha in enumerate(hermitian_eigenvalues(h.matrix)):
        m = np.zeros((bath.k + 1, bath.k + 1), dtype=complex)
        m[0, 0] = f * e_alpha
        m[0, 1:] = f * g
        m[1:, 0] = g
        m[1:, 1:] = np.diag(diag)
        blocks.append((alpha, float(e_alpha), m))
    return blocks


def reference_block_results(h, bath, psd_tolerance):
    """Certify the blocks one at a time."""
    results = []
    for alpha, e_alpha, m in reference_blocks(h, bath):
        bmin = float(hermitian_eigenvalues(0.5j * (m - m.conj().T))[0])
        results.append(
            {"alpha": alpha, "E_alpha": e_alpha, "min_eigenvalue": bmin,
             "passed": bmin >= -psd_tolerance}
        )
    return results


def blocks_of(h, bath):
    """The block stack of the generator of H and the bath."""
    return block_stack(hermitian_eigenvalues(h.matrix), bath)


def assert_bitwise_equal(a, b):
    # array_equal plus the signs of zeros
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


class TestAgainstReference:
    """The shared bath block reproduces the peak-by-peak and block-by-block
    constructions bit for bit."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(21)
        for i in range(60):
            n = int(rng.integers(1, 6))
            k = i % 5  # K = 0 .. 4
            eta = 0.0 if i % 2 else float(rng.uniform(0.1, 3.0))
            yield SystemHamiltonian(random_hermitian(rng, n)), random_bath(rng, k, eta=eta)

    def test_generator(self):
        for h, bath in self.instances():
            got = build_effective_hamiltonian(h, bath)
            assert_bitwise_equal(got, reference_generator(h, bath))

    def test_block_stack(self):
        for h, bath in self.instances():
            expected = np.array([m for _, _, m in reference_blocks(h, bath)])
            assert_bitwise_equal(blocks_of(h, bath), expected)

    def test_block_results(self):
        for h, bath in self.instances():
            report = check_dilation_closed_form(h, bath)
            expected = reference_block_results(h, bath, report["psd_tolerance"])
            assert report["per_block"] == expected
            assert repr(report["per_block"]) == repr(expected)  # signs of zeros too


class TestBuildEffectiveHamiltonian:
    def test_single_peak_scalar_system(self):
        h = SystemHamiltonian(np.zeros((1, 1)))
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=2.0, epsilon=0.0),))
        heff = build_effective_hamiltonian(h, bath)
        np.testing.assert_array_equal(heff, np.array([[0.0, 1.0], [1.0, -1.0j]]))

    def test_two_peaks(self):
        h = SystemHamiltonian(np.zeros((1, 1)))
        bath = BathModel(
            peaks=(LorentzPeak(1.0, 2.0, 0.0), LorentzPeak(2.0, 4.0, 1.0))
        )
        heff = build_effective_hamiltonian(h, bath)
        expected = np.array(
            [[0.0, 1.0, 2.0], [1.0, -1.0j, 0.0], [2.0, 0.0, 1.0 - 2.0j]]
        )
        np.testing.assert_array_equal(heff, expected)

    def test_pure_ohmic_scalar(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        heff = build_effective_hamiltonian(h, BathModel(eta=2.0))
        assert heff[0, 0] == pytest.approx(0.5 - 0.5j)

    def test_ohmic_top_row_scaling_is_one_sided(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        bath = BathModel(peaks=(LorentzPeak(g=0.7, gamma=1.0, epsilon=0.2),), eta=1.0)
        m = build_effective_hamiltonian(h, bath)
        f = 1.0 / (1.0 + 0.5j)
        assert m[0, 1] == pytest.approx(0.7 * f)
        assert m[1, 0] == pytest.approx(0.7)

    def test_empty_bath_generator_is_system_hamiltonian(self):
        h = SystemHamiltonian(np.array([[0.2, 0.3 - 0.1j], [0.3 + 0.1j, -0.4]]))
        heff = build_effective_hamiltonian(h, BathModel())
        assert heff.shape == (2, 2)
        np.testing.assert_array_equal(heff, h.matrix)

    def test_anti_hermitian_part_structure(self):
        # eta = 0: H_eff - H_eff^dag = -i * (0 + gamma_1 I + ... + gamma_K I)
        rng = np.random.default_rng(5)
        h = SystemHamiltonian(random_hermitian(rng, 2))
        bath = random_bath(rng, 3)
        m = build_effective_hamiltonian(h, bath)
        gammas = np.concatenate(
            [np.zeros(2)] + [np.full(2, p.gamma) for p in bath.peaks]
        )
        np.testing.assert_allclose(
            m - m.conj().T, -1j * np.diag(gammas), atol=1e-15
        )


class TestOpticalPotential:
    def test_lorentz_structure(self):
        rng = np.random.default_rng(6)
        h = SystemHamiltonian(random_hermitian(rng, 2))
        bath = BathModel(
            peaks=(LorentzPeak(1.0, 0.2, 0.3), LorentzPeak(0.5, 0.4, -0.3))
        )
        v = optical_potential(build_effective_hamiltonian(h, bath))
        expected = np.diag([0.0, 0.0, 0.1, 0.1, 0.2, 0.2])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_single_peak_structure(self):
        h = SystemHamiltonian(np.zeros((1, 1)))
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=1.0, epsilon=0.0),))
        v = optical_potential(build_effective_hamiltonian(h, bath))
        np.testing.assert_allclose(v, np.diag([0.0, 0.5]), atol=1e-15)

    def test_pure_ohmic_proportional_to_system(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        v = optical_potential(build_effective_hamiltonian(h, BathModel(eta=1.0)))
        assert v[0, 0] == pytest.approx(0.4)

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        h = SystemHamiltonian(random_hermitian(rng, 3))
        bath = random_bath(rng, 2, eta=0.9)
        v = optical_potential(build_effective_hamiltonian(h, bath))
        assert np.abs(v - v.conj().T).max() < 1e-12


class TestBlockDecompose:
    """``block_stack`` of the eigenvalues of H is the block decomposition of
    the generator."""

    def test_scalar_system_single_block(self):
        h = SystemHamiltonian(np.array([[0.3]]))
        bath = BathModel(peaks=(LorentzPeak(1.0, 2.0, 0.5),), eta=0.4)
        full = build_effective_hamiltonian(h, bath)
        blocks = blocks_of(h, bath)
        assert len(blocks) == 1
        np.testing.assert_allclose(blocks[0], full, atol=1e-14)

    def test_diagonal_system(self):
        h = SystemHamiltonian(np.diag([1.0, 2.0]))
        bath = BathModel(peaks=(LorentzPeak(1.0, 2.0, 0.0),))
        blocks = blocks_of(h, bath)
        np.testing.assert_allclose(
            blocks[0], np.array([[1.0, 1.0], [1.0, -1.0j]]), atol=1e-14
        )
        np.testing.assert_allclose(
            blocks[1], np.array([[2.0, 1.0], [1.0, -1.0j]]), atol=1e-14
        )

    @pytest.mark.parametrize("eta", [0.0, 1.3])
    def test_spectrum_similarity(self, eta):
        rng = np.random.default_rng(8)
        h = SystemHamiltonian(random_hermitian(rng, 3))
        bath = random_bath(rng, 2, eta=eta)
        full = build_effective_hamiltonian(h, bath)
        ev_full = np.sort_complex(np.linalg.eigvals(full))
        ev_blocks = np.sort_complex(
            np.concatenate(
                [np.linalg.eigvals(b) for b in blocks_of(h, bath)]
            )
        )
        assert np.abs(ev_full - ev_blocks).max() < 1e-8


class TestDilation:
    def test_lorentz_always_dilatable(self):
        rng = np.random.default_rng(9)
        h = SystemHamiltonian(random_hermitian(rng, 2))
        v = optical_potential(build_effective_hamiltonian(h, random_bath(rng, 3)))
        min_eig = float(hermitian_eigenvalues(v)[0])
        assert min_eig >= -pseudomode._psd_tolerance(v)
        assert min_eig >= -1e-12

    def test_negative_system_fails_pure_ohmic(self):
        h = SystemHamiltonian(np.diag([-1.0, 2.0]))
        v = optical_potential(build_effective_hamiltonian(h, BathModel(eta=1.0)))
        min_eig = float(hermitian_eigenvalues(v)[0])
        assert not min_eig >= -pseudomode._psd_tolerance(v)
        assert min_eig < 0

    def test_one_tolerance_per_certification(self, monkeypatch):
        # the Frobenius norm of V is taken once, for every verdict
        rng = np.random.default_rng(4)
        h = SystemHamiltonian(random_hermitian(rng, 3) + 3.0 * np.eye(3))
        bath = random_bath(rng, 2, eta=0.5)
        calls = []
        tolerance = pseudomode._psd_tolerance
        monkeypatch.setattr(
            pseudomode, "_psd_tolerance", lambda v: calls.append(v.shape) or tolerance(v)
        )
        report = check_dilation_closed_form(h, bath)
        assert calls == [(9, 9)]
        v = optical_potential(build_effective_hamiltonian(h, bath))
        assert report["psd_tolerance"] == 1e-10 * (1.0 + np.linalg.norm(v))
        assert report["spectral_pass"] == (hermitian_eigenvalues(v)[0] >= -tolerance(v))

    def test_threshold_beats_small_system_energy(self):
        # threshold (eta/4) g^2/gamma = 0.25 exceeds E = 0.2
        h = SystemHamiltonian(np.array([[0.2]]))
        bath = BathModel(peaks=(LorentzPeak(1.0, 1.0, 0.0),), eta=1.0)
        report = check_dilation_closed_form(h, bath)
        assert report["threshold"] == pytest.approx(0.25)
        assert not report["closed_form_pass"]
        assert not report["spectral_pass"]

    def test_threshold_arithmetic(self):
        bath = BathModel(
            peaks=(LorentzPeak(1.0, 1.0, 0.0), LorentzPeak(2.0, 4.0, 0.0)), eta=1.0
        )
        assert dilation_threshold(bath) == pytest.approx(0.5)
        passing = check_dilation_closed_form(SystemHamiltonian(0.6 * np.eye(2)), bath)
        failing = check_dilation_closed_form(SystemHamiltonian(0.4 * np.eye(2)), bath)
        assert passing["closed_form_pass"] and passing["spectral_pass"]
        assert not failing["closed_form_pass"] and not failing["spectral_pass"]

    def test_eta_zero_passes_regardless_of_system_sign(self):
        h = SystemHamiltonian(np.diag([-5.0, 1.0]))
        report = check_dilation_closed_form(h, BathModel(peaks=(LorentzPeak(1.0, 1.0),)))
        assert report["closed_form_pass"]
        assert report["spectral_pass"]

    def test_empty_bath_trivial_pass(self):
        report = check_dilation_closed_form(SystemHamiltonian(np.diag([-1.0])), BathModel())
        assert report["closed_form_pass"] and report["spectral_pass"]

    def test_empty_bath_report(self):
        # a closed system: zero optical potential, one trivial block per level
        h = SystemHamiltonian(np.array([[0.5, 0.1j, 0.0], [-0.1j, -1.0, 0.3], [0.0, 0.3, 1.5]]))
        report = check_dilation_closed_form(h, BathModel())
        assert report["threshold"] == 0.0
        assert report["min_eigenvalue_V"] == 0.0
        assert report["psd_tolerance"] == 1e-10
        assert len(report["per_block"]) == 3
        np.testing.assert_allclose(
            [b["E_alpha"] for b in report["per_block"]], np.linalg.eigvalsh(h.matrix), atol=1e-14
        )
        for b in report["per_block"]:
            assert b["min_eigenvalue"] == 0.0
            assert b["passed"]

    def test_block_minimum_inside_the_tolerance_band_passes(self):
        # at E = threshold the block optical potential is singular, and its
        # smallest eigenvalue is rounding noise just below 0
        bath = BathModel(peaks=(LorentzPeak(0.3, 0.5),), eta=0.5)
        report = check_dilation_closed_form(SystemHamiltonian([[dilation_threshold(bath)]]), bath)
        (block,) = report["per_block"]
        assert -report["psd_tolerance"] < block["min_eigenvalue"] < 0.0
        assert block["passed"] is True
        assert report["spectral_pass"] is True

    def test_per_block_consistent_with_global(self):
        rng = np.random.default_rng(10)
        h = SystemHamiltonian(random_hermitian(rng, 3, scale=2.0))
        bath = random_bath(rng, 2, eta=1.5)
        report = check_dilation_closed_form(h, bath)
        assert len(report["per_block"]) == 3
        block_min = min(b["min_eigenvalue"] for b in report["per_block"])
        assert block_min == pytest.approx(report["min_eigenvalue_V"], abs=1e-10)

    @given(shift=st.floats(0.01, 5.0), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_system_shift(self, shift, seed):
        # raising every system eigenvalue never turns a pass into a fail
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        h = random_hermitian(rng, n, scale=2.0)
        bath = random_bath(rng, int(rng.integers(1, 4)), eta=float(rng.uniform(0.1, 3)))
        before = check_dilation_closed_form(SystemHamiltonian(h), bath)
        after = check_dilation_closed_form(
            SystemHamiltonian(h + shift * np.eye(n)), bath
        )
        if before["closed_form_pass"]:
            assert after["closed_form_pass"]
        if before["spectral_pass"] and abs(before["min_eigenvalue_V"]) > 1e-8:
            assert after["spectral_pass"]
