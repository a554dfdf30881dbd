import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobath.dynamics import evolve
from pseudobath.linalg import LinAlgError
from pseudobath.model import (
    BathModel,
    InitialState,
    LorentzPeak,
    ModelError,
    OhmicWithoutCutoffError,
    SystemHamiltonian,
    correlation,
    correlation_by_quadrature,
    counterterm_shift,
    spectral_density,
)

peak_strategy = st.builds(
    LorentzPeak,
    g=st.floats(0.1, 3.0),
    gamma=st.floats(0.1, 3.0),
    epsilon=st.floats(-3.0, 3.0),
)


class TestTypes:
    def test_system_hamiltonian_rejects_non_hermitian(self):
        with pytest.raises(ModelError):
            SystemHamiltonian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_hermiticity_tolerance_is_rounding_only(self):
        # relative defect |1e-11| / (1 + 1) = 5e-12, above HERMITICITY_RTOL = 1e-12
        with pytest.raises(ModelError, match=r"relative defect 5\.000e-12"):
            SystemHamiltonian(np.array([[1.0, 1e-11], [0.0, 1.0]]))
        SystemHamiltonian(np.array([[1.0, 1e-12], [0.0, 1.0]]))

    def test_peak_validation(self):
        with pytest.raises(ModelError):
            LorentzPeak(g=0.0, gamma=1.0)
        with pytest.raises(ModelError):
            LorentzPeak(g=1.0, gamma=-1.0)

    def test_bath_validation(self):
        with pytest.raises(ModelError):
            BathModel(eta=-0.1)
        with pytest.raises(ModelError):
            BathModel(eta=1.0, cutoff=0.0)
        assert BathModel().k == 0 and BathModel().eta == 0.0

    def test_initial_state_normalization(self):
        with pytest.raises(ModelError):
            InitialState(psi=np.array([0.9]), psi0=0.0)
        s = InitialState(psi=np.array([0.6]), psi0=0.8)
        assert s.n == 1

    @pytest.mark.parametrize("psi0", [float("nan"), complex(0.0, float("nan")), 1e300])
    def test_initial_state_rejects_a_bad_ground_amplitude(self, psi0):
        # a NaN norm passed the normalization check; 1e300 ** 2 raised OverflowError
        with pytest.raises(ModelError, match="not normalized"):
            InitialState(psi=np.array([0.6]), psi0=psi0)

    def test_time_grid(self):
        h = SystemHamiltonian(np.array([[0.0]]))
        init = InitialState(psi=np.array([1.0]), psi0=0.0)
        for times in ([0.5, 1.0], [0.0, 1.0, 1.0]):
            with pytest.raises(LinAlgError, match="strictly increasing and start at 0"):
                evolve(h, BathModel(), init, np.array(times))


class TestSpectralDensity:
    def test_single_peak_at_center(self):
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=2.0, epsilon=0.0),))
        assert spectral_density(bath, 0.0) == pytest.approx(2.0)

    def test_pure_ohmic(self):
        assert spectral_density(BathModel(eta=0.5), 4.0) == pytest.approx(2.0)

    def test_ohmic_with_cutoff(self):
        bath = BathModel(eta=1.0, cutoff=10.0)
        assert spectral_density(bath, 10.0) == pytest.approx(10.0 * np.exp(-1.0))

    @given(peaks=st.lists(peak_strategy, min_size=0, max_size=4), omega=st.floats(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_lorentz_part_non_negative(self, peaks, omega):
        bath = BathModel(peaks=tuple(peaks))
        assert spectral_density(bath, omega) >= 0.0


class TestCorrelation:
    def test_single_peak(self):
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=2.0, epsilon=0.0),))
        assert correlation(bath, 1.0) == pytest.approx(np.exp(-1.0) + 0.0j)

    def test_ohmic_part_vanishes_at_zero(self):
        bath = BathModel(
            peaks=(LorentzPeak(g=1.2, gamma=0.7, epsilon=0.4),), eta=0.8, cutoff=5.0
        )
        lorentz_weight = 1.2**2
        assert correlation(bath, 0.0) == pytest.approx(lorentz_weight + 0.0j)

    def test_cutoff_ohmic_value(self):
        # i*eta*f'(t) at t=0.1, cutoff=10: -i*2*0.1*1000/(pi*(1+1)^2)
        bath = BathModel(eta=1.0, cutoff=10.0)
        expected = -1j * 200.0 / (np.pi * 4.0)
        assert correlation(bath, 0.1) == pytest.approx(expected)

    def test_pure_ohmic_refused(self):
        with pytest.raises(OhmicWithoutCutoffError):
            correlation(BathModel(eta=1.0), 1.0)

    @given(peaks=st.lists(peak_strategy, min_size=1, max_size=3), t=st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_hermitian_symmetry(self, peaks, t):
        bath = BathModel(peaks=tuple(peaks))
        assert correlation(bath, -t) == pytest.approx(np.conj(correlation(bath, t)))

    @given(peaks=st.lists(peak_strategy, min_size=1, max_size=3), t=st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_t0(self, peaks, t):
        bath = BathModel(peaks=tuple(peaks))
        assert abs(correlation(bath, t)) <= abs(correlation(bath, 0.0)) + 1e-12

    def test_ohmic_kernel_odd_imaginary(self):
        bath = BathModel(eta=0.7, cutoff=8.0)
        for t in (0.05, 0.3, 2.0):
            g = correlation(bath, t)
            assert g.real == 0.0
            assert correlation(bath, -t) == pytest.approx(np.conj(g))


class TestCounterterm:
    def test_zero_eta_unchanged(self):
        h = SystemHamiltonian(np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(counterterm_shift(h, BathModel(eta=0.0, cutoff=1.0)).matrix, h.matrix)

    def test_scalar(self):
        h = SystemHamiltonian(np.zeros((1, 1)))
        assert counterterm_shift(h, BathModel(eta=np.pi, cutoff=1.0)).matrix[0, 0] == pytest.approx(1.0)

    def test_diagonal_shift(self):
        h = SystemHamiltonian(np.diag([1.0, 2.0]))
        shifted = counterterm_shift(h, BathModel(eta=np.pi, cutoff=2.0))
        np.testing.assert_allclose(shifted.matrix, np.diag([3.0, 4.0]))


class TestFourierConsistency:
    """Quadrature inversion of the spectral density certifies the closed-form
    correlation function."""

    def test_single_peak_t1(self):
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=2.0, epsilon=0.0),))
        val = correlation_by_quadrature(bath, 1.0, 200.0, 2_000_000)
        assert abs(val - np.exp(-1.0)) < 1e-4

    def test_single_peak_t0(self):
        # at t=0 the tail does not oscillate away; the window must be wide
        bath = BathModel(peaks=(LorentzPeak(g=1.0, gamma=2.0, epsilon=0.0),))
        val = correlation_by_quadrature(bath, 0.0, 4.0e4, 4_000_000)
        assert abs(val - 1.0) < 1e-4

    def test_ohmic_cutoff_kernel(self):
        bath = BathModel(eta=1.0, cutoff=5.0)
        val = correlation_by_quadrature(bath, 0.5, 500.0, 2_000_000)
        assert abs(val - correlation(bath, 0.5)) < 1e-4

    def test_converges_under_refinement(self):
        bath = BathModel(peaks=(LorentzPeak(g=0.8, gamma=1.5, epsilon=0.5),))
        target = correlation(bath, 0.7)
        coarse = abs(correlation_by_quadrature(bath, 0.7, 2000.0, 2_000) - target)
        fine = abs(correlation_by_quadrature(bath, 0.7, 2000.0, 8_000) - target)
        assert fine < coarse
