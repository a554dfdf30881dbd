"""Physical problem description: system Hamiltonian, bath (Lorentz peaks and
an Ohmic term), reservoir correlation functions and initial states.

The bath fixes the reduced dynamics, so this module holds the one definition
of each quantity both solver routes read: the correlation function
(``correlation``, ``lorentz_correlation``), the cutoff counterterm
(``counterterm_shift``) and the prefactor f = 1/(1 + i*eta/2) of the
cutoff-removed Ohmic equation (``renormalization``).

Units: hbar = 1, all energies and frequencies share one unit, times are in
its inverse.  The Ohmic coefficient eta is dimensionless.
"""

from collections import namedtuple

import numpy as np

from .linalg import HERMITICITY_RTOL, as_square_matrix, hermiticity_defect


class ModelError(Exception):
    """Invalid physical model parameters."""


class OhmicWithoutCutoffError(ModelError):
    """Pointwise correlation function requested for a pure Ohmic bath.

    An Ohmic spectral density without cutoff has no pointwise correlation
    function; callers run ``volterra.solve_integro_differential`` on the
    bath without a cutoff instead, which marches the cutoff-removed equation.
    """


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _make_validated(cls, fields):
    """``_make`` of a record that validates in ``__new__``, so that
    ``_make`` and ``_replace`` validate too: the namedtuple versions build
    the tuple directly."""
    return cls(*fields)


class SystemHamiltonian(namedtuple("SystemHamiltonian", "matrix")):
    """N x N Hermitian matrix acting on the excited-state subspace."""

    __slots__ = ()
    _make = classmethod(_make_validated)

    def __new__(cls, matrix):
        m = as_square_matrix(matrix)
        if m.shape[0] < 1:
            raise ModelError("system must have at least one level")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_RTOL:
            raise ModelError(
                f"system Hamiltonian is not Hermitian (relative defect {defect:.3e})"
            )
        return super().__new__(cls, _readonly(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class LorentzPeak(namedtuple("LorentzPeak", "g gamma epsilon")):
    """One Lorentzian term of the spectral density.

    Contributes gamma*g^2 / ((gamma/2)^2 + (omega - epsilon)^2) to J(omega)
    and g^2 * exp(-(gamma/2)|t| - i*epsilon*t) to G(t).
    """

    __slots__ = ()
    _make = classmethod(_make_validated)

    def __new__(cls, g: float, gamma: float, epsilon: float = 0.0):
        if not (g > 0.0):
            raise ModelError(f"peak coupling must be positive, got g={g}")
        if not (gamma > 0.0):
            raise ModelError(f"peak width must be positive, got gamma={gamma}")
        if not np.isfinite(g * g / gamma):
            raise ModelError(f"g^2/gamma overflows for g={g}, gamma={gamma}")
        return super().__new__(cls, g, gamma, epsilon)


class BathModel(namedtuple("BathModel", "peaks eta cutoff")):
    """Structured reservoir: Lorentz peaks plus an optional Ohmic term.

    ``cutoff`` is the exponential cutoff frequency for the Ohmic part, in
    (0, inf); when absent the Ohmic part is treated through the renormalized
    equations only.  An empty bath (no peaks, eta = 0) describes a closed
    system.
    """

    __slots__ = ()
    _make = classmethod(_make_validated)

    def __new__(cls, peaks=(), eta: float = 0.0, cutoff: float | None = None):
        peaks = tuple(peaks)
        if eta < 0.0:
            raise ModelError(f"Ohmic coefficient must be non-negative, got {eta}")
        if cutoff is not None and not 0.0 < cutoff < np.inf:
            raise ModelError(f"cutoff must be positive and finite, got {cutoff}")
        return super().__new__(cls, peaks, eta, cutoff)

    @property
    def k(self) -> int:
        return len(self.peaks)


class InitialState(namedtuple("InitialState", "psi psi0")):
    """Factorized initial state: excited amplitudes psi and ground amplitude
    psi0, normalized so that ||psi||^2 + |psi0|^2 = 1."""

    __slots__ = ()
    _make = classmethod(_make_validated)

    def __new__(cls, psi, psi0: complex = 0.0):
        psi = np.ascontiguousarray(psi, dtype=complex).ravel()
        if psi.size < 1:
            raise ModelError("initial excited vector must have dim >= 1")
        if not np.all(np.isfinite(psi.view(float))):
            raise ModelError("initial state contains non-finite entries")
        ground = abs(complex(psi0))
        # ground * ground overflows to inf, where ground ** 2 raises OverflowError
        total = float(np.vdot(psi, psi).real) + ground * ground
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise ModelError(
                f"initial state is not normalized: ||psi||^2 + |psi0|^2 = {total!r}"
            )
        return super().__new__(cls, _readonly(psi), complex(psi0))

    @property
    def n(self) -> int:
        return self.psi.shape[0]


def renormalization(eta: float) -> complex:
    """The prefactor f = 1/(1 + i*eta/2) of the cutoff-removed Ohmic equation;
    exactly 1 at eta = 0."""
    return 1.0 / (1.0 + 0.5j * eta)


def lorentz_correlation(peaks, t):
    """Sum of exponential-oscillatory kernels of the Lorentz peaks."""
    tt = np.asarray(t, dtype=float)
    out = np.zeros(tt.shape, dtype=complex)
    for p in peaks:
        out = out + p.g**2 * np.exp(-(p.gamma / 2.0) * np.abs(tt) - 1j * p.epsilon * tt)
    return out if out.ndim else complex(out)


def ohmic_cutoff_correlation(eta: float, cutoff: float, t):
    """Correlation function of the cut-off Ohmic density eta*w*exp(-|w|/cutoff):
    purely imaginary and odd in t.

    Equals i*eta * d/dt f(t) with f(t) = (cutoff/pi) / (1 + (cutoff*t)^2),
    a delta sequence of width 1/cutoff; the large-diagonal counterterm
    eta*cutoff/pi cancels against this kernel's secular part.
    """
    tt = np.asarray(t, dtype=float)
    out = -1j * eta * 2.0 * tt * cutoff**3 / (np.pi * (1.0 + (cutoff * tt) ** 2) ** 2)
    return out if out.ndim else complex(out)


def correlation(bath: BathModel, t):
    """Pointwise reservoir correlation function G(t).

    Raises OhmicWithoutCutoffError when eta > 0 without a cutoff: that bath
    only has well-defined dynamics through the renormalized equations.
    """
    if bath.eta > 0.0 and bath.cutoff is None:
        raise OhmicWithoutCutoffError(
            "pure Ohmic bath has no pointwise correlation function; "
            "use solve_integro_differential on the bath without a cutoff"
        )
    out = lorentz_correlation(bath.peaks, t)
    if bath.eta > 0.0:
        out = out + ohmic_cutoff_correlation(bath.eta, bath.cutoff, t)
    return out


def counterterm_shift(h_r: SystemHamiltonian, bath: BathModel) -> SystemHamiltonian:
    """Add the counterterm eta*Omega/pi of a bath with a cutoff Omega to the
    system Hamiltonian."""
    return SystemHamiltonian(h_r.matrix + bath.eta * bath.cutoff / np.pi * np.eye(h_r.n))


__all__ = [
    "BathModel",
    "InitialState",
    "LorentzPeak",
    "ModelError",
    "OhmicWithoutCutoffError",
    "SystemHamiltonian",
    "correlation",
    "counterterm_shift",
    "lorentz_correlation",
    "ohmic_cutoff_correlation",
    "renormalization",
]
