"""Physical problem description: system Hamiltonian, bath spectral density,
reservoir correlation functions and initial states.

Units: hbar = 1, all energies and frequencies share one unit, times are in
its inverse.  The Ohmic coefficient eta is dimensionless.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITICITY_RTOL, as_square_matrix, hermiticity_defect


class ModelError(Exception):
    """Invalid physical model parameters."""


class OhmicWithoutCutoffError(ModelError):
    """Pointwise correlation function requested for a pure Ohmic bath.

    An Ohmic spectral density without cutoff has no pointwise correlation
    function; callers must take the renormalized route instead.
    """


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemHamiltonian:
    """N x N Hermitian matrix acting on the excited-state subspace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix)
        if m.shape[0] < 1:
            raise ModelError("system must have at least one level")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_RTOL:
            raise ModelError(
                f"system Hamiltonian is not Hermitian (relative defect {defect:.3e})"
            )
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def shifted(self, shift: float) -> "SystemHamiltonian":
        """Return H + shift * I."""
        return SystemHamiltonian(self.matrix + shift * np.eye(self.n))


@dataclass(frozen=True)
class LorentzPeak:
    """One Lorentzian term of the spectral density.

    Contributes gamma*g^2 / ((gamma/2)^2 + (omega - epsilon)^2) to J(omega)
    and g^2 * exp(-(gamma/2)|t| - i*epsilon*t) to G(t).
    """

    g: float
    gamma: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.g > 0.0):
            raise ModelError(f"peak coupling must be positive, got g={self.g}")
        if not (self.gamma > 0.0):
            raise ModelError(f"peak width must be positive, got gamma={self.gamma}")
        if not np.isfinite(self.g * self.g / self.gamma):
            raise ModelError(f"g^2/gamma overflows for g={self.g}, gamma={self.gamma}")


@dataclass(frozen=True)
class BathModel:
    """Structured reservoir: Lorentz peaks plus an optional Ohmic term.

    ``cutoff`` is the exponential cutoff frequency for the Ohmic part; when
    absent the Ohmic part is treated through the renormalized equations
    only.  An empty bath (no peaks, eta = 0) describes a closed system.
    """

    peaks: tuple[LorentzPeak, ...] = ()
    eta: float = 0.0
    cutoff: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if self.eta < 0.0:
            raise ModelError(f"Ohmic coefficient must be non-negative, got {self.eta}")
        if self.cutoff is not None and not (self.cutoff > 0.0):
            raise ModelError(f"cutoff frequency must be positive, got {self.cutoff}")

    @property
    def k(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class InitialState:
    """Factorized initial state: excited amplitudes psi and ground amplitude
    psi0, normalized so that ||psi||^2 + |psi0|^2 = 1."""

    psi: np.ndarray
    psi0: complex = 0.0

    def __post_init__(self):
        psi = np.ascontiguousarray(self.psi, dtype=complex).ravel()
        if psi.size < 1:
            raise ModelError("initial excited vector must have dim >= 1")
        if not np.all(np.isfinite(psi.view(float))):
            raise ModelError("initial state contains non-finite entries")
        total = float(np.vdot(psi, psi).real + abs(complex(self.psi0)) ** 2)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(
                f"initial state is not normalized: ||psi||^2 + |psi0|^2 = {total!r}"
            )
        object.__setattr__(self, "psi", _readonly(psi))
        object.__setattr__(self, "psi0", complex(self.psi0))

    @property
    def n(self) -> int:
        return self.psi.shape[0]


def spectral_density(bath: BathModel, omega):
    """Evaluate J(omega): Lorentz peaks plus the (possibly cut off) Ohmic term.

    Accepts scalar or array omega.
    """
    w = np.asarray(omega, dtype=float)
    out = np.zeros_like(w)
    for p in bath.peaks:
        out = out + p.gamma * p.g**2 / ((p.gamma / 2.0) ** 2 + (w - p.epsilon) ** 2)
    if bath.eta > 0.0:
        ohmic = bath.eta * w
        if bath.cutoff is not None:
            ohmic = ohmic * np.exp(-np.abs(w) / bath.cutoff)
        out = out + ohmic
    return out if out.ndim else float(out)


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
            "use the renormalized solver"
        )
    out = lorentz_correlation(bath.peaks, t)
    if bath.eta > 0.0:
        out = out + ohmic_cutoff_correlation(bath.eta, bath.cutoff, t)
    return out


def counterterm_shift(h_r: SystemHamiltonian, eta: float, omega: float) -> SystemHamiltonian:
    """Add the cutoff counterterm eta*Omega/pi to the system Hamiltonian."""
    if eta < 0.0:
        raise ModelError(f"eta must be non-negative, got {eta}")
    if not 0.0 < omega < np.inf:
        raise ModelError(f"cutoff must be positive and finite, got {omega}")
    return h_r.shifted(eta * omega / np.pi)


def correlation_by_quadrature(
    bath: BathModel,
    t: float,
    omega_max: float,
    steps: int,
    chunk: int = 1_000_000,
) -> complex:
    """Inverse Fourier transform of J(omega) by composite trapezoid.

    Independent consistency check for ``correlation``: evaluates
    (1/2pi) * integral of exp(-i*omega*t) J(omega) over [-omega_max, omega_max].
    Chunked so that multi-million-point quadratures stay memory-bounded.
    """
    if bath.eta > 0.0 and bath.cutoff is None:
        raise OhmicWithoutCutoffError("quadrature needs an integrable spectral density")
    if steps < 2:
        raise ModelError("quadrature needs at least 2 steps")
    h = 2.0 * omega_max / steps
    total = 0.0 + 0.0j
    for start in range(0, steps + 1, chunk):
        stop = min(start + chunk, steps + 1)
        idx = np.arange(start, stop)
        w = -omega_max + h * idx
        f = spectral_density(bath, w) * np.exp(-1j * w * t)
        weights = np.ones(stop - start)
        if start == 0:
            weights[0] = 0.5
        if stop == steps + 1:
            weights[-1] = 0.5
        total += np.sum(weights * f)
    return complex(total * h / (2.0 * np.pi))


__all__ = [
    "BathModel",
    "InitialState",
    "LorentzPeak",
    "ModelError",
    "OhmicWithoutCutoffError",
    "SystemHamiltonian",
    "correlation",
    "correlation_by_quadrature",
    "counterterm_shift",
    "lorentz_correlation",
    "ohmic_cutoff_correlation",
    "spectral_density",
]
