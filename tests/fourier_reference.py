"""Fourier-quadrature reference for the reservoir correlation function.

The package defines G(t) in closed form (``model.correlation``); nothing it
runs needs the spectral density J(omega).  This module inverts J(omega) by
quadrature, an independent route to G(t) that ``test_model.py`` and
criterion 8 of ``test_acceptance.py`` check ``correlation`` against.  It
lives with the tests, so that no edit of ``src`` can move the reference.
Not collected by pytest.
"""

import numpy as np

from pseudobath.model import BathModel, ModelError


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


#: Quadrature nodes evaluated at a time, so that multi-million-point
#: quadratures stay memory-bounded.
_QUADRATURE_CHUNK = 1_000_000


def correlation_by_quadrature(bath: BathModel, t: float, omega_max: float, steps: int) -> complex:
    """Inverse Fourier transform of J(omega) by composite trapezoid.

    Independent consistency check for ``correlation``: evaluates
    (1/2pi) * integral of exp(-i*omega*t) J(omega) over [-omega_max, omega_max].
    """
    if bath.eta > 0.0 and bath.cutoff is None:
        raise ModelError("quadrature needs an integrable spectral density")
    if steps < 2:
        raise ModelError("quadrature needs at least 2 steps")
    h = 2.0 * omega_max / steps
    total = 0.0 + 0.0j
    for start in range(0, steps + 1, _QUADRATURE_CHUNK):
        stop = min(start + _QUADRATURE_CHUNK, steps + 1)
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
