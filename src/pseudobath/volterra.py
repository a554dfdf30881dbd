"""Direct integro-differential solvers used to cross-validate the
pseudomode path.

The memory equation d/dt psi = -i H psi - int_0^t G(t-s) psi(s) ds is
integrated on a uniform grid with trapezoidal quadrature of the history
integral and an explicit-Euler predictor / trapezoidal corrector step:
global error O(h^2).  ``extrapolate=True`` combines runs at h and h/2 by
Richardson extrapolation, which removes the leading error term and is what
the tight cross-solver comparisons use; max_t |y_h - y_{h/2}|/3 is kept as
the oracle's own error estimate.

The scheme is linear in psi, so the march solves a block of B steps at a
time (B*N <= 256): the increments y_{k+1} - y_k of one block satisfy one
unit lower-triangular block-Toeplitz system, built once per march and
solved with one triangular solve per block, and the history of finished
blocks enters as FFT convolutions on dyadic tiles (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): O(steps log^2 steps).
The FFTs are numpy's; scipy's triangular solver is imported by the first
march, so importing this module loads numpy alone.
The march reads only H, psi(0), h and the sampled kernel G(k*h): no kernel
compression, no sum of exponentials and no use of the pseudomode structure,
so it certifies the effective-Hamiltonian route independently.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelError, SystemHamiltonian, counterterm_shift, ohmic_cutoff_correlation

Kernel = Callable[[np.ndarray], np.ndarray]

#: Largest order B*n of the triangular system solved for one block of B steps.
_BLOCK_ORDER = 256


class GridMismatchError(Exception):
    """Trajectories are not sampled on the same grid."""


class StepTooCoarseError(Exception):
    """Step size too large to resolve the cutoff kernel."""


@dataclass(frozen=True)
class OracleTrajectory:
    """States on a uniform grid (required by the history quadrature).

    ``error_estimate`` is max_t |y_h - y_{h/2}|/3 for an extrapolated run
    and None otherwise.
    """

    times: np.ndarray
    states: np.ndarray
    error_estimate: float | None = None


def _kernel_on_grid(kernel: Kernel | None, times: np.ndarray) -> np.ndarray:
    if kernel is None:
        return np.zeros(times.shape, dtype=complex)
    # an overflow shows as a non-finite value, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(kernel(times), dtype=complex)
    if vals.shape != times.shape:
        raise ValueError("kernel must evaluate elementwise on a time array")
    if not np.all(np.isfinite(vals.view(float))):
        raise ModelError("kernel is not finite on the grid")
    return vals


# a non-finite march shows in the deviations, which compare and cutoff-study reject
@np.errstate(over="ignore", invalid="ignore")
def _solve_volterra_core(
    generator: np.ndarray,
    gvals: np.ndarray,
    psi0: np.ndarray,
    h: float,
    steps: int,
) -> np.ndarray:
    """Predictor-corrector march; gvals holds G(k*h) for k = 0..steps.

    The scheme is linear in y.  With M = a - h*G_0/2, Q = 1 + h*M and
    a = -iH, the increment d_k = y_{k+1} - y_k of one step is

        d_k = sum_{j<=k} K_{k-j} y_j + r_k,
        K_0 = h/2 (Q a + M) - h^2/4 G_0 Q - h^2/2 G_1,
        K_m = alpha_m Q + beta_m          (m >= 1),
        r_k = -(alpha_k Q + beta_k) y_0 / 2,

    with alpha_m = -h^2/2 G_m and beta_m = -h^2/2 G_{m+1}.  Writing y_j inside
    a block as y_{k0} plus the earlier increments turns the block's B steps
    into one unit lower-triangular block-Toeplitz system whose sub-diagonal
    blocks C_m = K_0 + ... + K_m are all O(h).  Finished blocks feed later
    ones through FFT convolutions on dyadic tiles: once c blocks are done,
    the last 2^v(c) of them (v the 2-adic valuation) act on the next
    2^v(c), so every earlier block reaches every later one exactly once.
    """
    from scipy.linalg import solve_triangular

    n = psi0.shape[0]
    eye = np.eye(n)
    a = -1j * generator
    m = a - 0.5 * h * gvals[0] * eye
    q = eye + h * m
    padded = np.zeros(2 * steps + 1, dtype=complex)
    padded[: steps + 1] = -0.5 * h * h * gvals
    alpha, beta = padded[:-1], padded[1:]

    bsize = min(max(1, _BLOCK_ORDER // n), steps)
    kern = alpha[:bsize, None, None] * q + beta[:bsize, None, None] * eye
    kern[0] += 0.5 * h * (q @ a + m) + 0.25 * h * h * gvals[0] * q
    csum = np.cumsum(kern, axis=0)
    # lower[(i, r), (l, c)] = -C_{i-l-1}[r, c] below the block diagonal, else 0
    shifted = np.concatenate((np.zeros((1, n, n)), -csum[:-1]))
    i, c = np.arange(bsize), np.arange(n)
    lag = np.maximum(np.subtract.outer(i, i), 0)
    lower = shifted[lag[:, None, :, None], c[:, None, None], c].reshape(bsize * n, bsize * n)

    # spectra of alpha and beta for the tiles of each level, width 2 * (bsize << level)
    spectra = []
    while (bsize << len(spectra)) < steps:
        width = 2 * (bsize << len(spectra))
        spectra.append(np.fft.fft(np.stack((alpha[:width], beta[:width])), axis=1))

    y = np.empty((steps + 1, n), dtype=complex)
    y[0] = psi0
    # right-hand sides: r_k now, the far field of each finished tile later
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


def _solve_on_grid(
    generator: np.ndarray,
    kernel: Kernel | None,
    kernel_scale: complex,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
    extrapolate: bool,
) -> OracleTrajectory:
    if steps < 10:
        raise ValueError("need at least 10 steps")
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    psi0 = np.ascontiguousarray(psi0, dtype=complex).ravel()
    h = t_max / steps
    times = np.arange(steps + 1) * h
    gvals = kernel_scale * _kernel_on_grid(kernel, times)
    y = _solve_volterra_core(generator, gvals, psi0, h, steps)
    if not extrapolate:
        return OracleTrajectory(times=times, states=y)
    times_fine = np.arange(2 * steps + 1) * (h / 2.0)
    gvals_fine = kernel_scale * _kernel_on_grid(kernel, times_fine)
    y_half = _solve_volterra_core(generator, gvals_fine, psi0, h / 2.0, 2 * steps)[::2]
    error = float(np.linalg.norm(y_half - y, axis=1).max()) / 3.0
    return OracleTrajectory(times=times, states=(4.0 * y_half - y) / 3.0, error_estimate=error)


def solve_integro_differential(
    h_s: SystemHamiltonian,
    kernel: Kernel | None,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
    extrapolate: bool = False,
) -> OracleTrajectory:
    """Integrate the memory equation with system Hamiltonian ``h_s`` and
    kernel G(t)."""
    return _solve_on_grid(h_s.matrix, kernel, 1.0, psi0, t_max, steps, extrapolate)


def solve_renormalized(
    h_r: SystemHamiltonian,
    eta: float,
    kernel_c: Kernel | None,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
    extrapolate: bool = False,
) -> OracleTrajectory:
    """Integrate the cutoff-removed equation for an Ohmic bath.

    Both the Hamiltonian and the continuous kernel part carry the
    1/(1 + i*eta/2) prefactor, and the initial vector is rescaled by the
    same factor.  With eta = 0 this reduces exactly to
    ``solve_integro_differential``.
    """
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    f = 1.0 / (1.0 + 0.5j * eta)
    psi0 = f * np.ascontiguousarray(psi0, dtype=complex).ravel()
    return _solve_on_grid(f * h_r.matrix, kernel_c, f, psi0, t_max, steps, extrapolate)


def solve_cutoff_family(
    h_r: SystemHamiltonian,
    eta: float,
    omegas,
    kernel_c: Kernel | None,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
) -> list[OracleTrajectory]:
    """Finite-cutoff runs whose large-cutoff limit is ``solve_renormalized``.

    For each cutoff the kernel gains the near-delta Ohmic part and the
    Hamiltonian the counterterm shift eta*Omega/pi (``counterterm_shift``,
    which rejects a negative eta or an Omega outside (0, inf) with ModelError).
    The step must resolve the kernel's 1/Omega timescale: h <= 0.1/Omega.
    Every cutoff is checked before the first march.
    """
    h = t_max / steps
    shifted = []
    for omega in omegas:
        shifted.append((omega, counterterm_shift(h_r, eta, omega)))
        if eta > 0.0 and h > 0.1 / omega * (1.0 + 1e-12):
            raise StepTooCoarseError(
                f"step {h:.3e} too coarse for cutoff {omega}: need h <= {0.1 / omega:.3e}"
            )

    def kernel(omega):
        return lambda t: ohmic_cutoff_correlation(eta, omega, t) + _kernel_on_grid(kernel_c, t)

    return [
        solve_integro_differential(h_s, kernel(omega), psi0, t_max, steps)
        for omega, h_s in shifted
    ]


def compare_trajectories(a, b, norm: str = "sup") -> float:
    """Deviation between the system parts ``states`` of two trajectories
    (pseudomode or oracle) on their grids ``times``.

    The grids must be equal: same length, every point within
    1e-12*(1 + t_last), a relative slack for the ulps by which a linspace
    grid and the oracle's arange(steps+1)*h differ.  ``norm`` is "sup" (max
    pointwise 2-norm) or "L2" (trapezoidal time integral of the squared
    2-norm, square-rooted).
    """
    ta, tb = a.times, b.times
    if a.states.shape[1] != b.states.shape[1]:
        raise GridMismatchError("system dimensions differ")
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-12 * (1.0 + ta[-1]):
        raise GridMismatchError(f"grids differ ({ta.size} and {tb.size} points)")
    diff = np.linalg.norm(a.states - b.states, axis=1)
    if norm == "sup":
        return float(diff.max())
    if norm == "L2":
        return float(np.sqrt(np.trapezoid(diff**2, ta)))
    raise ValueError(f"unknown norm {norm!r}")


__all__ = [
    "GridMismatchError",
    "Kernel",
    "OracleTrajectory",
    "StepTooCoarseError",
    "compare_trajectories",
    "solve_cutoff_family",
    "solve_integro_differential",
    "solve_renormalized",
]
