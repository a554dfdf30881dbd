"""Direct integro-differential solvers used to cross-validate the
pseudomode path.

The memory equation d/dt psi = -i H psi - int_0^t G(t-s) psi(s) ds is
integrated on a uniform grid with trapezoidal quadrature of the history
integral and an explicit-Euler predictor / trapezoidal corrector step:
global error O(h^2).  ``extrapolate=True`` combines runs at h and h/2 by
Richardson extrapolation, which removes the leading error term and is what
the tight cross-solver comparisons use; max_t |y_h - y_{h/2}|/3 is kept as
the oracle's own error estimate.

The bath selects the equation.  With a cutoff Omega it is the finite-cutoff
one: H + eta*Omega/pi and the kernel G = ``model.correlation``.  Without one
it is the cutoff-removed limit: H, the Lorentz kernel and psi(0) each carry
f = 1/(1 + i*eta/2).  The kernel, the counterterm and f are ``model``'s.

The scheme is linear in psi, so the march solves a block of B steps at a
time (B*N <= 256): the increments y_{k+1} - y_k of one block satisfy one
unit lower-triangular block-Toeplitz system, built once per march and
solved with one triangular solve per block, and the history of finished
blocks enters as FFT convolutions on dyadic tiles (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): O(steps log^2 steps).
The FFTs are numpy's; the triangular solves call LAPACK's trtrs directly,
fetched from scipy by the first march, so importing this module loads numpy
alone.
The march reads only H, psi(0), h and the sampled kernel G(k*h): no kernel
compression, no sum of exponentials and no use of the pseudomode structure,
so it certifies the effective-Hamiltonian route independently.
"""

from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import LinAlgError
from .model import (
    BathModel,
    ModelError,
    SystemHamiltonian,
    correlation,
    counterterm_shift,
    lorentz_correlation,
    renormalization,
)

#: Largest order B*n of the triangular system solved for one block of B steps.
_BLOCK_ORDER = 256


class GridMismatchError(Exception):
    """Trajectories are not sampled on the same grid."""


class StepTooCoarseError(LinAlgError):
    """Step size too large to resolve the cutoff kernel."""


class OracleTrajectory(
    namedtuple("OracleTrajectory", "times states error_estimate", defaults=(None,))
):
    """States on a uniform grid (required by the history quadrature).

    ``error_estimate`` is max_t |y_h - y_{h/2}|/3 for an extrapolated run
    and None otherwise: it estimates the error of the half-step run y_{h/2},
    not that of the Richardson states (4 y_{h/2} - y_h)/3 in ``states``.
    """

    __slots__ = ()


def _kernel_on_grid(bath: BathModel, times: np.ndarray) -> np.ndarray:
    """The kernel of the equation that ``bath`` selects, on a grid:
    ``correlation(bath)`` with a cutoff, f * ``lorentz_correlation`` without."""
    # an overflow shows as a non-finite value, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if bath.cutoff is None:
            vals = lorentz_correlation(bath.peaks, times)
        else:
            vals = correlation(bath, times)
    if not np.all(np.isfinite(vals.view(float))):
        raise ModelError("kernel is not finite on the grid")
    return vals if bath.cutoff is not None else renormalization(bath.eta) * vals


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
    from scipy.linalg import get_lapack_funcs

    n = psi0.shape[0]
    eye = np.eye(n)
    a = -1j * generator
    m = a - 0.5 * h * gvals[0] * eye
    q = eye + h * m
    q_t = q.T
    padded = np.zeros(2 * steps + 1, dtype=complex)
    padded[: steps + 1] = -0.5 * h * h * gvals
    alpha, beta = padded[:-1], padded[1:]

    bsize = min(max(1, _BLOCK_ORDER // n), steps)
    kern = alpha[:bsize, None, None] * q + beta[:bsize, None, None] * eye
    kern[0] += 0.5 * h * (q @ a + m) + 0.25 * h * h * gvals[0] * q
    csum = np.cumsum(kern, axis=0)
    # lower[(i, r), (l, c)] = -C_{i-l-1}[r, c] below the block diagonal, else 0:
    # row (i, r) is the window of band[r] = (-C_{bsize-2}[r], ..., -C_0[r], 0, ..., 0)
    # that starts at block bsize-1-i, so one strided copy builds the matrix
    band = np.zeros((n, 2 * bsize - 1, n), dtype=complex)
    band[:, : bsize - 1] = -csum[: bsize - 1][::-1].transpose(1, 0, 2)
    windows = sliding_window_view(band.reshape(n, -1), bsize * n, axis=1)[:, ::n]
    lower = windows[:, ::-1].transpose(1, 0, 2).reshape(bsize * n, bsize * n)
    # LAPACK reads the Fortran-ordered transpose: an upper triangle, solved transposed
    upper = lower.T
    trtrs = get_lapack_funcs("trtrs", (upper,))

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
        # a unit diagonal is never singular, so info is always 0
        d, _ = trtrs(upper[: b * n, : b * n], rhs.ravel(), lower=0, trans=1, unitdiag=1)
        y[k0 + 1 : k0 + b + 1] = y[k0] + np.cumsum(d.reshape(b, n), axis=0)
        lo = k0 + b
        if lo >= steps:
            break
        done = lo // bsize
        level = (done & -done).bit_length() - 1
        span = bsize << level
        spec_a, spec_b = spectra[level]
        ys = np.fft.fft(y[lo - span : lo], n=2 * span, axis=0)
        conv = np.fft.ifft(spec_a[:, None] * (ys @ q_t) + spec_b[:, None] * ys, axis=0)
        far[lo : lo + span] += conv[span : span + steps - lo]
    return y


def solve_integro_differential(
    h_s: SystemHamiltonian,
    bath: BathModel,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
    extrapolate: bool = False,
) -> OracleTrajectory:
    """Integrate the memory equation of system Hamiltonian ``h_s`` in ``bath``.

    A bath with a cutoff Omega gives H + eta*Omega/pi (``counterterm_shift``)
    with the kernel ``correlation(bath)``.  A bath without one gives the
    cutoff-removed equation: H, the Lorentz kernel and psi(0) all carry the
    prefactor f = ``renormalization(eta)``, which is exactly 1 at eta = 0.
    The states are at the times linspace(0, t_max, steps + 1), the grid of
    ``dynamics.evolve(..., t_max, steps + 1)``; the kernel is sampled at k*h.
    With ``extrapolate`` the states are (4 y_{h/2} - y_h)/3 from runs at
    steps h and h/2; ``error_estimate`` estimates the error of y_{h/2} and
    does not bound that of the returned states.
    """
    if steps < 10:
        raise ValueError("need at least 10 steps")
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    psi0 = np.ascontiguousarray(psi0, dtype=complex).ravel()
    if bath.cutoff is None:
        f = renormalization(bath.eta)
        generator, psi0 = f * h_s.matrix, f * psi0
    else:
        generator = counterterm_shift(h_s, bath).matrix
    h = t_max / steps
    times = np.linspace(0.0, t_max, steps + 1)
    if not extrapolate:
        gvals = _kernel_on_grid(bath, np.arange(steps + 1) * h)
        y = _solve_volterra_core(generator, gvals, psi0, h, steps)
        return OracleTrajectory(times=times, states=y)
    # h/2 is exact for a normal h, so (2k)(h/2) rounds to kh: every other fine
    # sample is a coarse one
    gvals_fine = _kernel_on_grid(bath, np.arange(2 * steps + 1) * (h / 2.0))
    y = _solve_volterra_core(generator, gvals_fine[::2], psi0, h, steps)
    y_half = _solve_volterra_core(generator, gvals_fine, psi0, h / 2.0, 2 * steps)[::2]
    error = float(np.linalg.norm(y_half - y, axis=1).max()) / 3.0
    return OracleTrajectory(times=times, states=(4.0 * y_half - y) / 3.0, error_estimate=error)


def solve_cutoff_family(
    h_r: SystemHamiltonian,
    bath: BathModel,
    omegas,
    psi0: np.ndarray,
    t_max: float,
    steps: int,
) -> list[OracleTrajectory]:
    """Runs of ``bath`` at each finite cutoff in ``omegas``, whose
    large-cutoff limit is the run of ``bath`` itself (without a cutoff).

    ``BathModel`` rejects an Omega outside (0, inf) with ModelError, and the
    step must resolve the kernel's 1/Omega timescale: h <= 0.1/Omega.
    Every cutoff is checked before the first march.
    """
    h = t_max / steps
    baths = []
    for omega in omegas:
        baths.append(bath._replace(cutoff=omega))
        if bath.eta > 0.0 and h > 0.1 / omega * (1.0 + 1e-12):
            raise StepTooCoarseError(
                f"step {h:.3e} too coarse for cutoff {omega}: need h <= {0.1 / omega:.3e}"
            )
    return [solve_integro_differential(h_r, b, psi0, t_max, steps) for b in baths]


def deviation_norms(a, b) -> tuple[float, float]:
    """Sup and L2 deviation between the system parts ``states`` of two
    trajectories (pseudomode or oracle) on their grids ``times``: the max
    pointwise 2-norm, and the trapezoidal time integral of the squared
    2-norm, square-rooted.

    The grids must be equal: same length, every point within
    1e-12*(1 + t_last).  Both routes return linspace(0, t_max, points), so
    the slack serves grids that library callers pass, such as
    arange(steps+1)*h, which differs from that linspace by a few ulps.
    """
    ta, tb = a.times, b.times
    if a.states.shape[1] != b.states.shape[1]:
        raise GridMismatchError("system dimensions differ")
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-12 * (1.0 + ta[-1]):
        raise GridMismatchError(f"grids differ ({ta.size} and {tb.size} points)")
    diff = np.linalg.norm(a.states - b.states, axis=1)
    return float(diff.max()), float(np.sqrt(np.trapezoid(diff**2, ta)))


__all__ = [
    "GridMismatchError",
    "OracleTrajectory",
    "StepTooCoarseError",
    "deviation_norms",
    "solve_cutoff_family",
    "solve_integro_differential",
]
