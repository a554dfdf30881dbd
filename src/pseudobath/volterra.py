"""Direct integro-differential solvers used to cross-validate the
pseudomode path.

The memory equation d/dt psi = -i H psi - int_0^t G(t-s) psi(s) ds is
integrated on a uniform grid with trapezoidal quadrature of the history
integral and an explicit-Euler predictor / trapezoidal corrector step:
global error O(h^2).  Each step sums the history once: the corrector's sum
over the settled points, completed with the new endpoint, is the next
predictor's memory term.  ``extrapolate=True`` combines runs at h and h/2 by
Richardson extrapolation, which removes the leading error term and is what
the tight cross-solver comparisons use.

These solvers are deliberately transparent (a direct O(steps^2) history sum
of the sampled kernel, no kernel compression and no use of the pseudomode
structure): their job is to certify the effective-Hamiltonian route
independently, not to be fast.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import SystemHamiltonian, counterterm_shift, ohmic_cutoff_correlation

Kernel = Callable[[np.ndarray], np.ndarray]


class GridMismatchError(Exception):
    """Trajectories share no usable common grid."""


class StepTooCoarseError(Exception):
    """Step size too large to resolve the cutoff kernel."""


@dataclass(frozen=True)
class OracleTrajectory:
    """States on a uniform grid (required by the history quadrature)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def _kernel_on_grid(kernel: Kernel | None, times: np.ndarray) -> np.ndarray:
    if kernel is None:
        return np.zeros(times.shape, dtype=complex)
    vals = np.asarray(kernel(times), dtype=complex)
    if vals.shape != times.shape:
        raise ValueError("kernel must evaluate elementwise on a time array")
    if not np.all(np.isfinite(vals.view(float))):
        raise ValueError("kernel is not finite on the grid")
    return vals


def _solve_volterra_core(
    generator: np.ndarray,
    gvals: np.ndarray,
    psi0: np.ndarray,
    h: float,
    steps: int,
) -> np.ndarray:
    """Predictor-corrector march; gvals holds G(k*h) for k = 0..steps."""
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
    if extrapolate:
        times_fine = np.arange(2 * steps + 1) * (h / 2.0)
        gvals_fine = kernel_scale * _kernel_on_grid(kernel, times_fine)
        y_fine = _solve_volterra_core(generator, gvals_fine, psi0, h / 2.0, 2 * steps)
        y = (4.0 * y_fine[::2] - y) / 3.0
    return OracleTrajectory(times=times, states=y)


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
    which rejects a negative eta or a non-positive Omega with ModelError).
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


def _system_states(traj) -> tuple[np.ndarray, np.ndarray]:
    """Times and (T, N) system amplitudes from either trajectory flavour."""
    if isinstance(traj, OracleTrajectory):
        return traj.times, traj.states
    # duck-typed pseudomode Trajectory
    return traj.grid.points, traj.system_parts()


def compare_trajectories(a, b, norm: str = "sup") -> float:
    """Deviation between the system parts of two trajectories.

    Grids must coincide, or one must contain the other's points (comparison
    then runs on the shared points).  ``norm`` is "sup" (max pointwise
    2-norm) or "L2" (trapezoidal time integral of the squared 2-norm,
    square-rooted).
    """
    ta, ya = _system_states(a)
    tb, yb = _system_states(b)
    if ya.shape[1] != yb.shape[1]:
        raise GridMismatchError("system dimensions differ")
    if ta.shape == tb.shape and np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        t, da, db = ta, ya, yb
    else:
        # shared grid points, matched by value
        tol = 1e-9 * (1.0 + max(ta[-1], tb[-1]))
        ib = np.searchsorted(tb, ta)
        ib = np.clip(ib, 0, tb.size - 1)
        left = np.clip(ib - 1, 0, tb.size - 1)
        use_left = np.abs(tb[left] - ta) < np.abs(tb[ib] - ta)
        ib = np.where(use_left, left, ib)
        mask = np.abs(tb[ib] - ta) <= tol
        if np.count_nonzero(mask) < 2:
            raise GridMismatchError("trajectories share too few grid points")
        t, da, db = ta[mask], ya[mask], yb[ib[mask]]
    diff = np.linalg.norm(da - db, axis=1)
    if norm == "sup":
        return float(diff.max())
    if norm == "L2":
        return float(np.sqrt(np.trapezoid(diff**2, t)))
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
