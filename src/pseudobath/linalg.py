"""Dense complex linear algebra and linear-ODE integration.

Everything here operates on plain numpy arrays (complex128).  Hermitian
eigenproblems go to LAPACK through numpy, behind a Hermiticity check that is
stricter than any solver tolerance; the linear ODE is integrated by scipy's
DOP853 and returned as one (T, dim) array.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


class LinAlgError(Exception):
    """Base class for numerics failures."""


class NotHermitianError(LinAlgError):
    """Input matrix fails the Hermiticity check."""


class DimensionMismatchError(LinAlgError):
    """Operands have incompatible shapes."""


class StepUnderflowError(LinAlgError):
    """Adaptive integrator drove the step size below the floor."""


#: Relative Hermiticity tolerance, deliberately stricter than any solver
#: tolerance so that symmetry errors and integration errors stay separable.
HERMITICITY_RTOL = 1e-12


def as_square_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise LinAlgError("matrix contains non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm of A - A^dagger relative to 1 + max-norm of A."""
    a = np.asarray(a, dtype=complex)
    scale = 1.0 + np.abs(a).max(initial=0.0)
    return float(np.abs(a - a.conj().T).max(initial=0.0) / scale)


@dataclass(frozen=True)
class HermitianEigenResult:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(a) -> np.ndarray:
    """0.5 (A + A^dagger) of a finite square A, Hermitian to HERMITICITY_RTOL;
    raises DimensionMismatchError, LinAlgError or NotHermitianError otherwise."""
    a = as_square_matrix(a)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_RTOL:
        raise NotHermitianError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return 0.5 * (a + a.conj().T)


def hermitian_eigen(a) -> HermitianEigenResult:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``)."""
    return HermitianEigenResult(*np.linalg.eigh(_hermitian_part(a)))


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (``numpy.linalg.eigvalsh``)."""
    return np.linalg.eigvalsh(_hermitian_part(a))


def integrate_linear_ode(
    m,
    y0,
    grid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Solve d/dt y = -i M y on a fixed output grid.

    Uses an adaptive high-order embedded Runge-Kutta pair (scipy DOP853)
    with dense output evaluated exactly at the grid points.  The grid must
    be strictly increasing and start at 0.  Returns a (T, dim) array whose
    row k is y(grid[k]).
    """
    m = as_square_matrix(m)
    y0 = np.ascontiguousarray(y0, dtype=complex).ravel()
    if y0.shape[0] != m.shape[0]:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} does not match state dim {y0.shape[0]}"
        )
    t = np.asarray(grid, dtype=float).ravel()
    if t.size == 0 or t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0.0)):
        raise LinAlgError("time grid must be strictly increasing and start at 0")
    if t.size == 1:
        return y0[np.newaxis, :].copy()
    gen = -1j * m
    sol = solve_ivp(
        lambda _, y: gen @ y,
        (t[0], t[-1]),
        y0,
        method="DOP853",
        t_eval=t,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StepUnderflowError(f"integration failed: {sol.message}")
    return np.ascontiguousarray(sol.y.T)
