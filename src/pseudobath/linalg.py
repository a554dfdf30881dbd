"""Dense complex linear algebra: Hermitian eigenvalues and exact propagation.

Everything here operates on plain numpy arrays (complex128).  Hermitian
eigenvalues, of one matrix or of a stack, go to LAPACK through numpy behind a
strict Hermiticity check.  A linear ODE whose generator is a stack of small
blocks is propagated exactly on a time grid by scaling-and-squaring matrix
exponentials of the blocks (Al-Mohy & Higham 2009): no step-size control and
no tolerances.  That ``expm`` is scipy's, loaded on first use, so importing
this module loads numpy alone.
"""

import numpy as np


class LinAlgError(Exception):
    """Base class for numerics failures."""


class NotHermitianError(LinAlgError):
    """Input matrix fails the Hermiticity check."""


class DimensionMismatchError(LinAlgError):
    """Operands have incompatible shapes."""


#: Relative Hermiticity tolerance, deliberately stricter than the 1e-10
#: density-matrix tolerances so that symmetry errors and propagation errors
#: stay separable.
HERMITICITY_RTOL = 1e-12

#: Steps of a grid that differ by at most this times its last time count as
#: equal (``numpy.linspace`` steps differ by about 2.2e-16 of it).
_DT_RTOL = 1e-15


def as_square_matrix(a, stack: bool = False) -> np.ndarray:
    """``a`` as a finite complex square matrix or, with ``stack``, a finite
    (..., n, n) stack of them."""
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise LinAlgError("matrix contains non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray):
    """Max-norm of A - A^dagger relative to 1 + max-norm of A, for a matrix
    or for each matrix of a (..., n, n) stack."""
    a = np.asarray(a, dtype=complex)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0) / scale


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues (``numpy.linalg.eigvalsh`` of 0.5 (A + A^dagger))
    of a Hermitian matrix or of each matrix of a (..., n, n) stack.  Raises
    DimensionMismatchError, LinAlgError or NotHermitianError unless every
    matrix is square, finite and Hermitian to HERMITICITY_RTOL."""
    a = as_square_matrix(a, stack=True)
    defect = np.max(hermiticity_defect(a), initial=0.0)
    if defect > HERMITICITY_RTOL:
        raise NotHermitianError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2)))


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of a matrix or a stack, imported on first use."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def propagate_blocks(blocks, z0, times) -> np.ndarray:
    """Exact solution of dz_a/dt = -i B_a z_a for every block of an (N, d, d)
    stack, from the (N, d) start z0: an (N, T, d) array whose [a, k] is
    z_a(times[k]).  The grid must be strictly increasing and start at 0.

    The grid splits into maximal runs of steps equal to within _DT_RTOL times
    the last time.  A run of m steps of length dt is filled by doubling: its
    rows [p, 2p) are expm(-i p dt B) applied to its rows [0, p), one stacked
    ``scipy.linalg.expm`` per p = 1, 2, 4, ...  No block is ever
    eigendecomposed, and a row is at most log2(m) + 1 products away from z0.
    """
    blocks = np.asarray(blocks, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or z0.shape != blocks.shape[:2]:
        raise DimensionMismatchError(
            f"blocks of shape {blocks.shape} do not match a start of shape {z0.shape}"
        )
    t = np.asarray(times, dtype=float).ravel()
    if t.size == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise LinAlgError("time grid must be strictly increasing and start at 0")
    dt = np.diff(t)
    z = np.empty((blocks.shape[0], t.size, blocks.shape[1]), dtype=complex)
    z[:, 0] = z0
    lo = 0
    while lo < dt.size:
        off = np.flatnonzero(np.abs(dt[lo:] - dt[lo]) > _DT_RTOL * t[-1])
        hi = lo + int(off[0]) if off.size else dt.size
        step = (t[hi] - t[lo]) / (hi - lo)
        run = z[:, lo : hi + 1]
        p = 1
        while p <= hi - lo:
            rows = min(p, hi - lo + 1 - p)
            u = expm(-1j * (p * step) * blocks)
            run[:, p : p + rows] = run[:, :rows] @ u.swapaxes(-1, -2)
            p *= 2
        lo = hi
    return z


__all__ = [
    "DimensionMismatchError",
    "LinAlgError",
    "NotHermitianError",
    "hermitian_eigenvalues",
    "propagate_blocks",
]
