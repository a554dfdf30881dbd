"""Dense complex linear algebra: Hermitian eigenvalues and exact propagation.

Everything here operates on plain numpy arrays (complex128).  Hermitian
eigenvalues, of one matrix or of a stack, go to LAPACK through numpy behind a
strict Hermiticity check.  A linear ODE whose generator is a stack of small
blocks is propagated exactly on a uniform time grid, given by its step and
its number of points, by scaling-and-squaring matrix exponentials of the
blocks (Al-Mohy & Higham 2009): no step-size control and no tolerances, in
pieces of at most ``CHUNK_ROWS`` rows that a caller joins if it wants them
whole.  That ``expm`` is scipy's, loaded on first use, so importing this
module loads numpy alone.  scipy 1.17 loops over a stack's matrices in
Python, so one call on a stack saves only the overhead of a call per block.
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


#: Rows per chunk of ``propagate_chunks``: the first chunk is filled by
#: doubling, each later one is the one before advanced by CHUNK_ROWS steps.
CHUNK_ROWS = 4096


def propagate_chunks(blocks, z0, step, count):
    """Exact solution of dz_a/dt = -i B_a z_a for every block of an (N, d, d)
    stack, from the (N, d) start z0, at the ``count`` >= 1 times k * step,
    k = 0 .. count - 1, in pieces of consecutive rows: (N, c, d) arrays with
    c <= CHUNK_ROWS whose [a, k] is z_a at the next time.  A piece is read by
    the caller and then left alone: the next one is computed from it.

    The first C = min(count, CHUNK_ROWS) rows are filled by doubling: rows
    [p, 2p) are expm(-i p step B) applied to rows [0, p), one
    ``scipy.linalg.expm`` call on the stack per p = 1, 2, 4, ...  Each later
    chunk of CHUNK_ROWS rows is expm(-i CHUNK_ROWS step B) applied to the one
    before, one more call.  No block is ever eigendecomposed, and a row is at
    most log2(CHUNK_ROWS) + count/CHUNK_ROWS products away from z0.
    """
    blocks = np.asarray(blocks, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or z0.shape != blocks.shape[:2]:
        raise DimensionMismatchError(
            f"blocks of shape {blocks.shape} do not match a start of shape {z0.shape}"
        )
    n, d = z0.shape
    chunk = np.empty((n, min(CHUNK_ROWS, count), d), dtype=complex)
    chunk[:, 0] = z0
    p = 1
    while p < chunk.shape[1]:
        rows = min(p, chunk.shape[1] - p)
        u = expm(-1j * (p * step) * blocks)
        chunk[:, p : p + rows] = chunk[:, :rows] @ u.swapaxes(-1, -2)
        p *= 2
    yield chunk
    done = chunk.shape[1]
    if done < count:
        u = expm(-1j * (CHUNK_ROWS * step) * blocks).swapaxes(-1, -2)
        while done < count:
            chunk = chunk[:, : count - done] @ u
            yield chunk
            done += chunk.shape[1]


__all__ = [
    "CHUNK_ROWS",
    "DimensionMismatchError",
    "LinAlgError",
    "NotHermitianError",
    "hermitian_eigenvalues",
    "propagate_chunks",
]
