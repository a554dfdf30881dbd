"""Time evolution of the extended state and reduced-density-matrix
reconstruction.

The extended state stacks the system amplitudes with one pseudomode copy per
Lorentz peak; a trajectory keeps those states as one (T, (K+1)N) array, and
a group of P points as one (P, T, (K+1)N) stack.  The grid is uniform,
``numpy.linspace(0, t_max, points)``, and the generator is fixed, so each
state is a power of one matrix exponential applied to psi(0), taken block by
block in the eigenbasis of H (``pseudomode.block_stack``); the dense (K+1)N
generator is never formed.  A closed system (empty bath) is the K = 0 case
of the same propagation.  ``evolve_group`` propagates a group of points with
equal N and K on one grid as one stacked system, in pieces of bounded size
so that memory does not grow with the grid; ``evolve`` joins the pieces of a
group of one.  Tracing out the reservoirs maps the system part straight onto
an (N+1) x (N+1) density matrix, the ground population being the missing
norm; ``observables`` does so for a trajectory, a piece or a stack at once.

The last bits of rho depend on numpy's CPU dispatch.  One source is numpy's
SIMD complex multiply in ``observables``: on the seed-1 ``simulate-dense``
benchmark config, all 12003 excited-block diagonal entries psi_i * conj(psi_i)
have a nonzero imaginary part (up to 1.4e-17) under X86_V3 with its fused
multiply-add, and none do with the dispatched groups disabled
(``NPY_DISABLE_CPU_FEATURES``).
"""

from collections import namedtuple

import numpy as np

from .linalg import LinAlgError, propagate_chunks
from .model import BathModel, InitialState, SystemHamiltonian, _make_validated, renormalization
from .pseudomode import block_stack


#: Largest accepted squared system norm; the slack absorbs rounding in the
#: propagator and in the norm.
_MAX_NORM2 = (1.0 + 1e-9) ** 2


class Trajectory(namedtuple("Trajectory", "times n k vectors")):
    """Extended states along a grid: row k of ``vectors`` is the
    (K+1)N-vector at ``times[k]``, system amplitudes first, then
    pseudomode j (1-based) in columns j*N .. (j+1)*N - 1.  The rows of a
    stack of points share the grid: ``vectors`` is then (P, T, (K+1)N)."""

    __slots__ = ()
    _make = classmethod(_make_validated)

    def __new__(cls, times: np.ndarray, n: int, k: int, vectors: np.ndarray):
        expected = (len(times), (k + 1) * n)
        if vectors.shape[-2:] != expected:
            raise ValueError(f"state array shape {vectors.shape} != {expected}")
        return super().__new__(cls, times, n, k, vectors)

    @property
    def states(self) -> np.ndarray:
        """(..., T, N) view of the system amplitudes along the grid."""
        return self.vectors[..., : self.n]


def evolve_group(models, t_max, points):
    """Propagate a group of points that share N, K and the grid
    ``numpy.linspace(0, t_max, points)`` as one stacked system; ``models``
    holds one (h, bath, init) triple per point.  Yields one ``Trajectory``
    per piece of at most ``linalg.CHUNK_ROWS`` consecutive rows, its
    ``vectors`` (P, rows, (K+1)N), the points in order.  The first ``next``
    raises LinAlgError if the grid is empty or not strictly increasing.

    The points' Hamiltonians are diagonalized as one (P, N, N) stack, their
    N blocks go through one ``linalg.propagate_chunks`` call as one
    (P*N, K+1, K+1) stack, and the rows are rotated back by each point's
    eigenvectors in one ``einsum``; the stacks save calls, not work per
    block (see ``linalg``).  Each point goes through the same operations as
    alone, so its rows are bit for bit those of its own run.
    """
    n, k = models[0][0].n, models[0][1].k
    times = np.linspace(0.0, t_max, points)
    if times.size == 0 or not np.all(times[1:] > times[:-1]):  # NaN fails too
        raise LinAlgError("time grid must be strictly increasing and start at 0")
    step = t_max / (points - 1) if points > 1 else 0.0
    count = len(models)
    matrices, psi = np.empty((count, n, n), dtype=complex), np.empty((count, n), dtype=complex)
    for p, (h, bath, init) in enumerate(models):
        if init.n != h.n:
            raise ValueError(f"initial state dim {init.n} != system dim {h.n}")
        if (h.n, bath.k) != (n, k):
            raise ValueError(f"point with N={h.n}, K={bath.k} in a group with N={n}, K={k}")
        matrices[p], psi[p] = h.matrix, renormalization(bath.eta) * init.psi
    e, w = np.linalg.eigh(matrices)
    blocks = np.concatenate([block_stack(e[p], bath) for p, (_, bath, _) in enumerate(models)])
    z0 = np.zeros((count, n, k + 1), dtype=complex)
    z0[..., 0] = (w.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]
    lo = 0
    for z in propagate_chunks(blocks, z0.reshape(count * n, k + 1), step, points):
        rows = z.shape[1]
        ys = np.empty((count, rows, k + 1, n), dtype=complex)
        # [p, t, j, b] = sum_a W_p[b, a] z_p[a, t, j] is column j*N + b of
        # point p's row t.  einsum, not a BLAS gemm: the skinny (T(K+1), N) x
        # (N, N) gemm ran ~25x slower with OpenBLAS threads on than pinned to
        # one (2-core x86, OpenBLAS 0.3.31).
        np.einsum("patj,pba->ptjb", z.reshape(count, n, rows, k + 1), w, out=ys)
        if lo == 0:
            ys[:, 0, 0] = psi
        vectors = ys.reshape(count, rows, (k + 1) * n)
        yield Trajectory(times=times[lo : lo + rows], n=n, k=k, vectors=vectors)
        lo += rows


def evolve(h: SystemHamiltonian, bath: BathModel, init: InitialState, t_max, points) -> Trajectory:
    """Propagate the extended Schroedinger equation of the pseudomode
    generator of H and the bath exactly from psi(0) + zero pseudomodes on the
    grid ``numpy.linspace(0, t_max, points)``: the pieces of ``evolve_group``
    for a group of one, joined.  Raises LinAlgError if that grid is empty or
    not strictly increasing.

    With H = W diag(E) W^dagger the generator splits into the N blocks of
    ``pseudomode.block_stack``; block alpha starts at c_alpha e_0, c = W^dagger
    psi(0), runs through ``linalg.propagate_chunks`` with the step
    t_max / (points - 1) and each piece is rotated back by W.  With an Ohmic
    bath the system part of the initial vector is scaled by 1/(1 + i*eta/2),
    matching the cutoff-removal limit that the direct solver
    (``volterra.solve_integro_differential``) also starts from.
    """
    pieces = evolve_group([(h, bath, init)], t_max, points)
    vectors = np.concatenate([piece.vectors[0] for piece in pieces])
    return Trajectory(times=np.linspace(0.0, t_max, points), n=h.n, k=bath.k, vectors=vectors)


def observables(traj: Trajectory, psi0) -> tuple[np.ndarray, np.ndarray]:
    """Excited populations (..., T) and reduced density matrices
    (..., T, N+1, N+1) of a trajectory or a stack of points, given the ground
    amplitude ``psi0`` of the initial state: one number, or one per point of
    a stack of P points, shape (P, 1).

    With psi the system amplitudes at one time: rho[0, 0] = 1 - ||psi||^2,
    rho[0, i] = psi0 * conj(psi_i), rho[i, j] = psi_i * conj(psi_j).  Every
    row is computed on its own, so each point of a stack has the bits it has
    alone.  Raises LinAlgError naming the first row, point by point, whose
    system norm exceeds 1 or is not finite: propagation failure or a model
    that is not dilatable.
    """
    psi = traj.states
    excited = np.vecdot(psi, psi).real
    bad = np.flatnonzero(~(excited <= _MAX_NORM2))  # NaN fails too
    if bad.size:
        t, norm2 = float(traj.times[bad[0] % len(traj.times)]), excited.flat[bad[0]]
        if not np.isfinite(norm2):
            raise LinAlgError(f"system state at t={t} is not finite: propagation failed")
        raise LinAlgError(
            f"system norm {np.sqrt(norm2):.12f} at t={t} exceeds 1: "
            "propagation failed or the model is not dilatable"
        )
    psi_conj = psi.conj()
    rho = np.empty((*excited.shape, traj.n + 1, traj.n + 1), dtype=complex)
    rho[..., 0, 0] = 1.0 - excited
    np.multiply(np.asarray(psi0)[..., np.newaxis], psi_conj, out=rho[..., 0, 1:])
    rho[..., 1:, 0] = rho[..., 0, 1:].conj()
    np.multiply(psi[..., :, np.newaxis], psi_conj[..., np.newaxis, :], out=rho[..., 1:, 1:])
    return excited, rho


__all__ = [
    "Trajectory",
    "evolve",
    "evolve_group",
    "observables",
]
