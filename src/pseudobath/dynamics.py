"""Time evolution of the extended state and reduced-density-matrix
reconstruction.

The extended state stacks the system amplitudes with one pseudomode copy per
Lorentz peak; a trajectory keeps those states as one (T, (K+1)N) array.  The
generator is fixed, so the states are matrix exponentials applied to psi(0),
taken block by block in the eigenbasis of H; the dense (K+1)N generator is
never formed.  A closed system (empty bath) is the K = 0 case of the same
propagation.
Tracing out the reservoirs maps the system part straight onto an
(N+1) x (N+1) density matrix: the ground population is the missing norm.
``observables`` builds those matrices for a whole trajectory at once.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import propagate_blocks
from .model import BathModel, InitialState, SystemHamiltonian
from .pseudomode import _blocks, _scale_factor


class NormExceededError(Exception):
    """System norm grew beyond 1: propagation failure or non-dilatable model."""


#: Largest accepted squared system norm; the slack absorbs rounding in the
#: propagator and in the norm.
_MAX_NORM2 = (1.0 + 1e-9) ** 2


@dataclass(frozen=True)
class Trajectory:
    """Extended states along a grid: row k of ``vectors`` is the
    (K+1)N-vector at ``times[k]``, system amplitudes first, then
    pseudomode j (1-based) in columns j*N .. (j+1)*N - 1."""

    times: np.ndarray
    n: int
    k: int
    vectors: np.ndarray

    def __post_init__(self):
        expected = (len(self.times), (self.k + 1) * self.n)
        if self.vectors.shape != expected:
            raise ValueError(f"state array shape {self.vectors.shape} != {expected}")

    @property
    def states(self) -> np.ndarray:
        """(T, N) view of the system amplitudes along the grid."""
        return self.vectors[:, : self.n]


def evolve(
    h: SystemHamiltonian, bath: BathModel, init: InitialState, times
) -> Trajectory:
    """Propagate the extended Schroedinger equation of the pseudomode
    generator of H and the bath exactly from psi(0) + zero pseudomodes on the
    1-D grid ``times``, which ``propagate_blocks`` checks (LinAlgError).

    With H = W diag(E) W^dagger the generator splits into the N blocks of
    ``pseudomode._blocks``; block alpha starts at c_alpha e_0, c = W^dagger
    psi(0), runs through ``linalg.propagate_blocks`` and is rotated back by W.
    With an Ohmic bath the system part of the initial vector is scaled by
    1/(1 + i*eta/2), matching the cutoff-removal limit that the direct
    solver (``volterra.solve_renormalized``) also starts from.
    """
    if init.n != h.n:
        raise ValueError(f"initial state dim {init.n} != system dim {h.n}")
    psi = _scale_factor(bath.eta) * init.psi
    e, w = np.linalg.eigh(h.matrix)
    z0 = np.zeros((h.n, bath.k + 1), dtype=complex)
    z0[:, 0] = w.conj().T @ psi
    times = np.asarray(times, dtype=float)
    z = propagate_blocks(_blocks(e, bath), z0, times)
    # [t, j, b] = sum_a W[b, a] z[a, t, j] is column j*N + b of row t.  einsum,
    # not a BLAS gemm: the skinny (T(K+1), N) x (N, N) gemm ran ~25x slower
    # with OpenBLAS threads on than pinned to one (2-core x86, OpenBLAS 0.3.31).
    ys = np.einsum("atj,ba->tjb", z, w).reshape(len(times), (bath.k + 1) * h.n)
    ys[0, : h.n] = psi
    return Trajectory(times=times, n=h.n, k=bath.k, vectors=ys)


def observables(traj: Trajectory, init: InitialState) -> tuple[np.ndarray, np.ndarray]:
    """Excited populations (T,) and reduced density matrices (T, N+1, N+1)
    along the grid.

    With psi the system amplitudes at one time: rho[0, 0] = 1 - ||psi||^2,
    rho[0, i] = psi0(0) * conj(psi_i), rho[i, j] = psi_i * conj(psi_j).  The
    ground population is ``1 - excited``.  Raises NormExceededError naming
    the first point whose system norm exceeds 1.
    """
    psi = traj.states
    excited = np.vecdot(psi, psi).real
    over = np.flatnonzero(excited > _MAX_NORM2)
    if over.size:
        t = float(traj.times[over[0]])
        raise NormExceededError(
            f"system norm {np.sqrt(excited[over[0]]):.12f} at t={t} exceeds 1: "
            "propagation failed or the model is not dilatable"
        )
    psi_conj = psi.conj()
    rho = np.empty((len(traj.times), traj.n + 1, traj.n + 1), dtype=complex)
    rho[:, 0, 0] = 1.0 - excited
    np.multiply(init.psi0, psi_conj, out=rho[:, 0, 1:])
    rho[:, 1:, 0] = rho[:, 0, 1:].conj()
    np.multiply(psi[:, :, np.newaxis], psi_conj[:, np.newaxis, :], out=rho[:, 1:, 1:])
    return excited, rho


__all__ = [
    "NormExceededError",
    "Trajectory",
    "evolve",
    "observables",
]
