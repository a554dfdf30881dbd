"""Time evolution of the extended state and reduced-density-matrix
reconstruction.

The extended state stacks the system amplitudes with one pseudomode copy per
Lorentz peak; a trajectory keeps those states as one (T, (K+1)N) array.
Tracing out the reservoirs maps the system part straight onto an
(N+1) x (N+1) density matrix: the ground population is the missing norm.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import integrate_linear_ode
from .model import InitialState, SystemHamiltonian, TimeGrid
from .pseudomode import EffectiveHamiltonian, _scale_factor


class NormExceededError(Exception):
    """System norm grew beyond 1: integrator failure or non-dilatable model."""


#: Largest accepted squared system norm; the slack absorbs integrator error.
_MAX_NORM2 = (1.0 + 1e-9) ** 2


@dataclass(frozen=True)
class ExtendedState:
    """System amplitudes plus K pseudomode copies, stacked as one vector."""

    n: int
    k: int
    vector: np.ndarray

    @property
    def system_part(self) -> np.ndarray:
        return self.vector[: self.n]

    def pseudomode(self, j: int) -> np.ndarray:
        """Amplitudes of pseudomode j (1-based, matching the bath peaks)."""
        if not 1 <= j <= self.k:
            raise IndexError(f"pseudomode index {j} out of range 1..{self.k}")
        return self.vector[j * self.n : (j + 1) * self.n]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class Trajectory:
    """Extended states along a grid: row k of ``vectors`` is the
    (K+1)N-vector at ``grid.points[k]``."""

    grid: TimeGrid
    n: int
    k: int
    vectors: np.ndarray

    def __post_init__(self):
        expected = (len(self.grid), (self.k + 1) * self.n)
        if self.vectors.shape != expected:
            raise ValueError(f"state array shape {self.vectors.shape} != {expected}")

    @property
    def states(self) -> tuple[ExtendedState, ...]:
        """Per-point ExtendedState views of the rows of ``vectors``."""
        return tuple(ExtendedState(n=self.n, k=self.k, vector=y) for y in self.vectors)

    def system_parts(self) -> np.ndarray:
        """(T, N) view of the system amplitudes along the grid."""
        return self.vectors[:, : self.n]


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """(N+1) x (N+1) Hermitian, trace-1, PSD density matrix; index 0 is the ground state."""

    matrix: np.ndarray

    HERMITICITY_TOL = 1e-10
    TRACE_TOL = 1e-10
    PSD_TOL = 1e-10


def evolve(
    heff: EffectiveHamiltonian,
    init: InitialState,
    grid: TimeGrid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    renormalize_init: bool = True,
) -> Trajectory:
    """Integrate the extended Schroedinger equation from psi(0) + zero
    pseudomodes.

    With an Ohmic bath the system part of the initial vector is scaled by
    1/(1 + i*eta/2), matching the cutoff-removal limit; pass
    ``renormalize_init=False`` to start from the bare psi(0) instead.
    """
    if init.n != heff.n:
        raise ValueError(f"initial state dim {init.n} != system dim {heff.n}")
    y0 = np.zeros(heff.dim, dtype=complex)
    y0[: heff.n] = init.psi
    if heff.eta > 0.0 and renormalize_init:
        y0[: heff.n] *= _scale_factor(heff.eta)
    ys = integrate_linear_ode(heff.matrix, y0, grid.points, rtol=rtol, atol=atol)
    return Trajectory(grid=grid, n=heff.n, k=heff.k, vectors=ys)


def evolve_closed(
    h: SystemHamiltonian,
    init: InitialState,
    grid: TimeGrid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Unitary evolution of the bare system (empty bath): ``evolve`` with no
    pseudomodes."""
    bare = EffectiveHamiltonian(n=h.n, k=0, eta=0.0, matrix=h.matrix)
    return evolve(bare, init, grid, rtol=rtol, atol=atol)


def _density_matrices(psi: np.ndarray, psi0: complex) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (T,) and density matrices (T, N+1, N+1) of the rows of
    a (T, N) array of system amplitudes.

    Layout: rho[0, 0] = 1 - ||psi||^2, rho[0, i] = psi0(0) * conj(psi_i),
    rho[i, j] = psi_i * conj(psi_j).
    """
    norm2 = np.vecdot(psi, psi).real
    n = psi.shape[1]
    psi_conj = psi.conj()
    rho = np.empty((psi.shape[0], n + 1, n + 1), dtype=complex)
    rho[:, 0, 0] = 1.0 - norm2
    np.multiply(psi0, psi_conj, out=rho[:, 0, 1:])
    rho[:, 1:, 0] = rho[:, 0, 1:].conj()
    np.multiply(psi[:, :, np.newaxis], psi_conj[:, np.newaxis, :], out=rho[:, 1:, 1:])
    return norm2, rho


def reduced_density(state: ExtendedState, init: InitialState) -> ReducedDensityMatrix:
    """Reduced density matrix of one extended state (see ``_density_matrices``)."""
    norm2, rho = _density_matrices(state.system_part[np.newaxis, :], init.psi0)
    if norm2[0] > _MAX_NORM2:
        raise NormExceededError(
            f"system norm {np.sqrt(norm2[0]):.12f} exceeds 1: integration failed "
            "or the model is not dilatable"
        )
    return ReducedDensityMatrix(matrix=rho[0])


def observables(traj: Trajectory, init: InitialState) -> tuple[np.ndarray, np.ndarray]:
    """Excited populations (T,) and reduced density matrices (T, N+1, N+1)
    along the grid: ``reduced_density`` at every point at once.

    The ground population is ``1 - excited``.  Raises NormExceededError
    naming the first point whose system norm exceeds 1.
    """
    excited, rho = _density_matrices(traj.system_parts(), init.psi0)
    over = np.flatnonzero(excited > _MAX_NORM2)
    if over.size:
        t = float(traj.grid.points[over[0]])
        raise NormExceededError(
            f"system norm {np.sqrt(excited[over[0]]):.12f} at t={t} exceeds 1: "
            "integration failed or the model is not dilatable"
        )
    return excited, rho


__all__ = [
    "ExtendedState",
    "NormExceededError",
    "ReducedDensityMatrix",
    "Trajectory",
    "evolve",
    "evolve_closed",
    "observables",
    "reduced_density",
]
