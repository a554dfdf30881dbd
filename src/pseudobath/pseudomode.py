"""Non-Hermitian effective Hamiltonian construction and Markovian-dilation
certification.

Each Lorentz peak of the bath becomes a pseudomode: an auxiliary copy of the
N-dimensional excited subspace carrying that peak's exponential memory.  The
resulting (K+1)N-dimensional Schroedinger equation is local in time.  The
anti-Hermitian part of its generator (the optical potential) certifies
whether the reduced dynamics embeds into a GKSL semigroup on the enlarged
space: the dilation exists iff the optical potential is non-negative
definite.  The generator is one (K+1) x (K+1) bath block tensored with the
N x N identity, f*H_S in its system corner; in the eigenbasis of H_S it
splits into N such blocks with f*E_alpha in the corner.  An empty bath
(K = 0, eta = 0) is the closed system: the generator is H_S itself.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues
from .model import BathModel, SystemHamiltonian


def _scale_factor(eta: float) -> complex:
    """The 1/(1 + i*eta/2) renormalization prefactor."""
    return 1.0 / (1.0 + 0.5j * eta)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """(K+1)N x (K+1)N non-Hermitian generator of the extended dynamics.

    Block layout (blocks of size N): index 0 is the system, index j >= 1 is
    pseudomode j.  The top row carries the 1/(1 + i*eta/2) factor when the
    bath has an Ohmic part; the left column does not.
    """

    n: int
    k: int
    eta: float
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return (self.k + 1) * self.n


@dataclass(frozen=True)
class OpticalPotential:
    """Hermitian matrix V = (i/2)(H_eff - H_eff^dagger); V >= 0 certifies
    the Markovian dilation."""

    matrix: np.ndarray

    @property
    def psd_tolerance(self) -> float:
        """Eigenvalues above -psd_tolerance count as non-negative."""
        return 1e-10 * (1.0 + float(np.linalg.norm(self.matrix)))


@dataclass(frozen=True)
class BlockResult:
    alpha: int
    e_alpha: float
    min_eigenvalue: float
    passed: bool


@dataclass(frozen=True)
class DilationReport:
    """Outcome of both dilation checks.

    ``threshold`` is (eta/4) * sum g_j^2/gamma_j; the closed-form criterion
    compares the smallest eigenvalue of the (renormalized) system Hamiltonian
    against it.  The spectral criterion diagonalizes the optical potential
    directly.
    """

    spectral_pass: bool
    min_eigenvalue_v: float
    closed_form_pass: bool
    threshold: float
    min_eigenvalue_h: float
    psd_tolerance: float
    per_block: tuple[BlockResult, ...]


def _bath_block(bath: BathModel) -> np.ndarray:
    """(K+1) x (K+1) coupling pattern shared by the generator and its blocks:
    A[0, 0] = 0, A[0, j] = f*g_j, A[j, 0] = g_j, A[j, j] = eps_j - i*gamma_j/2."""
    g = np.array([p.g for p in bath.peaks])
    a = np.zeros((bath.k + 1, bath.k + 1), dtype=complex)
    a[0, 1:] = _scale_factor(bath.eta) * g
    a[1:, 0] = g
    a[1:, 1:] = np.diag([p.epsilon - 0.5j * p.gamma for p in bath.peaks])
    return a


def _blocks(e: np.ndarray, bath: BathModel) -> np.ndarray:
    """(N, K+1, K+1) stack: the bath block with f*E_alpha in corner alpha."""
    blocks = np.repeat(_bath_block(bath)[np.newaxis], e.shape[0], axis=0)
    blocks[:, 0, 0] = _scale_factor(bath.eta) * e
    return blocks


def _optical(m: np.ndarray) -> np.ndarray:
    """(i/2)(M - M^dagger) of a matrix or of each matrix in a (..., d, d) stack."""
    return 0.5j * (m - m.conj().swapaxes(-1, -2))


def build_effective_hamiltonian(h: SystemHamiltonian, bath: BathModel) -> EffectiveHamiltonian:
    """Assemble the pseudomode generator for the given system and bath: the
    bath block tensored with the N x N identity, with f*H in the system
    corner.

    For eta > 0 the input Hamiltonian is interpreted as the renormalized
    H_S^(r) and the top block row is scaled by f = 1/(1 + i*eta/2).  An
    empty bath gives the N x N generator H.
    """
    m = np.kron(_bath_block(bath), np.eye(h.n))
    m[: h.n, : h.n] = _scale_factor(bath.eta) * h.matrix
    return EffectiveHamiltonian(n=h.n, k=bath.k, eta=bath.eta, matrix=m)


def optical_potential(heff: EffectiveHamiltonian) -> OpticalPotential:
    return OpticalPotential(matrix=_optical(heff.matrix))


def block_decompose(h: SystemHamiltonian, bath: BathModel) -> np.ndarray:
    """Decompose the effective Hamiltonian into an (N, K+1, K+1) array of
    blocks, one per eigenvalue E_alpha of the system Hamiltonian (ascending,
    with multiplicity).

    Rotating every N-dimensional subspace into the eigenbasis of H leaves
    block alpha equal to the bath block with f*E_alpha in its corner; the
    block spectra jointly reproduce the spectrum of the full generator.
    """
    return _blocks(hermitian_eigenvalues(h.matrix), bath)


def check_dilation_spectral(v: OpticalPotential) -> tuple[bool, float]:
    """Smallest eigenvalue of the optical potential, with the PSD verdict."""
    min_eig = float(hermitian_eigenvalues(v.matrix)[0])
    return min_eig >= -v.psd_tolerance, min_eig


def dilation_threshold(bath: BathModel) -> float:
    """(eta/4) * sum g_j^2 / gamma_j."""
    return 0.25 * bath.eta * sum(p.g**2 / p.gamma for p in bath.peaks)


def check_dilation_closed_form(h_r: SystemHamiltonian, bath: BathModel) -> DilationReport:
    """Certify dilatability both ways: closed-form eigenvalue threshold and
    direct diagonalization of the optical potential.

    With eta = 0 the system block of the optical potential vanishes, so the
    dilation always exists regardless of the sign of H; the closed-form
    branch short-circuits accordingly.  The block optical potentials are
    diagonalized as one stack.  An empty bath has a zero optical potential
    and N trivial 1 x 1 blocks.
    """
    threshold = dilation_threshold(bath)
    e = hermitian_eigenvalues(h_r.matrix)
    min_eig_h = float(e[0])
    closed_form_pass = bath.eta == 0.0 or min_eig_h >= threshold

    v = optical_potential(build_effective_hamiltonian(h_r, bath))
    spectral_pass, min_eig_v = check_dilation_spectral(v)
    block_min = hermitian_eigenvalues(_optical(_blocks(e, bath)))[:, 0]
    per_block = tuple(
        BlockResult(alpha, e_alpha, bmin, bmin >= -v.psd_tolerance)
        for alpha, (e_alpha, bmin) in enumerate(zip(e.tolist(), block_min.tolist()))
    )

    return DilationReport(
        spectral_pass=spectral_pass,
        min_eigenvalue_v=min_eig_v,
        closed_form_pass=closed_form_pass,
        threshold=threshold,
        min_eigenvalue_h=min_eig_h,
        psd_tolerance=v.psd_tolerance,
        per_block=per_block,
    )


__all__ = [
    "BlockResult",
    "DilationReport",
    "EffectiveHamiltonian",
    "OpticalPotential",
    "block_decompose",
    "build_effective_hamiltonian",
    "check_dilation_closed_form",
    "check_dilation_spectral",
    "dilation_threshold",
    "optical_potential",
]
