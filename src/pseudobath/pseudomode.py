"""Non-Hermitian effective Hamiltonian construction and Markovian-dilation
certification.

Each Lorentz peak of the bath becomes a pseudomode: an auxiliary copy of the
N-dimensional excited subspace carrying that peak's exponential memory.  The
resulting (K+1)N-dimensional Schroedinger equation is local in time.  The
anti-Hermitian part of its generator (the optical potential) certifies
whether the reduced dynamics embeds into a GKSL semigroup on the enlarged
space: the dilation exists iff the optical potential is non-negative
definite.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues
from .model import BathModel, SystemHamiltonian


class EmptyBathError(Exception):
    """No peaks and no Ohmic term: the system is closed, integrate H_S directly."""


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
class EffectiveBlock:
    """(K+1) x (K+1) block of the effective Hamiltonian in the global basis,
    one per eigenvalue E_alpha of the system Hamiltonian."""

    alpha: int
    e_alpha: float
    matrix: np.ndarray


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


def build_effective_hamiltonian(h: SystemHamiltonian, bath: BathModel) -> EffectiveHamiltonian:
    """Assemble the pseudomode generator for the given system and bath.

    For eta > 0 the input Hamiltonian is interpreted as the renormalized
    H_S^(r) and the top block row is scaled by 1/(1 + i*eta/2).
    """
    if bath.is_empty:
        raise EmptyBathError("bath has no peaks and no Ohmic part")
    n, k = h.n, bath.k
    f = _scale_factor(bath.eta)
    dim = (k + 1) * n
    m = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(n)
    m[:n, :n] = f * h.matrix
    for j, p in enumerate(bath.peaks, start=1):
        lo = j * n
        m[:n, lo : lo + n] = f * p.g * eye
        m[lo : lo + n, :n] = p.g * eye
        m[lo : lo + n, lo : lo + n] = (p.epsilon - 0.5j * p.gamma) * eye
    return EffectiveHamiltonian(n=n, k=k, eta=bath.eta, matrix=m)


def optical_potential(heff: EffectiveHamiltonian) -> OpticalPotential:
    v = 0.5j * (heff.matrix - heff.matrix.conj().T)
    return OpticalPotential(matrix=v)


def block_decompose(h: SystemHamiltonian, bath: BathModel) -> list[EffectiveBlock]:
    """Decompose the effective Hamiltonian into (K+1) x (K+1) blocks, one per
    eigenvalue of the system Hamiltonian (with multiplicity).

    The blocks arise from rotating every N-dimensional subspace into the
    eigenbasis of H; their spectra jointly reproduce the spectrum of the full
    effective Hamiltonian.
    """
    f = _scale_factor(bath.eta)
    g = np.array([p.g for p in bath.peaks])
    diag = np.array([p.epsilon - 0.5j * p.gamma for p in bath.peaks])
    blocks = []
    for alpha, e_alpha in enumerate(hermitian_eigenvalues(h.matrix)):
        m = np.zeros((bath.k + 1, bath.k + 1), dtype=complex)
        m[0, 0] = f * e_alpha
        m[0, 1:] = f * g
        m[1:, 0] = g
        m[1:, 1:] = np.diag(diag)
        blocks.append(EffectiveBlock(alpha=alpha, e_alpha=float(e_alpha), matrix=m))
    return blocks


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
    branch short-circuits accordingly.
    """
    threshold = dilation_threshold(bath)
    min_eig_h = float(hermitian_eigenvalues(h_r.matrix)[0])
    if bath.eta == 0.0:
        closed_form_pass = True
    else:
        closed_form_pass = min_eig_h >= threshold

    if bath.is_empty:
        # Closed system: nothing to dilate, the optical potential is zero.
        return DilationReport(
            spectral_pass=True,
            min_eigenvalue_v=0.0,
            closed_form_pass=True,
            threshold=0.0,
            min_eigenvalue_h=min_eig_h,
            psd_tolerance=1e-10,
            per_block=(),
        )

    heff = build_effective_hamiltonian(h_r, bath)
    v = optical_potential(heff)
    spectral_pass, min_eig_v = check_dilation_spectral(v)

    per_block = []
    for block in block_decompose(h_r, bath):
        bv = 0.5j * (block.matrix - block.matrix.conj().T)
        bmin = float(hermitian_eigenvalues(bv)[0])
        per_block.append(
            BlockResult(
                alpha=block.alpha,
                e_alpha=block.e_alpha,
                min_eigenvalue=bmin,
                passed=bmin >= -v.psd_tolerance,
            )
        )

    return DilationReport(
        spectral_pass=spectral_pass,
        min_eigenvalue_v=min_eig_v,
        closed_form_pass=closed_form_pass,
        threshold=threshold,
        min_eigenvalue_h=min_eig_h,
        psd_tolerance=v.psd_tolerance,
        per_block=tuple(per_block),
    )


__all__ = [
    "BlockResult",
    "DilationReport",
    "EffectiveBlock",
    "EffectiveHamiltonian",
    "EmptyBathError",
    "OpticalPotential",
    "block_decompose",
    "build_effective_hamiltonian",
    "check_dilation_closed_form",
    "check_dilation_spectral",
    "dilation_threshold",
    "optical_potential",
]
