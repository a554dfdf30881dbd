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
splits into N such blocks with f*E_alpha in the corner (``block_stack``).
``check_dilation_closed_form``, the one certifier of every command, returns
the certificate as the JSON object that ``check`` and ``simulate`` write.
The generator, V and the block stack are plain complex arrays.  An empty
bath (K = 0, eta = 0) is the closed system: the generator is H_S.
"""

import numpy as np

from .linalg import hermitian_eigenvalues
from .model import BathModel, ModelError, SystemHamiltonian, renormalization


def _bath_block(bath: BathModel) -> np.ndarray:
    """(K+1) x (K+1) coupling pattern shared by the generator and its blocks:
    A[0, 0] = 0, A[0, j] = f*g_j, A[j, 0] = g_j, A[j, j] = eps_j - i*gamma_j/2."""
    g = np.array([p.g for p in bath.peaks])
    a = np.zeros((bath.k + 1, bath.k + 1), dtype=complex)
    a[0, 1:] = renormalization(bath.eta) * g
    a[1:, 0] = g
    a[1:, 1:] = np.diag([p.epsilon - 0.5j * p.gamma for p in bath.peaks])
    return a


def block_stack(e: np.ndarray, bath: BathModel) -> np.ndarray:
    """(N, K+1, K+1) stack of the generator's blocks in the eigenbasis of H,
    one per eigenvalue E_alpha in ``e``: the bath block with f*E_alpha in its
    corner.  Their spectra jointly reproduce the spectrum of the generator."""
    blocks = np.repeat(_bath_block(bath)[np.newaxis], e.shape[0], axis=0)
    blocks[:, 0, 0] = renormalization(bath.eta) * e
    return blocks


def build_effective_hamiltonian(h: SystemHamiltonian, bath: BathModel) -> np.ndarray:
    """Assemble the (K+1)N x (K+1)N pseudomode generator for the given system
    and bath: the bath block tensored with the N x N identity, with f*H in
    the system corner.  Block layout (blocks of size N): index 0 is the
    system, index j >= 1 is pseudomode j.

    For eta > 0 the input Hamiltonian is interpreted as the renormalized
    H_S^(r) and the top block row is scaled by f = 1/(1 + i*eta/2).  An
    empty bath gives the N x N generator H.
    """
    m = np.kron(_bath_block(bath), np.eye(h.n))
    m[: h.n, : h.n] = renormalization(bath.eta) * h.matrix
    return m


def optical_potential(heff: np.ndarray) -> np.ndarray:
    """Hermitian V = (i/2)(H_eff - H_eff^dagger) of a generator or of each
    generator in a (..., d, d) stack; V >= 0 certifies the Markovian
    dilation."""
    return 0.5j * (heff - heff.conj().swapaxes(-1, -2))


def _psd_tolerance(v: np.ndarray) -> float:
    """Eigenvalues of V above -_psd_tolerance(v) count as non-negative.
    Raises ModelError if the Frobenius norm of V overflows, which would make
    the tolerance infinite and every check pass."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not np.isfinite(norm):
        raise ModelError(f"optical potential is too large to certify (norm {norm})")
    return 1e-10 * (1.0 + norm)


def dilation_threshold(bath: BathModel) -> float:
    """(eta/4) * sum g_j^2 / gamma_j; zero, with eta's sign, at eta = 0."""
    if bath.eta == 0.0:
        return 0.25 * bath.eta
    return 0.25 * bath.eta * sum(p.g**2 / p.gamma for p in bath.peaks)


def check_dilation_closed_form(h_r: SystemHamiltonian, bath: BathModel) -> dict:
    """Certify dilatability both ways: closed-form eigenvalue threshold and
    direct diagonalization of the optical potential.  Returns the ``dilation``
    object of ``dilation.json`` and ``report.json``.

    ``threshold`` is (eta/4) * sum g_j^2/gamma_j; the closed-form criterion
    compares the smallest eigenvalue of the (renormalized) system Hamiltonian
    against it.  With eta = 0 the system block of the optical potential
    vanishes, so the dilation always exists regardless of the sign of H; the
    closed-form branch short-circuits accordingly.  The spectral criterion
    diagonalizes the optical potential directly, and its block optical
    potentials as one stack, one ``per_block`` entry per eigenvalue E_alpha
    of H.  Every verdict uses one tolerance.  An empty bath has a zero
    optical potential and N trivial 1 x 1 blocks.
    """
    threshold = dilation_threshold(bath)
    if not np.isfinite(threshold):
        raise ModelError(f"dilation threshold (eta/4) * sum g_j^2/gamma_j overflows ({threshold})")
    e = hermitian_eigenvalues(h_r.matrix)
    min_eig_h = float(e[0])
    closed_form_pass = bath.eta == 0.0 or min_eig_h >= threshold

    v = optical_potential(build_effective_hamiltonian(h_r, bath))
    # the norm of V is taken once, for every verdict
    min_eig_v = float(hermitian_eigenvalues(v)[0])
    psd_tolerance = _psd_tolerance(v)
    block_min = hermitian_eigenvalues(optical_potential(block_stack(e, bath)))[:, 0]
    return {
        "spectral_pass": min_eig_v >= -psd_tolerance,
        "min_eigenvalue_V": min_eig_v,
        "closed_form_pass": closed_form_pass,
        "threshold": threshold,
        "min_eigenvalue_H": min_eig_h,
        "psd_tolerance": psd_tolerance,
        "per_block": [
            {"alpha": alpha, "E_alpha": e_alpha, "min_eigenvalue": bmin,
             "passed": bmin >= -psd_tolerance}
            for alpha, (e_alpha, bmin) in enumerate(zip(e.tolist(), block_min.tolist()))
        ],
    }


__all__ = [
    "block_stack",
    "build_effective_hamiltonian",
    "check_dilation_closed_form",
    "dilation_threshold",
    "optical_potential",
]
