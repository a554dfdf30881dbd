"""Exact non-Markovian reduced dynamics of N-level systems coupled to
structured reservoirs.

The bath is a positive combination of Lorentz peaks plus an optional Ohmic
term.  Each peak becomes a pseudomode, turning the memory equation into a
finite-dimensional Schroedinger equation with a non-Hermitian generator;
the optical potential of that generator certifies whether the dynamics
dilates to a Markovian (GKSL) semigroup.  Independent integro-differential
solvers cross-validate every pseudomode trajectory.
"""

from .dynamics import (
    NormExceededError,
    Trajectory,
    evolve,
    evolve_chunks,
    observables,
)
from .linalg import (
    DimensionMismatchError,
    LinAlgError,
    NotHermitianError,
    hermitian_eigenvalues,
)
from .model import (
    BathModel,
    InitialState,
    LorentzPeak,
    ModelError,
    OhmicWithoutCutoffError,
    SystemHamiltonian,
    correlation,
    correlation_by_quadrature,
    counterterm_shift,
    spectral_density,
)
from .pseudomode import (
    DilationReport,
    block_decompose,
    build_effective_hamiltonian,
    check_dilation_closed_form,
    check_dilation_spectral,
    dilation_threshold,
    optical_potential,
)
from .volterra import (
    GridMismatchError,
    OracleTrajectory,
    StepTooCoarseError,
    compare_trajectories,
    deviation_norms,
    solve_cutoff_family,
    solve_integro_differential,
    solve_renormalized,
)

__version__ = "0.1.0"
