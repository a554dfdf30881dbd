"""Exact non-Markovian reduced dynamics of N-level systems coupled to
structured reservoirs.

The bath is a positive combination of Lorentz peaks plus an optional Ohmic
term.  Each peak becomes a pseudomode, turning the memory equation into a
finite-dimensional Schroedinger equation with a non-Hermitian generator;
the optical potential of that generator certifies whether the dynamics
dilates to a Markovian (GKSL) semigroup.  Independent integro-differential
solvers cross-validate every pseudomode trajectory.

Every exported name is imported from its submodule on first access
(PEP 562), so ``import pseudobath.cli`` loads only the modules it runs.
"""

#: Each submodule with the names the package exports from it.
_EXPORTS = {
    "dynamics": "NormExceededError Trajectory evolve evolve_group observables",
    "linalg": "DimensionMismatchError LinAlgError NotHermitianError hermitian_eigenvalues",
    "model": (
        "BathModel InitialState LorentzPeak ModelError OhmicWithoutCutoffError "
        "SystemHamiltonian correlation counterterm_shift"
    ),
    "pseudomode": (
        "block_stack build_effective_hamiltonian check_dilation_closed_form "
        "dilation_threshold optical_potential"
    ),
    "volterra": (
        "GridMismatchError OracleTrajectory StepTooCoarseError deviation_norms "
        "solve_cutoff_family solve_integro_differential"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
