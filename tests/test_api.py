"""The public surface resolves: no export names something that is gone."""

import importlib
import pkgutil

import pytest

import pseudobath

MODULES = [info.name for info in pkgutil.iter_modules(pseudobath.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"pseudobath.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


#: The package's exports, each with the submodule that defines it.
EXPORTS = {
    "dynamics": ["Trajectory", "evolve", "evolve_group", "observables"],
    "linalg": ["LinAlgError", "hermitian_eigenvalues"],
    "model": ["BathModel", "InitialState", "LorentzPeak", "ModelError", "SystemHamiltonian",
              "correlation", "counterterm_shift"],
    "pseudomode": ["block_stack", "build_effective_hamiltonian",
                   "check_dilation_closed_form", "dilation_threshold",
                   "optical_potential"],
    "volterra": ["OracleTrajectory", "deviation_norms", "solve_cutoff_family",
                 "solve_integro_differential"],
}


def test_package_exports_resolve_on_first_access():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 22
    assert sorted(pseudobath.__all__) == names
    for module_name, exported in EXPORTS.items():
        module = importlib.import_module(f"pseudobath.{module_name}")
        for name in exported:
            assert name in module.__all__, f"{module_name}.{name}"
            assert getattr(pseudobath, name) is getattr(module, name)
    namespace = {}
    exec("from pseudobath import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names
    assert set(names) <= set(dir(pseudobath))
    with pytest.raises(AttributeError, match="has no attribute 'not_an_export'"):
        pseudobath.not_an_export  # noqa: B018
