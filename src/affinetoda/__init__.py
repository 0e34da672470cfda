"""Lie-algebraic machinery and solvers for the real-form affine Toda equations.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so the exact layer
(``rootdata``, ``restriction``) can be used without loading numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chevalley": (
        "ChevalleyAlgebra", "CoxeterElement", "PrincipalSL2", "build_chevalley",
        "build_principal_sl2", "coxeter_element", "verify_structure",
    ),
    "connection": (),
    "grids": ("DomainGrid", "HFieldGrid", "QDifferential"),
    "restriction": ("RestrictedSystem", "classify_affine", "restrict"),
    "rootdata": (
        "AffineCartanData", "DiagramAutomorphism", "LieType", "RootSystem", "affine_cartan",
        "build_root_system", "coxeter_number", "diagram_automorphism", "exponents",
    ),
    "todasolver": (
        "InitSpec", "Solution", "SolverConfig", "constant_solution", "sigma_symmetry_defect",
        "solve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, e.g. affinetoda.grids
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
