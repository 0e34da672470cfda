"""Lie-algebraic machinery and solvers for the real-form affine Toda equations."""

from .chevalley import (
    ChevalleyAlgebra,
    CoxeterElement,
    PrincipalSL2,
    build_chevalley,
    build_principal_sl2,
    coxeter_element,
    is_cyclic_g1,
    lambda_hat,
    normalize_cyclic,
    rho_hat,
    verify_structure,
)
from .connection import (
    ConnectionData,
    build_toda_connection,
    chart_transition,
    curvature,
    gauge_transform,
)
from .grids import DomainGrid, HFieldGrid, QDifferential
from .restriction import RestrictedSystem, classify_affine, restrict, restricted_toda_residual
from .rootdata import (
    AffineCartanData,
    DiagramAutomorphism,
    LieType,
    RootSystem,
    affine_cartan,
    build_root_system,
    coxeter_number,
    diagram_automorphism,
    exponents,
)
from .todasolver import (
    InitSpec,
    Solution,
    SolverConfig,
    constant_solution,
    sigma_symmetry_defect,
    solve,
    uniqueness_probe,
)

__version__ = "0.1.0"
