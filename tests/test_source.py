"""Source-level rules for the package."""
import ast
import importlib
import pathlib

import pytest

import affinetoda

SRC = pathlib.Path(affinetoda.__file__).parent


def test_no_assert_statements():
    """Checks must survive python -O, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_imports():
    """No module imports ``dataclasses``, at module level or inside a
    function: it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, about
    12 ms of every fresh process, and each decorator costs more at import.
    The classes are plain classes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "dataclasses" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_solver_imports_neither_algebra_nor_connection():
    """The solver reads only its per-type ``_TodaData``; it never needs the
    Chevalley algebra, the principal sl2 or the connection layer.  The
    connection builds its slots and their bracket from root data, and never
    needs the Chevalley algebra either."""
    found = []
    for module, banned in (("todasolver", ("chevalley", "connection")), ("connection", ("chevalley",))):
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.rsplit(".", 1)[-1] in banned for name in names):
                found.append(f"{module}.py:{node.lineno}")
    assert found == []


def test_solver_imports_only_root_system_from_rootdata():
    """The Toda constants (marks, comarks, Coxeter number) reach the solver
    only through its ``_TodaData``, never from another ``rootdata`` function."""
    imported = []
    for node in ast.walk(ast.parse((SRC / "todasolver.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("rootdata"):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.name for a in node.names if a.name.rsplit(".", 1)[-1] == "rootdata"]
    assert imported == ["RootSystem"]


def test_only_solve_and_the_oracle_form_the_exponentials():
    """The Toda term is evaluated once per field: in the solver only
    ``solve`` (once per iterate) and ``constant_solution`` call
    ``exponentials``; the residual, the Jacobian, the Newton step and the
    preconditioner read the exponentials their caller formed."""
    callers = set()
    stack = [(node, None) for node in ast.parse((SRC / "todasolver.py").read_text()).body]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "exponentials":
                callers.add(func)
        stack += [(child, func) for child in ast.iter_child_nodes(node)]
    assert callers == {"solve", "constant_solution"}


def test_only_chevalley_reads_the_structure_table():
    """The table's format is known to ``chevalley`` alone: every other module,
    tests included, goes through ``bracket``, ``ad`` and ``killing``."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "chevalley.py"]
    tests = pathlib.Path(__file__)
    paths += [p for p in sorted(tests.parent.glob("*.py")) if p != tests]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_bk_"))
        or (isinstance(node, ast.Constant) and str(node.value).startswith("_bk_"))
    ]
    assert found == []


def test_no_scipy_imports():
    """The package needs numpy only: no module imports scipy, at module
    level or inside a function (the tests keep scipy as a reference)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_solver_calls_no_blas_reductions():
    """The solver's inner products are numpy sums: a BLAS dot or norm may
    split a long vector across threads, and the solve's bits would then
    depend on the thread count.  l x l linear algebra (``solve``,
    ``cholesky``, ``eigh``) is not a reduction over the field and stays."""
    banned = {"np.dot", "np.vdot", "np.inner", "np.linalg.norm"}
    found = [
        f"todasolver.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "todasolver.py").read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in banned
    ]
    assert found == []


def test_no_numpy_random():
    """No command draws from ``numpy.random``, whose import costs several MB
    of RSS: seeded draws come from the stdlib ``random`` (the tests may keep
    using ``numpy.random``)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
                if names == ["numpy"]:
                    names = [f"numpy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            if any(name.startswith(("numpy.random", "np.random")) for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Every public name the package exported while its __init__ imported all
# modules eagerly, by home module.
PUBLIC_NAMES = {
    "chevalley": (
        "ChevalleyAlgebra", "CoxeterElement", "PrincipalSL2", "build_chevalley",
        "build_principal_sl2", "coxeter_element", "is_cyclic_g1", "lambda_hat",
        "normalize_cyclic", "rho_hat", "verify_structure",
    ),
    "connection": (
        "ConnectionData", "build_toda_connection", "chart_transition", "curvature",
        "gauge_transform",
    ),
    "grids": ("DomainGrid", "HFieldGrid", "QDifferential"),
    "restriction": ("RestrictedSystem", "classify_affine", "restrict", "restricted_toda_residual"),
    "rootdata": (
        "AffineCartanData", "DiagramAutomorphism", "LieType", "RootSystem", "affine_cartan",
        "build_root_system", "coxeter_number", "diagram_automorphism", "exponents",
    ),
    "todasolver": (
        "InitSpec", "Solution", "SolverConfig", "constant_solution", "sigma_symmetry_defect",
        "solve", "uniqueness_probe",
    ),
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_lazy_package_keeps_every_public_name(module):
    home = importlib.import_module(f"affinetoda.{module}")
    assert getattr(affinetoda, module) is home
    for name in PUBLIC_NAMES[module]:
        assert getattr(affinetoda, name) is getattr(home, name), name
        assert name in affinetoda.__all__ and name in dir(affinetoda), name
    assert affinetoda.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        affinetoda.no_such_name


def _load_time_imports(path):
    """Modules imported when ``path`` is loaded, by name: the top-level
    package of an absolute import, the package module of a relative one.
    Imports inside functions and ``if TYPE_CHECKING:`` blocks do not run at
    load time and are skipped."""
    found = set()
    stack = [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        stack += ast.iter_child_nodes(node)
    return found


NUMERIC_MODULES = {"numpy", "chevalley", "connection", "grids", "restriction", "todasolver"}


def test_load_time_imports_reads_both_import_forms():
    assert {"numpy", "grids", "rootdata"} <= _load_time_imports(SRC / "connection.py")
    assert {"numpy", "grids", "rootdata"} <= _load_time_imports(SRC / "todasolver.py")


@pytest.mark.parametrize("module", ["rootdata", "restriction", "chevalley"])
def test_exact_layer_imports_no_numpy_at_load_time(module):
    """Root data, the folding and the Chevalley table, checks and sigma are
    exact integer and Fraction work; the float and field functions import
    numpy inside themselves."""
    assert "numpy" not in _load_time_imports(SRC / f"{module}.py")


def test_cli_imports_no_numeric_module_at_load_time():
    """Each command imports the numeric modules it uses, so lie info and lie
    restrict never load numpy."""
    found = _load_time_imports(SRC / "cli.py")
    assert "rootdata" in found
    assert found & NUMERIC_MODULES == set()
