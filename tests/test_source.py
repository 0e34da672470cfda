"""Source-level rules for the package."""
import ast
import pathlib

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


def test_solver_imports_neither_algebra_nor_connection():
    """The solver reads only its per-type ``_TodaData``; it never needs the
    Chevalley algebra, the principal sl2 or the connection layer."""
    found = []
    for node in ast.walk(ast.parse((SRC / "todasolver.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.rsplit(".", 1)[-1] in ("chevalley", "connection") for name in names):
            found.append(f"todasolver.py:{node.lineno}")
    assert found == []


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
