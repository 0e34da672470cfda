"""Source-level rules for the package."""
import ast
import collections
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


def test_no_fft_output_arrays():
    """No FFT call passes ``out=``: numpy's FFTs take it from numpy 2.0 on,
    while the package allows numpy 1.24, and in numpy 2.4.6
    ``irfft2(..., axes=(0, 1), out=buf)`` neither fills nor returns ``buf``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "fft" in ast.unparse(node.func)
        and any(keyword.arg == "out" for keyword in node.keywords)
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


def test_only_solve_forms_the_exponentials():
    """The Toda term is evaluated once per field: in the solver only
    ``solve`` (once per iterate) calls ``exponentials``; the residual, the
    Jacobian, the Newton step and the preconditioner read the exponentials
    their caller formed, and ``constant_solution`` forms none."""
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
    assert callers == {"solve"}


def test_gram_rule_lives_in_rootdata():
    """Every generalized Cartan matrix comes from ``rootdata.gcm_of``: no
    other module pairs roots through ``dot`` or ``half_norm`` itself."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "rootdata.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("dot", "half_norm")
    ]
    assert found == []


def test_summary_is_one_block_pass():
    """``cli._summary`` takes its residual and curvature norms from the one
    block pass of ``connection.summary_norms``: it forms no exponentials,
    no whole-grid residual and no samples of q of its own."""
    tree = ast.parse((SRC / "cli.py").read_text())
    (summary,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_summary"]
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(summary)
        if isinstance(node, ast.Call)
    }
    assert called & {"exponentials", "residual", "sample"} == set()
    assert "summary_norms" in called


def _column_products(node):
    """The operands of ``node`` read as a chain of products."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _column_products(node.left) + _column_products(node.right)
    return [node]


def test_connection_has_one_slot_bracket():
    """Exactly one function of ``connection`` adds bracket terms into an
    output column, ``out[..., k] += x[i] * y[j] * c`` with the two columns
    read by subscript: the curvature and the commutator check share it."""
    found = set()
    stack = [(node, None) for node in ast.parse((SRC / "connection.py").read_text()).body]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Subscript)
            and sum(isinstance(f, ast.Subscript) for f in _column_products(node.value)) >= 2
        ):
            found.add(func)
        stack += [(child, func) for child in ast.iter_child_nodes(node)]
    assert found == {"_bracket"}


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


def _load_time_imports(path):
    """Modules imported when ``path`` is loaded, each with the line of its
    first import, by name: the top-level package of an absolute import, the
    package module of a relative one.  Imports inside functions and ``if
    TYPE_CHECKING:`` blocks do not run at load time and are skipped."""
    found = {}
    stack = [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {node.module.split(".")[0]}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module} if node.module else {alias.name for alias in node.names}
        else:
            names = set()
        for name in names:
            found[name] = min(found.get(name, node.lineno), node.lineno)
        stack += ast.iter_child_nodes(node)
    return found


NUMERIC_MODULES = {"numpy", "chevalley", "connection", "grids", "restriction", "todasolver"}


def test_load_time_imports_reads_both_import_forms():
    assert {"numpy", "grids", "rootdata"} <= _load_time_imports(SRC / "connection.py").keys()
    assert {"numpy", "grids", "rootdata"} <= _load_time_imports(SRC / "todasolver.py").keys()


def test_package_imports_come_before_numpy():
    """Without bytecode a module is compiled from source when it is first
    imported, and a compile once numpy is loaded lifts the peak RSS above
    numpy's by the compiler's transient (about 1 MiB).  So every module
    imports the package modules it loads at load time before numpy."""
    package = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        lines = _load_time_imports(path)
        numpy = lines.get("numpy", float("inf"))
        found += [f"{path.name}:{line}" for name, line in lines.items() if name in package and line > numpy]
    assert found == []


def _numpy_imports(path):
    """The function around each numpy import of ``path``, None at module
    level, wherever the import sits: inside a function, under
    ``if TYPE_CHECKING:`` or not."""
    found = []
    stack = [(ast.parse(path.read_text()), None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(func)
        stack += [(child, func) for child in ast.iter_child_nodes(node)]
    return found


# the only functions of the exact layer that may import numpy: the float
# bracket of coefficient arrays and the numpy view of the table it reads
NUMPY_FUNCTIONS = {
    "rootdata": set(),
    "restriction": set(),
    "chevalley": {"bracket", "_table"},
}


@pytest.mark.parametrize("module", ["rootdata", "restriction", "chevalley"])
def test_exact_layer_imports_no_numpy_at_load_time(module):
    """Root data, the folding and the Chevalley table, checks and sigma are
    exact integer and Fraction work.  ``rootdata`` and ``restriction``
    import numpy nowhere; ``chevalley`` imports it only inside the float
    bracket and its table view."""
    assert "numpy" not in _load_time_imports(SRC / f"{module}.py")
    assert set(_numpy_imports(SRC / f"{module}.py")) <= NUMPY_FUNCTIONS[module]


def test_cli_imports_no_numeric_module_at_load_time():
    """Each command imports the numeric modules it uses, so lie info and lie
    restrict never load numpy."""
    found = _load_time_imports(SRC / "cli.py")
    assert "rootdata" in found
    assert found.keys() & NUMERIC_MODULES == set()


def test_folding_builds_no_root_system():
    """The folding layer works on its input's root system alone: it names
    the folded type by rule and builds no other root system, so it needs
    neither a type parser nor a cache."""
    tree = ast.parse((SRC / "restriction.py").read_text())
    names = set(_references(tree))
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert names & {"build_root_system", "LieType", "lru_cache", "functools"} == set()


def _tracing_methods():
    """The methods ``bench/tracing.py`` wraps by name, read from its
    ``METHODS`` table, as {(module, class, method)}."""
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "METHODS"
    )
    return {
        (module, cls, name)
        for module, (cls, names) in ast.literal_eval(table).items()
        for name in names
    }


def _definitions(tree):
    """(class or None, node) for every module-level function and every
    method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub


def _references(node, attributes_only=False):
    """How often each name is read or written in ``node`` as an attribute
    (``x.name``) and, unless ``attributes_only``, as a bare name.  Strings
    are not references, so the export table of ``__init__`` is not one."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_definition_has_a_src_caller():
    """Every function, method and property of the package is referenced in
    the package outside its own body: code that only the tests call lives
    in the tests (``tests/oracles.py``).  A function is referenced by its
    name or an attribute of that name; a method or property only by an
    attribute (``x.name``), so a local function of the same name does not
    hide it.  Two methods of one name count as one.  Exempt, each for its
    reason:
    - dunder methods: Python calls them;
    - the methods in ``bench/tracing.py``'s ``METHODS``: the benchmark
      wraps them by name, and its per-layer metrics read their spans."""
    traced = _tracing_methods()
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = {
        method: sum((_references(tree, method) for tree in trees.values()), collections.Counter())
        for method in (False, True)
    }
    unused = []
    for module, tree in trees.items():
        for cls, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or (module, cls, name) in traced:
                continue
            method = cls is not None
            if everywhere[method][name] == _references(node, method)[name]:
                unused.append(f"{module}.{cls + '.' if cls else ''}{name}")
    assert unused == []


# instance attributes that no src/ module reads, each kept for its reason
UNREAD_ATTRIBUTES = {
    ("restriction", "RestrictedSystem", "restricted_roots"),
    ("restriction", "RestrictedSystem", "coroot_coords"),
    ("restriction", "RestrictedSystem", "weights"),
    ("todasolver", "Solution", "cg_iterations"),
}


def test_every_instance_attribute_is_read_in_src():
    """Every attribute a class of the package sets on ``self`` is read
    somewhere in the package, as ``x.name`` in any expression: a field only
    the tests read is a field the tests can compute for themselves.
    Exempt, each for its reason:
    - ``RestrictedSystem.restricted_roots``, ``coroot_coords`` and
      ``weights``: the data of the folded field equation, which the folded
      solve is to read and ``oracles.restricted_toda_residual`` pins today;
    - ``Solution.cg_iterations``: the CG count per Newton step, the start of
      the per-step trace of a solve."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert {attr for _, _, attr in UNREAD_ATTRIBUTES}.isdisjoint(read)  # no stale exemption
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and ast.unparse(node.value) == "self"
                    and node.attr not in read
                    and (module, cls.name, node.attr) not in UNREAD_ATTRIBUTES
                ):
                    unread.append(f"{module}.{cls.name}.{node.attr}")
    assert unread == []
