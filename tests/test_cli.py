"""CLI: grammar, JSON schemas, solve/verify round trips, exit codes."""
import collections
import functools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from affinetoda import cli
from affinetoda.cli import main
from affinetoda.todasolver import residual
from conftest import ALL_TYPES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lie_info_a2(capsys):
    code, out, _ = run_cli(capsys, "lie", "info", "A2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [1, 2]
    assert data["coxeter_number"] == 3
    assert data["marks"] == [1, 1, 1]
    assert data["positive_root_count"] == 3
    assert data["x_coefficients"] == ["1", "1"]


def test_lie_info_schema_stable(capsys):
    code, out, _ = run_cli(capsys, "lie", "info", "G2")
    data = json.loads(out)
    assert sorted(data.keys()) == [
        "comarks",
        "coxeter_number",
        "exponents",
        "marks",
        "positive_root_count",
        "type",
        "x_coefficients",
    ]


def test_lie_check_passes(capsys):
    code, out, _ = run_cli(capsys, "lie", "check", "B2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["checks"]["jacobi_exact"]["pass"] is True


def test_lie_restrict_e6(capsys):
    code, out, _ = run_cli(capsys, "lie", "restrict", "E6")
    assert code == 0
    assert json.loads(out)["label"] == "F4(1)"


def test_lie_check_e6_sigma_commutes_exactly(capsys):
    code, out, _ = run_cli(capsys, "lie", "check", "E6")
    assert code == 0
    assert json.loads(out)["checks"]["sigma_rho_commute"]["residual"] == 0.0


def test_lie_info_and_restrict_need_only_root_data(capsys, monkeypatch):
    import affinetoda.chevalley

    def refuse(rs):
        raise AssertionError("the Chevalley algebra should not be built")

    monkeypatch.setattr(affinetoda.chevalley, "build_chevalley", refuse)
    code, out, _ = run_cli(capsys, "lie", "info", "E8")
    assert code == 0 and json.loads(out)["coxeter_number"] == 30
    code, out, _ = run_cli(capsys, "lie", "restrict", "E8")
    assert code == 0 and json.loads(out)["label"] == "E8(1)"


def test_unknown_type_exits_2(capsys):
    code, _, err = run_cli(capsys, "lie", "info", "Z9")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_2(capsys):
    code = main(["lie", "frobnicate", "A2"])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--type", "A1", "--grid", "32x32", "--q", "const:1.0"),
        (
            "--type", "A2", "--grid", "24x16", "--topology", "rectangle", "--extent", "2x1",
            "--q", "poly:1,0.5+0.2j,0.3", "--init", "perturbed:3:0.1",
        ),
    ],
    ids=["a1-torus", "a2-rectangle-poly"],
)
def test_toda_solve_verify_round_trip(flags, tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    code, out, _ = run_cli(capsys, "toda", "solve", *flags, "--tol", "1e-10", "--out", out_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"] is True
    assert summary["residual"] < 1e-10
    assert os.path.exists(out_path)
    assert os.path.exists(out_path + ".manifest.json")

    code2, out2, _ = run_cli(capsys, "toda", "verify", out_path)
    assert code2 == 0
    verify = json.loads(out2)
    assert verify["pass"] is True
    # recomputed values are bit-identical to the reported ones
    assert verify["drift"] == {"residual": 0.0, "curvature_norm": 0.0, "sigma_defect": 0.0}
    for key in ("residual", "curvature_norm", "sigma_defect"):
        assert verify[key] == summary[key]

    code3, out3, _ = run_cli(capsys, "export-plot", out_path)
    assert code3 == 0
    nx, ny = (int(n) for n in flags[flags.index("--grid") + 1].split("x"))
    assert json.loads(out3)["nodes"] == nx * ny


def test_commands_build_each_per_type_object_once(tmp_path, capsys, monkeypatch):
    """Counted in process: every toda/conn command builds the solver's
    per-type data and the reality constants r_i once and never the algebra;
    solve, verify and conn check build the connection's Toda slots once, and
    export-plot, which builds no connection, never; only lie check builds
    the algebra, the principal sl2 and the Coxeter element."""
    import affinetoda.chevalley as chevalley
    import affinetoda.connection as connection
    import affinetoda.rootdata as rootdata
    import affinetoda.todasolver as todasolver

    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_chevalley", "build_principal_sl2", "coxeter_element"):
        monkeypatch.setattr(chevalley, name, counting(name, getattr(chevalley, name)))
    for cls in (todasolver._TodaData, connection.TodaSlots):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    r_i = functools.cached_property(
        counting("x_coefficients", rootdata.RootSystem.x_coefficients.func)
    )
    r_i.__set_name__(rootdata.RootSystem, "x_coefficients")
    monkeypatch.setattr(rootdata.RootSystem, "x_coefficients", r_i)
    out_path = str(tmp_path / "omega.bin")
    commands = {
        "solve oracle": ("toda", "solve", "--type", "A2", "--grid", "16x16", "--out", out_path),
        "solve perturbed": (
            "toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1",
            "--out", out_path,
        ),
        "verify": ("toda", "verify", out_path),
        "export-plot": ("export-plot", out_path),
        "conn check": ("conn", "check", "--type", "A2", "--grid", "24"),
    }
    for label, argv in commands.items():
        counts.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, label
        assert counts["_TodaData"] == 1, (label, counts)
        assert counts["x_coefficients"] == 1, (label, counts)
        assert counts["TodaSlots"] == (label != "export-plot"), (label, counts)
        assert counts["build_chevalley"] == 0, (label, counts)
        assert counts["build_principal_sl2"] == 0, (label, counts)
        assert counts["coxeter_element"] == 0, (label, counts)
    counts.clear()
    code, _, _ = run_cli(capsys, "lie", "check", "A2")
    assert code == 0
    assert counts == {
        "build_chevalley": 1, "build_principal_sl2": 1, "coxeter_element": 1, "x_coefficients": 1
    }


def test_verify_and_conn_check_import_no_scipy(tmp_path):
    """Every command needs numpy only, and no command draws from
    ``numpy.random``: one fresh interpreter runs each in turn and reports
    after each whether scipy or ``numpy.random`` has been imported."""
    torus, rect = str(tmp_path / "torus.bin"), str(tmp_path / "rect.bin")
    commands = [
        ["toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1",
         "--out", torus],
        ["toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1",
         "--topology", "rectangle", "--out", rect],
        ["toda", "verify", torus],
        ["conn", "check", "--type", "A2", "--grid", "24"],
        ["lie", "check", "A2"],
        ["lie", "info", "A2"],
        ["lie", "restrict", "A2"],
        ["export-plot", rect, "--out", str(tmp_path / "plot.csv")],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from affinetoda.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[:2], code, 'scipy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands)
    assert all(line.endswith(" 0 False False") for line in lines), lines


# Run in a fresh interpreter: the affinetoda submodules loaded by ``import
# affinetoda``, every module loaded once ``affinetoda.cli`` is imported, then
# the command's exit code and every module loaded by then.
_IMPORT_PROBE = (
    "import contextlib, io, json, sys\n"
    "import affinetoda\n"
    "package = sorted(m for m in sys.modules if m.startswith('affinetoda.'))\n"
    "from affinetoda.cli import main\n"
    "cli = sorted(sys.modules)\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'package': package, 'cli': cli, 'code': code,\n"
    "                  'modules': sorted(sys.modules)}))\n"
)


def _modules_after(*argv):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    return out


# Run in a fresh interpreter: for each affinetoda module compiled from
# source, whether numpy was loaded when it was compiled, then the command's
# exit code.
_COMPILE_PROBE = (
    "import contextlib, io, json, sys\n"
    "from importlib._bootstrap_external import SourceLoader\n"
    "compiled, to_code = {}, SourceLoader.source_to_code\n"
    "def source_to_code(self, *args, **kwargs):\n"
    "    if self.name.split('.')[0] == 'affinetoda':\n"
    "        compiled[self.name] = 'numpy' in sys.modules\n"
    "    return to_code(self, *args, **kwargs)\n"
    "SourceLoader.source_to_code = source_to_code\n"
    "from affinetoda.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'compiled': compiled, 'code': code}))\n"
)


def test_field_commands_compile_the_package_before_numpy(tmp_path):
    """Without bytecode every package module a command loads is compiled
    from source, and a compile after numpy has loaded lifts the command's
    peak RSS above numpy's by the compiler's transient (about 1 MiB):
    each field command, in a fresh interpreter with no bytecode to read or
    write, compiles every package module it loads before numpy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": str(tmp_path / "no-bytecode")}
    torus, rect = str(tmp_path / "torus.bin"), str(tmp_path / "rect.bin")
    solve = ("toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1")
    commands = [
        (*solve, "--out", torus),
        (*solve, "--topology", "rectangle", "--out", rect),
        ("toda", "verify", torus),
        ("conn", "check", "--type", "A2", "--grid", "24"),
        ("export-plot", rect, "--out", str(tmp_path / "plot.csv")),
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", _COMPILE_PROBE, *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["code"] == 0, argv
        assert {"affinetoda.grids", "affinetoda.todasolver"} <= set(out["compiled"]), argv
        assert [m for m, after in out["compiled"].items() if after] == [], argv


@pytest.mark.parametrize("command", ["info", "restrict", "check"])
def test_exact_lie_commands_load_no_numpy(command):
    """The lie commands compute with integers, Fractions and plain floats
    only, and importing the package loads none of its submodules."""
    out = _modules_after("lie", command, "E6")
    assert out["package"] == []
    assert "numpy" not in out["modules"]


@pytest.mark.parametrize("command", ["info", "restrict", "check"])
def test_cli_and_lie_commands_load_neither_dataclasses_nor_inspect(command):
    """The package defines plain classes: neither ``import affinetoda.cli``
    nor a lie command pays for ``dataclasses`` and the ``inspect``, ``ast``
    and ``dis`` modules it imports."""
    out = _modules_after("lie", command, "E8")
    for stage in ("cli", "modules"):
        assert {"dataclasses", "inspect"}.isdisjoint(out[stage]), stage


def test_field_commands_never_load_the_chevalley_module(tmp_path):
    """toda solve, toda verify, export-plot and conn check, each in a fresh
    interpreter, never import ``affinetoda.chevalley``: the connection
    builds its slots and their bracket from root data."""
    field = str(tmp_path / "omega.bin")
    commands = [
        ("toda", "solve", "--type", "E8", "--grid", "16x16", "--init", "perturbed:1:0.1",
         "--out", field),
        ("toda", "verify", field),
        ("export-plot", field, "--out", str(tmp_path / "plot.csv")),
        ("conn", "check", "--type", "E8", "--grid", "24"),
    ]
    for argv in commands:
        modules = _modules_after(*argv)["modules"]
        assert "affinetoda.connection" in modules or argv[0] == "export-plot", argv
        assert "affinetoda.chevalley" not in modules, argv


def test_lie_check_loads_no_solver_grid_or_connection():
    """lie check of every type, in turn in one interpreter, loads neither
    numpy nor the grid, solver, connection or restriction layers."""
    script = (
        "import contextlib, io, json, sys\n"
        "from affinetoda.cli import main\n"
        f"for name in {ALL_TYPES!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if main(['lie', 'check', name]) != 0:\n"
        "            sys.exit(f'lie check {name} failed')\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "affinetoda.chevalley" in modules and "numpy" not in modules
    loaded = {m.rsplit(".", 1)[-1] for m in modules if m.startswith("affinetoda.")}
    assert loaded.isdisjoint({"grids", "todasolver", "connection", "restriction"}), loaded


def _golden_lie_check():
    path = os.path.join(os.path.dirname(__file__), "data", "lie_check.jsonl")
    with open(path) as fh:
        return {json.loads(line)["type"]: line for line in fh}


@pytest.mark.parametrize("lie_type", ALL_TYPES)
def test_lie_check_output_is_unchanged(capsys, lie_type):
    """Byte for byte the JSON lie check printed when sigma was built from
    float SVD kernels and the residuals from numpy arrays
    (``tests/data/lie_check.jsonl``)."""
    code, out, _ = run_cli(capsys, "lie", "check", lie_type)
    assert code == 0
    assert out == _golden_lie_check()[lie_type]


def test_closed_stdout_exits_1_without_traceback():
    """A reader that is gone before the JSON is written (python -m affinetoda
    ... | head -c 0) ends the command with exit 1 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "affinetoda", "lie", "info", "E8"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_2(tol, tmp_path, capsys):
    """An infinite tol would pass any residual, and toda verify after it."""
    code, out, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                             "--init", "perturbed:1:0.5", "--tol", tol,
                             "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert "tol must be positive and finite" in err
    assert out == "" and not (tmp_path / "omega.bin").exists()


@pytest.mark.parametrize("q", ["const:nan", "poly:1,inf"])
@pytest.mark.parametrize("init", ["zero", "oracle"])
def test_non_finite_q_exits_2(q, init, tmp_path, capsys):
    """A NaN or infinite coefficient of q is a usage error that names the q
    specification, whatever the initial field, and not a failed solve."""
    code, out, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                             "--init", init, "--q", q, "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert f"q specification {q!r} has a non-finite coefficient" in err
    assert out == "" and not (tmp_path / "omega.bin").exists()


@pytest.mark.parametrize(
    "grid, topology", [("0x8", "torus"), ("8x0", "torus"), ("1x8", "rectangle")]
)
def test_grid_below_8_nodes_exits_2(grid, topology, tmp_path, capsys):
    """A size the grid spacing would divide by zero on is a usage error,
    not a ZeroDivisionError traceback."""
    code, out, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", grid,
                             "--topology", topology, "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert "grid must be at least 8x8" in err
    assert out == "" and not (tmp_path / "omega.bin").exists()


def test_conn_check_rejects_a_non_finite_q(capsys):
    """Without the check, NaN reaches the report as a bare NaN token, which
    is not valid JSON."""
    code, out, err = run_cli(capsys, "conn", "check", "--type", "A2", "--grid", "24",
                             "--q", "poly:1,nanj")
    assert code == 2 and out == ""
    assert "q specification 'poly:1,nanj' has a non-finite coefficient" in err


def test_negative_max_iter_exits_2_and_zero_is_valid(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                           "--max-iter", "-2", "--out", out_path)
    assert code == 2
    assert "max_iter must be non-negative" in err
    code, out, _ = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                           "--max-iter", "0", "--out", out_path)
    assert code == 0
    assert json.loads(out)["iterations"] == 0


def test_toda_solve_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("type=A1\ngrid=16x16\nq=const:1.0\ninit=oracle\n")
    out_path = str(tmp_path / "omega.bin")
    code, out, _ = run_cli(capsys, "toda", "solve", "--config", str(conf), "--out", out_path)
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("type=A1\n# a comment\ntol\n")
    code, _, err = run_cli(capsys, "toda", "solve", "--config", str(conf),
                           "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert f"{conf}, line 3: expected key=value, got 'tol'" in err


def test_toda_solve_flag_overrides_config(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("type=A1\ngrid=16x16\n")
    out_path = str(tmp_path / "omega.bin")
    code, out, _ = run_cli(
        capsys, "toda", "solve", "--config", str(conf), "--type", "A2", "--out", out_path
    )
    assert code == 0
    manifest = json.load(open(out_path + ".manifest.json"))
    assert manifest["config"]["type"] == "A2"


def test_verify_detects_tampering(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16x16", "--out", out_path)
    # corrupt one payload byte
    data = bytearray(open(out_path, "rb").read())
    data[-5] ^= 0xFF
    open(out_path, "wb").write(bytes(data))
    code, out, _ = run_cli(capsys, "toda", "verify", out_path)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_rejects_rank_mismatch(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    code, _, _ = run_cli(capsys, "toda", "solve", "--type", "A3", "--grid", "16x16", "--out", out_path)
    assert code == 0
    manifest_path = out_path + ".manifest.json"
    manifest = json.load(open(manifest_path))
    manifest["config"]["type"] = "A2"
    json.dump(manifest, open(manifest_path, "w"))
    code, _, err = run_cli(capsys, "toda", "verify", out_path)
    assert code == 1
    assert "3 components" in err and "rank 2" in err


def test_conn_check_a2(capsys):
    code, out, _ = run_cli(capsys, "conn", "check", "--type", "A2", "--grid", "32", "--q", "const:1.0")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["checks"]["psi_equals_phi_star"]["pass"] is True
    assert data["checks"]["zero_curvature_equivalence"]["pass"] is True


@pytest.mark.parametrize("n", ["8", "15", "23"])
def test_conn_check_grid_below_24_exits_2(capsys, n):
    """The refinement check compares n with n // 2, and on coarser grids the
    mismatch ratio is pre-asymptotic: it would fail correct code."""
    code, _, err = run_cli(capsys, "conn", "check", "--type", "A2", "--grid", n)
    assert code == 2
    assert "at least 24" in err and "n // 2" in err and "pre-asymptotic" in err


@pytest.mark.parametrize("lie_type", ALL_TYPES)
def test_conn_check_passes_at_the_minimum_grid(capsys, lie_type):
    code, out, _ = run_cli(capsys, "conn", "check", "--type", lie_type, "--grid", "24")
    assert code == 0, out
    assert json.loads(out)["pass"] is True


def test_solve_bits_do_not_depend_on_blas_threads(tmp_path):
    """The CG inner products are numpy sums, not threaded BLAS dots, so one
    and two BLAS threads write byte-identical fields."""
    fields = []
    for threads in ("1", "2"):
        out_path = str(tmp_path / f"omega{threads}.bin")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "affinetoda", "toda", "solve", "--type", "A2",
             "--grid", "80x80", "--init", "perturbed:1:0.2", "--out", out_path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        fields.append(open(out_path, "rb").read())
    assert fields[0] == fields[1]


def test_non_finite_solve_exits_1(tmp_path, capsys):
    """A solve whose residual overflows is a failure (exit 1), not a crash,
    and numpy's overflow warning is not printed on top of the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16x16",
                               "--init", "perturbed:1:200", "--out", str(tmp_path / "omega.bin"))
    assert code == 1
    assert "error: residual became non-finite" in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_unreachable_tol_exits_1_and_writes_the_field(topology, tmp_path, capsys):
    """A tol below roundoff stops the solve where the line search finds no
    step that lowers |R|^2, well before max_iter: the solve exits 1 with
    ``converged: false`` and still writes the field and its manifest, and
    verify of that field reproduces every number and exits 1 as well."""
    out_path = str(tmp_path / "omega.bin")
    code, out, _ = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                           "--topology", topology, "--tol", "1e-300", "--max-iter", "60",
                           "--init", "perturbed:1:0.2", "--out", out_path)
    assert code == 1
    summary = json.loads(out)
    assert summary["converged"] is False
    assert summary["iterations"] < 60
    assert os.path.exists(out_path)
    assert os.path.exists(out_path + ".manifest.json")

    code2, out2, _ = run_cli(capsys, "toda", "verify", out_path)
    assert code2 == 1
    verify = json.loads(out2)
    assert verify["pass"] is False
    assert verify["drift"] == {"residual": 0.0, "curvature_norm": 0.0, "sigma_defect": 0.0}


def test_single_extent_means_square(tmp_path, capsys):
    """--extent L means LxL, as --grid N means NxN."""
    fields = []
    for extent in ("2", "2x2"):
        out_path = str(tmp_path / f"omega{extent}.bin")
        code, _, _ = run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16",
                             "--topology", "rectangle", "--extent", extent,
                             "--init", "perturbed:1:0.1", "--out", out_path)
        assert code == 0
        fields.append(open(out_path, "rb").read())
    assert fields[0] == fields[1]
    code, out, _ = run_cli(capsys, "toda", "verify", str(tmp_path / "omega2.bin"))
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("extent", ["nan", "inf", "1xnan", "0", "-1x1"])
def test_extent_must_be_positive_and_finite(extent, tmp_path, capsys):
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A1", f"--extent={extent}",
                           "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert "grid spacings must be positive and finite" in err


@pytest.mark.parametrize(
    "flag, spec, message",
    [
        ("--q", "poly:1,,2", "cannot parse q specification 'poly:1,,2'"),
        ("--q", "const:abc", "cannot parse q specification 'const:abc'"),
        ("--init", "perturbed:x:0.1", "cannot parse init specification 'perturbed:x:0.1'"),
        ("--init", "perturbed:1:nan", "init specification 'perturbed:1:nan' has a non-finite amplitude"),
        ("--init", "perturbed:1:inf", "init specification 'perturbed:1:inf' has a non-finite amplitude"),
        ("--init", "file:", "init specification 'file:' has kind 'file' but no path"),
    ],
    ids=["poly-empty", "const-word", "init-seed-word", "init-nan", "init-inf", "init-file-empty"],
)
def test_malformed_spec_is_named(flag, spec, message, tmp_path, capsys):
    """A malformed q or init specification is a usage error that quotes it,
    raised before anything is computed: no warning, no solve."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16",
                                 flag, spec, "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert f"error: {message}" in err
    assert out == "" and not (tmp_path / "omega.bin").exists()


SOLVE_OPTIONS_HELP = """\
options:
  -h, --help           show this help message and exit
  --type TYPE
  --grid GRID
  --q Q
  --tol TOL
  --max-iter MAX_ITER
  --damping DAMPING
  --init INIT
  --topology TOPOLOGY
  --extent EXTENT
  --config CONFIG      key=value file; flags win
  --out OUT
"""


def test_toda_solve_flags(monkeypatch, capsys):
    """``toda solve`` has one flag per solver key, in ``SOLVER_KEYS`` order
    (``max_iter`` as ``--max-iter``), then ``--config`` and ``--out``; an
    option not given parses as None, ``--out`` included."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, "toda", "solve", "--help")
    assert code == 0
    assert out[out.index("options:"):] == SOLVE_OPTIONS_HELP
    args = cli.build_parser().parse_args(["toda", "solve", "--type", "B3", "--max-iter", "7"])
    assert {key: getattr(args, key) for key in cli.SOLVER_KEYS + ("config", "out")} == {
        "type": "B3", "grid": None, "q": None, "tol": None, "max_iter": "7", "damping": None,
        "init": None, "topology": None, "extent": None, "config": None, "out": None,
    }
    assert args.fn is cli.cmd_toda_solve


@pytest.mark.parametrize("flag", ["--grid", "--extent"])
@pytest.mark.parametrize("text", ["1x2x3", "x", "abc", "2xy"])
def test_malformed_pair_exits_2(flag, text, tmp_path, capsys):
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A1", flag, text,
                           "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert f"cannot parse {flag[2:]} {text!r}" in err


def test_conn_check_grid_n_and_nxn_agree(capsys):
    outs = [run_cli(capsys, "conn", "check", "--type", "A1", "--grid", g) for g in ("24", "24x24")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["grid"] == 24


def test_conn_check_non_square_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "conn", "check", "--type", "A1", "--grid", "24x32")
    assert code == 2
    assert "conn check needs a square grid, got '24x32'" in err


@pytest.mark.parametrize("text", ["1x2x3", "x", "abc", "24x"])
def test_conn_check_malformed_grid_exits_2(text, capsys):
    code, _, err = run_cli(capsys, "conn", "check", "--type", "A1", "--grid", text)
    assert code == 2
    assert f"cannot parse grid {text!r}" in err


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    """Field and manifest of one A1 16x16 solve."""
    out_path = str(tmp_path_factory.mktemp("run") / "omega.bin")
    assert main(["toda", "solve", "--type", "A1", "--grid", "16", "--out", out_path]) == 0
    with open(out_path, "rb") as fh:
        field = fh.read()
    with open(out_path + ".manifest.json") as fh:
        return field, json.load(fh)


_DELETE = object()


def _damaged_run(solved_run, tmp_path, section, key, value=_DELETE):
    """A copy of ``solved_run`` whose manifest lacks ``section`` (key None)
    or the ``key`` of that section, or holds ``value`` under that key."""
    field, manifest = solved_run
    manifest = json.loads(json.dumps(manifest))
    if key is None:
        del manifest[section]
    elif value is _DELETE:
        del manifest[section][key]
    else:
        manifest[section][key] = value
    out_path = str(tmp_path / "omega.bin")
    with open(out_path, "wb") as fh:
        fh.write(field)
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return out_path


_CONFIG_KEYS = ("type", "grid", "q", "tol", "max_iter", "damping", "init", "topology", "extent")
_SUMMARY_KEYS = ("residual", "curvature_norm", "sigma_defect")


@pytest.mark.parametrize(
    "command, section, key",
    [("toda verify", "config", None), ("toda verify", "summary", None)]
    + [("toda verify", "config", k) for k in _CONFIG_KEYS]
    + [("toda verify", "summary", k) for k in _SUMMARY_KEYS]
    + [("export-plot", "config", None), ("export-plot", "config", "grid")],
)
def test_incomplete_manifest_exits_2(command, section, key, solved_run, tmp_path, capsys):
    """A manifest without a section or key the command reads is a usage
    error that names the manifest and what it lacks, not a KeyError."""
    out_path = _damaged_run(solved_run, tmp_path, section, key)
    code, out, err = run_cli(capsys, *command.split(), out_path)
    assert code == 2 and out == ""
    where = f"{out_path}.manifest.json: "
    if key is None:
        assert where + f"the manifest has no {section!r} object" in err
    else:
        assert where + f"{section!r} has no key {key!r}" in err


@pytest.mark.parametrize(
    "section, key, value, kind",
    [
        ("summary", "residual", "x", "a number"),
        ("summary", "sigma_defect", True, "a number"),
        ("config", "grid", None, "a string"),
    ],
)
def test_mistyped_manifest_value_exits_2(section, key, value, kind, solved_run, tmp_path, capsys):
    """A manifest key that holds the wrong kind of value is a usage error
    that names the manifest and the key, not a TypeError or AttributeError."""
    out_path = _damaged_run(solved_run, tmp_path, section, key, value)
    code, out, err = run_cli(capsys, "toda", "verify", out_path)
    assert code == 2 and out == ""
    assert f"{out_path}.manifest.json: {section!r} key {key!r} is {value!r}, not {kind}" in err


@pytest.mark.parametrize("command", ["verify", "export-plot"])
def test_manifest_with_a_non_finite_q_exits_2(command, solved_run, tmp_path, capsys):
    out_path = _damaged_run(solved_run, tmp_path, "config", "q", "const:inf")
    argv = ["toda", "verify", out_path] if command == "verify" else ["export-plot", out_path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "q specification 'const:inf' has a non-finite coefficient" in err


@pytest.mark.parametrize("command", ["verify", "export-plot"])
def test_manifest_with_a_grid_below_8_nodes_exits_2(command, solved_run, tmp_path, capsys):
    out_path = _damaged_run(solved_run, tmp_path, "config", "grid", "0x8")
    argv = ["toda", "verify", out_path] if command == "verify" else ["export-plot", out_path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "grid must be at least 8x8" in err


def test_export_plot_reads_only_the_config(solved_run, tmp_path, capsys):
    out_path = _damaged_run(solved_run, tmp_path, "summary", None)
    code, out, _ = run_cli(capsys, "export-plot", out_path, "--out", str(tmp_path / "plot.csv"))
    assert code == 0 and json.loads(out)["nodes"] == 16 * 16


def test_export_plot(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16x16", "--out", out_path)
    csv_path = str(tmp_path / "plot.csv")
    code, out, _ = run_cli(capsys, "export-plot", out_path, "--out", csv_path)
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "ix,iy,x,y,alpha1,alpha2,residual_norm"
    assert len(lines) == 1 + 16 * 16


@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_export_plot_writes_the_per_node_text(topology, tmp_path, capsys):
    """export-plot formats a grid row of nodes at a time, and writes the
    bytes of a per-node loop that prints ix and iy as ints and every float
    with ``.17g``."""
    field, csv = str(tmp_path / "omega.bin"), str(tmp_path / "plot.csv")
    run_cli(capsys, "toda", "solve", "--type", "A3", "--grid", "24x20", "--topology", topology,
            "--extent", "1.3x0.7", "--q", "poly:1,0.5+0.2j,0.3", "--init", "perturbed:1:0.2",
            "--out", field)
    assert run_cli(capsys, "export-plot", field, "--out", csv)[0] == 0
    _, data, cfg, omega = cli._reload_run(field)
    grid, l = cfg.grid, data.rs.rank
    av = omega.values @ data.P.T
    exps = data.exponentials(omega.values, np.abs(cfg.q.sample(grid)) ** 2)
    rnorm = np.abs(residual(data, grid, omega.values, exps)).max(axis=-1)
    X, Y = grid.xy()
    lines = ["ix,iy,x,y," + ",".join(f"alpha{i+1}" for i in range(l)) + ",residual_norm"]
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            row = [str(ix), str(iy), f"{X[ix, iy]:.17g}", f"{Y[ix, iy]:.17g}"]
            row += [f"{av[ix, iy, i]:.17g}" for i in range(l)]
            row.append(f"{rnorm[ix, iy]:.17g}")
            lines.append(",".join(row))
    with open(csv, "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode()


def test_manifest_contents(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16x16", "--out", out_path)
    manifest = json.load(open(out_path + ".manifest.json"))
    assert manifest["command"] == "toda solve"
    assert manifest["conventions"]["root_order"] == "height-then-lex"
    assert "summary" in manifest and "config" in manifest


def test_verify_rejects_truncated_header(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    code, _, _ = run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16x16", "--out", out_path)
    assert code == 0
    with open(out_path, "r+b") as fh:
        fh.truncate(10)
    code, _, err = run_cli(capsys, "toda", "verify", out_path)
    assert code == 2
    assert "truncated header" in err


def test_verify_and_export_plot_reject_a_partial_value(tmp_path, capsys):
    """A file cut 3 bytes short ends in part of an f64: the error names the
    file, as for any other cut-off payload."""
    out_path = str(tmp_path / "omega.bin")
    code, _, _ = run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16x16", "--out", out_path)
    assert code == 0
    with open(out_path, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 3)
    for args in (("toda", "verify", out_path), ("export-plot", out_path, "--out", str(tmp_path / "p.csv"))):
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert f"{out_path}: truncated payload" in err


def test_init_file_rank_mismatch_exits_2(tmp_path, capsys):
    a1_path = str(tmp_path / "a1.bin")
    code, _, _ = run_cli(capsys, "toda", "solve", "--type", "A1", "--grid", "16x16", "--out", a1_path)
    assert code == 0
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16x16",
                           "--init", f"file:{a1_path}", "--out", str(tmp_path / "a2.bin"))
    assert code == 2
    assert "1 components" in err and "rank is 2" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "affinetoda", "lie", "info", "A1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coxeter_number"] == 2
