"""CLI: grammar, JSON schemas, solve/verify round trips, exit codes."""
import collections
import functools
import json
import os
import subprocess
import sys

import pytest

from affinetoda.cli import main


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
    per-type data and the reality constants r_i once and the algebra at most
    once; only lie check builds the principal sl2 and the Coxeter element."""
    import affinetoda.chevalley as chevalley
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
    monkeypatch.setattr(
        todasolver._TodaData, "__init__", counting("_TodaData", todasolver._TodaData.__init__)
    )
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
        "conn check": ("conn", "check", "--type", "A2", "--grid", "16"),
    }
    for label, argv in commands.items():
        counts.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, label
        assert counts["_TodaData"] == 1, (label, counts)
        assert counts["x_coefficients"] == 1, (label, counts)
        assert counts["build_chevalley"] <= 1, (label, counts)
        assert counts["build_principal_sl2"] == 0, (label, counts)
        assert counts["coxeter_element"] == 0, (label, counts)
    counts.clear()
    code, _, _ = run_cli(capsys, "lie", "check", "A2")
    assert code == 0
    assert counts == {
        "build_chevalley": 1, "build_principal_sl2": 1, "coxeter_element": 1, "x_coefficients": 1
    }


def test_verify_and_conn_check_import_no_scipy(tmp_path):
    """Every command needs numpy only: one fresh interpreter runs each in
    turn and reports after each whether scipy has been imported."""
    torus, rect = str(tmp_path / "torus.bin"), str(tmp_path / "rect.bin")
    commands = [
        ["toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1",
         "--out", torus],
        ["toda", "solve", "--type", "A2", "--grid", "16x16", "--init", "perturbed:1:0.1",
         "--topology", "rectangle", "--out", rect],
        ["toda", "verify", torus],
        ["conn", "check", "--type", "A2", "--grid", "16"],
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
        "    print(argv[:2], code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands)
    assert all(line.endswith(" 0 False") for line in lines), lines


def test_toda_solve_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("type=A1\ngrid=16x16\nq=const:1.0\ninit=oracle\n")
    out_path = str(tmp_path / "omega.bin")
    code, out, _ = run_cli(capsys, "toda", "solve", "--config", str(conf), "--out", out_path)
    assert code == 0
    assert json.loads(out)["converged"] is True


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


@pytest.mark.parametrize("n", ["8", "15"])
def test_conn_check_grid_below_16_exits_2(capsys, n):
    """The check also runs at n // 2, which must itself be a valid grid."""
    code, _, err = run_cli(capsys, "conn", "check", "--type", "A2", "--grid", n)
    assert code == 2
    assert "at least 16" in err and "n // 2" in err


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
    """A solve whose residual overflows is a failure (exit 1), not a crash."""
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16x16",
                           "--init", "perturbed:1:200", "--out", str(tmp_path / "omega.bin"))
    assert code == 1
    assert "error: residual became non-finite" in err


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


@pytest.mark.parametrize("flag", ["--grid", "--extent"])
@pytest.mark.parametrize("text", ["1x2x3", "x", "abc", "2xy"])
def test_malformed_pair_exits_2(flag, text, tmp_path, capsys):
    code, _, err = run_cli(capsys, "toda", "solve", "--type", "A1", flag, text,
                           "--out", str(tmp_path / "omega.bin"))
    assert code == 2
    assert f"cannot parse {flag[2:]} {text!r}" in err


def test_export_plot(tmp_path, capsys):
    out_path = str(tmp_path / "omega.bin")
    run_cli(capsys, "toda", "solve", "--type", "A2", "--grid", "16x16", "--out", out_path)
    csv_path = str(tmp_path / "plot.csv")
    code, out, _ = run_cli(capsys, "export-plot", out_path, "--out", csv_path)
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "ix,iy,x,y,alpha1,alpha2,residual_norm"
    assert len(lines) == 1 + 16 * 16


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
