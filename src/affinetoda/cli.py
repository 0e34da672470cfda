"""Command-line entry point.

Subcommand groups::

    affinetoda lie info <type>            structure data as JSON
    affinetoda lie check <type>           invariant suite, pass/fail JSON
    affinetoda lie restrict <type>        folded affine matrix and Kac label
    affinetoda toda solve ...             run the solver, write field + manifest
    affinetoda toda verify <field.bin>    recompute and compare the manifest
    affinetoda conn check ...             connection-level consistency checks
    affinetoda export-plot <field.bin>    per-node CSV for external plotting

Exit codes: 0 success, 1 verification/convergence failure, 2 usage error.
Every solver output file is accompanied by a JSON manifest
(<output>.manifest.json) that records the config, the convention tags and
the reported residuals; ``toda verify`` recomputes them from the stored
field and fails on any drift beyond 1e-12.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from . import chevalley, connection, grids, restriction, rootdata, todasolver

T = TypeVar("T")

CONVENTIONS = {
    "root_order": "height-then-lex",
    "structure_signs": "extraspecial-positive",
    "curvature_form": "dz^dzbar-coefficient",
    "grid_layout": "x-major (ix, iy, component)",
}


def _json_out(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _root_system(name: str):
    return rootdata.build_root_system(rootdata.LieType.parse(name))


# ---------------------------------------------------------------------------
# lie group
# ---------------------------------------------------------------------------


def cmd_lie_info(args) -> int:
    rs = _root_system(args.type)
    aff = rootdata.affine_cartan(rs)
    _json_out(
        {
            "type": str(rs.type),
            "exponents": rootdata.exponents(rs),
            "coxeter_number": rootdata.coxeter_number(rs),
            "x_coefficients": [str(c) for c in rs.x_coefficients],
            "marks": list(aff.marks),
            "comarks": list(aff.comarks),
            "positive_root_count": rs.num_positive,
        }
    )
    return 0


def cmd_lie_check(args) -> int:
    rs = _root_system(args.type)
    alg = chevalley.build_chevalley(rs)
    sl2 = chevalley.build_principal_sl2(alg)
    cox = chevalley.coxeter_element(alg, sl2)
    exact = chevalley.verify_structure(alg)
    S = sl2.sigma_mat
    checks: Dict[str, Dict] = {}

    def record(key: str, residual: float, tol: float) -> None:
        checks[key] = {"residual": residual, "pass": bool(residual <= tol)}

    def record_exact(key: str, ok: bool) -> None:
        record(key, 0.0 if ok else 1.0, 0.0)

    record_exact("jacobi_exact", exact["jacobi_exact"])
    record_exact("killing_ad_invariant", exact["killing_ad_invariant"])
    record("sl2_bracket", float(np.abs(alg.bracket(sl2.e, sl2.etilde) - sl2.x).max()), 1e-12)
    record("sigma_squared", float(np.abs(S @ S - np.eye(alg.dim)).max()), 1e-12)
    X = np.linspace(-1, 1, alg.dim) + 1j * np.linspace(1, 2, alg.dim)
    rho_X, rho_SX = chevalley.rho_hat(alg, X), chevalley.rho_hat(alg, S @ X)
    record("sigma_rho_commute", float(np.abs(S @ rho_X - rho_SX).max()), 1e-12)
    record("rho_squared", float(np.abs(chevalley.rho_hat(alg, rho_X) - X).max()), 1e-12)
    record_exact(
        "coxeter_eigenspaces",
        len(cox.eigenspace_indices(0)) == alg.rank
        and len(cox.eigenspace_indices(1)) == alg.rank + 1,
    )
    record_exact("exponent_dimension", sum(2 * m + 1 for m in rootdata.exponents(rs)) == alg.dim)
    ok = all(c["pass"] for c in checks.values())
    _json_out({"type": str(rs.type), "pass": ok, "checks": checks})
    return 0 if ok else 1


def cmd_lie_restrict(args) -> int:
    rs = _root_system(args.type)
    rest = restriction.restrict(rs, rootdata.diagram_automorphism(rs))
    _json_out(
        {
            "type": str(rs.type),
            "label": rest.label,
            "gcm": [list(row) for row in rest.gcm],
            "orbits": [list(o) for o in rest.orbits],
        }
    )
    return 0


# ---------------------------------------------------------------------------
# toda group
# ---------------------------------------------------------------------------


def _parse_pair(text: str, what: str, kind: Callable[[str], T]) -> Tuple[T, T]:
    """The pair of a --grid or --extent value: ``AxB`` is (A, B) and ``A``
    is (A, A)."""
    parts = text.lower().split("x")
    if len(parts) <= 2:
        try:
            return kind(parts[0]), kind(parts[-1])
        except ValueError:
            pass
    raise ValueError(f"cannot parse {what} {text!r}")


def _load_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _solver_options(args) -> Dict[str, str]:
    """The run's options as strings: flags win over the --config file, which
    wins over the defaults.  The manifest records them as its ``config``."""
    opts = {
        "type": args.type,
        "grid": args.grid,
        "q": args.q,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "damping": args.damping,
        "init": args.init,
        "topology": args.topology,
        "extent": args.extent,
    }
    if getattr(args, "config", None):
        file_opts = _load_config_file(args.config)
        for key, val in file_opts.items():
            if key not in opts:
                raise ValueError(f"unknown config key {key!r}")
            if opts[key] is None:
                opts[key] = val
    defaults = {
        "grid": "32x32",
        "q": "const:1.0",
        "tol": "1e-10",
        "max_iter": "60",
        "damping": "1.0",
        "init": "oracle",
        "topology": "torus",
        "extent": "1.0x1.0",
    }
    for key, val in defaults.items():
        if opts[key] is None:
            opts[key] = val
    if opts["type"] is None:
        raise ValueError("a Lie type is required (--type or config file)")
    return opts


def _solver_setup(opts: Dict[str, str]):
    """The solver's per-type data and config from a run's options: the
    resolved flags of ``toda solve``, or the ``config`` of its manifest."""
    data = todasolver._TodaData(_root_system(opts["type"]))
    nx, ny = _parse_pair(opts["grid"], "grid", int)
    cfg = todasolver.SolverConfig(
        grid=grids.DomainGrid.make(
            opts["topology"], nx, ny, _parse_pair(opts["extent"], "extent", float)
        ),
        q=grids.QDifferential.parse(opts["q"], rootdata.coxeter_number(data.rs)),
        tol=float(opts["tol"]),
        max_iter=int(opts["max_iter"]),
        damping=float(opts["damping"]),
        init=todasolver.InitSpec.parse(opts["init"]),
    )
    return data, cfg


def _summary(omega, q, alg, data) -> Dict[str, float]:
    """Residual, curvature norm and sigma defect of a field: the numbers
    ``toda solve`` reports and ``toda verify`` recomputes.  The norms are
    those of ``connection.equivalence_defect``; the curvature is reduced to
    its norm column by column and never held whole."""
    grid = omega.grid
    R = todasolver.residual(data, grid, omega.values, np.abs(q.sample(grid)) ** 2)
    conn = connection.build_toda_connection(omega, q, alg, data, "toda")
    perm = rootdata.diagram_automorphism(data.rs).perm
    return {
        "residual": grid.max_norm(np.abs(R).max(axis=-1)),
        "curvature_norm": connection.curvature_norm(conn, alg),
        "sigma_defect": todasolver.sigma_symmetry_defect(omega, perm),
    }


def cmd_toda_solve(args) -> int:
    opts = _solver_options(args)
    data, cfg = _solver_setup(opts)
    alg = chevalley.build_chevalley(data.rs)
    sol = todasolver.solve(cfg, data)
    summary = {
        "iterations": sol.iterations,
        **_summary(sol.omega, cfg.q, alg, data),
        "converged": bool(sol.converged),
    }
    out = args.out or "omega.bin"
    grids.write_field_binary(out, sol.omega)
    manifest = {
        "command": "toda solve",
        "config": opts,
        "conventions": CONVENTIONS,
        "outputs": {"omega": os.path.basename(out)},
        "summary": summary,
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    _json_out(summary)
    return 0 if sol.converged else 1


def _reload_run(path: str):
    """Manifest, solver data, config and stored field of a ``toda solve`` run."""
    with open(path + ".manifest.json") as fh:
        manifest = json.load(fh)
    conf = manifest["config"]
    data, cfg = _solver_setup(conf)
    omega = grids.read_field_binary(path, cfg.grid)
    if omega.l != data.rs.rank:
        raise RuntimeError(
            f"{path}: stored field has {omega.l} components, but type {conf['type']} "
            f"has rank {data.rs.rank}"
        )
    return manifest, data, cfg, omega


def cmd_toda_verify(args) -> int:
    manifest, data, cfg, omega = _reload_run(args.field)
    now = _summary(omega, cfg.q, chevalley.build_chevalley(data.rs), data)
    reported = manifest["summary"]
    drift = {key: abs(val - reported[key]) for key, val in now.items()}
    ok = all(v <= 1e-12 for v in drift.values()) and now["residual"] <= cfg.tol
    _json_out({**now, "drift": drift, "pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# conn group and export
# ---------------------------------------------------------------------------


def cmd_conn_check(args) -> int:
    rs = _root_system(args.type)
    alg = chevalley.build_chevalley(rs)
    data = todasolver._TodaData(rs)
    n = int(args.grid)
    if n < 16:
        raise ValueError(f"conn check needs --grid at least 16: it also runs at n // 2 = {n // 2}")
    grid = grids.DomainGrid.make("torus", n, n)
    nu = rootdata.diagram_automorphism(rs)
    field = grids.random_trig_field(rs.rank, seed=7, amplitude=0.15).symmetrized(nu.perm)
    omega = field.sample(grid)
    q = grids.QDifferential.parse(args.q, rootdata.coxeter_number(rs))

    conn = connection.build_toda_connection(omega, q, alg, data, "toda")
    F = connection.curvature(conn, alg)
    star_defect = float(np.abs(conn.psi - connection.conjugate_star(conn, alg)).max())
    comm_defect = connection.commutator_defect(omega, q, alg, data)
    fnorm, rnorm, mismatch = connection.equivalence_defect(omega, q, data, F)
    # same continuum field at half resolution: mismatch must shrink ~4x
    grid2 = grids.DomainGrid.make("torus", n // 2, n // 2)
    omega2 = field.sample(grid2)
    conn2 = connection.build_toda_connection(omega2, q, alg, data, "toda")
    F_half = connection.curvature(conn2, alg)
    _, _, mismatch2 = connection.equivalence_defect(omega2, q, data, F_half)
    ratio = mismatch2 / mismatch
    rng = np.random.default_rng(13)
    cov = 0.0
    for _ in range(3):
        H = grids.constant_field(grid, rng.standard_normal(rs.rank) * 0.4)
        F2 = connection.curvature(connection.gauge_transform(conn, H, alg), alg)
        F2_expected = connection.char_scale(alg, F, H.values, conn.slots)
        cov = max(cov, float(np.abs(F2 - F2_expected).max()))

    checks = {
        "psi_equals_phi_star": {"residual": star_defect, "pass": star_defect < 1e-12},
        "commutator_closed_form": {"residual": comm_defect, "pass": comm_defect < 1e-12},
        "zero_curvature_equivalence": {
            "curvature_norm": fnorm,
            "residual_norm": rnorm,
            "mismatch": mismatch,
            "refinement_ratio": ratio,
            "pass": bool(2.8 < ratio < 5.5),
        },
        "gauge_covariance": {"residual": cov, "pass": cov < 1e-10},
    }
    ok = all(c["pass"] for c in checks.values())
    _json_out({"type": str(rs.type), "grid": n, "pass": ok, "checks": checks})
    return 0 if ok else 1


def cmd_export_plot(args) -> int:
    _, data, cfg, omega = _reload_run(args.field)
    grid = cfg.grid
    av = omega.values @ data.P.T
    R = todasolver.residual(data, grid, omega.values, np.abs(cfg.q.sample(grid)) ** 2)
    rnorm = np.abs(R).max(axis=-1)
    out = args.out or (args.field + ".csv")
    l = data.rs.rank
    with open(out, "w") as fh:
        fh.write(
            "ix,iy,x,y," + ",".join(f"alpha{i+1}" for i in range(l)) + ",residual_norm\n"
        )
        X, Y = grid.xy()
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                row = [str(ix), str(iy), f"{X[ix, iy]:.17g}", f"{Y[ix, iy]:.17g}"]
                row += [f"{av[ix, iy, i]:.17g}" for i in range(l)]
                row.append(f"{rnorm[ix, iy]:.17g}")
                fh.write(",".join(row) + "\n")
    _json_out({"written": out, "nodes": grid.nx * grid.ny})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="affinetoda",
        description="Lie structure queries and affine Toda field solvers",
    )
    sub = p.add_subparsers(dest="group", required=True)

    lie = sub.add_parser("lie", help="structure queries").add_subparsers(
        dest="cmd", required=True
    )
    info = lie.add_parser("info", help="exponents, Coxeter number, affine data")
    info.add_argument("type")
    info.set_defaults(fn=cmd_lie_info)
    check = lie.add_parser("check", help="run the invariant suite")
    check.add_argument("type")
    check.set_defaults(fn=cmd_lie_check)
    restr = lie.add_parser("restrict", help="fold by the diagram symmetry")
    restr.add_argument("type")
    restr.set_defaults(fn=cmd_lie_restrict)

    toda = sub.add_parser("toda", help="solver runs").add_subparsers(
        dest="cmd", required=True
    )
    solve_p = toda.add_parser("solve", help="solve the field equations")
    solve_p.add_argument("--type")
    solve_p.add_argument("--grid")
    solve_p.add_argument("--q")
    solve_p.add_argument("--tol")
    solve_p.add_argument("--max-iter", dest="max_iter")
    solve_p.add_argument("--damping")
    solve_p.add_argument("--init")
    solve_p.add_argument("--topology")
    solve_p.add_argument("--extent")
    solve_p.add_argument("--config", help="key=value file; flags win")
    solve_p.add_argument("--out", default="omega.bin")
    solve_p.set_defaults(fn=cmd_toda_solve)
    verify_p = toda.add_parser("verify", help="recompute residuals from a run")
    verify_p.add_argument("field")
    verify_p.set_defaults(fn=cmd_toda_verify)

    conn = sub.add_parser("conn", help="connection checks").add_subparsers(
        dest="cmd", required=True
    )
    cc = conn.add_parser("check", help="gauge/curvature consistency")
    cc.add_argument("--type", required=True)
    cc.add_argument("--grid", default="32")
    cc.add_argument("--q", default="const:1.0")
    cc.set_defaults(fn=cmd_conn_check)

    exp = sub.add_parser("export-plot", help="per-node CSV of characters and residuals")
    exp.add_argument("field")
    exp.add_argument("--out")
    exp.set_defaults(fn=cmd_export_plot)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
