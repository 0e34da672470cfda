"""Command-line entry point.

Subcommand groups::

    affinetoda lie info <type>            structure data as JSON
    affinetoda lie check <type>           invariant suite, pass/fail JSON
    affinetoda lie restrict <type>        folded affine matrix and Kac label
    affinetoda toda solve ...             run the solver, write field + manifest
    affinetoda toda verify <field.bin>    recompute and compare the manifest
    affinetoda conn check ...             connection-level consistency checks
    affinetoda export-plot <field.bin>    per-node CSV for external plotting

Exit codes: 0 success, 1 verification/convergence failure or a closed stdout,
2 usage error.
At module level this file imports only the stdlib and ``rootdata``; each
command imports the modules it uses.  The three ``lie`` commands never load
numpy: ``lie check`` reads the exact table, checks and sigma of
``chevalley`` and forms its one float residual in plain Python.
The field commands never load ``chevalley``: the connection builds its
slots and their bracket from root data (``connection.TodaSlots``).
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

from . import rootdata

T = TypeVar("T")

# the options of a solver run: the ``config`` of its manifest
SOLVER_KEYS = ("type", "grid", "q", "tol", "max_iter", "damping", "init", "topology", "extent")
# the numbers ``toda solve`` reports and ``toda verify`` recomputes: the ``summary`` of its manifest
SUMMARY_KEYS = ("residual", "curvature_norm", "sigma_defect")

CONVENTIONS = {
    "root_order": "height-then-lex",
    "structure_signs": "extraspecial-positive",
    "curvature_form": "dz^dzbar-coefficient",
    "grid_layout": "x-major (ix, iy, component)",
}


def _json_out(payload) -> None:
    try:
        print(json.dumps(payload, sort_keys=True), flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # exit cannot fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


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
    """The invariant suite, in plain Python: the exact checks of
    ``chevalley``, the sl2 bracket as a float residual, and the sigma and
    rho_hat identities exactly, on their signed permutations (``sigma``
    and the antilinear e_beta -> -e_{-beta}).  It loads no numpy."""
    from . import chevalley

    rs = _root_system(args.type)
    alg = chevalley.build_chevalley(rs)
    sl2 = chevalley.build_principal_sl2(alg)
    cox = chevalley.coxeter_element(alg, sl2)
    exact = chevalley.verify_structure(alg)
    S, neg = sl2.sigma, alg.slot_negation
    checks: Dict[str, Dict] = {}

    def record(key: str, residual: float, tol: float) -> None:
        checks[key] = {"residual": residual, "pass": bool(residual <= tol)}

    def record_exact(key: str, ok: bool) -> None:
        record(key, 0.0 if ok else 1.0, 0.0)

    record_exact("jacobi_exact", exact["jacobi_exact"])
    record_exact("killing_ad_invariant", exact["killing_ad_invariant"])
    x, e, et = sl2.triple_coefficients()
    ee = alg.bracket_sparse(e, et)
    record("sl2_bracket", max(abs(ee.get(d, 0.0) - x.get(d, 0.0)) for d in range(alg.dim)), 1e-12)
    # row a of sigma holds s in column b for (b, s) = S[a]; rho_hat maps slot a to -conj(neg[a])
    record_exact("sigma_squared", all(S[b][0] == a and s * S[b][1] == 1 for a, (b, s) in enumerate(S)))
    record_exact("sigma_rho_commute", all(S[neg[a]] == (neg[b], s) for a, (b, s) in enumerate(S)))
    record_exact("rho_squared", all(neg[neg[a]] == a for a in range(alg.dim)))
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
    from . import restriction

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
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"{path}, line {number}: expected key=value, got {line!r}")
            out[key.strip()] = val.strip()
    return out


def _solver_options(args) -> Dict[str, str]:
    """The run's options as strings: flags win over the --config file, which
    wins over the defaults.  The manifest records them as its ``config``."""
    opts = {key: getattr(args, key) for key in SOLVER_KEYS}
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
    from . import grids, todasolver

    data = todasolver._TodaData(_root_system(opts["type"]))
    nx, ny = _parse_pair(opts["grid"], "grid", int)
    cfg = todasolver.SolverConfig(
        grid=grids.DomainGrid(opts["topology"], nx, ny, _parse_pair(opts["extent"], "extent", float)),
        q=grids.QDifferential.parse(opts["q"]),
        tol=float(opts["tol"]),
        max_iter=int(opts["max_iter"]),
        damping=float(opts["damping"]),
        init=todasolver.InitSpec.parse(opts["init"]),
    )
    return data, cfg


def _summary(omega, q, data) -> Dict[str, float]:
    """Residual, curvature norm and sigma defect of a field: the numbers
    ``toda solve`` reports and ``toda verify`` recomputes.  The residual R
    and the curvature norm |F| are the norms ``conn check`` reports, from
    one block pass of the same kind (``connection.summary_norms``): each
    block of grid rows builds its connection from its rows of Omega and q
    plus a two-row halo, so neither R, F nor the whole connection is ever
    held.  ``toda verify`` samples q once, in that pass; ``toda solve``
    samples it in the solve as well."""
    from . import connection, todasolver

    norms = connection.summary_norms(omega, q, data)
    perm = rootdata.diagram_automorphism(data.rs).perm
    return {
        "residual": norms["residual"],
        "curvature_norm": norms["curvature"],
        "sigma_defect": todasolver.sigma_symmetry_defect(omega, perm),
    }


def cmd_toda_solve(args) -> int:
    # connection first: it loads before the solve's arrays, and (by its own imports) every
    # package module before numpy; without bytecode, a compile after either lifts the peak RSS
    from . import connection, grids, todasolver  # noqa: F401

    opts = _solver_options(args)
    data, cfg = _solver_setup(opts)
    sol = todasolver.solve(cfg, data)
    summary = {
        "iterations": sol.iterations,
        **_summary(sol.omega, cfg.q, data),
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


# what each manifest section read back must hold under its keys: a run's
# options as strings, and reported numbers as real numbers (JSON true is not one)
_MANIFEST_VALUES = {
    "config": ("a string", lambda v: isinstance(v, str)),
    "summary": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
}


def _manifest_section(manifest: Dict, path: str, section: str, keys: Tuple[str, ...]) -> Dict:
    """manifest[section], after checking that it holds each of ``keys`` with
    a value of the section's kind."""
    where = f"{path}.manifest.json"
    part = manifest.get(section) if isinstance(manifest, dict) else None
    if not isinstance(part, dict):
        raise ValueError(f"{where}: the manifest has no {section!r} object")
    kind, valid = _MANIFEST_VALUES[section]
    for key in keys:
        if key not in part:
            raise ValueError(f"{where}: {section!r} has no key {key!r}")
        if not valid(part[key]):
            raise ValueError(f"{where}: {section!r} key {key!r} is {part[key]!r}, not {kind}")
    return part


def _reload_run(path: str):
    """Manifest, solver data, config and stored field of a ``toda solve`` run."""
    from . import grids

    with open(path + ".manifest.json") as fh:
        manifest = json.load(fh)
    conf = _manifest_section(manifest, path, "config", SOLVER_KEYS)
    data, cfg = _solver_setup(conf)
    omega = grids.read_field_binary(path, cfg.grid)
    if omega.l != data.rs.rank:
        raise RuntimeError(
            f"{path}: stored field has {omega.l} components, but type {conf['type']} "
            f"has rank {data.rs.rank}"
        )
    return manifest, data, cfg, omega


def cmd_toda_verify(args) -> int:
    from . import connection  # noqa: F401  (loaded first, as in ``cmd_toda_solve``)

    manifest, data, cfg, omega = _reload_run(args.field)
    reported = _manifest_section(manifest, args.field, "summary", SUMMARY_KEYS)
    now = _summary(omega, cfg.q, data)
    drift = {key: abs(val - reported[key]) for key, val in now.items()}
    ok = all(v <= 1e-12 for v in drift.values()) and now["residual"] <= cfg.tol
    _json_out({**now, "drift": drift, "pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# conn group and export
# ---------------------------------------------------------------------------


def cmd_conn_check(args) -> int:
    """Every quantity comes from one block pass of ``connection.check_norms``
    per grid, q sampled once each: the star, the bracket [Phi, Phi*], the
    zero-curvature equivalence and the covariance under three constant
    gauges on the n^2 grid, and the mismatch again on the n // 2 grid."""
    import random

    from . import connection, grids, todasolver

    rs = _root_system(args.type)
    data = todasolver._TodaData(rs)
    n, ny = _parse_pair(args.grid, "grid", int)
    if ny != n:
        raise ValueError(f"conn check needs a square grid, got {args.grid!r}")
    if n < 24:
        raise ValueError(f"conn check needs --grid at least 24: its refinement check against "
                         f"n // 2 = {n // 2} is pre-asymptotic on coarser grids")
    grid = grids.DomainGrid("torus", n, n)
    nu = rootdata.diagram_automorphism(rs)
    field = grids.random_trig_field(rs.rank, seed=7, amplitude=0.15).symmetrized(nu.perm)
    omega = field.sample(grid)
    q = grids.QDifferential.parse(args.q)

    rng = random.Random(13)
    hs = [[0.4 * rng.gauss(0.0, 1.0) for _ in range(rs.rank)] for _ in range(3)]
    norms = connection.check_norms(omega, q, data, hs)
    # same continuum field at half resolution: mismatch must shrink ~4x
    omega2 = field.sample(grids.DomainGrid("torus", n // 2, n // 2))
    ratio = connection.check_norms(omega2, q, data)["mismatch"] / norms["mismatch"]

    checks = {
        "psi_equals_phi_star": {"residual": norms["star"], "pass": norms["star"] < 1e-12},
        "commutator_closed_form": {
            "residual": norms["commutator"], "pass": norms["commutator"] < 1e-12,
        },
        "zero_curvature_equivalence": {
            "curvature_norm": norms["curvature"],
            "residual_norm": norms["residual"],
            "mismatch": norms["mismatch"],
            "refinement_ratio": ratio,
            "pass": bool(2.8 < ratio < 5.5),
        },
        "gauge_covariance": {"residual": norms["covariance"], "pass": norms["covariance"] < 1e-10},
    }
    ok = all(c["pass"] for c in checks.values())
    _json_out({"type": str(rs.type), "grid": n, "pass": ok, "checks": checks})
    return 0 if ok else 1


def cmd_export_plot(args) -> int:
    from . import todasolver  # with ``grids``, before numpy: see ``cmd_toda_solve``

    import numpy as np

    _, data, cfg, omega = _reload_run(args.field)
    grid, l = cfg.grid, data.rs.rank
    av = omega.values @ data.P.T
    exps = data.exponentials(omega.values, np.abs(cfg.q.sample(grid)) ** 2)
    rnorm = np.abs(todasolver.residual(data, grid, omega.values, exps)).max(axis=-1)
    out = args.out or (args.field + ".csv")
    # one grid row of nodes per write; ix and iy as floats print as their ints do
    line = ",".join(["%.17g"] * (l + 5)) + "\n"
    with open(out, "w") as fh:
        fh.write("ix,iy,x,y," + "".join(f"alpha{i + 1}," for i in range(l)) + "residual_norm\n")
        (X, Y), iy = grid.xy(), np.arange(grid.ny)
        for ix in range(grid.nx):
            rows = np.column_stack([np.full_like(iy, ix), iy, X[ix], Y[ix], av[ix], rnorm[ix]])
            fh.write(line * grid.ny % tuple(rows.ravel().tolist()))
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
    for key in SOLVER_KEYS:
        solve_p.add_argument("--" + key.replace("_", "-"))
    solve_p.add_argument("--config", help="key=value file; flags win")
    solve_p.add_argument("--out")
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
