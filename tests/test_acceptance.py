"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np

from affinetoda.connection import check_norms
from affinetoda.grids import (
    DomainGrid,
    QDifferential,
    constant_field,
    random_trig_field,
)
from affinetoda.restriction import restrict
from affinetoda.rootdata import (
    diagram_automorphism,
    exponents,
)
from affinetoda.todasolver import (
    InitSpec,
    SolverConfig,
    _TodaData,
    constant_solution,
    jacobian_apply,
    residual,
    sigma_symmetry_defect,
    solve,
)
from conftest import ALL_TYPES, get_algebra
from oracles import constant_residual, coxeter_apply, sl2_triple, uniqueness_probe


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_structure_suite():
    from affinetoda.chevalley import verify_structure

    start = time.monotonic()
    worst_sl2 = 0.0
    for name in ALL_TYPES:
        rs, alg, sl2, cox = get_algebra(name)
        checks = verify_structure(alg)
        assert checks["jacobi_exact"], name
        assert checks["killing_ad_invariant"], name
        r = rs.x_coefficients
        for i in range(rs.rank):
            assert sum(r[j] * rs.cartan_matrix[j][i] for j in range(rs.rank)) == 1, name
        assert sum(2 * m + 1 for m in exponents(rs)) == rs.type.dim, name
        x, e, et = sl2_triple(sl2)
        worst_sl2 = max(worst_sl2, float(np.abs(alg.bracket(e, et) - x).max()))
        assert worst_sl2 < 1e-12, name
        # Coxeter phase map: h applications are the identity, eigenspace dims
        X = np.linspace(1, 2, alg.dim) + 0.3j
        Y = X.copy()
        for _ in range(cox.h):
            Y = coxeter_apply(cox, Y)
        assert np.abs(Y - X).max() < 1e-10, name
        assert len(cox.eigenspace_indices(0)) == rs.rank, name
        assert len(cox.eigenspace_indices(1)) == rs.rank + 1, name
    elapsed = time.monotonic() - start
    report(
        1,
        "structure-suite",
        elapsed < 60.0,
        f"({len(ALL_TYPES)} types, sl2 residual {worst_sl2:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_commutator_identity():
    from affinetoda.grids import HFieldGrid

    rng = np.random.default_rng(42)
    worst = 0.0
    for name in ["A1", "A2", "B2", "G2"]:
        rs, alg, sl2, _ = get_algebra(name)
        data = _TodaData(rs)
        grid = DomainGrid("torus", 10, 10)
        for _ in range(100):
            vals = 0.25 * rng.standard_normal((10, 10, rs.rank))
            omega = HFieldGrid(grid, vals)
            q = QDifferential((rng.standard_normal() + 1j * rng.standard_normal(),))
            worst = max(worst, check_norms(omega, q, data)["commutator"])
    report(2, "commutator-identity", worst < 1e-12, f"(max defect {worst:.2e})")


def test_criterion_3_higgs_toda_equivalence():
    rs, alg, sl2, _ = get_algebra("A2")
    data = _TodaData(rs)
    nu = diagram_automorphism(rs)
    field = random_trig_field(2, seed=23, amplitude=0.2).symmetrized(nu.perm)
    q = QDifferential((1.0,))
    mismatches = {}
    for n in (32, 64, 128):
        grid = DomainGrid("torus", n, n)
        omega = field.sample(grid)
        norms = check_norms(omega, q, data)
        fnorm, rnorm, mism = norms["curvature"], norms["residual"], norms["mismatch"]
        assert abs(fnorm - rnorm) <= mism + 1e-12
        mismatches[n] = mism
    r1 = mismatches[32] / mismatches[64]
    r2 = mismatches[64] / mismatches[128]
    ok = 3.2 < r1 < 4.8 and 3.2 < r2 < 4.8
    report(
        3,
        "zero-curvature-equivalence",
        ok,
        f"(refinement ratios {r1:.2f}, {r2:.2f}; 64x64 mismatch {mismatches[64]:.2e})",
    )


def test_criterion_4_constant_oracles():
    rs1, _, _, _ = get_algebra("A1")
    data1 = _TodaData(rs1)
    om_half, om_one = constant_solution(data1, 0.5), constant_solution(data1, 1.0)
    res_half, res_one = constant_residual(data1, om_half, 0.5), constant_residual(data1, om_one, 1.0)
    u = 2 * om_one[0]  # alpha(Omega) for A1
    ok = (
        abs(u - 0.25 * math.log(2)) < 1e-10
        and abs(om_half[0]) < 1e-12
        and res_half < 1e-13
        and res_one < 1e-13
    )
    details = [f"A1 u={u:.9f}"]
    for name in ["A2", "G2"]:
        rs, _, _, _ = get_algebra(name)
        data = _TodaData(rs)
        res = constant_residual(data, constant_solution(data, 1.0), 1.0)
        ok = ok and res < 1e-13
        details.append(f"{name} residual {res:.1e}")
    report(4, "constant-solution-oracle", ok, "(" + ", ".join(details) + ")")


def test_criterion_5_solver_convergence():
    details = []
    ok = True
    for name in ["A1", "A2"]:
        rs, alg, sl2, _ = get_algebra(name)
        grid = DomainGrid("torus", 64, 64)
        data = _TodaData(rs)
        cfg = SolverConfig(
            grid=grid,
            q=QDifferential((1.0,)),
            init=InitSpec("perturbed", seed=17, amplitude=0.1),
        )
        t0 = time.monotonic()
        sol = solve(cfg, data)
        dt = time.monotonic() - t0
        om0 = constant_solution(data, 1.0)
        dist = float(np.abs(sol.omega.values - om0).max())
        ok = ok and sol.converged and dist < 1e-8 and dt < 30.0
        details.append(f"{name}: |Omega-Omega0|={dist:.1e} in {dt:.1f}s")
    report(5, "solver-to-oracle", ok, "(" + "; ".join(details) + ")")


def test_criterion_6_uniqueness_probe():
    details = []
    ok = True
    for name in ["A1", "A2"]:
        rs, alg, sl2, _ = get_algebra(name)
        grid = DomainGrid("torus", 32, 32)
        data = _TodaData(rs)
        cfg = SolverConfig(
            grid=grid,
            q=QDifferential((1.0,)),
            init=InitSpec("perturbed", amplitude=0.1),
        )
        worst = uniqueness_probe(cfg, [101, 202, 303, 404], data)
        ok = ok and worst < 1e-7
        details.append(f"{name}: max pairwise {worst:.1e}")
    report(6, "uniqueness-probe", ok, "(" + "; ".join(details) + ")")


def test_criterion_7_sigma_symmetry():
    details = []
    ok = True
    for name in ["A2", "A3"]:
        rs = get_algebra(name)[0]
        grid = DomainGrid("torus", 32, 32)
        data = _TodaData(rs)
        cfg = SolverConfig(
            grid=grid,
            q=QDifferential((1.0,)),
            init=InitSpec("perturbed", seed=31, amplitude=0.1),
        )
        sol = solve(cfg, data)
        defect = sigma_symmetry_defect(sol.omega, diagram_automorphism(rs).perm)
        ok = ok and sol.converged and defect < 1e-8
        details.append(f"{name}: defect {defect:.1e}")
    report(7, "sigma-symmetry", ok, "(" + "; ".join(details) + ")")


def test_criterion_8_restriction_table():
    table = {
        "A2": "A2(2)",
        "A4": "A4(2)",
        "A3": "C2(1)",
        "A5": "C3(1)",
        "D5": "B4(1)",
        "D7": "B6(1)",
        "E6": "F4(1)",
    }
    trivial = ["A1", "B2", "B4", "C3", "D4", "D6", "E7", "E8", "F4", "G2"]
    got = {}
    ok = True
    for name, expect in table.items():
        rs, _, _, _ = get_algebra(name)
        label = restrict(rs, diagram_automorphism(rs)).label
        got[name] = label
        ok = ok and label == expect
    for name in trivial:
        rs, _, _, _ = get_algebra(name)
        label = restrict(rs, diagram_automorphism(rs)).label
        ok = ok and label == f"{name}(1)"
    report(8, "restriction-table", ok, f"({got})")


def test_criterion_9_jacobian_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ["A1", "A2"]:
        rs, alg, sl2, _ = get_algebra(name)
        grid = DomainGrid("torus", 16, 16)
        data = _TodaData(rs)
        q2 = np.ones((16, 16))
        om0 = constant_solution(data, 1.0)
        vals = constant_field(grid, om0).values + 0.1 * rng.standard_normal(
            (16, 16, rs.rank)
        )
        eps = 1e-6
        exps = data.exponentials(vals, q2)
        for _ in range(20):
            s = rng.standard_normal(vals.shape)
            jv = jacobian_apply(data, grid, exps, s)
            fd = (
                residual(data, grid, vals + eps * s, data.exponentials(vals + eps * s, q2))
                - residual(data, grid, vals - eps * s, data.exponentials(vals - eps * s, q2))
            ) / (2 * eps)
            rel = float(np.abs(jv - fd).max() / max(1.0, np.abs(jv).max()))
            worst = max(worst, rel)
    report(9, "jacobian-vs-finite-differences", worst < 1e-6, f"(max rel err {worst:.1e})")


def test_criterion_10_gauge_covariance():
    rng = np.random.default_rng(5)
    rs, alg, sl2, _ = get_algebra("A2")
    nu = diagram_automorphism(rs)
    grid = DomainGrid("torus", 32, 32)
    omega = random_trig_field(2, seed=3, amplitude=0.15).symmetrized(nu.perm).sample(grid)
    q = QDifferential((1.0,))
    hs = [rng.standard_normal(rs.rank) * 0.5 for _ in range(10)]
    worst = check_norms(omega, q, _TodaData(rs), hs)["covariance"]
    report(10, "gauge-covariance", worst < 1e-10, f"(max defect {worst:.2e})")
