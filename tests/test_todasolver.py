"""Solver layer: constant oracle, Newton convergence, symmetry and uniqueness."""
import math

import numpy as np
import pytest

from affinetoda.grids import DomainGrid, QDifferential, constant_field
from affinetoda.rootdata import coxeter_number, diagram_automorphism
from affinetoda.todasolver import (
    InitSpec,
    SolverConfig,
    _TodaData,
    _mean_field_preconditioner,
    constant_solution,
    jacobian_apply,
    residual,
    sigma_symmetry_defect,
    solve,
    thread_cap,
    uniqueness_probe,
)


def make_config(name, algebra, n=32, q=1.0, topology="torus", **kw):
    rs, alg, sl2, _ = algebra(name)
    grid = DomainGrid.make(topology, n, n)
    qd = QDifferential.constant(q, coxeter_number(rs))
    cfg = SolverConfig(grid=grid, q=qd, **kw)
    return cfg, _TodaData(rs), alg, sl2


class TestConstantSolution:
    def test_a1_balanced(self, algebra):
        rs, _, _, _ = algebra("A1")
        om, res = constant_solution(_TodaData(rs), 0.5)
        assert abs(om[0]) < 1e-12
        assert res < 1e-13

    def test_a1_quarter_log_two(self, algebra):
        rs, _, _, _ = algebra("A1")
        om, res = constant_solution(_TodaData(rs), 1.0)
        # alpha(Omega) = 2 om[0] must equal (1/4) ln 2
        assert abs(2 * om[0] - 0.25 * math.log(2)) < 1e-12
        assert res < 1e-13

    @pytest.mark.parametrize("name", ["A2", "G2", "B3", "C3", "D4", "F4"])
    @pytest.mark.parametrize("q2", [0.3, 1.0, 2.7])
    def test_residual_tiny(self, name, q2, algebra):
        rs, _, _, _ = algebra(name)
        _, res = constant_solution(_TodaData(rs), q2)
        assert res < 1e-13

    def test_a2_against_damped_fixed_point_oracle(self, algebra):
        """Independent oracle: damped fixed-point iteration on the pointwise
        system, no shared code with the closed-form solve."""
        rs, _, _, _ = algebra("A2")
        data = _TodaData(rs)
        q2 = np.array([[1.0]])
        v = np.zeros((1, 1, 2))
        for _ in range(20000):
            v = v - 0.05 * data.pointwise_residual(v, q2)
        om, _ = constant_solution(data, 1.0)
        assert np.abs(v[0, 0] - om).max() < 1e-10

    def test_rejects_nonpositive(self, algebra):
        rs, _, _, _ = algebra("A1")
        with pytest.raises(ValueError):
            constant_solution(_TodaData(rs), 0.0)

    def test_bad_affine_node_raises_typed_error(self, algebra, monkeypatch):
        import affinetoda.todasolver as ts

        rs, _, _, _ = algebra("A2")
        real = ts.affine_cartan(rs)

        class Skewed:
            marks = (2,) + tuple(real.marks[1:])
            comarks = real.comarks

        monkeypatch.setattr(ts, "affine_cartan", lambda _rs: Skewed)
        with pytest.raises(RuntimeError, match="mark and comark 1"):
            constant_solution(_TodaData(rs), 1.0)


class TestJacobian:
    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_matches_finite_differences(self, name, algebra, rng):
        cfg, data, alg, sl2 = make_config(name, algebra, n=16)
        grid = cfg.grid
        q2 = np.abs(cfg.q.sample(grid)) ** 2
        om0, _ = constant_solution(data, 1.0)
        vals = constant_field(grid, om0).values + 0.1 * rng.standard_normal(
            (16, 16, data.rs.rank)
        )
        eps = 1e-6
        for _ in range(20):
            s = rng.standard_normal(vals.shape)
            jv = jacobian_apply(data, grid, vals, q2, s)
            fd = (
                residual(data, grid, vals + eps * s, q2)
                - residual(data, grid, vals - eps * s, q2)
            ) / (2 * eps)
            rel = np.abs(jv - fd).max() / max(1.0, np.abs(jv).max())
            assert rel < 1e-6


class TestPreconditioner:
    @pytest.mark.parametrize("topology", ["torus", "rectangle"])
    @pytest.mark.parametrize("name", ["A2", "G2"])
    def test_exact_inverse_for_constant_coefficients(self, name, topology, algebra, rng):
        """At a constant field with constant q the pointwise block is its own
        mean, so the preconditioner inverts the symmetrized Newton operator
        on fields that vanish on the rectangle boundary."""
        cfg, data, alg, sl2 = make_config(name, algebra, n=16, topology=topology)
        grid = cfg.grid
        q2 = np.abs(cfg.q.sample(grid)) ** 2
        om0, _ = constant_solution(data, 0.7)
        vals = constant_field(grid, om0).values
        s = rng.standard_normal(vals.shape)
        interior = grid.interior_mask()
        s[~interior] = 0.0  # CG keeps rectangle boundary slots at zero
        Hs = jacobian_apply(data, grid, vals, q2, s) @ data.G
        Hs[~interior] = s[~interior]
        back = _mean_field_preconditioner(data, grid, vals, q2)(Hs)
        assert np.abs(back - s).max() < 1e-10 * np.abs(s).max()


class TestSolve:
    def test_oracle_init_converges_immediately(self, algebra):
        cfg, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("oracle"))
        sol = solve(cfg, data)
        assert sol.converged
        assert sol.iterations <= 2
        assert sol.final_residual < cfg.tol

    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_perturbed_init_returns_to_oracle(self, name, algebra):
        cfg, data, alg, sl2 = make_config(
            name, algebra, init=InitSpec("perturbed", seed=4, amplitude=0.1)
        )
        sol = solve(cfg, data)
        assert sol.converged
        om0, _ = constant_solution(data, 1.0)
        assert np.abs(sol.omega.values - om0).max() < 1e-8

    def test_zero_init_a1(self, algebra):
        cfg, data, alg, sl2 = make_config("A1", algebra, init=InitSpec("zero"))
        sol = solve(cfg, data)
        assert sol.converged

    def test_rectangle_boundary_pinned(self, algebra):
        cfg, data, alg, sl2 = make_config(
            "A1", algebra, n=24, topology="rectangle", init=InitSpec("perturbed", seed=2, amplitude=0.05)
        )
        sol = solve(cfg, data)
        assert sol.converged
        # boundary kept at its initial (perturbed) values: only check residual
        q2 = np.abs(cfg.q.sample(cfg.grid)) ** 2
        R = residual(data, cfg.grid, sol.omega.values, q2)
        assert cfg.grid.max_norm(np.abs(R).max(axis=-1)) < cfg.tol

    def test_rectangle_oracle_boundary_curvature(self, algebra):
        from affinetoda.connection import build_toda_connection, curvature

        cfg, data, alg, sl2 = make_config(
            "A1", algebra, n=24, topology="rectangle", init=InitSpec("oracle")
        )
        sol = solve(cfg, data)
        assert sol.converged
        conn = build_toda_connection(sol.omega, cfg.q, alg, data, "toda")
        F = curvature(conn, alg)
        assert cfg.grid.max_norm(np.abs(F).max(axis=-1)) <= 10 * cfg.tol

    def test_phase_of_q_is_irrelevant(self, algebra):
        base, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("perturbed", seed=9, amplitude=0.05))
        rotated = SolverConfig(
            grid=base.grid,
            q=QDifferential.constant(np.exp(1j * 0.7), coxeter_number(data.rs)),
            init=base.init,
        )
        a = solve(base, data)
        b = solve(rotated, data)
        assert a.converged and b.converged
        assert np.abs(a.omega.values - b.omega.values).max() < 1e-12

    def test_determinism(self, algebra):
        cfg, data, alg, sl2 = make_config("A1", algebra, init=InitSpec("perturbed", seed=7, amplitude=0.1))
        a = solve(cfg, data)
        b = solve(cfg, data)
        assert a.residual_history == b.residual_history
        assert np.array_equal(a.omega.values, b.omega.values)

    def test_cross_check_curvature(self, algebra):
        from affinetoda.connection import build_toda_connection, curvature

        cfg, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("perturbed", seed=3, amplitude=0.1))
        sol = solve(cfg, data)
        assert sol.converged
        conn = build_toda_connection(sol.omega, cfg.q, alg, data, "toda")
        F = curvature(conn, alg)
        assert cfg.grid.max_norm(np.abs(F).max(axis=-1)) <= 10 * cfg.tol


class TestNewtonCG:
    def test_cg_iterations_mesh_independent(self, algebra):
        worst = []
        for n in (64, 128):
            cfg, data, alg, sl2 = make_config(
                "A2", algebra, n=n, init=InitSpec("perturbed", seed=1, amplitude=0.2)
            )
            sol = solve(cfg, data)
            assert sol.converged
            assert len(sol.cg_iterations) == sol.iterations  # one count per Newton step
            worst.append(max(sol.cg_iterations))
        assert abs(worst[0] - worst[1]) <= 3

    def test_e8_torus_converges(self, algebra):
        cfg, data, alg, sl2 = make_config("E8", algebra, init=InitSpec("perturbed", seed=17, amplitude=0.1))
        sol = solve(cfg, data)
        assert sol.converged
        assert sol.final_residual <= cfg.tol

    def test_a2_polynomial_q_rectangle_converges(self, algebra):
        rs, _, _, _ = algebra("A2")
        cfg = SolverConfig(
            grid=DomainGrid.make("rectangle", 64, 64),
            q=QDifferential.parse("poly:1,0.5+0.2j,0.3", coxeter_number(rs)),
        )
        sol = solve(cfg, _TodaData(rs))
        assert sol.converged
        assert sol.final_residual <= cfg.tol


class TestSigmaDefect:
    def test_b2_trivial_symmetry(self, algebra):
        cfg, data, alg, sl2 = make_config("B2", algebra, init=InitSpec("perturbed", seed=1, amplitude=0.08))
        sol = solve(cfg, data)
        assert sol.converged
        assert sigma_symmetry_defect(sol.omega, diagram_automorphism(data.rs).perm) < 1e-12

    def test_a2_constant_oracle(self, algebra):
        cfg, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("oracle"))
        sol = solve(cfg, data)
        assert sigma_symmetry_defect(sol.omega, diagram_automorphism(data.rs).perm) < 1e-10

    def test_a3_perturbed(self, algebra):
        cfg, data, alg, sl2 = make_config("A3", algebra, init=InitSpec("perturbed", seed=5, amplitude=0.1))
        sol = solve(cfg, data)
        assert sol.converged
        assert sigma_symmetry_defect(sol.omega, diagram_automorphism(data.rs).perm) < 1e-8


class TestUniqueness:
    def test_a1_three_seeds(self, algebra):
        cfg, data, alg, sl2 = make_config("A1", algebra, init=InitSpec("perturbed", amplitude=0.1))
        worst = uniqueness_probe(cfg, [11, 12, 13], data)
        assert worst < 1e-8

    def test_identical_seeds(self, algebra):
        cfg, data, alg, sl2 = make_config("A1", algebra, init=InitSpec("perturbed", amplitude=0.1))
        assert uniqueness_probe(cfg, [3, 3], data) == 0.0

    def test_too_few_converged_runs_raise(self, algebra):
        cfg, data, alg, sl2 = make_config(
            "A1", algebra, max_iter=1, init=InitSpec("perturbed", amplitude=0.1)
        )
        with pytest.raises(RuntimeError, match=r"seeds \[11, 12, 13\]"):
            uniqueness_probe(cfg, [11, 12, 13], data)

    def test_needs_two_seeds(self, algebra):
        cfg, data, alg, sl2 = make_config("A1", algebra)
        with pytest.raises(ValueError):
            uniqueness_probe(cfg, [1], data)

    def test_thread_cap_env(self, monkeypatch, algebra):
        monkeypatch.setenv("TODA_THREADS", "2")
        assert thread_cap() == 2
        cfg, data, alg, sl2 = make_config("A1", algebra, n=16, init=InitSpec("perturbed", amplitude=0.05))
        worst = uniqueness_probe(cfg, [21, 22], data)
        assert worst < 1e-8
        monkeypatch.setenv("TODA_THREADS", "0")
        with pytest.raises(ValueError):
            thread_cap()
        monkeypatch.setenv("TODA_THREADS", "soup")
        with pytest.raises(ValueError):
            thread_cap()


def test_config_validation(algebra):
    grid = DomainGrid.make("torus", 8, 8)
    q = QDifferential.constant(1.0, 2)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, q=q, tol=-1)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, q=q, damping=1.5)
    with pytest.raises(ValueError):
        InitSpec.parse("perturbed:oops")
    assert InitSpec.parse("perturbed:3:0.2") == InitSpec("perturbed", seed=3, amplitude=0.2)
    assert InitSpec.parse("file:/tmp/x.bin").path == "/tmp/x.bin"
