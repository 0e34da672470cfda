"""Solver layer: constant oracle, Newton convergence, symmetry and uniqueness."""
import math

import numpy as np
import pytest

from affinetoda.grids import DomainGrid, QDifferential, constant_field, random_trig_field
from affinetoda.rootdata import diagram_automorphism
from affinetoda.todasolver import (
    InitSpec,
    SolverConfig,
    _TodaData,
    _dst1,
    _generalized_eigh,
    _initial_field,
    _mean_field_preconditioner,
    _newton_step,
    constant_solution,
    jacobian_apply,
    residual,
    sigma_symmetry_defect,
    solve,
)
from conftest import _traced_peak
from oracles import constant_residual, interior_mask, uniqueness_probe


def make_config(name, algebra, n=32, q=1.0, topology="torus", **kw):
    rs, alg, sl2, _ = algebra(name)
    grid = DomainGrid(topology, n, n)
    qd = QDifferential((q,))
    cfg = SolverConfig(grid=grid, q=qd, **kw)
    return cfg, _TodaData(rs), alg, sl2


def test_perturbed_init_is_smooth_across_the_seam(algebra):
    """The bump of ``perturbed:SEED:AMP`` has the torus's own periods, so on
    a torus of extent 1.5 x 0.75 it steps no further across the seam than
    between any two neighbouring interior nodes, along either axis."""
    cfg, data, _, _ = make_config("A2", algebra, init=InitSpec("perturbed", seed=1, amplitude=0.5))
    cfg.grid = DomainGrid("torus", 64, 64, (1.5, 0.75))
    vals = _initial_field(cfg, data, np.ones((64, 64)))
    for axis in (0, 1):
        seam = np.abs(np.take(vals, 0, axis) - np.take(vals, -1, axis)).max()
        assert seam <= np.abs(np.diff(vals, axis=axis)).max(), axis


class TestConstantSolution:
    def test_a1_balanced(self, algebra):
        rs, _, _, _ = algebra("A1")
        data = _TodaData(rs)
        om = constant_solution(data, 0.5)
        assert abs(om[0]) < 1e-12
        assert constant_residual(data, om, 0.5) < 1e-13

    def test_a1_quarter_log_two(self, algebra):
        rs, _, _, _ = algebra("A1")
        data = _TodaData(rs)
        om = constant_solution(data, 1.0)
        # alpha(Omega) = 2 om[0] must equal (1/4) ln 2
        assert abs(2 * om[0] - 0.25 * math.log(2)) < 1e-12
        assert constant_residual(data, om, 1.0) < 1e-13

    @pytest.mark.parametrize("name", ["A2", "G2", "B3", "C3", "D4", "F4"])
    @pytest.mark.parametrize("q2", [0.3, 1.0, 2.7])
    def test_residual_tiny(self, name, q2, algebra):
        rs, _, _, _ = algebra(name)
        data = _TodaData(rs)
        assert constant_residual(data, constant_solution(data, q2), q2) < 1e-13

    def test_a2_against_damped_fixed_point_oracle(self, algebra):
        """Independent oracle: damped fixed-point iteration on the pointwise
        system, no shared code with the closed-form solve."""
        rs, _, _, _ = algebra("A2")
        data = _TodaData(rs)
        q2 = np.array([[1.0]])
        v = np.zeros((1, 1, 2))
        for _ in range(20000):
            v = v - 0.05 * data.pointwise_residual(data.exponentials(v, q2))
        om = constant_solution(data, 1.0)
        assert np.abs(v[0, 0] - om).max() < 1e-10

    def test_rejects_nonpositive(self, algebra):
        rs, _, _, _ = algebra("A1")
        with pytest.raises(ValueError):
            constant_solution(_TodaData(rs), 0.0)


class TestJacobian:
    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_matches_finite_differences(self, name, algebra, rng):
        cfg, data, alg, sl2 = make_config(name, algebra, n=16)
        grid = cfg.grid
        q2 = np.abs(cfg.q.sample(grid)) ** 2
        om0 = constant_solution(data, 1.0)
        vals = constant_field(grid, om0).values + 0.1 * rng.standard_normal(
            (16, 16, data.rs.rank)
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
        om0 = constant_solution(data, 0.7)
        vals = constant_field(grid, om0).values
        s = rng.standard_normal(vals.shape)
        interior = interior_mask(grid)
        s[~interior] = 0.0  # CG keeps rectangle boundary slots at zero
        exps = data.exponentials(vals, q2)
        Hs = jacobian_apply(data, grid, exps, s) @ data.G
        Hs[~interior] = s[~interior]
        back = _mean_field_preconditioner(data, grid, exps)(Hs)
        assert np.abs(back - s).max() < 1e-10 * np.abs(s).max()


class TestScipyReferences:
    """The solver's numpy FFT, eigen and CG code against scipy's."""

    @pytest.mark.parametrize("shape", [(6, 9, 2), (14, 14, 8)])
    def test_dst1_matches_scipy(self, shape, rng):
        from scipy.fft import dstn, idstn

        a = rng.standard_normal(shape)
        ours = _dst1(_dst1(a, 0), 1)
        ref = dstn(a, type=1, axes=(0, 1))
        assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()
        inverse = ours / (4 * (shape[0] + 1) * (shape[1] + 1))
        ref_inverse = idstn(a, type=1, axes=(0, 1))
        assert np.abs(inverse - ref_inverse).max() <= 1e-13 * np.abs(ref_inverse).max()

    @pytest.mark.parametrize("name", ["A2", "G2", "B8", "E8"])
    def test_generalized_eigh_matches_scipy(self, name, algebra, rng):
        from scipy.linalg import eigh

        rs, _, _, _ = algebra(name)
        G = _TodaData(rs).G
        X = rng.standard_normal(G.shape)
        B = X @ X.T + np.eye(len(G))
        mu, V = _generalized_eigh(B, G)
        mu_ref, _ = eigh(B, G)
        assert np.abs(V.T @ G @ V - np.eye(len(G))).max() < 1e-12
        assert np.abs(B @ V - G @ V * mu).max() < 1e-10 * np.abs(B).max()
        assert np.abs(mu - mu_ref).max() < 1e-10 * np.abs(mu_ref).max()

    @pytest.mark.parametrize("name, topology", [("A2", "rectangle"), ("E8", "torus")])
    def test_newton_step_matches_scipy_cg(self, name, topology, algebra):
        from scipy.sparse.linalg import LinearOperator, cg

        cfg, data, _, _ = make_config(name, algebra, n=16, topology=topology)
        grid = cfg.grid
        q2 = np.abs(cfg.q.sample(grid)) ** 2
        om0 = constant_solution(data, 1.0)
        vals = constant_field(grid, om0).values + random_trig_field(
            data.rs.rank, seed=3, amplitude=0.1
        ).sample(grid).values
        exps = data.exponentials(vals, q2)
        R = residual(data, grid, vals, exps)
        step, iters = _newton_step(data, grid, exps, -(R @ data.G))

        shape, interior = vals.shape, interior_mask(grid)

        def apply_H(flat):
            s = flat.reshape(shape)
            Hs = jacobian_apply(data, grid, exps, s) @ data.G
            Hs[~interior] = s[~interior]
            return Hs.ravel()

        precond = _mean_field_preconditioner(data, grid, exps)
        rhs = -(R @ data.G)
        rhs[~interior] = 0.0
        n = rhs.size
        H = LinearOperator((n, n), matvec=apply_H)
        M = LinearOperator((n, n), matvec=lambda x: precond(x.reshape(shape)).ravel())
        counted = []
        ref, info = cg(
            H, rhs.ravel(), rtol=1e-12, atol=0.0, maxiter=40 * 16, M=M, callback=counted.append
        )
        assert info == 0
        assert iters == len(counted) > 0
        assert np.abs(step - ref.reshape(shape)).max() <= 1e-12 * np.abs(ref).max()


class TestTrigField:
    def test_draw_is_pinned(self):
        """The first coefficients of seed 0: a change to the stream of
        ``random.Random`` or to the draw order shows up here."""
        field = random_trig_field(2, seed=0)
        assert field.coeffs.shape == (2, 5, 5)
        np.testing.assert_array_equal(
            field.coeffs[0, 0, :3],
            [
                0.09417154046806644 + 0.03575000483644121j,
                -0.139657810470115 - 0.10298048045363971j,
                -0.0679714448078421 + 0.07685090969541893j,
            ],
        )
        assert field.coeffs[1, 4, 4] == 0.26116075272560474 - 0.07513264535331379j

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_trig_field(2, seed=-1)

    @pytest.mark.parametrize(
        "grid, extent",
        [
            (DomainGrid("torus", 16, 16), (1.0, 1.0)),
            (DomainGrid("rectangle", 24, 10, (2.0, 0.7)), (2.0, 0.7)),
        ],
        ids=["torus", "rectangle"],
    )
    def test_separable_sample_is_the_mode_sum(self, grid, extent):
        field = random_trig_field(3, seed=5, amplitude=0.7, extent=extent)
        X, Y = grid.xy()
        K = 2
        direct = np.zeros((grid.nx, grid.ny, 3))
        for a in range(3):
            for ikx in range(2 * K + 1):
                for iky in range(2 * K + 1):
                    phase = 2 * np.pi * ((ikx - K) * X / extent[0] + (iky - K) * Y / extent[1])
                    direct[..., a] += (field.coeffs[a, ikx, iky] * np.exp(1j * phase)).real
        sampled = field.sample(grid).values
        assert sampled.flags.c_contiguous
        assert np.abs(sampled - direct).max() < 1e-14


class TestSolve:
    @pytest.mark.parametrize("topology", ["torus", "rectangle"])
    def test_one_evaluation_per_point(self, topology, algebra, monkeypatch):
        """A solve evaluates the residual once at the initial field and once
        per line-search trial, each time with exponentials formed for it and
        at a point not evaluated before; the Newton step forms none.  The
        accepted trial carries its evaluation to the next step."""
        import affinetoda.todasolver as ts

        cfg, data, _, _ = make_config(
            "A2", algebra, n=16, topology=topology, init=InitSpec("perturbed", seed=3, amplitude=0.5)
        )
        log = []
        exponentials, residual_of, newton_step = data.exponentials, ts.residual, ts._newton_step

        def counted_exponentials(vals, q2):
            log.append(("exponentials", vals))
            return exponentials(vals, q2)

        def counted_residual(data, grid, vals, exps):
            log.append(("residual", vals))
            return residual_of(data, grid, vals, exps)

        def counted_step(*args):
            log.append(("step", None))
            step, its = newton_step(*args)
            log.append(("step end", None))
            if len(log) == 4:  # the first step: overshoot it 4x, so its line search backtracks
                step = 4 * step
            return step, its

        monkeypatch.setattr(data, "exponentials", counted_exponentials)
        monkeypatch.setattr(ts, "residual", counted_residual)
        monkeypatch.setattr(ts, "_newton_step", counted_step)
        sol = solve(cfg, data)
        assert sol.converged and sol.iterations > 1

        kinds = [kind for kind, _ in log]
        steps = [i for i, kind in enumerate(kinds) if kind == "step"]
        assert len(steps) == len(sol.cg_iterations) == sol.iterations
        assert all(kinds[i + 1] == "step end" for i in steps)  # no evaluation inside a step
        evaluations = [(kind, vals) for kind, vals in log if kind.startswith(("exp", "res"))]
        assert kinds.count("exponentials") == kinds.count("residual")
        for (k1, v1), (k2, v2) in zip(evaluations[::2], evaluations[1::2]):
            assert (k1, k2) == ("exponentials", "residual") and v1 is v2
        trials = kinds[steps[0]:].count("residual")
        assert kinds.count("residual") == 1 + trials and trials > len(steps)
        points = [vals for kind, vals in log if kind == "residual"]
        for i in range(len(points)):
            for j in range(i):
                assert not np.array_equal(points[i], points[j])

    @pytest.mark.parametrize("topology", ["torus", "rectangle"])
    @pytest.mark.parametrize("max_iter", [60, 0, 2])
    def test_history_belongs_to_the_returned_field(self, topology, max_iter, algebra):
        """One residual per iterate and one CG solve per step, whether the
        solve converged or stopped at max_iter; the last residual is that of
        the field returned."""
        cfg, data, _, _ = make_config(
            "A2", algebra, n=16, topology=topology, max_iter=max_iter,
            init=InitSpec("perturbed", seed=3, amplitude=0.5),
        )
        sol = solve(cfg, data)
        assert sol.converged == (max_iter == 60)
        assert sol.iterations == max_iter or sol.converged
        assert len(sol.residual_history) == sol.iterations + 1
        assert len(sol.cg_iterations) == sol.iterations
        vals, grid = sol.omega.values, cfg.grid
        exps = data.exponentials(vals, np.abs(cfg.q.sample(grid)) ** 2)
        fresh = grid.max_norm(np.abs(residual(data, grid, vals, exps)).max(axis=-1))
        assert sol.residual_history[-1] == fresh

    def test_oracle_init_converges_immediately(self, algebra):
        cfg, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("oracle"))
        sol = solve(cfg, data)
        assert sol.converged
        assert sol.iterations <= 2
        assert sol.residual_history[-1] < cfg.tol

    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_perturbed_init_returns_to_oracle(self, name, algebra):
        cfg, data, alg, sl2 = make_config(
            name, algebra, init=InitSpec("perturbed", seed=4, amplitude=0.1)
        )
        sol = solve(cfg, data)
        assert sol.converged
        om0 = constant_solution(data, 1.0)
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
        R = residual(data, cfg.grid, sol.omega.values, data.exponentials(sol.omega.values, q2))
        assert cfg.grid.max_norm(np.abs(R).max(axis=-1)) < cfg.tol

    def test_rectangle_oracle_boundary_curvature(self, algebra):
        from affinetoda.connection import summary_norms

        cfg, data, alg, sl2 = make_config(
            "A1", algebra, n=24, topology="rectangle", init=InitSpec("oracle")
        )
        sol = solve(cfg, data)
        assert sol.converged
        assert summary_norms(sol.omega, cfg.q, data)["curvature"] <= 10 * cfg.tol

    def test_phase_of_q_is_irrelevant(self, algebra):
        base, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("perturbed", seed=9, amplitude=0.05))
        rotated = SolverConfig(
            grid=base.grid,
            q=QDifferential((np.exp(1j * 0.7),)),
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
        from affinetoda.connection import summary_norms

        cfg, data, alg, sl2 = make_config("A2", algebra, init=InitSpec("perturbed", seed=3, amplitude=0.1))
        sol = solve(cfg, data)
        assert sol.converged
        assert summary_norms(sol.omega, cfg.q, data)["curvature"] <= 10 * cfg.tol


@pytest.mark.parametrize("n, topology, bound", [(128, "torus", 11), (64, "rectangle", 16)])
def test_solve_working_memory(n, topology, bound, algebra):
    """The Newton loop forms its temporaries in place in arrays it holds
    anyway and frees R once CG's r = -(R @ G) exists: a second A2 solve
    peaks at no more than 11 fields on a 128^2 torus and 16 on a 64^2
    rectangle (15.3 and 20.5 with a new array for every update), a field
    being the n^2 l float64 values of Omega."""
    rs, _, _, _ = algebra("A2")
    cfg = SolverConfig(
        grid=DomainGrid(topology, n, n),
        q=QDifferential((0.8 - 0.3j,)),
        init=InitSpec("perturbed", seed=1, amplitude=0.2),
    )
    data = _TodaData(rs)
    solve(cfg, data)  # per-type caches
    peak = _traced_peak(lambda: solve(cfg, data))
    field = n * n * rs.rank * 8
    assert peak <= bound * field, peak / field


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
        assert sol.residual_history[-1] <= cfg.tol

    def test_a2_polynomial_q_rectangle_converges(self, algebra):
        rs, _, _, _ = algebra("A2")
        cfg = SolverConfig(
            grid=DomainGrid("rectangle", 64, 64),
            q=QDifferential.parse("poly:1,0.5+0.2j,0.3"),
        )
        sol = solve(cfg, _TodaData(rs))
        assert sol.converged
        assert sol.residual_history[-1] <= cfg.tol


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


def test_config_validation(algebra):
    grid = DomainGrid("torus", 8, 8)
    q = QDifferential((1.0,))
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, q=q, tol=-1)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, q=q, damping=1.5)
    with pytest.raises(ValueError):
        InitSpec.parse("perturbed:oops")
    spec = InitSpec.parse("perturbed:3:0.2")
    assert (spec.kind, spec.seed, spec.amplitude, spec.path) == ("perturbed", 3, 0.2, None)
    with pytest.raises(ValueError, match="'perturbed:-1:0.1' has a negative seed"):
        InitSpec.parse("perturbed:-1:0.1")
    assert InitSpec.parse("file:/tmp/x.bin").path == "/tmp/x.bin"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: QDifferential(()), "at least one coefficient"),
        (lambda: QDifferential((1.0, float("nan"))), "non-finite coefficient"),
        (lambda: QDifferential((complex(0.5, float("inf")),)), "non-finite coefficient"),
        (lambda: InitSpec("perturbed", seed=1, amplitude=float("nan")), "non-finite amplitude"),
        (lambda: InitSpec("perturbed", seed=1, amplitude=float("-inf")), "non-finite amplitude"),
        (lambda: InitSpec("perturbed", seed=-1, amplitude=0.1), "negative seed"),
        (lambda: InitSpec("bogus"), "unknown kind 'bogus'"),
        (lambda: InitSpec("file"), "no path"),
        (lambda: InitSpec("file", path=""), "no path"),
    ],
    ids=["q-empty", "q-nan", "q-infinite-imag", "init-nan", "init-minus-inf", "init-seed",
         "init-kind", "init-file-without-path", "init-file-empty-path"],
)
def test_constructors_check_their_invariants(make, message):
    """A q with no coefficient or a non-finite one, and an init of an
    unknown kind, of kind ``file`` without a path, with a non-finite
    amplitude or a negative seed, are refused where they are made, not only
    by the parsers of their CLI specifications."""
    with pytest.raises(ValueError, match=message):
        make()
