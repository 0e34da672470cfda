"""Connection layer: gauges, curvature, residuals, chart transitions, I/O."""
import tracemalloc

import numpy as np
import pytest

from affinetoda.cli import _summary
from affinetoda.connection import (
    build_toda_connection,
    char_scale,
    chart_transition,
    commutator_defect,
    conjugate_star,
    curvature,
    embed_cartan,
    equivalence_defect,
    gauge_transform,
)
from affinetoda.grids import (
    DomainGrid,
    HFieldGrid,
    QDifferential,
    constant_field,
    random_trig_field,
    read_field_binary,
    write_field_binary,
)
from affinetoda.rootdata import coxeter_number, diagram_automorphism
from affinetoda.todasolver import _TodaData
from conftest import connection_parts, elliptic_residual, reference_bracket, scatter


def make_omega(name, algebra, seed=3, amplitude=0.15, n=16, topology="torus"):
    rs, alg, sl2, cox = algebra(name)
    grid = DomainGrid.make(topology, n, n)
    field = random_trig_field(rs.rank, seed=seed, amplitude=amplitude)
    nu = diagram_automorphism(rs)
    field = field.symmetrized(nu.perm)
    return grid, field.sample(grid)


def test_zero_field_zero_q_connection(algebra):
    rs, alg, _, _ = algebra("A2")
    grid = DomainGrid.make("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    q = QDifferential.constant(0.0, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    assert np.abs(conn.A_z).max() == 0 and np.abs(conn.A_zbar).max() == 0
    phi = scatter(alg, conn.slots, conn.phi)
    for i in range(rs.rank):
        lo = alg.root_index(tuple(-c for c in rs.simple_root(i)))
        expect = float(rs.x_coefficients[i]) ** 0.5
        assert np.allclose(phi[..., lo], expect)
    assert np.abs(phi[..., alg.highest_root_index]).max() == 0


def test_a1_higgs_gauge_layout(algebra):
    rs, alg, sl2, _ = algebra("A1")
    grid = DomainGrid.make("torus", 8, 8)
    omega = constant_field(grid, [0.0])
    q = QDifferential.constant(1.0, 2)
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "higgs")
    assert list(conn.slots) == [0, 1, 2]  # the simple root is the highest root
    phi = scatter(alg, conn.slots, conn.phi)
    lo = alg.root_index((-1,))
    hi = alg.root_index((1,))
    assert np.allclose(phi[..., lo], 0.5 ** 0.5)
    assert np.allclose(phi[..., hi], 1.0)  # lowest affine slot carries q
    assert np.abs(conn.A_zbar).max() == 0


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
@pytest.mark.parametrize("gauge", ["toda", "higgs"])
def test_psi_is_phi_star(name, gauge, algebra):
    rs, alg, sl2, _ = algebra(name)
    grid, omega = make_omega(name, algebra)
    q = QDifferential.constant(0.8 - 0.3j, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), gauge)
    star = conjugate_star(conn, alg)
    assert np.abs(conn.psi - star).max() < 1e-12


def test_curvature_zero_field_a2(algebra):
    rs, alg, _, _ = algebra("A2")
    grid = DomainGrid.make("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    q = QDifferential.constant(0.0, 3)
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    F = curvature(conn, alg)
    # [E-, E+] = - sum_i r_i h_i = -x
    expect = -embed_cartan(np.broadcast_to(
        np.array([float(c) for c in rs.x_coefficients]), (8, 8, 2)), len(conn.slots))
    assert np.abs(F - expect).max() < 1e-13


def test_curvature_of_constant_oracle_vanishes(algebra):
    from affinetoda.todasolver import constant_solution

    rs, alg, sl2, _ = algebra("A2")
    grid = DomainGrid.make("torus", 16, 16)
    om0, _ = constant_solution(_TodaData(rs), 1.0)
    omega = constant_field(grid, om0)
    q = QDifferential.constant(1.0, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    F = curvature(conn, alg)
    assert np.abs(F).max() < 1e-10


def test_gauge_transform_identity(algebra):
    rs, alg, sl2, _ = algebra("A2")
    grid, omega = make_omega("A2", algebra)
    q = QDifferential.constant(1.0, 3)
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    H = constant_field(grid, [0.0, 0.0])
    out = gauge_transform(conn, H, alg)
    assert out.gauge == "toda"
    for a, b in [(out.A_z, conn.A_z), (out.A_zbar, conn.A_zbar), (out.phi, conn.phi), (out.psi, conn.psi)]:
        assert np.abs(a - b).max() == 0


def test_gauge_transform_omega_reaches_higgs(algebra):
    rs, alg, sl2, _ = algebra("A2")
    grid, omega = make_omega("A2", algebra)
    q = QDifferential.constant(1.0, 3)
    toda = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    higgs = build_toda_connection(omega, q, alg, _TodaData(rs), "higgs")
    moved = gauge_transform(toda, omega, alg)
    assert moved.gauge == "higgs"
    assert np.abs(moved.A_zbar).max() < 1e-14
    for a, b in [(moved.A_z, higgs.A_z), (moved.phi, higgs.phi), (moved.psi, higgs.psi)]:
        assert np.abs(a - b).max() < 1e-12


def test_gauge_transform_constant_character_scaling(algebra):
    rs, alg, sl2, _ = algebra("B2")
    grid, omega = make_omega("B2", algebra)
    q = QDifferential.constant(1.0, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    hvec = np.array([0.23, -0.41])
    out = gauge_transform(conn, constant_field(grid, hvec), alg)
    assert np.array_equal(out.slots, conn.slots)
    phi, phi0 = scatter(alg, out.slots, out.phi), scatter(alg, conn.slots, conn.phi)
    P = np.array([[rs.cartan_matrix[a][i] for a in range(2)] for i in range(2)])
    for i in range(rs.rank):
        lo = alg.root_index(tuple(-c for c in rs.simple_root(i)))
        scale = np.exp(-(P[i] @ hvec))
        assert np.abs(phi[..., lo] - phi0[..., lo] * scale).max() < 1e-13


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_gauge_covariance_constant_h(name, algebra, rng):
    rs, alg, sl2, _ = algebra(name)
    grid, omega = make_omega(name, algebra)
    q = QDifferential.constant(1.0, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    F = curvature(conn, alg)
    for _ in range(3):
        hvec = rng.standard_normal(rs.rank) * 0.5
        H = constant_field(grid, hvec)
        F2 = curvature(gauge_transform(conn, H, alg), alg)
        expect = char_scale(alg, F, H.values, conn.slots)
        assert np.abs(F2 - expect).max() < 1e-10


def test_gauge_covariance_varying_h_second_order(algebra):
    """For position-dependent H the discrete covariance identity holds to
    O(dx^2); check the defect shrinks by ~4x under refinement."""
    rs, alg, sl2, _ = algebra("A1")
    q = QDifferential.constant(1.0, 2)
    omf = random_trig_field(1, seed=11, amplitude=0.2)
    hf = random_trig_field(1, seed=12, amplitude=0.3)
    defects = []
    for n in (16, 32):
        grid = DomainGrid.make("torus", n, n)
        omega = omf.sample(grid)
        H = hf.sample(grid)
        conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
        F2 = curvature(gauge_transform(conn, H, alg), alg)
        expect = char_scale(alg, curvature(conn, alg), H.values, conn.slots)
        defects.append(np.abs(F2 - expect).max())
    ratio = defects[0] / defects[1]
    assert 2.5 < ratio < 6.0


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "D4", "E8"])
@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_slot_curvature_matches_dense_reference(name, topology, algebra):
    """The curvature built on the Toda slots, scattered into g, against one
    built over all of g from dense derivatives and the reference bracket,
    which is exactly zero off the slots."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, n=8, topology=topology)
    q = QDifferential.polynomial([0.9, 0.4 - 0.2j], coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    assert len(conn.slots) == (3 if name == "A1" else 3 * rs.rank + 2)
    assert list(conn.slots[: rs.rank]) == list(range(rs.rank))
    az, azbar = (scatter(alg, conn.slots, part) for part in connection_parts(conn))
    ref = grid.d_dz(azbar) - grid.d_dzbar(az) + reference_bracket(alg, az, azbar)
    off = np.ones(alg.dim, dtype=bool)
    off[conn.slots] = False
    assert not np.any(ref[..., off])
    got = scatter(alg, conn.slots, curvature(conn, alg))
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
@pytest.mark.parametrize("topology", ["torus", "rectangle"])
@pytest.mark.parametrize("moved", [False, True])
def test_column_curvature_is_the_dense_formula(name, topology, moved, algebra):
    """The curvature formed one slot column at a time equals, bit for bit,
    the dense formula over all slots, in the Toda gauge and after a gauge
    transformation."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, topology=topology)
    q = QDifferential.polynomial([0.9, 0.4 - 0.2j], coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    if moved:
        H = random_trig_field(rs.rank, seed=5, amplitude=0.2).sample(grid)
        conn = gauge_transform(conn, H, alg)
    az, azbar = connection_parts(conn)
    dense = grid.d_dz(azbar) - grid.d_dzbar(az) + alg.bracket(az, azbar, conn.slots)
    assert np.array_equal(curvature(conn, alg), dense)


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_summary_norms_are_the_equivalence_norms(name, topology, algebra):
    """The solve/verify summary reduces the curvature column by column to
    the same norms that ``equivalence_defect`` takes of the whole of F."""
    rs, alg, _, _ = algebra(name)
    _, omega = make_omega(name, algebra, topology=topology)
    q = QDifferential.polynomial([0.9, 0.4 - 0.2j], coxeter_number(rs))
    data = _TodaData(rs)
    F = curvature(build_toda_connection(omega, q, alg, data, "toda"), alg)
    curv, res, _ = equivalence_defect(omega, q, data, F)
    summary = _summary(omega, q, alg, data)
    assert summary["curvature_norm"] == curv
    assert summary["residual"] == res


@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_summary_working_memory(topology, algebra):
    """The summary never holds the curvature or the full parts A_z + Phi,
    A_zbar + Psi: beyond the connection (A_z and A_zbar on the Cartan
    only) it keeps a few slot columns."""
    rs, alg, _, _ = algebra("A2")
    _, omega = make_omega("A2", algebra, n=64, topology=topology)
    q = QDifferential.constant(0.8 - 0.3j, coxeter_number(rs))
    data = _TodaData(rs)
    _summary(omega, q, alg, data)  # per-type caches
    tracemalloc.start()
    try:
        _summary(omega, q, alg, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = 64 * 64 * (3 * rs.rank + 2) * 16  # one (points, slots) complex array
    assert peak <= 5.5 * one, peak / one


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
def test_slot_bracket_is_the_dense_bracket(name, algebra):
    """On the slots the bracket forms the same terms in the same order as
    over all of g, so the two agree bit for bit."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, n=8)
    q = QDifferential.constant(0.8 - 0.3j, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    az, azbar = connection_parts(conn)
    dense = alg.bracket(scatter(alg, conn.slots, az), scatter(alg, conn.slots, azbar))
    assert np.array_equal(scatter(alg, conn.slots, alg.bracket(az, azbar, conn.slots)), dense)


def test_slot_bracket_working_memory(algebra):
    """The bracket adds its terms into the output one at a time: beyond the
    output it holds only points-sized products, never a (points, terms)
    array of them."""
    rs, alg, _, _ = algebra("A2")
    _, omega = make_omega("A2", algebra, n=64)
    q = QDifferential.constant(0.8 - 0.3j, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    az, azbar = connection_parts(conn)
    tracemalloc.start()
    try:
        out = alg.bracket(az, azbar, conn.slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == az.shape
    assert peak <= 2 * out.nbytes, (peak, out.nbytes)


@pytest.mark.parametrize("name", ["A1", "A2", "E8"])
def test_slot_bracket_checks_closure(name, algebra):
    """Dropping a slot that a formed term lands on is an error, not a
    silently lost term."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, n=8)
    q = QDifferential.constant(1.0, coxeter_number(rs))
    conn = build_toda_connection(omega, q, alg, _TodaData(rs), "toda")
    az, azbar = connection_parts(conn)
    # [e_-alpha_1, e_alpha_1] lands on h_1, the first slot
    keep = np.arange(1, len(conn.slots))
    with pytest.raises(RuntimeError, match="leaves the given slots"):
        alg.bracket(az[..., keep], azbar[..., keep], conn.slots[keep])
    if rs.rank >= 2:
        # [e_alpha_1, e_alpha_2] lands on alpha_1 + alpha_2, which is not a slot
        simple = [alg.root_index(rs.simple_root(i)) for i in range(2)]
        with pytest.raises(RuntimeError, match="leaves the given slots"):
            alg.bracket(np.array([1.0, 0.0]), np.array([0.0, 1.0]), simple)
        assert not np.any(alg.bracket(np.array([1.0, 0.0]), np.array([1.0, 0.0]), simple))


class TestHiggsResidual:
    def test_a1_sinh_gordon_reduction(self, algebra):
        rs, _, _, _ = algebra("A1")
        grid = DomainGrid.make("torus", 16, 16)
        u_field = random_trig_field(1, seed=5, amplitude=0.3).sample(grid)
        u = u_field.values[..., 0]
        omega = HFieldGrid(grid, (u / 2)[..., None])
        qval = 0.6 + 0.1j
        q = QDifferential.constant(qval, 2)
        R = elliptic_residual(omega, q, rs)
        expect = -0.25 * grid.laplacian(u) + 0.5 * np.exp(2 * u) - abs(qval) ** 2 * np.exp(-2 * u)
        assert np.abs(R[..., 0] - expect).max() < 1e-12

    def test_a1_balanced_point(self, algebra):
        rs, _, _, _ = algebra("A1")
        grid = DomainGrid.make("torus", 8, 8)
        omega = constant_field(grid, [0.0])
        q = QDifferential.constant(0.5 ** 0.5, 2)
        R = elliptic_residual(omega, q, rs)
        assert np.abs(R).max() < 1e-15

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_bracket_matches_closed_form(self, name, algebra, rng):
        rs, alg, sl2, _ = algebra(name)
        grid = DomainGrid.make("torus", 8, 8)
        for trial in range(5):
            vals = 0.2 * rng.standard_normal((8, 8, rs.rank))
            omega = HFieldGrid(grid, vals)
            q = QDifferential.constant(
                rng.standard_normal() + 1j * rng.standard_normal(), coxeter_number(rs)
            )
            assert commutator_defect(omega, q, alg, _TodaData(rs)) < 1e-12


class TestEquivalence:
    def test_curvature_equals_minus_residual_to_discretization(self, algebra):
        rs, alg, sl2, _ = algebra("A2")
        q = QDifferential.constant(1.0, 3)
        field = random_trig_field(2, seed=7, amplitude=0.2)
        nu = diagram_automorphism(rs)
        field = field.symmetrized(nu.perm)
        mism = []
        data = _TodaData(rs)
        for n in (16, 32, 64):
            grid = DomainGrid.make("torus", n, n)
            omega = field.sample(grid)
            F = curvature(build_toda_connection(omega, q, alg, data, "toda"), alg)
            fn, rn, mn = equivalence_defect(omega, q, data, F)
            assert abs(fn - rn) <= mn + 1e-12
            mism.append(mn)
        assert 2.8 < mism[0] / mism[1] < 5.5
        assert 3.0 < mism[1] / mism[2] < 5.2


class TestChartTransition:
    def test_identity(self, algebra):
        _, alg, sl2, _ = algebra("A2")
        X = np.arange(alg.dim, dtype=complex)
        assert np.abs(chart_transition(X, 1.0, alg, np.arange(alg.dim)) - X).max() == 0

    def test_height_scaling(self, algebra):
        rs, alg, _, _ = algebra("A2")
        lo = alg.root_index(tuple(-c for c in rs.simple_root(0)))
        X = np.zeros(alg.dim, dtype=complex)
        X[lo] = 3.0
        out = chart_transition(X, 2.0, alg, np.arange(alg.dim))
        assert out[lo] == 3.0 / 2.0  # height -1 slot picks up g^-1

    def test_zero_transition_rejected(self, algebra):
        _, alg, _, _ = algebra("A2")
        with pytest.raises(ValueError):
            chart_transition(np.zeros(alg.dim), 0.0, alg, np.arange(alg.dim))

    def test_two_chart_field_agreement(self, algebra):
        """Target chart w = 2z. Transporting the source-chart field with
        g = dz/dw = 1/2 and canonical weight 1 must reproduce the field
        built natively on the target chart (with q scaled accordingly)."""
        rs, alg, sl2, _ = algebra("A2")
        h = coxeter_number(rs)
        n = 12
        grid_j = DomainGrid.make("rectangle", n, n, extent=(1.0, 1.0))
        grid_i = DomainGrid.make("rectangle", n, n, extent=(2.0, 2.0))
        field = random_trig_field(2, seed=9, amplitude=0.1)
        omega_j = field.sample(grid_j)
        # same physical nodes; the target-chart field adds log|g_ij| x
        fx = np.log(2.0)
        xc = np.array([float(c) for c in rs.x_coefficients])
        omega_i = HFieldGrid(grid_i, omega_j.values + fx * xc)
        qj = QDifferential.polynomial([0.9, 0.4 - 0.2j], h)
        qi = QDifferential.polynomial(
            [0.9 * 0.5 ** h, (0.4 - 0.2j) * 0.5 ** (h + 1)], h
        )  # q_i(w) = q_j(w/2) * (1/2)^h
        conn_j = build_toda_connection(omega_j, qj, alg, _TodaData(rs), "higgs")
        conn_i = build_toda_connection(omega_i, qi, alg, _TodaData(rs), "higgs")
        moved = chart_transition(conn_j.phi, 0.5, alg, conn_j.slots, form_degree=1)
        assert np.abs(moved - conn_i.phi).max() < 1e-12


class TestIO:
    def test_binary_round_trip(self, tmp_path, rng):
        grid = DomainGrid.make("torus", 8, 10)
        vals = rng.standard_normal((8, 10, 3))
        f = HFieldGrid(grid, vals)
        p = str(tmp_path / "omega.bin")
        write_field_binary(p, f)
        g = read_field_binary(p)
        assert np.array_equal(g.values, vals)

    def test_binary_magic_check(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_field_binary(str(p))


def test_bad_gauge_and_degree(algebra):
    rs, alg, sl2, _ = algebra("A2")
    grid = DomainGrid.make("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    with pytest.raises(ValueError):
        build_toda_connection(omega, QDifferential.constant(1.0, 3), alg, _TodaData(rs), "weird")
    with pytest.raises(ValueError):
        build_toda_connection(omega, QDifferential.constant(1.0, 7), alg, _TodaData(rs), "toda")
