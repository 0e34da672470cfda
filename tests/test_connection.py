"""Connection layer: gauges, curvature, residuals, chart transitions, I/O."""
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinetoda import cli, connection
from affinetoda.cli import _summary
from affinetoda.connection import (
    TodaSlots,
    _block_maxima,
    _row_blocks,
    char_scale,
    check_norms,
    summary_norms,
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
from affinetoda.todasolver import InitSpec, SolverConfig, _TodaData, solve
from conftest import (
    ALL_TYPES,
    _traced_peak,
    chevalley_slots,
    connection_parts,
    dense_bracket,
    elliptic_residual,
    embed_cartan,
    reference_bracket,
    scatter,
    slot_fields,
)
from oracles import (
    build_toda_connection,
    cartan_bracket,
    characters,
    chart_transition,
    commutator_defect,
    conjugate_star,
    curvature,
    equivalence_defect,
    gauge_covariance_defect,
    gauge_transform,
    interior_mask,
    rho_hat,
    sigma_matrix,
)


def make_omega(name, algebra, seed=3, amplitude=0.15, n=16, topology="torus"):
    rs, alg, sl2, cox = algebra(name)
    grid = DomainGrid(topology, n, n)
    field = random_trig_field(rs.rank, seed=seed, amplitude=amplitude)
    nu = diagram_automorphism(rs)
    field = field.symmetrized(nu.perm)
    return grid, field.sample(grid)


def test_zero_field_zero_q_connection(algebra):
    rs, alg, _, _ = algebra("A2")
    grid = DomainGrid("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    q = QDifferential((0.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    assert np.abs(conn.A_z).max() == 0 and np.abs(conn.A_zbar).max() == 0
    phi = scatter(alg, conn.slots, slot_fields(conn)[0])
    for i in range(rs.rank):
        lo = alg.root_index(tuple(-c for c in rs.simple_root(i)))
        expect = float(rs.x_coefficients[i]) ** 0.5
        assert np.allclose(phi[..., lo], expect)
    assert np.abs(phi[..., alg.root_index(alg.rs.highest_root)]).max() == 0


def test_a1_higgs_gauge_layout(algebra):
    rs, alg, sl2, _ = algebra("A1")
    grid = DomainGrid("torus", 8, 8)
    omega = constant_field(grid, [0.0])
    q = QDifferential((1.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "higgs")
    assert list(chevalley_slots(alg, conn.slots)) == [0, 1, 2]  # the simple root is the highest root
    phi = scatter(alg, conn.slots, slot_fields(conn)[0])
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
    q = QDifferential((0.8 - 0.3j,))
    conn = build_toda_connection(omega, q, _TodaData(rs), gauge)
    star = conjugate_star(conn)
    assert np.abs(conn.psi - star).max() < 1e-12


def test_curvature_zero_field_a2(algebra):
    rs, alg, _, _ = algebra("A2")
    grid = DomainGrid("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    q = QDifferential((0.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    F = curvature(conn)
    # [E-, E+] = - sum_i r_i h_i = -x
    expect = -embed_cartan(np.broadcast_to(
        np.array([float(c) for c in rs.x_coefficients]), (8, 8, 2)), conn.slots.n)
    assert np.abs(F - expect).max() < 1e-13


def test_curvature_of_constant_oracle_vanishes(algebra):
    from affinetoda.todasolver import constant_solution

    rs, alg, sl2, _ = algebra("A2")
    grid = DomainGrid("torus", 16, 16)
    om0 = constant_solution(_TodaData(rs), 1.0)
    omega = constant_field(grid, om0)
    q = QDifferential((1.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    F = curvature(conn)
    assert np.abs(F).max() < 1e-10


def test_gauge_transform_identity(algebra):
    rs, alg, sl2, _ = algebra("A2")
    grid, omega = make_omega("A2", algebra)
    q = QDifferential((1.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    H = constant_field(grid, [0.0, 0.0])
    out = gauge_transform(conn, H)
    assert out.gauge == "toda"
    for a, b in [(out.A_z, conn.A_z), (out.A_zbar, conn.A_zbar), (out.phi, conn.phi), (out.psi, conn.psi)]:
        assert np.abs(a - b).max() == 0


def test_gauge_transform_omega_reaches_higgs(algebra):
    rs, alg, sl2, _ = algebra("A2")
    grid, omega = make_omega("A2", algebra)
    q = QDifferential((1.0,))
    toda = build_toda_connection(omega, q, _TodaData(rs), "toda")
    higgs = build_toda_connection(omega, q, _TodaData(rs), "higgs")
    moved = gauge_transform(toda, omega)
    assert moved.gauge == "higgs"
    assert np.abs(moved.A_zbar).max() < 1e-14
    for a, b in [(moved.A_z, higgs.A_z), (moved.phi, higgs.phi), (moved.psi, higgs.psi)]:
        assert np.abs(a - b).max() < 1e-12


def test_gauge_transform_constant_character_scaling(algebra):
    rs, alg, sl2, _ = algebra("B2")
    grid, omega = make_omega("B2", algebra)
    q = QDifferential((1.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    hvec = np.array([0.23, -0.41])
    out = gauge_transform(conn, constant_field(grid, hvec))
    assert out.slots is conn.slots
    phi, phi0 = (scatter(alg, c.slots, slot_fields(c)[0]) for c in (out, conn))
    P = np.array([[rs.cartan_matrix[a][i] for a in range(2)] for i in range(2)])
    for i in range(rs.rank):
        lo = alg.root_index(tuple(-c for c in rs.simple_root(i)))
        scale = np.exp(-(P[i] @ hvec))
        assert np.abs(phi[..., lo] - phi0[..., lo] * scale).max() < 1e-13


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_gauge_covariance_constant_h(name, algebra, rng):
    rs, alg, sl2, _ = algebra(name)
    grid, omega = make_omega(name, algebra)
    q = QDifferential((1.0,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    F = curvature(conn)
    for _ in range(3):
        hvec = rng.standard_normal(rs.rank) * 0.5
        H = constant_field(grid, hvec)
        F2 = curvature(gauge_transform(conn, H))
        expect = char_scale(F, H.values, conn.slots.characters)
        assert np.abs(F2 - expect).max() < 1e-10


def test_gauge_covariance_varying_h_second_order(algebra):
    """For position-dependent H the discrete covariance identity holds to
    O(dx^2); check the defect shrinks by ~4x under refinement."""
    rs, alg, sl2, _ = algebra("A1")
    q = QDifferential((1.0,))
    omf = random_trig_field(1, seed=11, amplitude=0.2)
    hf = random_trig_field(1, seed=12, amplitude=0.3)
    defects = []
    for n in (16, 32):
        grid = DomainGrid("torus", n, n)
        omega = omf.sample(grid)
        H = hf.sample(grid)
        conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
        F2 = curvature(gauge_transform(conn, H))
        expect = char_scale(curvature(conn), H.values, conn.slots.characters)
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
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    assert conn.slots.n == (3 if name == "A1" else 3 * rs.rank + 2)
    assert list(chevalley_slots(alg, conn.slots)[: rs.rank]) == list(range(rs.rank))
    az, azbar = (scatter(alg, conn.slots, part) for part in connection_parts(conn))
    ref = grid.d_dz(azbar) - grid.d_dzbar(az) + reference_bracket(alg, az, azbar)
    off = np.ones(alg.dim, dtype=bool)
    off[chevalley_slots(alg, conn.slots)] = False
    assert not np.any(ref[..., off])
    got = scatter(alg, conn.slots, curvature(conn))
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _split_form_defect(alg, sl2, conn):
    """Max over the nodes and over A_x = (A_z + Phi) + (A_zbar + Psi) and
    A_y = i ((A_z + Phi) - (A_zbar + Psi)) of |lambda_hat(M) - M|, with
    lambda_hat = sigma o rho_hat the split-form anti-involution."""
    az, azbar = (scatter(alg, conn.slots, part) for part in connection_parts(conn))
    S = sigma_matrix(sl2)
    return max(np.abs(rho_hat(alg, M) @ S.T - M).max() for M in (az + azbar, 1j * (az - azbar)))


@pytest.mark.parametrize("q", ["const:0.8-0.3j", "poly:1,0.5+0.2j,0.3"])
@pytest.mark.parametrize("name", ALL_TYPES)
def test_sigma_fixed_field_connection_is_in_the_split_real_form(name, q, algebra):
    """The Toda-gauge connection of a sigma-fixed Omega lies in the split
    real form: lambda_hat fixes A_x and A_y at every node to roundoff.  So
    ``sigma_defect``, the distance of Omega from sigma-fixed, measures how
    far the connection is from that real form.  Flipping the sign of Psi's
    q column moves it off by more than 1, whatever the type."""
    rs, alg, sl2, _ = algebra(name)
    grid = DomainGrid("torus", 12, 12)
    field = random_trig_field(rs.rank, seed=5, amplitude=0.3)
    omega = field.symmetrized(diagram_automorphism(rs).perm).sample(grid)
    conn = build_toda_connection(omega, QDifferential.parse(q), _TodaData(rs), "toda")
    assert _split_form_defect(alg, sl2, conn) <= 1e-14
    conn.psi[..., -1] *= -1
    assert _split_form_defect(alg, sl2, conn) > 1


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
@pytest.mark.parametrize("topology", ["torus", "rectangle"])
@pytest.mark.parametrize("moved", [False, True])
def test_column_curvature_is_the_dense_formula(name, topology, moved, algebra):
    """The curvature formed one slot column at a time equals, bit for bit,
    the dense formula over all slots, in the Toda gauge and after a gauge
    transformation."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, topology=topology)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    if moved:
        H = random_trig_field(rs.rank, seed=5, amplitude=0.2).sample(grid)
        conn = gauge_transform(conn, H)
    az, azbar = connection_parts(conn)
    dense = grid.d_dz(azbar) - grid.d_dzbar(az) + dense_bracket(conn.slots, az, azbar)
    assert np.array_equal(curvature(conn), dense)


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_summary_norms_are_the_equivalence_norms(name, topology, algebra):
    """The solve/verify summary reduces the curvature block by block to
    the same norms that ``equivalence_defect`` takes of the whole of F."""
    rs, alg, _, _ = algebra(name)
    _, omega = make_omega(name, algebra, topology=topology)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    data = _TodaData(rs)
    F = curvature(build_toda_connection(omega, q, data, "toda"))
    curv, res, _ = equivalence_defect(omega, q, data, F)
    summary = _summary(omega, q, data)
    assert summary["curvature_norm"] == curv
    assert summary["residual"] == res


@pytest.mark.parametrize(
    "name, topology, nx, ny, q, blocks",
    [
        ("A2", "torus", 128, 128, "const", 8),  # 16-row blocks
        ("A2", "torus", 96, 96, "poly", 5),  # 21-row blocks, the last of 12; q jumps at the seam
        ("G2", "rectangle", 75, 48, "poly", 2),  # inner rows 1:43, 43:74
        ("E8", "torus", 40, 64, "const", 5),  # 26 slots: rows 0:9, ..., 27:36, 36:40
        ("A2", "rectangle", 64, 40, "const", 2),  # inner rows 1:52, 52:63
        ("E8", "torus", 32, 32, "poly", 2),  # rows 0:19, 19:32
        ("G2", "rectangle", 40, 32, "poly", 1),
        # budgets of 512 and 384 slot values would give 2-row blocks; the
        # floor of 4 x halo makes them 8: rows 0:8, ..., 32:40, and inner
        # rows 1:9, ..., 25:29
        pytest.param("A2", "torus", 40, 32, "poly", 5, marks=pytest.mark.block_values(512)),
        pytest.param("G2", "rectangle", 30, 24, "const", 4, marks=pytest.mark.block_values(384)),
    ],
)
def test_blocked_curvature_norm_is_the_whole_grid_norm(
    name, topology, nx, ny, q, blocks, algebra, request, monkeypatch
):
    """Every quantity of the row-block pass, each block built from its own
    rows of Omega and q plus a two-row halo, equals its whole-grid oracle
    exactly: the curvature and residual norms of the summary, and the max
    over slots of |F| and of |R| at every node they read (a halo error can
    hide below the norm); and the star defect, the commutator defect, the
    residual and mismatch norms and the covariance defect under constant H
    that ``check_norms`` reports.  No block but the last has fewer than
    4 x halo = 8 rows."""
    marker = request.node.get_closest_marker("block_values")
    if marker is not None:
        monkeypatch.setattr(connection, "_BLOCK_VALUES", marker.args[0])
    rs, _, _, _ = algebra(name)
    grid = DomainGrid(topology, nx, ny)
    omega = random_trig_field(rs.rank, seed=5, amplitude=0.3).sample(grid)
    if q == "poly":
        qd = QDifferential.parse("poly:0.9,0.4-0.2j,0.3")
    else:
        qd = QDifferential((0.8 - 0.3j,))
    data = _TodaData(rs)
    rows = [e - s for s, e, _, _ in _row_blocks(grid, TodaSlots(rs))]
    assert len(rows) == blocks and min(rows[:-1], default=8) >= 8
    conn = build_toda_connection(omega, qd, data, "toda")
    F = curvature(conn)
    curv, res, mismatch = equivalence_defect(omega, qd, data, F)
    assert summary_norms(omega, qd, data) == {"curvature": curv, "residual": res}
    inner = interior_mask(grid)
    got = _block_maxima(omega, qd, data)
    assert np.array_equal(got["curvature"][inner], np.abs(F).max(axis=-1)[inner])
    R = elliptic_residual(omega, qd, rs)
    assert np.array_equal(got["residual"][inner], np.abs(R).max(axis=-1)[inner])

    hs = [0.4 * np.linspace(-1.0, 1.0, rs.rank), np.full(rs.rank, -0.3)]
    assert check_norms(omega, qd, data, hs) == {
        "curvature": curv,
        "star": grid.max_norm(np.abs(conn.psi - conjugate_star(conn)).max(axis=-1)),
        "commutator": commutator_defect(omega, qd, data),
        "residual": res,
        "mismatch": mismatch,
        "covariance": max(gauge_covariance_defect(conn, F, constant_field(grid, v)) for v in hs),
    }


@pytest.mark.parametrize("name", ["A2", "G2"])
@pytest.mark.parametrize("n, step", [(32, 64), (64, 32), (96, 21), (128, 16), (512, 8)])
def test_rank_two_row_blocks_are_2048_points(name, n, step, algebra):
    """A rank-2 type has 8 slots, so the budget of 2048 x 8 slot values
    gives its blocks max(8, 2048 // ny) rows, the blocks of a budget of
    2048 grid points: the whole grid at 32, the floor of 8 rows at 512."""
    slots = TodaSlots(algebra(name)[0])
    assert slots.n == 8
    for grid, first, stop in ((DomainGrid("torus", n, n), 0, n), (DomainGrid("rectangle", n, n), 1, n - 1)):
        got = [(s, e) for s, e, _, _ in _row_blocks(grid, slots)]
        assert got == [(s, min(s + step, stop)) for s in range(first, stop, step)]


@pytest.mark.parametrize("topology", ["torus", "rectangle"])
def test_summary_working_memory(topology, algebra):
    """The summary never holds the curvature or a whole-grid connection: at
    A2 64^2 it peaks below two (points, slots) complex arrays of the grid."""
    rs, alg, _, _ = algebra("A2")
    _, omega = make_omega("A2", algebra, n=64, topology=topology)
    q = QDifferential((0.8 - 0.3j,))
    data = _TodaData(rs)
    _summary(omega, q, data)  # per-type caches
    peak = _traced_peak(lambda: _summary(omega, q, data))
    one = 64 * 64 * (3 * rs.rank + 2) * 16  # one (points, slots) complex array
    assert peak <= 2 * one, peak / one


@pytest.mark.parametrize("n, topology", [(128, "torus"), (64, "rectangle")])
def test_summary_peaks_below_the_solve(n, topology, algebra):
    """The summary of a solve peaks no higher than the solve itself."""
    rs, _, _, _ = algebra("A2")
    cfg = SolverConfig(
        grid=DomainGrid(topology, n, n),
        q=QDifferential((0.8 - 0.3j,)),
        init=InitSpec("perturbed", seed=1, amplitude=0.2),
    )
    data = _TodaData(rs)
    sol = solve(cfg, data)
    _summary(sol.omega, cfg.q, data)  # per-type caches
    solve_peak = _traced_peak(lambda: solve(cfg, data))
    summary_peak = _traced_peak(lambda: _summary(sol.omega, cfg.q, data))
    assert summary_peak <= solve_peak, (summary_peak, solve_peak)


@pytest.mark.parametrize("q", ["const:1.0", "const:0.8-0.3j"])
def test_one_block_summary_working_memory(q, algebra):
    """E8 32^2, once one row block: with the blocks budgeted in slot values
    the grid goes in two blocks of 19 and 13 rows, and each block builds
    its connection once its residual's Laplacian is freed: the summary
    peaks at 9.95 fields of Omega traced, below the solve's 10.0 (13.2 as
    one block, 14.3 with the whole-field copies of ``char_scale``)."""
    rs, _, _, _ = algebra("E8")
    cfg = SolverConfig(
        grid=DomainGrid("torus", 32, 32),
        q=QDifferential.parse(q),
        init=InitSpec("perturbed", seed=1, amplitude=0.1),
    )
    data = _TodaData(rs)
    sol = solve(cfg, data)
    _summary(sol.omega, cfg.q, data)  # per-type caches
    peak = _traced_peak(lambda: _summary(sol.omega, cfg.q, data))
    assert peak < 11 * sol.omega.values.nbytes, peak / sol.omega.values.nbytes


def test_summary_forms_no_whole_grid_residual(algebra):
    """The summary forms R in the row blocks of its curvature pass, not
    over the whole grid with its exponentials and Laplacian temporaries:
    at A2 256^2 with a polynomial q a second call peaks below 5 fields
    (about 4.2; 5.5 with a whole-grid R)."""
    rs, alg, _, _ = algebra("A2")
    _, omega = make_omega("A2", algebra, n=256)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    data = _TodaData(rs)
    _summary(omega, q, data)  # per-type caches
    peak = _traced_peak(lambda: _summary(omega, q, data))
    assert peak < 5 * omega.values.nbytes, peak / omega.values.nbytes


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
def test_slot_bracket_is_the_dense_bracket(name, algebra):
    """On the slots the bracket forms the same terms in the same order as
    over all of g, so the two agree bit for bit."""
    rs, alg, _, _ = algebra(name)
    grid, omega = make_omega(name, algebra, n=8)
    q = QDifferential((0.8 - 0.3j,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    az, azbar = connection_parts(conn)
    dense = alg.bracket(scatter(alg, conn.slots, az), scatter(alg, conn.slots, azbar))
    assert np.array_equal(scatter(alg, conn.slots, dense_bracket(conn.slots, az, azbar)), dense)


def test_slot_bracket_working_memory(algebra):
    """The bracket adds its terms into the output one at a time: beyond the
    output it holds only points-sized products, never a (points, terms)
    array of them."""
    rs, alg, _, _ = algebra("A2")
    _, omega = make_omega("A2", algebra, n=64)
    q = QDifferential((0.8 - 0.3j,))
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    az, azbar = connection_parts(conn)
    tracemalloc.start()
    try:
        out = dense_bracket(conn.slots, az, azbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == az.shape
    assert peak <= 2 * out.nbytes, (peak, out.nbytes)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_slot_data_is_the_chevalley_data(name, algebra):
    """Characters, negation and the E-/E+ positions of the Toda slots
    against those of the Chevalley basis, read through root_index."""
    rs, alg, _, _ = algebra(name)
    slots = TodaSlots(rs)
    glob = chevalley_slots(alg, slots)
    assert slots.n == len(set(glob.tolist())) == (3 if name == "A1" else 3 * rs.rank + 2)
    assert np.all(np.diff(glob) > 0)  # the Chevalley order
    assert np.array_equal(slots.characters, characters(alg)[glob])
    assert np.array_equal(glob[slots.negation], np.array(alg.slot_negation)[glob])
    minus = [alg.root_index(tuple(-c for c in rs.simple_root(i))) for i in range(rs.rank)]
    assert glob[slots.lowered].tolist() == minus + [alg.root_index(rs.highest_root)]
    assert glob[slots.raised].tolist() == [alg.slot_negation[d] for d in glob[slots.lowered]]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_slot_table_is_the_restricted_chevalley_table(name, algebra):
    """The formed terms of the slot table are the Chevalley table's terms
    between slots, term for term and in order, less its root-sum terms
    [e_beta, e_gamma] = N e_(beta+gamma); each such pair of slots is a
    marker (k = -1) in the slot table, and every marker is one."""
    rs, alg, _, _ = algebra(name)
    l, slots = rs.rank, TodaSlots(rs)
    local = np.full(alg.dim, -1)
    local[chevalley_slots(alg, slots)] = np.arange(slots.n)
    gi, gj, gk, gc = alg._table
    between = (local[gi] >= 0) & (local[gj] >= 0)
    root_sum = between & (gi >= l) & (gj >= l) & (gk >= l)
    keep = between & ~root_sum
    assert np.all(local[gk[keep]] >= 0)  # off the root sums, the slots are closed
    i, j, k, c = slots.table
    formed = k >= 0
    for got, want in zip((i, j, k, c), (local[gi], local[gj], local[gk], gc)):
        assert np.array_equal(got[formed], want[keep])
    markers = sorted(zip(i[~formed].tolist(), j[~formed].tolist()))
    assert markers == sorted(zip(local[gi[root_sum]].tolist(), local[gj[root_sum]].tolist()))
    assert (len(markers) > 0) == (l > 1)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_forming_a_marker_raises(name, algebra):
    """Forming a pair of root slots whose sum is a root is an error, not a
    silently lost term, also where the sum is a slot (in A2,
    alpha_1 + alpha_2 = theta); the connection's own supports form none."""
    rs = algebra(name)[0]
    slots = TodaSlots(rs)
    i, j, k, _ = slots.table
    for a, b in zip(i[k < 0], j[k < 0]):
        x, y = np.zeros(slots.n, dtype=bool), np.zeros(slots.n, dtype=bool)
        x[a] = y[b] = True
        with pytest.raises(RuntimeError, match="leaves the Toda slots"):
            slots.terms(x, y)
        with pytest.raises(RuntimeError, match="leaves the Toda slots"):
            dense_bracket(slots, x.astype(complex), y.astype(complex))
    if name == "A2":  # every root is a slot, so each of the 12 root-sum pairs is a marker
        assert k.tolist().count(-1) == 12
        assert (2, 3) in set(zip(i[k < 0].tolist(), j[k < 0].tolist()))  # alpha_1, alpha_2
    x = np.zeros(slots.n, dtype=bool)
    y = np.zeros(slots.n, dtype=bool)
    x[: rs.rank] = y[: rs.rank] = True
    x[slots.lowered] = y[slots.raised] = True
    slots.terms(x, y)


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "E8"])
def test_commutator_defect_builds_no_connection(name, algebra, monkeypatch):
    """``commutator_defect`` forms Phi = E- and its Higgs-gauge star alone:
    it takes no derivative of Omega, and its value is that of the bracket
    of the Higgs-gauge connection's Phi and ``conjugate_star``, bit for bit."""
    rs = algebra(name)[0]
    data = _TodaData(rs)
    _, omega = make_omega(name, algebra)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    conn = build_toda_connection(omega, q, data, "higgs")
    comm = cartan_bracket(rs, conn.phi, conjugate_star(conn))
    closed = -data.pointwise_residual(data.exponentials(omega.values, np.abs(q.sample(omega.grid)) ** 2))
    expect = float(np.abs(comm - closed).max())

    def no_derivative(self, F):
        raise AssertionError("commutator_defect differentiated Omega")

    monkeypatch.setattr(DomainGrid, "wirtinger", no_derivative)
    assert commutator_defect(omega, q, data) == expect


@pytest.mark.parametrize("name", ALL_TYPES)
def test_commutator_with_a_term_moved_off_the_cartan_raises(name, algebra):
    """Mutation check: move the output of one [e_-beta, e_beta] term of the
    slot table from the Cartan to a root slot, and the block pass of
    ``check_norms`` raises RuntimeError rather than comparing a bracket
    that lost it."""
    rs = algebra(name)[0]
    data = _TodaData(rs)
    slots = data.slots = TodaSlots(rs)
    i, j, k, c = (col.copy() for col in slots.table)
    onto_cartan = np.flatnonzero(np.isin(i, slots.lowered) & np.isin(j, slots.raised) & (k >= 0))
    assert np.all(k[onto_cartan] < rs.rank) and onto_cartan.size >= rs.rank
    grid = DomainGrid("torus", 8, 8)
    omega = random_trig_field(rs.rank, seed=3, amplitude=0.15).sample(grid)
    q = QDifferential((0.8 - 0.3j,))
    assert check_norms(omega, q, data)["commutator"] < 1e-12
    k[onto_cartan[-1]] = slots.raised[0]
    slots.table = (i, j, k, c)
    with pytest.raises(RuntimeError, match="lands outside its output slots"):
        check_norms(omega, q, data)


@pytest.mark.parametrize("name", ["A1", "A2", "B3", "G2", "E8"])
def test_commutator_reference_reads_no_slot_table(name, algebra):
    """Mutation check: flip the sign of one coroot term of the slot table,
    a term of [e_-beta, e_beta] on the Cartan, and the block pass's
    commutator defect leaves its reference, which brackets over the full
    Chevalley table and so stays where it was."""
    rs = algebra(name)[0]
    data = _TodaData(rs)
    slots = data.slots = TodaSlots(rs)
    i, j, k, c = (col.copy() for col in slots.table)
    onto_cartan = np.flatnonzero(np.isin(i, slots.lowered) & np.isin(j, slots.raised) & (k >= 0))
    grid = DomainGrid("torus", 8, 8)
    omega = random_trig_field(rs.rank, seed=3, amplitude=0.15).sample(grid)
    q = QDifferential((0.8 - 0.3j,))
    reference = commutator_defect(omega, q, data)
    assert check_norms(omega, q, data)["commutator"] == reference < 1e-12
    c[onto_cartan[0]] *= -1
    slots.table = (i, j, k, c)
    assert commutator_defect(omega, q, data) == reference
    assert check_norms(omega, q, data)["commutator"] > 0.1


@pytest.mark.parametrize("name", ALL_TYPES)
@pytest.mark.parametrize("gauge", ["toda", "higgs"])
def test_connection_keeps_phi_and_psi_on_their_slots(name, gauge, algebra):
    """Phi has l+1 columns, on the slots of E- (``lowered``), and Psi on
    those of E+ (``raised``).  Scattered into all the slots they are the
    dense fields of the gauge: E- with sqrt(r_i) on -alpha_i and q on theta,
    E+ with sqrt(r_i) on alpha_i and qbar on -theta, each slot of root beta
    scaled by exp(s beta(Omega)), s = -1 for Phi and +1 for Psi in the Toda
    gauge, 0 and 2 in the Higgs gauge; zero on every other slot."""
    rs = algebra(name)[0]
    l, data = rs.rank, _TodaData(rs)
    grid, omega = make_omega(name, algebra, n=8)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    conn = build_toda_connection(omega, q, data, gauge)
    slots = conn.slots
    assert conn.phi.shape == conn.psi.shape == (8, 8, l + 1)
    beta = omega.values @ slots.characters.T  # beta(Omega) on every slot
    qv = q.sample(grid)
    dense = []
    for where, last, s in ((slots.lowered, qv, -1), (slots.raised, np.conj(qv), 1)):
        E = np.zeros((8, 8, slots.n), dtype=complex)
        E[..., where[:-1]] = np.sqrt(data.r)
        E[..., where[-1]] = last
        dense.append(E * np.exp((s if gauge == "toda" else s + 1) * beta))
    for got, want in zip(slot_fields(conn), dense):
        assert np.allclose(got, want, rtol=1e-14, atol=0)
        assert np.array_equal(got == 0, want == 0)


def test_conn_check_working_memory(capsys):
    """``conn check`` keeps Phi, Psi, their star and the gauge-transformed
    connections on their l+1 slots, brackets onto the Cartan only, forms
    every quantity in row blocks of about 2048 x 8 slot values and frees
    each array once it is read: E8 at 48^2 (four blocks) peaks below 1.75
    (points, slots) complex arrays (about 1.6; 4.4 in two blocks of
    2048 points, 5.9 with a whole-grid connection, 11.5 when that was
    dense over all the slots)."""
    args = ["conn", "check", "--type", "E8", "--grid", "48"]
    assert cli.main(args) == 0  # imports and per-type caches
    peak = _traced_peak(lambda: cli.main(args))
    capsys.readouterr()
    one = 48 * 48 * 26 * 16
    assert peak <= 1.75 * one, peak / one


def test_conn_check_working_memory_on_many_blocks(capsys):
    """At E8 128^2 (16 row blocks) ``conn check`` holds no whole-grid
    connection, curvature or moved curvature: a second call in one process
    peaks below 5 MiB traced (about 4.6; 6.9 in eight blocks of 2048
    points, 37 with the whole-grid connection)."""
    args = ["conn", "check", "--type", "E8", "--grid", "128"]
    assert cli.main(args) == 0  # imports and per-type caches
    peak = _traced_peak(lambda: cli.main(args))
    capsys.readouterr()
    assert peak < 5 * 2**20, peak / 2**20


def test_conn_check_samples_q_once_per_grid(monkeypatch, capsys):
    """``conn check`` samples q once on its grid and once on the half grid."""
    calls = []
    sample = QDifferential.sample

    def counted(self, grid):
        calls.append((grid.nx, grid.ny))
        return sample(self, grid)

    monkeypatch.setattr(QDifferential, "sample", counted)
    assert cli.main(["conn", "check", "--type", "E8", "--grid", "32"]) == 0
    capsys.readouterr()
    assert calls == [(32, 32), (16, 16)]


@pytest.mark.parametrize("name", ["A1", "A2", "E8"])
@pytest.mark.parametrize("constant", [True, False])
def test_gauge_covariance_defect_is_the_dense_defect(name, constant, algebra):
    """The covariance defect formed a group of slot columns at a time is,
    bit for bit, max |F' - Ad_exp(H) F| of the dense moved curvature F' and
    the dense character-scaled F."""
    rs = algebra(name)[0]
    grid, omega = make_omega(name, algebra)
    q = QDifferential.parse("poly:0.9,0.4-0.2j")
    conn = build_toda_connection(omega, q, _TodaData(rs), "toda")
    F = curvature(conn)
    if constant:
        H = constant_field(grid, 0.4 * np.linspace(-1.0, 1.0, rs.rank))
    else:
        H = random_trig_field(rs.rank, seed=5, amplitude=0.2).sample(grid)
    moved = curvature(gauge_transform(conn, H))
    dense = np.abs(moved - char_scale(F, H.values, conn.slots.characters)).max()
    assert gauge_covariance_defect(conn, F, H) == dense
    assert dense < 1e-12 or not constant  # varying H: O(dx^2), not zero


class TestHiggsResidual:
    def test_a1_sinh_gordon_reduction(self, algebra):
        rs, _, _, _ = algebra("A1")
        grid = DomainGrid("torus", 16, 16)
        u_field = random_trig_field(1, seed=5, amplitude=0.3).sample(grid)
        u = u_field.values[..., 0]
        omega = HFieldGrid(grid, (u / 2)[..., None])
        qval = 0.6 + 0.1j
        q = QDifferential((qval,))
        R = elliptic_residual(omega, q, rs)
        expect = -0.25 * grid.laplacian(u) + 0.5 * np.exp(2 * u) - abs(qval) ** 2 * np.exp(-2 * u)
        assert np.abs(R[..., 0] - expect).max() < 1e-12

    def test_a1_balanced_point(self, algebra):
        rs, _, _, _ = algebra("A1")
        grid = DomainGrid("torus", 8, 8)
        omega = constant_field(grid, [0.0])
        q = QDifferential((0.5 ** 0.5,))
        R = elliptic_residual(omega, q, rs)
        assert np.abs(R).max() < 1e-15

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_bracket_matches_closed_form(self, name, algebra, rng):
        rs, alg, sl2, _ = algebra(name)
        grid = DomainGrid("torus", 8, 8)
        for trial in range(5):
            vals = 0.2 * rng.standard_normal((8, 8, rs.rank))
            omega = HFieldGrid(grid, vals)
            q = QDifferential((rng.standard_normal() + 1j * rng.standard_normal(),))
            assert commutator_defect(omega, q, _TodaData(rs)) < 1e-12


class TestEquivalence:
    def test_curvature_equals_minus_residual_to_discretization(self, algebra):
        rs, alg, sl2, _ = algebra("A2")
        q = QDifferential((1.0,))
        field = random_trig_field(2, seed=7, amplitude=0.2)
        nu = diagram_automorphism(rs)
        field = field.symmetrized(nu.perm)
        mism = []
        data = _TodaData(rs)
        for n in (16, 32, 64):
            grid = DomainGrid("torus", n, n)
            omega = field.sample(grid)
            F = curvature(build_toda_connection(omega, q, data, "toda"))
            fn, rn, mn = equivalence_defect(omega, q, data, F)
            assert abs(fn - rn) <= mn + 1e-12
            mism.append(mn)
        assert 2.8 < mism[0] / mism[1] < 5.5
        assert 3.0 < mism[1] / mism[2] < 5.2


class TestChartTransition:
    def test_identity(self, algebra):
        _, alg, sl2, _ = algebra("A2")
        X = np.arange(alg.dim, dtype=complex)
        assert np.abs(chart_transition(X, 1.0, alg.slot_heights) - X).max() == 0

    def test_height_scaling(self, algebra):
        rs, alg, _, _ = algebra("A2")
        lo = alg.root_index(tuple(-c for c in rs.simple_root(0)))
        X = np.zeros(alg.dim, dtype=complex)
        X[lo] = 3.0
        out = chart_transition(X, 2.0, alg.slot_heights)
        assert out[lo] == 3.0 / 2.0  # height -1 slot picks up g^-1

    def test_zero_transition_rejected(self, algebra):
        _, alg, _, _ = algebra("A2")
        with pytest.raises(ValueError):
            chart_transition(np.zeros(alg.dim), 0.0, alg.slot_heights)

    def test_two_chart_field_agreement(self, algebra):
        """Target chart w = 2z. Transporting the source-chart field with
        g = dz/dw = 1/2 and canonical weight 1 must reproduce the field
        built natively on the target chart (with q scaled accordingly)."""
        rs, alg, sl2, _ = algebra("A2")
        h = coxeter_number(rs)
        n = 12
        grid_j = DomainGrid("rectangle", n, n, extent=(1.0, 1.0))
        grid_i = DomainGrid("rectangle", n, n, extent=(2.0, 2.0))
        field = random_trig_field(2, seed=9, amplitude=0.1)
        omega_j = field.sample(grid_j)
        # same physical nodes; the target-chart field adds log|g_ij| x
        fx = np.log(2.0)
        xc = np.array([float(c) for c in rs.x_coefficients])
        omega_i = HFieldGrid(grid_i, omega_j.values + fx * xc)
        qj = QDifferential.parse("poly:0.9,0.4-0.2j")
        c0, c1 = 0.9 * 0.5 ** h, (0.4 - 0.2j) * 0.5 ** (h + 1)
        qi = QDifferential.parse(f"poly:{c0!r},{c1!r}")  # q_i(w) = q_j(w/2) * (1/2)^h
        conn_j = build_toda_connection(omega_j, qj, _TodaData(rs), "higgs")
        conn_i = build_toda_connection(omega_i, qi, _TodaData(rs), "higgs")
        slots = conn_j.slots
        heights = np.array(alg.slot_heights)[chevalley_slots(alg, slots)][slots.lowered]
        moved = chart_transition(conn_j.phi, 0.5, heights, form_degree=1)
        assert np.abs(moved - conn_i.phi).max() < 1e-12


class TestPeriodicStencils:
    @staticmethod
    def _rolled(grid, F):
        """The periodic d_dx, d_dy and Laplacian as np.roll formulas."""
        dx = (np.roll(F, -1, axis=0) - np.roll(F, 1, axis=0)) / (2 * grid.dx)
        dy = (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1)) / (2 * grid.dy)
        fxx = (np.roll(F, -1, axis=0) + np.roll(F, 1, axis=0) - 2 * F) / grid.dx**2
        fyy = (np.roll(F, -1, axis=1) + np.roll(F, 1, axis=1) - 2 * F) / grid.dy**2
        return dx, dy, fxx + fyy

    @pytest.mark.parametrize("shape", [(8, 8), (16, 12, 3), (5, 12, 2), (33, 12, 1)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_slices_are_the_roll_formulas(self, shape, dtype, rng):
        """Bit for bit, on whole grids and on blocks of fewer rows than the
        grid, real and complex, strided input included."""
        grid = DomainGrid("torus", max(shape[0], 8), 12, extent=(0.7, 1.3))
        F = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            F += 1j * rng.standard_normal(shape)
        for G in (F, np.swapaxes(np.swapaxes(F, 0, 1).copy(), 0, 1)):
            got = (grid.d_dx(G), grid.d_dy(G), grid.laplacian(G))
            for a, b in zip(got, self._rolled(grid, G)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_one_output_array(self):
        """Each derivative allocates its output and little else: no shifted
        copies of F and no full-size ufunc buffers."""
        grid = DomainGrid("torus", 64, 64)
        F = np.ones((64, 64, 8), dtype=complex)
        for d in (grid.d_dx, grid.d_dy):
            d(F)
            peak = _traced_peak(lambda: d(F))
            assert peak <= 1.2 * F.nbytes, (d.__name__, peak / F.nbytes)


def test_poly_sample_working_memory():
    """A polynomial q is sampled by Horner in place on z, built from the 1-D
    coordinates: no X and Y meshes and no temporary per step, so the sample
    peaks below 2.5 times its output (z and the output itself)."""
    q = QDifferential.parse("poly:0.9,0.4-0.2j,0.3")
    grid = DomainGrid("torus", 128, 128)
    out = q.sample(grid)
    peak = _traced_peak(lambda: q.sample(grid))
    assert peak < 2.5 * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("topology, extent", [("torus", (1.0, 1.0)), ("rectangle", (1.0, 1.5))])
def test_poly_sample_is_the_mesh_horner(topology, extent):
    """The in-place sample equals, bit for bit, Horner's rule step by step
    on z = X + iY of the coordinate meshes."""
    grid = DomainGrid(topology, 96, 80, extent)
    q = QDifferential.parse("poly:0.9,0.4-0.2j,0.3,-0.1+0.05j")
    X, Y = grid.xy()
    z = X + 1j * Y
    want = np.zeros_like(z)
    for c in reversed(q.coeffs):
        want = want * z + c
    assert np.array_equal(q.sample(grid), want)


def test_one_coefficient_is_a_constant():
    """``poly:c`` and ``const:c`` are one q: the same coefficients and the
    same sample, bit for bit."""
    grid = DomainGrid("rectangle", 24, 16, (1.0, 1.5))
    poly, const = QDifferential.parse("poly:0.8-0.3j"), QDifferential.parse("const:0.8-0.3j")
    assert poly.coeffs == const.coeffs == (0.8 - 0.3j,)
    assert poly.sample(grid).tobytes() == const.sample(grid).tobytes()


@pytest.mark.parametrize("topology, cells", [("torus", (48, 40)), ("rectangle", (47, 39))])
def test_grid_spacings_are_derived(topology, cells):
    """A torus of n nodes along a side of length L has spacing L/n, a
    rectangle (boundary nodes included) L/(n-1); the extent is kept as
    given, whatever nx * dx rounds to."""
    grid = DomainGrid(topology, 48, 40, (0.7, 1.3))
    assert (grid.dx, grid.dy) == (0.7 / cells[0], 1.3 / cells[1])
    assert grid.extent == (0.7, 1.3)


class TestIO:
    def test_binary_round_trip(self, tmp_path, rng):
        grid = DomainGrid("torus", 8, 10)
        vals = rng.standard_normal((8, 10, 3))
        f = HFieldGrid(grid, vals)
        p = str(tmp_path / "omega.bin")
        write_field_binary(p, f)
        g = read_field_binary(p, grid)
        assert np.array_equal(g.values, vals)

    @pytest.mark.parametrize("cut", [3, 8, 11])
    def test_cut_payload_is_truncated(self, tmp_path, cut):
        """A payload short by whole values or by part of one is a truncated
        payload, named by its file."""
        p, grid = str(tmp_path / "omega.bin"), DomainGrid("torus", 8, 8)
        write_field_binary(p, constant_field(grid, [0.5, 0.25]))
        with open(p, "r+b") as fh:
            fh.truncate(fh.seek(0, 2) - cut)
        with pytest.raises(ValueError, match=f"^{p}: truncated payload$"):
            read_field_binary(p, grid)

    def test_over_long_payload_is_named(self, tmp_path, capsys):
        """A payload longer than its header gives is its own error, not a
        truncated one, and a usage error (exit 2) of a solve started from it."""
        p, grid = str(tmp_path / "omega.bin"), DomainGrid("torus", 8, 8)
        write_field_binary(p, constant_field(grid, [0.5, 0.25]))
        with open(p, "ab") as fh:
            fh.write(bytes(8))
        with pytest.raises(ValueError, match=f"^{p}: 8 bytes past the end of the payload$"):
            read_field_binary(p, grid)
        argv = ["toda", "solve", "--type", "A2", "--grid", "8x8", "--init", f"file:{p}"]
        assert cli.main(argv + ["--out", str(tmp_path / "out.bin")]) == 2
        assert "8 bytes past the end of the payload" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(8, 12), ny=st.integers(8, 12), l=st.integers(1, 8),
        data=st.data(), cut=st.integers(1, 64), extra=st.binary(min_size=1, max_size=64),
    )
    def test_binary_round_trip_property(self, tmp_path_factory, nx, ny, l, data, cut, extra):
        """Every finite field, -0.0 and subnormals included, reads back byte
        for byte; the payload cut short by ``cut`` bytes is truncated, and
        ``extra`` bytes past its end are named as such."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vals = data.draw(arrays(np.float64, (nx, ny, l), elements=finite))
        vals.flat[:2] = -0.0, 5e-324
        p = str(tmp_path_factory.mktemp("io") / "omega.bin")
        grid = DomainGrid("torus", nx, ny)
        write_field_binary(p, HFieldGrid(grid, vals))
        assert read_field_binary(p, grid).values.tobytes() == vals.tobytes()
        with open(p, "rb") as fh:
            whole = fh.read()
        with open(p, "wb") as fh:
            fh.write(whole[:-cut])
        with pytest.raises(ValueError, match=f"^{p}: truncated payload$"):
            read_field_binary(p, grid)
        with open(p, "wb") as fh:
            fh.write(whole + extra)
        with pytest.raises(ValueError, match=f"^{p}: {len(extra)} bytes past the end of the payload$"):
            read_field_binary(p, grid)

    def test_binary_magic_check(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_field_binary(str(p), DomainGrid("torus", 8, 8))


def test_field_io_working_memory(tmp_path):
    """A field file is written from the array's own buffer and read straight
    into one array: at A2 256^2 writing peaks below a tenth of the field and
    reading below 1.25 fields (1.00 and 2.13 when each made a copy of the
    payload)."""
    grid = DomainGrid("torus", 256, 256)
    f = constant_field(grid, [0.5, -0.25])
    p = str(tmp_path / "omega.bin")
    write_field_binary(p, f)
    read_field_binary(p, grid)
    field = f.values.nbytes
    write_peak = _traced_peak(lambda: write_field_binary(p, f))
    assert write_peak < 0.1 * field, write_peak / field
    read_peak = _traced_peak(lambda: read_field_binary(p, grid))
    assert read_peak < 1.25 * field, read_peak / field


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("tail", ["whole", "cut", "extra"])
def test_field_file_reads_from_a_pipe(tmp_path, rng, tail):
    """A pipe has no size to check against the header: its payload reads
    back in full, and a short or over-long one gives the file's errors."""
    grid = DomainGrid("torus", 64, 40)
    vals = rng.standard_normal((64, 40, 3))  # larger than a pipe's buffer
    p = str(tmp_path / "omega.bin")
    write_field_binary(p, HFieldGrid(grid, vals))
    with open(p, "rb") as fh:
        whole = fh.read()
    payload = {"whole": whole, "cut": whole[:-5], "extra": whole + bytes(7)}[tail]
    fifo = str(tmp_path / "omega.fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            for i in range(0, len(payload), 4096):
                fh.write(payload[i : i + 4096])

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        if tail == "whole":
            assert read_field_binary(fifo, grid).values.tobytes() == vals.tobytes()
        else:
            error = "truncated payload" if tail == "cut" else "7 bytes past the end of the payload"
            with pytest.raises(ValueError, match=f"^{fifo}: {error}$"):
                read_field_binary(fifo, grid)
    finally:
        writer.join()


def test_bad_gauge_and_degree(algebra):
    """The whole-grid oracle rejects an unknown gauge; the block pass of
    ``check_norms`` and of ``summary_norms`` rejects a non-finite field."""
    rs, alg, sl2, _ = algebra("A2")
    grid = DomainGrid("torus", 8, 8)
    omega = constant_field(grid, [0.0, 0.0])
    with pytest.raises(ValueError, match="unknown gauge"):
        build_toda_connection(omega, QDifferential((1.0,)), _TodaData(rs), "weird")
    omega.values[3, 5, 1] = np.nan
    for norms in (check_norms, summary_norms):
        with pytest.raises(ValueError, match="non-finite"):
            norms(omega, QDifferential((1.0,)), _TodaData(rs))
