"""Folding layer: projections, twisted classification, folded residual."""
import math
from fractions import Fraction

import numpy as np
import pytest

from affinetoda import cli, restriction, rootdata
from affinetoda.grids import DomainGrid, HFieldGrid, QDifferential, random_trig_field
from affinetoda.restriction import project, restrict
from affinetoda.rootdata import DiagramAutomorphism, affine_cartan, diagram_automorphism
from affinetoda.todasolver import sigma_symmetry_defect
from conftest import ALL_TYPES, elliptic_residual
from oracles import (
    affine_catalog,
    brute_force_order2_symmetries,
    gcm_permutation_equivalent,
    restricted_toda_residual,
)

TABLE = [
    ("A2", "A2(2)"),
    ("A4", "A4(2)"),
    ("A6", "A6(2)"),
    ("A8", "A8(2)"),
    ("A3", "C2(1)"),
    ("A5", "C3(1)"),
    ("A7", "C4(1)"),
    ("D3", "C2(1)"),
    ("D5", "B4(1)"),
    ("D7", "B6(1)"),
    ("E6", "F4(1)"),
]

TRIVIAL = ["A1", "B2", "B3", "C3", "D4", "D6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name,label", TABLE)
def test_twisted_table(name, label, algebra):
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, diagram_automorphism(rs))
    assert rest.label == label


@pytest.mark.parametrize("name", TRIVIAL)
def test_trivial_symmetry_extends(name, algebra):
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, diagram_automorphism(rs))
    assert rest.label == f"{name}(1)"
    assert rest.restricted_roots == tuple(
        tuple(Fraction(c) for c in rs.simple_root(i)) for i in range(rs.rank)
    )


@pytest.mark.parametrize("name", ALL_TYPES)
def test_identity_fold_is_the_extended_diagram(name, algebra):
    """Folding by the identity moves no node: the projected matrix is the
    extended Cartan matrix of ``affine_cartan`` and the label the base's."""
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, DiagramAutomorphism(tuple(range(rs.rank))))
    assert rest.gcm == affine_cartan(rs).gcm
    assert rest.orbits == tuple((i,) for i in range(rs.rank))
    assert rest.label == f"{name}(1)"


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "B3", "C4", "D4", "D5", "F4", "G2"])
def test_orbits_are_the_symmetry_orbits(name, algebra):
    """For every order-2 diagram symmetry of the brute-force search, the
    orbits are the permutation's, ordered by their least node, and they are
    the classes of simple roots with equal projections."""
    rs, _, _, _ = algebra(name)
    for perm in brute_force_order2_symmetries(rs.cartan_matrix):
        nu = DiagramAutomorphism(perm)
        rest = restrict(rs, nu)
        cycles = sorted({tuple(sorted({i, p})) for i, p in enumerate(perm)})
        assert rest.orbits == tuple(cycles)
        classes = {}
        for i in range(rs.rank):
            classes.setdefault(project(rs, nu, rs.simple_root(i)), []).append(i)
        assert rest.orbits == tuple(tuple(c) for c in classes.values())


@pytest.mark.parametrize("name", [n for n, _ in TABLE])
def test_restricted_roots_are_orbit_averages(name, algebra):
    """Each restricted root is the average of the simple roots over its
    orbit: alpha_i itself on a fixed node, (alpha_i + alpha_nu(i)) / 2 on a
    moved pair."""
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, diagram_automorphism(rs))
    for orbit, beta in zip(rest.orbits, rest.restricted_roots):
        expected = [Fraction(0)] * rs.rank
        for i in orbit:
            expected[i] += Fraction(1, len(orbit))
        assert beta == tuple(expected)


@pytest.mark.parametrize("name", ["A3", "B3", "E6", "E8"])
def test_lie_restrict_builds_no_affine_cartan(name, monkeypatch, capsys):
    """``lie restrict`` names the fold by rule: it never builds the
    unfolded affine matrix to compare against."""

    def refuse(rs):
        raise AssertionError("affine_cartan called")

    monkeypatch.setattr(rootdata, "affine_cartan", refuse)
    monkeypatch.setattr(restriction, "affine_cartan", refuse, raising=False)  # an imported copy
    assert cli.main(["lie", "restrict", name]) == 0
    assert '"label"' in capsys.readouterr().out


def test_a3_collapses_to_two_nodes(algebra):
    rs, _, _, _ = algebra("A3")
    rest = restrict(rs, diagram_automorphism(rs))
    assert len(rest.restricted_roots) == 2
    assert rest.orbits == ((0, 2), (1,))


def test_delta_is_fixed_and_projection_idempotent(algebra):
    for name in ["A3", "A4", "D5", "E6"]:
        rs, _, _, _ = algebra(name)
        nu = diagram_automorphism(rs)
        delta = tuple(Fraction(c) for c in rs.highest_root)
        assert project(rs, nu, delta) == delta
        for beta in restrict(rs, nu).restricted_roots:
            assert project(rs, nu, beta) == beta


@pytest.mark.parametrize("name", [n for n, _ in TABLE])
def test_projected_matrix_is_affine(name, algebra):
    """The projected matrix has positive null vectors on both sides: the
    marks (1, sum of theta_i over each orbit O), which theta = sum m_O beta_O
    gives, and the comarks m_O hn(beta_O) / hn(theta), scaled to coprime
    integers (hn is half the squared length, theta the highest root)."""
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, diagram_automorphism(rs))
    n = len(rest.gcm)
    theta = rs.highest_root
    marks = (1,) + tuple(sum(theta[i] for i in orbit) for orbit in rest.orbits)
    nodes = (theta,) + rest.restricted_roots
    ratios = [m * rs.half_norm(beta) / rs.half_norm(theta) for m, beta in zip(marks, nodes)]
    scale = math.lcm(*(c.denominator for c in ratios))
    comarks = [int(c * scale) for c in ratios]
    comarks = [c // math.gcd(*comarks) for c in comarks]
    assert min(marks) > 0 and min(comarks) > 0
    assert all(sum(rest.gcm[i][j] * marks[j] for j in range(n)) == 0 for i in range(n))
    assert all(sum(comarks[i] * rest.gcm[i][j] for i in range(n)) == 0 for j in range(n))


def test_a2_explicit_gcm(algebra):
    rs, _, _, _ = algebra("A2")
    rest = restrict(rs, diagram_automorphism(rs))
    assert rest.gcm == ((2, -1), (-4, 2)) or rest.gcm == ((2, -4), (-1, 2))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_label_is_the_only_catalog_match(name, algebra):
    """The rule names the one affine matrix of the projection's size that
    matches the projected matrix up to node permutation.  The catalog has
    no B2, so B2's own extended diagram matches as C2(1)."""
    rs, _, _, _ = algebra(name)
    rest = restrict(rs, diagram_automorphism(rs))
    matches = [
        label for label, gcm in affine_catalog(len(rest.gcm))
        if gcm_permutation_equivalent(rest.gcm, gcm)
    ]
    if name == "B2":
        assert (rest.label, matches) == ("B2(1)", ["C2(1)"])
    else:
        assert matches == [rest.label]


@pytest.mark.parametrize(
    "name,perm,expected",
    [
        ("D4", (2, 1, 0, 3), "B3(1)"),
        ("D4", (3, 1, 2, 0), "B3(1)"),
        ("D4", (0, 1, 3, 2), "B3(1)"),
        ("D6", (0, 1, 2, 3, 5, 4), "B5(1)"),
        ("D8", (0, 1, 2, 3, 4, 5, 7, 6), "B7(1)"),
        ("A3", (0, 1, 2), "A3(1)"),  # moves no node
    ],
)
def test_symmetries_outside_the_default(name, perm, expected, algebra):
    """Symmetries ``diagram_automorphism`` does not return: the other leg
    transpositions of D4, the leg swap of D_even, and the identity of a
    type whose default symmetry moves nodes.  (D4's 3-cycles are no
    ``DiagramAutomorphism``: the constructor rejects them.)"""
    rs, _, _, _ = algebra(name)
    assert restrict(rs, DiagramAutomorphism(perm)).label == expected


def test_permutation_matcher():
    a = ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    b = ((2, 0, -1), (0, 2, -1), (-2, -2, 2))  # node order (2, 0, 1)
    assert gcm_permutation_equivalent(a, b)
    c = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert not gcm_permutation_equivalent(a, c)
    assert not gcm_permutation_equivalent(a, ((2, -1), (-4, 2)))


def test_bad_permutation_rejected(algebra):
    rs, _, _, _ = algebra("A3")
    bad = DiagramAutomorphism((1, 0, 2))
    with pytest.raises(ValueError):
        restrict(rs, bad)


class TestFoldedResidual:
    def make_symmetric_field(self, rs, nu, n=12, seed=6, amplitude=0.2):
        grid = DomainGrid("torus", n, n)
        field = random_trig_field(rs.rank, seed=seed, amplitude=amplitude)
        return field.symmetrized(nu.perm).sample(grid)

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "D5", "E6"])
    def test_matches_unfolded_residual(self, name, algebra):
        rs, _, _, _ = algebra(name)
        nu = diagram_automorphism(rs)
        rest = restrict(rs, nu)
        omega = self.make_symmetric_field(rs, nu)
        q = QDifferential((0.7 + 0.4j,))
        folded = restricted_toda_residual(omega, q, rs, rest)
        full = elliptic_residual(omega, q, rs)
        assert np.abs(folded - full).max() < 1e-12

    def test_trivial_symmetry_identical(self, algebra):
        rs, _, _, _ = algebra("B2")
        nu = diagram_automorphism(rs)
        rest = restrict(rs, nu)
        omega = self.make_symmetric_field(rs, nu)
        q = QDifferential((1.0,))
        folded = restricted_toda_residual(omega, q, rs, rest)
        full = elliptic_residual(omega, q, rs)
        assert np.abs(folded - full).max() < 1e-13

    def test_constant_oracle_is_flat(self, algebra):
        from affinetoda.grids import constant_field
        from affinetoda.todasolver import _TodaData, constant_solution

        rs, alg, sl2, _ = algebra("A2")
        rest = restrict(rs, diagram_automorphism(rs))
        om0 = constant_solution(_TodaData(rs), 1.0)
        grid = DomainGrid("torus", 8, 8)
        omega = constant_field(grid, om0)
        q = QDifferential((1.0,))
        assert np.abs(restricted_toda_residual(omega, q, rs, rest)).max() < 1e-13

    def test_asymmetric_field_rejected(self, algebra):
        rs, _, _, _ = algebra("A3")
        nu = diagram_automorphism(rs)
        rest = restrict(rs, nu)
        grid = DomainGrid("torus", 8, 8)
        vals = np.zeros((8, 8, 3))
        vals[..., 0] = 0.3  # breaks the 1<->3 symmetry
        omega = HFieldGrid(grid, vals)
        assert sigma_symmetry_defect(omega, nu.perm) > 1e-12
        q = QDifferential((1.0,))
        with pytest.raises(ValueError):
            restricted_toda_residual(omega, q, rs, rest)
