"""Root-system layer: exact data checked against independent oracles.

The oracle here generates roots by closing the simple roots under all
simple reflections (pure integer arithmetic on coefficient tuples), which
is independent of the root-string closure used by the implementation.
"""
import subprocess
import sys
from fractions import Fraction

import pytest

from affinetoda.rootdata import (
    DiagramAutomorphism,
    LieType,
    RootSystem,
    affine_cartan,
    build_root_system,
    coxeter_number,
    diagram_automorphism,
    exponents,
)
from oracles import brute_force_order2_symmetries

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def reflection_closure(cartan):
    """All roots via the Weyl-orbit of the simple roots (oracle)."""
    l = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(l):
                pairing = sum(beta[j] * cartan[i][j] for j in range(l))
                img = tuple(
                    beta[j] - pairing * (1 if j == i else 0) for j in range(l)
                )
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return roots


def oracle_positive_roots(cartan):
    roots = reflection_closure(cartan)
    return sorted(
        (r for r in roots if sum(r) > 0), key=lambda r: (sum(r), r)
    )


def oracle_exponents(pos_roots, l):
    top = max(sum(r) for r in pos_roots)
    hist = [sum(1 for r in pos_roots if sum(r) == k) for k in range(1, top + 1)]
    return [sum(1 for n in hist if n >= l + 1 - j) for j in range(1, l + 1)]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_roots_match_reflection_oracle(name):
    rs = build_root_system(LieType.parse(name))
    oracle = oracle_positive_roots(rs.cartan_matrix)
    assert list(rs.positive_roots) == oracle
    assert 2 * len(oracle) + rs.rank == rs.type.dim


def test_rank_validation():
    with pytest.raises(ValueError):
        LieType("B", 1)
    with pytest.raises(ValueError):
        LieType("E", 5)
    with pytest.raises(ValueError):
        LieType("A", 9)
    with pytest.raises(ValueError):
        LieType("H", 3)


def test_a1_trivial():
    rs = build_root_system(LieType.parse("A1"))
    assert rs.positive_roots == ((1,),)
    assert rs.highest_root == (1,)
    assert exponents(rs) == [1]
    assert coxeter_number(rs) == 2
    assert rs.x_coefficients == (Fraction(1, 2),)


def test_a2_closure_and_data():
    rs = build_root_system(LieType.parse("A2"))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.highest_root == (1, 1)
    assert exponents(rs) == [1, 2]
    assert coxeter_number(rs) == 3
    # x = (h1 + h2 + (h1+h2)) / 2 = h1 + h2
    assert rs.x_coefficients == (Fraction(1), Fraction(1))


def test_g2_closure_and_data():
    rs = build_root_system(LieType.parse("G2"))
    assert len(rs.positive_roots) == 6
    assert rs.highest_root == (3, 2)  # alpha_1 short
    assert coxeter_number(rs) == 6
    assert exponents(rs) == [1, 5]


def test_d4_exponents_height_array():
    rs = build_root_system(LieType.parse("D4"))
    assert exponents(rs) == [1, 3, 3, 5]
    assert exponents(rs) == oracle_exponents(rs.positive_roots, 4)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_exponent_identities(name):
    rs = build_root_system(LieType.parse(name))
    m = exponents(rs)
    assert m == oracle_exponents(rs.positive_roots, rs.rank)
    assert sum(2 * mi + 1 for mi in m) == rs.type.dim
    assert sum(m) == rs.num_positive
    assert m[-1] == rs.height(rs.highest_root)
    assert coxeter_number(rs) == m[-1] + 1


@pytest.mark.parametrize("name", ALL_TYPES)
def test_grading_element_pairs_to_one(name):
    rs = build_root_system(LieType.parse(name))
    r = rs.x_coefficients
    for i in range(rs.rank):
        # alpha_i(x) = sum_j r_j alpha_i(h_j)
        val = sum(r[j] * rs.cartan_matrix[j][i] for j in range(rs.rank))
        assert val == 1
    assert all(ri > 0 for ri in r)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_grading_element_is_half_the_coroot_sum(name):
    """The exact solve of A^T r = 1 gives the same Fractions as the
    definition x = (1/2) sum of all positive coroots."""
    rs = build_root_system(LieType.parse(name))
    total = [Fraction(0)] * rs.rank
    for root in rs.positive_roots:
        for i, c in enumerate(rs.coroot(root)):
            total[i] += c
    assert rs.x_coefficients == tuple(c / 2 for c in total)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cartan_entry_range_and_coroots(name):
    rs = build_root_system(LieType.parse(name))
    for row in rs.cartan_matrix:
        assert all(v in (2, 0, -1, -2, -3) for v in row)
    for root in rs.positive_roots:
        co = rs.coroot(root)
        # beta(h_beta) = 2 exactly
        assert sum(co[i] * rs.pairing(root, i) for i in range(rs.rank)) == 2


@pytest.mark.parametrize(
    "name,marks",
    [("A1", (1, 1)), ("A2", (1, 1, 1)), ("G2", (1, 3, 2))],
)
def test_affine_marks_small_cases(name, marks):
    rs = build_root_system(LieType.parse(name))
    aff = affine_cartan(rs)
    assert aff.marks == marks


def test_affine_a1_gcm():
    aff = affine_cartan(build_root_system(LieType.parse("A1")))
    assert aff.gcm == ((2, -2), (-2, 2))
    assert aff.marks == (1, 1)
    assert aff.comarks == (1, 1)


def test_affine_cartan_rejects_a_last_root_that_is_not_the_highest():
    """affine_cartan reads theta as the last positive root; with alpha_2 of A2
    there the marks (1, 0, 1) are not positive and the check raises."""
    rs = build_root_system(LieType.parse("A2"))
    skewed = RootSystem(rs.type, rs.cartan_matrix, rs.norms, rs.positive_roots[-1:] + rs.positive_roots[:-1])
    with pytest.raises(RuntimeError, match="not positive null vectors"):
        affine_cartan(skewed)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_affine_cartan_invariants(name):
    rs = build_root_system(LieType.parse(name))
    aff = affine_cartan(rs)
    n = rs.rank + 1
    from math import gcd

    assert len(aff.gcm) == n
    # finite block is the Cartan matrix
    for i in range(1, n):
        for j in range(1, n):
            assert aff.gcm[i][j] == rs.cartan_matrix[i - 1][j - 1]
    # exact null vectors, coprime and positive
    for i in range(n):
        assert sum(aff.gcm[i][j] * aff.marks[j] for j in range(n)) == 0
        assert sum(aff.comarks[j] * aff.gcm[j][i] for j in range(n)) == 0
    g = 0
    for x in aff.marks:
        g = gcd(g, x)
    assert g == 1
    g = 0
    for x in aff.comarks:
        g = gcd(g, x)
    assert g == 1
    # node 0 carries mark 1 and comark 1; finite marks are the highest-root
    # coefficients and finite comarks its coroot coefficients
    assert aff.marks[0] == 1 and aff.comarks[0] == 1
    assert aff.marks[1:] == rs.highest_root
    assert aff.comarks[1:] == rs.coroot(rs.highest_root)
    # marks sum to the Coxeter number
    assert sum(aff.marks) == coxeter_number(rs)


@pytest.mark.parametrize("name", ["A3", "A4", "D5", "E6"])
def test_diagram_automorphism_nontrivial(name):
    rs = build_root_system(LieType.parse(name))
    nu = diagram_automorphism(rs)
    assert nu.perm != tuple(range(rs.rank))
    assert tuple(nu.perm) in brute_force_order2_symmetries(rs.cartan_matrix)
    assert nu.apply_root(rs.highest_root) == rs.highest_root


def test_a3_automorphism_swaps_ends():
    rs = build_root_system(LieType.parse("A3"))
    nu = diagram_automorphism(rs)
    assert nu.perm == (2, 1, 0)


def test_e6_automorphism_fixes_branch():
    rs = build_root_system(LieType.parse("E6"))
    nu = diagram_automorphism(rs)
    # branch node (index 2) and the short arm (index 5) stay put
    assert nu.perm[2] == 2 and nu.perm[5] == 5
    assert nu.perm != tuple(range(6))


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "D4", "D5", "E6", "G2"])
def test_preserves_is_the_cartan_symmetry_check(name):
    """The one check of ``diagram_automorphism`` and ``restrict``: an
    involutive permutation preserves the Cartan matrix exactly when the
    brute-force search finds it."""
    import itertools

    A = build_root_system(LieType.parse(name)).cartan_matrix
    involutions = [p for p in itertools.permutations(range(len(A))) if all(p[p[i]] == i for i in p)]
    found = [p for p in involutions if DiagramAutomorphism(p).preserves(A)]
    assert found == brute_force_order2_symmetries(A)
    assert len(found) < len(involutions)


@pytest.mark.parametrize("name", ["A1", "B2", "B3", "C4", "D4", "D6", "E7", "E8", "F4", "G2"])
def test_diagram_automorphism_trivial(name):
    rs = build_root_system(LieType.parse(name))
    assert diagram_automorphism(rs).perm == tuple(range(rs.rank))


_NOT_INVOLUTIONS = """
from affinetoda.rootdata import DiagramAutomorphism

for perm in [(2, 1, 3, 0), (3, 1, 0, 2), (0, 0, 2), (1, 2, 3, 0), (0, 1, 3)]:
    try:
        DiagramAutomorphism(perm)
    except ValueError as exc:
        assert str(exc) == f"{perm} is not an involutive permutation of its nodes", exc
    else:
        raise SystemExit(f"{perm} was accepted")
for perm in [(), (0,), (2, 1, 0), (1, 0, 3, 2)]:
    DiagramAutomorphism(perm)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_symmetry_must_be_an_involutive_permutation(flags):
    """The two 3-cycles of D4's legs, a repeated node, a 4-cycle and a node
    out of range raise ValueError at construction, also under python -O;
    the identity (of any size) and products of disjoint swaps are accepted."""
    proc = subprocess.run([sys.executable, *flags, "-c", _NOT_INVOLUTIONS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout


@pytest.mark.parametrize("name", ALL_TYPES)
def test_deterministic_ordering(name):
    rs = build_root_system(LieType.parse(name))
    order = [(rs.height(r), r) for r in rs.positive_roots]
    assert order == sorted(order)
    rs2 = build_root_system(LieType.parse(name))
    assert rs.positive_roots == rs2.positive_roots
