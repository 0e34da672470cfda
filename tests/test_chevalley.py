"""Chevalley layer: brackets, characters, principal sl2, Coxeter phases, involutions."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from affinetoda import chevalley
from affinetoda.chevalley import verify_structure
from affinetoda.connection import char_scale
from affinetoda.rootdata import diagram_automorphism, exponents
from conftest import ALL_TYPES, reference_bracket
from oracles import (
    ad,
    basis_vector,
    characters,
    coxeter_apply,
    cyclic_reference,
    is_cyclic_g1,
    killing,
    lambda_hat,
    normalize_cyclic,
    rho_hat,
    sigma_matrix,
    sl2_triple,
)

SMALL = ["A1", "A2", "B2", "G2", "A3", "D4"]
MEDIUM = SMALL + ["C3", "F4", "D5", "E6"]


with open(os.path.join(os.path.dirname(__file__), "data", "structure_table.json")) as fh:
    TABLE_DIGESTS = json.load(fh)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_structure_table_matches_its_digest(name, algebra):
    """Every term of the table, in table order: the sha256 of the four
    little-endian int64 columns (i, then j, k, c) of ``_table``, the
    table the float bracket reads.  A change to the build must reproduce
    the committed table term for term."""
    _, alg, _, _ = algebra(name)
    columns = alg._table
    data = np.stack([np.asarray(c, dtype="<i8") for c in columns]).tobytes()
    assert len(columns[0]) == TABLE_DIGESTS[name]["terms"]
    assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS[name]["sha256"]


@pytest.mark.parametrize("name", MEDIUM)
def test_structure_exact(name, algebra):
    _, alg, _, _ = algebra(name)
    checks = verify_structure(alg)
    assert checks["jacobi_exact"]
    assert checks["killing_ad_invariant"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_generators_reach_every_slot(name, algebra):
    """verify_structure checks only the l+1 affine generators e_1, ..., e_l
    and e_{-theta}; their iterated brackets reach all of g, and the e_i
    alone only the positive root slots."""
    rs, alg, _, _ = algebra(name)
    e = [alg.root_index(rs.simple_root(i)) for i in range(alg.rank)]
    e0 = alg.root_index(tuple(-c for c in rs.highest_root))
    assert all(alg.generated_slots(e + [e0]))
    positive = np.zeros(alg.dim, dtype=bool)
    positive[alg.rank : alg.rank + alg.num_positive] = True
    assert np.array_equal(alg.generated_slots(e), positive)


def test_verify_structure_needs_the_generated_slots(algebra, monkeypatch):
    """With the closure step broken (one slot left unreached), the
    generator checks no longer cover g and both exact checks fail.  The
    generators whose closure is taken are e_{-theta}, e_1, ..., e_l."""
    rs, alg, _, _ = algebra("A2")
    full = type(alg).generated_slots
    seen = []

    def one_short(self, slots):
        seen.append(list(slots))
        mask = full(self, slots)
        mask[-1] = False
        return mask

    assert verify_structure(alg) == {"jacobi_exact": True, "killing_ad_invariant": True}
    monkeypatch.setattr(type(alg), "generated_slots", one_short)
    assert verify_structure(alg) == {"jacobi_exact": False, "killing_ad_invariant": False}
    roots = [(-1, -1), (1, 0), (0, 1)]
    assert seen == [[alg.root_index(r) for r in roots]]


@pytest.mark.parametrize("name", SMALL)
def test_bracket_basics(name, algebra, rng):
    rs, alg, _, _ = algebra(name)
    # [e_alpha, e_{-alpha}] = h_alpha for every positive root
    for root in rs.positive_roots:
        ep = basis_vector(alg, alg.root_index(root))
        em = basis_vector(alg, alg.root_index(tuple(-c for c in root)))
        got = alg.bracket(ep, em)
        expect = np.zeros(alg.dim, dtype=complex)
        expect[: alg.rank] = rs.coroot(root)
        assert np.max(np.abs(got - expect)) == 0
    # antisymmetry on random elements
    X = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    Y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.max(np.abs(alg.bracket(X, X))) < 1e-12
    assert np.max(np.abs(alg.bracket(X, Y) + alg.bracket(Y, X))) < 1e-12


def _random(rng, shape, support=None):
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if support is not None:
        mask = np.zeros(shape[-1], dtype=bool)
        mask[support] = True
        out[..., ~mask] = 0
    return out


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("name", ["A2", "G2", "D4", "E6", "E8"])
def test_bracket_matches_dense_reference(name, algebra, rng):
    rs, alg, _, _ = algebra(name)
    d, l = alg.dim, alg.rank
    # dense random inputs on a small grid
    X, Y = _random(rng, (3, 2, d)), _random(rng, (3, 2, d))
    _assert_close(alg.bracket(X, Y), reference_bracket(alg, X, Y))
    # connection-shaped: Cartan plus the phase -1 / +1 slots
    lowered = [alg.root_index(tuple(-c for c in rs.simple_root(i))) for i in range(l)]
    raised = [alg.root_index(rs.simple_root(i)) for i in range(l)]
    X = _random(rng, (4, 4, d), list(range(l)) + lowered + [alg.root_index(alg.rs.highest_root)])
    Y = _random(rng, (4, 4, d), list(range(l)) + raised + [alg.dim - 1])
    _assert_close(alg.bracket(X, Y), reference_bracket(alg, X, Y))
    # 1-D against a grid, both ways, and broadcasting leading axes
    v, G = _random(rng, (d,)), _random(rng, (3, 4, d))
    _assert_close(alg.bracket(v, G), reference_bracket(alg, v, G))
    _assert_close(alg.bracket(G, v), reference_bracket(alg, G, v))
    A, B = _random(rng, (3, 1, d)), _random(rng, (1, 4, d))
    _assert_close(alg.bracket(A, B), reference_bracket(alg, A, B))
    # 1-D with 1-D, sparse and zero supports
    e, f = _random(rng, (d,), raised), basis_vector(alg, lowered[0])
    _assert_close(alg.bracket(e, f), reference_bracket(alg, e, f))
    assert not np.any(alg.bracket(np.zeros(d), G))
    assert not np.any(alg.bracket(G, np.zeros((3, 4, d))))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_character_table_is_exact_pairing(name, algebra):
    """The table behind char_scale against the exact root pairings."""
    rs, alg, _, _ = algebra(name)
    expect = np.zeros((alg.dim, rs.rank), dtype=np.int64)
    for root in rs.positive_roots:
        for sign in (1, -1):
            beta = tuple(sign * c for c in root)
            expect[alg.root_index(beta)] = [rs.pairing(beta, a) for a in range(rs.rank)]
    assert characters(alg).dtype == np.int64
    assert np.array_equal(characters(alg), expect)


def _root_brackets(rs, alg):
    """N[(a, b)] = coefficient of e_{a+b} in [e_a, e_b] for roots a, b with
    a + b a root, read through ad; every other root pair but b = -a must
    bracket to zero."""
    roots = list(rs.positive_roots) + [tuple(-c for c in r) for r in rs.positive_roots]
    slot = {r: alg.root_index(r) for r in roots}
    basis = np.eye(alg.dim, dtype=np.int64)
    N = {}
    for a in roots:
        ad_a = ad(alg, basis[slot[a]])
        for b in roots:
            col = ad_a[:, slot[b]]
            s = tuple(x + y for x, y in zip(a, b))
            if s in slot:
                assert np.flatnonzero(col).tolist() == [slot[s]], (a, b)
                N[(a, b)] = int(col[slot[s]])
            elif any(s):
                assert not col.any(), (a, b)
    return N


@pytest.mark.parametrize("name", ALL_TYPES)
def test_structure_constants_exact(name, algebra):
    """|N_{a,b}| = p + 1 with p the length of the a-string below b,
    N_{a,b} = -N_{b,a}, N_{-a,-b} = -N_{a,b}, and every extraspecial pair is +."""
    rs, alg, _, _ = algebra(name)
    N = _root_brackets(rs, alg)
    positive = set(rs.positive_roots)
    is_root = positive | {tuple(-c for c in r) for r in positive}
    for (a, b), n in N.items():
        p = 0
        while tuple(y - (p + 1) * x for x, y in zip(a, b)) in is_root:
            p += 1
        assert abs(n) == p + 1, (a, b)
        assert N[(b, a)] == -n, (a, b)
        assert N[(tuple(-c for c in a), tuple(-c for c in b))] == -n, (a, b)
    for gamma in rs.positive_roots:
        # the first summand in root order of any decomposition gamma = a + b
        a = next(
            (a for a in rs.positive_roots if tuple(g - x for g, x in zip(gamma, a)) in positive),
            None,
        )
        if a is not None:
            assert N[(a, tuple(g - x for g, x in zip(gamma, a)))] > 0, gamma


@pytest.mark.parametrize("name", ALL_TYPES)
def test_killing_form_closed_form(name, algebra):
    """Cartan block sum_beta beta(h_a) beta(h_b), kappa(e_b, e_-b) =
    kappa(h_b, h_b) / 2, and zero elsewhere."""
    rs, alg, _, _ = algebra(name)
    l = rs.rank
    expect = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    expect[:l, :l] = characters(alg).T @ characters(alg)
    for root in rs.positive_roots:
        co = np.array(rs.coroot(root))
        half, rem = divmod(int(co @ expect[:l, :l] @ co), 2)
        assert rem == 0, root
        ip, im = alg.root_index(root), alg.root_index(tuple(-c for c in root))
        expect[ip, im] = expect[im, ip] = half
    K = killing(alg)
    assert K.dtype == np.int64
    assert np.array_equal(K, expect)


def test_bracket_a2_cartan_action(algebra):
    rs, alg, _, _ = algebra("A2")
    h1 = basis_vector(alg, 0)
    e2 = basis_vector(alg, alg.root_index((0, 1)))
    got = alg.bracket(h1, e2)
    # alpha_2(h_1) = -1
    assert np.max(np.abs(got + e2)) == 0


def test_bracket_dimension_mismatch(algebra):
    _, alg, _, _ = algebra("A1")
    with pytest.raises(ValueError):
        alg.bracket(np.zeros(alg.dim + 1), np.zeros(alg.dim))


@pytest.mark.parametrize("name", MEDIUM)
def test_principal_sl2_relations(name, algebra):
    _, alg, sl2, _ = algebra(name)
    x, e, et = sl2_triple(sl2)
    assert np.max(np.abs(alg.bracket(x, e) - e)) < 1e-12
    assert np.max(np.abs(alg.bracket(x, et) + et)) < 1e-12
    assert np.max(np.abs(alg.bracket(e, et) - x)) < 1e-12
    for m, v in zip(sl2.exponents, _hw_vectors(alg)):
        assert np.max(np.abs(alg.bracket(e, v))) < 1e-10
        assert np.max(np.abs(alg.bracket(x, v) - m * v)) < 1e-10


def test_a1_sl2_explicit(algebra):
    _, alg, sl2, _ = algebra("A1")
    s = 0.5 ** 0.5
    x, e, et = sl2_triple(sl2)
    assert abs(x[0] - 0.5) < 1e-15
    assert abs(e[alg.root_index((1,))] - s) < 1e-15
    assert abs(et[alg.root_index((-1,))] - s) < 1e-15


def test_a2_top_vector_is_highest_root(algebra):
    rs, alg, sl2, _ = algebra("A2")
    e2 = _hw_vectors(alg)[1]
    expect = basis_vector(alg, alg.root_index(alg.rs.highest_root))
    assert np.max(np.abs(e2 - expect)) == 0
    assert np.max(np.abs(alg.bracket(sl2_triple(sl2)[0], e2) - 2 * e2)) < 1e-12


@pytest.mark.parametrize("name", MEDIUM)
def test_ad_x_spectrum_is_heights(name, algebra):
    _, alg, sl2, _ = algebra(name)
    # ad_x is diagonal on the Chevalley basis with integer eigenvalues
    x = sl2_triple(sl2)[0]
    for idx in range(alg.dim):
        v = basis_vector(alg, idx)
        got = alg.bracket(x, v)
        assert np.max(np.abs(got - alg.slot_heights[idx] * v)) < 1e-12


@pytest.mark.parametrize("name", MEDIUM)
def test_coxeter_phases(name, algebra):
    _, alg, sl2, cox = algebra(name)
    assert cox.h == sl2.top_exponent + 1
    # phase 0 space is the Cartan
    assert list(cox.eigenspace_indices(0)) == list(range(alg.rank))
    assert len(cox.eigenspace_indices(1)) == alg.rank + 1
    # applying the phase map h times is the identity
    X = np.arange(1.0, alg.dim + 1) + 0.5j
    Y = X.copy()
    for _ in range(cox.h):
        Y = coxeter_apply(cox, Y)
    assert np.max(np.abs(Y - X)) < 1e-10
    # bracket respects the phase grading
    phases = np.array(cox.slot_phases)
    for i, e in enumerate(np.eye(alg.dim, dtype=np.int64)):
        k, j = ad(alg, e).nonzero()
        assert np.array_equal((phases[i] + phases[j]) % cox.h, phases[k])


def test_a2_coxeter_eigenvalue_of_higgs_shape(algebra):
    _, alg, sl2, cox = algebra("A2")
    q = 0.7 - 0.2j
    phi = sl2_triple(sl2)[2] + q * basis_vector(alg, alg.root_index(alg.rs.highest_root))
    got = coxeter_apply(cox, phi)
    omega = np.exp(2j * np.pi * 2 / 3)
    assert np.max(np.abs(got - omega * phi)) < 1e-12


@pytest.mark.parametrize("name", MEDIUM)
def test_sigma_defining_properties(name, algebra):
    _, alg, sl2, _ = algebra(name)
    S = sigma_matrix(sl2)
    x, _, et = sl2_triple(sl2)
    assert np.max(np.abs(S @ et + et)) < 1e-10
    assert np.max(np.abs(S @ x - x)) < 1e-10
    for v in _hw_vectors(alg):
        assert np.max(np.abs(S @ v + v)) < 1e-10
    assert np.max(np.abs(S @ S - np.eye(alg.dim))) < 1e-10


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sigma_is_exact_signed_permutation(name, algebra):
    _, alg, sl2, _ = algebra(name)
    S = sigma_matrix(sl2)
    assert set(np.unique(S)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.count_nonzero(S, axis=1), np.ones(alg.dim))
    assert np.array_equal(np.count_nonzero(S, axis=0), np.ones(alg.dim))
    X = np.linspace(-1, 1, alg.dim) + 1j * np.linspace(1, 2, alg.dim)
    assert np.array_equal(S @ rho_hat(alg, X), rho_hat(alg, S @ X))


def _grades(alg):
    """Basis slots by root height."""
    grades = {}
    for idx, height in enumerate(alg.slot_heights):
        grades.setdefault(height, []).append(idx)
    return grades


def _hw_vectors(alg):
    """Unit highest weight vectors of e, one per entry of ``exponents``: the
    SVD kernel of ad_e at each exponent grade, each vector signed so that its
    largest entry is positive."""
    rs = alg.rs
    ms = exponents(rs)
    e = np.zeros(alg.dim)
    for i, r in enumerate(rs.x_coefficients):
        e[alg.root_index(rs.simple_root(i))] = float(r) ** 0.5
    grades, ad_e = _grades(alg), ad(alg, e)
    out = [None] * len(ms)
    for m in sorted(set(ms)):
        rows, cols = grades.get(m + 1, []), grades[m]
        block = ad_e[np.ix_(rows, cols)] if rows else np.zeros((0, len(cols)))
        _, sv, vh = np.linalg.svd(block)
        rank = np.sum(sv > sv.max(initial=0.0) * np.finfo(float).eps * max(block.shape))
        kern = vh[rank:]
        slots = [i for i in range(len(ms)) if ms[i] == m]
        assert len(kern) == len(slots)
        for i, vec in zip(slots, kern):
            out[i] = np.zeros(alg.dim)
            out[i][cols] = vec * np.sign(vec[np.argmax(np.abs(vec))])
    return out


def _float_sigma(alg):
    """sigma by the float construction from its definition by levels: the
    highest weight vectors of ``_hw_vectors``, lowering towers by ad_etilde
    scaled to max 1, the sign (-1)^(k+1) on level k, the block solves
    B D B^-1 with ``inv`` per grade, and rounding."""
    rs = alg.rs
    ms = exponents(rs)
    et = np.zeros(alg.dim)
    for i, r in enumerate(rs.x_coefficients):
        et[alg.root_index(tuple(-c for c in rs.simple_root(i)))] = float(r) ** 0.5
    ad_et = ad(alg, et)
    towers = []
    for m, v in zip(ms, _hw_vectors(alg)):
        tower = [v]
        for _ in range(2 * m):
            nxt = ad_et @ tower[-1]
            tower.append(nxt / np.abs(nxt).max())
        towers.append(tower)
    S = np.zeros((alg.dim, alg.dim))
    for m, idxs in _grades(alg).items():
        levels = [(i, mi - m) for i, mi in enumerate(ms) if 0 <= mi - m <= 2 * mi]
        B = np.stack([towers[i][k][idxs] for i, k in levels], axis=1)
        D = np.diag([-1.0 if k % 2 == 0 else 1.0 for _, k in levels])
        S[np.ix_(idxs, idxs)] = B @ D @ np.linalg.inv(B)
    exact = np.rint(S)
    assert np.abs(S - exact).max() < 1e-9
    return exact


@pytest.mark.parametrize("name", ALL_TYPES)
def test_exact_sigma_equals_the_float_construction(name, algebra):
    _, alg, sl2, _ = algebra(name)
    assert np.array_equal(sigma_matrix(sl2), _float_sigma(alg))


# The lift of nu broken on purpose, on A4 (nu reverses the chain) and D4
# (nu is trivial).  Each mutation must raise; some are seen by only one of
# the checks of ``_check_lift``, so each check is needed:
#  - a flipped s_beta on the highest root, which nu fixes, so s_beta s_nu(beta)
#    is still 1: only the term check sees it;
#  - one wrong target slot (another root of the same height);
#  - a flipped antisymmetric pair of table constants, [e_a1, e_a2] and
#    [e_a2, e_a1] (A4 only: for a trivial nu, sigma is (-1)^height, an
#    automorphism of any graded bracket, so only verify_structure's Jacobi
#    check can see a broken constant there);
#  - two r_i swapped so that r_nu(i) != r_i (A4): only the r check sees it;
#  - the lift of D4's order-3 graph symmetry, an automorphism but not an
#    involution: only the involution check sees it.
_MUTATIONS = """
from affinetoda import chevalley
from affinetoda.rootdata import DiagramAutomorphism, LieType, build_root_system


def raises(fn, *args):
    try:
        fn(*args)
    except RuntimeError:
        return True
    return False


caught = []
for name in ("A4", "D4"):
    alg = chevalley.build_chevalley(build_root_system(LieType.parse(name)))
    target, sign = chevalley._diagram_lift(alg)
    chevalley._check_lift(alg, target, sign)
    if chevalley.build_principal_sl2(alg).sigma != tuple(zip(target, sign)):
        raise SystemExit("the unbroken lift is not sigma")
    ht, top = alg.slot_heights, alg.root_index(alg.rs.highest_root)
    flipped = list(sign)
    flipped[top] = -flipped[top]
    caught.append(raises(chevalley._check_lift, alg, target, flipped))
    d = ht.index(2)
    wrong = list(target)
    wrong[d] = next(c for c in range(alg.dim) if ht[c] == 2 and c != target[d])
    caught.append(raises(chevalley._check_lift, alg, wrong, sign))
    if name == "A4":
        terms = list(zip(alg._bk_i, alg._bk_j, alg._bk_k))
        a1, a2, a12 = (alg.root_index(r) for r in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)))
        t, u = terms.index((a1, a2, a12)), terms.index((a2, a1, a12))
        alg._bk_v[t], alg._bk_v[u] = -alg._bk_v[t], -alg._bk_v[u]
        caught.append(raises(chevalley.build_principal_sl2, alg))
        alg._bk_v[t], alg._bk_v[u] = -alg._bk_v[t], -alg._bk_v[u]
        r = alg.rs.x_coefficients
        alg.rs.__dict__["x_coefficients"] = (r[1], r[0]) + r[2:]
        caught.append(raises(chevalley.build_principal_sl2, alg))
    else:
        # the constructor rejects a non-involution: build it past that
        triality = object.__new__(DiagramAutomorphism)
        triality.perm = (2, 1, 3, 0)
        chevalley.diagram_automorphism = lambda rs: triality
        caught.append(raises(chevalley.build_principal_sl2, alg))
print(*caught)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_broken_sigma_inputs_raise(flags):
    """Each of the 7 mutations of the lift raises RuntimeError, also under
    python -O (the checks are not asserts); the unbroken lift passes."""
    proc = subprocess.run([sys.executable, *flags, "-c", _MUTATIONS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 7


@pytest.mark.parametrize("name", MEDIUM)
def test_sigma_is_automorphism(name, algebra, rng):
    _, alg, sl2, _ = algebra(name)
    S = sigma_matrix(sl2)
    for _ in range(20):
        X = rng.standard_normal(alg.dim)
        Y = rng.standard_normal(alg.dim)
        lhs = S @ alg.bracket(X, Y)
        rhs = alg.bracket(S @ X, S @ Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sigma_permutes_coroots_by_nu(name, algebra):
    """Exactly, for every type: sigma_symmetry_defect reads sigma on the
    Cartan as this permutation."""
    rs, alg, sl2, _ = algebra(name)
    nu = diagram_automorphism(rs)
    S = sigma_matrix(sl2)
    for i in range(rs.rank):
        got = S @ basis_vector(alg, i)
        expect = basis_vector(alg, nu.perm[i])
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("name", SMALL)
def test_rho_hat_properties(name, algebra, rng):
    rs, alg, sl2, _ = algebra(name)
    # defining values
    for i in range(alg.rank):
        assert np.max(np.abs(rho_hat(alg, basis_vector(alg, i)) + basis_vector(alg, i))) == 0
    for root in rs.positive_roots:
        ep = basis_vector(alg, alg.root_index(root))
        em = basis_vector(alg, alg.root_index(tuple(-c for c in root)))
        assert np.max(np.abs(rho_hat(alg, ep) + em)) == 0
        # antilinearity: rho(i e_a) = i e_{-a}
        assert np.max(np.abs(rho_hat(alg, 1j * ep) - 1j * em)) == 0
    # involutive and an anti-automorphism of the bracket (antilinear case)
    X = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    Y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.max(np.abs(rho_hat(alg, rho_hat(alg, X)) - X)) < 1e-14
    lhs = rho_hat(alg, alg.bracket(X, Y))
    rhs = alg.bracket(rho_hat(alg, X), rho_hat(alg, Y))
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    # sigma and rho_hat commute
    S = sigma_matrix(sl2)
    a = S @ rho_hat(alg, X)
    b = rho_hat(alg, S @ X)
    assert np.max(np.abs(a - b)) < 1e-10
    lam2 = lambda_hat(alg, sl2, lambda_hat(alg, sl2, X))
    assert np.max(np.abs(lam2 - X)) < 1e-10


@pytest.mark.parametrize("name", MEDIUM)
def test_hermitian_form_positive(name, algebra):
    rs, alg, _, _ = algebra(name)
    # H(u,v) = -k(u, rho(v)); diagonal entries must be positive
    K = killing(alg)
    for i in range(alg.rank):
        h = basis_vector(alg, i)
        val = -(h @ K @ rho_hat(alg, h))
        assert val.real > 0 and abs(val.imag) < 1e-12
    for root in rs.positive_roots:
        ep = basis_vector(alg, alg.root_index(root))
        val = -(ep @ K @ rho_hat(alg, ep))
        assert val.real > 0


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_hermitian_form_positive_definite(name, algebra):
    _, alg, _, _ = algebra(name)
    G, K = np.zeros((alg.dim, alg.dim), dtype=complex), killing(alg)
    for j in range(alg.dim):
        G[:, j] = -(K @ rho_hat(alg, basis_vector(alg, j)))
    assert np.max(np.abs(G - G.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(G).min() > 0


class TestCyclic:
    def test_all_ones_is_cyclic(self, algebra):
        _, alg, _, _ = algebra("A2")
        X = np.zeros(alg.dim, dtype=complex)
        for i in range(alg.rank):
            X[alg.root_index(alg.rs.simple_root(i))] = 1.0
        X[alg.dim - 1] = 1.0
        assert is_cyclic_g1(alg, X)

    def test_missing_lowest_coefficient(self, algebra):
        _, alg, sl2, _ = algebra("A2")
        # mirror of etilde inside the phase-1 space: no lowest-root part
        X = -rho_hat(alg, sl2_triple(sl2)[2])
        assert not is_cyclic_g1(alg, X)

    def test_conjugated_higgs_shape_is_cyclic(self, algebra):
        _, alg, sl2, _ = algebra("B2")
        q = 1.3 - 0.4j
        phi = sl2_triple(sl2)[2] + q * basis_vector(alg, alg.root_index(alg.rs.highest_root))
        X = -rho_hat(alg, phi)
        assert is_cyclic_g1(alg, X)

    def test_precondition(self, algebra):
        _, alg, _, _ = algebra("A2")
        X = np.zeros(alg.dim, dtype=complex)
        X[0] = 1.0  # Cartan component: not in the phase-1 space
        with pytest.raises(ValueError):
            is_cyclic_g1(alg, X)


class TestNormalizeCyclic:
    def test_reference_fixed(self, algebra):
        _, alg, _, _ = algebra("A2")
        X = cyclic_reference(alg)
        xi, lam = normalize_cyclic(alg, X)
        assert np.max(np.abs(xi)) < 1e-12
        assert abs(lam - 1) < 1e-12

    def test_scaling(self, algebra):
        _, alg, _, _ = algebra("A2")
        X = 2.0 * cyclic_reference(alg)
        xi, lam = normalize_cyclic(alg, X)
        assert np.max(np.abs(xi)) < 1e-12
        assert abs(lam - 2) < 1e-12

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_generic_oracle(self, name, algebra, rng):
        _, alg, _, _ = algebra(name)
        slots = [alg.root_index(alg.rs.simple_root(i)) for i in range(alg.rank)]
        slots.append(alg.dim - 1)
        X = np.zeros(alg.dim, dtype=complex)
        for s in slots:
            X[s] = rng.standard_normal() + 1j * rng.standard_normal()
        xi, lam = normalize_cyclic(alg, X)
        # the character table is checked against exact pairings above
        got = char_scale(X, xi, characters(alg))
        ref = lam * cyclic_reference(alg)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, abs(lam))

    def test_non_cyclic_rejected(self, algebra):
        _, alg, _, _ = algebra("A2")
        X = np.zeros(alg.dim, dtype=complex)
        X[alg.root_index(alg.rs.simple_root(0))] = 1.0  # others zero
        with pytest.raises(ValueError):
            normalize_cyclic(alg, X)
