"""Concrete Chevalley-basis Lie algebra with integer structure constants.

Basis layout: the simple coroots h_1..h_l first, then e_alpha for the
positive roots in the deterministic rootdata order, then e_{-alpha} in the
same order.  Structure constants N_{a,b} are signed by the extraspecial
pair convention: for each non-simple positive root the decomposition with
the smallest first summand gets N = +(p+1), and every other constant is
forced from those by the Jacobi identity and the invariant-form relation

    N_{x,y} / (z,z) = N_{y,z} / (x,x) = N_{z,x} / (y,y)    (x+y+z = 0).

The constants are kept once, as an exact table of terms (i, j, k, c)
meaning [b_i, b_j] has coefficient c on b_k: four stdlib ``array('q')``
columns sorted by (i, j, k).  The table, the Jacobi and Killing checks, the
principal sl2 and its involution sigma (the signed lift of the diagram
automorphism, checked against every term of the table) are computed in
Python integer arithmetic, so none of them loads numpy.  Only the float
bracket of coefficient arrays, ``bracket``, reads the table through numpy
(the columns as zero-copy int64 views, ``_table``), and those two import
numpy inside themselves.  The dense float views the tests check against
(ad, the Killing matrix, the sl2 triple, sigma as a matrix, rho_hat, the
cyclic normalisation) are built in the tests.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import cached_property
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from .rootdata import RootSystem, coxeter_number, diagram_automorphism, exponents

Root = Tuple[int, ...]
# a signed permutation matrix, by rows: row a holds sign s in column b, for (b, s) = perm[a]
SignedPermutation = Tuple[Tuple[int, int], ...]


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


class ChevalleyAlgebra:
    """The exact structure table of one type and its index bookkeeping: the
    root, height, negation and characters of each basis slot, the Killing
    form by rows (``_killing_rows``) and the closure of a set of slots under
    brackets (``generated_slots``).  ``bracket_sparse`` brackets coefficient
    maps in plain Python; ``bracket`` brackets numpy coefficient arrays."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        R = rs.num_positive
        self.rank = l
        self.num_positive = R
        self.dim = l + 2 * R

        # basis index: 0..l-1 coroots, l..l+R-1 positive, l+R..l+2R-1 negative
        pos = list(rs.positive_roots)
        # simple-root coordinates of the root of each slot, zero on the Cartan
        self._roots: Tuple[Root, ...] = tuple([(0,) * l] * l + pos + [_neg(r) for r in pos])
        self._index_of_root: Dict[Root, int] = {r: d for d, r in enumerate(self._roots) if d >= l}
        self.slot_heights: Tuple[int, ...] = tuple(sum(r) for r in self._roots)
        # slot of -beta for the root beta of each slot; identity on the Cartan
        self.slot_negation: Tuple[int, ...] = (
            tuple(range(l)) + tuple(range(l + R, l + 2 * R)) + tuple(range(l, l + R))
        )
        # beta(h_a) for the root beta of each slot; zero rows on the Cartan
        self._characters = tuple(tuple(rs.pairing(r, a) for a in range(l)) for r in self._roots)
        self._build_structure_table()

    # ---- index helpers -------------------------------------------------
    def root_index(self, root: Root) -> int:
        return self._index_of_root[root]

    # ---- structure constants -------------------------------------------
    def _build_structure_table(self) -> None:
        """The table columns (_bk_i, _bk_j, _bk_k, _bk_v), built in (i, j, k) order.

        Each root is encoded as one integer, linear in its coordinates, and
        root sums are looked up in a dict of those codes.  Only the positive
        pairs x < y whose sum g is a root are walked: the extraspecial pair
        of each g gets +(p+1), and the other pairs follow from the Jacobi
        identity in integer arithmetic on scaled squared norms.  The
        negative pairs follow by N_{-a,-b} = -N_{a,b}, and the mixed pairs
        by the norm-ratio relation of the module docstring.
        """
        rs = self.rs
        l, R = self.rank, self.num_positive
        roots = self._roots[l:]  # the 2R root slots
        # nn[u] = s (beta_u, beta_u) with s the least scale making every s d_i an integer
        s = lcm(*(d.denominator for d in rs.norms))
        sd = [int(s * d) for d in rs.norms]
        A = rs.cartan_matrix
        nn = [
            sum(r[j] * sum(r[i] * sd[i] * A[i][j] for i in range(l)) for j in range(l))
            for r in roots[:R]
        ]

        # linear codes: unique for coefficient vectors with |c_i| <= 4 max|root|,
        # enough for the sums u + v and the string steps v - k u (k <= 3)
        base = 8 * max(abs(c) for r in roots for c in r) + 1
        codes = [sum(c * base**i for i, c in enumerate(r)) for r in roots]
        slot = {code: u for u, code in enumerate(codes)}

        # positive pairs x < y with x + y = g a root, grouped by g in root order
        triples = sorted(
            (g, x, y)
            for x in range(R)
            for y in range(x + 1, R)
            if (g := slot.get(codes[x] + codes[y])) is not None
        )
        N: Dict[Tuple[int, int], int] = {}
        prev_g = -1
        for g, x, y in triples:
            p = 0  # length of the x-string below y
            while p < 3 and codes[y] - (p + 1) * codes[x] in slot:
                p += 1
            if g != prev_g:  # the extraspecial pair of g
                a, b, prev_g = x, y, g
                val = p + 1
            else:
                # Jacobi on (e_{-a}, e_x, e_y), scaled by nn[x] nn[y]
                da = slot.get(codes[x] - codes[a], R)
                db = slot.get(codes[y] - codes[a], R)
                num = 0
                if da < R:
                    num += N[a, da] * N.get((da, y), 0) * nn[da] * nn[y]
                if db < R:
                    num += N[a, db] * N.get((x, db), 0) * nn[db] * nn[x]
                val, rem = divmod(num * nn[g], nn[x] * nn[y] * nn[b] * N[a, b])
                if rem or abs(val) != p + 1:
                    pair = (rs.positive_roots[x], rs.positive_roots[y])
                    raise RuntimeError(f"{rs.type}: structure constant N{pair} is not +-{p + 1}")
            N[x, y], N[y, x] = val, -val

        def mixed(u: int, w: int, c: int) -> int:
            """N_{u,-w} for positive u, w with u - w the root of slot c."""
            if c < R:
                num, den = -N[w, c] * nn[c], nn[u]
            else:
                num, den = N[c - R, u] * nn[c - R], nn[w]
            val, rem = divmod(num, den)
            if rem:
                raise RuntimeError(f"{rs.type}: a mixed structure constant is not an integer")
            return val

        def constant(u: int, w: int, g: int) -> int:
            """N_{u,w} for root slots u, w whose sum is the root of slot g."""
            if u < R:
                return N[u, w] if w < R else mixed(u, w - R, g)
            return -mixed(w, u - R, g) if w < R else -N[u - R, w - R]

        # The terms in (i, j, k) order: [h_a, e_d] = beta_d(h_a) e_d, then for
        # each root slot u its [e_u, h_a] = -beta_u(h_a) e_u, and for w in slot
        # order [e_u, e_w] = N_{u,w} e_{u+w}, or +-h_u when w = -u.  The slot
        # of u + w is looked up by the sum of their codes, which is 0 exactly
        # when w = -u.
        chars = self._characters
        columns = tuple(array("q") for _ in range(4))
        put_i, put_j, put_k, put_v = (col.append for col in columns)
        for a in range(l):
            for d in range(l, self.dim):
                c = chars[d][a]
                if c:
                    put_i(a), put_j(d), put_k(d), put_v(c)
        slot[0] = -1  # w = -u
        for u in range(2 * R):
            i = l + u
            for a, c in enumerate(chars[i]):
                if c:
                    put_i(i), put_j(a), put_k(i), put_v(-c)
            cu = codes[u]
            for w, g in enumerate(map(slot.get, [cu + cw for cw in codes])):
                if g is None:
                    continue
                if g >= 0:
                    put_i(i), put_j(l + w), put_k(l + g), put_v(constant(u, w, g))
                    continue
                pa = min(u, w)  # [e_pa, e_-pa] = h_pa = sum_ci co_ci h_ci
                for ci, rc in enumerate(roots[pa]):
                    if rc:
                        co, rem = divmod(2 * rc * sd[ci], nn[pa])
                        if rem:
                            raise RuntimeError(f"{rs.type}: a coroot is not integral")
                        put_i(i), put_j(l + w), put_k(ci), put_v(co if u < R else -co)
        self._bk_i, self._bk_j, self._bk_k, self._bk_v = columns

    @cached_property
    def _table(self) -> tuple:
        """The four table columns as int64 numpy arrays: views, not copies."""
        import numpy as np

        columns = (self._bk_i, self._bk_j, self._bk_k, self._bk_v)
        return tuple(np.frombuffer(t, dtype=np.int64) for t in columns)

    def _row(self, i: int) -> range:
        """Positions of the table terms whose left slot is i."""
        return range(bisect_left(self._bk_i, i), bisect_left(self._bk_i, i + 1))

    def _killing_rows(self) -> Dict[int, Dict[int, int]]:
        """The nonzero Killing form entries, as rows {a: {b: kappa(b_a, b_b)}}.

        kappa(b_a, b_b) = tr(ad_a ad_b) sums c_{a,u,w} c_{b,w,u} over u, w:
        each term (a, u, w, c) joined with the terms (b, w, u, c').
        """
        n = self.dim
        by_jk = defaultdict(list)
        terms = list(zip(self._bk_i, self._bk_j, self._bk_k, self._bk_v))
        for i, j, k, v in terms:
            by_jk[j * n + k].append((i, v))
        rows: Dict[int, Dict[int, int]] = defaultdict(dict)
        for a, u, w, c in terms:
            row = rows[a]
            for b, c2 in by_jk.get(w * n + u, ()):
                row[b] = row.get(b, 0) + c * c2
        return rows

    def generated_slots(self, slots: Sequence[int]) -> List[bool]:
        """Which basis slots are reached from ``slots`` by iterated brackets:
        slot k is reached once some [b_i, b_j] with b_i, b_j reached is a
        single nonzero multiple of b_k, so each reached b_k lies in the
        subalgebra that the starting basis elements generate."""
        n = self.dim
        terms = list(zip(self._bk_i, self._bk_j, self._bk_k, self._bk_v))
        count = Counter(i * n + j for i, j, _, _ in terms)
        partners = defaultdict(list)  # slot -> (other input slot, output slot)
        for i, j, k, v in terms:
            if v and count[i * n + j] == 1:
                partners[i].append((j, k))
                partners[j].append((i, k))
        reached = [False] * n
        todo = list(slots)
        for s in todo:
            reached[s] = True
        while todo:
            for other, k in partners[todo.pop()]:
                if reached[other] and not reached[k]:
                    reached[k] = True
                    todo.append(k)
        return reached

    # ---- operations ------------------------------------------------------
    def bracket_sparse(
        self, X: Mapping[int, complex], Y: Mapping[int, complex]
    ) -> Dict[int, complex]:
        """[X, Y] in plain Python for coefficient maps {basis slot: coefficient}.
        Integer coefficients stay exact."""
        J, K, V = self._bk_j, self._bk_k, self._bk_v
        Z: Dict[int, complex] = {}
        for i, x in X.items():
            for t in self._row(i):
                if J[t] in Y:
                    Z[K[t]] = Z.get(K[t], 0) + x * V[t] * Y[J[t]]
        return Z

    def bracket(self, X, Y):
        """Bilinear bracket of coefficient vectors (supports leading axes).

        Only the table terms a bracket forms are read: those whose left slot
        is in the support of X (its slots nonzero somewhere) and right slot
        in that of Y, so time scales with the supports rather than with the
        whole table.  Each formed term is added into its output slot in
        table order, one at a time: working memory is the output plus one
        term's worth of points.
        """
        import numpy as np

        n = self.dim
        if X.shape[-1] != n or Y.shape[-1] != n:
            raise ValueError("dimension mismatch")
        out_shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (n,)
        Z = np.zeros(out_shape, dtype=complex)
        i, j, k, c = self._table
        formed = np.flatnonzero(X.reshape(-1, n).any(axis=0)[i] & Y.reshape(-1, n).any(axis=0)[j])
        for a, b, d, v in zip(i[formed], j[formed], k[formed], c[formed]):
            Z[..., d] += X[..., a] * Y[..., b] * v
        return Z


def build_chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs)


# ---------------------------------------------------------------------------
# principal sl2, Coxeter phases and sigma
# ---------------------------------------------------------------------------


class PrincipalSL2:
    """The principal sl2 triple {x, e, etilde}, x = sum r_i h_i, e and etilde
    with sqrt(r_i) on the +-simple root slots, and the split-form involution
    sigma.

    ``sigma`` is exact, a signed permutation of the Chevalley basis (see
    ``SignedPermutation``): the signed lift of the diagram automorphism
    (``build_principal_sl2``); the triple is given as coefficient maps
    (``triple_coefficients``).
    """

    def __init__(self, alg: ChevalleyAlgebra, exponents: Tuple[int, ...], sigma: SignedPermutation):
        self.alg = alg
        self.exponents = exponents
        self.sigma = sigma

    @property
    def top_exponent(self) -> int:
        return self.exponents[-1]

    def triple_coefficients(self) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, float]]:
        """(x, e, etilde) as coefficient maps {basis slot: coefficient}."""
        alg = self.alg
        r = [float(c) for c in alg.rs.x_coefficients]
        sq = [c**0.5 for c in r]
        simple = [alg.rs.simple_root(i) for i in range(alg.rank)]
        return (
            dict(enumerate(r)),
            {alg.root_index(a): s for a, s in zip(simple, sq)},
            {alg.root_index(_neg(a)): s for a, s in zip(simple, sq)},
        )


def _diagram_lift(alg: ChevalleyAlgebra) -> Tuple[List[int], List[int]]:
    """The target slot and the sign of sigma on each basis slot: h_i goes to
    h_nu(i), and e_beta to s_beta e_nu(beta), for nu the diagram automorphism.

    s = -1 on the +-simple slots.  Any other root beta is alpha + gamma for a
    +-simple alpha and a root gamma one step nearer the Cartan; applying
    sigma to [e_alpha, e_gamma] = N_{alpha,gamma} e_beta gives
    s_beta = s_alpha s_gamma N_{nu alpha, nu gamma} / N_{alpha,gamma}, so the
    signs follow by height.  Nothing here is checked: see ``_check_lift``.
    """
    rs, l, n = alg.rs, alg.rank, alg.dim
    nu = diagram_automorphism(rs)
    target = list(nu.perm) + [alg.root_index(nu.apply_root(r)) for r in alg._roots[l:]]
    ht = alg.slot_heights
    simple = {alg.root_index(tuple(s * c for c in rs.simple_root(i))) for i in range(l) for s in (1, -1)}
    # the table terms whose left slot is +-simple, {(i, j, k): c}; nu maps them to each other
    rows = {(i, alg._bk_j[t], alg._bk_k[t]): alg._bk_v[t] for i in sorted(simple) for t in alg._row(i)}
    defining: Dict[int, Tuple[int, int, int]] = {}  # beta -> (alpha, gamma, N_{alpha,gamma})
    for (i, j, k), v in rows.items():
        if abs(ht[k]) > abs(ht[j]):
            defining.setdefault(k, (i, j, v))
    sign = [1] * n
    for k in sorted(range(l, n), key=lambda d: abs(ht[d])):
        if k in simple:
            sign[k] = -1
        else:
            i, j, v = defining[k]
            image = rows.get((target[i], target[j], target[k]), 0)
            sign[k] = sign[i] * sign[j] * (1 if image == v else -1)
    return target, sign


def _check_lift(alg: ChevalleyAlgebra, target: Sequence[int], sign: Sequence[int]) -> None:
    """Raise RuntimeError unless the slot map ``target`` with signs ``sign``
    is an involutive automorphism of the table that fixes x: r_nu(i) = r_i,
    target is an involution with s_d s_target(d) = 1, and every table term
    satisfies s_k c_ijk = s_i s_j c_{nu i, nu j, nu k}."""
    name, n = alg.rs.type, alg.dim
    r = alg.rs.x_coefficients
    if any(r[target[i]] != r[i] for i in range(alg.rank)):
        raise RuntimeError(f"{name}: the diagram automorphism does not fix x")
    if any(target[target[d]] != d or sign[d] * sign[target[d]] != 1 for d in range(n)):
        raise RuntimeError(f"{name}: sigma is not an involution")
    t = target
    terms = list(zip(alg._bk_i, alg._bk_j, alg._bk_k, alg._bk_v))
    table = {(i * n + j) * n + k: v for i, j, k, v in terms}
    for i, j, k, v in terms:
        if sign[k] * v != sign[i] * sign[j] * table.get((t[i] * n + t[j]) * n + t[k], 0):
            raise RuntimeError(f"{name}: sigma does not preserve the bracket at term {(i, j, k)}")


def build_principal_sl2(alg: ChevalleyAlgebra) -> PrincipalSL2:
    """The sl2 triple {x, e, etilde} and the split-form involution sigma.

    sigma is defined by levels: on each irreducible summand of g under the
    principal sl2, with highest weight vector v, it is (-1)^(k+1) on the
    k-th level (ad etilde)^k v.  That is an automorphism of g, and it sends
    e_{+-alpha_i} to -e_{+-nu(alpha_i)}, for nu the diagram automorphism.
    The e_{+-alpha_i} generate g, so an automorphism is fixed by its values
    on them, and sigma is built as the one with those values: the signed
    lift of nu (``_diagram_lift``), checked exactly (``_check_lift``;
    anything else raises RuntimeError).  The float construction from the
    levels is kept in the tests as the reference, and gives the same signed
    permutation for all 33 supported types.
    """
    target, sign = _diagram_lift(alg)
    _check_lift(alg, target, sign)
    # sigma(b_d) = s_d b_target(d); for an involution with s_target(d) = s_d,
    # row a of its matrix holds s_a in column target(a)
    return PrincipalSL2(alg, tuple(exponents(alg.rs)), tuple(zip(target, sign)))


class CoxeterElement:
    """Eigenphase bookkeeping for Ad of exp(2 pi i x / h)."""

    def __init__(self, slot_phases: Tuple[int, ...], h: int):
        self.slot_phases = slot_phases  # basis index -> height mod h
        self.h = h

    def eigenspace_indices(self, m: int) -> List[int]:
        return [d for d, p in enumerate(self.slot_phases) if p == m % self.h]


def coxeter_element(alg: ChevalleyAlgebra, sl2: PrincipalSL2) -> CoxeterElement:
    h = sl2.top_exponent + 1
    if h != coxeter_number(alg.rs):
        raise RuntimeError(f"{alg.rs.type}: top exponent {h - 1} does not match the Coxeter number")
    return CoxeterElement(slot_phases=tuple(ht % h for ht in alg.slot_heights), h=h)


# ---------------------------------------------------------------------------
# exact verification suite
# ---------------------------------------------------------------------------


def verify_structure(alg: ChevalleyAlgebra) -> Dict[str, bool]:
    """Exact integer checks: Jacobi identity and ad-invariance of Killing.

    The table must be antisymmetric, and for each of the l+1 generators
    x = e_{-theta}, e_1, ..., e_l (the affine Chevalley generators, the
    support of the cyclic element), ad_x must be a derivation,
    [x, [u, v]] = [[x, u], v] + [u, [x, v]], and Killing-skew,
    kappa([x, u], v) + kappa(u, [x, v]) = 0, on all basis u, v.  That covers
    all of g: if ad_x is a derivation then ad_[x,y] = [ad_x, ad_y], and
    derivations and Killing-skew maps each form a subspace of gl(g) closed
    under the commutator, so the x that pass form a subalgebra.  It holds
    the generators, whose iterated brackets reach every basis slot
    (``generated_slots``, also checked), so it is g.

    Plain Python on the table columns; the sums are keyed by the integer
    (u n + w) n + k for the coefficient of b_k in an expression in u and w.
    """
    n, nn = alg.dim, alg.dim**2
    terms = list(zip(alg._bk_i, alg._bk_j, alg._bk_k, alg._bk_v))
    table = {i * nn + j * n + k: v for i, j, k, v in terms}
    antisymmetric = all(table.get(j * nn + i * n + k) == -v for i, j, k, v in terms)
    del table
    # Given antisymmetry, the derivation defect at (u, w) is minus the one at
    # (w, u) and zero at u = w, so only u < w is summed.  Each term (i, j, k, v)
    # is listed under its left, right and output slot, keyed by the part of
    # its sum key that the slot it is found by does not give, in key order.
    by_i, by_j, by_k = defaultdict(list), defaultdict(list), defaultdict(list)
    for i, j, k, v in terms:
        by_i[i].append((j * n + k, v))
        by_j[j].append((i * nn + k, v))
        if i < j:
            by_k[k].append((i * nn + j * n, v))
    keys_i = {i: [key for key, _ in t] for i, t in by_i.items()}
    keys_j = {j: [key for key, _ in t] for j, t in by_j.items()}
    rs = alg.rs
    gens = [alg.root_index(_neg(rs.highest_root))]
    gens += [alg.root_index(rs.simple_root(a)) for a in range(alg.rank)]
    K = alg._killing_rows()
    derivation = skew = True
    for g in gens:
        # ad_x b_col = val b_row
        ad_x = [(alg._bk_k[t], alg._bk_j[t], alg._bk_v[t]) for t in alg._row(g)]
        sums: Dict[int, int] = defaultdict(int)
        for row, col, val in ad_x:
            for key, v in by_k[col]:  # ad_x [u, w]
                sums[key + row] += v * val
            start = bisect_left(keys_i.get(row, ()), (col + 1) * n)
            for key, v in by_i[row][start:]:  # [ad_x u, w] with u = col < w
                sums[col * nn + key] -= val * v
            stop = bisect_left(keys_j.get(row, ()), col * nn)
            for key, v in by_j[row][:stop]:  # [u, ad_x w] with u < w = col
                sums[key + col * n] -= val * v
        derivation = derivation and not any(sums.values())
        # M = ad_x^T K must be antisymmetric; K ad_x is its transpose
        M: Dict[int, int] = defaultdict(int)
        for row, col, val in ad_x:
            for b, kappa in K.get(row, {}).items():
                M[col * n + b] += val * kappa
        skew = skew and all(v + M.get((key % n) * n + key // n, 0) == 0 for key, v in M.items())
    spans = all(alg.generated_slots(gens))
    return {
        "jacobi_exact": bool(antisymmetric and derivation and spans),
        "killing_ad_invariant": bool(skew and spans),
    }
