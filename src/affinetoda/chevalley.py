"""Concrete Chevalley-basis Lie algebra with integer structure constants.

Basis layout: the simple coroots h_1..h_l first, then e_alpha for the
positive roots in the deterministic rootdata order, then e_{-alpha} in the
same order.  Structure constants N_{a,b} are signed by the extraspecial
pair convention: for each non-simple positive root the decomposition with
the smallest first summand gets N = +(p+1), and every other constant is
forced from those by the Jacobi identity and the invariant-form relation

    N_{x,y} / (z,z) = N_{y,z} / (x,x) = N_{z,x} / (y,y)    (x+y+z = 0).

All table entries are exact integers; numerics on top use float copies.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rootdata import RootSystem, affine_cartan, coxeter_number, exponents, x_coefficients

Root = Tuple[int, ...]


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


class ChevalleyAlgebra:
    """Structure constants, Killing form, root characters and index bookkeeping for one type."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        R = rs.num_positive
        self.rank = l
        self.num_positive = R
        self.dim = l + 2 * R

        # basis index: 0..l-1 coroots, l..l+R-1 positive, l+R..l+2R-1 negative
        self._index_of_root: Dict[Root, int] = {}
        for k, root in enumerate(rs.positive_roots):
            self._index_of_root[root] = l + k
            self._index_of_root[_neg(root)] = l + R + k
        pos = np.array(rs.positive_roots, dtype=np.int64).reshape(R, l)
        roots = np.concatenate([np.zeros((l, l), dtype=np.int64), pos, -pos])
        self.heights = roots.sum(axis=1)
        # characters[d, a] = beta(h_a) for the root beta of slot d; zero rows on the Cartan
        self.characters = roots @ rs.simple_characters

        self._build_structure_table()
        self._build_killing()

    # ---- index helpers -------------------------------------------------
    def root_index(self, root: Root) -> int:
        return self._index_of_root[root]

    @property
    def highest_root_index(self) -> int:
        return self.rank + self.num_positive - 1

    @property
    def lowest_root_index(self) -> int:
        return self.dim - 1

    def basis_vector(self, idx: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[idx] = 1.0
        return v

    def cartan_element(self, coeffs: Sequence[complex]) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[: self.rank] = coeffs
        return v

    # ---- structure constants -------------------------------------------
    def _build_structure_table(self) -> None:
        rs = self.rs
        l = self.rank
        pos = list(rs.positive_roots)
        pos_set = set(pos)
        all_set = pos_set | {_neg(r) for r in pos}
        order = {r: k for k, r in enumerate(pos)}
        half_norm: Dict[Root, Fraction] = {}
        for r in pos:
            half_norm[r] = rs.half_norm(r)
            half_norm[_neg(r)] = half_norm[r]

        def p_string(beta: Root, alpha: Root) -> int:
            k = 0
            while _sub(beta, tuple(c * (k + 1) for c in alpha)) in all_set:
                k += 1
            return k

        n_pos: Dict[Tuple[Root, Root], int] = {}

        def np_lookup(a: Root, b: Root) -> int:
            if (a, b) in n_pos:
                return n_pos[(a, b)]
            return -n_pos[(b, a)]

        for gamma in pos:
            if rs.height(gamma) < 2:
                continue
            decs = []
            for xi in pos:
                if order[xi] > order.get(_sub(gamma, xi), 10**9):
                    continue
                eta = _sub(gamma, xi)
                if eta in pos_set and order[xi] <= order[eta]:
                    decs.append((xi, eta))
            decs.sort(key=lambda p: order[p[0]])
            a, b = decs[0]  # extraspecial pair for gamma
            n_pos[(a, b)] = p_string(b, a) + 1
            gg = 2 * half_norm[gamma]
            bb = 2 * half_norm[b]
            for xi, eta in decs[1:]:
                # Jacobi on (e_{-a}, e_xi, e_eta) pushed down to known pairs
                total = Fraction(0)
                da = _sub(xi, a)
                if da in pos_set:
                    n_neg = Fraction(np_lookup(a, da)) * (2 * half_norm[da]) / (2 * half_norm[xi])
                    total += n_neg * np_lookup(da, eta)
                db = _sub(eta, a)
                if db in pos_set:
                    n_neg = Fraction(np_lookup(a, db)) * (2 * half_norm[db]) / (2 * half_norm[eta])
                    total += n_neg * np_lookup(xi, db)
                val = total * gg / (bb * n_pos[(a, b)])
                if val.denominator != 1 or abs(val) != p_string(eta, xi) + 1:
                    raise RuntimeError(f"{rs.type}: structure constant N{xi, eta} = {val}")
                n_pos[(xi, eta)] = int(val)

        def n_any(u: Root, v: Root) -> int:
            u_pos = sum(u) > 0
            v_pos = sum(v) > 0
            if u_pos and v_pos:
                return np_lookup(u, v)
            if not u_pos and not v_pos:
                return -n_any(_neg(u), _neg(v))
            if not u_pos:
                return -n_any(v, u)
            b = _neg(v)  # u positive, b positive, u - b a root
            c = _sub(u, b)
            if c in pos_set:
                val = Fraction(-np_lookup(b, c)) * (2 * half_norm[c]) / (2 * half_norm[u])
            else:
                val = Fraction(np_lookup(_neg(c), u)) * (2 * half_norm[c]) / (2 * half_norm[b])
            if val.denominator != 1:
                raise RuntimeError(f"{rs.type}: structure constant N{u, v} = {val}")
            return int(val)

        table: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

        def put(i: int, j: int, terms: List[Tuple[int, int]]) -> None:
            terms = [(k, c) for k, c in terms if c != 0]
            if terms:
                table[(i, j)] = tuple(terms)

        # [h_i, e_beta] = beta(h_i) e_beta
        for beta in list(pos) + [_neg(r) for r in pos]:
            jb = self.root_index(beta)
            for i in range(l):
                c = int(self.characters[jb, i])
                put(i, jb, [(jb, c)])
                put(jb, i, [(jb, -c)])

        # [e_beta, e_gamma]
        roots_all = list(pos) + [_neg(r) for r in pos]
        for beta in roots_all:
            ib = self.root_index(beta)
            for gamma in roots_all:
                ig = self.root_index(gamma)
                s = _add(beta, gamma)
                if all(c == 0 for c in s):
                    if sum(beta) > 0:
                        co = rs.coroot(beta)
                        put(ib, ig, [(i, co[i]) for i in range(l)])
                    else:
                        co = rs.coroot(_neg(beta))
                        put(ib, ig, [(i, -co[i]) for i in range(l)])
                elif s in all_set:
                    put(ib, ig, [(self.root_index(s), n_any(beta, gamma))])

        self.table = table
        # flattened table sorted by left index; the terms with left index i
        # are _bk_*[_bk_rows[i]]
        flat = sorted((i, j, k, c) for (i, j), terms in table.items() for k, c in terms)
        self._bk_i, self._bk_j, self._bk_k = (
            np.array([t[n] for t in flat], dtype=np.int64) for n in range(3)
        )
        self._bk_v = np.array([float(t[3]) for t in flat])
        off = np.searchsorted(self._bk_i, np.arange(self.dim + 1))
        self._bk_rows = [np.arange(off[i], off[i + 1]) for i in range(self.dim)]

    def _build_killing(self) -> None:
        rs = self.rs
        l = self.rank
        R = self.num_positive
        K = np.zeros((self.dim, self.dim), dtype=np.int64)
        for a in range(l):
            for b in range(l):
                s = 0
                for root in rs.positive_roots:
                    s += rs.pairing(root, a) * rs.pairing(root, b)
                K[a, b] = 2 * s
        for k in range(R):
            ip, im = l + k, l + R + k
            K[ip, im] = K[im, ip] = self._trace_ad_ad(ip, im)
        self.killing = K

    def _trace_ad_ad(self, i: int, j: int) -> int:
        tr = 0
        for u in range(self.dim):
            inner = self.table.get((j, u))
            if not inner:
                continue
            for w, cw in inner:
                outer = self.table.get((i, w))
                if not outer:
                    continue
                for z, cz in outer:
                    if z == u:
                        tr += cw * cz
        return tr

    # ---- operations ------------------------------------------------------
    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Bilinear bracket of coefficient vectors (supports leading axes).

        Only table terms whose left slot is in the support of X and whose
        right slot is in the support of Y are formed, so memory and time
        scale with the supports rather than with the whole table.
        """
        if X.shape[-1] != self.dim or Y.shape[-1] != self.dim:
            raise ValueError("dimension mismatch")
        out_shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (self.dim,)
        Z = np.zeros(out_shape, dtype=complex)
        left = np.flatnonzero(X.reshape(-1, self.dim).any(axis=0)).tolist()
        if not left:
            return Z
        terms = np.concatenate([self._bk_rows[i] for i in left])
        terms = terms[Y.reshape(-1, self.dim).any(axis=0)[self._bk_j[terms]]]
        i, j = self._bk_i[terms], self._bk_j[terms]
        np.add.at(Z, (..., self._bk_k[terms]), X[..., i] * Y[..., j] * self._bk_v[terms])
        return Z

    def ad_sparse(self, idx: int):
        """ad of the idx-th basis vector as a scipy CSR matrix (exact ints)."""
        from scipy.sparse import csr_matrix

        rows, cols, vals = [], [], []
        for u in range(self.dim):
            terms = self.table.get((idx, u))
            if not terms:
                continue
            for k, c in terms:
                rows.append(k)
                cols.append(u)
                vals.append(c)
        return csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)), shape=(self.dim, self.dim)
        )


def build_chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs)


# ---------------------------------------------------------------------------
# principal sl2, Coxeter phases, sigma and rho_hat
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PrincipalSL2:
    x: np.ndarray
    e: np.ndarray
    etilde: np.ndarray
    r: Tuple[Fraction, ...]
    exponents: Tuple[int, ...]
    hw_vectors: List[np.ndarray]  # highest weight vectors, hw_vectors[0] = e
    sigma_mat: np.ndarray  # the split-form automorphism in the Chevalley basis

    @property
    def top_exponent(self) -> int:
        return self.exponents[-1]


def _grade_indices(alg: ChevalleyAlgebra) -> Dict[int, List[int]]:
    grades: Dict[int, List[int]] = {}
    for idx in range(alg.dim):
        grades.setdefault(int(alg.heights[idx]), []).append(idx)
    return grades


def build_principal_sl2(alg: ChevalleyAlgebra) -> PrincipalSL2:
    """The sl2 triple {x, e, etilde} plus highest weight vectors e_1..e_l.

    e_1 is e itself and the top vector is pinned to the highest-root
    generator; the intermediate kernels of ad_e come out of an SVD with a
    deterministic sign fix.  Also assembles the involution sigma, defined
    by sigma = (-1)^(k+1) on the k-th lowering level of each irreducible
    summand, as a grade-block matrix.
    """
    rs = alg.rs
    l = alg.rank
    r = x_coefficients(rs)
    ms = tuple(exponents(rs))
    x = alg.cartan_element([float(c) for c in r])
    e = np.zeros(alg.dim, dtype=complex)
    et = np.zeros(alg.dim, dtype=complex)
    for i in range(l):
        sq = float(r[i]) ** 0.5
        e[alg.root_index(rs.simple_root(i))] = sq
        et[alg.root_index(_neg(rs.simple_root(i)))] = sq

    grades = _grade_indices(alg)
    ad_e = np.real(np.stack([alg.bracket(e, alg.basis_vector(j)) for j in range(alg.dim)], axis=1))

    hw: List[Optional[np.ndarray]] = [None] * l
    order_slots = sorted(range(l), key=lambda i: ms[i])
    from scipy.linalg import null_space

    for m in sorted(set(ms)):
        slots = [i for i in order_slots if ms[i] == m]
        rows = grades.get(m + 1, [])
        cols = grades[m]
        block = ad_e[np.ix_(rows, cols)] if rows else np.zeros((0, len(cols)))
        kern = null_space(block) if block.size else np.eye(len(cols))
        if kern.shape[1] != len(slots):
            raise RuntimeError(
                f"ad_e kernel at grade {m} has dimension {kern.shape[1]}, expected {len(slots)}"
            )
        for c, i in enumerate(slots):
            vec = np.zeros(alg.dim, dtype=complex)
            col = kern[:, c] / np.linalg.norm(kern[:, c])
            lead = np.argmax(np.abs(col))
            if col[lead] < 0:  # deterministic sign
                col = -col
            vec[cols] = col
            hw[i] = vec
    hw[order_slots[0]] = e.copy()  # exponent 1 slot is the triple itself
    if l >= 2:
        top = np.zeros(alg.dim, dtype=complex)
        top[alg.highest_root_index] = 1.0
        hw[order_slots[-1]] = top

    sigma = _build_sigma(alg, grades, ms, [np.asarray(v) for v in hw], et)
    return PrincipalSL2(
        x=x, e=e, etilde=et, r=tuple(r), exponents=ms, hw_vectors=[np.asarray(v) for v in hw],
        sigma_mat=sigma,
    )


def _build_sigma(alg, grades, ms, hw, et) -> np.ndarray:
    """sigma from the lowering towers (ad_et)^k e_i, blockwise per grade.

    The result is a signed permutation of the Chevalley basis.  The float
    block solves leave roundoff on it, so it is rounded to that exact
    matrix; an entry that moves by more than 1e-9 is an error.
    """
    l = alg.rank
    towers: List[List[np.ndarray]] = []
    for i in range(l):
        tower = [hw[i]]
        for _ in range(2 * ms[i]):
            nxt = alg.bracket(et, tower[-1])
            nxt = nxt / np.max(np.abs(nxt))
            tower.append(nxt)
        towers.append(tower)

    S = np.zeros((alg.dim, alg.dim))
    for m, idxs in grades.items():
        cols = []
        signs = []
        for i in range(l):
            k = ms[i] - m
            if 0 <= k <= 2 * ms[i]:
                cols.append(np.real(towers[i][k][idxs]))
                signs.append(-1.0 if (k + 1) % 2 else 1.0)
        B = np.stack(cols, axis=1)
        if B.shape[0] != B.shape[1]:
            raise RuntimeError("tower vectors do not span the grade block")
        D = np.diag(signs)
        S[np.ix_(idxs, idxs)] = B @ D @ np.linalg.inv(B)
    exact = np.rint(S)
    moved = float(np.abs(S - exact).max())
    if moved > 1e-9:
        raise RuntimeError(f"{alg.rs.type}: sigma is {moved:.1e} away from a signed permutation")
    return exact


@dataclass(frozen=True)
class CoxeterElement:
    """Eigenphase bookkeeping for Ad of exp(2 pi i x / h)."""

    phases: np.ndarray  # basis index -> height mod h
    h: int

    def apply(self, X: np.ndarray) -> np.ndarray:
        return X * np.exp(2j * np.pi * self.phases / self.h)

    def eigenspace_indices(self, m: int) -> np.ndarray:
        return np.nonzero(self.phases == (m % self.h))[0]


def coxeter_element(alg: ChevalleyAlgebra, sl2: PrincipalSL2) -> CoxeterElement:
    h = sl2.top_exponent + 1
    if h != coxeter_number(alg.rs):
        raise RuntimeError(f"{alg.rs.type}: top exponent {h - 1} does not match the Coxeter number")
    return CoxeterElement(phases=np.mod(alg.heights, h), h=h)


def sigma(alg: ChevalleyAlgebra, sl2: PrincipalSL2, X: np.ndarray) -> np.ndarray:
    return sl2.sigma_mat @ X


def rho_hat(alg: ChevalleyAlgebra, X: np.ndarray) -> np.ndarray:
    """Compact anti-involution: h -> -h, e_beta -> -e_{-beta}, antilinear."""
    l, R = alg.rank, alg.num_positive
    out = np.empty_like(X, dtype=complex)
    Xc = np.conj(X)
    out[..., :l] = -Xc[..., :l]
    out[..., l : l + R] = -Xc[..., l + R : l + 2 * R]
    out[..., l + R : l + 2 * R] = -Xc[..., l : l + R]
    return out


def lambda_hat(alg: ChevalleyAlgebra, sl2: PrincipalSL2, X: np.ndarray) -> np.ndarray:
    """Split-form anti-involution sigma o rho_hat."""
    return sigma(alg, sl2, rho_hat(alg, X))


# ---------------------------------------------------------------------------
# cyclic elements
# ---------------------------------------------------------------------------


def _phase_one_slots(alg: ChevalleyAlgebra) -> List[int]:
    """Basis slots of the phase-1 eigenspace: simple roots then lowest root."""
    rs = alg.rs
    slots = [alg.root_index(rs.simple_root(i)) for i in range(alg.rank)]
    slots.append(alg.root_index(_neg(rs.highest_root)))
    return slots


def is_cyclic_g1(alg: ChevalleyAlgebra, cox: CoxeterElement, X: np.ndarray) -> bool:
    """Cyclic test on the phase-1 eigenspace: all l+1 coefficients nonzero."""
    slots = _phase_one_slots(alg)
    mask = np.zeros(alg.dim, dtype=bool)
    mask[slots] = True
    if np.any(X[~mask] != 0):
        raise ValueError("element does not lie in the phase-1 eigenspace")
    return bool(np.all(X[slots] != 0))


def cyclic_reference(alg: ChevalleyAlgebra, sl2: PrincipalSL2) -> np.ndarray:
    """Reference cyclic element: sqrt(r_i) on the simple slots, 1 on -delta."""
    X = np.zeros(alg.dim, dtype=complex)
    slots = _phase_one_slots(alg)
    for i in range(alg.rank):
        X[slots[i]] = float(sl2.r[i]) ** 0.5
    X[slots[-1]] = 1.0
    return X


def normalize_cyclic(
    alg: ChevalleyAlgebra, cox: CoxeterElement, sl2: PrincipalSL2, X: np.ndarray
) -> Tuple[np.ndarray, complex]:
    """Torus parameters (xi, lam) with Ad_{exp xi} X = lam * reference.

    The l+1 root characters on the phase-1 space satisfy one relation
    weighted by the marks, which fixes log(lam); the Cartan part then comes
    out of an l x l linear solve.
    """
    if not is_cyclic_g1(alg, cox, X):
        raise ValueError("element is not cyclic")
    l = alg.rank
    slots = _phase_one_slots(alg)
    ref = cyclic_reference(alg, sl2)
    b = np.log(ref[slots] / X[slots])  # principal branch
    marks = affine_cartan(alg.rs).marks  # node 0 first
    weights = np.array(marks[1:] + marks[:1], dtype=float)
    log_lam = -complex(weights @ b) / weights.sum()
    # beta(xi) = b_beta + log lam on the simple slots; xi = sum_a xi_a h_a
    C = alg.characters[slots]
    xi = np.linalg.solve(C[:l], b[:l] + log_lam)
    lam = np.exp(log_lam)
    # consistency on the lowest-root slot (up to the exp branch)
    if abs(np.exp(C[l] @ xi) * X[slots[-1]] - lam * ref[slots[-1]]) >= 1e-9 * max(1.0, abs(lam)):
        raise RuntimeError("torus normalization is inconsistent")
    return xi, complex(lam)


# ---------------------------------------------------------------------------
# exact verification suite
# ---------------------------------------------------------------------------


def verify_structure(alg: ChevalleyAlgebra) -> Dict[str, bool]:
    """Exact integer checks: Jacobi identity and ad-invariance of Killing.

    Jacobi is checked in derivation form, ad_a[u,v] = [ad_a u, v] + [u, ad_a v]
    for every basis element a, via sparse integer matrix identities.
    """
    from scipy.sparse import csr_matrix, identity, kron

    dim = alg.dim
    rows, cols, vals = [], [], []
    for (u, v), terms in alg.table.items():
        for k, c in terms:
            rows.append(u * dim + v)
            cols.append(k)
            vals.append(c)
    cmat = csr_matrix(
        (np.array(vals, dtype=np.int64), (rows, cols)), shape=(dim * dim, dim)
    )
    eye = identity(dim, dtype=np.int64, format="csr")
    K = csr_matrix(alg.killing)

    jacobi_ok = True
    killing_ok = True
    for a in range(dim):
        ad_a = alg.ad_sparse(a)
        ad_at = ad_a.T.tocsr()
        lhs = cmat @ ad_at
        rhs = kron(ad_at, eye, format="csr") @ cmat + kron(eye, ad_at, format="csr") @ cmat
        diff = (lhs - rhs)
        diff.eliminate_zeros()
        if diff.nnz:
            jacobi_ok = False
        kd = ad_at @ K + K @ ad_a
        kd.eliminate_zeros()
        if kd.nnz:
            killing_ok = False
    return {"jacobi_exact": jacobi_ok, "killing_ad_invariant": killing_ok}
