"""Concrete Chevalley-basis Lie algebra with integer structure constants.

Basis layout: the simple coroots h_1..h_l first, then e_alpha for the
positive roots in the deterministic rootdata order, then e_{-alpha} in the
same order.  Structure constants N_{a,b} are signed by the extraspecial
pair convention: for each non-simple positive root the decomposition with
the smallest first summand gets N = +(p+1), and every other constant is
forced from those by the Jacobi identity and the invariant-form relation

    N_{x,y} / (z,z) = N_{y,z} / (x,x) = N_{z,x} / (y,y)    (x+y+z = 0).

The constants are kept once, as an exact int64 table of terms (i, j, k, c)
meaning [b_i, b_j] has coefficient c on b_k; the bracket, ``ad`` and the
Killing form are read from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rootdata import RootSystem, affine_cartan, coxeter_number, exponents

Root = Tuple[int, ...]


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


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
        # negation[d] = slot of -beta for the root beta of slot d; identity on the Cartan
        self.negation = np.concatenate([np.arange(l), np.arange(R) + l + R, np.arange(R) + l])
        # characters[d, a] = beta(h_a) for the root beta of slot d; zero rows on the Cartan
        self.characters = roots @ rs.simple_characters

        self._build_structure_table(roots[l:])

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
    def _build_structure_table(self, roots: np.ndarray) -> None:
        """The table terms (_bk_i, _bk_j, _bk_k, _bk_v), sorted by (i, j, k).

        ``roots`` holds the 2R roots of the root slots in simple-root
        coordinates.  Root sums are found by encoding each root as one
        integer and searching the sorted codes.  Only the positive pairs are
        walked in Python: the extraspecial pair of each positive root gets
        +(p+1), and the other pairs follow from the Jacobi identity in
        integer arithmetic on scaled squared norms.  The negative and mixed
        pairs follow from N_{-a,-b} = -N_{a,b}, N_{u,v} = -N_{v,u} and the
        norm-ratio relation of the module docstring.
        """
        rs = self.rs
        l, R = self.rank, self.num_positive
        # nn[u] = s (beta_u, beta_u) with s the least scale making every s d_i an integer
        s = lcm(*(d.denominator for d in rs.norms))
        sd = np.array([int(s * d) for d in rs.norms], dtype=np.int64)
        nn = ((roots @ (sd[:, None] * np.array(rs.cartan_matrix))) * roots).sum(axis=1)

        # linear codes: unique for coefficient vectors with |c_i| <= 4 max|root|,
        # enough for the sums u + v and the string steps v - k u (k <= 3)
        base = 8 * int(np.abs(roots).max(initial=1)) + 1
        codes = roots @ base ** np.arange(l, dtype=np.int64)
        order = np.argsort(codes)
        sorted_codes = codes[order]

        def slot(query: np.ndarray) -> np.ndarray:
            """Root slot (0..2R-1) of the root with each code, or -1."""
            n = np.searchsorted(sorted_codes, query).clip(max=2 * R - 1)
            return np.where(sorted_codes[n] == query, order[n], -1)

        pair_sum = slot(codes[:, None] + codes[None, :])  # (2R, 2R) root slot of u + v

        # positive pairs x < y with x + y = g a root, grouped by g in root order
        x, y = np.nonzero(np.triu(pair_sum[:R, :R] >= 0, 1))
        g = pair_sum[x, y]
        by_g = np.lexsort((x, g))
        x, y, g = x[by_g], y[by_g], g[by_g]
        # p = length of the x-string below y
        p = np.zeros(len(x), dtype=np.int64)
        below = np.ones(len(x), dtype=bool)
        for k in (1, 2, 3):
            below &= slot(codes[y] - k * codes[x]) >= 0
            p += below
        # the extraspecial pair (a, b) of each g, and the positive x - a and y - a
        extraspecial = np.diff(g, prepend=-1) != 0
        group = np.cumsum(extraspecial) - 1
        a, b = x[extraspecial][group], y[extraspecial][group]
        da, db = slot(codes[x] - codes[a]), slot(codes[y] - codes[a])
        da[da >= R] = -1
        db[db >= R] = -1

        N = np.zeros((R, R), dtype=np.int64)
        nn_l = nn.tolist()
        for xi, eta, gi, ai, bi, dai, dbi, pi, es in zip(
            *(v.tolist() for v in (x, y, g, a, b, da, db, p, extraspecial))
        ):
            if es:
                val = pi + 1
            else:
                # Jacobi on (e_{-a}, e_xi, e_eta), scaled by nn[xi] nn[eta]
                num = 0
                if dai >= 0:
                    num += int(N[ai, dai] * N[dai, eta]) * nn_l[dai] * nn_l[eta]
                if dbi >= 0:
                    num += int(N[ai, dbi] * N[xi, dbi]) * nn_l[dbi] * nn_l[xi]
                val, rem = divmod(
                    num * nn_l[gi], nn_l[xi] * nn_l[eta] * nn_l[bi] * int(N[ai, bi])
                )
                if rem or abs(val) != pi + 1:
                    pair = (rs.positive_roots[xi], rs.positive_roots[eta])
                    raise RuntimeError(f"{rs.type}: structure constant N{pair} is not +-{pi + 1}")
            N[xi, eta], N[eta, xi] = val, -val

        # mixed pairs: u positive, v = -w negative, c = u - w a root
        u, w = np.nonzero(pair_sum[:R, R:] >= 0)
        c = pair_sum[u, R + w]
        c_pos = c < R
        cn = np.where(c_pos, c, c - R)
        num = np.where(c_pos, -N[w, cn], N[cn, u]) * nn[cn]
        den = np.where(c_pos, nn[u], nn[w])
        if np.any(num % den):
            raise RuntimeError(f"{rs.type}: a mixed structure constant is not an integer")
        M = np.zeros((R, R), dtype=np.int64)
        M[u, w] = num // den
        N_all = np.block([[N, M], [-M.T, -N]])

        # [h_i, e_d] = beta_d(h_i) e_d; [e_u, e_v] = N e_{u+v}; [e_a, e_-a] = h_a
        chars = self.characters[l:]
        d, i = np.nonzero(chars)
        u, v = np.nonzero(pair_sum >= 0)
        pa, ci = np.nonzero(roots[:R])
        co, rem = np.divmod(2 * roots[pa, ci] * sd[ci], nn[pa])
        if np.any(rem):
            raise RuntimeError(f"{rs.type}: a coroot is not integral")
        ia, ja, ka, va = (
            np.concatenate(parts)
            for parts in zip(
                (i, l + d, l + d, chars[d, i]),
                (l + d, i, l + d, -chars[d, i]),
                (l + u, l + v, l + pair_sum[u, v], N_all[u, v]),
                (l + pa, l + R + pa, ci, co),
                (l + R + pa, l + pa, ci, -co),
            )
        )
        srt = np.lexsort((ka, ja, ia))
        self._bk_i, self._bk_j, self._bk_k, self._bk_v = (t[srt] for t in (ia, ja, ka, va))

    @cached_property
    def killing(self) -> np.ndarray:
        """Killing form kappa(b_a, b_b) = tr(ad_a ad_b), exact int64.

        The trace sums c_{a,u,w} c_{b,w,u} over u, w: the join of the table
        with its copy whose two input slots are swapped.  Computed on first
        use: only the exact checks read it.
        """
        n = self.dim
        i, j, k, c = self._bk_i, self._bk_j, self._bk_k, self._bk_v
        s, t = _matches(j * n + k, k * n + j)
        K = np.zeros((n, n), dtype=np.int64)
        np.add.at(K, (i[s], i[t]), c[s] * c[t])
        return K

    def generated_slots(self, slots: Sequence[int]) -> np.ndarray:
        """Mask of the basis slots reached from ``slots`` by iterated brackets:
        slot k is reached once some [b_i, b_j] with b_i, b_j reached is a
        single nonzero multiple of b_k, so each reached b_k lies in the
        subalgebra that the starting basis elements generate."""
        key = self._bk_i * self.dim + self._bk_j  # the table is sorted by (i, j)
        single = (np.diff(key, prepend=-1) != 0) & (np.diff(key, append=-1) != 0)
        single &= self._bk_v != 0
        i, j, k = self._bk_i[single], self._bk_j[single], self._bk_k[single]
        reached = np.zeros(self.dim, dtype=bool)
        reached[list(slots)] = True
        while True:
            grown = reached.copy()
            grown[k[reached[i] & reached[j]]] = True
            if np.array_equal(grown, reached):
                return reached
            reached = grown

    # ---- operations ------------------------------------------------------
    def _slot_positions(self, slots: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """The basis slots (all ``dim`` of them when ``slots`` is None) and
        pos[b], the position of basis slot b among them or -1."""
        full = np.arange(self.dim) if slots is None else np.asarray(slots)
        pos = np.full(self.dim, -1)
        pos[full] = np.arange(len(full))
        return full, pos

    def bracket_terms(
        self, x_supp: np.ndarray, y_supp: np.ndarray, slots: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The table terms a bracket forms, as (i, j, k, c) in table order.

        x_supp and y_supp are boolean masks over the basis slots ``slots``
        (all ``dim`` slots when it is None): the slots on which X and Y are
        nonzero.  A term is formed when its left slot is in x_supp and its
        right slot in y_supp; [X, Y] has sum_t X_i[t] Y_j[t] c[t] on slot
        k[t], with i, j, k positions among ``slots``.  A formed term whose
        output slot is not in ``slots`` raises RuntimeError: the closure of
        the support under the bracket is checked, not assumed.
        """
        full, pos = self._slot_positions(slots)
        x_mask = np.zeros(self.dim, dtype=bool)
        y_mask = np.zeros(self.dim, dtype=bool)
        x_mask[full] = x_supp
        y_mask[full] = y_supp
        terms = np.flatnonzero(x_mask[self._bk_i] & y_mask[self._bk_j])
        i, j, k = (pos[t[terms]] for t in (self._bk_i, self._bk_j, self._bk_k))
        if np.any(k < 0):
            raise RuntimeError("the bracket leaves the given slots")
        return i, j, k, self._bk_v[terms]

    def bracket(self, X: np.ndarray, Y: np.ndarray, slots: Optional[np.ndarray] = None) -> np.ndarray:
        """Bilinear bracket of coefficient vectors (supports leading axes).

        X, Y and the result hold coefficients over the basis slots
        ``slots``, or over all ``dim`` slots when it is None.  Only the
        ``bracket_terms`` of the supports of X and Y are formed, so time
        scales with the supports rather than with the whole table.  Each
        formed term is added into its output slot in table order, one at a
        time: working memory is the output plus one term's worth of points.
        """
        n = self.dim if slots is None else len(slots)
        if X.shape[-1] != n or Y.shape[-1] != n:
            raise ValueError("dimension mismatch")
        out_shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (n,)
        Z = np.zeros(out_shape, dtype=complex)
        terms = self.bracket_terms(X.reshape(-1, n).any(axis=0), Y.reshape(-1, n).any(axis=0), slots)
        for a, b, c, v in zip(*terms):
            Z[..., c] += X[..., a] * Y[..., b] * v
        return Z

    def ad(self, X: np.ndarray) -> np.ndarray:
        """ad_X as a dense (dim, dim) matrix, ad(X) @ Y = [X, Y], of X's dtype
        (exact integers for an integer X).
        """
        if X.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        terms = np.flatnonzero(X[self._bk_i])
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(X, self._bk_v))
        np.add.at(
            out, (self._bk_k[terms], self._bk_j[terms]), X[self._bk_i[terms]] * self._bk_v[terms]
        )
        return out


def _matches(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs (s, t) with a[s] == b[t], as two index arrays."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, "left")
    n = np.searchsorted(b[order], a, "right") - lo
    s = np.repeat(np.arange(len(a)), n)
    t = order[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
    return s, t


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
    r = rs.x_coefficients
    ms = tuple(exponents(rs))
    x = alg.cartan_element([float(c) for c in r])
    e = np.zeros(alg.dim, dtype=complex)
    et = np.zeros(alg.dim, dtype=complex)
    for i in range(l):
        sq = float(r[i]) ** 0.5
        e[alg.root_index(rs.simple_root(i))] = sq
        et[alg.root_index(_neg(rs.simple_root(i)))] = sq

    grades = _grade_indices(alg)
    ad_e = np.real(alg.ad(e))

    hw: List[Optional[np.ndarray]] = [None] * l
    order_slots = sorted(range(l), key=lambda i: ms[i])
    for m in sorted(set(ms)):
        slots = [i for i in order_slots if ms[i] == m]
        rows = grades.get(m + 1, [])
        cols = grades[m]
        block = ad_e[np.ix_(rows, cols)] if rows else np.zeros((0, len(cols)))
        _, sv, vh = np.linalg.svd(block)
        rank = np.sum(sv > sv.max(initial=0.0) * np.finfo(float).eps * max(block.shape))
        kern = vh[rank:].T  # the right singular vectors past the numerical rank
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
        x=x, e=e, etilde=et, exponents=ms, hw_vectors=[np.asarray(v) for v in hw],
        sigma_mat=sigma,
    )


def _build_sigma(alg, grades, ms, hw, et) -> np.ndarray:
    """sigma from the lowering towers (ad_et)^k e_i, blockwise per grade.

    The result is a signed permutation of the Chevalley basis.  The float
    block solves leave roundoff on it, so it is rounded to that exact
    matrix; an entry that moves by more than 1e-9 is an error.
    """
    l = alg.rank
    ad_et = alg.ad(et)
    towers: List[List[np.ndarray]] = []
    for i in range(l):
        tower = [hw[i]]
        for _ in range(2 * ms[i]):
            nxt = ad_et @ tower[-1]
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


def rho_hat(alg: ChevalleyAlgebra, X: np.ndarray, slots: Optional[np.ndarray] = None) -> np.ndarray:
    """Compact anti-involution: h -> -h, e_beta -> -e_{-beta}, antilinear.

    X holds coefficients over ``slots`` (all ``dim`` slots when None), which
    must be closed under beta -> -beta.
    """
    full, pos = alg._slot_positions(slots)
    perm = pos[alg.negation[full]]
    if np.any(perm < 0):
        raise ValueError("slots are not closed under beta -> -beta")
    return -np.conj(np.asarray(X, dtype=complex)[..., perm])


def lambda_hat(alg: ChevalleyAlgebra, sl2: PrincipalSL2, X: np.ndarray) -> np.ndarray:
    """Split-form anti-involution sigma o rho_hat."""
    return sl2.sigma_mat @ rho_hat(alg, X)


# ---------------------------------------------------------------------------
# cyclic elements
# ---------------------------------------------------------------------------


def _phase_one_slots(alg: ChevalleyAlgebra) -> List[int]:
    """Basis slots of the phase-1 eigenspace: simple roots then lowest root."""
    rs = alg.rs
    slots = [alg.root_index(rs.simple_root(i)) for i in range(alg.rank)]
    slots.append(alg.root_index(_neg(rs.highest_root)))
    return slots


def is_cyclic_g1(alg: ChevalleyAlgebra, X: np.ndarray) -> bool:
    """Cyclic test on the phase-1 eigenspace: all l+1 coefficients nonzero."""
    slots = _phase_one_slots(alg)
    mask = np.zeros(alg.dim, dtype=bool)
    mask[slots] = True
    if np.any(X[~mask] != 0):
        raise ValueError("element does not lie in the phase-1 eigenspace")
    return bool(np.all(X[slots] != 0))


def cyclic_reference(alg: ChevalleyAlgebra) -> np.ndarray:
    """Reference cyclic element: sqrt(r_i) on the simple slots, 1 on -delta."""
    X = np.zeros(alg.dim, dtype=complex)
    slots = _phase_one_slots(alg)
    for i in range(alg.rank):
        X[slots[i]] = float(alg.rs.x_coefficients[i]) ** 0.5
    X[slots[-1]] = 1.0
    return X


def normalize_cyclic(alg: ChevalleyAlgebra, X: np.ndarray) -> Tuple[np.ndarray, complex]:
    """Torus parameters (xi, lam) with Ad_{exp xi} X = lam * reference.

    The l+1 root characters on the phase-1 space satisfy one relation
    weighted by the marks, which fixes log(lam); the Cartan part then comes
    out of an l x l linear solve.
    """
    if not is_cyclic_g1(alg, X):
        raise ValueError("element is not cyclic")
    l = alg.rank
    slots = _phase_one_slots(alg)
    ref = cyclic_reference(alg)
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


def _sums_vanish(keys: np.ndarray, vals: np.ndarray) -> bool:
    """Whether the integer values summed over each distinct key are all zero."""
    uniq, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, where, vals)
    return not sums.any()


def verify_structure(alg: ChevalleyAlgebra) -> Dict[str, bool]:
    """Exact integer checks: Jacobi identity and ad-invariance of Killing.

    The table must be antisymmetric, and for each of the 2l generators
    x = e_i, f_i, ad_x must be a derivation, [x, [u, v]] = [[x, u], v] +
    [u, [x, v]], and Killing-skew, kappa([x, u], v) + kappa(u, [x, v]) = 0,
    on all basis u, v.  That covers all of g: if ad_x is a derivation then
    ad_[x,y] = [ad_x, ad_y], and derivations and Killing-skew maps each form
    a subspace of gl(g) closed under the commutator, so the x that pass form
    a subalgebra.  It holds the generators, whose iterated brackets reach
    every basis slot (``generated_slots``, also checked), so it is g.
    """
    n = alg.dim
    i, j, k, v = alg._bk_i, alg._bk_j, alg._bk_k, alg._bk_v
    antisymmetric = _sums_vanish(
        np.concatenate([(i * n + j) * n + k, (j * n + i) * n + k]), np.concatenate([v, v])
    )
    simple = [alg.rs.simple_root(a) for a in range(alg.rank)]
    gens = [alg.root_index(r) for r in simple] + [alg.root_index(_neg(r)) for r in simple]
    K = alg.killing
    derivation = skew = True
    for g in gens:
        sel = i == g  # ad_x b_col = val b_row
        row, col, val = k[sel], j[sel], v[sel]
        ta, sa = _matches(k, col)  # ad_x [u, w]
        sb, tb = _matches(row, i)  # [ad_x u, w]
        sc, tc = _matches(row, j)  # [u, ad_x w]
        u = np.concatenate([i[ta], col[sb], i[tc]])
        w = np.concatenate([j[ta], j[tb], col[sc]])
        out = np.concatenate([row[sa], k[tb], k[tc]])
        coef = np.concatenate([v[ta] * val[sa], -val[sb] * v[tb], -val[sc] * v[tc]])
        derivation &= _sums_vanish((u * n + w) * n + out, coef)
        M = np.zeros((n, n), dtype=np.int64)  # ad_x^T K; K ad_x is its transpose
        np.add.at(M, col, val[:, None] * K[row])
        skew &= not np.any(M + M.T)
    spans = bool(alg.generated_slots(gens).all())
    return {
        "jacobi_exact": bool(antisymmetric and derivation and spans),
        "killing_ad_invariant": bool(skew and spans),
    }
