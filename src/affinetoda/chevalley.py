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
principal sl2 and its involution sigma are computed in Python integer
arithmetic, so none of them loads numpy.  The field code reads the same
table through numpy: ``bracket_terms``, ``bracket``, ``ad``, ``killing``,
``characters``, ``heights`` and ``negation`` return arrays (the table
columns as zero-copy int64 views) and import numpy inside the function.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from .rootdata import RootSystem, affine_cartan, coxeter_number, exponents

if TYPE_CHECKING:
    import numpy as np

Root = Tuple[int, ...]
# a signed permutation matrix, by rows: row a holds sign s in column b, for (b, s) = perm[a]
SignedPermutation = Tuple[Tuple[int, int], ...]


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
        pos = list(rs.positive_roots)
        # simple-root coordinates of the root of each slot, zero on the Cartan
        self._roots: Tuple[Root, ...] = tuple([(0,) * l] * l + pos + [_neg(r) for r in pos])
        self._index_of_root: Dict[Root, int] = {r: d for d, r in enumerate(self._roots) if d >= l}
        # exact per-slot data; ``heights`` and ``negation`` are their numpy forms
        self.slot_heights: Tuple[int, ...] = tuple(sum(r) for r in self._roots)
        # slot of -beta for the root beta of each slot; identity on the Cartan
        self.slot_negation: Tuple[int, ...] = (
            tuple(range(l)) + tuple(range(l + R, l + 2 * R)) + tuple(range(l, l + R))
        )
        # beta(h_a) for the root beta of each slot; zero rows on the Cartan
        P = rs.simple_characters
        self._characters = tuple(
            tuple(sum(c * p for c, p in zip(r, col)) for col in zip(*P)) for r in self._roots
        )
        self._build_structure_table()

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
        import numpy as np

        v = np.zeros(self.dim, dtype=complex)
        v[idx] = 1.0
        return v

    def cartan_element(self, coeffs: Sequence[complex]) -> np.ndarray:
        import numpy as np

        v = np.zeros(self.dim, dtype=complex)
        v[: self.rank] = coeffs
        return v

    @cached_property
    def heights(self) -> np.ndarray:
        """Height of the root of each basis slot (0 on the Cartan), int64."""
        import numpy as np

        return np.array(self.slot_heights, dtype=np.int64)

    @cached_property
    def negation(self) -> np.ndarray:
        """negation[d] = slot of -beta for the root beta of slot d, int64."""
        import numpy as np

        return np.array(self.slot_negation, dtype=np.int64)

    @cached_property
    def characters(self) -> np.ndarray:
        """characters[d, a] = beta(h_a) for the root beta of slot d, int64 (dim, l)."""
        import numpy as np

        return np.array(self._characters, dtype=np.int64).reshape(self.dim, self.rank)

    # ---- structure constants -------------------------------------------
    def _build_structure_table(self) -> None:
        """The table columns (_bk_i, _bk_j, _bk_k, _bk_v), sorted by (i, j, k).

        Each root is encoded as one integer, linear in its coordinates, and
        root sums are looked up in a dict of those codes.  Only the positive
        pairs x < y whose sum g is a root are walked: the extraspecial pair
        of each g gets +(p+1), and the other pairs follow from the Jacobi
        identity in integer arithmetic on scaled squared norms.  Each such
        triple also gives the negative pair, by N_{-a,-b} = -N_{a,b}, and
        the four mixed pairs (g, -x), (g, -y), (x, -g), (y, -g), by the
        norm-ratio relation of the module docstring.
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

        # [h_i, e_d] = beta_d(h_i) e_d; [e_u, e_v] = N e_{u+v}; [e_a, e_-a] = h_a.
        # The terms go into one flat array, and each left slot i keeps the
        # sort keys of its terms, ((j n + k) << 32) | term index, so that
        # one slot's terms sort by (j, k).  The field commands build the
        # table after loading numpy: a list of all the terms as Python
        # objects would leave about 1 MB of freed small-object memory
        # resident under their later peak (conn check E8 at 32: +0.7 MB).
        n = self.dim
        flat = array("q")  # i, j, k, c of each term in turn
        rows = [array("q") for _ in range(n)]

        def put(i: int, j: int, k: int, c: int) -> None:
            """The term (i, j, k, c) and its antisymmetric partner (j, i, k, -c)."""
            t = len(flat) >> 2
            flat.extend((i, j, k, c, j, i, k, -c))
            rows[i].append((j * n + k) << 32 | t)
            rows[j].append((i * n + k) << 32 | t + 1)

        for d in range(l, n):
            for i, c in enumerate(self._characters[d]):
                if c:
                    put(i, d, d, c)
        neg = l + R
        for g, x, y in triples:
            put(l + x, l + y, l + g, N[x, y])
            put(neg + x, neg + y, neg + g, -N[x, y])
            for u, w, c in ((g, x, y), (g, y, x), (x, g, R + y), (y, g, R + x)):
                put(l + u, neg + w, l + c, mixed(u, w, c))
        for pa in range(R):
            for ci, rc in enumerate(roots[pa]):
                if rc:
                    co, rem = divmod(2 * rc * sd[ci], nn[pa])
                    if rem:
                        raise RuntimeError(f"{rs.type}: a coroot is not integral")
                    put(l + pa, neg + pa, ci, co)
        order = array("q")
        for row in rows:
            order.extend([key & 0xFFFFFFFF for key in sorted(row)])
        self._bk_i, self._bk_j, self._bk_k, self._bk_v = (
            array("q", map(flat[c::4].__getitem__, order)) for c in range(4)
        )

    @cached_property
    def _table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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

    @cached_property
    def killing(self) -> np.ndarray:
        """Killing form kappa(b_a, b_b) = tr(ad_a ad_b), exact int64.

        Computed on first use: only the exact checks read it.
        """
        import numpy as np

        K = np.zeros((self.dim, self.dim), dtype=np.int64)
        for a, row in self._killing_rows().items():
            for b, v in row.items():
                K[a, b] = v
        return K

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
    def ad_sparse(self, X: Mapping[int, complex]) -> Dict[int, Dict[int, complex]]:
        """ad_X in plain Python, for a coefficient map X {basis slot: coefficient},
        as sparse columns: out[j][k] is the coefficient of b_k in [X, b_j].
        Integer coefficients stay exact."""
        J, K, V = self._bk_j, self._bk_k, self._bk_v
        cols: Dict[int, Dict[int, complex]] = {}
        for i, x in X.items():
            for t in self._row(i):
                col = cols.setdefault(J[t], {})
                col[K[t]] = col.get(K[t], 0) + x * V[t]
        return cols

    def bracket_sparse(
        self, X: Mapping[int, complex], Y: Mapping[int, complex]
    ) -> Dict[int, complex]:
        """[X, Y] in plain Python for coefficient maps {basis slot: coefficient}."""
        return _apply_sparse(self.ad_sparse(X), Y)

    def _slot_positions(self, slots: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """The basis slots (all ``dim`` of them when ``slots`` is None) and
        pos[b], the position of basis slot b among them or -1."""
        import numpy as np

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
        import numpy as np

        bk_i, bk_j, bk_k, bk_v = self._table
        full, pos = self._slot_positions(slots)
        x_mask = np.zeros(self.dim, dtype=bool)
        y_mask = np.zeros(self.dim, dtype=bool)
        x_mask[full] = x_supp
        y_mask[full] = y_supp
        terms = np.flatnonzero(x_mask[bk_i] & y_mask[bk_j])
        i, j, k = (pos[t[terms]] for t in (bk_i, bk_j, bk_k))
        if np.any(k < 0):
            raise RuntimeError("the bracket leaves the given slots")
        return i, j, k, bk_v[terms]

    def bracket(self, X: np.ndarray, Y: np.ndarray, slots: Optional[np.ndarray] = None) -> np.ndarray:
        """Bilinear bracket of coefficient vectors (supports leading axes).

        X, Y and the result hold coefficients over the basis slots
        ``slots``, or over all ``dim`` slots when it is None.  Only the
        ``bracket_terms`` of the supports of X and Y are formed, so time
        scales with the supports rather than with the whole table.  Each
        formed term is added into its output slot in table order, one at a
        time: working memory is the output plus one term's worth of points.
        """
        import numpy as np

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
        import numpy as np

        if X.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        bk_i, bk_j, bk_k, bk_v = self._table
        terms = np.flatnonzero(X[bk_i])
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(X, bk_v))
        np.add.at(out, (bk_k[terms], bk_j[terms]), X[bk_i[terms]] * bk_v[terms])
        return out


def build_chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs)


def _apply_sparse(
    cols: Mapping[int, Mapping[int, complex]], Y: Mapping[int, complex]
) -> Dict[int, complex]:
    """The sparse columns ``cols`` of a matrix applied to the coefficient map Y."""
    Z: Dict[int, complex] = {}
    for j, y in Y.items():
        for k, c in cols.get(j, {}).items():
            Z[k] = Z.get(k, 0) + c * y
    return Z


# ---------------------------------------------------------------------------
# principal sl2, Coxeter phases, sigma and rho_hat
# ---------------------------------------------------------------------------


class PrincipalSL2:
    """The principal sl2 triple {x, e, etilde}, x = sum r_i h_i, e and etilde
    with sqrt(r_i) on the +-simple root slots, its highest weight vectors and
    the split-form involution sigma.

    ``sigma`` is exact, a signed permutation of the Chevalley basis (see
    ``SignedPermutation``).  The numpy fields ``x``, ``e``, ``etilde``,
    ``hw_vectors`` (hw_vectors[0] = e) and ``sigma_mat`` are built on first
    access.
    """

    def __init__(
        self, alg: ChevalleyAlgebra, exponents: Tuple[int, ...],
        kernels: List[Dict[int, int]], sigma: SignedPermutation,
    ):
        self.alg = alg
        self.exponents = exponents
        self.sigma = sigma
        # integer highest weight vectors of e0 = sum_i e_{alpha_i}, one per exponent
        self._kernels = kernels

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

    def _dense(self, coeffs: Mapping[int, complex]) -> np.ndarray:
        import numpy as np

        v = np.zeros(self.alg.dim, dtype=complex)
        for d, c in coeffs.items():
            v[d] = c
        return v

    @cached_property
    def x(self) -> np.ndarray:
        return self._dense(self.triple_coefficients()[0])

    @cached_property
    def e(self) -> np.ndarray:
        return self._dense(self.triple_coefficients()[1])

    @cached_property
    def etilde(self) -> np.ndarray:
        return self._dense(self.triple_coefficients()[2])

    @cached_property
    def hw_vectors(self) -> List[np.ndarray]:
        """Unit highest weight vectors of e, in the order of ``exponents``:
        e itself first and, from rank 2, the highest-root generator last.
        The others are the integer kernels of ad e0 carried to the frame of e
        by the torus element that maps e0 to e."""
        import numpy as np

        alg = self.alg
        sq = [float(c) ** 0.5 for c in alg.rs.x_coefficients]
        out = []
        for vec in self._kernels:
            v = self._dense(
                {d: c * prod(s**k for s, k in zip(sq, alg._roots[d])) for d, c in vec.items()}
            )
            out.append(v / np.linalg.norm(v))
        out[0] = self.e.copy()  # exponent 1 is the triple itself
        if alg.rank >= 2:
            out[-1] = alg.basis_vector(alg.highest_root_index)
        return out

    @cached_property
    def sigma_mat(self) -> np.ndarray:
        """sigma as a dense float (dim, dim) matrix."""
        import numpy as np

        S = np.zeros((self.alg.dim, self.alg.dim))
        for a, (b, s) in enumerate(self.sigma):
            S[a, b] = s
        return S


def _grade_slots(alg: ChevalleyAlgebra) -> Dict[int, List[int]]:
    grades: Dict[int, List[int]] = {}
    for idx, height in enumerate(alg.slot_heights):
        grades.setdefault(height, []).append(idx)
    return grades


def _fraction_free_rref(M: List[List[int]], ncols: int) -> Tuple[List[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the integer rows M,
    in place, pivoting in the first ``ncols`` columns.

    Returns the pivot columns and the last pivot d.  Afterwards the r-th row
    holds d in the r-th pivot column and 0 in every other pivot column, the
    rows past the rank are zero, and every entry is an integer: each
    division by the previous pivot is exact (Sylvester's identity).
    """
    pivots: List[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv, row = M[r][c], M[r]
        for i in range(len(M)):
            if i != r:
                f = M[i][c]
                M[i] = [(piv * a - f * b) // prev for a, b in zip(M[i], row)]
        pivots.append(c)
        prev = piv
    return pivots, prev


def _primitive(v: Dict[int, int]) -> Dict[int, int]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*v.values())
    return {k: c // g for k, c in v.items()} if g > 1 else v


def _highest_weight_kernels(
    alg: ChevalleyAlgebra, e0: Mapping[int, int], ms: Sequence[int]
) -> List[Dict[int, int]]:
    """Integer bases of the kernel of ad e0 at each exponent grade, one
    vector per entry of ``ms`` (exponents in increasing order)."""
    grades = _grade_slots(alg)
    ad_e0 = alg.ad_sparse(e0)
    out: List[Dict[int, int]] = []
    for m in sorted(set(ms)):
        cols, rows = grades[m], grades.get(m + 1, [])
        pos = {d: r for r, d in enumerate(rows)}
        A = [[0] * len(cols) for _ in rows]
        for c, j in enumerate(cols):
            for k, v in ad_e0.get(j, {}).items():
                A[pos[k]][c] = v
        pivots, d = _fraction_free_rref(A, len(cols))
        free = [c for c in range(len(cols)) if c not in pivots]
        if len(free) != ms.count(m):
            raise RuntimeError(
                f"ad_e kernel at grade {m} has dimension {len(free)}, expected {ms.count(m)}"
            )
        for f in free:
            vec = {cols[f]: d}
            vec.update((cols[p], -A[r][f]) for r, p in enumerate(pivots) if A[r][f])
            out.append(_primitive(vec))
    return out


def _grade_blocks(
    alg: ChevalleyAlgebra, kernels: Sequence[Dict[int, int]], f0: Mapping[int, int],
    ms: Sequence[int],
) -> List[Tuple[List[int], List[List[int]], List[int]]]:
    """Per grade: its basis slots, the integer matrix B whose columns are the
    lowering-tower vectors (ad f0)^k v through that grade (v the kernel of
    exponent m, k = m - grade), and the sign (-1)^(k+1) sigma takes on each."""
    ad_f0 = alg.ad_sparse(f0)
    columns = defaultdict(list)  # grade -> [(vector, sign)]
    for v, m in zip(kernels, ms):
        for k in range(2 * m + 1):
            if k:
                v = _primitive(_apply_sparse(ad_f0, v))
            columns[m - k].append((v, -1 if k % 2 == 0 else 1))
    blocks = []
    for grade, slots in sorted(_grade_slots(alg).items()):
        cols = columns[grade]
        if len(cols) != len(slots):
            raise RuntimeError("tower vectors do not span the grade block")
        B = [[v.get(d, 0) for v, _ in cols] for d in slots]
        blocks.append((slots, B, [s for _, s in cols]))
    return blocks


def _signed_permutation(
    alg: ChevalleyAlgebra, blocks: Sequence[Tuple[List[int], List[List[int]], List[int]]],
    two_r: Sequence[int],
) -> SignedPermutation:
    """sigma from the grade blocks of ``_grade_blocks``; ``two_r`` holds the
    integers 2 r_i.

    Per block, S0 = B D B^-1 (D the signs) is solved exactly from
    B^T S0^T = D B^T by fraction-free elimination.  S0 is sigma in the frame
    of (e0, f0), which the torus element with alpha_i -> 1/sqrt(r_i) carries
    to the frame of (e, etilde), where sigma_ab = S0_ab prod_i
    sqrt(r_i)^(beta_a - beta_b)_i.  So sigma is a signed permutation exactly
    when each row of S0 has one nonzero entry, with S0_ab^2 prod_i
    r_i^(beta_a - beta_b)_i = 1; then sigma_ab = sign(S0_ab).  Anything else
    raises RuntimeError.  beta_a and beta_b have the same height, so the
    product equals prod_i (2 r_i)^(beta_a - beta_b)_i, and the check is made
    in integers.
    """
    sigma: List[Tuple[int, int]] = [(-1, 0)] * alg.dim
    for slots, B, signs in blocks:
        n = len(slots)
        M = [list(col) + [s * x for x in col] for col, s in zip(zip(*B), signs)]
        pivots, d = _fraction_free_rref(M, n)
        if len(pivots) != n:
            raise RuntimeError("tower vectors do not span the grade block")
        for a in range(n):  # S0[a][b] = M[b][n + a] / d
            nonzero = [b for b in range(n) if M[b][n + a]]
            if len(nonzero) == 1:
                b = nonzero[0]
                lhs, rhs = M[b][n + a] ** 2, d * d
                for t, p, q in zip(two_r, alg._roots[slots[a]], alg._roots[slots[b]]):
                    if p > q:
                        lhs *= t ** (p - q)
                    else:
                        rhs *= t ** (q - p)
            if len(nonzero) != 1 or lhs != rhs:
                raise RuntimeError(
                    f"{alg.rs.type}: sigma is not a signed permutation at grade "
                    f"{alg.slot_heights[slots[a]]}"
                )
            sigma[slots[a]] = (slots[b], 1 if (M[b][n + a] > 0) == (d > 0) else -1)
    return tuple(sigma)


def _rational_frame(alg: ChevalleyAlgebra) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
    """e0 = sum_i e_{alpha_i}, f0 = sum_i 2 r_i e_{-alpha_i} as coefficient
    maps, and the integers 2 r_i."""
    rs = alg.rs
    two_r = [int(2 * ri) for ri in rs.x_coefficients]
    simple = [rs.simple_root(i) for i in range(alg.rank)]
    e0 = {alg.root_index(a): 1 for a in simple}
    f0 = {alg.root_index(_neg(a)): t for a, t in zip(simple, two_r)}
    return e0, f0, two_r


def build_principal_sl2(alg: ChevalleyAlgebra) -> PrincipalSL2:
    """The sl2 triple {x, e, etilde}, its highest weight vectors and sigma.

    Everything is computed in the rational frame e0 = sum_i e_{alpha_i},
    f0 = sum_i 2 r_i e_{-alpha_i}, a torus conjugate of (e, 2 etilde) with
    integer entries (2 r_i is an integer).  The highest weight vectors are
    integer kernels of ad e0 at each exponent grade; sigma, defined by
    sigma = (-1)^(k+1) on the k-th lowering level (ad f0)^k of each
    irreducible summand, is solved blockwise per grade and read off as a
    signed permutation (``_signed_permutation``).
    """
    ms = tuple(exponents(alg.rs))
    e0, f0, two_r = _rational_frame(alg)
    kernels = _highest_weight_kernels(alg, e0, ms)
    sigma = _signed_permutation(alg, _grade_blocks(alg, kernels, f0, ms), two_r)
    return PrincipalSL2(alg, ms, kernels, sigma)


@dataclass(frozen=True)
class CoxeterElement:
    """Eigenphase bookkeeping for Ad of exp(2 pi i x / h)."""

    slot_phases: Tuple[int, ...]  # basis index -> height mod h
    h: int

    @cached_property
    def phases(self) -> np.ndarray:
        """``slot_phases`` as an int64 array."""
        import numpy as np

        return np.array(self.slot_phases, dtype=np.int64)

    def apply(self, X: np.ndarray) -> np.ndarray:
        import numpy as np

        return X * np.exp(2j * np.pi * self.phases / self.h)

    def eigenspace_indices(self, m: int) -> List[int]:
        return [d for d, p in enumerate(self.slot_phases) if p == m % self.h]


def coxeter_element(alg: ChevalleyAlgebra, sl2: PrincipalSL2) -> CoxeterElement:
    h = sl2.top_exponent + 1
    if h != coxeter_number(alg.rs):
        raise RuntimeError(f"{alg.rs.type}: top exponent {h - 1} does not match the Coxeter number")
    return CoxeterElement(slot_phases=tuple(ht % h for ht in alg.slot_heights), h=h)


def rho_hat(alg: ChevalleyAlgebra, X: np.ndarray, slots: Optional[np.ndarray] = None) -> np.ndarray:
    """Compact anti-involution: h -> -h, e_beta -> -e_{-beta}, antilinear.

    X holds coefficients over ``slots`` (all ``dim`` slots when None), which
    must be closed under beta -> -beta.
    """
    import numpy as np

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
    import numpy as np

    slots = _phase_one_slots(alg)
    mask = np.zeros(alg.dim, dtype=bool)
    mask[slots] = True
    if np.any(X[~mask] != 0):
        raise ValueError("element does not lie in the phase-1 eigenspace")
    return bool(np.all(X[slots] != 0))


def cyclic_reference(alg: ChevalleyAlgebra) -> np.ndarray:
    """Reference cyclic element: sqrt(r_i) on the simple slots, 1 on -delta."""
    import numpy as np

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
    import numpy as np

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
    simple = [alg.rs.simple_root(a) for a in range(alg.rank)]
    gens = [alg.root_index(r) for r in simple] + [alg.root_index(_neg(r)) for r in simple]
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
