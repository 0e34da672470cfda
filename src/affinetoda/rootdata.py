"""Exact root-system combinatorics for the simple Lie types of rank <= 8.

Everything in this module is computed in exact rational arithmetic;
floating point enters only in the numerical layers built on top.  A root
is represented by its integer coefficient tuple over the simple roots,
and the inner product is the symmetrized Cartan form with long roots
normalized to squared length 2.

Conventions fixed here and relied on everywhere else:

* ``cartan_matrix[i][j] = alpha_j(h_i)``, i.e. row index carries the coroot.
* positive roots are ordered by height, then lexicographically by
  coefficient tuple, so the highest root is always last.
* node numbering per family: A/B/C are chains 1..l (B: last node short,
  C: last node long); D is a chain 1..l-1 with node l attached to l-2;
  E is a chain 1..l-1 with node l attached to l-3; F4 has the double bond
  between nodes 2 and 3 (nodes 3,4 short); G2 has node 1 short.
* affine data lists the extra node first (index 0, the lowered highest
  root), followed by nodes 1..l in the finite order.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

Root = Tuple[int, ...]

_RANK_BOUNDS = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# dimension of the adjoint representation, used as a cross-check only
_DIM = {
    "A": lambda l: l * (l + 2),
    "B": lambda l: l * (2 * l + 1),
    "C": lambda l: l * (2 * l + 1),
    "D": lambda l: l * (2 * l - 1),
    "E": lambda l: {6: 78, 7: 133, 8: 248}[l],
    "F": lambda l: 52,
    "G": lambda l: 14,
}


class LieType:
    """A simple type, e.g. LieType('A', 2)."""

    def __init__(self, family: str, rank: int):
        if family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANK_BOUNDS[family]
        if not (lo <= rank <= hi):
            raise ValueError(f"rank {rank} out of range [{lo}, {hi}] for family {family}")
        self.family = family
        self.rank = rank

    @staticmethod
    def parse(name: str) -> "LieType":
        name = name.strip().replace("_", "")
        if len(name) < 2:
            raise ValueError(f"cannot parse Lie type {name!r}")
        fam, rank = name[0].upper(), name[1:]
        if not rank.isdigit():
            raise ValueError(f"cannot parse Lie type {name!r}")
        return LieType(fam, int(rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dim(self) -> int:
        return _DIM[self.family](self.rank)


def _cartan_and_norms(lt: LieType) -> Tuple[List[List[int]], List[Fraction]]:
    """Cartan matrix M[i][j] = alpha_j(h_i) and half-norms d_i = (a_i,a_i)/2."""
    l = lt.rank
    M = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def chain(i, j):  # single bond
        M[i][j] = -1
        M[j][i] = -1

    for i in range(l - 1):
        chain(i, i + 1)
    d = [Fraction(1)] * l

    if lt.family == "B":  # last simple root short
        M[l - 2][l - 1] = -1
        M[l - 1][l - 2] = -2
        d[l - 1] = Fraction(1, 2)
    elif lt.family == "C":  # last simple root long
        M[l - 2][l - 1] = -2
        M[l - 1][l - 2] = -1
        d = [Fraction(1, 2)] * (l - 1) + [Fraction(1)]
    elif lt.family == "D":
        M[l - 2][l - 1] = M[l - 1][l - 2] = 0
        chain(l - 3, l - 1)
    elif lt.family == "E":
        M[l - 2][l - 1] = M[l - 1][l - 2] = 0
        chain(l - 4, l - 1)
    elif lt.family == "F":
        M[1][2] = -1
        M[2][1] = -2
        d = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    elif lt.family == "G":  # first simple root short
        M[0][1] = -3
        M[1][0] = -1
        d = [Fraction(1, 3), Fraction(1)]

    # d_i * M[i][j] must be a symmetric matrix (it equals (alpha_i, alpha_j))
    for i in range(l):
        for j in range(l):
            if d[i] * M[i][j] != d[j] * M[j][i]:
                raise RuntimeError(f"{lt}: Cartan matrix is not symmetrized by the root norms")
    return M, d


class RootSystem:
    """Positive roots, Cartan data and pairings for one simple type."""

    def __init__(
        self,
        type: LieType,
        cartan_matrix: Tuple[Tuple[int, ...], ...],
        norms: Tuple[Fraction, ...],
        positive_roots: Tuple[Root, ...],
    ):
        self.type = type
        self.cartan_matrix = cartan_matrix
        self.norms = norms  # d_i = (alpha_i, alpha_i) / 2
        self.positive_roots = positive_roots  # ordered by (height, lex)

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @staticmethod
    def height(root: Root) -> int:
        return sum(root)

    def pairing(self, beta: Root, i: int) -> int:
        """beta(h_i) for the i-th simple coroot."""
        return sum(beta[j] * self.cartan_matrix[i][j] for j in range(self.rank))

    @property
    def simple_characters(self) -> Tuple[Tuple[int, ...], ...]:
        """Integer (l, l) matrix P, as rows, with P[i][a] = alpha_i(h_a).

        It is the transpose of the Cartan matrix, so beta(h_a) = (beta @ P)[a]
        for any beta in simple-root coordinates.
        """
        return tuple(zip(*self.cartan_matrix))

    def dot(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        """Inner product of two h* vectors given in simple-root coordinates."""
        l = self.rank
        total = Fraction(0)
        for i in range(l):
            if u[i]:
                # the inner sum stays an int for integer v
                row = self.cartan_matrix[i]
                total += u[i] * self.norms[i] * sum(row[j] * v[j] for j in range(l) if v[j])
        return total

    def half_norm(self, root: Root) -> Fraction:
        """(root, root) / 2."""
        return self.dot(root, root) / 2

    def coroot(self, root: Root) -> Tuple[int, ...]:
        """Coefficients of h_root over the simple coroots h_i (always integers)."""
        d_b = self.half_norm(root)
        out = []
        for i in range(self.rank):
            c = root[i] * self.norms[i] / d_b
            if c.denominator != 1:
                raise RuntimeError(f"coroot of {root} is not integral")
            out.append(int(c))
        return tuple(out)

    @cached_property
    def x_coefficients(self) -> Tuple[Fraction, ...]:
        """Coefficients r_i of the grading element x = sum_i r_i h_i, the
        reality constants of the Toda layer.

        alpha_j(x) = sum_i r_i A[i][j] = 1 for every simple root, so r solves
        A^T r = 1 (x is half the sum of the positive coroots).  Exact
        elimination without pivoting: the leading principal minors of a
        Cartan matrix are Cartan determinants, hence positive.  Computed once
        per root system.
        """
        l = self.rank
        A = self.cartan_matrix
        M = [[Fraction(A[i][j]) for i in range(l)] + [Fraction(1)] for j in range(l)]
        for p in range(l):
            pivot = M[p]
            for row in M[p + 1 :]:
                if row[p]:
                    f = row[p] / pivot[p]
                    for c in range(p, l + 1):
                        row[c] -= f * pivot[c]
        r = [Fraction(0)] * l
        for p in reversed(range(l)):
            r[p] = (M[p][l] - sum(M[p][c] * r[c] for c in range(p + 1, l))) / M[p][p]
        return tuple(r)


def build_root_system(lt: LieType) -> RootSystem:
    """Close the simple roots under root-string addition.

    A candidate beta + alpha_i is a root iff p - beta(h_i) > 0 where p is
    the number of times alpha_i can be subtracted from beta staying inside
    the root system.  Heights grow by one per round, so the scan below is
    exhaustive.
    """
    M, d = _cartan_and_norms(lt)
    l = lt.rank
    simple = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    known = set(simple)
    layers: List[List[Root]] = [sorted(simple)]
    while True:
        frontier = layers[-1]
        nxt = set()
        for beta in frontier:
            for i in range(l):
                if beta == simple[i]:
                    continue  # 2*alpha_i is never a root
                p = 0
                while True:
                    down = tuple(beta[j] - (p + 1) * simple[i][j] for j in range(l))
                    if down in known or tuple(-c for c in down) in known:
                        p += 1
                    else:
                        break
                pairing = sum(beta[j] * M[i][j] for j in range(l))
                if p - pairing > 0:
                    nxt.add(tuple(beta[j] + simple[i][j] for j in range(l)))
        if not nxt:
            break
        layer = sorted(nxt)
        layers.append(layer)
        known.update(layer)

    positive = tuple(r for layer in layers for r in layer)
    rs = RootSystem(
        type=lt,
        cartan_matrix=tuple(tuple(row) for row in M),
        norms=tuple(d),
        positive_roots=positive,
    )
    if len(layers[-1]) != 1:
        raise RuntimeError(f"{lt}: highest root is not unique")
    if 2 * len(positive) + l != lt.dim:
        raise RuntimeError(f"{lt}: {len(positive)} positive roots do not give dimension {lt.dim}")
    return rs


def exponents(rs: RootSystem) -> List[int]:
    """Exponents m_1 <= ... <= m_l read off the height histogram.

    Row k of the height array holds the roots of height k, filled from the
    right; the column lengths, left to right, are the exponents.
    """
    l = rs.rank
    counts: Dict[int, int] = {}
    for r in rs.positive_roots:
        counts[rs.height(r)] = counts.get(rs.height(r), 0) + 1
    heights = [counts.get(k, 0) for k in range(1, rs.height(rs.highest_root) + 1)]
    return [sum(1 for n in heights if n >= l + 1 - j) for j in range(1, l + 1)]


def coxeter_number(rs: RootSystem) -> int:
    return rs.height(rs.highest_root) + 1


class AffineCartanData:
    def __init__(
        self, gcm: Tuple[Tuple[int, ...], ...], marks: Tuple[int, ...], comarks: Tuple[int, ...]
    ):
        self.gcm = gcm  # (l+1) x (l+1), node 0 first
        self.marks = marks
        self.comarks = comarks


def gcm_of(rs: RootSystem, nodes: Sequence[Sequence[Fraction]]) -> Tuple[Tuple[int, ...], ...]:
    """The generalized Cartan matrix of ``nodes``, h* vectors in simple-root
    coordinates: entry (i, j) is 2 (n_i, n_j) / (n_i, n_i).  A non-integer
    entry is a RuntimeError."""
    rows = []
    for u in nodes:
        hn = rs.half_norm(u)
        row = [rs.dot(u, v) / hn for v in nodes]
        if any(c.denominator != 1 for c in row):
            raise RuntimeError(f"{rs.type}: the pairings of node {u} are not integral")
        rows.append(tuple(int(c) for c in row))
    return tuple(rows)


def affine_cartan(rs: RootSystem) -> AffineCartanData:
    """Extend the Cartan matrix by the lowered highest root (node 0).

    With theta the highest root, the matrix is ``gcm_of`` the nodes
    (-theta, alpha_1, ..., alpha_l); the marks are the labels of the null
    root alpha_0 + theta, (1, *theta), and the comarks those of its coroot,
    (1, *theta^vee) (Kac, Table Aff 1).  Both are checked as positive null
    vectors of the matrix.  The null identities hold for any root in the
    last slot; positivity rejects one that lacks full support.
    """
    l = rs.rank
    delta = rs.highest_root
    gcm = gcm_of(rs, [tuple(-c for c in delta)] + [rs.simple_root(i) for i in range(l)])
    marks = (1, *delta)
    comarks = (1, *rs.coroot(delta))
    if (
        min(marks + comarks) <= 0
        or any(sum(gcm[i][j] * marks[j] for j in range(l + 1)) for i in range(l + 1))
        or any(sum(comarks[i] * gcm[i][j] for i in range(l + 1)) for j in range(l + 1))
    ):
        raise RuntimeError(f"{rs.type}: marks or comarks are not positive null vectors")
    return AffineCartanData(gcm=gcm, marks=marks, comarks=comarks)


class DiagramAutomorphism:
    """Order <= 2 symmetry of the Dynkin graph acting on simple-root indices."""

    def __init__(self, perm: Tuple[int, ...]):
        if sorted(perm) != list(range(len(perm))) or any(perm[p] != i for i, p in enumerate(perm)):
            raise ValueError(f"{perm} is not an involutive permutation of its nodes")
        self.perm = perm  # 0-based image of each node

    def preserves(self, A: Sequence[Sequence[int]]) -> bool:
        """Whether the permutation maps the Cartan matrix A onto itself."""
        return all(A[p][q] == A[i][j] for i, p in enumerate(self.perm) for j, q in enumerate(self.perm))

    def apply_root(self, root: Root) -> Root:
        out = [0] * len(root)
        for i, c in enumerate(root):
            out[self.perm[i]] = c
        return tuple(out)


def diagram_automorphism(rs: RootSystem) -> DiagramAutomorphism:
    """The graph symmetry entering the split-form involution.

    Nontrivial (order 2) exactly for A_n (n >= 2), D_odd and E6; identity
    for every other supported type.
    """
    l, fam = rs.rank, rs.type.family
    perm = list(range(l))
    if fam == "A" and l >= 2:
        perm = [l - 1 - i for i in range(l)]
    elif fam == "D" and l % 2 == 1:
        perm[l - 2], perm[l - 1] = perm[l - 1], perm[l - 2]
    elif fam == "E" and l == 6:
        perm = [4, 3, 2, 1, 0, 5]
    nu = DiagramAutomorphism(tuple(perm))
    if not nu.preserves(rs.cartan_matrix):
        raise RuntimeError(f"{rs.type}: graph symmetry check failed")
    if nu.apply_root(rs.highest_root) != rs.highest_root:
        raise RuntimeError(f"{rs.type}: graph symmetry moves the highest root")
    return nu
