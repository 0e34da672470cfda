"""Folding by the diagram symmetry: projected roots and twisted affine data.

The projection r(alpha) = (alpha + nu(alpha)) / 2 maps the simple roots
onto the dual space of the symmetry-fixed Cartan subspace.  Together with
the lowered highest root the projected system carries a generalized
Cartan matrix of affine type, which is classified by matching against a
catalog of affine matrices up to simultaneous node permutation.

Catalog contents: every extended (untwisted) diagram of the supported
rank range under the standard naming (B only from rank 3 and D only from
rank 4, since B2 = C2 and D3 = A3), plus the one twisted family the
projection can produce, whose matrices are generated from the chain
pattern with a doubled bond at both ends (quadruple bond for the smallest
member).

All of it is exact integer and Fraction work: the module never imports
numpy.  ``RestrictedSystem.coroot_coords`` and ``weights`` pin the folded
field equation, whose residual the tests check against the solver's.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .rootdata import (
    DiagramAutomorphism,
    LieType,
    RootSystem,
    affine_cartan,
    build_root_system,
)

Vec = Tuple[Fraction, ...]


class RestrictedSystem:
    def __init__(
        self,
        base: RootSystem,
        nu: DiagramAutomorphism,
        restricted_roots: Tuple[Vec, ...],
        orbits: Tuple[Tuple[int, ...], ...],
        coroot_coords: Tuple[Vec, ...],
        weights: Tuple[Fraction, ...],
        gcm: Tuple[Tuple[int, ...], ...],
        label: str,
    ):
        self.base = base
        self.nu = nu
        self.restricted_roots = restricted_roots  # deduplicated projections of the simple roots
        self.orbits = orbits  # simple-root indices over each projection
        self.coroot_coords = coroot_coords  # dual vectors over the simple coroots
        self.weights = weights  # constants pinning the folded equation
        self.gcm = gcm  # affine matrix, lowered-root node first
        self.label = label


def project(rs: RootSystem, nu: DiagramAutomorphism, alpha: Sequence[Fraction]) -> Vec:
    """r(alpha) = (alpha + nu(alpha)) / 2 in simple-root coordinates."""
    l = rs.rank
    out = [Fraction(0)] * l
    for i in range(l):
        c = Fraction(alpha[i])
        out[i] += c / 2
        out[nu.apply_index(i)] += c / 2
    return tuple(out)


def _dual_coords(rs: RootSystem, beta: Vec) -> Vec:
    """Coordinates of the dual vector of beta over the simple coroots."""
    hn = rs.dot(beta, beta) / 2
    return tuple(Fraction(beta[a]) * rs.norms[a] / hn for a in range(rs.rank))


def restrict(rs: RootSystem, nu: DiagramAutomorphism) -> RestrictedSystem:
    """Project the simple roots, merge symmetry orbits, classify the result."""
    l = rs.rank
    A = rs.cartan_matrix
    for i in range(l):
        for j in range(l):
            if A[nu.apply_index(i)][nu.apply_index(j)] != A[i][j]:
                raise ValueError("permutation is not a diagram symmetry")

    projections: List[Vec] = []
    orbits: List[List[int]] = []
    seen: Dict[Vec, int] = {}
    for i in range(l):
        beta = project(rs, nu, rs.simple_root(i))
        if beta in seen:
            orbits[seen[beta]].append(i)
        else:
            seen[beta] = len(projections)
            projections.append(beta)
            orbits.append([i])

    delta = tuple(Fraction(c) for c in rs.highest_root)
    if project(rs, nu, delta) != delta:
        raise RuntimeError(f"{rs.type}: the symmetry does not fix the highest root")
    nodes: List[Vec] = [tuple(-c for c in delta)] + projections

    k = len(nodes)
    gcm_rows = []
    for i in range(k):
        row = []
        hn = rs.dot(nodes[i], nodes[i]) / 2
        for j in range(k):
            val = rs.dot(nodes[i], nodes[j]) / hn
            if val.denominator != 1:
                raise RuntimeError(f"{rs.type}: projected pairing {val} is not integral")
            row.append(int(val))
        gcm_rows.append(tuple(row))
    gcm = tuple(gcm_rows)

    # constants making the folded pointwise terms match the unfolded ones
    # on symmetry-fixed fields: sum over an orbit of r_i h_i must be a
    # rational multiple of the dual vector of the projection
    r = rs.x_coefficients
    coroots: List[Vec] = []
    weights: List[Fraction] = []
    for beta, orbit in zip(projections, orbits):
        dual = _dual_coords(rs, beta)
        lhs = [Fraction(0)] * l
        for i in orbit:
            lhs[i] += r[i]
        ratios = {lhs[a] / dual[a] for a in range(l) if dual[a]}
        if len(ratios) != 1 or any(lhs[a] for a in range(l) if not dual[a]):
            raise RuntimeError(
                f"{rs.type}: orbit {orbit} sum is not proportional to the dual vector"
            )
        coroots.append(dual)
        weights.append(ratios.pop())

    rest = RestrictedSystem(
        base=rs,
        nu=nu,
        restricted_roots=tuple(projections),
        orbits=tuple(tuple(o) for o in orbits),
        coroot_coords=tuple(coroots),
        weights=tuple(weights),
        gcm=gcm,
        label="",
    )
    rest.label = classify_affine(rest)
    return rest


# ---------------------------------------------------------------------------
# affine catalog and matching
# ---------------------------------------------------------------------------


def _twisted_chain_gcm(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The twisted family reached by folding the even A types (n+1 nodes)."""
    if n == 1:
        return ((2, -1), (-4, 2))
    M = [[2 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    for i in range(n):
        M[i][i + 1] = -1
        M[i + 1][i] = -1
    M[1][0] = -2
    M[n][n - 1] = -2
    return tuple(tuple(row) for row in M)


@functools.lru_cache(maxsize=None)
def affine_catalog(size: int) -> Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]:
    """The catalog entries with ``size`` nodes, in catalog order."""
    names = (
        [f"A{n}" for n in range(1, 9)]
        + [f"B{n}" for n in range(3, 9)]
        + [f"C{n}" for n in range(2, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    entries = []
    for name in names:
        if int(name[1:]) == size - 1:  # an extended diagram has rank + 1 nodes
            aff = affine_cartan(build_root_system(LieType.parse(name)))
            entries.append((aff.kac_label, aff.gcm))
    entries += [(f"A{2*n}(2)", _twisted_chain_gcm(n)) for n in range(1, 5) if n == size - 1]
    return tuple(entries)


def gcm_permutation_equivalent(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]]
) -> bool:
    """Simultaneous row/column permutation matching with signature pruning."""
    n = len(M1)
    if len(M2) != n:
        return False

    def signature(M, i):
        return (tuple(sorted(M[i])), tuple(sorted(M[j][i] for j in range(n))))

    sig1 = [signature(M1, i) for i in range(n)]
    sig2 = [signature(M2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [[j for j in range(n) if sig2[j] == sig1[i]] for i in range(n)]

    assign: List[int] = []

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if j in assign:
                continue
            if all(
                M1[i][k] == M2[j][assign[k]] and M1[k][i] == M2[assign[k]][j]
                for k in range(i)
            ):
                assign.append(j)
                if backtrack(i + 1):
                    return True
                assign.pop()
        return False

    return backtrack(0)


def classify_affine(rest: RestrictedSystem) -> str:
    """Kac name of the projected affine matrix.

    A trivial symmetry always yields the extended diagram of the base type
    and keeps the base's name (rank-2 overlaps such as B2 = C2 are
    resolved in favor of the base); otherwise the matrix is matched
    against the catalog up to node permutation.
    """
    base = rest.base.type
    if rest.nu.is_identity:
        if rest.gcm != affine_cartan(rest.base).gcm:
            raise RuntimeError(f"{base}: trivial folding changed the affine matrix")
        return f"{base.family}{base.rank}(1)"
    for label, gcm in affine_catalog(len(rest.gcm)):
        if gcm_permutation_equivalent(rest.gcm, gcm):
            return label
    raise ValueError(
        f"projected matrix of {base} matches no affine catalog entry; "
        "the projection is broken"
    )

