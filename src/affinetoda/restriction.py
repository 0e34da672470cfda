"""Folding by the diagram symmetry: projected roots and twisted affine data.

The projection r(alpha) = (alpha + nu(alpha)) / 2 maps the simple roots
onto the dual space of the symmetry-fixed Cartan subspace.  Together with
the lowered highest root the projected system carries a generalized
Cartan matrix of affine type.  Its Kac name follows from the base type
and whether the symmetry moves nodes, by the rule in ``classify_affine``;
the tests check the rule on every supported type against a matcher of
affine matrices up to node permutation.

All of it is exact integer and Fraction work: the module never imports
numpy.  ``RestrictedSystem.coroot_coords`` and ``weights`` pin the folded
field equation, whose residual the tests check against the solver's.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .rootdata import DiagramAutomorphism, RootSystem, affine_cartan

Vec = Tuple[Fraction, ...]


class RestrictedSystem:
    def __init__(
        self,
        base: RootSystem,
        restricted_roots: Tuple[Vec, ...],
        orbits: Tuple[Tuple[int, ...], ...],
        coroot_coords: Tuple[Tuple[int, ...], ...],
        weights: Tuple[Fraction, ...],
        gcm: Tuple[Tuple[int, ...], ...],
        label: str,
    ):
        self.base = base
        self.restricted_roots = restricted_roots  # deduplicated projections of the simple roots
        self.orbits = orbits  # simple-root indices over each projection
        self.coroot_coords = coroot_coords  # coroots of the projections over the simple coroots
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
        out[nu.perm[i]] += c / 2
    return tuple(out)


def restrict(rs: RootSystem, nu: DiagramAutomorphism) -> RestrictedSystem:
    """Project the simple roots, merge symmetry orbits, classify the result."""
    if not nu.preserves(rs.cartan_matrix):
        raise ValueError("permutation is not a diagram symmetry")
    l = rs.rank
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
    coroots: List[Tuple[int, ...]] = []
    weights: List[Fraction] = []
    for beta, orbit in zip(projections, orbits):
        dual = rs.coroot(beta)
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
        restricted_roots=tuple(projections),
        orbits=tuple(tuple(o) for o in orbits),
        coroot_coords=tuple(coroots),
        weights=tuple(weights),
        gcm=gcm,
        label="",
    )
    rest.label = classify_affine(rest)
    return rest


def classify_affine(rest: RestrictedSystem) -> str:
    """Kac name of the projected affine matrix.

    A symmetry that moves no node yields the extended diagram of the base
    type and keeps the base's name (rank-2 overlaps such as B2 = C2 are
    resolved in favor of the base).  One that moves nodes folds A_2k to
    A_2k(2), A_2k-1 to C_k(1), D3 = A3 to C2(1), D_l (l >= 4) to B_l-1(1)
    and E6 to F4(1) (Kac, ch. 8).
    """
    base = rest.base.type
    l = base.rank
    if all(len(orbit) == 1 for orbit in rest.orbits):
        aff = affine_cartan(rest.base)
        if rest.gcm != aff.gcm:
            raise RuntimeError(f"{base}: trivial folding changed the affine matrix")
        return aff.kac_label
    if base.family == "A":
        return f"A{l}(2)" if l % 2 == 0 else f"C{(l + 1) // 2}(1)"
    if base.family == "D":
        return "C2(1)" if l == 3 else f"B{l - 1}(1)"
    if base.family == "E" and l == 6:
        return "F4(1)"
    raise ValueError(f"{base}: no folded affine type for a symmetry that moves nodes")
