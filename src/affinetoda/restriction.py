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
from typing import List, Sequence, Tuple

from .rootdata import DiagramAutomorphism, RootSystem, gcm_of

Vec = Tuple[Fraction, ...]


class RestrictedSystem:
    def __init__(
        self,
        restricted_roots: Tuple[Vec, ...],
        orbits: Tuple[Tuple[int, ...], ...],
        coroot_coords: Tuple[Tuple[int, ...], ...],
        weights: Tuple[Fraction, ...],
        gcm: Tuple[Tuple[int, ...], ...],
        label: str,
    ):
        self.restricted_roots = restricted_roots  # projections of the simple roots, one per orbit
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
    """Project the simple roots, one per symmetry orbit, and classify the
    result.  The orbits are (i,) or (i, nu(i)) for i <= nu(i), in order of
    i: the projections of alpha_i and alpha_nu(i) agree."""
    if not nu.preserves(rs.cartan_matrix):
        raise ValueError("permutation is not a diagram symmetry")
    l = rs.rank
    orbits = [(i,) if p == i else (i, p) for i, p in enumerate(nu.perm) if i <= p]
    projections = [project(rs, nu, rs.simple_root(orbit[0])) for orbit in orbits]
    delta = tuple(Fraction(c) for c in rs.highest_root)
    if project(rs, nu, delta) != delta:
        raise RuntimeError(f"{rs.type}: the symmetry does not fix the highest root")
    gcm = gcm_of(rs, [tuple(-c for c in delta)] + projections)

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

    return RestrictedSystem(
        restricted_roots=tuple(projections),
        orbits=tuple(orbits),
        coroot_coords=tuple(coroots),
        weights=tuple(weights),
        gcm=gcm,
        label=classify_affine(rs.type, orbits),
    )


def classify_affine(base, orbits: Sequence[Tuple[int, ...]]) -> str:
    """Kac name of the affine matrix projected from the type ``base`` (its
    root system's ``type``) with the node orbits ``orbits``.

    A symmetry that moves no node yields the extended diagram of the base
    type and keeps the base's name (rank-2 overlaps such as B2 = C2 are
    resolved in favor of the base).  One that moves nodes folds A_2k to
    A_2k(2), A_2k-1 to C_k(1), D3 = A3 to C2(1), D_l (l >= 4) to B_l-1(1)
    and E6 to F4(1) (Kac, ch. 8).
    """
    l = base.rank
    if all(len(orbit) == 1 for orbit in orbits):
        return f"{base}(1)"
    if base.family == "A":
        return f"A{l}(2)" if l % 2 == 0 else f"C{(l + 1) // 2}(1)"
    if base.family == "D":
        return "C2(1)" if l == 3 else f"B{l - 1}(1)"
    if base.family == "E" and l == 6:
        return "F4(1)"
    raise ValueError(f"{base}: no folded affine type for a symmetry that moves nodes")
