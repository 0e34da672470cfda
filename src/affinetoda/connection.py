"""Flat Toda connections, discrete curvature and their cross-checks.

Sign conventions fixed here (and relied on by the solver and CLI):

* connection one-form A_z dz + A_zbar dzbar with the field parts kept
  separately: the dz part of the full connection is A_z + Phi, the dzbar
  part A_zbar + Psi;
* curvature is stored as the coefficient of dz ^ dzbar,
  F = d_z(A_zbar + Psi) - d_zbar(A_z + Phi) + [A_z + Phi, A_zbar + Psi];
* with these signs the curvature of the Toda-gauge connection equals
  minus the solver's elliptic residual ``todasolver.residual`` in the
  continuum, and [Phi, Phi*] is minus its pointwise term exactly.

Ad of exp(s * Omega) for Cartan Omega acts diagonally on root slots by the
character exp(s * beta(Omega)) and is never computed through a series.

Every array is kept over the 3l+2 basis slots of a Toda connection, not over
all of g: the l Cartan slots, the +-simple root slots and the +-highest root
slots (26 of E8's 248).  The connection, its field parts and the Cartan
gauge action live there by construction; the Cartan-valued A_z and A_zbar
are kept as their l Cartan coefficients only.  The curvature lives there
too, because the bracket of A_z + Phi (Cartan, -alpha_i, theta) with
A_zbar + Psi (Cartan, +alpha_j, -theta) never leaves them.  The Cartan scales
each slot; alpha_j - alpha_i (i != j) is not a root, as the difference of two
simple roots never is; theta + alpha_j is not a root, as theta is the
highest, and so neither is its negative -alpha_i - theta; the pairs beta,
-beta land on the Cartan.  ``ChevalleyAlgebra.bracket_terms`` checks that
closure on every call rather than assuming it.

The curvature is formed one slot column at a time (``_curvature_columns``):
``curvature`` fills a dense F from those columns, and ``curvature_norm``
reduces them to the norm as they come, so it never holds F.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .chevalley import ChevalleyAlgebra, rho_hat
from .grids import DomainGrid, HFieldGrid, QDifferential
from .rootdata import coxeter_number
from .todasolver import _TodaData, residual


def _toda_slots(alg: ChevalleyAlgebra) -> np.ndarray:
    """The 3l+2 basis slots of a Toda connection, sorted, Cartan slots first:
    the coroots, the +-simple roots and the +-highest root (deduplicated, as
    in A1 the simple root is the highest root)."""
    up = [alg.root_index(alg.rs.simple_root(i)) for i in range(alg.rank)]
    up.append(alg.highest_root_index)
    # a set, not np.unique, whose first call imports numpy submodules (~15 ms)
    return np.array(sorted({*range(alg.rank), *up, *alg.negation[up].tolist()}))


def char_scale(
    alg: ChevalleyAlgebra, values: np.ndarray, H: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Ad of exp(H) for Cartan-valued H on coefficients over ``slots``: root
    slots scale by exp(beta(H))."""
    chars = np.einsum("...a,da->...d", np.asarray(H, dtype=complex), alg.characters[slots])
    return values * np.exp(chars, out=chars)


def embed_cartan(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Cartan coefficients as coefficients over n slots, the first l of
    which are the Cartan slots."""
    out = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    out[..., : coeffs.shape[-1]] = coeffs
    return out


@dataclass
class ConnectionData:
    """Grids of connection and field coefficients in a declared gauge: the
    Cartan-valued A_z, A_zbar over the l simple coroots, the fields over
    the basis slots ``slots`` (sorted, Cartan slots first)."""

    gauge: str  # "toda" | "higgs" | "custom"
    grid: DomainGrid
    omega: HFieldGrid
    slots: np.ndarray
    A_z: np.ndarray  # (nx, ny, l) complex
    A_zbar: np.ndarray
    phi: np.ndarray  # (nx, ny, len(slots)) complex
    psi: np.ndarray


def build_toda_connection(
    omega: HFieldGrid,
    q: QDifferential,
    alg: ChevalleyAlgebra,
    data: _TodaData,
    gauge: str = "toda",
) -> ConnectionData:
    """Flat connection generated by a Cartan field and a top differential.

    Toda gauge:  A_z = -Omega_z, A_zbar = +Omega_zbar,
                 Phi = Ad_{exp(-Omega)} E-, Psi = Ad_{exp(+Omega)} E+,
    Higgs gauge: A_z = -2 Omega_z, A_zbar = 0,
                 Phi = E-, Psi = Ad_{exp(2 Omega)} E+,
    where E- carries sqrt(r_i) on the lowered simple slots and q on the
    raised highest-root slot, and E+ is its mirror with qbar; the r_i are
    the solver's reality constants ``data.r``.  Phi and Psi live on
    ``_toda_slots(alg)`` and are written only on their l+1 nonzero slots.
    """
    if gauge not in ("toda", "higgs"):
        raise ValueError(f"unknown gauge {gauge!r}")
    if q.degree != coxeter_number(alg.rs):
        raise ValueError("q differential degree does not match the Coxeter number")
    grid = omega.grid
    vals = omega.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("field contains non-finite values")
    slots = _toda_slots(alg)
    A_z, A_zbar = grid.wirtinger(vals.astype(complex))  # Omega_z, Omega_zbar
    if gauge == "toda":
        np.negative(A_z, out=A_z)
    else:
        A_z *= -2
        A_zbar = np.zeros_like(A_z)

    # E- on the lowered simple roots, then q on the highest root; E+ on
    # their negatives, with qbar
    raised = [alg.root_index(alg.rs.simple_root(i)) for i in range(alg.rank)]
    lo = np.append(alg.negation[raised], alg.highest_root_index)
    hi = alg.negation[lo]
    ilo, ihi = np.searchsorted(slots, lo), np.searchsorted(slots, hi)
    sqrt_r = np.sqrt(data.r)
    qv = q.sample(grid)
    phi = np.zeros((grid.nx, grid.ny, len(slots)), dtype=complex)
    psi = np.zeros_like(phi)
    phi[..., ilo[:-1]] = psi[..., ihi[:-1]] = sqrt_r
    phi[..., ilo[-1]] = qv
    psi[..., ihi[-1]] = np.conj(qv)
    if gauge == "toda":
        phi[..., ilo] = char_scale(alg, phi[..., ilo], -vals, lo)
        psi[..., ihi] = char_scale(alg, psi[..., ihi], +vals, hi)
    else:
        psi[..., ihi] = char_scale(alg, psi[..., ihi], 2 * vals, hi)
    return ConnectionData(
        gauge=gauge, grid=grid, omega=omega, slots=slots,
        A_z=A_z, A_zbar=A_zbar, phi=phi, psi=psi,
    )


def conjugate_star(conn: ConnectionData, alg: ChevalleyAlgebra) -> np.ndarray:
    """Phi* = -rho(Phi) for the unitary structure of the declared gauge.

    In the Toda gauge the metric involution is the compact one; in the
    Higgs gauge it is dressed by Ad of exp(2 Omega).
    """
    rho = rho_hat(alg, conn.phi, conn.slots)
    if conn.gauge == "toda":
        return -rho
    if conn.gauge == "higgs":
        return -char_scale(alg, rho, 2 * conn.omega.values, conn.slots)
    raise ValueError("star is defined only in the toda and higgs gauges")


def _curvature_columns(conn: ConnectionData, alg: ChevalleyAlgebra):
    """Yield (p, F[..., p]) for each slot position p in turn: the curvature
    of ``curvature`` one column at a time, by the same operations in the
    same order, in the working memory of the connection plus a few columns.
    """
    grid = conn.grid
    l, n = conn.A_z.shape[-1], len(conn.slots)
    # columns of A_z + Phi and A_zbar + Psi; off the Cartan they are views
    az = [conn.A_z[..., p] + conn.phi[..., p] for p in range(l)]
    az += [conn.phi[..., p] for p in range(l, n)]
    azbar = [conn.A_zbar[..., p] + conn.psi[..., p] for p in range(l)]
    azbar += [conn.psi[..., p] for p in range(l, n)]
    i, j, k, c = alg.bracket_terms(
        [col.any() for col in az], [col.any() for col in azbar], conn.slots
    )
    for p in range(n):
        F = grid.d_dz(azbar[p])
        F -= grid.d_dzbar(az[p])
        Z = np.zeros(F.shape, dtype=complex)
        for t in np.flatnonzero(k == p):  # in table order, as in ``bracket``
            Z += az[i[t]] * azbar[j[t]] * c[t]
        F += Z
        yield p, F


def curvature(conn: ConnectionData, alg: ChevalleyAlgebra) -> np.ndarray:
    """Discrete curvature over ``conn.slots``, coefficient of dz ^ dzbar,
    O(dx^2) accurate: d_dz(A_zbar + Psi) - d_dzbar(A_z + Phi) plus their
    bracket."""
    F = np.empty(conn.phi.shape, dtype=complex)
    for p, col in _curvature_columns(conn, alg):
        F[..., p] = col
    return F


def curvature_norm(conn: ConnectionData, alg: ChevalleyAlgebra) -> float:
    """The curvature norm ``equivalence_defect`` reports, max over nodes of
    max over slots |F|, without holding F: each column is reduced as it
    is formed."""
    node = np.zeros((conn.grid.nx, conn.grid.ny))
    for _, col in _curvature_columns(conn, alg):
        np.maximum(node, np.abs(col), out=node)
    return conn.grid.max_norm(node)


def gauge_transform(conn: ConnectionData, H: HFieldGrid, alg: ChevalleyAlgebra) -> ConnectionData:
    """Gauge action of exp(H) for Cartan-valued H; it keeps the slots.

    Field parts conjugate by the character action; the Cartan connection
    parts shift by the discrete derivatives of H.  H equal to the
    generating field maps the Toda gauge to the Higgs gauge exactly.
    """
    grid = conn.grid
    hv = H.values
    Hz, Hzbar = grid.wirtinger(hv.astype(complex))
    A_z = conn.A_z - Hz
    A_zbar = conn.A_zbar - Hzbar
    phi = char_scale(alg, conn.phi, hv, conn.slots)
    psi = char_scale(alg, conn.psi, hv, conn.slots)
    if not np.any(hv):
        gauge = conn.gauge
    elif conn.gauge == "toda" and np.array_equal(hv, conn.omega.values):
        gauge = "higgs"
    else:
        gauge = "custom"
    return ConnectionData(
        gauge=gauge, grid=grid, omega=conn.omega, slots=conn.slots,
        A_z=A_z, A_zbar=A_zbar, phi=phi, psi=psi,
    )


def commutator_defect(
    omega: HFieldGrid, q: QDifferential, alg: ChevalleyAlgebra, data: _TodaData
) -> float:
    """Max deviation between the explicit bracket [Phi, Phi*] and its closed
    form, minus the pointwise term of the Toda residual, in the Higgs gauge."""
    conn = build_toda_connection(omega, q, alg, data, gauge="higgs")
    comm = alg.bracket(conn.phi, conjugate_star(conn, alg), conn.slots)
    q2 = np.abs(q.sample(omega.grid)) ** 2
    closed = -data.pointwise_residual(omega.values, q2)
    return float(np.abs(comm - embed_cartan(closed, len(conn.slots))).max())


def chart_transition(
    values: np.ndarray,
    g: np.ndarray | complex,
    alg: ChevalleyAlgebra,
    slots: np.ndarray,
    form_degree: int = 0,
) -> np.ndarray:
    """Transport coefficients over ``slots`` between charts.

    Root-space components scale by g**height, Cartan components are
    untouched; ``form_degree`` adds the canonical-bundle power of a tensor
    coefficient (1 for the dz part of a field) so that transported
    coefficients can be compared directly with ones built on the target
    chart.  ``g`` is the derivative of the source coordinate with respect
    to the target coordinate and must not vanish.
    """
    garr = np.asarray(g, dtype=complex)
    if np.any(garr == 0):
        raise ValueError("chart transition function vanishes")
    powers = alg.heights[slots] + form_degree
    scale = garr[..., None] ** powers if garr.ndim else garr**powers
    return values * scale


def equivalence_defect(
    omega: HFieldGrid, q: QDifferential, data: _TodaData, F: np.ndarray
) -> Tuple[float, float, float]:
    """(curvature norm, residual norm, mismatch norm) for the curvature F of
    the Toda-gauge connection of omega, over its slots (Cartan slots first).

    The mismatch F + R measures the discretization gap between the
    zero-curvature and elliptic forms of the same equations; it shrinks at
    second order under grid refinement.
    """
    grid = omega.grid
    R = residual(data, grid, omega.values, np.abs(q.sample(grid)) ** 2)
    mismatch = F + embed_cartan(R, F.shape[-1])
    return (
        grid.max_norm(np.abs(F).max(axis=-1)),
        grid.max_norm(np.abs(R).max(axis=-1)),
        grid.max_norm(np.abs(mismatch).max(axis=-1)),
    )
