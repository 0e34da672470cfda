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
gauge action live there by construction.  The curvature does too, because
the bracket of A_z + Phi (Cartan, -alpha_i, theta) with A_zbar + Psi
(Cartan, +alpha_j, -theta) never leaves them.  The Cartan scales each slot;
alpha_j - alpha_i (i != j) is not a root, as the difference of two simple
roots never is; theta + alpha_j is not a root, as theta is the highest, and
so neither is its negative -alpha_i - theta; the pairs beta, -beta land on
the Cartan.  ``ChevalleyAlgebra.bracket`` checks that closure on every call
rather than assuming it.
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
    return values * np.exp(chars)


def embed_cartan(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Cartan coefficients as coefficients over n slots, the first l of
    which are the Cartan slots."""
    out = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    out[..., : coeffs.shape[-1]] = coeffs
    return out


@dataclass
class ConnectionData:
    """Grids of connection and field coefficients in a declared gauge, over
    the basis slots ``slots`` (sorted, Cartan slots first)."""

    gauge: str  # "toda" | "higgs" | "custom"
    grid: DomainGrid
    omega: HFieldGrid
    slots: np.ndarray
    A_z: np.ndarray  # (nx, ny, len(slots)) complex
    A_zbar: np.ndarray
    phi: np.ndarray
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
    the solver's reality constants ``data.r``.  Everything lives on
    ``_toda_slots(alg)``.
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
    n = len(slots)
    raised = [alg.root_index(alg.rs.simple_root(i)) for i in range(alg.rank)]
    sqrt_r = np.sqrt(data.r)
    qv = q.sample(grid)
    eminus = np.zeros((grid.nx, grid.ny, n), dtype=complex)
    eplus = np.zeros_like(eminus)
    eminus[..., np.searchsorted(slots, alg.negation[raised])] = sqrt_r
    eplus[..., np.searchsorted(slots, raised)] = sqrt_r
    eminus[..., np.searchsorted(slots, alg.highest_root_index)] = qv
    eplus[..., np.searchsorted(slots, alg.lowest_root_index)] = np.conj(qv)

    om_z = grid.d_dz(vals.astype(complex))
    if gauge == "toda":
        A_z = embed_cartan(-om_z, n)
        A_zbar = embed_cartan(grid.d_dzbar(vals.astype(complex)), n)
        phi = char_scale(alg, eminus, -vals, slots)
        psi = char_scale(alg, eplus, +vals, slots)
    else:
        A_z = embed_cartan(-2 * om_z, n)
        A_zbar = np.zeros_like(A_z)
        phi = eminus
        psi = char_scale(alg, eplus, 2 * vals, slots)
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


def curvature(conn: ConnectionData, alg: ChevalleyAlgebra) -> np.ndarray:
    """Discrete curvature over ``conn.slots``, coefficient of dz ^ dzbar,
    O(dx^2) accurate."""
    grid = conn.grid
    az = conn.A_z + conn.phi
    azbar = conn.A_zbar + conn.psi
    F = grid.d_dz(azbar)
    F -= grid.d_dzbar(az)
    F += alg.bracket(az, azbar, conn.slots)
    return F


def gauge_transform(conn: ConnectionData, H: HFieldGrid, alg: ChevalleyAlgebra) -> ConnectionData:
    """Gauge action of exp(H) for Cartan-valued H; it keeps the slots.

    Field parts conjugate by the character action; the Cartan connection
    parts shift by the discrete derivatives of H.  H equal to the
    generating field maps the Toda gauge to the Higgs gauge exactly.
    """
    grid = conn.grid
    hv = H.values
    Hz = grid.d_dz(hv.astype(complex))
    Hzbar = grid.d_dzbar(hv.astype(complex))
    n = len(conn.slots)
    A_z = conn.A_z - embed_cartan(Hz, n)
    A_zbar = conn.A_zbar - embed_cartan(Hzbar, n)
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
