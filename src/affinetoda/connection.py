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
all of g (``TodaSlots``, 26 of E8's 248 slots), and a connection only on its
support there: the Cartan-valued A_z and A_zbar as their l Cartan
coefficients, Phi on the l+1 slots of E- (``TodaSlots.lowered``) and Psi on
those of E+ (``TodaSlots.raised``).  The star, the Cartan gauge action and
the bracket [Phi, Phi*] act on those columns alone; only the curvature F is
kept over all the slots.  The slots and their bracket are built from the
root system alone, once per ``_TodaData``, which keeps them for every
connection of its type.

The curvature is formed a group of slot columns at a time over a block of
grid rows (``_curvature``).  ``curvature`` takes the whole grid as its one
block and fills the dense F.  ``curvature_norm``, which the solve/verify
summary uses, goes through the grid in row blocks of about
``_BLOCK_POINTS`` points, and no fewer rows than four times the halo.  Each
block builds its own Toda-gauge connection from Omega and q on its rows plus a
two-row halo, wrapped on a torus and clipped at a rectangle's edges, and
folds |F| on its own rows into the node maxima.  The halo is two rows
because F differentiates A = d Omega again.  So the summary holds neither
F nor a whole-grid connection, and its norm is that of ``curvature``, bit
for bit.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .grids import DomainGrid, HFieldGrid, QDifferential
from .rootdata import RootSystem, coxeter_number
from .todasolver import _TodaData, residual


class TodaSlots:
    """The 3l+2 basis slots of a Toda connection and their bracket, from
    root data alone.

    Local positions: the l Cartan slots h_a, then the simple roots and the
    highest root theta in positive-root order, then their negatives in the
    same order (A1, whose simple root is theta, has 3 slots): the order of
    the Chevalley basis restricted to these slots.  For the root beta of
    slot d, ``characters[d, a]`` is beta(h_a), ``heights[d]`` its height and
    ``negation[d]`` the slot of -beta (0, 0 and d on the Cartan).
    ``lowered`` holds the slots of E-, the -alpha_i then theta, and
    ``raised`` those of E+, their negatives.

    ``table`` holds the terms (i, j, k, c), [b_i, b_j] has coefficient c on
    b_k, in (i, j, k) order: [h_a, e_beta] = beta(h_a) e_beta, its negative
    [e_beta, h_a], and [e_beta, e_-beta] = +-h_beta (+ for positive beta).
    Those are all the constants the connection forms: the bracket of
    A_z + Phi (Cartan, -alpha_i, theta) with A_zbar + Psi (Cartan, +alpha_j,
    -theta) never leaves the slots.  The Cartan scales each slot;
    alpha_j - alpha_i (i != j) is not a root, as the difference of two
    simple roots never is; theta + alpha_j is not a root, as theta is the
    highest, and so neither is -alpha_i - theta; the pairs beta, -beta land
    on the Cartan.  Every pair of root slots whose sum is a root, a slot or
    not (in A2, alpha_1 + alpha_2 = theta), is a term with k = -1, and
    ``terms`` raises RuntimeError when it forms one: the closure is checked,
    not assumed.
    """

    def __init__(self, rs: RootSystem):
        l, theta = rs.rank, rs.highest_root
        up = [r for r in rs.positive_roots if sum(r) == 1 or r == theta]
        self.roots = up + [tuple(-c for c in r) for r in up]  # of the root slots; -theta last
        self.n = l + len(self.roots)
        pos = {r: d for d, r in enumerate(self.roots, l)}
        chars = [[0] * l] * l + [[rs.pairing(r, a) for a in range(l)] for r in self.roots]
        self.characters = np.array(chars, dtype=np.int64)
        self.heights = np.array([0] * l + [sum(r) for r in self.roots], dtype=np.int64)
        self.negation = np.array([*range(l), *(pos[tuple(-c for c in r)] for r in self.roots)])
        self.raised = np.array([pos[rs.simple_root(i)] for i in range(l)] + [pos[self.roots[-1]]])
        self.lowered = self.negation[self.raised]
        is_root = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
        terms = [(a, d, d, chars[d][a]) for a in range(l) for d in range(l, self.n) if chars[d][a]]
        for u, ru in enumerate(self.roots, l):
            terms += [(u, a, u, -c) for a, c in enumerate(chars[u]) if c]
            for w, rw in enumerate(self.roots, l):
                g = tuple(x + y for x, y in zip(ru, rw))
                if not any(g):  # [e_u, e_-u] = +-h_u, + for positive u (slot u < w)
                    sign, co = (1, rs.coroot(ru)) if u < w else (-1, rs.coroot(rw))
                    terms += [(u, w, a, sign * c) for a, c in enumerate(co) if c]
                elif g in is_root:
                    terms.append((u, w, -1, 0))
        self.table = tuple(np.array(col, dtype=np.int64) for col in zip(*terms))

    def terms(self, x_supp: Sequence[bool], y_supp: Sequence[bool]) -> Tuple[np.ndarray, ...]:
        """The table terms a bracket forms, as (i, j, k, c) in table order:
        those whose left slot is in the mask x_supp and right slot in y_supp.
        A formed pair of root slots whose sum is a root raises RuntimeError."""
        i, j, k, c = self.table
        formed = np.flatnonzero(np.asarray(x_supp)[i] & np.asarray(y_supp)[j])
        if np.any(k[formed] < 0):
            raise RuntimeError("the bracket leaves the Toda slots")
        return i[formed], j[formed], k[formed], c[formed]

    def bracket(
        self, X: np.ndarray, x_slots: Sequence[int], Y: np.ndarray, y_slots: Sequence[int],
        out_slots: Sequence[int],
    ) -> np.ndarray:
        """Bilinear bracket [X, Y] on the slots ``out_slots``, for X given
        by its columns on the slots ``x_slots`` and Y on ``y_slots``
        (supports leading axes): [Phi, Phi*] is
        ``bracket(phi, lowered, star, raised, range(l))``.  Only the
        ``terms`` of the columns of X and Y that are nonzero somewhere are
        formed, each added into its output column in table order, one at a
        time: working memory is the output plus one term's worth of points.
        A formed term whose output slot is not in ``out_slots`` raises
        RuntimeError, as a formed root-sum marker does."""
        if X.shape[-1] != len(x_slots) or Y.shape[-1] != len(y_slots):
            raise ValueError("dimension mismatch")
        x_supp, y_supp = np.zeros(self.n, dtype=bool), np.zeros(self.n, dtype=bool)
        x_supp[list(x_slots)] = X.reshape(-1, X.shape[-1]).any(axis=0)
        y_supp[list(y_slots)] = Y.reshape(-1, Y.shape[-1]).any(axis=0)
        i, j, k, c = self.terms(x_supp, y_supp)
        x_at, y_at, z_at = (self._columns_at(s) for s in (x_slots, y_slots, out_slots))
        if np.any(z_at[k] < 0):
            raise RuntimeError("a bracket term lands outside its output slots")
        Z = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (len(out_slots),), dtype=complex)
        for a, b, d, v in zip(x_at[i], y_at[j], z_at[k], c):
            Z[..., d] += X[..., a] * Y[..., b] * v
        return Z

    def _columns_at(self, slots: Sequence[int]) -> np.ndarray:
        """For each of the n slots, its column among ``slots``, or -1."""
        at = np.full(self.n, -1)
        at[list(slots)] = np.arange(len(slots))
        return at


def _shared_slots(data: _TodaData) -> TodaSlots:
    """The ``TodaSlots`` of ``data.rs``, built on the first call and kept as
    ``data.slots``: one build per type, however many connections."""
    if data.slots is None:
        data.slots = TodaSlots(data.rs)
    return data.slots


def char_scale(values: np.ndarray, H: np.ndarray, characters: np.ndarray) -> np.ndarray:
    """Ad of exp(H) for Cartan-valued H on coefficients over slots whose
    roots have the rows of ``characters``: root slots scale by exp(beta(H))."""
    chars = np.einsum("...a,da->...d", np.asarray(H, dtype=complex), characters)
    return values * np.exp(chars, out=chars)


class ConnectionData:
    """Grids of connection and field coefficients in a declared gauge: the
    Cartan-valued A_z, A_zbar over the l simple coroots, Phi over the l+1
    slots ``slots.lowered`` of E- and Psi over the l+1 slots
    ``slots.raised`` of E+, column d of each on slot ``lowered[d]``
    (``raised[d]``): the only slots where either is nonzero."""

    def __init__(
        self,
        gauge: str,
        grid: DomainGrid,
        omega: HFieldGrid,
        slots: TodaSlots,
        A_z: np.ndarray,
        A_zbar: np.ndarray,
        phi: np.ndarray,
        psi: np.ndarray,
    ):
        self.gauge = gauge  # "toda" | "higgs" | "custom"
        self.grid = grid
        self.omega = omega
        self.slots = slots
        self.A_z = A_z  # (nx, ny, l) complex
        self.A_zbar = A_zbar
        self.phi = phi  # (nx, ny, l+1) complex, on slots.lowered
        self.psi = psi  # (nx, ny, l+1) complex, on slots.raised


def build_toda_connection(
    omega: HFieldGrid, q: QDifferential, data: _TodaData, gauge: str = "toda"
) -> ConnectionData:
    """Flat connection generated by a Cartan field and a top differential.

    Toda gauge:  A_z = -Omega_z, A_zbar = +Omega_zbar,
                 Phi = Ad_{exp(-Omega)} E-, Psi = Ad_{exp(+Omega)} E+,
    Higgs gauge: A_z = -2 Omega_z, A_zbar = 0,
                 Phi = E-, Psi = Ad_{exp(2 Omega)} E+,
    where E- carries sqrt(r_i) on the lowered simple slots and q on the
    raised highest-root slot, and E+ is its mirror with qbar; the r_i are
    the solver's reality constants ``data.r``.  Phi and Psi are kept on
    their l+1 slots of the ``TodaSlots`` of ``data.rs`` (``ConnectionData``).
    """
    if gauge not in ("toda", "higgs"):
        raise ValueError(f"unknown gauge {gauge!r}")
    grid, slots = omega.grid, _checked_slots(omega, q, data)
    A_z, A_zbar, phi, psi = _toda_parts(grid, slots, data.r, omega.values, q.sample(grid), gauge)
    return ConnectionData(
        gauge=gauge, grid=grid, omega=omega, slots=slots,
        A_z=A_z, A_zbar=A_zbar, phi=phi, psi=psi,
    )


def _checked_slots(omega: HFieldGrid, q: QDifferential, data: _TodaData) -> TodaSlots:
    """The ``TodaSlots`` of ``data``, once q is checked to have the degree
    of the Coxeter number and omega to be finite (ValueError otherwise)."""
    if q.degree != coxeter_number(data.rs):
        raise ValueError("q differential degree does not match the Coxeter number")
    if not np.all(np.isfinite(omega.values)):
        raise ValueError("field contains non-finite values")
    return _shared_slots(data)


def _e_minus(r: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """E- on the l+1 slots ``TodaSlots.lowered`` at the points of the
    samples ``qv`` of q: sqrt(r_i) on the lowered simple roots, then q on
    the highest root."""
    phi = np.empty(qv.shape + (len(r) + 1,), dtype=complex)
    phi[..., :-1] = np.sqrt(r)
    phi[..., -1] = qv
    return phi


def _toda_parts(
    grid: DomainGrid, slots: TodaSlots, r: np.ndarray, vals: np.ndarray, qv: np.ndarray, gauge: str
) -> Tuple[np.ndarray, ...]:
    """(A_z, A_zbar, Phi, Psi) of ``build_toda_connection`` from the field
    values ``vals`` and the samples ``qv`` of q on some rows of ``grid``,
    with Phi on the slots ``slots.lowered`` and Psi on ``slots.raised``.
    On a block of rows, the first and last rows of A_z and A_zbar are not
    those of the whole grid: the derivative there lacks a neighbour."""
    A_z, A_zbar = grid.wirtinger(vals.astype(complex))  # Omega_z, Omega_zbar
    if gauge == "toda":
        np.negative(A_z, out=A_z)
    else:
        A_z *= -2
        A_zbar = np.zeros_like(A_z)

    # E+ is E- on the negated slots, with qbar
    lo, hi = slots.lowered, slots.raised
    phi = _e_minus(r, qv)
    psi = phi.copy()
    psi[..., -1] = np.conj(qv)
    if gauge == "toda":
        phi = char_scale(phi, -vals, slots.characters[lo])
        psi = char_scale(psi, +vals, slots.characters[hi])
    else:
        psi = char_scale(psi, 2 * vals, slots.characters[hi])
    return A_z, A_zbar, phi, psi


def conjugate_star(conn: ConnectionData) -> np.ndarray:
    """Phi* = -rho(Phi) for the unitary structure of the declared gauge,
    with rho the compact anti-involution h -> -h, e_beta -> -e_{-beta}, on
    the slots ``slots.raised``: column d is the conjugate of Phi on
    ``lowered[d]``, the slot of minus its root.

    In the Toda gauge the metric involution is the compact one; in the
    Higgs gauge it is dressed by Ad of exp(2 Omega).
    """
    star = np.conj(conn.phi)
    if conn.gauge == "toda":
        return star
    if conn.gauge == "higgs":
        slots = conn.slots
        return char_scale(star, 2 * conn.omega.values, slots.characters[slots.raised])
    raise ValueError("star is defined only in the toda and higgs gauges")


def _columns(
    slots: TodaSlots, A_z: np.ndarray, A_zbar: np.ndarray, phi: np.ndarray, psi: np.ndarray
) -> Tuple[list, list]:
    """The n slot columns of A_z + Phi and of A_zbar + Psi: the l Cartan
    coefficients on the first l slots plus Phi on ``slots.lowered`` (Psi on
    ``slots.raised``), zero elsewhere.  Columns of one part alone are views
    of it."""

    def part(cartan, field, where):
        cols = [np.zeros(cartan.shape[:-1], dtype=complex)] * slots.n
        for d, p in enumerate(where):
            cols[p] = field[..., d]
        l = cartan.shape[-1]
        return [cartan[..., a] + cols[a] for a in range(l)] + cols[l:]

    return part(A_z, phi, slots.lowered), part(A_zbar, psi, slots.raised)


def _curvature(grid: DomainGrid, slots: TodaSlots, az: list, azbar: list):
    """Yield (s, e, F[..., s:e]) for each group of slot columns s:e in turn,
    F = d_dz(azbar) - d_dzbar(az) + [az, azbar] for the slot columns az of
    A_z + Phi and azbar of A_zbar + Psi on some rows of ``grid``.  F on a
    row reads the parts on its neighbours, so with parts built from a block
    of rows of Omega it is exact two rows in from the block's edges, and on
    every row of the whole grid.

    A group spans nx // rows slot columns, for the rows the parts are given
    on, so it holds no more points than one slot column of the whole grid:
    the whole grid goes one column at a time, and the 20 rows of a block of
    a 128-row grid (16 and their halo) six columns at a time.  The
    derivative of a part that is zero on the whole group is not formed."""
    n, shape = slots.n, az[0].shape
    x_supp, y_supp = [x.any() for x in az], [y.any() for y in azbar]
    terms = [t.tolist() for t in slots.terms(x_supp, y_supp)]
    width = max(1, grid.nx // shape[0])
    for s in range(0, n, width):
        e = min(s + width, n)
        if any(y_supp[s:e]):
            F = grid.d_dz(np.stack(azbar[s:e], axis=-1))
        else:
            F = np.zeros(shape + (e - s,), dtype=complex)
        if any(x_supp[s:e]):
            F -= grid.d_dzbar(np.stack(az[s:e], axis=-1))
        Z = np.zeros(F.shape, dtype=complex)
        for i, j, k, c in zip(*terms):  # in table order, as in ``TodaSlots.bracket``
            if s <= k < e:
                Z[..., k - s] += az[i] * azbar[j] * c
        F += Z
        yield s, e, F


def curvature(conn: ConnectionData) -> np.ndarray:
    """Discrete curvature over ``conn.slots``, coefficient of dz ^ dzbar,
    O(dx^2) accurate: d_dz(A_zbar + Psi) - d_dzbar(A_z + Phi) plus their
    bracket, with the whole grid as one block."""
    slots = conn.slots
    az, azbar = _columns(slots, conn.A_z, conn.A_zbar, conn.phi, conn.psi)
    F = np.empty(conn.A_z.shape[:-1] + (slots.n,), dtype=complex)
    for s, e, group in _curvature(conn.grid, slots, az, azbar):
        F[..., s:e] = group
    return F


# grid points per row block of ``curvature_norm``: 16-row blocks at 128^2,
# and every grid of up to 2048 points is one block; no block has fewer than
# 4 x halo rows (8 at 512^2, not 4), so the halo stays a small share of the
# rows a block builds
_BLOCK_POINTS = 2048


def _row_blocks(grid: DomainGrid):
    """Yield (s, e, read, keep) for each row block of ``curvature_norm``:
    its grid rows s:e, the rows ``read`` (an axis-0 index) of Omega and q
    its connection is built from, s:e and two rows either side, and where
    s:e sit among them (``keep``).  A block has ``_BLOCK_POINTS // ny``
    rows, and at least four times the halo.  On a rectangle the norm leaves
    out the boundary ring, so the blocks cover only the inner rows, and
    their halos clip at the edges."""
    nx, halo = grid.nx, 2  # F differentiates A = d Omega again
    step = max(4 * halo, _BLOCK_POINTS // grid.ny)
    first, stop = (0, nx) if grid.periodic else (1, nx - 1)
    if step >= stop - first:
        yield first, stop, slice(None), slice(first, stop)
        return
    for s in range(first, stop, step):
        e = min(s + step, stop)
        lo, hi = (s - halo, e + halo) if grid.periodic else (max(s - halo, 0), min(e + halo, nx))
        yield s, e, np.arange(lo, hi) % nx, slice(s - lo, e - lo)


def _node_maxima(omega: HFieldGrid, qv: np.ndarray, data: _TodaData) -> np.ndarray:
    """Max over slots of |F| at each node, for the Toda-gauge connection of
    omega with q sampled as ``qv``: one row block at a time, each built from
    its own rows of Omega and qv plus their halo.  Zero on the boundary rows
    of a rectangle, which no block covers."""
    grid, vals = omega.grid, omega.values
    slots = _shared_slots(data)
    node = np.zeros((grid.nx, grid.ny))
    for s, e, read, keep in _row_blocks(grid):
        az, azbar = _columns(slots, *_toda_parts(grid, slots, data.r, vals[read], qv[read], "toda"))
        for _, _, F in _curvature(grid, slots, az, azbar):
            np.maximum(node[s:e], np.abs(F[keep]).max(axis=-1), out=node[s:e])
        del az, azbar, F  # a block's connection is freed before the next block's is built
    return node


def curvature_norm(omega: HFieldGrid, qv: np.ndarray, data: _TodaData) -> float:
    """The curvature norm ``equivalence_defect`` reports for the Toda-gauge
    connection of omega, with ``qv`` the samples ``q.sample(omega.grid)``:
    max over nodes of max over slots |F|, the norm of ``curvature`` bit for
    bit, without ever holding F or the whole connection."""
    return omega.grid.max_norm(_node_maxima(omega, qv, data))


def gauge_transform(conn: ConnectionData, H: HFieldGrid) -> ConnectionData:
    """Gauge action of exp(H) for Cartan-valued H; it keeps the slots.

    Field parts conjugate by the character action; the Cartan connection
    parts shift by the discrete derivatives of H.  H equal to the
    generating field maps the Toda gauge to the Higgs gauge exactly.
    """
    grid, slots = conn.grid, conn.slots
    hv = H.values
    Hz, Hzbar = grid.wirtinger(hv.astype(complex))
    A_z = conn.A_z - Hz
    A_zbar = conn.A_zbar - Hzbar
    phi = char_scale(conn.phi, hv, slots.characters[slots.lowered])
    psi = char_scale(conn.psi, hv, slots.characters[slots.raised])
    if not np.any(hv):
        gauge = conn.gauge
    elif conn.gauge == "toda" and np.array_equal(hv, conn.omega.values):
        gauge = "higgs"
    else:
        gauge = "custom"
    return ConnectionData(
        gauge=gauge, grid=grid, omega=conn.omega, slots=slots,
        A_z=A_z, A_zbar=A_zbar, phi=phi, psi=psi,
    )


def gauge_covariance_defect(conn: ConnectionData, F: np.ndarray, H: HFieldGrid) -> float:
    """Max over nodes and slots of |F' - Ad_{exp(H)} F|, for F the
    curvature of conn and F' that of ``gauge_transform(conn, H)``: zero up
    to rounding for constant H, O(dx^2) for varying H.  F' is formed a
    group of slot columns at a time, each compared with the same columns of
    F scaled by their characters, so neither F' nor the scaled F is held
    whole."""
    moved, slots = gauge_transform(conn, H), conn.slots
    az, azbar = _columns(slots, moved.A_z, moved.A_zbar, moved.phi, moved.psi)
    worst = 0.0
    for s, e, group in _curvature(conn.grid, slots, az, azbar):
        group -= char_scale(F[..., s:e], H.values, slots.characters[s:e])
        worst = max(worst, float(np.abs(group).max()))
    return worst


def commutator_defect(omega: HFieldGrid, q: QDifferential, data: _TodaData) -> float:
    """Max deviation between the explicit bracket [Phi, Phi*] and its closed
    form, minus the pointwise term of the Toda residual, in the Higgs gauge:
    Phi = E- and Phi* = Ad_{exp(2 Omega)} E+, the ``conjugate_star`` of the
    Higgs-gauge connection, formed without the rest of that connection.
    The bracket is formed on the l Cartan slots only, and raises if a term
    of it lands anywhere else."""
    slots, qv = _checked_slots(omega, q, data), q.sample(omega.grid)
    phi = _e_minus(data.r, qv)
    star = char_scale(np.conj(phi), 2 * omega.values, slots.characters[slots.raised])
    comm = slots.bracket(phi, slots.lowered, star, slots.raised, range(omega.l))
    closed = -data.pointwise_residual(data.exponentials(omega.values, np.abs(qv) ** 2))
    return float(np.abs(comm - closed).max())


def _abs_max(columns) -> np.ndarray:
    """Max of |c| over the arrays ``columns`` (at least one), node by node."""
    columns = iter(columns)
    node = np.abs(next(columns))
    for c in columns:
        np.maximum(node, np.abs(c), out=node)
    return node


def equivalence_defect(
    omega: HFieldGrid, q: QDifferential, data: _TodaData, F: np.ndarray
) -> Tuple[float, float, float]:
    """(curvature norm, residual norm, mismatch norm) for the curvature F of
    the Toda-gauge connection of omega, over its slots (Cartan slots first).

    The mismatch F + R measures the discretization gap between the
    zero-curvature and elliptic forms of the same equations; it shrinks at
    second order under grid refinement.  R lives on the l Cartan slots, so
    the mismatch is |F + R| there and |F| on the root slots, folded slot by
    slot into node maxima.
    """
    grid = omega.grid
    exps = data.exponentials(omega.values, np.abs(q.sample(grid)) ** 2)
    R = residual(data, grid, omega.values, exps)
    l = R.shape[-1]
    on_roots = _abs_max(F[..., d] for d in range(l, F.shape[-1]))
    curv = np.maximum(on_roots, _abs_max(F[..., a] for a in range(l)))
    mismatch = np.maximum(on_roots, _abs_max(F[..., a] + R[..., a] for a in range(l)))
    return (
        grid.max_norm(curv),
        grid.max_norm(np.abs(R).max(axis=-1)),
        grid.max_norm(mismatch),
    )
