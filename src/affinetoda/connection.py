"""The flat Toda connection, its discrete curvature and their cross-checks.

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
kept over all the slots.  The slots and their bracket table are built from
the root system alone, once per ``_TodaData``, which keeps them for every
connection of its type.  One routine forms every bracket on the slots
(``_bracket``): [A_z + Phi, A_zbar + Psi] in the curvature, and [Phi, Phi*]
in the commutator check.

The connection is formed in one place, a row block at a time
(``_block_maxima``).  The grid goes in row blocks of about
``_BLOCK_POINTS`` points, and no fewer rows than four times the halo.  Each
block builds the Toda-gauge connection from Omega and q on its rows plus a
two-row halo, wrapped on a torus and clipped at a rectangle's edges, forms
its curvature a group of slot columns at a time (``_curvature``), and folds
what it forms on its own rows into node maxima.  The halo is two rows
because F differentiates A = d Omega again.  Every block also forms the
elliptic residual R on its own rows.  The solve/verify summary reads |F|
and |R| alone (``summary_norms``), the two sides of the equivalence;
``conn check`` reads, from the same pass, every quantity it reports
(``check_norms``).  Neither holds F, R or a whole-grid connection.  The
whole-grid connection and its checks are kept in the tests
(``tests/oracles.py``), as the references whose norms these equal bit
for bit.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

# the package before numpy, against PEP 8: without bytecode, compiling after numpy lifts peak RSS
from .todasolver import _TodaData
from .grids import DomainGrid, HFieldGrid, QDifferential
from .rootdata import RootSystem

import numpy as np


class TodaSlots:
    """The 3l+2 basis slots of a Toda connection and their bracket, from
    root data alone.

    Local positions: the l Cartan slots h_a, then the simple roots and the
    highest root theta in positive-root order, then their negatives in the
    same order (A1, whose simple root is theta, has 3 slots): the order of
    the Chevalley basis restricted to these slots.  For the root beta of
    slot d, ``characters[d, a]`` is beta(h_a) and ``negation[d]`` the slot
    of -beta (0 and d on the Cartan).
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
    not assumed.  The bracket itself is ``_bracket``, on the terms that
    ``terms`` selects.
    """

    def __init__(self, rs: RootSystem):
        l, theta = rs.rank, rs.highest_root
        up = [r for r in rs.positive_roots if sum(r) == 1 or r == theta]
        self.roots = up + [tuple(-c for c in r) for r in up]  # of the root slots; -theta last
        self.n = l + len(self.roots)
        pos = {r: d for d, r in enumerate(self.roots, l)}
        chars = [[0] * l] * l + [[rs.pairing(r, a) for a in range(l)] for r in self.roots]
        self.characters = np.array(chars, dtype=np.int64)
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


def char_scale(values: np.ndarray, H: np.ndarray, characters: np.ndarray) -> np.ndarray:
    """Ad of exp(H) for Cartan-valued H on coefficients over slots whose
    roots have the rows of ``characters``: root slots scale by exp(beta(H)).
    The characters beta(H) are summed straight into a complex array, with
    no complex copy of a real H, and the product is formed in place there
    when it has the shape of ``values``."""
    H = np.asarray(H)
    chars = np.empty(H.shape[:-1] + (len(characters),), dtype=np.result_type(H, 1j))
    np.einsum("...a,da->...d", H, characters, out=chars)
    scale = np.exp(chars, out=chars)
    return np.multiply(values, scale, out=scale if scale.shape == values.shape else None)


def _checked_slots(omega: HFieldGrid, data: _TodaData) -> TodaSlots:
    """The ``TodaSlots`` of ``data.rs``, once omega is checked to be finite
    (ValueError otherwise).  They are built on the first call and kept as
    ``data.slots``: one build per type, however many connections."""
    if not np.all(np.isfinite(omega.values)):
        raise ValueError("field contains non-finite values")
    if data.slots is None:
        data.slots = TodaSlots(data.rs)
    return data.slots


def _e_minus(r: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """E- on the l+1 slots ``TodaSlots.lowered`` at the points of the
    samples ``qv`` of q: sqrt(r_i) on the lowered simple roots, then q on
    the highest root."""
    phi = np.empty(qv.shape + (len(r) + 1,), dtype=complex)
    phi[..., :-1] = np.sqrt(r)
    phi[..., -1] = qv
    return phi


def _toda_parts(
    grid: DomainGrid, slots: TodaSlots, r: np.ndarray, vals: np.ndarray, qv: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """(A_z, A_zbar, Phi, Psi) of the Toda-gauge connection generated by
    the field values ``vals`` and the samples ``qv`` of q on some rows of
    ``grid``:

        A_z = -Omega_z, A_zbar = +Omega_zbar,
        Phi = Ad_{exp(-Omega)} E-, Psi = Ad_{exp(+Omega)} E+,

    where E- carries sqrt(r_i) on the lowered simple slots and q on the
    raised highest-root slot, and E+ is its mirror with qbar; the r_i are
    the solver's reality constants ``data.r``.  Phi is kept on the slots
    ``slots.lowered`` and Psi on ``slots.raised``.  On a block of rows, the
    first and last rows of A_z and A_zbar are not those of the whole grid:
    the derivative there lacks a neighbour."""
    A_z, A_zbar = grid.wirtinger(vals.astype(complex))  # Omega_z, Omega_zbar
    np.negative(A_z, out=A_z)
    phi = _e_minus(r, qv)
    psi = phi.copy()  # E+ is E- on the negated slots, with qbar
    psi[..., -1] = np.conj(qv)
    phi = char_scale(phi, vals, -slots.characters[slots.lowered])  # integer rows negated, not Omega
    psi = char_scale(psi, +vals, slots.characters[slots.raised])
    return A_z, A_zbar, phi, psi


def _columns(
    slots: TodaSlots, A_z: np.ndarray, A_zbar: np.ndarray, phi: np.ndarray, psi: np.ndarray
) -> Tuple[list, list]:
    """The n slot columns of A_z + Phi and of A_zbar + Psi: the l Cartan
    coefficients on the first l slots, Phi on ``slots.lowered`` (Psi on
    ``slots.raised``), which are root slots, and zero elsewhere.  Every
    column is a view: of its part, or of one zero broadcast over the
    points."""

    def part(cartan, field, where):
        l = cartan.shape[-1]
        cols = [cartan[..., a] for a in range(l)]
        cols += [np.broadcast_to(0j, cartan.shape[:-1])] * (slots.n - l)
        for d, p in enumerate(where):
            cols[p] = field[..., d]
        return cols

    return part(A_z, phi, slots.lowered), part(A_zbar, psi, slots.raised)


def _bracket(xs: list, ys: list, terms, s: int, e: int) -> np.ndarray:
    """The slot columns s:e of [X, Y], for X and Y given by their n slot
    columns ``xs`` and ``ys``, all of one shape, and the terms (i, j, k, c)
    of ``TodaSlots.terms`` the bracket forms.  Each term whose output slot k
    lies in s:e is added into column k - s, in table order, one at a time:
    working memory is the output plus one term's worth of points.  The one
    slot bracket, of the curvature and of the commutator check alike."""
    Z = np.zeros(xs[0].shape + (e - s,), dtype=complex)
    for i, j, k, c in zip(*terms):
        if s <= k < e:
            Z[..., k - s] += xs[i] * ys[j] * c
    return Z


def _curvature(grid: DomainGrid, slots: TodaSlots, az: list, azbar: list):
    """Yield (s, e, F[..., s:e]) for each group of slot columns s:e in turn,
    F = d_dz(azbar) - d_dzbar(az) + [az, azbar] for the slot columns az of
    A_z + Phi and azbar of A_zbar + Psi on some rows of ``grid``.  F on a
    row reads the parts on its neighbours, so with parts built from a block
    of rows of Omega it is exact two rows in from the block's edges, and on
    every row of the whole grid.

    A group spans at most l slot columns, and at most nx // rows for the
    rows the parts are given on, so it holds no more points than the
    Cartan part of those rows, nor than one slot column of the whole grid:
    the whole grid goes one column at a time, and the 20 rows of a block of
    a 128-row A2 grid (16 and their halo) two columns at a time.  The
    derivative of a part that is zero on the whole group is not formed.
    The terms of [az, azbar] are selected once, from the supports of the
    columns, and each group adds its own by ``_bracket``."""
    n, shape = slots.n, az[0].shape
    x_supp, y_supp = [x.any() for x in az], [y.any() for y in azbar]
    terms = [t.tolist() for t in slots.terms(x_supp, y_supp)]
    width = max(1, min(grid.nx // shape[0], slots.characters.shape[1]))  # l columns at most
    for s in range(0, n, width):
        e = min(s + width, n)
        if any(y_supp[s:e]):
            F = grid.d_dz(np.stack(azbar[s:e], axis=-1))
        else:
            F = np.zeros(shape + (e - s,), dtype=complex)
        if any(x_supp[s:e]):
            F -= grid.d_dzbar(np.stack(az[s:e], axis=-1))
        F += _bracket(az, azbar, terms, s, e)
        yield s, e, F
        del F  # before the next group's is formed


# grid points per row block: 16-row blocks at 128^2, and every grid of up to
# 2048 points is one block; no block has fewer than 4 x halo rows (8 at
# 512^2, not 4), so the halo stays a small share of the rows a block builds
_BLOCK_POINTS = 2048


def _row_blocks(grid: DomainGrid):
    """Yield (s, e, read, keep) for each row block: its grid rows s:e, the
    rows ``read`` of Omega and q its connection is built from, s:e and two
    rows either side, and where s:e sit among them (``keep``).  ``read`` is
    a slice, so that the block reads views, except where a torus's halo
    wraps: there it lists the rows.  A block has ``_BLOCK_POINTS // ny``
    rows, and at least four times the halo.  On a rectangle every norm
    leaves out the boundary ring, so the blocks cover only the inner rows,
    and their halos clip at the edges."""
    nx, halo = grid.nx, 2  # F differentiates A = d Omega again
    step = max(4 * halo, _BLOCK_POINTS // grid.ny)
    first, stop = (0, nx) if grid.periodic else (1, nx - 1)
    if step >= stop - first:
        yield first, stop, slice(None), slice(first, stop)
        return
    for s in range(first, stop, step):
        e = min(s + step, stop)
        lo, hi = (s - halo, e + halo) if grid.periodic else (max(s - halo, 0), min(e + halo, nx))
        read = slice(lo, hi) if 0 <= lo and hi <= nx else np.arange(lo, hi) % nx
        yield s, e, read, slice(s - lo, e - lo)


def _fold(node: np.ndarray, values: np.ndarray) -> None:
    """node = max(node, max of |values| over its last axis), in place."""
    np.maximum(node, np.abs(values).max(axis=-1), out=node)


def _fold_block(
    at: Dict[str, np.ndarray], grid: DomainGrid, data: _TodaData, slots: TodaSlots,
    vals: np.ndarray, qv: np.ndarray, keep: slice, hs: Optional[Sequence],
) -> None:
    """Fold the quantities of ``_block_maxima`` into the node maxima ``at``
    of one row block, from the field values ``vals`` and the samples ``qv``
    of q on its rows plus their halo, among which ``keep`` are its own.
    Everything formed here is freed on return, before the next block."""
    l, lo, hi, chars = vals.shape[-1], slots.lowered, slots.raised, slots.characters
    A_z, A_zbar, phi, psi = _toda_parts(grid, slots, data.r, vals, qv)
    own, q_own = vals[keep], qv[keep]
    pointwise = data.pointwise_residual(data.exponentials(own, np.abs(q_own) ** 2))
    R = -0.5 * grid.laplacian(vals)[keep] + pointwise
    _fold(at["residual"], R)
    checks = hs is not None
    if checks:
        _fold(at["star"], psi[keep] - np.conj(phi[keep]))  # Phi* = conj(Phi) in the Toda gauge
        # in the Higgs gauge Phi = E- and Phi* = Ad_{exp(2 Omega)} E+, with no
        # Cartan part; the closed form of [Phi, Phi*] is minus the pointwise
        # term, and the bracket lands on the Cartan slots alone
        e_minus = _e_minus(data.r, q_own)
        star = char_scale(np.conj(e_minus), 2 * own, chars[hi])
        zero = np.broadcast_to(0j, q_own.shape + (l,))  # a view: no zero column is allocated
        xs, ys = _columns(slots, zero, zero, e_minus, star)
        terms = slots.terms([x.any() for x in xs], [y.any() for y in ys])
        if np.any(terms[2] >= l):
            raise RuntimeError("a bracket term lands outside its output slots")
        _fold(at["commutator"], _bracket(xs, ys, terms, 0, l) + pointwise)
        F_own = np.empty(own.shape[:-1] + (slots.n,), dtype=complex) if hs else None
    else:
        del pointwise, R  # the summary reads |F| alone from here on
    for s, e, F in _curvature(grid, slots, *_columns(slots, A_z, A_zbar, phi, psi)):
        F = F[keep]
        _fold(at["curvature"], F)
        if checks:
            if hs:
                F_own[..., s:e] = F
            cartan = min(e, l)
            if s < cartan:
                F[..., : cartan - s] += R[..., s:cartan]
            _fold(at["mismatch"], F)
        del F
    for h in hs or ():
        moved = _columns(slots, A_z, A_zbar, char_scale(phi, h, chars[lo]), char_scale(psi, h, chars[hi]))
        for s, e, G in _curvature(grid, slots, *moved):
            G = G[keep]
            G -= char_scale(F_own[..., s:e], h, chars[s:e])
            _fold(at["covariance"], G)
            del G
        del moved  # one H's moved connection is freed before the next one's is built


def _block_maxima(
    omega: HFieldGrid, q: QDifferential, data: _TodaData, hs: Optional[Sequence] = None
) -> Dict[str, np.ndarray]:
    """Node maxima for the Toda-gauge connection of omega, folded one row
    block at a time (``_row_blocks``), each block built from its own rows
    of Omega and of q, sampled once, plus their halo:

    - "curvature": max over slots of |F|;
    - "residual": |R|, for R the elliptic residual ``todasolver.residual``.

    Unless ``hs`` is None, also:

    - "star": |Psi - Phi*|;
    - "commutator": |[Phi, Phi*] - closed form|, on the Cartan slots, where
      the bracket raises if a term lands anywhere else;
    - "mismatch": |F + R| on the Cartan slots and |F| on the root slots,
      the discretization gap between the zero-curvature and elliptic forms
      of the equations, which shrinks at second order;
    - "covariance": max over the constant Cartan fields H in ``hs``, each
      an l-vector, of |F' - Ad_{exp(H)} F|, for F' the curvature of the
      connection moved by exp(H); zero for no H.

    Zero on the boundary rows of a rectangle, which no block covers; on its
    boundary columns they are not those of the whole grid.  omega must be
    finite (ValueError otherwise)."""
    grid, slots = omega.grid, _checked_slots(omega, data)
    qv = q.sample(grid)  # before the node maxima: a sample's temporaries are its peak
    keys = ["curvature", "residual"]
    if hs is not None:
        keys += ["star", "commutator", "mismatch", "covariance"]
    node = {key: np.zeros((grid.nx, grid.ny)) for key in keys}
    for s, e, read, keep in _row_blocks(grid):
        at = {key: m[s:e] for key, m in node.items()}
        _fold_block(at, grid, data, slots, omega.values[read], qv[read], keep, hs)
    return node


def summary_norms(omega: HFieldGrid, q: QDifferential, data: _TodaData) -> Dict[str, float]:
    """The "curvature" and "residual" norms of ``check_norms``, from the
    same block pass without its other checks: the numbers the solve/verify
    summary reports for both sides of the equivalence."""
    return {key: omega.grid.max_norm(m) for key, m in _block_maxima(omega, q, data).items()}


def check_norms(
    omega: HFieldGrid, q: QDifferential, data: _TodaData, hs: Sequence = ()
) -> Dict[str, float]:
    """The norms ``conn check`` reports for the Toda-gauge connection of
    omega, by the quantities of ``_block_maxima``: each the grid's
    ``max_norm`` of its node maxima, so a rectangle's boundary ring is left
    out.  ``hs`` holds the constant gauges H of the covariance check, each
    as its l coroot coefficients."""
    return {key: omega.grid.max_norm(m) for key, m in _block_maxima(omega, q, data, hs).items()}
