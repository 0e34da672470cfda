"""Dense float references and paper identities the tests check against.

Plain functions over the package's objects: the Chevalley algebra
as dense vectors and matrices (basis vectors, root characters, ad, the
Killing form, the principal sl2 triple, sigma, the Coxeter phase map and
the anti-involutions rho_hat and lambda_hat), cyclic elements of the
phase-1 eigenspace and their torus normalisation, the chart transition of
the Higgs field, the residual of a constant field, the folded Toda residual and the uniqueness probe,
the whole-grid flat Toda connection in the toda and higgs gauges with its
curvature, gauge action and checks (the dense references of the row-block
pass ``connection.check_norms``; each norm is the grid's ``max_norm``, so
a rectangle's boundary ring is left out, as there), and the catalog of
affine matrices with its node-permutation matcher, the reference for the
folded labels of ``restriction.classify_affine``, and the brute-force
search of order-2 diagram symmetries.  The package itself
needs none of them.  The dense algebra views read the
table through ``ChevalleyAlgebra._table``, ``_killing_rows`` and
``_characters``, never its raw columns.
"""
import functools
import itertools
import warnings
from typing import List, Sequence, Tuple

import numpy as np

from affinetoda.chevalley import build_chevalley
from affinetoda.connection import (
    _checked_slots,
    _columns,
    _curvature,
    _e_minus,
    char_scale,
)
from affinetoda.rootdata import LieType, affine_cartan, build_root_system, diagram_automorphism
from affinetoda.todasolver import InitSpec, SolverConfig, residual, sigma_symmetry_defect, solve


def basis_vector(alg, idx):
    v = np.zeros(alg.dim, dtype=complex)
    v[idx] = 1.0
    return v


def characters(alg):
    """characters[d, a] = beta(h_a) for the root beta of slot d, int64 (dim, l)."""
    return np.array(alg._characters, dtype=np.int64).reshape(alg.dim, alg.rank)


def killing(alg):
    """Killing form kappa(b_a, b_b) = tr(ad_a ad_b), exact int64 (dim, dim)."""
    K = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for a, row in alg._killing_rows().items():
        for b, v in row.items():
            K[a, b] = v
    return K


def ad(alg, X):
    """ad_X as a dense (dim, dim) matrix, ad(X) @ Y = [X, Y], of X's dtype
    (exact integers for an integer X)."""
    bk_i, bk_j, bk_k, bk_v = alg._table
    terms = np.flatnonzero(X[bk_i])
    out = np.zeros((alg.dim, alg.dim), dtype=np.result_type(X, bk_v))
    np.add.at(out, (bk_k[terms], bk_j[terms]), X[bk_i[terms]] * bk_v[terms])
    return out


def sl2_triple(sl2):
    """The principal sl2 triple (x, e, etilde) as dense complex vectors."""
    out = []
    for coeffs in sl2.triple_coefficients():
        v = np.zeros(sl2.alg.dim, dtype=complex)
        v[list(coeffs)] = list(coeffs.values())
        out.append(v)
    return tuple(out)


def sigma_matrix(sl2):
    """sigma as a dense float (dim, dim) matrix."""
    S = np.zeros((sl2.alg.dim, sl2.alg.dim))
    for a, (b, s) in enumerate(sl2.sigma):
        S[a, b] = s
    return S


def coxeter_apply(cox, X):
    """Ad of exp(2 pi i x / h): slot d scales by exp(2 pi i phase_d / h)."""
    return X * np.exp(2j * np.pi * np.array(cox.slot_phases) / cox.h)


def rho_hat(alg, X):
    """Compact anti-involution: h -> -h, e_beta -> -e_{-beta}, antilinear."""
    return -np.conj(np.asarray(X, dtype=complex)[..., list(alg.slot_negation)])


def lambda_hat(alg, sl2, X):
    """Split-form anti-involution sigma o rho_hat."""
    return sigma_matrix(sl2) @ rho_hat(alg, X)


def phase_one_slots(alg):
    """Basis slots of the phase-1 eigenspace: simple roots then lowest root."""
    rs = alg.rs
    slots = [alg.root_index(rs.simple_root(i)) for i in range(alg.rank)]
    return slots + [alg.root_index(tuple(-c for c in rs.highest_root))]


def is_cyclic_g1(alg, X):
    """Cyclic test on the phase-1 eigenspace: all l+1 coefficients nonzero."""
    slots = phase_one_slots(alg)
    mask = np.zeros(alg.dim, dtype=bool)
    mask[slots] = True
    if np.any(X[~mask] != 0):
        raise ValueError("element does not lie in the phase-1 eigenspace")
    return bool(np.all(X[slots] != 0))


def cyclic_reference(alg):
    """Reference cyclic element: sqrt(r_i) on the simple slots, 1 on -delta."""
    X = np.zeros(alg.dim, dtype=complex)
    slots = phase_one_slots(alg)
    X[slots[:-1]] = [float(r) ** 0.5 for r in alg.rs.x_coefficients]
    X[slots[-1]] = 1.0
    return X


def normalize_cyclic(alg, X):
    """Torus parameters (xi, lam) with Ad_{exp xi} X = lam * reference.

    The l+1 root characters on the phase-1 space satisfy one relation
    weighted by the marks, which fixes log(lam); the Cartan part then comes
    out of an l x l linear solve.
    """
    if not is_cyclic_g1(alg, X):
        raise ValueError("element is not cyclic")
    l, slots, ref = alg.rank, phase_one_slots(alg), cyclic_reference(alg)
    b = np.log(ref[slots] / X[slots])  # principal branch
    marks = affine_cartan(alg.rs).marks  # node 0 first
    weights = np.array(marks[1:] + marks[:1], dtype=float)
    log_lam = -complex(weights @ b) / weights.sum()
    # beta(xi) = b_beta + log lam on the simple slots; xi = sum_a xi_a h_a
    C = characters(alg)[slots]
    xi = np.linalg.solve(C[:l], b[:l] + log_lam)
    lam = np.exp(log_lam)
    # consistency on the lowest-root slot (up to the exp branch)
    if abs(np.exp(C[l] @ xi) * X[slots[-1]] - lam * ref[slots[-1]]) >= 1e-9 * max(1.0, abs(lam)):
        raise RuntimeError("torus normalization is inconsistent")
    return xi, complex(lam)


def interior_mask(grid):
    """True on every node of a torus and on the interior of a rectangle."""
    m = np.ones((grid.nx, grid.ny), dtype=bool)
    if not grid.periodic:
        m[0, :] = m[-1, :] = False
        m[:, 0] = m[:, -1] = False
    return m


def chart_transition(values, g, heights, form_degree=0):
    """Transport coefficients between charts, over slots whose roots have
    the given ``heights`` (0 on the Cartan).

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
    powers = np.asarray(heights) + form_degree
    return values * (garr[..., None] ** powers if garr.ndim else garr**powers)


def restricted_toda_residual(omega, q, rs, rest):
    """Residual of the folded equations for a symmetry-fixed field, with
    ``rest`` the folding of the root system ``rs``.

    Agrees with the unfolded residual to roundoff; the field must take
    values in the fixed subspace (``sigma_symmetry_defect`` above 1e-12 is
    an error).
    """
    if sigma_symmetry_defect(omega, diagram_automorphism(rs).perm) > 1e-12:
        raise ValueError("field is not fixed by the diagram symmetry")
    grid, vals = omega.grid, omega.values
    P = np.array(rs.simple_characters, dtype=float)

    def functional(vec):
        # beta(h_a) row vector; the projected coordinates are halves, exact in floats
        return np.array([float(c) for c in vec]) @ P

    R = -0.5 * grid.laplacian(vals)
    for beta, dual, weight in zip(rest.restricted_roots, rest.coroot_coords, rest.weights):
        bvals = vals @ functional(beta)
        R = R + float(weight) * np.exp(2 * bvals)[..., None] * np.array([float(c) for c in dual])
    dvals = vals @ functional(rs.highest_root)
    q2 = np.abs(q.sample(grid)) ** 2
    delta_co = np.array([float(c) for c in rs.coroot(rs.highest_root)])
    R = R - (q2 * np.exp(-2 * dvals))[..., None] * delta_co
    if not grid.periodic:
        R[~interior_mask(grid)] = 0.0
    return R


def constant_residual(data, om, q_sq):
    """Max pointwise residual of the constant field ``om`` at constant
    |q|^2 = ``q_sq``: the Toda term of the solver, at one point."""
    exps = data.exponentials(np.asarray(om)[None, None, :], np.array([[q_sq]]))
    return float(np.abs(data.pointwise_residual(exps)).max())


def uniqueness_probe(cfg, seeds, data):
    """Max pairwise distance between converged runs from perturbed starts.

    Non-converged runs are excluded; fewer than two converged runs raise
    RuntimeError, since there is then nothing to compare.
    """
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    sols = [
        solve(
            SolverConfig(cfg.grid, cfg.q, cfg.tol, cfg.max_iter, cfg.damping,
                         InitSpec("perturbed", seed=s, amplitude=cfg.init.amplitude)),
            data,
        )
        for s in seeds
    ]
    failed = [seed for seed, s in zip(seeds, sols) if not s.converged]
    fields = [s.omega.values for s in sols if s.converged]
    if len(fields) < 2:
        raise RuntimeError(
            f"only {len(fields)} of {len(seeds)} runs converged (not converged: seeds {failed})"
        )
    for seed in failed:
        warnings.warn(f"seed {seed} did not converge; excluded from the probe")
    worst = 0.0
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            worst = max(worst, float(np.abs(fields[i] - fields[j]).max()))
    return worst


class ConnectionData:
    """Grids of connection and field coefficients in a declared gauge: the
    Cartan-valued A_z, A_zbar over the l simple coroots, Phi over the l+1
    slots ``slots.lowered`` of E- and Psi over the l+1 slots
    ``slots.raised`` of E+, column d of each on slot ``lowered[d]``
    (``raised[d]``): the only slots where either is nonzero."""

    def __init__(self, gauge, grid, omega, slots, A_z, A_zbar, phi, psi):
        self.gauge = gauge  # "toda" | "higgs" | "custom"
        self.grid = grid
        self.omega = omega
        self.slots = slots
        self.A_z = A_z  # (nx, ny, l) complex
        self.A_zbar = A_zbar
        self.phi = phi  # (nx, ny, l+1) complex, on slots.lowered
        self.psi = psi  # (nx, ny, l+1) complex, on slots.raised


def build_toda_connection(omega, q, data, gauge="toda"):
    """Flat connection generated by a Cartan field and a top differential.

    Toda gauge:  A_z = -Omega_z, A_zbar = +Omega_zbar,
                 Phi = Ad_{exp(-Omega)} E-, Psi = Ad_{exp(+Omega)} E+,
    Higgs gauge: A_z = -2 Omega_z, A_zbar = 0,
                 Phi = E-, Psi = Ad_{exp(2 Omega)} E+,
    where E- carries sqrt(r_i) on the lowered simple slots and q on the
    raised highest-root slot, and E+ is its mirror with qbar.
    """
    if gauge not in ("toda", "higgs"):
        raise ValueError(f"unknown gauge {gauge!r}")
    grid, slots, vals = omega.grid, _checked_slots(omega, data), omega.values
    qv = q.sample(grid)
    A_z, A_zbar = grid.wirtinger(vals.astype(complex))  # Omega_z, Omega_zbar
    phi = _e_minus(data.r, qv)
    psi = phi.copy()  # E+ is E- on the negated slots, with qbar
    psi[..., -1] = np.conj(qv)
    if gauge == "toda":
        np.negative(A_z, out=A_z)
        phi = char_scale(phi, -vals, slots.characters[slots.lowered])
        psi = char_scale(psi, +vals, slots.characters[slots.raised])
    else:
        A_z *= -2
        A_zbar = np.zeros_like(A_z)
        psi = char_scale(psi, 2 * vals, slots.characters[slots.raised])
    return ConnectionData(gauge, grid, omega, slots, A_z, A_zbar, phi, psi)


def conjugate_star(conn):
    """Phi* = -rho(Phi) for the unitary structure of the declared gauge,
    with rho the compact anti-involution h -> -h, e_beta -> -e_{-beta}, on
    the slots ``slots.raised``: column d is the conjugate of Phi on
    ``lowered[d]``, the slot of minus its root.  In the Toda gauge the
    metric involution is the compact one; in the Higgs gauge it is dressed
    by Ad of exp(2 Omega)."""
    star = np.conj(conn.phi)
    if conn.gauge == "toda":
        return star
    if conn.gauge == "higgs":
        slots = conn.slots
        return char_scale(star, 2 * conn.omega.values, slots.characters[slots.raised])
    raise ValueError("star is defined only in the toda and higgs gauges")


def curvature(conn):
    """Discrete curvature over ``conn.slots``, coefficient of dz ^ dzbar:
    d_dz(A_zbar + Psi) - d_dzbar(A_z + Phi) plus their bracket, with the
    whole grid as one block."""
    slots = conn.slots
    az, azbar = _columns(slots, conn.A_z, conn.A_zbar, conn.phi, conn.psi)
    F = np.empty(conn.A_z.shape[:-1] + (slots.n,), dtype=complex)
    for s, e, group in _curvature(conn.grid, slots, az, azbar):
        F[..., s:e] = group
    return F


def gauge_transform(conn, H):
    """Gauge action of exp(H) for Cartan-valued H; it keeps the slots.
    Field parts conjugate by the character action; the Cartan connection
    parts shift by the discrete derivatives of H.  H equal to the
    generating field maps the Toda gauge to the Higgs gauge exactly."""
    grid, slots = conn.grid, conn.slots
    hv = H.values
    Hz, Hzbar = grid.wirtinger(hv.astype(complex))
    phi = char_scale(conn.phi, hv, slots.characters[slots.lowered])
    psi = char_scale(conn.psi, hv, slots.characters[slots.raised])
    if not np.any(hv):
        gauge = conn.gauge
    elif conn.gauge == "toda" and np.array_equal(hv, conn.omega.values):
        gauge = "higgs"
    else:
        gauge = "custom"
    return ConnectionData(gauge, grid, conn.omega, slots, conn.A_z - Hz, conn.A_zbar - Hzbar, phi, psi)


def gauge_covariance_defect(conn, F, H):
    """Norm over nodes of max over slots |F' - Ad_{exp(H)} F|, for F the
    curvature of conn and F' that of ``gauge_transform(conn, H)``, a group
    of slot columns at a time: zero up to rounding for constant H, O(dx^2)
    for varying H."""
    moved, slots = gauge_transform(conn, H), conn.slots
    az, azbar = _columns(slots, moved.A_z, moved.A_zbar, moved.phi, moved.psi)
    node = np.zeros(F.shape[:-1])
    for s, e, group in _curvature(conn.grid, slots, az, azbar):
        group -= char_scale(F[..., s:e], H.values, slots.characters[s:e])
        np.maximum(node, np.abs(group).max(axis=-1), out=node)
    return conn.grid.max_norm(node)


@functools.lru_cache(maxsize=None)
def _algebra(name):
    """The Chevalley algebra of the type ``name``, built once per type."""
    return build_chevalley(build_root_system(LieType.parse(name)))


def _toda_field_slots(alg, rs):
    """The Chevalley slots of E- (-alpha_i, then theta) and of E+ (their
    negatives), read from the root system."""
    down = [tuple(-c for c in rs.simple_root(i)) for i in range(rs.rank)] + [rs.highest_root]
    return ([alg.root_index(r) for r in down], [alg.root_index(tuple(-c for c in r)) for r in down])


def cartan_bracket(rs, phi, star):
    """[Phi, Phi*] on the l Cartan slots, for Phi given on the slots of E-
    (the -alpha_i, then theta) and its star on those of E+: both scattered
    over all of g and bracketed by the full Chevalley table
    (``ChevalleyAlgebra.bracket``), not by the connection's slot table.  A
    nonzero coefficient off the Cartan raises RuntimeError."""
    alg = _algebra(str(rs.type))
    lowered, raised = _toda_field_slots(alg, rs)
    X = np.zeros(phi.shape[:-1] + (alg.dim,), dtype=complex)
    Y = np.zeros_like(X)
    X[..., lowered], Y[..., raised] = phi, star
    Z = alg.bracket(X, Y)
    if np.any(Z[..., rs.rank :]):
        raise RuntimeError("[Phi, Phi*] leaves the Cartan")
    return Z[..., : rs.rank]


def commutator_defect(omega, q, data):
    """Norm of the deviation between the explicit bracket [Phi, Phi*] and
    its closed form, minus the pointwise term of the Toda residual, in the
    Higgs gauge: Phi = E- and Phi* = Ad_{exp(2 Omega)} E+, the
    ``conjugate_star`` of the Higgs-gauge connection, formed without the
    rest of that connection, from the Chevalley algebra alone
    (``cartan_bracket``)."""
    rs, qv = data.rs, q.sample(omega.grid)
    alg = _algebra(str(rs.type))
    phi = _e_minus(data.r, qv)
    star = char_scale(np.conj(phi), 2 * omega.values, characters(alg)[_toda_field_slots(alg, rs)[1]])
    comm = cartan_bracket(rs, phi, star)
    closed = -data.pointwise_residual(data.exponentials(omega.values, np.abs(qv) ** 2))
    return omega.grid.max_norm(np.abs(comm - closed).max(axis=-1))


def _abs_max(columns):
    """Max of |c| over the arrays ``columns`` (at least one), node by node."""
    columns = iter(columns)
    node = np.abs(next(columns))
    for c in columns:
        np.maximum(node, np.abs(c), out=node)
    return node


def equivalence_defect(omega, q, data, F):
    """(curvature norm, residual norm, mismatch norm) for the curvature F of
    the Toda-gauge connection of omega, over its slots (Cartan slots
    first).  R lives on the l Cartan slots, so the mismatch is |F + R|
    there and |F| on the root slots."""
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
            entries.append((f"{name}(1)", affine_cartan(build_root_system(LieType.parse(name))).gcm))
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


def brute_force_order2_symmetries(cartan):
    """All order-<=2 Cartan-preserving permutations (oracle, small ranks)."""
    l = len(cartan)
    out = []
    for perm in itertools.permutations(range(l)):
        if any(perm[perm[i]] != i for i in range(l)):
            continue
        if all(
            cartan[perm[i]][perm[j]] == cartan[i][j]
            for i in range(l)
            for j in range(l)
        ):
            out.append(perm)
    return out
