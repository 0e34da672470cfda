"""Dense float references and paper identities the tests check against.

Plain functions over the package's objects: the Chevalley algebra
as dense vectors and matrices (basis vectors, root characters, ad, the
Killing form, the principal sl2 triple, sigma, the Coxeter phase map and
the anti-involutions rho_hat and lambda_hat), cyclic elements of the
phase-1 eigenspace and their torus normalisation, the chart transition of
the Higgs field, the folded Toda residual and the uniqueness probe.  The
package itself needs none of them.  The dense algebra views read the
table through ``ChevalleyAlgebra._table``, ``_killing_rows`` and
``_characters``, never its raw columns.
"""
import warnings

import numpy as np

from affinetoda.rootdata import affine_cartan
from affinetoda.todasolver import InitSpec, SolverConfig, sigma_symmetry_defect, solve


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


def restricted_toda_residual(omega, q, rest):
    """Residual of the folded equations for a symmetry-fixed field.

    Agrees with the unfolded residual to roundoff; the field must take
    values in the fixed subspace (``sigma_symmetry_defect`` above 1e-12 is
    an error).
    """
    if sigma_symmetry_defect(omega, rest.nu.perm) > 1e-12:
        raise ValueError("field is not fixed by the diagram symmetry")
    rs, grid, vals = rest.base, omega.grid, omega.values
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
        R[~grid.interior_mask()] = 0.0
    return R


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
