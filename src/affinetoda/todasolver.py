"""Damped Newton solver for the real-form affine Toda equations.

The unknown is a real Cartan-valued grid field Omega (coroot coordinates).
The discrete residual is

    R(Omega) = -(1/2) Lap Omega + sum_i r_i e^{2 alpha_i(Omega)} h_i
               + |q|^2 e^{-2 delta(Omega)} h_{-delta}

with the five-point Laplacian (Omega_{z zbar} = Lap/4).  ``residual`` and
``_TodaData.pointwise_residual`` implement it: the solve and
``export-plot`` call ``residual``, and the connection layer's row-block
pass, which gives the residual of the solve/verify summary and of ``conn
check``, forms the same sum from ``pointwise_residual`` block by block,
equal bit for bit.  Every entry point takes the one per-type
``_TodaData`` its caller built.  The residual and its Jacobian read the
exponentials of their point, formed once by the caller, and a solve
evaluates each iterate once.

Multiplying the coordinate Jacobian by the Gram matrix of the coroots
under the invariant-form pairing makes the Newton system symmetric
positive definite (the equations are the gradient of a convex energy), so
each step is solved with preconditioned conjugate gradients.

The preconditioner freezes the pointwise block at its spatial mean B, so
that it is the constant-coefficient operator -(1/2) Lap (x) G + I (x) B.
The five-point Laplacian is diagonal in the discrete Fourier basis (rfft2
on tori, DST-I on the interior of rectangles), and a generalized
eigenbasis of the pair (B, G) diagonalizes the l x l block of every mode
at once, so one application costs two transforms and a division.  The
CG iteration count per Newton step then no longer grows with the grid.
CG's inner products are numpy sums rather than BLAS dots, which may split
a long vector across threads: a solve's bits do not depend on the BLAS
thread count.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

# the package before numpy, against PEP 8: without bytecode, compiling after numpy lifts peak RSS
from .grids import (
    DomainGrid,
    HFieldGrid,
    QDifferential,
    constant_field,
    random_trig_field,
    read_field_binary,
)
from .rootdata import RootSystem

import numpy as np


class InitSpec:
    """How a solve starts.  An unknown kind, a ``file`` kind with no path or
    an empty one, a negative seed or a non-finite amplitude is a ValueError."""

    def __init__(
        self, kind: str = "oracle", seed: int = 0, amplitude: float = 0.1, path: Optional[str] = None
    ):
        if kind not in ("zero", "oracle", "perturbed", "file"):
            raise ValueError(f"init has an unknown kind {kind!r}")
        if kind == "file" and not path:
            raise ValueError("init has kind 'file' but no path")
        if seed < 0:
            raise ValueError("init has a negative seed")
        if not np.isfinite(amplitude):
            raise ValueError("init has a non-finite amplitude")
        self.kind = kind
        self.seed = seed
        self.amplitude = amplitude
        self.path = path

    @staticmethod
    def parse(text: str) -> "InitSpec":
        """CLI syntax: zero | oracle | perturbed:SEED:AMP | file:PATH."""
        parts = text.split(":")
        if parts[0] in ("zero", "oracle") and len(parts) == 1:
            return InitSpec(parts[0])
        if parts[0] == "perturbed" and len(parts) == 3:
            try:
                kwargs = {"seed": int(parts[1]), "amplitude": float(parts[2])}
            except ValueError:
                raise ValueError(f"cannot parse init specification {text!r}") from None
        elif parts[0] == "file" and len(parts) >= 2:
            kwargs = {"path": ":".join(parts[1:])}
        else:
            raise ValueError(f"cannot parse init specification {text!r}")
        try:
            return InitSpec(parts[0], **kwargs)
        except ValueError as exc:  # the constructor's reason, said of the specification
            raise ValueError(str(exc).replace("init", f"init specification {text!r}", 1)) from None


class SolverConfig:
    def __init__(
        self,
        grid: DomainGrid,
        q: QDifferential,
        tol: float = 1e-10,
        max_iter: int = 60,
        damping: float = 1.0,
        init: Optional[InitSpec] = None,
    ):
        if not 0 < tol < float("inf"):  # a NaN or infinite tol would pass any residual
            raise ValueError(f"tol must be positive and finite, not {tol}")
        if max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, not {max_iter}")
        if not (0 < damping <= 1):
            raise ValueError("damping must lie in (0, 1]")
        self.grid = grid
        self.q = q
        self.tol = tol
        self.max_iter = max_iter
        self.damping = damping
        self.init = InitSpec() if init is None else init


class Solution:
    def __init__(
        self,
        omega: HFieldGrid,
        residual_history: List[float],
        converged: bool,
        cg_iterations: Optional[List[int]] = None,
    ):
        self.omega = omega
        self.residual_history = residual_history  # one per iterate, the initial field's first
        self.converged = converged
        self.cg_iterations = [] if cg_iterations is None else cg_iterations  # one per Newton step

    @property
    def iterations(self) -> int:
        """The Newton steps taken."""
        return len(self.residual_history) - 1


# ---------------------------------------------------------------------------
# pointwise data shared by residual / Jacobian / oracle
# ---------------------------------------------------------------------------


class _TodaData:
    """Per-type float data for the residual and its Jacobian."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.P = np.array(rs.simple_characters, dtype=float)  # P[i, a] = alpha_i(h_a)
        self.r = np.array([float(c) for c in rs.x_coefficients])
        self.delta_marks = np.array(rs.highest_root, dtype=float)
        self.delta_co = np.array(rs.coroot(rs.highest_root), dtype=float)
        # invariant-form Gram matrix of the coroots: 4 (a_i, a_j) / (|a_i|^2 |a_j|^2),
        # which is A[i][j] / d_j since (a_i, a_j) = d_i A[i][j]
        self.G = np.array(
            [[float(a / d) for a, d in zip(row, rs.norms)] for row in rs.cartan_matrix]
        )
        # the connection's ``TodaSlots`` of rs, built there on first use and
        # kept here, so that every connection of this type shares them
        self.slots = None

    def exponentials(self, vals: np.ndarray, q2: np.ndarray):
        """(r_i e^{2 alpha_i(vals)}, q2 e^{-2 delta(vals)}), each formed in
        place in its own output."""
        av = vals @ self.P.T
        dv = av @ self.delta_marks
        av *= 2
        np.exp(av, out=av)
        av *= self.r
        dv *= -2
        np.exp(dv, out=dv)
        dv *= q2
        return av, dv

    def pointwise_residual(self, exps: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The pointwise term at the point whose exponentials are ``exps``,
        formed in place in its output."""
        expo, exp0 = exps
        out = exp0[..., None] * self.delta_co
        return np.subtract(expo, out, out=out)


def _zero_ring(F: np.ndarray) -> None:
    """Zero the boundary ring of a rectangle's grid array, in place."""
    F[0] = F[-1] = 0.0
    F[:, 0] = F[:, -1] = 0.0


def residual(
    data: _TodaData, grid: DomainGrid, vals: np.ndarray, exps: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """R(Omega) on the grid, zero on the boundary ring of a rectangle, with
    ``exps = data.exponentials(vals, q2)``.  The Laplacian's output becomes
    R in place: working memory is R, the Laplacian's two temporaries and
    then the pointwise term."""
    R = grid.laplacian(vals)
    R *= -0.5
    R += data.pointwise_residual(exps)
    if not grid.periodic:
        _zero_ring(R)
    return R


def jacobian_apply(
    data: _TodaData, grid: DomainGrid, exps: Tuple[np.ndarray, np.ndarray], s: np.ndarray
) -> np.ndarray:
    """Directional derivative of the residual along s, at the point whose
    pointwise exponentials are ``exps = data.exponentials(vals, q2)``:
    -(1/2) Lap s + 2 expo alpha(s) + 2 exp0 delta(s) delta_co, its terms
    added in that order into the Laplacian's output.  Doubling is exact,
    so (2 alpha(s)) expo is (2 expo) alpha(s) bit for bit."""
    expo, exp0 = exps
    out = grid.laplacian(s)
    out *= -0.5
    a_s = s @ data.P.T
    d_s = a_s @ data.delta_marks
    a_s *= 2
    a_s *= expo
    out += a_s
    d_s *= exp0
    d_s *= 2
    out += np.multiply(d_s[..., None], data.delta_co, out=a_s)
    if not grid.periodic:
        _zero_ring(out)
    return out


# ---------------------------------------------------------------------------
# constant solution oracle
# ---------------------------------------------------------------------------


def constant_solution(data: _TodaData, q_sq: float) -> np.ndarray:
    """The spatially constant solution for constant |q|^2 > 0, as its
    coroot coordinates.

    Writing s = |q|^2 exp(-2 delta(Omega)), the h_i components decouple to
    r_i exp(2 alpha_i(Omega)) = c_i s with c_i the coefficients of the
    highest coroot (the comarks of nodes 1..l), and the scalar s solves a
    monotone equation in log s whose closed form is evaluated directly; its
    exponent h = 1 + sum of the highest root's coefficients is the Coxeter
    number.
    """
    if q_sq <= 0:
        raise ValueError("constant solution needs |q|^2 > 0")
    marks, comarks = data.delta_marks, data.delta_co
    h = 1 + float(marks.sum())
    log_s = (np.log(q_sq) - float(marks @ np.log(comarks / data.r))) / h
    targets = 0.5 * np.log(comarks * np.exp(log_s) / data.r)  # alpha_i(Omega)
    return np.linalg.solve(data.P, targets)


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


def _initial_field(cfg: SolverConfig, data: _TodaData, q2: np.ndarray) -> np.ndarray:
    """The values the solve starts from, in a new array."""
    l = data.rs.rank
    grid = cfg.grid
    kind = cfg.init.kind
    if kind == "zero":
        return constant_field(grid, [0.0] * l).values
    if kind == "file":
        field0 = read_field_binary(cfg.init.path, grid)
        if field0.l != l:
            raise ValueError(
                f"{cfg.init.path}: init field has {field0.l} components, but the rank is {l}"
            )
        return field0.values
    om0 = constant_solution(data, float(np.mean(q2)))
    if kind == "oracle":
        return constant_field(grid, om0).values
    # "perturbed": the bump's periods are the domain's, so it is smooth across a torus's seam
    bump = random_trig_field(l, cfg.init.seed, cfg.init.amplitude, extent=grid.extent)
    return HFieldGrid(grid, om0 + bump.sample(grid).values).values


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along ``axis``: minus the imaginary part of the
    FFT of the odd extension [0, a, 0, -a reversed], sliced into one array.
    It is its own inverse up to the factor 2 (n + 1)."""
    n = a.shape[axis]

    def along(part: slice) -> tuple:
        return (slice(None),) * axis + (part,)

    shape = list(a.shape)
    shape[axis] = 2 * n + 2
    ext = np.zeros(shape, dtype=a.dtype)
    ext[along(slice(1, n + 1))] = a
    np.negative(np.flip(a, axis=axis), out=ext[along(slice(n + 2, None))])
    spec = np.fft.rfft(ext, axis=axis)
    del ext
    return -spec.imag[along(slice(1, n + 1))]


def _generalized_eigh(B: np.ndarray, G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """mu, V with B V = G V diag(mu) and V^T G V = I, for symmetric B and
    positive definite G: G = L L^T reduces the pair to L^-1 B L^-T."""
    Linv = np.linalg.inv(np.linalg.cholesky(G))
    C = Linv @ B @ Linv.T
    mu, W = np.linalg.eigh(0.5 * (C + C.T))
    return mu, Linv.T @ W


def _mean_field_preconditioner(
    data: _TodaData, grid: DomainGrid, exps: Tuple[np.ndarray, np.ndarray]
):
    """Inverse of -(1/2) Lap (x) G + I (x) B as a function on grid fields.

    B is the symmetrized spatial mean over the interior of the pointwise
    block of G J, at the point whose exponentials are ``exps``.  With
    V from the generalized eigenproblem B V = G V diag(mu), V^T G V = I,
    the block of Fourier mode k inverts as V diag(1 / (lam_k / 2 + mu)) V^T,
    where lam_k is the mode's eigenvalue of the five-point -Lap.  Boundary
    slots of a rectangle pass through unchanged.
    """
    # the means run over every node of a torus, the interior of a rectangle
    inner = exps if grid.periodic else (exps[0][1:-1, 1:-1], exps[1][1:-1, 1:-1])
    expo, exp0 = inner[0].reshape(-1, data.rs.rank), inner[1].reshape(-1)
    dP = data.delta_marks @ data.P  # delta(h_a)
    B = data.G @ (
        2 * expo.mean(axis=0)[:, None] * data.P
        + 2 * exp0.mean() * np.outer(data.delta_co, dP)
    )
    mu, V = _generalized_eigh(0.5 * (B + B.T), data.G)

    if grid.periodic:
        tx = np.pi * np.arange(grid.nx) / grid.nx
        ty = np.pi * np.arange(grid.ny // 2 + 1) / grid.ny
    else:  # DST-I modes j = 1..n-2 of the interior, zero on the ring
        tx = np.pi * np.arange(1, grid.nx - 1) / (2 * (grid.nx - 1))
        ty = np.pi * np.arange(1, grid.ny - 1) / (2 * (grid.ny - 1))
    lam = (4 / grid.dx**2) * np.sin(tx)[:, None] ** 2 + (4 / grid.dy**2) * np.sin(ty)[None, :] ** 2
    inv_symbol = 1.0 / (0.5 * lam[..., None] + mu)

    def apply(r: np.ndarray) -> np.ndarray:
        # each transform is taken one axis at a time, as rfft2 and irfft2
        # take it, so that the input of each is freed once it is done
        if grid.periodic:
            spec = np.fft.rfft(r @ V, axis=1)
            spec = np.fft.fft(spec, axis=0)
            spec *= inv_symbol
            spec = np.fft.ifft(spec, axis=0)
            spec = np.fft.irfft(spec, n=grid.ny, axis=1)
            return spec @ V.T
        spec = _dst1(r[1:-1, 1:-1] @ V, 0)
        spec = _dst1(spec, 1)
        spec *= inv_symbol
        spec = _dst1(spec, 0)
        spec = _dst1(spec, 1)
        spec /= 4 * (grid.nx - 1) * (grid.ny - 1)
        z = r.copy()
        z[1:-1, 1:-1] = spec @ V.T
        return z

    return apply


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over every entry, by numpy's own summation and not by a
    BLAS dot, whose bits depend on the thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _newton_step(
    data: _TodaData, grid: DomainGrid, exps: Tuple[np.ndarray, np.ndarray], r: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Solve the symmetrized Newton system G J s = -G R by preconditioned
    CG from s = 0, stopping when |r| < 1e-12 |G R|, with the spectral
    mean-field preconditioner, at the iterate whose exponentials are
    ``exps``; ``r = -(R @ G)`` for its residual R, and CG overwrites it.
    R and every matvec vanish on the boundary ring of a rectangle, and the
    preconditioner passes the ring through, so the step is zero there.
    Every update is formed in place: CG holds s, r and p, and z and G J p
    only while it needs them.  Returns the step and the number of CG
    iterations."""
    G = data.G
    precond = _mean_field_preconditioner(data, grid, exps)
    x = np.zeros_like(r)
    atol = 1e-12 * np.sqrt(_dot(r, r))
    maxiter = 40 * max(grid.nx, grid.ny)
    for it in range(maxiter):
        if np.sqrt(_dot(r, r)) <= atol:
            return x, it
        z = precond(r)
        rho = _dot(r, z)
        if it == 0:
            p = z
        else:  # p = z + (rho / rho_prev) p
            p *= rho / rho_prev
            p += z
        del z
        Hp = jacobian_apply(data, grid, exps, p) @ G  # G is symmetric
        alpha = rho / _dot(p, Hp)
        Hp *= alpha
        r -= Hp
        x += np.multiply(p, alpha, out=Hp)
        del Hp
        rho_prev = rho
    raise RuntimeError(f"inner CG did not converge (info={maxiter})")


def solve(cfg: SolverConfig, data: _TodaData) -> Solution:
    """Damped Newton iteration with Armijo backtracking on |R|^2.

    Deterministic for a fixed config (seeded perturbations, fixed-order
    reductions), whatever the BLAS thread count.  A solve that reaches
    ``max_iter`` steps, or whose line search finds no step that lowers
    |R|^2, yields a non-converged Solution.  The accepted line-search trial
    is the next iterate, with its exponentials, residual and |R|^2; as
    |R|^2 falls at each step, only the initial field's non-finite residual
    can raise.
    """
    grid = cfg.grid
    q2 = np.abs(cfg.q.sample(grid)) ** 2
    vals = _initial_field(cfg, data, q2)
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        exps = data.exponentials(vals, q2)
        R = residual(data, grid, vals, exps)
        norm2 = float((R * R).sum())
    if not np.isfinite(norm2):
        raise FloatingPointError("residual became non-finite")

    history: List[float] = []
    cg_iterations: List[int] = []
    for it in range(cfg.max_iter + 1):
        res_inf = grid.max_norm(np.abs(R).max(axis=-1))
        history.append(res_inf)
        converged = res_inf <= cfg.tol
        if converged or it == cfg.max_iter:
            break
        r = R @ data.G
        del R  # the step reads -(R @ G) alone
        s, cg_its = _newton_step(data, grid, exps, np.negative(r, out=r))
        del r, exps  # a trial forms its own
        cg_iterations.append(cg_its)
        t = cfg.damping
        while t > 1e-12:
            trial = s * t  # vals + t s
            trial += vals
            trial_exps = data.exponentials(trial, q2)
            Rt = residual(data, grid, trial, trial_exps)
            trial_norm2 = float((Rt * Rt).sum())
            if trial_norm2 <= (1 - 1e-4 * t) * norm2:
                break
            del trial, trial_exps, Rt  # before the next trial is formed
            t *= 0.5
        else:
            break  # no acceptable step: give up, report non-converged
        vals, exps, R, norm2 = trial, trial_exps, Rt, trial_norm2
        del s, trial, trial_exps, Rt  # the next step frees R and exps as it goes

    return Solution(
        omega=HFieldGrid(grid, vals),
        residual_history=history,
        converged=converged,
        cg_iterations=cg_iterations,
    )


def sigma_symmetry_defect(omega: HFieldGrid, perm: Sequence[int]) -> float:
    """Max-node norm of sigma(Omega) - Omega for a Cartan-valued field.

    On the Cartan, sigma permutes the simple coroots by the diagram
    automorphism, an involution; ``perm`` is its ``DiagramAutomorphism.perm``.
    """
    vals = omega.values
    defect = vals[..., list(perm)] - vals
    return omega.grid.max_norm(np.abs(defect).max(axis=-1))

