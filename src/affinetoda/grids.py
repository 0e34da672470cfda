"""Discrete 2-D domains, Cartan-valued grid fields and grid I/O.

Arrays are indexed [ix, iy, component] with x along axis 0; complex
coordinates follow z = x + i y.  Torus grids wrap periodically; rectangle
grids hold their boundary values fixed and all norms exclude the boundary
ring there.
"""
from __future__ import annotations

import math
import os
import random
import stat
import struct
from typing import Sequence, Tuple

import numpy as np

_MAGIC = b"TODA"


class DomainGrid:
    def __init__(self, topology: str, nx: int, ny: int, extent: Tuple[float, float] = (1.0, 1.0)):
        if topology not in ("torus", "rectangle"):
            raise ValueError(f"unknown topology {topology!r}")
        if nx < 8 or ny < 8:  # before the spacings divide by the size
            raise ValueError("grid must be at least 8x8")
        Lx, Ly = extent
        cells = (nx, ny) if topology == "torus" else (nx - 1, ny - 1)  # a rectangle's nodes span it
        self.dx, self.dy = Lx / cells[0], Ly / cells[1]
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):  # NaN fails too
            raise ValueError("grid spacings must be positive and finite")
        self.topology = topology  # "torus" | "rectangle"
        self.nx = nx
        self.ny = ny
        # the side lengths as given, a torus's periods: nx * dx need not be
        # bit-equal to them (49 * (1 / 49) != 1)
        self.extent = (Lx, Ly)

    @property
    def periodic(self) -> bool:
        return self.topology == "torus"

    def xy(self) -> Tuple[np.ndarray, np.ndarray]:
        x = np.arange(self.nx) * self.dx
        y = np.arange(self.ny) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    # -- derivatives -----------------------------------------------------
    def d_dx(self, F: np.ndarray) -> np.ndarray:
        if self.periodic:
            out = _neighbours(F, 0, np.subtract)
            out /= 2 * self.dx
            return out
        return np.gradient(F, self.dx, axis=0, edge_order=2)

    def d_dy(self, F: np.ndarray) -> np.ndarray:
        if self.periodic:
            out = _neighbours(F, 1, np.subtract)
            out /= 2 * self.dy
            return out
        return np.gradient(F, self.dy, axis=1, edge_order=2)

    def d_dz(self, F: np.ndarray) -> np.ndarray:
        return self._wirtinger_part(F, np.subtract)

    def d_dzbar(self, F: np.ndarray) -> np.ndarray:
        return self._wirtinger_part(F, np.add)

    def _wirtinger_part(self, F: np.ndarray, op) -> np.ndarray:
        """0.5 * op(d_dx F, 1j * d_dy F), formed in place in d_dy F."""
        out = _times_i(self.d_dy(F))
        op(self.d_dx(F), out, out=out)
        return np.multiply(0.5, out, out=out)

    def wirtinger(self, F: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d_dz F, d_dzbar F) from one d_dx and one d_dy of F, with the
        values of ``d_dz`` and ``d_dzbar``."""
        fx, ify = self.d_dx(F), _times_i(self.d_dy(F))
        dz = np.subtract(fx, ify)
        dzbar = np.add(fx, ify, out=ify)
        return np.multiply(0.5, dz, out=dz), np.multiply(0.5, dzbar, out=dzbar)

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """Five-point Laplacian, formed in place in its output with two
        F-sized temporaries; on a rectangle the boundary ring is zero, not
        the Laplacian there, and the caller masks it.  Integer input gives
        a float Laplacian on both topologies (scipy's ``LinearOperator``
        probes a matvec with an int8 vector)."""
        F = np.asarray(F, dtype=np.result_type(F, 1.0))
        if self.periodic:
            twice = 2 * F
            fxx = _neighbours(F, 0, np.add)
            fxx -= twice
            fxx /= self.dx**2
            fyy = _neighbours(F, 1, np.add)
            fyy -= twice
            fyy /= self.dy**2
            fxx += fyy
            return fxx
        out = np.zeros_like(F)
        fxx = np.add(F[2:, 1:-1], F[:-2, 1:-1], out=out[1:-1, 1:-1])
        twice = 2 * F[1:-1, 1:-1]
        fxx -= twice
        fxx /= self.dx**2
        fyy = F[1:-1, 2:] + F[1:-1, :-2]
        fyy -= twice
        fyy /= self.dy**2
        fxx += fyy
        return out

    def max_norm(self, F: np.ndarray) -> float:
        """Infinity norm over nodes, boundary ring excluded on rectangles."""
        vals = np.abs(F if self.periodic else F[1:-1, 1:-1])
        return float(vals.max()) if vals.size else 0.0


def _times_i(F: np.ndarray) -> np.ndarray:
    """1j * F, in place when F is complex."""
    return np.multiply(1j, F, out=F if F.dtype.kind == "c" else None)


def _neighbours(F: np.ndarray, axis: int, op) -> np.ndarray:
    """op(F[i + 1], F[i - 1]) at every i along ``axis``, wrapped at both
    ends, written into one new array: the periodic stencils' two neighbours
    without the two shifted copies of F that ``np.roll`` makes.  The
    neighbours of a node along ``axis`` sit ``step`` elements either side
    of it in the flat array, so one contiguous pass over it covers the
    interior (a strided pass would allocate ufunc buffers); the two end
    slabs, which that pass gets wrong, are then rewritten."""
    F = np.ascontiguousarray(F)
    out = np.empty(F.shape, dtype=np.result_type(F, 1.0))
    step = math.prod(F.shape[axis + 1:])
    f, o = F.reshape(-1), out.reshape(-1)
    op(f[2 * step:], f[: -2 * step], out=o[step:-step])
    f, o = np.moveaxis(F, axis, 0), np.moveaxis(out, axis, 0)
    op(f[1], f[-1], out=o[0])
    op(f[0], f[-2], out=o[-1])
    return out


class HFieldGrid:
    """Real Cartan-valued field: coefficients over the simple coroots."""

    def __init__(self, grid: DomainGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)  # (nx, ny, l)
        if values.shape[:2] != (grid.nx, grid.ny):
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = values

    @property
    def l(self) -> int:
        return self.values.shape[2]


def constant_field(grid: DomainGrid, vec: Sequence[float]) -> HFieldGrid:
    vals = np.broadcast_to(np.asarray(vec, dtype=float), (grid.nx, grid.ny, len(vec))).copy()
    return HFieldGrid(grid, vals)


class QDifferential:
    """Holomorphic coefficient of q, the section of K^h (h the Coxeter
    number): the polynomial in z with coefficients ``coeffs``, lowest
    degree first.  One coefficient is a constant; there is at least one,
    and every one is finite (ValueError otherwise)."""

    def __init__(self, coeffs: Tuple[complex, ...]):
        if not coeffs:
            raise ValueError("q needs at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("q has a non-finite coefficient")
        self.coeffs = coeffs

    def sample(self, grid: DomainGrid) -> np.ndarray:
        if len(self.coeffs) == 1:
            return np.full((grid.nx, grid.ny), self.coeffs[0], dtype=complex)
        # z from the 1-D coordinates by broadcasting, and Horner in place:
        # the sample holds z and its output, no meshes and no step temporaries
        z = (np.arange(grid.nx) * grid.dx)[:, None] + 1j * (np.arange(grid.ny) * grid.dy)
        out = np.zeros_like(z)
        for c in reversed(self.coeffs):
            out *= z
            out += c
        return out

    @staticmethod
    def parse(text: str) -> "QDifferential":
        """CLI syntax: const:VALUE or poly:c0,c1,... with finite coefficients."""
        kind, _, rest = text.partition(":")
        try:
            coeffs = tuple(complex(c) for c in (rest.split(",") if kind == "poly" else [rest]))
        except ValueError:  # an empty or malformed coefficient
            coeffs = ()
        if kind not in ("const", "poly") or not coeffs:
            raise ValueError(f"cannot parse q specification {text!r}")
        try:
            return QDifferential(coeffs)
        except ValueError:  # the only one left: a non-finite coefficient
            raise ValueError(f"q specification {text!r} has a non-finite coefficient") from None


# ---------------------------------------------------------------------------
# smooth random fields (closed form, resolution independent)
# ---------------------------------------------------------------------------


class TrigField:
    """Real trigonometric polynomial, periodic with periods (Lx, Ly).

    Being closed-form it can be sampled consistently on grids of any
    resolution, which the discretization-order tests rely on.
    """

    def __init__(self, coeffs: np.ndarray, Lx: float, Ly: float):
        self.coeffs = coeffs  # (l, 2K+1, 2K+1) complex, mode amplitudes
        self.Lx = Lx
        self.Ly = Ly

    def sample(self, grid: DomainGrid) -> HFieldGrid:
        """Re(e_x C_a e_y^T) per component a, with the 1-D mode tables
        e_x[ix, kx] = exp(2 pi i kx x / Lx) and e_y likewise."""
        K = (self.coeffs.shape[1] - 1) // 2
        k = np.arange(-K, K + 1)
        ex = np.exp(2j * np.pi * np.outer(np.arange(grid.nx) * grid.dx / self.Lx, k))
        ey = np.exp(2j * np.pi * np.outer(np.arange(grid.ny) * grid.dy / self.Ly, k))
        vals = (ex @ self.coeffs @ ey.T).real  # (l, nx, ny)
        return HFieldGrid(grid, np.ascontiguousarray(vals.transpose(1, 2, 0)))

    def symmetrized(self, perm: Sequence[int]) -> "TrigField":
        """Average with the component permutation (for diagram symmetry)."""
        permuted = self.coeffs[list(perm)]
        return TrigField(0.5 * (self.coeffs + permuted), self.Lx, self.Ly)


def random_trig_field(
    l: int, seed: int, amplitude: float = 1.0, extent: Tuple[float, float] = (1.0, 1.0)
) -> TrigField:
    """Mode amplitudes amplitude * (g_re + 1j g_im) / (2n) of the n = 5
    modes |k| <= 2 along each axis, from unit normals of
    ``random.Random(seed).gauss``: first the l n^2 real parts, then the
    imaginary parts, each in C order over (a, kx, ky)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    n = 5
    g = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * l * n * n)]).reshape(2, l, n, n)
    coeffs = amplitude * (g[0] + 1j * g[1]) / (2 * n)
    return TrigField(coeffs, extent[0], extent[1])


# ---------------------------------------------------------------------------
# I/O: raw binary
# ---------------------------------------------------------------------------


def write_field_binary(path: str, hfield: HFieldGrid) -> None:
    """Raw format: magic 'TODA', u32 nx, u32 ny, u32 l, little-endian f64
    values in row-major (ix, iy, component) order, written from the
    array's own buffer when it is already laid out so."""
    v = hfield.values
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", v.shape[0], v.shape[1], v.shape[2]))
        fh.write(np.ascontiguousarray(v, dtype="<f8"))


def read_field_binary(path: str, grid: DomainGrid) -> HFieldGrid:
    """The field on ``grid`` of a raw file (``write_field_binary``), read
    straight into one (nx, ny, l) array; a regular file's size is checked
    against its header first, a pipe's payload as it is read."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated header")
        nx, ny, l = struct.unpack("<III", header)
        size, st = 8 * nx * ny * l, os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - fh.tell() < size:
            raise ValueError(f"{path}: truncated payload")
        data = np.empty((nx, ny, l), dtype="<f8")
        if fh.readinto(data) != size:
            raise ValueError(f"{path}: truncated payload")
        extra = len(fh.read())
        if extra:
            raise ValueError(f"{path}: {extra} bytes past the end of the payload")
    values = data.astype(float, copy=False)  # a copy only on a big-endian host
    if (grid.nx, grid.ny) != (nx, ny):
        raise ValueError("grid does not match stored field")
    return HFieldGrid(grid, values)
