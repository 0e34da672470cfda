"""Discrete 2-D domains, Cartan-valued grid fields and grid I/O.

Arrays are indexed [ix, iy, component] with x along axis 0; complex
coordinates follow z = x + i y.  Torus grids wrap periodically; rectangle
grids hold their boundary values fixed and all norms exclude the boundary
ring there.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

_MAGIC = b"TODA"


@dataclass(frozen=True)
class DomainGrid:
    topology: str  # "torus" | "rectangle"
    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.topology not in ("torus", "rectangle"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid must be at least 8x8")
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):  # NaN fails too
            raise ValueError("grid spacings must be positive and finite")

    @staticmethod
    def make(topology: str, nx: int, ny: int, extent: Tuple[float, float] = (1.0, 1.0)) -> "DomainGrid":
        Lx, Ly = extent
        if topology == "torus":
            return DomainGrid(topology, nx, ny, Lx / nx, Ly / ny)
        return DomainGrid(topology, nx, ny, Lx / (nx - 1), Ly / (ny - 1))

    @property
    def periodic(self) -> bool:
        return self.topology == "torus"

    def xy(self) -> Tuple[np.ndarray, np.ndarray]:
        x = np.arange(self.nx) * self.dx
        y = np.arange(self.ny) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def z(self) -> np.ndarray:
        X, Y = self.xy()
        return X + 1j * Y

    def interior_mask(self) -> np.ndarray:
        m = np.ones((self.nx, self.ny), dtype=bool)
        if not self.periodic:
            m[0, :] = m[-1, :] = False
            m[:, 0] = m[:, -1] = False
        return m

    # -- derivatives -----------------------------------------------------
    def d_dx(self, F: np.ndarray) -> np.ndarray:
        if self.periodic:
            return (np.roll(F, -1, axis=0) - np.roll(F, 1, axis=0)) / (2 * self.dx)
        return np.gradient(F, self.dx, axis=0, edge_order=2)

    def d_dy(self, F: np.ndarray) -> np.ndarray:
        if self.periodic:
            return (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1)) / (2 * self.dy)
        return np.gradient(F, self.dy, axis=1, edge_order=2)

    def d_dz(self, F: np.ndarray) -> np.ndarray:
        return 0.5 * (self.d_dx(F) - 1j * self.d_dy(F))

    def d_dzbar(self, F: np.ndarray) -> np.ndarray:
        return 0.5 * (self.d_dx(F) + 1j * self.d_dy(F))

    def wirtinger(self, F: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d_dz F, d_dzbar F) from one d_dx and one d_dy of F, with the
        values of ``d_dz`` and ``d_dzbar``."""
        fx, fy = self.d_dx(F), self.d_dy(F)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """Five-point Laplacian; on a rectangle the boundary ring is garbage
        and must be masked by the caller."""
        if self.periodic:
            fxx = (np.roll(F, -1, axis=0) + np.roll(F, 1, axis=0) - 2 * F) / self.dx**2
            fyy = (np.roll(F, -1, axis=1) + np.roll(F, 1, axis=1) - 2 * F) / self.dy**2
            return fxx + fyy
        out = np.zeros_like(F)
        out[1:-1, 1:-1] = (
            (F[2:, 1:-1] + F[:-2, 1:-1] - 2 * F[1:-1, 1:-1]) / self.dx**2
            + (F[1:-1, 2:] + F[1:-1, :-2] - 2 * F[1:-1, 1:-1]) / self.dy**2
        )
        return out

    def max_norm(self, F: np.ndarray) -> float:
        """Infinity norm over nodes, boundary ring excluded on rectangles."""
        mask = self.interior_mask()
        vals = np.abs(F[mask])
        return float(vals.max()) if vals.size else 0.0


@dataclass
class HFieldGrid:
    """Real Cartan-valued field: coefficients over the simple coroots."""

    grid: DomainGrid
    values: np.ndarray  # (nx, ny, l) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[:2] != (self.grid.nx, self.grid.ny):
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @property
    def l(self) -> int:
        return self.values.shape[2]


def constant_field(grid: DomainGrid, vec: Sequence[float]) -> HFieldGrid:
    vals = np.broadcast_to(np.asarray(vec, dtype=float), (grid.nx, grid.ny, len(vec))).copy()
    return HFieldGrid(grid, vals)


@dataclass(frozen=True)
class QDifferential:
    """Holomorphic coefficient of the top-degree differential.

    Either a constant or a polynomial in z; ``degree`` tags the tensor
    power (Coxeter number) the coefficient belongs to.
    """

    kind: str  # "const" | "poly"
    coeffs: Tuple[complex, ...]
    degree: int

    @staticmethod
    def constant(value: complex, degree: int) -> "QDifferential":
        return QDifferential("const", (complex(value),), degree)

    @staticmethod
    def polynomial(coeffs: Iterable[complex], degree: int) -> "QDifferential":
        return QDifferential("poly", tuple(complex(c) for c in coeffs), degree)

    def sample(self, grid: DomainGrid) -> np.ndarray:
        if self.kind == "const":
            return np.full((grid.nx, grid.ny), self.coeffs[0], dtype=complex)
        z = grid.z()
        out = np.zeros_like(z, dtype=complex)
        for c in reversed(self.coeffs):  # Horner
            out = out * z + c
        return out

    @staticmethod
    def parse(text: str, degree: int) -> "QDifferential":
        """CLI syntax: const:VALUE or poly:c0,c1,..."""
        kind, _, rest = text.partition(":")
        if kind == "const" and rest:
            return QDifferential.constant(complex(rest), degree)
        if kind == "poly" and rest:
            return QDifferential.polynomial([complex(c) for c in rest.split(",")], degree)
        raise ValueError(f"cannot parse q specification {text!r}")


# ---------------------------------------------------------------------------
# smooth random fields (closed form, resolution independent)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigField:
    """Real trigonometric polynomial, periodic with periods (Lx, Ly).

    Being closed-form it can be sampled consistently on grids of any
    resolution, which the discretization-order tests rely on.
    """

    coeffs: np.ndarray  # (l, 2K+1, 2K+1) complex, mode amplitudes
    Lx: float
    Ly: float

    def sample(self, grid: DomainGrid) -> HFieldGrid:
        l, nkx, _ = self.coeffs.shape
        K = (nkx - 1) // 2
        X, Y = grid.xy()
        out = np.zeros((grid.nx, grid.ny, l))
        for a in range(l):
            for ikx in range(nkx):
                for iky in range(nkx):
                    c = self.coeffs[a, ikx, iky]
                    if c == 0:
                        continue
                    kx, ky = ikx - K, iky - K
                    phase = 2 * np.pi * (kx * X / self.Lx + ky * Y / self.Ly)
                    out[..., a] += (c * np.exp(1j * phase)).real
        return HFieldGrid(grid, out)

    def symmetrized(self, perm: Sequence[int]) -> "TrigField":
        """Average with the component permutation (for diagram symmetry)."""
        permuted = self.coeffs[list(perm)]
        return TrigField(0.5 * (self.coeffs + permuted), self.Lx, self.Ly)


def random_trig_field(
    l: int,
    seed: int,
    amplitude: float = 1.0,
    kmax: int = 2,
    extent: Tuple[float, float] = (1.0, 1.0),
) -> TrigField:
    rng = np.random.default_rng(seed)
    n = 2 * kmax + 1
    coeffs = amplitude * (
        rng.standard_normal((l, n, n)) + 1j * rng.standard_normal((l, n, n))
    ) / (2 * n)
    return TrigField(coeffs, extent[0], extent[1])


# ---------------------------------------------------------------------------
# I/O: raw binary
# ---------------------------------------------------------------------------


def write_field_binary(path: str, hfield: HFieldGrid) -> None:
    """Raw format: magic 'TODA', u32 nx, u32 ny, u32 l, little-endian f64
    values in row-major (ix, iy, component) order."""
    v = hfield.values
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", v.shape[0], v.shape[1], v.shape[2]))
        fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_field_binary(path: str, grid: Optional[DomainGrid] = None) -> HFieldGrid:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated header")
        nx, ny, l = struct.unpack("<III", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != nx * ny * l:
        raise ValueError(f"{path}: truncated payload")
    values = data.reshape(nx, ny, l).astype(float)
    if grid is None:
        grid = DomainGrid.make("torus", nx, ny)
    if (grid.nx, grid.ny) != (nx, ny):
        raise ValueError("grid does not match stored field")
    return HFieldGrid(grid, values)
