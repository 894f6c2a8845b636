"""Spatial discretization, quadrature, and interpolation for 1-D densities.

Densities are sampled at the ``n_cells + 1`` nodes of a uniform grid on
``[lo, hi]`` and extended by zero outside. Node values at both endpoints must
be exactly zero: the grid domain is meant to contain the whole support tube
of the evolution, so every density it carries is compactly supported strictly
inside. Quadrature is composite Simpson, hence ``n_cells`` must be even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatch, ZeroMass

def simpson_weights(n_cells: int) -> np.ndarray:
    """Composite Simpson weights for ``n_cells + 1`` nodes (without the dx factor)."""
    if n_cells % 2 != 0 or n_cells <= 0:
        raise ValueError(f"Simpson quadrature needs a positive even cell count, got {n_cells}")
    w = np.ones(n_cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def simpson_sbp_diff(values: np.ndarray, dx: float) -> np.ndarray:
    """First derivative that pairs with the Simpson norm by exact summation by parts.

    With ``H = diag(simpson_weights(n) * dx)`` this operator ``D`` satisfies
    ``H D + (H D)^T = diag(-1, 0, ..., 0, 1)``, the discrete form of
    ``integral u v' = u v | - integral u' v``. It is centered at odd nodes,
    ``(u[i+1] - u[i-1]) / dx - (u[i+2] - u[i-2]) / (4 dx)`` at even interior
    nodes, and second-order one-sided at the ends; it is exact on quadratics.
    """
    if values.size < 3 or values.size % 2 == 0:
        raise ValueError(f"need an even positive cell count, got {values.size - 1}")
    u = values
    d = np.empty_like(u)
    d[1:-1:2] = (u[2::2] - u[:-2:2]) / (2.0 * dx)
    d[2:-2:2] = (u[3:-1:2] - u[1:-3:2]) / dx - (u[4::2] - u[:-4:2]) / (4.0 * dx)
    d[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    d[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
    return d


@dataclass(frozen=True)
class GradientGrid:
    """A signed function sampled at the ``n_cells + 1`` nodes of a uniform grid.

    Used for Frechet-differential representers paired against densities; the
    values may take any sign and need not vanish at the endpoints.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        n_cells = v.size - 1
        if n_cells < 2 or n_cells % 2 != 0:
            raise ValueError(f"n_cells must be even and >= 2, got {n_cells}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @property
    def x(self) -> np.ndarray:
        """Node coordinates."""
        return np.linspace(self.lo, self.hi, self.values.size)

    def same_grid_as(self, other: GradientGrid) -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.values.size == other.values.size
        )


@dataclass(frozen=True)
class DensityGrid(GradientGrid):
    """A nonnegative mass density sampled on a uniform node grid.

    Parameters
    ----------
    lo, hi : float
        Domain endpoints. The domain is expected to contain the full support
        tube of any evolution applied to this density.
    values : ndarray of shape (n_cells + 1,)
        Nonnegative node samples; both endpoint samples must be exactly 0.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        v = self.values
        if np.any(v < 0.0):
            raise ValueError("density values must be nonnegative")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("density must vanish at both endpoint nodes (compact support)")

    @classmethod
    def from_callable(
        cls,
        lo: float,
        hi: float,
        n_cells: int,
        fn: Callable[[np.ndarray], np.ndarray],
        normalize: bool = False,
    ) -> "DensityGrid":
        """Sample ``fn`` at the nodes; optionally rescale to unit Simpson mass.

        ``fn`` must vanish at (and outside) the endpoints.
        """
        x = np.linspace(lo, hi, n_cells + 1)
        v = np.asarray(fn(x), dtype=float)
        m = cls(lo, hi, v)
        if normalize:
            total = total_mass(m)
            if total <= 0.0:
                raise ZeroMass("cannot normalize a zero-mass density")
            m = cls(lo, hi, v / total)
        return m


def total_mass(m: DensityGrid) -> float:
    """Total mass by composite Simpson quadrature; nonnegative."""
    return float(np.dot(simpson_weights(m.n_cells), m.values) * m.dx)


def mean(m: DensityGrid) -> float:
    """The unnormalized first moment ``integral of x * m(x) dx``.

    For unit-mass densities this is the centroid. Note the same symbol
    conventionally denotes both a density and its mean; here "mean" always
    means this moment.
    """
    if total_mass(m) <= 0.0:
        raise ZeroMass("mean undefined for a zero-mass density")
    return float(np.dot(simpson_weights(m.n_cells), m.x * m.values) * m.dx)


def sample_at(m: GradientGrid, x: "float | np.ndarray") -> "float | np.ndarray":
    """Linear interpolation between neighboring nodes; 0 outside [lo, hi]."""
    out = np.interp(x, m.x, m.values, left=0.0, right=0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def support_interval(m: DensityGrid) -> "tuple[float, float] | None":
    """Smallest node interval containing all strictly positive values.

    Returns None for a zero density.
    """
    idx = np.nonzero(m.values > 0.0)[0]
    if idx.size == 0:
        return None
    x = m.x
    return float(x[idx[0]]), float(x[idx[-1]])


def window_integral(
    m: GradientGrid, a: "float | np.ndarray", b: "float | np.ndarray"
) -> "float | np.ndarray":
    """Integral of the node data over [a, b] inside the grid.

    ``a`` and ``b`` may be arrays of window ends, broadcast against each
    other; the result has their shape, and is a float for scalar ends.
    Whole node panels are summed with composite Simpson on pairs of cells
    that start at even global nodes, the pairing ``total_mass`` uses, so a
    window holding the whole support returns the total mass; the panels of
    every window are read from one cumulative sum. The partial end cells,
    and a whole cell left over at either end by that pairing, integrate the
    linear interpolant exactly. Outside [lo, hi] the density is zero.
    """
    a = np.maximum(np.asarray(a, dtype=float), m.lo)
    b = np.minimum(np.asarray(b, dtype=float), m.hi)
    a, b = np.broadcast_arrays(a, b)
    x, v, dx, n = m.x, m.values, m.dx, m.n_cells

    def piece(u0, u1):
        # exact integral of the interpolant over [u0, u1] within one cell
        return 0.5 * (sample_at(m, u0) + sample_at(m, u1)) * (u1 - u0)

    i0 = np.clip(np.ceil((a - m.lo) / dx - 1e-12).astype(int), 0, n)
    i1 = np.clip(np.floor((b - m.lo) / dx + 1e-12).astype(int), 0, n)
    nodes = i0 <= i1  # the window holds at least one node
    total = np.where(nodes, piece(a, x[i0]) + piece(x[i1], b), piece(a, b))
    odd = nodes & (i0 % 2 == 1) & (i0 < i1)
    total += np.where(odd, piece(x[i0], x[np.minimum(i0 + 1, n)]), 0.0)
    i0 = i0 + odd
    odd = nodes & (i1 % 2 == 1) & (i0 < i1)
    total += np.where(odd, piece(x[np.maximum(i1 - 1, 0)], x[i1]), 0.0)
    i1 = i1 - odd
    # panels[p] integrates cells 2p and 2p + 1; i0 and i1 are now even
    panels = np.cumsum((v[:-2:2] + 4.0 * v[1:-1:2] + v[2::2]) * (dx / 3.0))
    panels = np.concatenate(([0.0], panels))
    total += np.where(nodes & (i0 < i1), panels[i1 // 2] - panels[i0 // 2], 0.0)
    total = np.where(b > a, total, 0.0)
    return float(total) if total.ndim == 0 else total


def require_same_grid(*grids: GradientGrid) -> None:
    """Raise :class:`~masschase.errors.GridMismatch` unless all layouts agree."""
    first = grids[0]
    for g in grids[1:]:
        if not first.same_grid_as(g):
            raise GridMismatch(
                f"grids differ: [{first.lo},{first.hi}]x{first.n_cells} vs [{g.lo},{g.hi}]x{g.n_cells}"
            )
