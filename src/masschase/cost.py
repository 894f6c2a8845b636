"""Final costs, running costs, and the game cost functional.

Three final costs are built in: the overlap integral of the two densities,
the squared difference of mass captured in windows around the two means, and
the squared difference of the means themselves. The window cost integrates
between mean-centered limits, following the defining formula (the overloaded
bar notation there denotes means, not densities). Running costs are either
identically zero or a control-effort quadratic, which is the minimal concrete
choice that actually depends on the controls. Both depend on the control pair
alone, never on the densities or the time, and are evaluated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .controls import ControlDictionary, ControlField, ControlSchedule
from .flow import drift_diffuse
from .grid import (
    DensityGrid,
    mean,
    require_same_grid,
    simpson_weights,
    window_integral,
)

if TYPE_CHECKING:
    from .game import GameSpec


@dataclass(frozen=True)
class Overlap:
    """Final cost: integral of the pointwise product of the two densities."""


@dataclass(frozen=True)
class WindowDiffSquared:
    """Final cost: squared difference of opposite-mass window integrals.

    The windows are centered at the means of the two densities with
    half-width delta, fixed a priori.
    """

    delta: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("window half-width delta must be positive")


@dataclass(frozen=True)
class MeanDiffSquared:
    """Final cost: squared difference of the two means."""


FinalCost = Union[Overlap, WindowDiffSquared, MeanDiffSquared]


@dataclass(frozen=True)
class ZeroRunningCost:
    """The identically-zero running cost."""


@dataclass(frozen=True)
class ControlEffort:
    """Quadratic control effort: wX * ||a||^2 + wY * ||b||^2 over the tube."""

    wX: float
    wY: float

    def __post_init__(self) -> None:
        if self.wX < 0 or self.wY < 0:
            raise ValueError("effort weights must be nonnegative")


RunningCost = Union[ZeroRunningCost, ControlEffort]


def psi1(mX: DensityGrid, mY: DensityGrid) -> float:
    """Overlap integral of the two densities (same grid required)."""
    require_same_grid(mX, mY)
    w = simpson_weights(mX.n_cells)
    return float(np.dot(w, mX.values * mY.values) * mX.dx)


def psi2(mX: DensityGrid, mY: DensityGrid, delta: float) -> float:
    """Squared difference of window-captured opposite masses.

    Window integrals run over [mean -/+ delta] of one density applied to the
    other; both densities need positive mass for the means to exist.
    """
    require_same_grid(mX, mY)
    if delta <= 0:
        raise ValueError("delta must be positive")
    muX = mean(mX)
    muY = mean(mY)
    captured_y = window_integral(mY, muX - delta, muX + delta)
    captured_x = window_integral(mX, muY - delta, muY + delta)
    return (captured_y - captured_x) ** 2


def psi3(mX: DensityGrid, mY: DensityGrid) -> float:
    """Squared difference of the means."""
    return (mean(mX) - mean(mY)) ** 2


def final_cost(fc: FinalCost, mX: DensityGrid, mY: DensityGrid) -> float:
    if isinstance(fc, Overlap):
        return psi1(mX, mY)
    if isinstance(fc, WindowDiffSquared):
        return psi2(mX, mY, fc.delta)
    if isinstance(fc, MeanDiffSquared):
        return psi3(mX, mY)
    raise TypeError(f"unknown final cost {fc!r}")


def relative_final_cost(
    fc: FinalCost, mX: DensityGrid, mY: DensityGrid
) -> "Callable[[np.ndarray], np.ndarray]":
    """The final cost of rigid translates as a function of their relative shift.

    Translating mX by hX and mY by hY changes every built-in final cost only
    through z = hX - hY, so the returned g evaluates it at an array of z
    without translating either density:

    - ``MeanDiffSquared``: (muX - muY + z)^2;
    - ``WindowDiffSquared``: (W_Y(muX + z) - W_X(muY - z))^2, where W is
      ``window_integral`` of the untranslated density over [c - delta, c + delta];
    - ``Overlap``: the Simpson sum of mX against mY sampled linearly at x + z,
      zero outside the domain. That is the linear interpolant of the
      correlation of the node values at whole-node shifts, computed once.

    At a shift by an even whole number of nodes, where translation is exact
    and Simpson's rule shift-invariant, g agrees with ``final_cost`` of the
    translates to roundoff.
    """
    if isinstance(fc, MeanDiffSquared):
        gap = mean(mX) - mean(mY)
        return lambda z: (gap + z) ** 2
    require_same_grid(mX, mY)
    if isinstance(fc, WindowDiffSquared):
        mu_x, mu_y, d = mean(mX), mean(mY), fc.delta
        return lambda z: (window_integral(mY, mu_x + z - d, mu_x + z + d)
                          - window_integral(mX, mu_y - z - d, mu_y - z + d)) ** 2
    if isinstance(fc, Overlap):
        n = mX.n_cells
        # corr[k + n] = sum_i w_i mX_i mY_{i+k}, the overlap at a shift of k nodes
        corr = np.correlate(mY.values, simpson_weights(n) * mX.values, "full") * mX.dx
        lags = np.arange(-n, n + 1, dtype=float)
        return lambda z: np.interp(z / mX.dx, lags, corr, left=0.0, right=0.0)
    raise TypeError(f"unknown final cost {fc!r}")


def _field_l2sq(f: ControlField, tube: "tuple[float, float]") -> float:
    """Exact integral of f(x)^2 over the tube.

    f is clip(u, -C, C) with u = a*x + b: it contributes C^2 per unit length
    where clipped, and on the band [xl, xr] where |u| < C the integral of u^2,
    (u(xl)^2 + u(xl)*u(xr) + u(xr)^2) * (xr - xl) / 3.
    """
    lo, hi = tube
    if hi <= lo:
        return 0.0
    a, b, C = f.clipped_affine
    if a == 0.0:
        return min(b * b, C * C) * (hi - lo)
    xl, xr = sorted(((-C - b) / a, (C - b) / a))
    xl, xr = max(xl, lo), min(xr, hi)
    if xr <= xl:
        return C * C * (hi - lo)
    ul, ur = a * xl + b, a * xr + b
    return C * C * ((hi - lo) - (xr - xl)) + (ul * ul + ul * ur + ur * ur) * (xr - xl) / 3.0


def running_cost(
    rc: RunningCost,
    a: ControlField,
    b: ControlField,
    tube: "tuple[float, float]",
) -> float:
    """Running cost of the control pair (a, b) over the tube."""
    if isinstance(rc, ZeroRunningCost):
        return 0.0
    if isinstance(rc, ControlEffort):
        return rc.wX * _field_l2sq(a, tube) + rc.wY * _field_l2sq(b, tube)
    raise TypeError(f"unknown running cost {rc!r}")


def running_cost_matrix(
    rc: RunningCost,
    dictA: ControlDictionary,
    dictB: ControlDictionary,
    tube: "tuple[float, float]",
) -> np.ndarray:
    """Running cost of every control pair, indexed [b, a]."""
    return np.array([[running_cost(rc, a, b, tube) for a in dictA.fields] for b in dictB.fields])


def running_cost_integral(
    spec: "GameSpec", alpha: ControlSchedule, beta: ControlSchedule
) -> float:
    """Integral of the running cost over [t0, T] along a pair of schedules.

    Both schedules are piecewise constant in time and the running cost
    depends on the controls alone, so the integral is an exact sum over the
    merged breakpoints of the two schedules, each piece charged to the fields
    active inside it.
    """
    t0, T = spec.t0, spec.T
    inner = {s for s in alpha.breakpoints + beta.breakpoints if t0 < s < T}
    cuts = [t0, *sorted(inner), T]
    return sum(
        (s1 - s0) * running_cost(spec.rc, alpha.field_at(s0), beta.field_at(s0), spec.tube)
        for s0, s1 in zip(cuts, cuts[1:])
    )


def evaluate_J(spec: "GameSpec", alpha: ControlSchedule, beta: ControlSchedule) -> float:
    """Total cost of a pair of schedules: integrated running cost plus final cost.

    Each density is drift-diffused once over [t0, T].
    """
    mX = drift_diffuse(spec.mX0, alpha, spec.sigma, spec.t0, spec.T)
    mY = drift_diffuse(spec.mY0, beta, spec.sigma, spec.t0, spec.T)
    return running_cost_integral(spec, alpha, beta) + final_cost(spec.fc, mX, mY)
