"""Final costs, running costs, and the game cost functional.

Three final costs are built in: the overlap integral of the two densities,
the squared difference of mass captured in windows around the two means, and
the squared difference of the means themselves. The window cost integrates
between mean-centered limits, following the defining formula (the overloaded
bar notation there denotes means, not densities). Running costs are either
identically zero or a control-effort quadratic, which is the minimal concrete
choice that actually depends on the controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .controls import ControlField, ControlSchedule
from .flow import fokker_planck_solve, cfl_time_steps, push_forward
from .grid import (
    DensityGrid,
    mean,
    require_same_grid,
    simpson_weights,
    window_integral,
)


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
    """Quadratic control effort: wX * ||a||^2 + wY * ||b||^2 over the tube.

    Depends on the controls only, not on the densities or the time, so its
    continuity modulus in the state variables is identically zero.
    """

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


def _field_l2sq(f: ControlField, tube: "tuple[float, float]", n_quad: int = 200) -> float:
    lo, hi = tube
    if hi <= lo:
        return 0.0
    if n_quad % 2 != 0:
        n_quad += 1
    xs = np.linspace(lo, hi, n_quad + 1)
    v = f.value(xs)
    return float(np.dot(simpson_weights(n_quad), v * v) * (hi - lo) / n_quad)


def running_cost(
    rc: RunningCost,
    mX: DensityGrid,
    mY: DensityGrid,
    t: float,
    a: ControlField,
    b: ControlField,
    tube: "tuple[float, float]",
) -> float:
    """Evaluate the running cost at one state/control configuration.

    Both built-in kinds ignore the densities and the time; the full state is
    accepted anyway so richer costs can slot in behind the same call.
    """
    if isinstance(rc, ZeroRunningCost):
        return 0.0
    if isinstance(rc, ControlEffort):
        return rc.wX * _field_l2sq(a, tube) + rc.wY * _field_l2sq(b, tube)
    raise TypeError(f"unknown running cost {rc!r}")


def running_cost_modulus(rc: RunningCost) -> float:
    """Continuity modulus of the running cost in the density/time arguments.

    Zero for both built-in kinds: neither depends on the state.
    """
    return 0.0


@dataclass(frozen=True)
class CostModulus:
    """Empirical continuity-modulus samples: (input distance, output distance)."""

    samples: "tuple[tuple[float, float], ...]" = ()

    def record(self, d_in: float, d_out: float) -> "CostModulus":
        if d_in < 0 or d_out < 0:
            raise ValueError("distances must be nonnegative")
        return CostModulus(self.samples + ((d_in, d_out),))

    def envelope(self, eps: float) -> float:
        """Largest observed output distance among inputs at distance <= eps."""
        vals = [o for i, o in self.samples if i <= eps]
        return max(vals) if vals else 0.0

    def envelope_curve(self) -> "list[tuple[float, float]]":
        """The (eps, envelope(eps)) curve at the observed input distances."""
        eps_sorted = sorted({i for i, _ in self.samples})
        return [(e, self.envelope(e)) for e in eps_sorted]


def evaluate_J(
    spec: "GameSpec",
    alpha: ControlSchedule,
    beta: ControlSchedule,
    n_time_samples: int = 16,
) -> float:
    """Total cost of a pair of schedules: integrated running cost plus final cost.

    The time integral uses the trapezoid rule on n_time_samples + 1 sample
    times, with both ends of each interval evaluated under the controls
    active inside it, so a control switch at a sample time is charged to the
    interval it starts; for the built-in state-free costs the integral is
    then exact whenever the schedules switch only at sample times. With a
    zero running cost the integral vanishes and the final densities come
    from a single transport solve over the whole horizon, so the result does
    not depend on n_time_samples at all.
    """
    from .game import GameSpec  # circular at import time only

    if n_time_samples < 1:
        raise ValueError("n_time_samples must be >= 1")
    t0, T = spec.t0, spec.T
    tube = (spec.mX0.lo, spec.mX0.hi)

    def evolve(m0: DensityGrid, sched: ControlSchedule, s0: float, s1: float) -> DensityGrid:
        if s1 == s0:
            return m0
        if spec.sigma > 0:
            n = cfl_time_steps(m0, sched, spec.sigma, s0, s1)
            return fokker_planck_solve(m0, sched, spec.sigma, s0, s1, n)
        return push_forward(m0, sched, s0, s1)

    integral = 0.0
    if not isinstance(spec.rc, ZeroRunningCost):
        times = np.linspace(t0, T, n_time_samples + 1)
        mX_s, mY_s = spec.mX0, spec.mY0
        for s0, s1 in zip(times[:-1], times[1:]):
            mid = 0.5 * (s0 + s1)
            a, b = alpha.field_at(mid), beta.field_at(mid)
            ell0 = running_cost(spec.rc, mX_s, mY_s, s0, a, b, tube)
            mX_s, mY_s = evolve(mX_s, alpha, s0, s1), evolve(mY_s, beta, s0, s1)
            ell1 = running_cost(spec.rc, mX_s, mY_s, s1, a, b, tube)
            integral += 0.5 * (s1 - s0) * (ell0 + ell1)
        mX_T, mY_T = mX_s, mY_s
    else:
        mX_T = evolve(spec.mX0, alpha, t0, T)
        mY_T = evolve(spec.mY0, beta, t0, T)
    return integral + final_cost(spec.fc, mX_T, mY_T)
