"""Characteristic flows, push-forward transport, and the diffusive extension.

The density update is the push-forward along characteristics: transported
value at x is the initial value at the backward foot point divided by the
Jacobian of the forward flow there. Every field kind is a clipped affine map
``clip(a*x + b, -C, C)``, so on each schedule segment a characteristic is a
translation or an exponential with at most one kink crossing, and the flow
and its Jacobian are solved in closed form, with no time stepping and no
finite differencing of the flow map. The inverse flow is the same solver run
backward in time on the negated field rather than a numerical inversion of
the forward map.

The diffusive extension has one march, ``fokker_planck_sweep``: a
Strang-split loop over a stack of densities on one grid, stored nodes by
rows with the rows on the last axis, each row with its own schedule and
noise level. Each row comes out bit-identical to a march of that row alone;
``fokker_planck_solve`` is the one-row case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controls import ControlSchedule
from .errors import CflViolation, MassChaseError, TubeOverflow
from .grid import (
    DensityGrid,
    GradientGrid,
    h1_norm,
    lp_norm,
    require_same_grid,
    sample_at,
    support_interval,
    total_mass,
)


@dataclass(frozen=True)
class SupportTube:
    """Base support interval and the speed bound that inflates it over time."""

    omega_lo: float
    omega_hi: float
    M: float

    def __post_init__(self) -> None:
        if not self.omega_lo < self.omega_hi:
            raise ValueError("need omega_lo < omega_hi")
        if self.M <= 0:
            raise ValueError("speed bound M must be positive")


def support_tube(tube: SupportTube, t: float, s: float) -> "tuple[float, float]":
    """The inflated support interval at time s.

    By the semigroup property the tube reached at time s does not depend on
    the intermediate time t at which the evolution restarted, only on s.
    """
    if not 0.0 <= t <= s:
        raise ValueError(f"need 0 <= t <= s, got t={t}, s={s}")
    return tube.omega_lo - tube.M * s, tube.omega_hi + tube.M * s


def _exact_piece(
    triple: "tuple[float, float, float]", y: np.ndarray, J: np.ndarray, tau: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Exact flow of y' = clip(a*y + b, -C, C) over time tau >= 0, with its Jacobian.

    With u = a*y + b, a trajectory in the band |u| < C moves as
    u(t) = u * exp(a*t), so y gains u * expm1(a*t) / a and J gains
    exp(a*t); in a clipped region it translates at sign(u) * C and J is
    unchanged. For a > 0 a band trajectory leaves the band at
    log(C / |u|) / a and stays clipped; for a < 0 a clipped trajectory enters
    the band at (|u| - C) / (|a| * C) and stays in it. u = 0 is a fixed point.
    """
    a, b, C = triple
    if a == 0.0:
        return y + np.clip(b, -C, C) * tau, J
    u = a * y + b
    if a > 0.0:
        with np.errstate(divide="ignore"):
            t_band = np.clip((np.log(C) - np.log(np.abs(u))) / a, 0.0, tau)
        y = y + u * np.expm1(a * t_band) / a + np.sign(u) * C * (tau - t_band)
    else:
        t_clip = np.clip((np.abs(u) - C) / (-a * C), 0.0, tau)
        y = y + np.sign(u) * C * t_clip
        t_band = tau - t_clip
        y = y + (a * y + b) * np.expm1(a * t_band) / a
    return y, J * np.exp(a * t_band)


def _pieces(schedule: ControlSchedule, t0: float, t1: float, backward: bool):
    """(triple, duration) per schedule segment, in the order the flow visits them.

    The backward flow runs the negated field over the segments in reverse.
    """
    if not t0 <= t1:
        raise ValueError(f"need t0 <= t1, got {t0}, {t1}")
    pieces = []
    for s0, s1, f in schedule.segments(t0, t1):
        a, b, C = f.clipped_affine
        pieces.append(((-a, -b, C) if backward else (a, b, C), s1 - s0))
    return pieces[::-1] if backward else pieces


def flow_arrays(
    schedule: ControlSchedule,
    xs: np.ndarray,
    t0: float,
    t1: float,
    backward: bool = False,
):
    """Vectorized exact flow over many starting points.

    Forward: (Phi(x, t0, t1), JPhi(x, t0, t1)). Backward: the same for the
    inverse map, i.e. feet z = Phi^-1(x) and d z / d x.
    """
    y = np.asarray(xs, dtype=float).copy()
    J = np.ones_like(y)
    for triple, tau in _pieces(schedule, t0, t1, backward):
        y, J = _exact_piece(triple, y, J, tau)
    return y, J


def integrate_flow(
    schedule: ControlSchedule, x: float, t0: float, t1: float
) -> "tuple[float, float]":
    """Forward characteristic position and Jacobian from a single point."""
    y, J = flow_arrays(schedule, np.array([x], dtype=float), t0, t1)
    return float(y[0]), float(J[0])


def inverse_flow(schedule: ControlSchedule, x: float, t0: float, t1: float) -> float:
    """Backward-flowed foot point satisfying Phi(foot, t0, t1) = x."""
    y, _ = flow_arrays(schedule, np.array([x], dtype=float), t0, t1, backward=True)
    return float(y[0])


def _support_envelope(
    schedule: ControlSchedule, slo: float, shi: float, t0: float, t1: float
) -> "tuple[float, float]":
    """Extremes visited by the two support-edge trajectories.

    The flow is monotone in one dimension, so the support at any time is the
    interval between the transported edges. Within a segment the field is
    autonomous and each trajectory is monotone in time, so the edges' extremes
    over the whole tube are among their positions at the segment ends.
    """
    y = np.array([slo, shi], dtype=float)
    lo_seen, hi_seen = slo, shi
    for triple, tau in _pieces(schedule, t0, t1, backward=False):
        y, _ = _exact_piece(triple, y, np.ones(2), tau)
        lo_seen = min(lo_seen, float(y[0]))
        hi_seen = max(hi_seen, float(y[1]))
    return lo_seen, hi_seen


def push_forward(
    m0: DensityGrid,
    schedule: ControlSchedule,
    t0: float,
    t1: float,
) -> DensityGrid:
    """Transport a density along the schedule from t0 to t1.

    Output node values are m0 sampled at the backward foot point divided by
    the forward-flow Jacobian there. The transported support (tracked via the
    edge trajectories) must stay inside the grid domain; otherwise mass would
    be clipped away and the run aborts with TubeOverflow.
    """
    supp = support_interval(m0)
    if supp is None:
        return m0
    dt = t1 - t0
    if dt < 0:
        raise ValueError("need t0 <= t1")
    reach_lo, reach_hi = _support_envelope(schedule, supp[0], supp[1], t0, t1)
    if reach_lo < m0.lo - 1e-12 or reach_hi > m0.hi + 1e-12:
        raise TubeOverflow(
            f"transported support [{reach_lo:g}, {reach_hi:g}] "
            f"leaves the grid domain [{m0.lo:g}, {m0.hi:g}]"
        )
    x = m0.x
    feet, dfeet = flow_arrays(schedule, x, t0, t1, backward=True)
    if np.any(dfeet <= 0.0):
        raise MassChaseError(
            "flow Jacobian lost positivity; controls exceed the invertibility regime"
        )
    # JPhi at the foot point is the reciprocal of the backward map's slope
    values = sample_at(m0, feet) * np.abs(dfeet)
    values[0] = 0.0
    values[-1] = 0.0
    return DensityGrid(m0.lo, m0.hi, values)


def solve_continuity(
    m0: DensityGrid,
    schedule: ControlSchedule,
    t0: float,
    snapshot_times: Sequence[float],
) -> "list[DensityGrid]":
    """Density snapshots of the transport Cauchy problem at the given times."""
    times = list(snapshot_times)
    if any(s1 < s0 for s0, s1 in zip(times, times[1:])):
        raise ValueError("snapshot times must be sorted ascending")
    if times and times[0] < t0:
        raise ValueError("snapshot times must not precede t0")
    return [m0 if s == t0 else push_forward(m0, schedule, t0, s) for s in times]


def snapshots_to_csv(times: Sequence[float], snaps: Sequence[DensityGrid], path) -> None:
    """Write a snapshot series as ``time,x,value`` rows at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,x,value\n")
        for t, m in zip(times, snaps):
            for xi, vi in zip(m.x, m.values):
                fh.write(f"{t:.17g},{xi:.17g},{vi:.17g}\n")


@dataclass(frozen=True)
class InvariantCheckEntry:
    schedule_index: int
    time: float
    support: "tuple[float, float] | None"
    tube: "tuple[float, float]"
    support_ok: bool
    w1inf: float
    norm_ok: bool
    mass_drift: float


@dataclass(frozen=True)
class InvariantSetReport:
    """Outcome of the invariant-set verification sweep.

    Violations are recorded, not raised: the report is the product.
    """

    bound: float
    entries: "tuple[InvariantCheckEntry, ...]"
    h1_ratios: "tuple[float, ...]"
    ratio_bound: "float | None"

    @property
    def all_support_ok(self) -> bool:
        return all(e.support_ok for e in self.entries)

    @property
    def all_norm_ok(self) -> bool:
        return all(e.norm_ok for e in self.entries)

    @property
    def max_ratio(self) -> float:
        return max(self.h1_ratios) if self.h1_ratios else 0.0

    @property
    def ratios_ok(self) -> bool:
        if self.ratio_bound is None:
            return True
        return self.max_ratio <= self.ratio_bound

    @property
    def all_pass(self) -> bool:
        return self.all_support_ok and self.all_norm_ok and self.ratios_ok

    def to_json(self) -> str:
        return json.dumps(
            {
                "bound": self.bound,
                "all_pass": self.all_pass,
                "max_h1_ratio": self.max_ratio,
                "ratio_bound": self.ratio_bound,
                "entries": [
                    {
                        "schedule": e.schedule_index,
                        "time": e.time,
                        "support": e.support,
                        "tube": e.tube,
                        "support_ok": e.support_ok,
                        "w1inf": e.w1inf,
                        "norm_ok": e.norm_ok,
                        "mass_drift": e.mass_drift,
                    }
                    for e in self.entries
                ],
            },
            indent=2,
        )


def verify_invariant_set(
    m0: DensityGrid,
    schedules: Sequence[ControlSchedule],
    tube: SupportTube,
    bound: float,
    check_times: Sequence[float],
    pairs: "Sequence[tuple[DensityGrid, DensityGrid]] | None" = None,
    ratio_bound: "float | None" = None,
) -> InvariantSetReport:
    """Check support containment and the uniform W1inf bound along evolutions.

    For each schedule and check time: is the transported support inside the
    inflated tube (up to one cell of slack), and is the W1inf norm below the
    caller-supplied bound? For each supplied density pair, the H1 stability
    ratio of the transported pair over the initial pair is measured at the
    final check time; ratios are recorded and only compared against a bound
    if the caller gives one, since no universal constant is prescribed.
    """
    entries = []
    mass0 = total_mass(m0)
    for si, sched in enumerate(schedules):
        snaps = solve_continuity(m0, sched, 0.0, sorted(check_times))
        for s, m_s in zip(sorted(check_times), snaps):
            supp = support_interval(m_s)
            t_lo, t_hi = support_tube(tube, 0.0, s)
            ok = supp is None or (supp[0] >= t_lo - m0.dx and supp[1] <= t_hi + m0.dx)
            w = lp_norm(m_s, "W1inf")
            drift = abs(total_mass(m_s) - mass0) / mass0 if mass0 > 0 else 0.0
            entries.append(
                InvariantCheckEntry(si, s, supp, (t_lo, t_hi), ok, w, w <= bound, drift)
            )
    ratios = []
    if pairs:
        s_final = max(check_times)
        for m1, m2 in pairs:
            d0 = GradientGrid(m1.lo, m1.hi, m1.values - m2.values)
            denom = h1_norm(d0)
            if denom == 0.0:
                continue
            for sched in schedules:
                n1 = push_forward(m1, sched, 0.0, s_final)
                n2 = push_forward(m2, sched, 0.0, s_final)
                d1 = GradientGrid(m1.lo, m1.hi, n1.values - n2.values)
                ratios.append(h1_norm(d1) / denom)
    return InvariantSetReport(bound, tuple(entries), tuple(ratios), ratio_bound)


def fokker_planck_solve(
    m0: DensityGrid,
    schedule: ControlSchedule,
    sigma: float,
    t0: float,
    t1: float,
    n_time_steps: int,
) -> DensityGrid:
    """March the drift-diffusion mass equation with Strang splitting.

    Each step is half a conservative upwind transport step, a full explicit
    three-point diffusion step, and another half transport step, with zero
    Dirichlet boundary values. For sigma = 0 the diffusion stage drops out
    and the scheme is pure conservative transport. The diffusion stability
    limit sigma * dt / dx^2 <= 0.45 is enforced, as is the advective limit
    of the upwind half steps.

    This is the one-row case of :func:`fokker_planck_sweep`, the only march.
    """
    return fokker_planck_sweep([m0], [schedule], [sigma], t0, t1, n_time_steps)[0]


def _face_velocities(
    schedules: "Sequence[ControlSchedule]", faces: np.ndarray, times: np.ndarray
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Face velocities and upwind masks for every row, one pair per time.

    Each schedule's field pick at each time follows ``field_at``'s rule
    (right-continuous, clamped to the schedule's span), found with one
    ``searchsorted``. The ``(vf, vf >= 0)`` pair of ``(n_faces, n_rows)``
    arrays is built once per distinct pick vector and shared by every time
    with that vector, so a field is evaluated once per schedule segment.
    """
    picks = np.stack([
        np.clip(np.searchsorted(s.breakpoints, times, side="right") - 1, 0, len(s.fields) - 1)
        for s in schedules
    ], axis=1)
    distinct, which = np.unique(picks, axis=0, return_inverse=True)
    table = []
    for row in distinct:
        vf = np.stack([s.fields[i].value(faces) for s, i in zip(schedules, row)], axis=1)
        table.append((vf, vf >= 0.0))
    return [table[i] for i in which.reshape(-1)]


def fokker_planck_sweep(
    m0s: "Sequence[DensityGrid]",
    schedules: "Sequence[ControlSchedule]",
    sigmas: "Sequence[float]",
    t0: float,
    t1: float,
    n_time_steps: int,
) -> "list[DensityGrid]":
    """March many densities on one grid with one Strang-split loop.

    Row r is ``m0s[r]`` driven by ``schedules[r]`` with noise ``sigmas[r]``;
    all rows share the grid, the horizon and the step count. The state is an
    ``(n_nodes, n_rows)`` C-order array, rows on the last axis, so every
    stencil slice is one contiguous block. Face velocities are built once per
    schedule segment rather than once per half step. The per-element
    arithmetic is that of a lone march, so every row is bit-identical to
    ``fokker_planck_solve`` on that row alone; a sigma = 0 row among noisy
    ones gains ``0 * (stencil)``, which can change at most the sign of a zero.

    The stability limits are checked at the largest sigma and the largest
    schedule speed, which is the same as checking every row.
    """
    m0s, schedules = list(m0s), list(schedules)
    sig = np.array(sigmas, dtype=float).reshape(-1)
    if not m0s or not len(m0s) == len(schedules) == sig.size:
        raise ValueError("need one schedule and one sigma per density, and at least one row")
    if np.any(sig < 0):
        raise ValueError("sigma must be >= 0")
    if n_time_steps < 1:
        raise ValueError("n_time_steps must be >= 1")
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    require_same_grid(*m0s)
    if t1 == t0:
        return m0s
    dt = (t1 - t0) / n_time_steps
    m0 = m0s[0]
    dx = m0.dx
    sigma = float(sig.max())
    if sigma * dt / dx**2 > 0.45:
        raise CflViolation(
            f"diffusion number sigma*dt/dx^2 = {sigma * dt / dx**2:.3f} exceeds 0.45"
        )
    vmax = max(s.max_speed for s in schedules)
    if vmax * (dt / 2.0) / dx > 0.95:
        raise CflViolation(
            f"advective number vmax*dt/(2*dx) = {vmax * dt / 2.0 / dx:.3f} exceeds 0.95"
        )

    x = m0.x
    faces = 0.5 * (x[:-1] + x[1:])
    tk = t0 + np.arange(n_time_steps) * dt
    plan = _face_velocities(schedules, faces, np.stack([tk, tk + dt / 2.0], axis=1).reshape(-1))

    v = np.stack([m.values for m in m0s], axis=1)
    nu = sig * dt / dx**2
    diffuse = sigma > 0.0
    c = (dt / 2.0) / dx
    upwind = np.empty(faces.shape + nu.shape)
    flux = np.empty_like(upwind)
    inner = np.empty_like(v[1:-1])

    def transport_half(vf: np.ndarray, forward: np.ndarray) -> None:
        # flux = where(vf >= 0, vf * v[:-1], vf * v[1:]), operand picked first
        np.copyto(upwind, v[1:])
        np.copyto(upwind, v[:-1], where=forward)
        np.multiply(vf, upwind, out=flux)
        np.subtract(flux[1:], flux[:-1], out=inner)
        np.multiply(inner, c, out=inner)
        v[1:-1] -= inner
        v[0] = 0.0
        v[-1] = 0.0

    for k in range(n_time_steps):
        transport_half(*plan[2 * k])
        if diffuse:
            # v[1:-1] += nu * (v[2:] - 2 * v[1:-1] + v[:-2]), term by term
            np.multiply(v[1:-1], 2.0, out=inner)
            np.subtract(v[2:], inner, out=inner)
            inner += v[:-2]
            inner *= nu
            v[1:-1] += inner
        transport_half(*plan[2 * k + 1])
    return [DensityGrid(m0.lo, m0.hi, v[:, r]) for r in range(v.shape[1])]


def cfl_time_steps(
    m0: DensityGrid, schedule: ControlSchedule, sigma: float, t0: float, t1: float
) -> int:
    """Smallest step count satisfying both stability limits with margin."""
    span = t1 - t0
    if span <= 0:
        return 1
    dx = m0.dx
    n_diff = span * sigma / (0.4 * dx**2) if sigma > 0 else 0.0
    n_adv = span * schedule.max_speed / (1.6 * dx)
    return max(1, int(math.ceil(max(n_diff, n_adv))))
