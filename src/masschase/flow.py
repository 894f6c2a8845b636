"""Characteristic flows, push-forward transport, and the diffusive extension.

The density update is the push-forward along characteristics: transported
value at x is the initial value at the backward foot point divided by the
Jacobian of the forward flow there. Trajectories and Jacobians integrate
together with classical RK4; the Jacobian obeys the variational equation
J' = (d beta / dx)(y, s) * J, so no finite differencing of the flow map is
ever needed. The inverse flow is realized by integrating backward in time
rather than inverting the forward map numerically.

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

from .controls import ControlField, ControlSchedule
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


def _rk4_pair(f: ControlField, y: np.ndarray, J: np.ndarray, h: float, steps: int):
    """RK4 on (y, J) under a field constant in time; h may be negative."""
    for _ in range(steps):
        k1 = f.value(y)
        l1 = f.derivative(y) * J
        y2 = y + 0.5 * h * k1
        k2 = f.value(y2)
        l2 = f.derivative(y2) * (J + 0.5 * h * l1)
        y3 = y + 0.5 * h * k2
        k3 = f.value(y3)
        l3 = f.derivative(y3) * (J + 0.5 * h * l2)
        y4 = y + h * k3
        k4 = f.value(y4)
        l4 = f.derivative(y4) * (J + h * l3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        J = J + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return y, J


def _split_steps(segments, steps: int):
    """Distribute an RK4 step budget over schedule segments by length."""
    total = sum(s1 - s0 for s0, s1, _ in segments)
    if total <= 0.0:
        return [0 for _ in segments]
    return [max(1, int(math.ceil(steps * (s1 - s0) / total))) for s0, s1, _ in segments]


def flow_arrays(
    schedule: ControlSchedule,
    xs: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
    backward: bool = False,
):
    """Vectorized flow over many starting points.

    Forward: (Phi(x, t0, t1), JPhi(x, t0, t1)). Backward: the same for the
    inverse map, i.e. feet z = Phi^-1(x) and d z / d x.
    """
    if not t0 <= t1:
        raise ValueError(f"need t0 <= t1, got {t0}, {t1}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.asarray(xs, dtype=float).copy()
    J = np.ones_like(y)
    if t1 == t0:
        return y, J
    segments = list(schedule.segments(t0, t1))
    counts = _split_steps(segments, steps)
    if backward:
        segments = segments[::-1]
        counts = counts[::-1]
    for (s0, s1, f), n in zip(segments, counts):
        span = (s0 - s1) if backward else (s1 - s0)
        y, J = _rk4_pair(f, y, J, span / n, n)
    return y, J


def integrate_flow(
    schedule: ControlSchedule, x: float, t0: float, t1: float, steps: int
) -> "tuple[float, float]":
    """Forward characteristic position and Jacobian from a single point."""
    y, J = flow_arrays(schedule, np.array([x], dtype=float), t0, t1, steps)
    return float(y[0]), float(J[0])


def inverse_flow(schedule: ControlSchedule, x: float, t0: float, t1: float, steps: int) -> float:
    """Backward-integrated foot point satisfying Phi(foot, t0, t1) = x."""
    y, _ = flow_arrays(schedule, np.array([x], dtype=float), t0, t1, steps, backward=True)
    return float(y[0])


def liouville_error(
    schedule: ControlSchedule, x: float, t0: float, t1: float, steps: int
) -> float:
    """|JPhi - exp(integral of div beta along the trajectory)| at the endpoint.

    The exponential of the time-integrated divergence is the exact solution
    of the variational equation, so the two sides must agree up to
    integration error.
    """
    y = np.array([x], dtype=float)
    J = np.ones_like(y)
    L = np.zeros_like(y)
    segments = list(schedule.segments(t0, t1))
    for (s0, s1, f), n in zip(segments, _split_steps(segments, steps)):
        h = (s1 - s0) / n
        for _ in range(n):
            # RK4 on the triple (y, J, L) with L' = div beta(y)
            k1 = f.value(y); l1 = f.derivative(y) * J; g1 = f.derivative(y)
            y2 = y + 0.5 * h * k1
            k2 = f.value(y2); l2 = f.derivative(y2) * (J + 0.5 * h * l1); g2 = f.derivative(y2)
            y3 = y + 0.5 * h * k2
            k3 = f.value(y3); l3 = f.derivative(y3) * (J + 0.5 * h * l2); g3 = f.derivative(y3)
            y4 = y + h * k3
            k4 = f.value(y4); l4 = f.derivative(y4) * (J + h * l3); g4 = f.derivative(y4)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            J = J + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
            L = L + (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
    return float(abs(J[0] - np.exp(L[0])))


@dataclass(frozen=True)
class FlowMap:
    """Forward flow over [t0, t1] tabulated at grid nodes.

    Evaluation interpolates linearly between the stored per-node
    trajectories. The Jacobian must stay positive everywhere: orientation
    loss means the admissibility bounds were violated at this horizon, which
    is reported as a hard error instead of being silently absorbed.
    """

    t0: float
    t1: float
    schedule: ControlSchedule
    nodes: np.ndarray
    phi: np.ndarray
    jac: np.ndarray

    @classmethod
    def build(
        cls,
        schedule: ControlSchedule,
        t0: float,
        t1: float,
        lo: float,
        hi: float,
        n_cells: int,
        steps: int,
    ) -> "FlowMap":
        nodes = np.linspace(lo, hi, n_cells + 1)
        phi, jac = flow_arrays(schedule, nodes, t0, t1, steps)
        if np.any(jac <= 0.0):
            raise MassChaseError(
                "flow Jacobian lost positivity; controls exceed the invertibility regime"
            )
        for arr in (nodes, phi, jac):
            arr.setflags(write=False)
        return cls(t0, t1, schedule, nodes, phi, jac)

    def phi_at(self, x):
        return np.interp(x, self.nodes, self.phi)

    def jac_at(self, x):
        return np.interp(x, self.nodes, self.jac)


def _support_envelope(
    schedule: ControlSchedule, slo: float, shi: float, t0: float, t1: float, steps: int
) -> "tuple[float, float]":
    """Extremes visited by the two support-edge trajectories.

    The flow is monotone in one dimension, so the support at any time is the
    interval between the transported edges; tracking their per-step extremes
    bounds the whole tube.
    """
    y = np.array([slo, shi], dtype=float)
    lo_seen, hi_seen = float(y[0]), float(y[1])
    segments = list(schedule.segments(t0, t1))
    for (s0, s1, f), n in zip(segments, _split_steps(segments, steps)):
        if n == 0:
            continue
        h = (s1 - s0) / n
        J = np.ones_like(y)
        for _ in range(n):
            y, J = _rk4_pair(f, y, J, h, 1)
            lo_seen = min(lo_seen, float(y[0]))
            hi_seen = max(hi_seen, float(y[1]))
    return lo_seen, hi_seen


def push_forward(
    m0: DensityGrid,
    schedule: ControlSchedule,
    t0: float,
    t1: float,
    steps: int,
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
    reach_lo, reach_hi = _support_envelope(schedule, supp[0], supp[1], t0, t1, steps)
    if reach_lo < m0.lo - 1e-12 or reach_hi > m0.hi + 1e-12:
        raise TubeOverflow(
            f"transported support [{reach_lo:g}, {reach_hi:g}] "
            f"leaves the grid domain [{m0.lo:g}, {m0.hi:g}]"
        )
    x = m0.x
    feet, dfeet = flow_arrays(schedule, x, t0, t1, steps, backward=True)
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
    steps_per_unit: int = 200,
) -> "list[DensityGrid]":
    """Density snapshots of the transport Cauchy problem at the given times."""
    times = list(snapshot_times)
    if any(s1 < s0 for s0, s1 in zip(times, times[1:])):
        raise ValueError("snapshot times must be sorted ascending")
    if times and times[0] < t0:
        raise ValueError("snapshot times must not precede t0")
    out = []
    for s in times:
        if s == t0:
            out.append(m0)
        else:
            steps = max(1, int(math.ceil(steps_per_unit * (s - t0))))
            out.append(push_forward(m0, schedule, t0, s, steps))
    return out


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
    steps_per_unit: int = 200,
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
        snaps = solve_continuity(m0, sched, 0.0, sorted(check_times), steps_per_unit)
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
                n1 = push_forward(m1, sched, 0.0, s_final, max(1, int(200 * s_final)))
                n2 = push_forward(m2, sched, 0.0, s_final, max(1, int(200 * s_final)))
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
