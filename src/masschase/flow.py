"""Characteristic flows, push-forward transport, and drift-diffusion.

The density update is the push-forward along characteristics: transported
value at x is the initial value at the backward foot point divided by the
Jacobian of the forward flow there. Every field kind is a clipped affine map
``clip(a*x + b, -C, C)``, so on each schedule segment a characteristic is a
translation or an exponential with at most one kink crossing, and the flow
and its Jacobian are solved in closed form, with no time stepping and no
finite differencing of the flow map. The inverse flow is the same solver run
backward in time on the negated field rather than a numerical inversion of
the forward map.

Diffusion has one path, ``heat_step``: the exact semigroup of the
zero-Dirichlet three-point Laplacian, applied as a sine transform, with no
time step and no stability limit. Drift-diffusion ``m_t + (v m)_x = sigma
m_xx`` is solved only under spatially constant fields, where transport is a
translation that commutes with diffusion, so ``drift_diffuse`` is one
push-forward then one heat step. The game and the viscosity sweep skip the
translation: they heat-step the initial densities and read the final cost at
the relative shift (``cost.relative_final_cost``).
"""

from __future__ import annotations

import numpy as np

from .controls import Constant, ControlSchedule
from .errors import MassChaseError, NotReduced, TubeOverflow
from .grid import DensityGrid, sample_at, support_interval


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
    be clipped away and the run aborts with TubeOverflow. Raises ValueError
    unless t0 <= t1, for a zero density as well.
    """
    if not t0 <= t1:
        raise ValueError(f"need t0 <= t1, got {t0}, {t1}")
    supp = support_interval(m0)
    if supp is None:
        return m0
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


def heat_step(m: DensityGrid, s: float) -> DensityGrid:
    """Apply exp(s * L_h), L_h the zero-Dirichlet three-point Laplacian, exactly.

    ``s`` is the noise level times the duration. At s = 0 this returns ``m``
    itself, and s < 0 raises ValueError. The sine vectors sin(k*pi*j/N)
    diagonalise L_h with eigenvalues -(4/dx^2) * sin^2(k*pi/(2N)). The real
    FFT of the odd extension of the node values is their sine transform (a
    DST-I), and a real multiplier keeps the extension odd, so the first N + 1
    entries of the inverse FFT are the diffused nodes. The semigroup is
    positive, so every interior node comes out positive; values at or below
    the transform's roundoff floor, negative roundoff included, are set to 0
    so the support stays finite.
    """
    if s < 0:
        raise ValueError(f"the heat step needs s >= 0, got {s}")
    if s == 0.0:
        return m
    n = m.n_cells
    lam = -(4.0 / m.dx**2) * np.sin(np.arange(n + 1) * (np.pi / (2 * n))) ** 2
    odd = np.concatenate([m.values, -m.values[-2:0:-1]])
    out = np.fft.irfft(np.fft.rfft(odd) * np.exp(s * lam), 2 * n)[: n + 1]
    out[out <= 64.0 * np.finfo(float).eps * out.max()] = 0.0
    out[[0, -1]] = 0.0
    return DensityGrid(m.lo, m.hi, out)


def drift_diffuse(
    m0: DensityGrid,
    schedule: ControlSchedule,
    sigma: float,
    t0: float,
    t1: float,
) -> DensityGrid:
    """Solve m_t + (v m)_x = sigma * m_xx from t0 to t1 with zero boundary values.

    The result is the push-forward followed by one exact heat step of length
    sigma * (t1 - t0), so with sigma = 0 it is :func:`push_forward`. With
    sigma > 0 every field on [t0, t1] must be a ``Constant``, so that
    transport is a translation that commutes with diffusion; any other field
    raises NotReduced. A zero horizon returns ``m0``.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if t1 == t0:
        return m0
    if sigma > 0.0 and not all(isinstance(f, Constant) for _, _, f in schedule.segments(t0, t1)):
        raise NotReduced("diffusion is solved only under spatially constant fields")
    return heat_step(push_forward(m0, schedule, t0, t1), sigma * (t1 - t0))
