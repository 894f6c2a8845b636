"""Transport pairings, the min-max Hamiltonian, and residual checks.

The pairing of a gradient representer p with the transport term div(f*m) is
evaluated in integration-by-parts form, -integral f*m*p', which is exact for
compactly supported m. Discretely it uses the composite Simpson norm
(``grid.simpson_weights``), the same rule that normalizes every density in
``total_mass`` and defines ``mean``, together with its summation-by-parts
partner derivative ``grid.simpson_sbp_diff``. That pair satisfies summation
by parts exactly, and the Simpson representers of the closed-form candidates
below are the ones this norm pairs against, so their Isaacs residuals are at
machine precision instead of quadrature-noise level.
"""

from __future__ import annotations

import numpy as np

from .controls import ControlDictionary, ControlField
from .cost import RunningCost, running_cost_matrix
from .grid import (
    DensityGrid,
    GradientGrid,
    mean,
    require_same_grid,
    simpson_sbp_diff,
    simpson_weights,
)


def transport_pairing(
    p: GradientGrid,
    f: ControlField,
    m: DensityGrid,
    sigma: float = 0.0,
) -> float:
    """Pairing of p with the (possibly diffusive) transport operator on m.

    Returns -integral f*m*p' dx, plus -sigma * integral m'' * p dx when
    sigma > 0. The density must vanish at the grid boundary for the
    integration-by-parts form to hold. It integrates with the Simpson norm
    and differentiates with its summation-by-parts partner. The diffusive
    term takes m'' as that partner applied twice, so for a density that
    vanishes on the two cells at each end it equals -sigma * integral m * p''
    discretely as well.
    """
    require_same_grid(p, m)
    w = simpson_weights(m.n_cells) * m.dx
    val = -float(np.dot(w, f.value(m.x) * m.values * simpson_sbp_diff(p.values, p.dx)))
    if sigma > 0.0:
        m2 = simpson_sbp_diff(simpson_sbp_diff(m.values, m.dx), m.dx)
        val -= sigma * float(np.dot(w, m2 * p.values))
    return val


def hamiltonian_minmax(
    mX: DensityGrid,
    mY: DensityGrid,
    p: GradientGrid,
    q: GradientGrid,
    dictA: ControlDictionary,
    dictB: ControlDictionary,
    rc: RunningCost,
    sigma: float = 0.0,
) -> float:
    """Exact min over the b-dictionary of max over the a-dictionary.

    The objective is pairing(p, a, mX) + pairing(q, b, mY) - running cost,
    with the running cost integrated over mX's grid domain; both pairings
    carry the diffusive term when sigma > 0. Returns ``min_b max_a`` of the
    |B| x |A| matrix of that objective.
    """
    pair_a = np.array([transport_pairing(p, a, mX, sigma) for a in dictA.fields])
    pair_b = np.array([transport_pairing(q, b, mY, sigma) for b in dictB.fields])
    ell = running_cost_matrix(rc, dictA, dictB, (mX.lo, mX.hi))
    matrix = pair_a[None, :] + pair_b[:, None] - ell
    return float(matrix.max(axis=1).min())


class Psi3Analytic:
    """Closed-form candidate for the mean-gap game: V = (muX - muY)^2.

    Time-independent; its density differentials are the linear representers
    2*(muX - muY)*x and -2*(muX - muY)*x sampled on the grid.
    """

    def time_derivative(self, mX: DensityGrid, mY: DensityGrid, t: float) -> float:
        return 0.0

    def grad_x(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        gap = mean(mX) - mean(mY)
        return GradientGrid(mX.lo, mX.hi, 2.0 * gap * mX.x)

    def grad_y(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        gap = mean(mX) - mean(mY)
        return GradientGrid(mY.lo, mY.hi, -2.0 * gap * mY.x)


class Psi1Analytic:
    """Closed-form candidate for the overlap game: V = integral mX*mY.

    Time-independent; the differential in each density is the other density.
    """

    def time_derivative(self, mX: DensityGrid, mY: DensityGrid, t: float) -> float:
        return 0.0

    def grad_x(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        return GradientGrid(mY.lo, mY.hi, mY.values)

    def grad_y(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        return GradientGrid(mX.lo, mX.hi, mX.values)


class TabulatedCandidate:
    """Candidate backed by the lower values of a solved reduced game.

    Valid only for constant-control reduced games with unit masses: there a
    density state is a pure translate of the initial one, so its offset is
    recovered from the mean shift, and for constant fields the pairing with
    any representer is determined by the z-derivative of the table value
    U(z), z = hX - hY. The linear representers U'(z) * x for mX and
    -U'(z) * x for mY reproduce exactly that pairing; U'(z) is one centred
    difference over the lattice spacing dz. Time derivatives come from
    one-sided level differencing, so residuals of an unconverged table are
    O(dt) by construction: they are meant to be reported, not asserted
    small. Where a shift the differences read is not valid at the level,
    ``value_at`` raises BoxOverflow.
    """

    def __init__(self, table, spec):
        self.table = table
        self.spec = spec
        self._mu_x0 = mean(spec.mX0)
        self._mu_y0 = mean(spec.mY0)

    def _offsets(self, mX: DensityGrid, mY: DensityGrid) -> "tuple[float, float]":
        return mean(mX) - self._mu_x0, mean(mY) - self._mu_y0

    def _level_near(self, t: float) -> int:
        times = self.table.times
        return int(np.clip(np.searchsorted(times, t + 1e-12) - 1, 0, times.size - 2))

    def _v(self, level: int, hX: float, hY: float) -> float:
        return self.table.value_at("lower", level, hX, hY)

    def _z_derivative(self, mX: DensityGrid, mY: DensityGrid, t: float) -> float:
        hX, hY = self._offsets(mX, mY)
        k = self._level_near(t)
        dz = self.table.dz
        return (self._v(k, hX + dz, hY) - self._v(k, hX - dz, hY)) / (2.0 * dz)

    def time_derivative(self, mX: DensityGrid, mY: DensityGrid, t: float) -> float:
        hX, hY = self._offsets(mX, mY)
        k = self._level_near(t)
        dt = self.table.times[k + 1] - self.table.times[k]
        return (self._v(k + 1, hX, hY) - self._v(k, hX, hY)) / dt

    def grad_x(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        return GradientGrid(mX.lo, mX.hi, self._z_derivative(mX, mY, t) * mX.x)

    def grad_y(self, mX: DensityGrid, mY: DensityGrid, t: float) -> GradientGrid:
        return GradientGrid(mY.lo, mY.hi, -self._z_derivative(mX, mY, t) * mY.x)


def isaacs_residual(
    candidate,
    mX: DensityGrid,
    mY: DensityGrid,
    t: float,
    dictA: ControlDictionary,
    dictB: ControlDictionary,
    rc: RunningCost,
    sigma: float = 0.0,
) -> float:
    """-V_t + H(mX, mY, D_X V, D_Y V) for a candidate value function at time t.

    A candidate is any object with ``time_derivative``, ``grad_x`` and
    ``grad_y`` methods of (mX, mY, t); its value itself is never read. H is
    ``hamiltonian_minmax``, whose pairings carry the diffusive term when
    sigma > 0. With a zero running cost the min-max and the separate sup/inf
    split agree because the objective is separable in the two controls.
    """
    p = candidate.grad_x(mX, mY, t)
    q = candidate.grad_y(mX, mY, t)
    h = hamiltonian_minmax(mX, mY, p, q, dictA, dictB, rc, sigma)
    return -candidate.time_derivative(mX, mY, t) + h
