"""Discrete-time lower/upper game values on the relative-shift state space.

When every dictionary field is spatially constant, transport is a pure
translation and the infinite-dimensional density state collapses to a pair
of offsets (hX, hY). Every built-in final cost depends on the pair only
through the relative shift z = hX - hY (``cost.relative_final_cost``), and
every running cost depends on the controls alone, so the value is
V(k, hX, hY) = U(k, z) and the recursion is one-dimensional. It follows the
step-local strategy discretization: the minimizer's step strategy is a map
from the opponent's choice to its own, and optimizing over such maps turns
the lower value into a max-over-b of min-over-a at every step (the upper
value is the mirror image, min-over-a of max-over-b). Ties break toward the
lowest dictionary index.

U lives on a lattice z = m * dz with dz = c_max * dt / q, where q is the
smallest integer up to 16 that makes every speed * dt a whole number of
cells; then every advance reads the next level at a whole-node shift. If no
such q exists, q = 1 and advances interpolate linearly between the two
neighbouring nodes. Level k is valid on |m| <= k * R, the reach of k steps
from the origin, with R the widest one-step advance in cells; the terminal
level is the final cost at every node. One step kernel serves the solver and
the DPP residual. It reads the next level through a read-only strided window
with one row per whole-node advance, so every advance is one contiguous row
and a blended advance mixes two neighbouring rows.

``ValueTable`` also shows U on the offset plane: ``lower[k, i, j]`` is
``U_lower[k]`` at z = hx[i] - hy[j], a read-only strided view, with the
per-axis spacing max-speed * dt. The reachable set of each level there is a
centred rectangle; the table keeps its two per-axis sides and builds the
(level, i, j) mask only when ``valid`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .controls import ControlDictionary, schedule_from_sequence
from .cost import (
    FinalCost,
    RunningCost,
    relative_final_cost,
    running_cost,
    running_cost_integral,
    running_cost_matrix,
)
from .errors import BoxOverflow, TooDeep, TubeOverflow
from .flow import heat_step
from .grid import DensityGrid, support_interval

_MAX_Q = 16  # the finest lattice refinement tried before advances interpolate


@dataclass(frozen=True)
class GameSpec:
    """One full game instance.

    Every dictionary field must be ``Constant``, so the translation reduction
    applies; shape-changing fields can only be played through explicit
    schedules and ``evaluate_J``, not value iteration.
    """

    T: float
    t0: float
    n_steps: int
    mX0: DensityGrid
    mY0: DensityGrid
    dictA: ControlDictionary
    dictB: ControlDictionary
    rc: RunningCost
    fc: FinalCost
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.T > self.t0:
            raise ValueError("need T > t0")
        if not (self.dictA.all_constant() and self.dictB.all_constant()):
            raise ValueError("reduced game requires constant-only dictionaries")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    @property
    def level_times(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.n_steps + 1)

    @property
    def tube(self) -> "tuple[float, float]":
        """The interval the running cost integrates over: mX0's grid domain."""
        return self.mX0.lo, self.mX0.hi


def advance_reduced(
    hX: float, hY: float, a_index: int, b_index: int, spec: GameSpec
) -> "tuple[float, float]":
    """One translation step of length ``spec.dt`` under the chosen constant fields."""
    dt = spec.dt
    return hX + spec.dictA[a_index].c * dt, hY + spec.dictB[b_index].c * dt


def _split(shift: float, dz: float) -> "tuple[int, float]":
    """Whole-node part and fraction of a shift on the z lattice.

    Fractions within 1e-9 cells of a node snap onto it.
    """
    r = shift / dz
    i = math.floor(r + 1e-9)
    f = r - i
    return i, (0.0 if f < 1e-9 else f)


def _lattice(spec: GameSpec) -> "tuple[float, int]":
    """Spacing dz of the z lattice and the widest one-step advance in cells."""
    dt = spec.dt
    speeds = [f.c for f in spec.dictA.fields + spec.dictB.fields]
    c_max = max(abs(s) for s in speeds)
    if c_max == 0.0:
        return 1.0, 0
    q = next(
        (q for q in range(1, _MAX_Q + 1)
         if all(_split(s * dt, c_max * dt / q)[1] == 0.0 for s in speeds)),
        1,
    )
    dz = c_max * dt / q
    reach = (spec.dictA.max_speed + spec.dictB.max_speed) * dt / dz
    return dz, math.ceil(reach - 1e-9)


def _axis(c_max: float, dt: float, dz: float, n_steps: int) -> "tuple[int, int, float]":
    """Stride in lattice cells, node half-count and per-step reach of one offset axis.

    The spacing is c_max * dt when that is a whole number of cells, and one
    cell otherwise.
    """
    if c_max == 0.0:
        return 0, 0, 0.0
    per_step = c_max * dt / dz
    i, f = _split(c_max * dt, dz)
    p = i if f == 0.0 else 1
    return p, math.floor(n_steps * per_step / p + 1e-9), per_step


@dataclass(frozen=True)
class ValueTable:
    """Lower/upper values U on the z lattice, one row per time level.

    ``U_lower[k, m]`` and ``U_upper[k, m]`` hold the values at z = (m - M) * dz
    for the 2M + 1 lattice nodes; level k is valid for |m - M| <= reach[k] and
    holds NaN elsewhere. ``lower`` and ``upper`` show the same values on the
    offset plane (hx, hy) as read-only views. Each level's reachable set
    there is a centred rectangle: ``valid_x[k, i]`` and ``valid_y[k, j]``
    mark its sides, and ``valid`` builds the (level, i, j) mask from them
    only when it is read.
    """

    times: np.ndarray
    dz: float
    U_lower: np.ndarray
    U_upper: np.ndarray
    reach: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    valid_x: np.ndarray
    valid_y: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        """The reachable rectangle of each level on the offset plane, (level, i, j).

        Built when read, as a read-only array; ``valid_x`` and ``valid_y``
        hold its two per-axis sides.
        """
        valid = self.valid_x[:, :, None] & self.valid_y[:, None, :]
        valid.setflags(write=False)
        return valid

    @property
    def z(self) -> np.ndarray:
        half = (self.U_lower.shape[1] - 1) // 2
        return np.arange(-half, half + 1) * self.dz

    @property
    def dh_x(self) -> float:
        return float(self.hx[1] - self.hx[0]) if self.hx.size > 1 else 1.0

    @property
    def dh_y(self) -> float:
        return float(self.hy[1] - self.hy[0]) if self.hy.size > 1 else 1.0

    def _plane(self, U: np.ndarray) -> np.ndarray:
        """``U[k]`` at z = hx[i] - hy[j] as a read-only (level, i, j) view."""
        p = round(self.dh_x / self.dz) if self.hx.size > 1 else 0
        pp = round(self.dh_y / self.dz) if self.hy.size > 1 else 0
        half = (U.shape[1] - 1) // 2
        nx, ny = (self.hx.size - 1) // 2, (self.hy.size - 1) // 2
        if p * nx + pp * ny > half:
            raise ValueError("the offset plane reaches beyond the z lattice")
        s = U.strides[1]
        return as_strided(
            U[:, half - p * nx + pp * ny:],
            shape=(U.shape[0], self.hx.size, self.hy.size),
            strides=(U.strides[0], p * s, -pp * s),
            writeable=False,
        )

    @property
    def lower(self) -> np.ndarray:
        return self._plane(self.U_lower)

    @property
    def upper(self) -> np.ndarray:
        return self._plane(self.U_upper)

    def value_at(self, which: str, level: int, hX: float, hY: float) -> float:
        """Linear interpolation of U at z = hX - hY; exact on lattice nodes.

        Shifts within 1e-9 cells of a node snap onto it, and only nodes of
        nonzero weight are read. Raises ValueError for a level outside
        [0, n_steps], and BoxOverflow, naming the level and the shift, when a
        node it reads is not valid at that level.
        """
        if which not in ("lower", "upper"):
            raise ValueError("which must be 'lower' or 'upper'")
        n_steps = self.U_lower.shape[0] - 1
        if not 0 <= level <= n_steps:
            raise ValueError(f"level must be in [0, {n_steps}], got {level}")
        U = (self.U_lower if which == "lower" else self.U_upper)[level]
        z = hX - hY
        i, f = _split(z, self.dz)
        r = int(self.reach[level])
        if i < -r or i + (f > 0.0) > r:
            raise BoxOverflow(
                f"level {level}: shift z = {z:g} reads outside the valid range "
                f"|z| <= {r * self.dz:g}"
            )
        half = (U.size - 1) // 2
        if f == 0.0:
            return float(U[half + i])
        return float((1.0 - f) * U[half + i] + f * U[half + i + 1])


def _prediffused(spec: GameSpec) -> "tuple[DensityGrid, DensityGrid]":
    """Terminal-time densities before translation.

    Diffusion commutes with translation and the noise level is not
    controlled, so each initial density takes one heat step over the whole
    horizon (``flow.heat_step``, the identity at sigma = 0); the final cost
    at a shift z is that of the diffused pair.
    """
    s = spec.sigma * (spec.T - spec.t0)
    return heat_step(spec.mX0, s), heat_step(spec.mY0, s)


def _terminal_cost(spec: GameSpec):
    """The final cost as a function of z, after checking both densities fit.

    Raises TubeOverflow when a density's support, moved by its dictionary's
    full reach max-speed * (T - t0), would leave the grid domain.
    """
    mX, mY = _prediffused(spec)
    for m, d in ((mX, spec.dictA), (mY, spec.dictB)):
        supp = support_interval(m)
        h = d.max_speed * (spec.T - spec.t0)
        if supp is not None and (supp[0] - h < m.lo - 1e-12 or supp[1] + h > m.hi + 1e-12):
            raise TubeOverflow(
                f"a reach of {h:g} pushes support [{supp[0]:g},{supp[1]:g}] "
                f"outside [{m.lo:g},{m.hi:g}]"
            )
    return relative_final_cost(spec.fc, mX, mY)


@dataclass(frozen=True)
class _Step:
    """Every one-step advance (a - b) * dt on the z lattice, indexed [b, a].

    Each advance splits into whole nodes and a fraction (``_split``). The
    whole parts run from ``lo`` to ``hi`` counting the node a blend reaches
    to its right; ``rows`` is each advance's whole part less ``lo``, ``frac``
    its fraction, and ``blend`` marks the advances that land between nodes.
    ``cost`` is dt times the running-cost matrix, which is state- and
    time-independent and so serves every node and level.
    """

    lo: int
    hi: int
    rows: np.ndarray
    frac: np.ndarray
    blend: np.ndarray
    cost: np.ndarray

    @classmethod
    def of(cls, spec: GameSpec, dz: float) -> "_Step":
        split = np.array(
            [[_split((a.c - b.c) * spec.dt, dz) for a in spec.dictA.fields] for b in spec.dictB.fields]
        )
        ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
        whole, frac = split[..., 0].astype(int), split[..., 1]
        blend = frac > 0.0
        lo, hi = int(whole.min()), int((whole + blend).max())
        return cls(lo, hi, whole - lo, frac, blend, spec.dt * ell[:, :, None])

    def candidates(self, nxt: np.ndarray, reach_next: int, r: int) -> np.ndarray:
        """Candidates dt * ell[b, a] + the advanced next level, on |m| <= r.

        ``nxt`` holds the next level of U in its last axis, valid on
        |m| <= reach_next; the result has axes (..., b, a, m). The reads go
        through a read-only window over ``nxt`` with one row per whole-node
        advance from ``lo`` to ``hi``: row j holds the 2r + 1 nodes that
        start at m = lo - r + j. Every advance is then one row gather, and a
        blended advance mixes its row with the next one linearly, skipping a
        node of zero weight. A read outside the valid range raises
        BoxOverflow.
        """
        half = (nxt.shape[-1] - 1) // 2
        lim = min(reach_next, half)  # the window must also stay inside nxt
        if self.lo - r < -lim or self.hi + r > lim:
            raise BoxOverflow("an advance from the valid range leaves the valid range of the next level")
        s = nxt.strides[-1]
        win = as_strided(
            nxt[..., half - r + self.lo:],
            shape=nxt.shape[:-1] + (self.hi - self.lo + 1, 2 * r + 1),
            strides=nxt.strides[:-1] + (s, s),
            writeable=False,
        )
        out = win[..., self.rows, :]
        if self.blend.any():
            f = self.frac[self.blend][:, None]
            right = win[..., self.rows[self.blend] + 1, :]
            out[..., self.blend, :] = (1.0 - f) * out[..., self.blend, :] + f * right
        out += self.cost
        return out


def _lower_step(c: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.minimum.reduce(c, axis=1), axis=0)  # min over a, then max over b


def _upper_step(c: np.ndarray) -> np.ndarray:
    return np.minimum.reduce(np.maximum.reduce(c, axis=0), axis=0)  # max over b, then min over a


def solve_values(spec: GameSpec) -> ValueTable:
    """Backward min-max recursion over the z lattice.

    The terminal level is the final cost at every lattice node; level k is
    then computed on the nodes k steps can reach from the origin.
    """
    n, dt = spec.n_steps, spec.dt
    dz, R = _lattice(spec)
    half = n * R
    reach = np.arange(n + 1) * R
    z = np.arange(-half, half + 1) * dz

    # U[0] holds the lower value and U[1] the upper, so one read of the
    # next level serves both
    U = np.full((2, n + 1, z.size), np.nan)
    U[:, -1] = _terminal_cost(spec)(z)
    step = _Step.of(spec, dz)
    for k in range(n - 1, -1, -1):
        r, rows = reach[k], slice(half - reach[k], half + reach[k] + 1)
        cands = step.candidates(U[:, k + 1], reach[k + 1], r)
        U[0, k, rows] = _lower_step(cands[0])
        U[1, k, rows] = _upper_step(cands[1])

    px, nx, ax = _axis(spec.dictA.max_speed, dt, dz, n)
    py, ny, ay = _axis(spec.dictB.max_speed, dt, dz, n)
    hx = np.arange(-nx, nx + 1) * (px * dz)
    hy = np.arange(-ny, ny + 1) * (py * dz)
    levels = np.arange(n + 1)[:, None]
    valid_x = np.abs(np.arange(-nx, nx + 1) * px) <= levels * ax + 1e-9
    valid_y = np.abs(np.arange(-ny, ny + 1) * py) <= levels * ay + 1e-9

    times = spec.level_times
    for arr in (U, reach, hx, hy, valid_x, valid_y, times):
        arr.setflags(write=False)
    return ValueTable(times=times, dz=dz, U_lower=U[0], U_upper=U[1], reach=reach,
                      hx=hx, hy=hy, valid_x=valid_x, valid_y=valid_y)


def dpp_residual(table: ValueTable, spec: GameSpec, k: int) -> float:
    """Max mismatch between level k and a recomputed one-step lower recursion.

    Evaluated over the nodes valid at level k; the solver's own table
    reproduces itself exactly.
    """
    if not 0 <= k < spec.n_steps:
        raise ValueError(f"level k must be in [0, {spec.n_steps}), got {k}")
    half = (table.U_lower.shape[1] - 1) // 2
    r = int(table.reach[k])
    cands = _Step.of(spec, table.dz).candidates(table.U_lower[k + 1], int(table.reach[k + 1]), r)
    return float(np.max(np.abs(_lower_step(cands) - table.U_lower[k, half - r:half + r + 1])))


def brute_force_value(spec: GameSpec, max_steps: int = 4) -> "tuple[float, float]":
    """Exact game-tree evaluation at exact offsets; the oracle for tiny depths.

    Lower tree: max over b then min over a at each step; upper tree is the
    mirror image. No value interpolation enters anywhere: each leaf
    evaluates the final cost at its exact shift z = hX - hY through the same
    function the solver's terminal level uses, so the tree checks the
    recursion (optimization order, advances and running costs) and the
    final cost has oracles of its own.
    """
    if spec.n_steps > max_steps:
        raise TooDeep(f"n_steps={spec.n_steps} exceeds the brute-force cap {max_steps}")

    g = _terminal_cost(spec)
    dt = spec.dt
    cache: dict = {}

    def ell(ai: int, bi: int) -> float:
        return running_cost(spec.rc, spec.dictA[ai], spec.dictB[bi], spec.tube)

    def rec(k: int, hX: float, hY: float, lower: bool) -> float:
        if k == spec.n_steps:
            return float(g(hX - hY))
        key = (k, hX, hY, lower)
        if key in cache:
            return cache[key]
        if lower:
            outer = -np.inf
            for bi in range(len(spec.dictB)):
                inner = np.inf
                for ai in range(len(spec.dictA)):
                    hX2, hY2 = advance_reduced(hX, hY, ai, bi, spec)
                    inner = min(inner, dt * ell(ai, bi) + rec(k + 1, hX2, hY2, True))
                outer = max(outer, inner)
        else:
            outer = np.inf
            for ai in range(len(spec.dictA)):
                inner = -np.inf
                for bi in range(len(spec.dictB)):
                    hX2, hY2 = advance_reduced(hX, hY, ai, bi, spec)
                    inner = max(inner, dt * ell(ai, bi) + rec(k + 1, hX2, hY2, False))
                outer = min(outer, inner)
        cache[key] = float(outer)
        return cache[key]

    return rec(0, 0.0, 0.0, True), rec(0, 0.0, 0.0, False)


@dataclass(frozen=True)
class PlayResult:
    """The dictionary indices each player chose at each step, and the realized cost J.

    The table value that J is compared with is
    ``table.value_at("lower", 0, 0.0, 0.0)``.
    """

    a_indices: "tuple[int, ...]"
    b_indices: "tuple[int, ...]"
    realized_J: float


def simulate_play(spec: GameSpec, table: ValueTable) -> PlayResult:
    """Forward play from the origin under the lower-recursion optimizers.

    At each step the candidates dt * ell[b, a] + the next level of the lower
    table at the advanced offsets form a |B| x |A| matrix. The maximizer
    commits the b whose row minimum is largest, and the minimizer answers
    with the a that attains that minimum; both ties break toward the lowest
    index. The realized cost is the running-cost integral over the played
    schedules plus the final cost at the played shift z_T, through the
    function the table's terminal level uses; on a grid where every advance
    is an even whole number of density cells it also equals ``evaluate_J``
    of the played schedules.
    """
    dt = spec.dt
    ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
    hX, hY = 0.0, 0.0
    a_seq: "list[int]" = []
    b_seq: "list[int]" = []
    for k in range(spec.n_steps):
        v = np.array([
            [dt * ell[bi, ai] + table.value_at("lower", k + 1, *advance_reduced(hX, hY, ai, bi, spec))
             for ai in range(len(spec.dictA))]
            for bi in range(len(spec.dictB))
        ])
        bi = int(np.argmax(v.min(axis=1)))
        ai = int(np.argmin(v[bi]))
        a_seq.append(ai)
        b_seq.append(bi)
        hX, hY = advance_reduced(hX, hY, ai, bi, spec)

    times = tuple(spec.level_times)
    alpha = schedule_from_sequence(times, a_seq, spec.dictA)
    beta = schedule_from_sequence(times, b_seq, spec.dictB)
    realized = running_cost_integral(spec, alpha, beta) + float(_terminal_cost(spec)(hX - hY))
    return PlayResult(a_indices=tuple(a_seq), b_indices=tuple(b_seq), realized_J=realized)
