"""Discrete-time lower/upper game values on the rigid-translation state space.

When every dictionary field is spatially constant, transport is a pure
translation and the infinite-dimensional density state collapses to a pair
of offsets (hX, hY). The backward recursion follows the step-local strategy
discretization: the minimizer's step strategy is a map from the opponent's
choice to its own, and optimizing over such maps turns the lower value into
a max-over-b of min-over-a at every step (the upper value is the mirror
image, min-over-a of max-over-b). Ties break toward the lowest dictionary
index.

The value table lives on per-axis uniform offset grids sized so that every
offset reachable from the origin, together with the interpolation neighbors
of all its one-step advances, stays inside; cells outside that shrinking
safe region hold NaN and are excluded from residual checks. When every
dictionary speed advances by an exact multiple of the spacing (the default
spacing max-speed*dt with a {-c, 0, c} dictionary does), no interpolation
neighbors are needed and the box stays at its tight physical size. A
configuration whose reachable cone cannot fit raises BoxOverflow instead of
clamping, which would silently corrupt values near the edge.

The safe region of a level is a rectangle, a centred index range per axis.
One step kernel serves the solver, the strategy extraction and the DPP
residual: it builds each control pair's candidate only on that rectangle,
reading the advanced next level through slice views shifted by whole nodes
and blending them bilinearly. Running costs depend on the controls alone, so
one ``cost.running_cost_matrix`` serves every cell and level. The terminal
level translates each initial density for all offsets of its axis in one
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import Constant, ControlDictionary, ControlSchedule, schedule_from_sequence
from .cost import (
    FinalCost,
    MeanDiffSquared,
    Overlap,
    RunningCost,
    evaluate_J,
    final_cost,
    running_cost,
    running_cost_matrix,
)
from .errors import BoxOverflow, NotReduced, TooDeep, TubeOverflow, ZeroMass
from .flow import drift_diffuse
from .grid import DensityGrid, require_same_grid, simpson_weights, support_interval


@dataclass(frozen=True)
class GameSpec:
    """One full game instance.

    ``reduced`` asserts that all dictionary fields are constant so the
    translation reduction applies; shape-changing fields can only be played
    through explicit schedules and cost evaluation, not value iteration.
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
    reduced: bool = True

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.T > self.t0:
            raise ValueError("need T > t0")
        if self.reduced and not (self.dictA.all_constant() and self.dictB.all_constant()):
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


def _translated(m: DensityGrid, offsets: np.ndarray) -> np.ndarray:
    """Node values of m rigidly translated by each offset, one row per offset.

    Linear resampling in one pass, exact at node shifts. Every shifted
    support must stay inside the grid domain; the extreme offsets decide.
    """
    supp = support_interval(m)
    if supp is not None and offsets.size:
        for h in (float(offsets.min()), float(offsets.max())):
            if supp[0] + h < m.lo - 1e-12 or supp[1] + h > m.hi + 1e-12:
                raise TubeOverflow(
                    f"translation by {h:g} pushes support [{supp[0]:g},{supp[1]:g}] "
                    f"outside [{m.lo:g},{m.hi:g}]"
                )
    x = m.x
    v = np.interp(x[None, :] - offsets[:, None], x, m.values, left=0.0, right=0.0)
    # interpolating between a positive node and a zero one can round below 0
    np.maximum(v, 0.0, out=v)
    v[:, 0] = 0.0
    v[:, -1] = 0.0
    return v


def translate_density(m: DensityGrid, h: float) -> DensityGrid:
    """Rigid translation by h via linear resampling; exact at node shifts.

    The shifted support must stay inside the grid domain.
    """
    if h == 0.0:
        return m
    return DensityGrid(m.lo, m.hi, _translated(m, np.array([h]))[0])


def advance_reduced(
    hX: float, hY: float, a_index: int, b_index: int, spec: GameSpec, dt: float
) -> "tuple[float, float]":
    """One translation step under the chosen constant fields."""
    if not spec.reduced:
        raise NotReduced("advance_reduced requires a reduced game")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return hX + spec.dictA[a_index].c * dt, hY + spec.dictB[b_index].c * dt


class _Axis:
    """Offset axis bookkeeping: nodes, spacing, and per-level safe shrinkage."""

    def __init__(self, dictionary: ControlDictionary, dh: float, n_steps: int, dt: float):
        speeds = [f.c for f in dictionary.fields]
        self.c_max = max(abs(s) for s in speeds)
        self.dh = dh
        if self.c_max == 0.0:
            self.nodes = np.array([0.0])
            self.shrink = 0.0
            return
        grid_exact = all(
            abs(s * dt / dh - round(s * dt / dh)) < 1e-9 for s in speeds
        )
        # each backward level loses one advance length, plus one cell of
        # interpolation buffer when advances can land between nodes
        self.shrink = self.c_max * dt + (0.0 if grid_exact else dh)
        n_half = int(math.ceil(n_steps * self.shrink / dh - 1e-9))
        self.nodes = np.arange(-n_half, n_half + 1) * dh
        if self.nodes.size > 1:
            # split advances on the spacing the table reports as dh_x / dh_y,
            # so extract_strategy and dpp_residual re-read a table exactly
            # as it was solved; the two can differ in the last bit
            self.dh = float(self.nodes[1] - self.nodes[0])

    def safe_radius(self, steps_left: int) -> float:
        if self.nodes.size == 1:
            return 1e-9
        return float(self.nodes[-1]) - steps_left * self.shrink + 1e-9

    def valid_range(self, steps_left: int) -> slice:
        """Index range of the nodes inside the safe radius, centred on the origin."""
        inside = np.flatnonzero(np.abs(self.nodes) <= self.safe_radius(steps_left))
        return slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)


@dataclass(frozen=True)
class ValueTable:
    """Lower/upper value arrays over offset grid x time levels.

    NaN marks cells outside the safe (everything-interpolable) region of a
    level; the valid mask selects the rest.
    """

    times: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    valid: np.ndarray

    @property
    def dh_x(self) -> float:
        return float(self.hx[1] - self.hx[0]) if self.hx.size > 1 else 1.0

    @property
    def dh_y(self) -> float:
        return float(self.hy[1] - self.hy[0]) if self.hy.size > 1 else 1.0

    @staticmethod
    def _locate(nodes: np.ndarray, h: float) -> "tuple[int, float]":
        if nodes.size == 1:
            if abs(h - nodes[0]) > 1e-9:
                raise BoxOverflow(f"offset {h:g} outside the single-node axis")
            return 0, 0.0
        dh = nodes[1] - nodes[0]
        r = (h - nodes[0]) / dh
        if r < -1e-9 or r > nodes.size - 1 + 1e-9:
            raise BoxOverflow(
                f"offset {h:g} outside the table box [{nodes[0]:g},{nodes[-1]:g}]"
            )
        i = int(np.clip(math.floor(r), 0, nodes.size - 2))
        f = float(np.clip(r - i, 0.0, 1.0))
        # snap onto a node within the tolerance _split uses
        if abs(f - round(f)) < 1e-9:
            f = float(round(f))
        return i, f

    def value_at(self, which: str, level: int, hX: float, hY: float) -> float:
        """Bilinear interpolation of one stored value surface.

        Offsets within 1e-9 cell widths of a node snap onto it, and only
        corners of nonzero weight are read. A query on a valid node therefore
        returns that node's value exactly and never reads the NaN of a
        neighbouring cell outside the valid region.
        """
        if which not in ("lower", "upper"):
            raise ValueError("which must be 'lower' or 'upper'")
        W = (self.lower if which == "lower" else self.upper)[level]
        ix, fx = self._locate(self.hx, hX)
        iy, fy = self._locate(self.hy, hY)
        ix2 = min(ix + 1, self.hx.size - 1)
        iy2 = min(iy + 1, self.hy.size - 1)
        corners = (
            ((1 - fx) * (1 - fy), ix, iy),
            (fx * (1 - fy), ix2, iy),
            ((1 - fx) * fy, ix, iy2),
            (fx * fy, ix2, iy2),
        )
        return float(sum(w * W[i, j] for w, i, j in corners if w != 0.0))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("level,time,hX,hY,lower,upper\n")
            for k, t in enumerate(self.times):
                for i, hx in enumerate(self.hx):
                    for j, hy in enumerate(self.hy):
                        fh.write(
                            f"{k},{t:.17g},{hx:.17g},{hy:.17g},"
                            f"{self.lower[k, i, j]:.17g},{self.upper[k, i, j]:.17g}\n"
                        )


@dataclass(frozen=True)
class FeedbackStrategy:
    """Per-level argmax/argmin maps of the lower recursion; -1 where invalid."""

    hx: np.ndarray
    hy: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("level,hX,hY,a_index,b_index\n")
            for k in range(self.a_index.shape[0]):
                for i, hx in enumerate(self.hx):
                    for j, hy in enumerate(self.hy):
                        fh.write(
                            f"{k},{hx:.17g},{hy:.17g},"
                            f"{self.a_index[k, i, j]},{self.b_index[k, i, j]}\n"
                        )


def _prediffused(spec: GameSpec) -> "tuple[DensityGrid, DensityGrid]":
    """Terminal-time densities before translation.

    Diffusion commutes with translation and the noise level is not
    controlled, so with sigma > 0 the initial densities are diffused once
    over the whole horizon and only then translated per offset.
    """
    if spec.sigma <= 0.0:
        return spec.mX0, spec.mY0
    zero = ControlSchedule.constant(Constant(0.0), spec.t0, spec.T)
    return tuple(drift_diffuse(m, zero, spec.sigma, spec.t0, spec.T) for m in (spec.mX0, spec.mY0))


def _terminal_grid(spec: GameSpec, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Final cost on every translated pair; matrix products for the common costs."""
    mX, mY = _prediffused(spec)
    VX, VY = _translated(mX, hx), _translated(mY, hy)
    if isinstance(spec.fc, MeanDiffSquared):
        mu_x, mu_y = _row_means(VX, mX), _row_means(VY, mY)
        return (mu_x[:, None] - mu_y[None, :]) ** 2
    if isinstance(spec.fc, Overlap):
        require_same_grid(mX, mY)
        return (VX * (simpson_weights(mX.n_cells) * mX.dx)) @ VY.T
    tx = [mX.with_values(v) for v in VX]
    ty = [mY.with_values(v) for v in VY]
    out = np.empty((hx.size, hy.size))
    for i, mx_i in enumerate(tx):
        for j, my_j in enumerate(ty):
            out[i, j] = final_cost(spec.fc, mx_i, my_j)
    return out


def _row_means(V: np.ndarray, m: DensityGrid) -> np.ndarray:
    """``grid.mean`` of every row of V, node values on the grid of m.

    Each row takes the same dot product as ``grid.mean``, so the means match
    it bit for bit; a matrix product would sum in another order, and the
    squared mean gap amplifies that roundoff where the two means nearly meet.
    """
    w = simpson_weights(m.n_cells)
    if np.any(V @ w <= 0.0):
        raise ZeroMass("mean undefined for a zero-mass density")
    return np.array([np.dot(w, xv) for xv in m.x * V]) * m.dx


def _split(shift: float, dh: float, n: int) -> "tuple[int, float]":
    """Whole-node part and fraction of an advance along one offset axis."""
    if n == 1:
        if abs(shift) > 1e-12:
            raise BoxOverflow(f"advance {shift:g} leaves the single-node axis")
        return 0, 0.0
    r = shift / dh
    i = math.floor(r + 1e-9)
    f = r - i
    if f < 1e-9:
        f = 0.0
    return i, f


def _step_candidates(
    spec: GameSpec,
    ell: np.ndarray,
    next_level: np.ndarray,
    dhx: float,
    dhy: float,
    rect: "tuple[slice, slice]",
) -> np.ndarray:
    """Per-(b, a) candidates dt * ell[b, a] + advanced next level, on one rectangle.

    ``rect`` holds the row and column ranges of the cells valid at this
    level. Each advance reads slice views of ``next_level`` shifted by whole
    nodes and blends them bilinearly, skipping corners of zero weight. A view
    that would leave the box raises BoxOverflow. The running-cost matrix
    ``ell`` is state- and time-independent, so it serves every cell.
    """
    dt = spec.dt
    rows, cols = rect
    nx, ny = next_level.shape
    out = np.empty(ell.shape + (rows.stop - rows.start, cols.stop - cols.start))
    if out.size == 0:
        return out

    def view(kx: int, ky: int) -> np.ndarray:
        x0, x1, y0, y1 = rows.start + kx, rows.stop + kx, cols.start + ky, cols.stop + ky
        if x0 < 0 or x1 > nx or y0 < 0 or y1 > ny:
            raise BoxOverflow("an advance from the valid region leaves the offset box")
        return next_level[x0:x1, y0:y1]

    sx = [_split(a.c * dt, dhx, nx) for a in spec.dictA.fields]
    sy = [_split(b.c * dt, dhy, ny) for b in spec.dictB.fields]
    for bi, (iy, fy) in enumerate(sy):
        for ai, (ix, fx) in enumerate(sx):
            corners = [
                (w, kx, ky)
                for w, kx, ky in (
                    ((1 - fx) * (1 - fy), ix, iy),
                    (fx * (1 - fy), ix + 1, iy),
                    ((1 - fx) * fy, ix, iy + 1),
                    (fx * fy, ix + 1, iy + 1),
                )
                if w != 0.0
            ]
            c = out[bi, ai]
            if len(corners) == 1:
                np.add(dt * ell[bi, ai], view(ix, iy), out=c)
                continue
            np.multiply(corners[0][0], view(*corners[0][1:]), out=c)
            for w, kx, ky in corners[1:]:
                c += w * view(kx, ky)
            c += dt * ell[bi, ai]
    return out


def _valid_rect(valid: np.ndarray) -> "tuple[slice, slice]":
    """Row and column ranges of one level's valid cells, which form a rectangle."""
    rows = np.flatnonzero(valid.any(axis=1))
    cols = np.flatnonzero(valid.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    rect = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
    if not valid[rect].all():
        raise ValueError("the valid cells of a level must form a rectangle")
    return rect


def solve_values(
    spec: GameSpec,
    dh_x: "float | None" = None,
    dh_y: "float | None" = None,
) -> ValueTable:
    """Backward min-max recursion over the offset grid.

    Default spacing is max-speed times dt per axis, which makes one-step
    advances grid-exact for dictionaries of the form {-c, 0, c} and removes
    interpolation error on the canonical configurations.
    """
    if not spec.reduced:
        raise NotReduced("solve_values requires a reduced game")
    dt = spec.dt
    ax = _Axis(spec.dictA, dh_x if dh_x is not None else (spec.dictA.max_speed * dt or 1.0),
               spec.n_steps, dt)
    ay = _Axis(spec.dictB, dh_y if dh_y is not None else (spec.dictB.max_speed * dt or 1.0),
               spec.n_steps, dt)
    hx, hy = ax.nodes, ay.nodes

    L = spec.n_steps + 1
    for k in range(L):
        steps_left = spec.n_steps - k
        t_gone = spec.level_times[k] - spec.t0
        if ax.c_max * t_gone > ax.safe_radius(steps_left) + 1e-9:
            raise BoxOverflow("offset box too small for the reachable cone (x axis)")
        if ay.c_max * t_gone > ay.safe_radius(steps_left) + 1e-9:
            raise BoxOverflow("offset box too small for the reachable cone (y axis)")

    lower = np.full((L, hx.size, hy.size), np.nan)
    upper = np.full_like(lower, np.nan)
    valid = np.zeros(lower.shape, dtype=bool)

    terminal = _terminal_grid(spec, hx, hy)
    lower[-1] = terminal
    upper[-1] = terminal
    valid[-1] = True

    ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
    for k in range(spec.n_steps - 1, -1, -1):
        steps_left = spec.n_steps - k
        rect = ax.valid_range(steps_left), ay.valid_range(steps_left)
        c_lo = _step_candidates(spec, ell, lower[k + 1], ax.dh, ay.dh, rect)
        lo_k = np.max(np.min(c_lo, axis=1), axis=0)  # min over a, then max over b
        c_up = _step_candidates(spec, ell, upper[k + 1], ax.dh, ay.dh, rect)
        up_k = np.min(np.max(c_up, axis=0), axis=0)  # max over b, then min over a
        if not (np.all(np.isfinite(lo_k)) and np.all(np.isfinite(up_k))):
            raise BoxOverflow(f"level {k}: a safe-region cell lost its interpolation support")
        lower[k][rect] = lo_k
        upper[k][rect] = up_k
        valid[k][rect] = True

    times = spec.level_times
    for arr in (lower, upper, valid, hx, hy, times):
        arr.setflags(write=False)
    return ValueTable(times=times, hx=hx, hy=hy, lower=lower, upper=upper, valid=valid)


def extract_strategy(spec: GameSpec, table: ValueTable) -> FeedbackStrategy:
    """Argmax-b / argmin-a maps of the lower recursion, per level and cell."""
    if not spec.reduced:
        raise NotReduced("extract_strategy requires a reduced game")
    L = spec.n_steps
    shape = table.lower.shape[1:]
    a_idx = np.full((L,) + shape, -1, dtype=int)
    b_idx = np.full((L,) + shape, -1, dtype=int)
    ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
    for k in range(L):
        rect = _valid_rect(table.valid[k])
        cands = _step_candidates(spec, ell, table.lower[k + 1], table.dh_x, table.dh_y, rect)
        bk = cands.min(axis=1).argmax(axis=0)
        picked = np.take_along_axis(cands, bk[None, None], axis=0)[0]  # (na, rows, cols)
        a_idx[k][rect] = picked.argmin(axis=0)
        b_idx[k][rect] = bk
    return FeedbackStrategy(hx=table.hx, hy=table.hy, a_index=a_idx, b_index=b_idx)


def dpp_residual(table: ValueTable, spec: GameSpec, k: int) -> float:
    """Max mismatch between level k and a recomputed one-step lower recursion.

    Evaluated over the cells valid at level k; the solver's own table
    reproduces itself exactly. A table whose level k + 1 holds NaN where the
    recursion reads it gives NaN.
    """
    if not 0 <= k < spec.n_steps:
        raise ValueError(f"level k must be in [0, {spec.n_steps}), got {k}")
    rect = _valid_rect(table.valid[k])
    ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
    cands = _step_candidates(spec, ell, table.lower[k + 1], table.dh_x, table.dh_y, rect)
    if cands.size == 0:
        return 0.0
    recomputed = np.max(np.min(cands, axis=1), axis=0)
    return float(np.max(np.abs(recomputed - table.lower[k][rect])))


def brute_force_value(spec: GameSpec, max_steps: int = 4) -> "tuple[float, float]":
    """Exact game-tree evaluation at exact offsets; the oracle for tiny depths.

    Lower tree: max over b then min over a at each step; upper tree is the
    mirror image. Leaves evaluate the final cost on exactly translated
    densities, so no value interpolation enters anywhere.
    """
    if not spec.reduced:
        raise NotReduced("brute_force_value requires a reduced game")
    if spec.n_steps > max_steps:
        raise TooDeep(f"n_steps={spec.n_steps} exceeds the brute-force cap {max_steps}")

    mX, mY = _prediffused(spec)
    dt = spec.dt
    cache: dict = {}

    def leaf(hX: float, hY: float) -> float:
        key = ("leaf", hX, hY)
        if key not in cache:
            cache[key] = final_cost(spec.fc, translate_density(mX, hX), translate_density(mY, hY))
        return cache[key]

    def ell(ai: int, bi: int) -> float:
        return running_cost(spec.rc, spec.dictA[ai], spec.dictB[bi], spec.tube)

    def rec(k: int, hX: float, hY: float, lower: bool) -> float:
        if k == spec.n_steps:
            return leaf(hX, hY)
        key = (k, hX, hY, lower)
        if key in cache:
            return cache[key]
        if lower:
            outer = -np.inf
            for bi in range(len(spec.dictB)):
                inner = np.inf
                for ai in range(len(spec.dictA)):
                    hX2, hY2 = advance_reduced(hX, hY, ai, bi, spec, dt)
                    inner = min(inner, dt * ell(ai, bi) + rec(k + 1, hX2, hY2, True))
                outer = max(outer, inner)
        else:
            outer = np.inf
            for ai in range(len(spec.dictA)):
                inner = -np.inf
                for bi in range(len(spec.dictB)):
                    hX2, hY2 = advance_reduced(hX, hY, ai, bi, spec, dt)
                    inner = max(inner, dt * ell(ai, bi) + rec(k + 1, hX2, hY2, False))
                outer = min(outer, inner)
        cache[key] = float(outer)
        return cache[key]

    return rec(0, 0.0, 0.0, True), rec(0, 0.0, 0.0, False)


@dataclass(frozen=True)
class PlayResult:
    offsets: "tuple[tuple[float, float], ...]"
    a_indices: "tuple[int, ...]"
    b_indices: "tuple[int, ...]"
    realized_J: float
    table_value: float


def simulate_play(spec: GameSpec, table: ValueTable) -> PlayResult:
    """Forward play from the origin under the lower-recursion optimizers.

    At each step the maximizer commits its argmax choice and the minimizer
    answers with the argmin response; the realized cost is then evaluated on
    the induced explicit schedules through the transport machinery, closing
    the loop against the table value.
    """
    if not spec.reduced:
        raise NotReduced("simulate_play requires a reduced game")
    dt = spec.dt
    ell = running_cost_matrix(spec.rc, spec.dictA, spec.dictB, spec.tube)
    hX, hY = 0.0, 0.0
    offsets = [(hX, hY)]
    a_seq: "list[int]" = []
    b_seq: "list[int]" = []
    for k in range(spec.n_steps):
        best = None  # (value, bi, ai)
        for bi in range(len(spec.dictB)):
            inner = None  # (value, ai)
            for ai in range(len(spec.dictA)):
                hX2, hY2 = advance_reduced(hX, hY, ai, bi, spec, dt)
                v = dt * ell[bi, ai] + table.value_at("lower", k + 1, hX2, hY2)
                if inner is None or v < inner[0]:
                    inner = (v, ai)
            if best is None or inner[0] > best[0]:
                best = (inner[0], bi, inner[1])
        _, bi, ai = best
        a_seq.append(ai)
        b_seq.append(bi)
        hX, hY = advance_reduced(hX, hY, ai, bi, spec, dt)
        offsets.append((hX, hY))

    times = tuple(spec.level_times)
    alpha = schedule_from_sequence(times, a_seq, spec.dictA)
    beta = schedule_from_sequence(times, b_seq, spec.dictB)
    realized = evaluate_J(spec, alpha, beta)
    return PlayResult(
        offsets=tuple(offsets),
        a_indices=tuple(a_seq),
        b_indices=tuple(b_seq),
        realized_J=realized,
        table_value=table.value_at("lower", 0, 0.0, 0.0),
    )
