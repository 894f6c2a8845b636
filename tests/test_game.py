"""Game module: value-table lookups, the min-max solver and its terminal grid."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masschase.controls import (
    AdmissibilityBounds,
    Constant,
    ControlDictionary,
    ControlSchedule,
    standard_dictionary,
)
from masschase.cost import (
    ControlEffort,
    MeanDiffSquared,
    Overlap,
    WindowDiffSquared,
    ZeroRunningCost,
    final_cost,
    running_cost,
)
from masschase.errors import BoxOverflow, TubeOverflow
from masschase.flow import cfl_time_steps, fokker_planck_solve
from masschase.game import (
    GameSpec,
    ValueTable,
    _prediffused,
    _terminal_grid,
    brute_force_value,
    dpp_residual,
    extract_strategy,
    simulate_play,
    solve_values,
    translate_density,
)
from masschase.scenarios import make_bump


def _table(W):
    """One-level table on the offset nodes -1, 0, 1 in both axes."""
    nodes = np.array([-1.0, 0.0, 1.0])
    W = np.asarray(W, dtype=float)[None]
    return ValueTable(
        times=np.array([0.0]), hx=nodes, hy=nodes, lower=W, upper=W, valid=np.isfinite(W)
    )


class TestValueAt:
    # only the centre cell is valid, as at level 0 of a grid-exact solved table
    RING = [[np.nan, np.nan, np.nan], [np.nan, 2.5, np.nan], [np.nan, np.nan, np.nan]]

    def test_valid_node_ignores_invalid_neighbours(self):
        t = _table(self.RING)
        assert t.value_at("lower", 0, 0.0, 0.0) == 2.5
        assert t.value_at("upper", 0, 0.0, 0.0) == 2.5

    def test_offsets_within_tolerance_snap_onto_the_node(self):
        t = _table(self.RING)
        for h in (1e-12, -1e-12, 5e-10):
            assert t.value_at("lower", 0, h, -h) == 2.5

    def test_between_nodes_is_bilinear(self):
        t = _table([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
        # W = 3 * (hX + 1) + (hY + 1) is bilinear, so interpolation is exact
        assert t.value_at("lower", 0, 0.25, -0.5) == pytest.approx(3 * 1.25 + 0.5, abs=1e-14)

    def test_between_a_valid_and_an_invalid_node_is_nan(self):
        t = _table(self.RING)
        assert np.isnan(t.value_at("lower", 0, 0.5, 0.0))

    def test_outside_the_box_raises(self):
        t = _table(self.RING)
        with pytest.raises(BoxOverflow):
            t.value_at("lower", 0, 1.5, 0.0)


FINAL_COSTS = (Overlap(), MeanDiffSquared(), WindowDiffSquared(0.4))
RUNNING_COSTS = (ZeroRunningCost(), ControlEffort(0.3, 0.7))


def _spec(gap, radius, n_steps, fc, rc, dictA=None, dictB=None, n_cells=256):
    """Two equal bumps ``gap`` apart on ``n_cells`` cells over [-3, 3], horizon 0.5."""
    d = standard_dictionary(1.0)
    return GameSpec(
        T=0.5, t0=0.0, n_steps=n_steps,
        mX0=make_bump(-3.0, 3.0, n_cells, -gap / 2, radius),
        mY0=make_bump(-3.0, 3.0, n_cells, gap / 2, radius),
        dictA=dictA or d, dictB=dictB or d, rc=rc, fc=fc,
    )


def _origin(table):
    return 0, int(np.argmin(np.abs(table.hx))), int(np.argmin(np.abs(table.hy)))


def _speeds(*cs):
    return ControlDictionary(tuple(Constant(c) for c in cs), AdmissibilityBounds(1.0))


games = st.tuples(
    st.floats(-1.2, 1.2),  # gap between the bump centres
    st.floats(0.3, 0.7),  # bump radius
    st.integers(1, 4),  # n_steps
)


class TestSolveValues:
    @pytest.mark.parametrize("rc", RUNNING_COSTS, ids=lambda rc: type(rc).__name__)
    @pytest.mark.parametrize("fc", FINAL_COSTS, ids=lambda fc: type(fc).__name__)
    @given(game=games)
    @settings(max_examples=8, deadline=None)
    def test_origin_values_match_the_game_tree(self, fc, rc, game):
        spec = _spec(*game, fc, rc)
        table = solve_values(spec)
        lower, upper = brute_force_value(spec)
        assert table.lower[_origin(table)] == pytest.approx(lower, rel=1e-12, abs=1e-15)
        assert table.upper[_origin(table)] == pytest.approx(upper, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("rc", RUNNING_COSTS, ids=lambda rc: type(rc).__name__)
    @given(game=games, bilinear=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_lower_never_exceeds_upper(self, rc, game, bilinear):
        # speeds +-0.4 land between offset nodes, so those shifts are bilinear
        d = _speeds(-1.0, -0.4, 0.0, 0.4, 1.0) if bilinear else None
        table = solve_values(_spec(*game, MeanDiffSquared(), rc, d, d))
        v = table.valid
        assert np.all(np.isfinite(table.lower[v])) and np.all(np.isfinite(table.upper[v]))
        assert np.all(table.lower[v] <= table.upper[v])

    @given(game=games, bilinear=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_dpp_residual_is_zero_at_every_level(self, game, bilinear):
        d = _speeds(-1.0, -0.4, 0.0, 0.4, 1.0) if bilinear else None
        spec = _spec(*game, Overlap(), ControlEffort(0.3, 0.7), d, d)
        table = solve_values(spec)
        assert [dpp_residual(table, spec, k) for k in range(spec.n_steps)] == [0.0] * spec.n_steps

    @pytest.mark.parametrize("rc", RUNNING_COSTS, ids=lambda rc: type(rc).__name__)
    @given(game=games)
    @settings(max_examples=8, deadline=None)
    def test_strategy_picks_reproduce_the_lower_table(self, rc, game):
        spec = _spec(*game, WindowDiffSquared(0.4), rc)
        table = solve_values(spec)
        strat = extract_strategy(spec, table)
        tube = (spec.mX0.lo, spec.mX0.hi)
        for k in range(spec.n_steps):
            v = table.valid[k]
            assert np.all(strat.a_index[k][~v] == -1) and np.all(strat.b_index[k][~v] == -1)
            for i, j in zip(*np.nonzero(v)):
                a = spec.dictA[strat.a_index[k, i, j]]
                b = spec.dictB[strat.b_index[k, i, j]]
                ell = running_cost(rc, spec.mX0, spec.mY0, spec.t0, a, b, tube)
                nxt = table.value_at(
                    "lower", k + 1, table.hx[i] + a.c * spec.dt, table.hy[j] + b.c * spec.dt
                )
                assert spec.dt * ell + nxt == pytest.approx(table.lower[k, i, j], rel=1e-14)

    def test_grid_exact_x_with_bilinear_y_solves(self):
        # the x shifts are whole nodes and the y shifts are not
        spec = _spec(0.6, 0.5, 4, MeanDiffSquared(), ZeroRunningCost(),
                     standard_dictionary(1.0), _speeds(-1.0, 0.4, 1.0))
        table = solve_values(spec)
        lower, upper = brute_force_value(spec)
        assert table.lower[_origin(table)] == pytest.approx(lower, rel=1e-12)
        assert table.upper[_origin(table)] == pytest.approx(upper, rel=1e-12)
        v = table.valid
        assert np.all(table.lower[v] <= table.upper[v])

    def test_dpp_residual_raises_when_an_advance_leaves_the_box(self):
        spec = _spec(0.6, 0.5, 1, MeanDiffSquared(), ZeroRunningCost())
        nodes = np.array([-0.5, 0.0, 0.5])  # dt = 0.5, so every advance is one node
        W = np.zeros((2, 3, 3))
        table = ValueTable(times=spec.level_times, hx=nodes, hy=nodes, lower=W, upper=W,
                           valid=np.ones(W.shape, dtype=bool))
        with pytest.raises(BoxOverflow):
            dpp_residual(table, spec, 0)


class TestSimulatePlay:
    """The realized cost of the played schedules against the table value."""

    @pytest.mark.parametrize("gap", (-0.5, 0.0, 0.6))
    @pytest.mark.parametrize("fc", FINAL_COSTS[:2], ids=lambda fc: type(fc).__name__)
    def test_zero_running_cost_game_realizes_the_table_value(self, fc, gap):
        spec = _spec(gap, 0.5, 4, fc, ZeroRunningCost())
        play = simulate_play(spec, solve_values(spec))
        assert play.realized_J == pytest.approx(play.table_value, rel=1e-12)

    @pytest.mark.parametrize(
        "fc, gap", [(MeanDiffSquared(), 0.6), (Overlap(), 0.0), (Overlap(), -0.2)],
        ids=("MeanDiffSquared", "Overlap-0.0", "Overlap-0.2"),
    )
    def test_effort_game_with_switching_controls_realizes_the_table_value(self, fc, gap):
        # 384 cells put every advance c * dt = 0.125 on whole density cells,
        # so the step-by-step transport of the realized path is exact and
        # only the running-cost integral can differ from the table
        spec = _spec(gap, 0.5, 4, fc, ControlEffort(0.3, 0.7), n_cells=384)
        play = simulate_play(spec, solve_values(spec))
        assert len(set(play.a_indices)) > 1 or len(set(play.b_indices)) > 1
        assert play.realized_J == pytest.approx(play.table_value, rel=1e-12)

    def test_bilinear_effort_game_realizes_the_table_value(self):
        # the +-0.4 speeds make the table bilinear; the played full-speed
        # advances are off the density nodes, so the realized path resamples
        # at every step and agreement is to that resampling error
        d = _speeds(-1.0, -0.4, 0.0, 0.4, 1.0)
        spec = _spec(1.2, 0.5, 3, MeanDiffSquared(), ControlEffort(0.3, 0.7), d, d)
        play = simulate_play(spec, solve_values(spec))
        assert play.realized_J == pytest.approx(play.table_value, rel=1e-5)


class TestNoisyGame:
    SIGMA = 0.02

    def _noisy(self, gap, n_steps, fc):
        return dataclasses.replace(
            _spec(gap, 0.5, n_steps, fc, ZeroRunningCost()), sigma=self.SIGMA
        )

    def test_prediffused_pair_equals_two_lone_marches(self):
        spec = self._noisy(0.6, 2, Overlap())
        mX, mY = _prediffused(spec)
        zero = ControlSchedule.constant(Constant(0.0), spec.t0, spec.T)
        n = cfl_time_steps(spec.mX0, zero, spec.sigma, spec.t0, spec.T)
        for m, m0 in ((mX, spec.mX0), (mY, spec.mY0)):
            lone = fokker_planck_solve(m0, zero, spec.sigma, spec.t0, spec.T, n)
            assert np.array_equal(m.values, lone.values)
        assert not np.array_equal(mX.values, spec.mX0.values)

    @pytest.mark.parametrize("n_steps", (1, 2, 3))
    @pytest.mark.parametrize("fc", FINAL_COSTS[:2], ids=lambda fc: type(fc).__name__)
    def test_origin_values_match_the_game_tree(self, fc, n_steps):
        spec = self._noisy(0.7, n_steps, fc)
        table = solve_values(spec)
        lower, upper = brute_force_value(spec)
        assert table.lower[_origin(table)] == pytest.approx(lower, rel=1e-12, abs=1e-15)
        assert table.upper[_origin(table)] == pytest.approx(upper, rel=1e-12, abs=1e-15)
        # the noise moves the value, so the test sees the diffused densities
        quiet = brute_force_value(_spec(0.7, 0.5, n_steps, fc, ZeroRunningCost()))
        assert lower != quiet[0]


class TestTerminalGrid:
    @pytest.mark.parametrize("fc", FINAL_COSTS, ids=lambda fc: type(fc).__name__)
    @given(
        gap=st.floats(-1.2, 1.2),
        radius=st.floats(0.3, 0.7),
        hx=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5),
        hy=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_per_offset_translation(self, fc, gap, radius, hx, hy):
        spec = _spec(gap, radius, 1, fc, ZeroRunningCost())
        grid = _terminal_grid(spec, np.array(hx), np.array(hy))
        for i, h in enumerate(hx):
            for j, g in enumerate(hy):
                ref = final_cost(fc, translate_density(spec.mX0, h), translate_density(spec.mY0, g))
                assert grid[i, j] == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_overflowing_offset_raises(self):
        spec = _spec(0.6, 0.5, 1, Overlap(), ZeroRunningCost())
        # mX0's support ends at 0.2, so a shift of 2.9 leaves [-3, 3]
        with pytest.raises(TubeOverflow):
            _terminal_grid(spec, np.array([0.0, 1.0, 2.9]), np.array([0.0]))
        with pytest.raises(TubeOverflow):
            translate_density(spec.mX0, 2.9)
