"""Game module: value-table lookups, the min-max solver on the z lattice, and play."""

import dataclasses
import itertools

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
from masschase.controls import schedule_from_sequence
from masschase.cost import (
    ControlEffort,
    MeanDiffSquared,
    Overlap,
    WindowDiffSquared,
    ZeroRunningCost,
    evaluate_J,
    running_cost,
)
from masschase.errors import BoxOverflow, TubeOverflow
from masschase.flow import drift_diffuse
from masschase.game import (
    GameSpec,
    ValueTable,
    _Step,
    _prediffused,
    brute_force_value,
    dpp_residual,
    simulate_play,
    solve_values,
)
from masschase.scenarios import make_bump

from conftest import scatter_dictionary


def _table(U, reach):
    """A hand-built table on the z nodes -1, 0, 1 (dz = 1)."""
    U = np.asarray(U, dtype=float)
    return ValueTable(
        times=np.arange(U.shape[0], dtype=float), dz=1.0, U_lower=U, U_upper=U,
        reach=np.asarray(reach),
    )


class TestValueAt:
    # level 0 is valid only at z = 0, as in a solved table; level 1 everywhere
    U = [[np.nan, 2.5, np.nan], [1.0, 4.0, 10.0]]

    def test_valid_node_ignores_invalid_neighbours(self):
        t = _table(self.U, [0, 1])
        assert t.value_at("lower", 0, 0.0, 0.0) == 2.5
        assert t.value_at("upper", 0, 0.3, 0.3) == 2.5

    def test_offsets_within_tolerance_snap_onto_the_node(self):
        t = _table(self.U, [0, 1])
        for h in (1e-12, -1e-12, 4e-10):
            assert t.value_at("lower", 0, h, -h) == 2.5

    def test_between_nodes_is_linear_in_the_shift(self):
        t = _table(self.U, [0, 1])
        assert t.value_at("lower", 1, 0.75, 0.5) == pytest.approx(0.75 * 4.0 + 0.25 * 10.0, abs=1e-14)
        assert t.value_at("lower", 1, -0.5, 0.0) == pytest.approx(2.5, abs=1e-14)

    def test_between_a_valid_and_an_invalid_node_raises(self):
        t = _table(self.U, [0, 1])
        with pytest.raises(BoxOverflow, match=r"level 0: shift z = 0\.5"):
            t.value_at("lower", 0, 0.5, 0.0)

    def test_outside_the_box_raises(self):
        t = _table(self.U, [0, 1])
        with pytest.raises(BoxOverflow, match="level 1"):
            t.value_at("lower", 1, 1.5, 0.0)

    @pytest.mark.parametrize("level", (-1, 2))
    def test_a_level_outside_the_table_raises(self, level):
        # the table has n_steps = 1; -1 must not wrap around to the terminal level
        t = _table(self.U, [0, 1])
        with pytest.raises(ValueError, match=r"level must be in \[0, 1\]"):
            t.value_at("lower", level, 0.0, 0.0)


class TestGameSpec:
    @pytest.mark.parametrize("side", ("dictA", "dictB"))
    def test_a_non_constant_field_is_rejected(self, side):
        # the translation reduction needs every field to be Constant
        m = make_bump(-3.0, 3.0, 256, 0.0, 0.5)
        dicts = {"dictA": standard_dictionary(1.0), "dictB": standard_dictionary(1.0)}
        dicts[side] = scatter_dictionary(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="constant-only"):
            GameSpec(
                T=0.5, t0=0.0, n_steps=2, mX0=m, mY0=m, rc=ZeroRunningCost(), fc=Overlap(), **dicts
            )


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

# the standard lattice; +-0.4, whole cells only on the lattice refined five
# times; and +-0.37, which no refinement up to 16 makes whole, so advances
# by it interpolate between lattice nodes
DICTS = {
    "standard": standard_dictionary(1.0),
    "fifths": _speeds(-1.0, -0.4, 0.0, 0.4, 1.0),
    "interpolated": _speeds(-1.0, -0.37, 0.0, 0.37, 1.0),
}
dicts = st.sampled_from(sorted(DICTS)).map(DICTS.get)


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
    @given(game=games, d=dicts)
    @settings(max_examples=10, deadline=None)
    def test_lower_never_exceeds_upper(self, rc, game, d):
        table = solve_values(_spec(*game, MeanDiffSquared(), rc, d, d))
        v = table.valid
        assert np.all(np.isfinite(table.lower[v])) and np.all(np.isfinite(table.upper[v]))
        assert np.all(table.lower[v] <= table.upper[v])

    @given(game=games, d=dicts)
    @settings(max_examples=10, deadline=None)
    def test_dpp_residual_is_zero_at_every_level(self, game, d):
        spec = _spec(*game, Overlap(), ControlEffort(0.3, 0.7), d, d)
        table = solve_values(spec)
        assert [dpp_residual(table, spec, k) for k in range(spec.n_steps)] == [0.0] * spec.n_steps

    @pytest.mark.parametrize("rc", RUNNING_COSTS, ids=lambda rc: type(rc).__name__)
    @pytest.mark.parametrize("slow", ("A", "B"))
    @given(game=games)
    @settings(max_examples=5, deadline=None)
    def test_every_level_matches_a_recursion_through_value_at(self, rc, slow, game):
        # a player limited to +-0.37 moves between lattice nodes at every
        # step, so the kernel's linear blend decides many of the values
        slow_d, fast_d = _speeds(-0.37, 0.0, 0.37), standard_dictionary(1.0)
        dA, dB = (slow_d, fast_d) if slow == "A" else (fast_d, slow_d)
        spec = _spec(*game, MeanDiffSquared(), rc, dA, dB)
        table = solve_values(spec)
        dt, z = spec.dt, table.z

        def candidates(which, k, z0):  # indexed [b, a]
            return np.array([
                [dt * running_cost(rc, a, b, spec.tube)
                 + table.value_at(which, k + 1, z0 + a.c * dt, b.c * dt) for a in dA.fields]
                for b in dB.fields
            ])

        for k in range(spec.n_steps):
            for m in np.flatnonzero(np.abs(z) <= table.reach[k] * table.dz + 1e-12):
                lower = candidates("lower", k, z[m]).min(axis=1).max()
                upper = candidates("upper", k, z[m]).max(axis=0).min()
                assert table.U_lower[k, m] == pytest.approx(lower, rel=1e-12, abs=1e-14)
                assert table.U_upper[k, m] == pytest.approx(upper, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "dictA, dictB, refinement",
        [("standard", "standard", 1), ("fifths", "fifths", 5), ("standard", "halves", 2),
         ("interpolated", "standard", 1)],
    )
    def test_the_lattice_is_refined_until_every_advance_is_whole(self, dictA, dictB, refinement):
        d = dict(DICTS, halves=_speeds(-0.5, 0.0, 0.5))
        spec = _spec(0.6, 0.5, 4, MeanDiffSquared(), ZeroRunningCost(), d[dictA], d[dictB])
        assert solve_values(spec).dz == pytest.approx(spec.dt / refinement, rel=1e-15)

    @pytest.mark.parametrize("cA, cB", [(1.0, 0.5), (0.5, 1.0), (0.37, 1.0)])
    def test_the_offset_plane_reads_U_at_the_relative_shift(self, cA, cB):
        # the plane views show its hY = 0 row, where hx is the z lattice
        spec = _spec(0.6, 0.5, 6, Overlap(), ControlEffort(0.3, 0.7),
                     _speeds(-cA, 0.0, cA), _speeds(-cB, 0.0, cB))
        table = solve_values(spec)
        for view in (table.lower, table.upper, table.valid):
            assert not view.flags.writeable
        assert np.array_equal(table.hx, table.z) and np.array_equal(table.hy, [0.0])
        half = (table.z.size - 1) // 2
        m = np.arange(-half, half + 1)
        assert np.array_equal(table.valid, (np.abs(m) <= table.reach[:, None])[:, :, None])
        for k, i, j in zip(*np.nonzero(table.valid)):
            assert table.lower[k, i, j] == table.value_at("lower", k, table.hx[i], 0.0)
            assert table.upper[k, i, j] == table.value_at("upper", k, table.hx[i], 0.0)

    def test_fractional_y_speeds_match_the_game_tree(self):
        # dictB's 0.4 is a whole number of cells only on the refined lattice
        spec = _spec(0.6, 0.5, 4, MeanDiffSquared(), ZeroRunningCost(),
                     standard_dictionary(1.0), _speeds(-1.0, 0.4, 1.0))
        table = solve_values(spec)
        lower, upper = brute_force_value(spec)
        assert table.lower[_origin(table)] == pytest.approx(lower, rel=1e-12)
        assert table.upper[_origin(table)] == pytest.approx(upper, rel=1e-12)
        v = table.valid
        assert np.all(table.lower[v] <= table.upper[v])

    def test_dpp_residual_raises_when_an_advance_leaves_the_box(self):
        # dt = 0.5 and dz = 0.5, so level 0 reads level 1 two nodes out,
        # where this table holds no node
        spec = _spec(0.6, 0.5, 1, MeanDiffSquared(), ZeroRunningCost())
        U = np.zeros((2, 3))
        table = ValueTable(times=spec.level_times, dz=0.5, U_lower=U, U_upper=U,
                           reach=np.array([0, 1]))
        with pytest.raises(BoxOverflow):
            dpp_residual(table, spec, 0)

    def test_a_reach_beyond_the_domain_raises(self):
        # mX0's support starts at -2.9 and the full reach is 0.5
        d = standard_dictionary(1.0)
        spec = GameSpec(
            T=0.5, t0=0.0, n_steps=2, mX0=make_bump(-3.0, 3.0, 256, -2.6, 0.3),
            mY0=make_bump(-3.0, 3.0, 256, 0.0, 0.3), dictA=d, dictB=d,
            rc=ZeroRunningCost(), fc=Overlap(),
        )
        with pytest.raises(TubeOverflow):
            solve_values(spec)
        with pytest.raises(TubeOverflow):
            brute_force_value(spec)
        # a slower minimizer reaches only 0.05, which stays inside
        solve_values(dataclasses.replace(spec, dictA=_speeds(-0.1, 0.0, 0.1)))

    @staticmethod
    def _noisy(pad):
        """The viscosity sweep's bumps at sigma = 0.1, T = 0.5, padded ``pad`` on each side.

        Each player has one speed, 0.1 and -3.0, so the widest reach is 1.5.
        """
        d = {c: ControlDictionary((Constant(c),), AdmissibilityBounds(3.0)) for c in (0.1, -3.0)}
        lo, hi = -1.0 - pad, 1.0 + pad
        return GameSpec(
            T=0.5, t0=0.0, n_steps=4, mX0=make_bump(lo, hi, 512, -0.4, 0.6),
            mY0=make_bump(lo, hi, 512, 0.4, 0.6), dictA=d[0.1], dictB=d[-3.0],
            rc=ZeroRunningCost(), fc=Overlap(), sigma=0.1,
        )

    def test_a_noisy_game_solves_with_the_sweep_pad(self):
        # the heat step's support ends only at the roundoff floor, so the
        # reach is checked against the initial supports; the sweep's pad of
        # 6 heat-kernel widths beyond the reach then gives the value a pad
        # of 8 widths gives
        width = np.sqrt(2.0 * 0.1 * 0.5)
        v6, v8 = (solve_values(self._noisy(1.5 + k * width)).value_at("lower", 0, 0.0, 0.0)
                  for k in (6, 8))
        assert v6 == pytest.approx(v8, rel=2e-5)

    def test_a_noisy_game_raises_when_the_initial_support_cannot_reach(self):
        # mY0's support [-0.2, 1.0] moved by the reach 1.5 needs a pad of 1.5
        spec = self._noisy(1.4)
        with pytest.raises(TubeOverflow, match="a reach of 1.5"):
            solve_values(spec)
        with pytest.raises(TubeOverflow):
            brute_force_value(spec)


def _per_element_candidates(step, nxt, reach_next, r):
    """The step kernel's candidates through a per-element index, nxt[..., whole + cols]."""
    whole = step.rows + step.lo
    half = (nxt.shape[-1] - 1) // 2
    cols = np.arange(half - r, half + r + 1)
    out = nxt[..., whole[:, :, None] + cols]
    if step.blend.any():
        f = step.frac[step.blend][:, None]
        right = nxt[..., whole[step.blend][:, None] + cols + 1]
        out[..., step.blend, :] = (1.0 - f) * out[..., step.blend, :] + f * right
    out += step.cost
    return out


class TestStepKernel:
    # the lattices of DICTS, plus one where every move interpolates and one
    # refined twice
    PAIRS = dict(DICTS, only37=_speeds(-0.37, 0.0, 0.37), halves=_speeds(-0.5, 0.0, 0.5))

    @pytest.mark.parametrize("rc", RUNNING_COSTS, ids=lambda rc: type(rc).__name__)
    @pytest.mark.parametrize("fc", FINAL_COSTS[:2], ids=lambda fc: type(fc).__name__)
    def test_the_window_read_equals_a_per_element_gather_bit_for_bit(self, fc, rc, monkeypatch):
        specs = [
            _spec(0.6, 0.5, n_steps, fc, rc, self.PAIRS[a], self.PAIRS[b])
            for a, b in itertools.product(self.PAIRS, repeat=2) for n_steps in (3, 8)
        ]
        tables = [solve_values(spec) for spec in specs]
        monkeypatch.setattr(_Step, "candidates", _per_element_candidates)
        for spec, table in zip(specs, tables):
            ref = solve_values(spec)
            assert np.array_equal(table.U_lower, ref.U_lower, equal_nan=True)
            assert np.array_equal(table.U_upper, ref.U_upper, equal_nan=True)


class TestSimulatePlay:
    """The realized cost of the played schedules against the table value."""

    @pytest.mark.parametrize("gap", (-0.5, 0.0, 0.6))
    @pytest.mark.parametrize("fc", FINAL_COSTS[:2], ids=lambda fc: type(fc).__name__)
    def test_zero_running_cost_game_realizes_the_table_value(self, fc, gap):
        spec = _spec(gap, 0.5, 4, fc, ZeroRunningCost())
        table = solve_values(spec)
        play = simulate_play(spec, table)
        assert play.realized_J == pytest.approx(table.value_at("lower", 0, 0.0, 0.0), rel=1e-12)

    @pytest.mark.parametrize(
        "fc, gap, n_cells",
        [(MeanDiffSquared(), 0.6, 384), (Overlap(), 0.0, 384), (Overlap(), -0.2, 384),
         (Overlap(), 0.0, 256)],
        ids=("MeanDiffSquared", "Overlap-0.0", "Overlap-0.2", "Overlap-0.0-256cells"),
    )
    def test_effort_game_with_switching_controls_realizes_the_table_value(self, fc, gap, n_cells):
        # the realized cost reads the final cost at the played shift through
        # the table's own function, whether or not the advances c * dt = 0.125
        # are whole density cells (384 cells) or not (256)
        spec = _spec(gap, 0.5, 4, fc, ControlEffort(0.3, 0.7), n_cells=n_cells)
        table = solve_values(spec)
        play = simulate_play(spec, table)
        assert len(set(play.a_indices)) > 1 or len(set(play.b_indices)) > 1
        assert play.realized_J == pytest.approx(table.value_at("lower", 0, 0.0, 0.0), rel=1e-12)

    def test_five_speed_effort_game_realizes_the_table_value(self):
        # the +-0.4 speeds are whole cells of the refined lattice, so the
        # table is exact along every played path
        d = DICTS["fifths"]
        spec = _spec(1.2, 0.5, 3, MeanDiffSquared(), ControlEffort(0.3, 0.7), d, d)
        table = solve_values(spec)
        play = simulate_play(spec, table)
        assert play.realized_J == pytest.approx(table.value_at("lower", 0, 0.0, 0.0), rel=1e-12)

    WHOLE = {k: v for k, v in dict(DICTS, halves=_speeds(-0.5, 0.0, 0.5)).items() if k != "interpolated"}

    @pytest.mark.parametrize("dictB", sorted(WHOLE))
    @pytest.mark.parametrize("dictA", sorted(WHOLE))
    def test_every_pick_attains_the_lower_value_with_the_first_optimal_index(self, dictA, dictB):
        # every advance is a whole node, so each step's candidates are the
        # entries the solver's lower step reduced, summed in the same order
        dA, dB = self.WHOLE[dictA], self.WHOLE[dictB]
        for fc, rc, gap in itertools.product(FINAL_COSTS, RUNNING_COSTS, (-0.5, 0.0, 0.6)):
            spec = _spec(gap, 0.5, 6, fc, rc, dA, dB)
            table = solve_values(spec)
            play = simulate_play(spec, table)
            ell = np.array([[running_cost(rc, a, b, spec.tube) for a in dA.fields] for b in dB.fields])
            hX, hY = 0.0, 0.0
            for k, (ai, bi) in enumerate(zip(play.a_indices, play.b_indices)):
                v = np.array([
                    [spec.dt * ell[b, a] + table.value_at(
                        "lower", k + 1, hX + dA[a].c * spec.dt, hY + dB[b].c * spec.dt)
                     for a in range(len(dA))]
                    for b in range(len(dB))
                ])
                value = v[bi, ai]
                assert value == table.value_at("lower", k, hX, hY)
                assert value == v[bi].min() == v.min(axis=1).max()
                assert np.all(v[:bi].min(axis=1) < value) and np.all(v[bi, :ai] > value)
                hX, hY = hX + dA[ai].c * spec.dt, hY + dB[bi].c * spec.dt

    @pytest.mark.parametrize("fc", FINAL_COSTS, ids=lambda fc: type(fc).__name__)
    @pytest.mark.parametrize("gap", (-0.2, 0.6))
    def test_transport_of_the_played_schedules_realizes_the_same_cost(self, fc, gap):
        # 384 cells on [-3, 3]: every advance c * dt = 0.125 is 8 cells, an
        # even whole number, so evaluate_J's exact transport translates
        # without resampling and Simpson's rule does not see the shift
        spec = _spec(gap, 0.5, 4, fc, ControlEffort(0.3, 0.7), n_cells=384)
        play = simulate_play(spec, solve_values(spec))
        times = tuple(spec.level_times)
        alpha = schedule_from_sequence(times, play.a_indices, spec.dictA)
        beta = schedule_from_sequence(times, play.b_indices, spec.dictB)
        assert evaluate_J(spec, alpha, beta) == pytest.approx(play.realized_J, rel=1e-12, abs=1e-15)


class TestNoisyGame:
    SIGMA = 0.02

    def _noisy(self, gap, n_steps, fc):
        return dataclasses.replace(
            _spec(gap, 0.5, n_steps, fc, ZeroRunningCost()), sigma=self.SIGMA
        )

    def test_prediffused_pair_equals_two_lone_diffusions(self):
        spec = self._noisy(0.6, 2, Overlap())
        mX, mY = _prediffused(spec)
        zero = ControlSchedule.constant(Constant(0.0), spec.t0, spec.T)
        for m, m0 in ((mX, spec.mX0), (mY, spec.mY0)):
            lone = drift_diffuse(m0, zero, spec.sigma, spec.t0, spec.T)
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


class TestHopfLax:
    """Whole levels against the Hopf-Lax formula at unequal speeds.

    With {-cA, 0, cA} against {-cB, 0, cB}, a zero running cost and the mean
    gap cost g(z) = (g0 + z)^2, the reduced Isaacs equation is
    V_t - (cA - cB)|V_z| = 0. Its viscosity solution at time-to-go tau is
    max(|g0 + z| - kappa * tau, 0)^2 for kappa = cA - cB >= 0 and
    (|g0 + z| + |kappa| * tau)^2 otherwise (Bardi & Evans 1984).
    """

    @staticmethod
    def _errors(cA, cB, n_steps):
        """Worst lower and upper errors over the valid cells of level n_steps / 2."""
        mX = make_bump(-3.0, 3.0, 1200, -0.15, 0.5)
        mY = make_bump(-3.0, 3.0, 1200, 0.15, 0.5)
        spec = GameSpec(
            T=0.4, t0=0.0, n_steps=n_steps, mX0=mX, mY0=mY, dictA=_speeds(-cA, 0.0, cA),
            dictB=_speeds(-cB, 0.0, cB), rc=ZeroRunningCost(), fc=MeanDiffSquared(),
        )
        table = solve_values(spec)
        k = n_steps // 2
        tau, kappa = spec.T - table.times[k], cA - cB
        v = table.valid[k]
        d = np.abs(-0.3 + table.hx[:, None] - table.hy[None, :])[v]
        exact = np.maximum(d - kappa * tau, 0.0) ** 2 if kappa >= 0 else (d - kappa * tau) ** 2
        return (float(np.max(np.abs(table.lower[k][v] - exact))),
                float(np.max(np.abs(table.upper[k][v] - exact))))

    def test_the_lower_value_of_a_faster_maximizer_is_exact(self):
        for n_steps in (20, 40, 80):
            assert self._errors(0.5, 1.0, n_steps)[0] <= 1e-12

    @pytest.mark.parametrize(
        "cA, cB, which, order",
        [(1.0, 0.5, 0, 2), (1.0, 0.5, 1, 2), (0.5, 1.0, 1, 1)],
        ids=("faster-minimizer-lower", "faster-minimizer-upper", "faster-maximizer-upper"),
    )
    def test_the_error_falls_at_the_measured_order(self, cA, cB, which, order):
        # measured: 1.0e-4, 2.5e-5, 6.25e-6; 4.0e-4, 1.0e-4, 2.5e-5; and
        # 2.1e-3, 1.03e-3, 5.06e-4, the discrete-time information advantage
        errors = [self._errors(cA, cB, n)[which] for n in (20, 40, 80)]
        lo, hi = (3.5, 4.5) if order == 2 else (1.8, 2.2)
        assert errors[-1] > 0.0
        assert all(lo <= e0 / e1 <= hi for e0, e1 in zip(errors, errors[1:])), errors
