"""Cost module: the three final costs, running costs, and the functional J."""

import numpy as np
import pytest

from masschase.controls import Constant, ControlSchedule, standard_dictionary
from masschase.cost import (
    ControlEffort,
    CostModulus,
    MeanDiffSquared,
    Overlap,
    ZeroRunningCost,
    evaluate_J,
    psi1,
    psi2,
    psi3,
    running_cost,
)
from masschase.errors import GridMismatch, ZeroMass
from masschase.game import GameSpec
from masschase.grid import DensityGrid, h1_norm, GradientGrid, lp_norm, mean, total_mass
from masschase.scenarios import bump_profile, make_bump

from conftest import random_bump_pair


class TestPsi1:
    def test_disjoint_supports(self):
        mX = make_bump(-3.0, 3.0, 512, -1.5, 0.5)
        mY = make_bump(-3.0, 3.0, 512, 1.5, 0.5)
        assert abs(psi1(mX, mY)) <= 1e-12

    def test_self_overlap_is_l2_squared(self):
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.6)
        assert psi1(m, m) == pytest.approx(lp_norm(m, "L2") ** 2, abs=1e-8)

    def test_overlapping_triangles_against_oracle(self):
        def tri(x, c):
            return np.maximum(0.0, 1.0 - np.abs(x - c))

        mX = DensityGrid.from_callable(-3.0, 3.0, 2048, lambda x: tri(x, 0.0))
        mY = DensityGrid.from_callable(-3.0, 3.0, 2048, lambda x: tri(x, 0.4))
        xs = np.linspace(-3.0, 3.0, 1_000_001)
        oracle = np.trapezoid(tri(xs, 0.0) * tri(xs, 0.4), xs)
        assert psi1(mX, mY) == pytest.approx(oracle, abs=1e-6)

    def test_grid_mismatch(self):
        mX = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        mY = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        with pytest.raises(GridMismatch):
            psi1(mX, mY)

    def test_nonnegative(self, rng):
        for _ in range(10):
            mX, mY = random_bump_pair(rng)
            assert psi1(mX, mY) >= 0.0


class TestPsi2:
    def test_identical_densities_give_zero(self):
        m = make_bump(-2.0, 2.0, 512, 0.3, 0.5)
        assert psi2(m, m, delta=0.25) == 0.0

    def test_far_separated_supports_give_zero(self):
        mX = make_bump(-6.0, 6.0, 1024, -4.0, 0.5)
        mY = make_bump(-6.0, 6.0, 1024, 4.0, 0.5)
        assert psi2(mX, mY, delta=1.0) <= 1e-12

    def test_window_captures_whole_opposite_mass(self):
        # mY lies inside [muX - delta, muX + delta]; mX is far from
        # [muY - delta, muY + delta]: the cost is (1 - 0)^2. Single bumps
        # cannot do both, so mX is two bumps whose mean -5 lies between them
        mX = DensityGrid.from_callable(
            -8.0, 8.0, 2048,
            lambda x: bump_profile(x, -6.5, 0.4) + bump_profile(x, -3.5, 0.4),
            normalize=True,
        )
        mY = make_bump(-8.0, 8.0, 2048, -5.0, 0.3)
        val = psi2(mX, mY, delta=1.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_zero_mass_raises(self):
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        z = DensityGrid(-2.0, 2.0, np.zeros(513))
        with pytest.raises(ZeroMass):
            psi2(m, z, delta=0.5)


class TestPsi3:
    # 600 cells put every centre on a node, where Simpson's centroid of a
    # symmetric bump is exact; off-node centroids are tested in test_grid
    def test_unit_gap(self):
        mX = make_bump(-3.0, 3.0, 600, 0.0, 0.5)
        mY = make_bump(-3.0, 3.0, 600, 1.0, 0.5)
        assert psi3(mX, mY) == pytest.approx(1.0, abs=1e-6)

    def test_identical_densities(self):
        m = make_bump(-2.0, 2.0, 512, 0.3, 0.5)
        assert psi3(m, m) == 0.0

    def test_quarter_from_half_gap(self):
        mX = make_bump(-3.0, 3.0, 600, 0.3, 0.5)
        mY = make_bump(-3.0, 3.0, 600, -0.2, 0.5)
        assert psi3(mX, mY) == pytest.approx(0.25, abs=1e-10)


class TestRunningCost:
    def test_zero_kind(self):
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        rc = ZeroRunningCost()
        assert running_cost(rc, m, m, 0.3, Constant(1.0), Constant(-1.0), (-2.0, 2.0)) == 0.0

    def test_constant_effort_is_c_squared_times_length(self):
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        rc = ControlEffort(wX=1.0, wY=0.0)
        c, L = 0.8, 3.0
        val = running_cost(rc, m, m, 0.0, Constant(c), Constant(0.0), (0.0, L))
        assert val == pytest.approx(c * c * L, abs=1e-8)

    def test_idle_controls_cost_nothing(self):
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        rc = ControlEffort(wX=1.0, wY=1.0)
        assert running_cost(rc, m, m, 0.0, Constant(0.0), Constant(0.0), (-1.0, 1.0)) == 0.0


class TestEvaluateJ:
    def _spec(self, fc, rc=None, sigma=0.0, power=2):
        lo, hi, n = -3.0, 3.0, 512
        mX = make_bump(lo, hi, n, -0.4, 0.5, power)
        mY = make_bump(lo, hi, n, 0.6, 0.5, power)
        d = standard_dictionary(1.0)
        return GameSpec(
            T=0.5, t0=0.0, n_steps=8, mX0=mX, mY0=mY, dictA=d, dictB=d,
            rc=rc or ZeroRunningCost(), fc=fc, sigma=sigma, reduced=True,
        )

    def test_zero_running_cost_reduces_to_final_cost(self):
        spec = self._spec(MeanDiffSquared())
        idle = ControlSchedule.constant(Constant(0.0), 0.0, 0.5)
        J = evaluate_J(spec, idle, idle)
        assert J == pytest.approx(psi3(spec.mX0, spec.mY0), abs=1e-9)

    def test_common_translation_preserves_mean_gap(self):
        # the off-node shift resamples linearly; the 2e-6 bound needs the
        # smoother power-4 edges (see conftest.smooth_bump)
        spec = self._spec(MeanDiffSquared(), power=4)
        move = ControlSchedule.constant(Constant(1.0), 0.0, 0.5)
        J = evaluate_J(spec, move, move)
        assert J == pytest.approx(psi3(spec.mX0, spec.mY0), abs=2e-6)

    def test_invariant_to_time_sampling_when_integrand_vanishes(self):
        spec = self._spec(Overlap())
        move = ControlSchedule.constant(Constant(0.5), 0.0, 0.5)
        vals = [evaluate_J(spec, move, move, n_time_samples=k) for k in (1, 4, 16)]
        assert vals[0] == vals[1] == vals[2]

    def test_effort_cost_adds_time_integral(self):
        rc = ControlEffort(wX=1.0, wY=1.0)
        spec = self._spec(MeanDiffSquared(), rc=rc)
        cA, cB = 1.0, 1.0
        alpha = ControlSchedule.constant(Constant(cA), 0.0, 0.5)
        beta = ControlSchedule.constant(Constant(cB), 0.0, 0.5)
        J = evaluate_J(spec, alpha, beta, n_time_samples=8)
        L = spec.mX0.hi - spec.mX0.lo
        expected_integral = 0.5 * (cA**2 * L + cB**2 * L)
        final = psi3(spec.mX0, spec.mY0)  # equal translations keep the gap
        assert J == pytest.approx(expected_integral + final, rel=1e-4)


class TestPsi3TranslationCovariance:
    def test_shifting_one_mass_shifts_the_gap(self):
        lo, hi, n = -3.0, 3.0, 512
        mX = make_bump(lo, hi, n, -0.2, 0.5)
        mY = make_bump(lo, hi, n, 0.5, 0.5)
        h, T = 0.6, 0.6
        sched = ControlSchedule.constant(Constant(h / T), 0.0, T)
        from masschase.flow import push_forward

        mX_shift = push_forward(mX, sched, 0.0, T)
        expected = (mean(mX) + h - mean(mY)) ** 2
        assert psi3(mX_shift, mY) == pytest.approx(expected, abs=1e-5)


class TestCostModulus:
    def test_envelope_is_monotone(self, rng):
        mod = CostModulus()
        for _ in range(50):
            m1, m2 = random_bump_pair(rng, n_cells=256)
            d_in = h1_norm(GradientGrid(m1.lo, m1.hi, m1.values - m2.values))
            d_out = abs(psi1(m1, m1) - psi1(m2, m2))
            mod = mod.record(d_in, d_out)
        curve = mod.envelope_curve()
        vals = [v for _, v in curve]
        assert all(v1 >= v0 for v0, v1 in zip(vals, vals[1:]))
        assert len(curve) == 50
