"""Cost module: the three final costs, running costs, and the functional J."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masschase.controls import Affine, Constant, ControlSchedule, Scatter, standard_dictionary
from masschase.cost import (
    ControlEffort,
    MeanDiffSquared,
    Overlap,
    WindowDiffSquared,
    ZeroRunningCost,
    evaluate_J,
    final_cost,
    psi1,
    psi2,
    psi3,
    relative_final_cost,
    running_cost,
)
from masschase.errors import GridMismatch, ZeroMass
from masschase.game import GameSpec
from masschase.grid import DensityGrid, mean
from masschase.scenarios import bump_profile, make_bump, oracle_quadrature_overlap

from conftest import random_bump_pair, smooth_bump


class TestPsi1:
    def test_disjoint_supports(self):
        mX = make_bump(-3.0, 3.0, 512, -1.5, 0.5)
        mY = make_bump(-3.0, 3.0, 512, 1.5, 0.5)
        assert abs(psi1(mX, mY)) <= 1e-12

    def test_self_overlap_is_l2_squared(self):
        # against the analytic squared L2 norm; measured 1.7e-6 off
        m = make_bump(-2.0, 2.0, 512, 0.0, 0.6)
        ref = oracle_quadrature_overlap((0.0, 0.0), (0.6, 0.6))
        assert psi1(m, m) == pytest.approx(ref, abs=2e-6)

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
        rc = ZeroRunningCost()
        assert running_cost(rc, Constant(1.0), Constant(-1.0), (-2.0, 2.0)) == 0.0

    def test_constant_effort_is_c_squared_times_length(self):
        rc = ControlEffort(wX=1.0, wY=0.0)
        c, L = 0.8, 3.0
        val = running_cost(rc, Constant(c), Constant(0.0), (0.0, L))
        assert val == pytest.approx(c * c * L, abs=1e-8)

    def test_idle_controls_cost_nothing(self):
        rc = ControlEffort(wX=1.0, wY=1.0)
        assert running_cost(rc, Constant(0.0), Constant(0.0), (-1.0, 1.0)) == 0.0

    # C^2 per unit clipped length plus the integral of (slope*x + intercept)^2
    # over the band where the field is unclipped
    @pytest.mark.parametrize("f, tube, exact", [
        # band [-0.3, 0.5] carries 2/7.5; 3.6 clipped
        (Scatter(-0.3, 0.5, 1.0), (-2.2, 2.2), 58.0 / 15.0),
        # band [-0.5, 0.25] cut by the tube carries (1 + 1/8) / 6; 1.75 clipped
        (Affine(2.0, 0.5, 1.0), (-0.5, 2.0), 31.0 / 16.0),
        # falling band [-0.25, 0.75] carries 1/3; 1.5 clipped
        (Affine(-2.0, 0.5, 1.0), (-0.5, 2.0), 11.0 / 6.0),
        # the band lies left of the tube: clipped everywhere
        (Affine(2.0, 5.0, 1.0), (-0.5, 2.0), 2.5),
    ], ids=("Scatter", "Affine-rising", "Affine-falling", "Affine-saturated"))
    def test_effort_of_clipped_affine_fields_is_closed_form(self, f, tube, exact):
        rc = ControlEffort(wX=0.3, wY=0.7)
        assert running_cost(rc, f, Constant(0.0), tube) == pytest.approx(0.3 * exact, rel=1e-14)
        assert running_cost(rc, Constant(0.0), f, tube) == pytest.approx(0.7 * exact, rel=1e-14)


class TestEvaluateJ:
    def _spec(self, fc, rc=None, sigma=0.0, bump=make_bump):
        lo, hi, n = -3.0, 3.0, 512
        mX = bump(lo, hi, n, -0.4, 0.5)
        mY = bump(lo, hi, n, 0.6, 0.5)
        d = standard_dictionary(1.0)
        return GameSpec(
            T=0.5, t0=0.0, n_steps=8, mX0=mX, mY0=mY, dictA=d, dictB=d,
            rc=rc or ZeroRunningCost(), fc=fc, sigma=sigma,
        )

    def test_zero_running_cost_reduces_to_final_cost(self):
        spec = self._spec(MeanDiffSquared())
        idle = ControlSchedule.constant(Constant(0.0), 0.0, 0.5)
        J = evaluate_J(spec, idle, idle)
        assert J == pytest.approx(psi3(spec.mX0, spec.mY0), abs=1e-9)

    def test_common_translation_preserves_mean_gap(self):
        # the off-node shift resamples linearly; the 2e-6 bound needs the
        # smoother power-4 edges (see conftest.smooth_bump)
        spec = self._spec(MeanDiffSquared(), bump=smooth_bump)
        move = ControlSchedule.constant(Constant(1.0), 0.0, 0.5)
        J = evaluate_J(spec, move, move)
        assert J == pytest.approx(psi3(spec.mX0, spec.mY0), abs=2e-6)

    def test_running_cost_integral_is_exact_across_a_switch(self):
        # alpha runs at unit speed until 0.13, off any sampling lattice, then
        # idles; only that stretch costs wX * 1^2 * L per unit time
        rc = ControlEffort(wX=0.7, wY=0.3)
        spec = self._spec(Overlap(), rc=rc)
        alpha = ControlSchedule((0.0, 0.13, 0.5), (Constant(1.0), Constant(0.0)))
        idle = ControlSchedule.constant(Constant(0.0), 0.0, 0.5)
        L = spec.mX0.hi - spec.mX0.lo
        free = dataclasses.replace(spec, rc=ZeroRunningCost())
        running = evaluate_J(spec, alpha, idle) - evaluate_J(free, alpha, idle)
        assert running == pytest.approx(0.7 * L * 0.13, rel=1e-12)

    def test_effort_cost_adds_time_integral(self):
        rc = ControlEffort(wX=1.0, wY=1.0)
        spec = self._spec(MeanDiffSquared(), rc=rc)
        cA, cB = 1.0, 1.0
        alpha = ControlSchedule.constant(Constant(cA), 0.0, 0.5)
        beta = ControlSchedule.constant(Constant(cB), 0.0, 0.5)
        J = evaluate_J(spec, alpha, beta)
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


def _node_shift(m: DensityGrid, k: int) -> DensityGrid:
    """The exact translate of m by k whole nodes; the support must stay inside."""
    v = np.zeros_like(m.values)
    if k >= 0:
        v[k:] = m.values[: v.size - k]
    else:
        v[:k] = m.values[-k:]
    return DensityGrid(m.lo, m.hi, v)


class TestRelativeFinalCost:
    """The final cost of two translates as a function of their relative shift."""

    @pytest.mark.parametrize(
        "fc", (Overlap(), MeanDiffSquared(), WindowDiffSquared(0.4)), ids=lambda fc: type(fc).__name__
    )
    @given(
        gap=st.floats(-1.2, 1.2),
        radius=st.floats(0.3, 0.7),
        kx=st.integers(-30, 30),
        ky=st.integers(-30, 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_the_final_cost_of_even_node_translates(self, fc, gap, radius, kx, ky):
        # at even whole-node shifts translation is exact and Simpson's rule
        # shift-invariant, so the two agree to roundoff
        mX = make_bump(-3.0, 3.0, 256, -gap / 2, radius)
        mY = make_bump(-3.0, 3.0, 256, gap / 2, radius)
        z = 2 * (kx - ky) * mX.dx
        ref = final_cost(fc, _node_shift(mX, 2 * kx), _node_shift(mY, 2 * ky))
        g = relative_final_cost(fc, mX, mY)
        assert float(g(z)) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_mean_gap_is_the_closed_form(self):
        mX = make_bump(-3.0, 3.0, 512, -0.2, 0.7)
        mY = make_bump(-3.0, 3.0, 512, 0.15, 0.6)
        z = np.linspace(-1.0, 1.0, 21)
        g = relative_final_cost(MeanDiffSquared(), mX, mY)
        # Simpson's means of the quartic bumps; measured worst 1.7e-6
        assert np.max(np.abs(g(z) - (-0.35 + z) ** 2)) <= 2e-6

    def test_overlap_matches_the_quadrature_oracle(self):
        # half-cell offsets put mY's linear sampling where it errs most;
        # measured worst 2.1e-5
        mX = make_bump(-1.65, 1.65, 512, -0.2, 0.7)
        mY = make_bump(-1.65, 1.65, 512, 0.2, 0.7)
        g = relative_final_cost(Overlap(), mX, mY)
        for z in np.linspace(-1.0, 1.0, 9) + 0.5 * mX.dx:
            ref = oracle_quadrature_overlap((-0.2 + z, 0.2), (0.7, 0.7))
            assert float(g(z)) == pytest.approx(ref, abs=2.5e-5)

    def test_overlap_needs_a_common_grid(self):
        with pytest.raises(GridMismatch):
            relative_final_cost(
                Overlap(), make_bump(-2.0, 2.0, 512, 0.0, 0.5), make_bump(-2.0, 2.0, 256, 0.0, 0.5)
            )
