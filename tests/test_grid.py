"""Grid module: quadrature, means, norms, interpolation, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masschase.controls import Constant, ControlSchedule
from masschase.errors import ZeroMass
from masschase.flow import push_forward
from masschase.grid import (
    DensityGrid,
    GradientGrid,
    density_from_csv,
    density_to_csv,
    lp_norm,
    mean,
    sample_at,
    simpson_sbp_diff,
    simpson_weights,
    total_mass,
    window_integral,
)

from masschase.scenarios import make_bump

from conftest import smooth_bump


def triangle(x, left, peak_x, right, height):
    up = height * (x - left) / (peak_x - left)
    down = height * (right - x) / (right - peak_x)
    return np.where(
        (x > left) & (x <= peak_x), up, np.where((x > peak_x) & (x < right), down, 0.0)
    )


class TestConstruction:
    def test_rejects_odd_cell_count(self):
        with pytest.raises(ValueError, match="even"):
            DensityGrid(0.0, 1.0, np.zeros(6))  # 5 cells

    def test_rejects_negative_values(self):
        v = np.zeros(9)
        v[4] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            DensityGrid(0.0, 1.0, v)

    def test_rejects_nonzero_endpoints(self):
        v = np.ones(9)
        with pytest.raises(ValueError, match="vanish"):
            DensityGrid(0.0, 1.0, v)

    def test_gradient_grid_allows_signs_and_endpoints(self):
        g = GradientGrid(0.0, 1.0, np.linspace(-1, 1, 9))
        assert g.values[0] == -1.0

    def test_values_are_frozen(self):
        m = DensityGrid(0.0, 1.0, np.zeros(9))
        with pytest.raises(ValueError):
            m.values[3] = 1.0


class TestTotalMass:
    def test_zero_density(self):
        m = DensityGrid(-1.0, 1.0, np.zeros(65))
        assert total_mass(m) == 0.0

    def test_triangle_bump(self):
        # area of a triangle of base 1 and height 2 is exactly 1; the slope
        # kinks sit between nodes, so the quadrature error is O(jump * dx^2):
        # ~4e-5 at n=512 on [-2,3], under 1e-6 from n=4096 on
        m = DensityGrid.from_callable(
            -2.0, 3.0, 512, lambda x: triangle(x, 0.0, 0.5, 1.0, 2.0)
        )
        assert abs(total_mass(m) - 1.0) <= 1e-4
        m_fine = DensityGrid.from_callable(
            -2.0, 3.0, 4096, lambda x: triangle(x, 0.0, 0.5, 1.0, 2.0)
        )
        assert abs(total_mass(m_fine) - 1.0) <= 1e-6

    def test_translation_preserves_mass(self):
        m0 = smooth_bump(-2.0, 3.0, 512, 0.2, 0.8)
        sched = ControlSchedule.constant(Constant(0.731), 0.0, 0.4)
        m1 = push_forward(m0, sched, 0.0, 0.4)
        assert abs(total_mass(m1) - total_mass(m0)) <= 1e-8 * total_mass(m0)

    def test_simpson_exact_for_quadratic_data(self):
        # parabola vanishing at both endpoints: Simpson integrates it exactly
        lo, hi = -1.0, 2.0
        m = DensityGrid.from_callable(lo, hi, 64, lambda x: (x - lo) * (hi - x))
        exact = (hi - lo) ** 3 / 6.0
        assert abs(total_mass(m) - exact) <= 1e-13 * exact


class TestSimpsonSbpDiff:
    @pytest.mark.parametrize("n", range(2, 18, 2))
    def test_summation_by_parts_is_exact(self, n):
        # H D + (H D)^T = diag(-1, 0, ..., 0, 1) for the Simpson norm H
        dx = 0.37
        D = np.stack([simpson_sbp_diff(e, dx) for e in np.eye(n + 1)], axis=1)
        Q = (simpson_weights(n) * dx)[:, None] * D
        B = np.zeros((n + 1, n + 1))
        B[0, 0], B[-1, -1] = -1.0, 1.0
        assert np.array_equal(Q + Q.T, B)

    def test_exact_on_quadratics(self):
        x = np.linspace(-1.0, 2.0, 33)
        d = simpson_sbp_diff(x**2 - 3.0 * x, x[1] - x[0])
        assert np.max(np.abs(d - (2.0 * x - 3.0))) <= 1e-12

    def test_rejects_odd_cell_count(self):
        with pytest.raises(ValueError):
            simpson_sbp_diff(np.zeros(6), 0.1)


class TestMean:
    def test_symmetric_bump_centered_at_zero(self):
        m = smooth_bump(-2.0, 2.0, 512, 0.0, 0.7)
        assert abs(mean(m)) <= 1e-8

    def test_shifted_bump(self):
        m = smooth_bump(-2.0, 3.0, 512, 1.0, 0.7)
        assert abs(mean(m) - 1.0) <= 1e-6

    def test_asymmetric_triangle_against_quadrature_oracle(self):
        # oracle: 10^6-point trapezoid quadrature of x * m(x); frozen value 5/12
        xs = np.linspace(0.0, 1.0, 1_000_001)
        tri = triangle(xs, 0.0, 0.25, 1.0, 2.0)
        oracle = np.trapezoid(xs * tri, xs) / np.trapezoid(tri, xs)
        assert abs(oracle - 5.0 / 12.0) <= 1e-9
        m = DensityGrid.from_callable(
            -1.0, 2.0, 2048, lambda x: triangle(x, 0.0, 0.25, 1.0, 2.0)
        )
        assert abs(mean(m) - 5.0 / 12.0) <= 1e-4

    def test_zero_mass_raises(self):
        m = DensityGrid(-1.0, 1.0, np.zeros(65))
        with pytest.raises(ZeroMass):
            mean(m)


class TestNorms:
    def test_zero_density_all_norms(self):
        m = DensityGrid(-1.0, 1.0, np.zeros(65))
        for which in ("L2", "H1_seminorm", "W1inf"):
            assert lp_norm(m, which) == 0.0

    def test_sine_bump_l2(self):
        m = DensityGrid.from_callable(
            -0.5, 1.5, 1024, lambda x: np.where((x > 0) & (x < 1), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
        )
        assert abs(lp_norm(m, "L2") - np.sqrt(0.5)) <= 1e-4

    def test_smooth_plateau_l2(self):
        # plateau of height 1 and width 1 with smooth ramps; analytic oracle below
        ramp = 0.25

        def plateau(x):
            up = 0.5 * (1 - np.cos(np.pi * (x + 0.5 + ramp) / ramp))
            down = 0.5 * (1 - np.cos(np.pi * (0.5 + ramp - x) / ramp))
            return np.where(
                np.abs(x) <= 0.5,
                1.0,
                np.where(
                    (x > -0.5 - ramp) & (x < -0.5), up, np.where((x > 0.5) & (x < 0.5 + ramp), down, 0.0)
                ),
            )

        # oracle: 1 + 2 * integral of ramp^2 = 1 + 2 * (3/8) * ramp
        oracle = np.sqrt(1.0 + 2.0 * 0.375 * ramp)
        m = DensityGrid.from_callable(-2.0, 2.0, 2048, plateau)
        assert abs(lp_norm(m, "L2") - oracle) <= 1e-4

    def test_unknown_norm_rejected(self):
        m = DensityGrid(-1.0, 1.0, np.zeros(65))
        with pytest.raises(ValueError, match="unknown norm"):
            lp_norm(m, "L7")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_l2_bounded_by_sup(self, seed):
        r = np.random.default_rng(seed)
        v = np.zeros(65)
        v[1:-1] = r.uniform(0.0, 5.0, 63)
        m = DensityGrid(-1.0, 2.0, v)
        assert lp_norm(m, "L2") <= np.sqrt(3.0) * np.max(np.abs(v)) + 1e-12


class TestSampleAt:
    def test_exact_at_nodes(self):
        m = smooth_bump(-1.0, 1.0, 64, 0.0, 0.5)
        x = m.x
        for i in (0, 13, 32, 64):
            assert sample_at(m, float(x[i])) == m.values[i]

    def test_zero_outside_domain(self):
        m = smooth_bump(-1.0, 1.0, 64, 0.0, 0.5)
        assert sample_at(m, -1.5) == 0.0
        assert sample_at(m, 99.0) == 0.0

    def test_midpoint_interpolation(self):
        v = np.zeros(5)
        v[1], v[2] = 1.0, 3.0
        g = GradientGrid(0.0, 4.0, v)
        assert sample_at(g, 1.5) == 2.0

    @given(x=st.floats(-1.0, 1.0), eps=st.floats(1e-8, 1e-4))
    @settings(max_examples=50, deadline=None)
    def test_continuity(self, x, eps):
        m = smooth_bump(-1.0, 1.0, 64, 0.0, 0.5)
        lip = np.max(np.abs(np.diff(m.values))) / m.dx
        assert abs(sample_at(m, x + eps) - sample_at(m, x)) <= lip * eps + 1e-12


class TestWindowIntegral:
    def test_full_window_recovers_mass(self):
        m = smooth_bump(-2.0, 2.0, 512, 0.0, 0.6)
        assert abs(window_integral(m, -2.0, 2.0) - total_mass(m)) <= 1e-6

    def test_empty_and_outside_windows(self):
        m = smooth_bump(-2.0, 2.0, 512, 0.0, 0.6)
        assert window_integral(m, 1.0, 1.0) == 0.0
        assert window_integral(m, 5.0, 6.0) == 0.0

    def test_partial_cells_match_fine_quadrature(self):
        # oracle: dense quadrature of the analytic profile the grid sampled
        from masschase.scenarios import bump_profile

        m = smooth_bump(-2.0, 2.0, 512, 0.0, 0.6)
        xs_all = np.linspace(-0.6, 0.6, 400_001)
        z = np.trapezoid(bump_profile(xs_all, 0.0, 0.6, 4), xs_all)
        a, b = -0.3137, 0.4422
        xs = np.linspace(a, b, 400_001)
        oracle = np.trapezoid(bump_profile(xs, 0.0, 0.6, 4), xs) / z
        assert abs(window_integral(m, a, b) - oracle) <= 2e-6


    @given(i=st.integers(100, 212), j=st.integers(300, 420))
    @settings(max_examples=60, deadline=None)
    def test_whole_support_window_on_nodes_recovers_mass(self, i, j):
        # on 512 cells over [-3, 3] the support (-0.5, 0.5) covers nodes
        # 214..298, so no mass lies within a cell of the window's ends,
        # whose nodes take either parity
        m = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        assert abs(window_integral(m, m.x[i], m.x[j]) - total_mass(m)) <= 1e-13

    def test_whole_support_window_at_odd_node(self):
        m = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        assert int(np.ceil((-1.0 - m.lo) / m.dx)) % 2 == 1
        assert abs(window_integral(m, -1.0, 1.0) - total_mass(m)) <= 1e-13

    def test_window_around_one_node_integrates_the_interpolant(self):
        # a hat of height 1 on the node 0.25 with half-width dx = 0.125; the
        # window straddles its kink, where one trapezoid would give 0.0184
        v = np.zeros(9)
        v[2] = 1.0
        g = GradientGrid(0.0, 1.0, v)
        assert abs(window_integral(g, 0.24, 0.26) - (0.02 - 0.01**2 / 0.125)) <= 1e-15


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        m = smooth_bump(-1.0, 2.0, 128, 0.3, 0.5)
        p = tmp_path / "density.csv"
        density_to_csv(m, p)
        back = density_from_csv(p)
        assert back.lo == m.lo and back.hi == m.hi
        np.testing.assert_array_equal(back.values, m.values)
        header = p.read_text().splitlines()[0]
        assert header == "x,value"
