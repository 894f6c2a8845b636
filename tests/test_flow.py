"""Flow module: characteristic integration, push-forward, diffusion."""

import math

import numpy as np
import pytest

from masschase.controls import (
    AdmissibilityBounds,
    Affine,
    Constant,
    ControlDictionary,
    ControlSchedule,
    Scatter,
    schedule_from_sequence,
)
from masschase.errors import NotReduced, TubeOverflow
from masschase.flow import drift_diffuse, flow_arrays, heat_step, push_forward
from masschase.grid import (
    DensityGrid,
    sample_at,
    simpson_sbp_diff,
    simpson_weights,
    support_interval,
    total_mass,
)
from masschase.scenarios import make_bump

from conftest import scatter_dictionary, smooth_bump, smooth_profile


def const_schedule(c, t0=0.0, t1=1.0):
    return ControlSchedule.constant(Constant(c), t0, t1)


def linear_schedule(lam, clip=10.0, t0=0.0, t1=1.0):
    return ControlSchedule.constant(Affine(lam, 0.0, clip), t0, t1)


def w1inf(m):
    """max |m| + max |m'|, the derivative taken by the Simpson-paired operator."""
    return float(np.max(np.abs(m.values)) + np.max(np.abs(simpson_sbp_diff(m.values, m.dx))))


def h1(v, dx):
    """Full H1 norm of node data under Simpson quadrature."""
    w = simpson_weights(v.size - 1) * dx
    d = simpson_sbp_diff(v, dx)
    return math.sqrt(np.dot(w, v * v) + np.dot(w, d * d))


def forward(sched, x, t0, t1):
    """Position and Jacobian of the forward flow from the single point x."""
    y, J = flow_arrays(sched, np.array([x]), t0, t1)
    return float(y[0]), float(J[0])


def foot(sched, x, t0, t1):
    """The foot point that the forward flow carries onto x."""
    return float(flow_arrays(sched, np.array([x]), t0, t1, backward=True)[0][0])


class TestIntegrateFlow:
    def test_zero_field_is_identity(self):
        phi, jac = forward(const_schedule(0.0), 0.37, 0.0, 1.0)
        assert phi == 0.37 and jac == 1.0

    def test_constant_field_translates_rigidly(self):
        phi, jac = forward(const_schedule(2.0), 1.0, 0.0, 0.5)
        assert phi == pytest.approx(2.0, abs=1e-12)
        assert jac == pytest.approx(1.0, abs=1e-12)

    def test_linear_field_matches_exponential(self):
        phi, jac = forward(linear_schedule(0.5), 1.0, 0.0, 1.0)
        assert abs(phi - math.exp(0.5)) <= 1e-8
        assert abs(jac - math.exp(0.5)) <= 1e-8

    def test_jacobian_is_one_at_zero_span(self):
        phi, jac = forward(linear_schedule(0.5), 0.8, 0.3, 0.3)
        assert phi == 0.8 and jac == 1.0

    def test_semigroup_property_random_points(self, rng):
        d = scatter_dictionary(1.0, -0.5, 1.0)
        sched = schedule_from_sequence((0.0, 0.3, 0.7, 1.0), (3, 0, 2), d)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5)
            t0, t1, t2 = np.sort(rng.uniform(0.0, 1.0, 3))
            full, _ = forward(sched, x, t0, t2)
            half, _ = forward(sched, x, t0, t1)
            two, _ = forward(sched, half, t1, t2)
            worst = max(worst, abs(full - two))
        assert worst <= 1e-13


class TestExactFlow:
    """The closed-form flow against oracles that do not share its formulas."""

    SCATTER = Scatter(-0.4, 0.9, 1.0)
    CONTRACTING = Affine(-1.5, 0.2, 0.5)
    MIXED = ControlSchedule(
        (0.0, 0.3, 0.7, 1.0), (Scatter(-0.5, 1.0, 1.0), Affine(-0.8, 0.1, 0.6), Constant(-0.7))
    )
    # shifted off the fields' kinks, where the flow map's slope has a corner
    # and a central difference is only first-order accurate
    XS = np.linspace(-1.7, 2.1, 77) + 0.0123

    @pytest.mark.parametrize("backward", (False, True), ids=("forward", "backward"))
    @pytest.mark.parametrize(
        "sched, t0, t1",
        [
            (ControlSchedule.constant(SCATTER, 0.0, 1.0), 0.0, 1.0),
            (ControlSchedule.constant(CONTRACTING, 0.0, 1.0), 0.0, 1.0),
            (MIXED, 0.1, 0.9),
        ],
        ids=("scatter", "contracting_affine", "three_segments"),
    )
    def test_jacobian_matches_central_difference(self, sched, t0, t1, backward):
        h = 1e-6
        y, J = flow_arrays(sched, self.XS, t0, t1, backward)
        yp, _ = flow_arrays(sched, self.XS + h, t0, t1, backward)
        ym, _ = flow_arrays(sched, self.XS - h, t0, t1, backward)
        fd = (yp - ym) / (2.0 * h)
        assert np.all(np.abs(J - fd) <= 1e-6 * np.abs(J))
        assert not np.all(J == 1.0)

    def test_cases_cross_their_kinks(self):
        # some Scatter trajectories leave the band, some contracting Affine
        # trajectories enter it, so the kink times are exercised
        def in_band(f, x):
            a, b, C = f.clipped_affine
            return np.abs(a * x + b) < C

        f = self.SCATTER
        y, _ = flow_arrays(ControlSchedule.constant(f, 0.0, 1.0), self.XS, 0.0, 1.0)
        assert np.any(in_band(f, self.XS) & ~in_band(f, y))
        g = self.CONTRACTING
        y, _ = flow_arrays(ControlSchedule.constant(g, 0.0, 1.0), self.XS, 0.0, 1.0)
        assert np.any(~in_band(g, self.XS) & in_band(g, y))

    @pytest.mark.parametrize(
        "f", (SCATTER, CONTRACTING, Affine(0.9, -0.3, 0.8), Constant(0.6)),
        ids=lambda f: f.describe(),
    )
    def test_jacobian_is_the_speed_ratio_on_one_piece(self, f):
        # for an autonomous 1-D field, dPhi/dx = v(Phi(x)) / v(x) wherever v(x) != 0
        v0 = f.value(self.XS)
        xs = self.XS[np.abs(v0) > 1e-3]
        y, J = flow_arrays(ControlSchedule.constant(f, 0.0, 0.8), xs, 0.0, 0.8)
        assert np.allclose(J, f.value(y) / f.value(xs), rtol=1e-12, atol=0.0)

    def test_inverse_round_trip(self):
        for sched, t0, t1 in (
            (ControlSchedule.constant(self.SCATTER, 0.0, 1.0), 0.0, 1.0),
            (ControlSchedule.constant(self.CONTRACTING, 0.0, 1.0), 0.0, 1.0),
            (self.MIXED, 0.1, 0.9),
        ):
            for x in self.XS:
                phi, _ = forward(sched, foot(sched, x, t0, t1), t0, t1)
                assert abs(phi - x) <= 1e-14

    def test_fixed_point_stays_put(self):
        sched = ControlSchedule.constant(Affine(0.5, -0.25, 1.0), 0.0, 1.0)
        assert forward(sched, 0.5, 0.0, 1.0) == (0.5, math.exp(0.5))
        assert foot(sched, 0.5, 0.0, 1.0) == 0.5


class TestInverseFlow:
    def test_zero_field(self):
        assert foot(const_schedule(0.0), 0.5, 0.0, 1.0) == 0.5

    def test_constant_field(self):
        z = foot(const_schedule(2.0), 1.0, 0.0, 0.5)
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_linear_field(self):
        sched = linear_schedule(0.5)
        for x in (-0.8, 0.1, 1.3):
            z = foot(sched, x, 0.0, 1.0)
            phi, _ = forward(sched, z, 0.0, 1.0)
            assert abs(phi - x) <= 1e-8


class TestPushForward:
    def test_translation_shifts_the_bump(self):
        m0 = make_bump(-2.0, 3.0, 512, 0.0, 0.5)
        sched = const_schedule(1.0, 0.0, 0.5)
        out = push_forward(m0, sched, 0.0, 0.5)
        shifted = sample_at(m0, m0.x - 0.5)
        l1 = np.sum(np.abs(out.values - shifted)) * m0.dx
        assert l1 <= 2.0 * m0.dx * w1inf(m0)

    def test_linear_field_matches_closed_form(self):
        # dilation under the linear field: exact density is the initial
        # profile at x*exp(-lam*dt), scaled by exp(-lam*dt)
        lam = 0.5
        span = 0.5
        lo, hi, n = -2.0, 3.0, 1024
        m0 = smooth_bump(lo, hi, n, 0.3, 1.0)
        out = push_forward(m0, linear_schedule(lam, t1=span), 0.0, span)
        k = math.exp(-lam * span)
        x = m0.x
        z = np.linspace(-1.0, 2.0, 400_001)
        znorm = np.trapezoid(smooth_profile(z, 0.3, 1.0), z)
        exact = smooth_profile(x * k, 0.3, 1.0) / znorm * k
        rel_l1 = np.sum(np.abs(out.values - exact)) / np.sum(np.abs(exact))
        assert rel_l1 < 1e-4

    def test_mass_conserved_across_regular_schedules(self):
        # the 1e-8 budget needs smooth-edged data and W2inf-regular fields;
        # resolutions per case come from the measured interpolation-transfer
        # error of the sampled push-forward
        cases = [
            (smooth_bump(-2.0, 3.0, 512, 0.2, 0.8), const_schedule(0.731, t1=0.5), 0.5),
            (smooth_bump(-2.0, 3.0, 1024, 0.3, 1.0), linear_schedule(0.5, t1=0.5), 0.5),
            (
                smooth_bump(-2.0, 3.0, 2048, 0.3, 0.8),
                ControlSchedule.constant(Affine(0.4, 0.1, 1.0), 0.0, 0.5),
                0.5,
            ),
            (
                smooth_bump(-2.0, 3.0, 2048, 0.3, 0.8),
                schedule_from_sequence(
                    (0.0, 0.25, 0.5),
                    (0, 1),
                    ControlDictionary(
                        (Constant(0.8), Affine(0.4, 0.1, 1.0)), AdmissibilityBounds(1.0)
                    ),
                ),
                0.5,
            ),
        ]
        for m0, sched, t1 in cases:
            out = push_forward(m0, sched, 0.0, t1)
            drift = abs(total_mass(out) - total_mass(m0)) / total_mass(m0)
            assert drift <= 1e-8, f"mass drift {drift:.2e} for {sched.fields}"

    def test_positivity_everywhere(self, rng):
        m0 = make_bump(-2.0, 3.0, 256, 0.3, 0.6)
        d = scatter_dictionary(1.0, -0.2, 0.8)
        for _ in range(10):
            idx = rng.integers(0, 4, size=4)
            sched = schedule_from_sequence((0.0, 0.25, 0.5, 0.75, 1.0), tuple(idx), d)
            out = push_forward(m0, sched, 0.0, 1.0)
            assert np.all(out.values >= 0.0)

    def test_tube_overflow_raises(self):
        m0 = make_bump(-1.0, 1.0, 128, 0.0, 0.6)
        with pytest.raises(TubeOverflow):
            push_forward(m0, const_schedule(1.0), 0.0, 0.8)

    def test_tube_overflow_on_an_excursion_that_returns(self):
        # the support leaves the domain at the breakpoint and is back at the end
        m0 = make_bump(-1.0, 1.0, 128, 0.0, 0.4)
        sched = ControlSchedule((0.0, 0.7, 1.4), (Constant(1.0), Constant(-1.0)))
        with pytest.raises(TubeOverflow):
            push_forward(m0, sched, 0.0, 1.4)


class TestSolveContinuity:
    def test_initial_snapshot_is_exact(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        out = push_forward(m0, const_schedule(1.0), 0.0, 0.0)
        assert np.array_equal(out.values, m0.values)

    @pytest.mark.parametrize("zero", (False, True), ids=("bump", "zero-density"))
    def test_a_reversed_interval_raises(self, zero):
        # a zero density has no support to transport, and must not skip the check
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        if zero:
            m0 = DensityGrid(m0.lo, m0.hi, np.zeros_like(m0.values))
        with pytest.raises(ValueError, match="need t0 <= t1"):
            push_forward(m0, const_schedule(1.0), 0.5, 0.2)

    def test_constant_field_semigroup(self):
        # snapshot times commensurate with the grid so translation is exact
        lo, hi, n = -2.0, 2.0, 256
        m0 = make_bump(lo, hi, n, -0.5, 0.4)
        dx = (hi - lo) / n
        s1, s2 = 32 * dx, 64 * dx  # exact node shifts at speed 1
        sched = const_schedule(1.0, 0.0, 1.0)
        re_pushed = push_forward(push_forward(m0, sched, 0.0, s1), sched, s1, s2)
        l1 = np.sum(np.abs(re_pushed.values - push_forward(m0, sched, 0.0, s2).values)) * dx
        assert l1 <= 2e-8

    def test_linear_field_snapshots_match_closed_form(self):
        lam = 0.5
        lo, hi, n = -2.0, 3.0, 1024
        m0 = smooth_bump(lo, hi, n, 0.3, 1.0)
        sched = linear_schedule(lam, t1=0.5)
        times = [0.2, 0.4]
        z = np.linspace(-1.0, 2.0, 400_001)
        znorm = np.trapezoid(smooth_profile(z, 0.3, 1.0), z)
        for s in times:
            snap = push_forward(m0, sched, 0.0, s)
            k = math.exp(-lam * s)
            exact = smooth_profile(m0.x * k, 0.3, 1.0) / znorm * k
            rel_l1 = np.sum(np.abs(snap.values - exact)) / np.sum(np.abs(exact))
            assert rel_l1 < 1e-4


class TestTransportedSupport:
    """The support at time t lies in the initial support inflated by speed * t."""

    def test_inflation_arithmetic(self, rng):
        # one cell of slack: support_interval reports nodes, not the exact edge
        m0 = make_bump(-3.0, 3.0, 512, 0.3, 0.6)
        slo, shi = support_interval(m0)
        d = scatter_dictionary(1.0, -0.2, 0.8)
        for _ in range(20):
            idx = rng.integers(0, 4, size=4)
            sched = schedule_from_sequence((0.0, 0.25, 0.5, 0.75, 1.0), tuple(idx), d)
            for t in (0.3, 0.6, 1.0):
                lo, hi = support_interval(push_forward(m0, sched, 0.0, t))
                assert lo >= slo - d.max_speed * t - m0.dx
                assert hi <= shi + d.max_speed * t + m0.dx

    def test_independent_of_restart_time(self):
        # the field is autonomous, so only the elapsed time matters
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        f = Affine(0.4, 0.1, 1.0)
        early = push_forward(m0, ControlSchedule.constant(f, 0.1, 0.9), 0.1, 0.9)
        late = push_forward(m0, ControlSchedule.constant(f, 0.6, 1.4), 0.6, 1.4)
        assert np.max(np.abs(early.values - late.values)) <= 1e-14 * early.values.max()


class TestInvariantSet:
    def test_zero_field_keeps_everything(self):
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        out = push_forward(m0, const_schedule(0.0), 0.0, 1.0)
        assert np.array_equal(out.values, m0.values)

    def test_full_speed_constant_reaches_tube_edge(self):
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        M, T = 1.0, 1.0
        lo, hi = support_interval(push_forward(m0, const_schedule(M), 0.0, T))
        # the transported support edge sits at the tube edge up to one cell
        assert abs(hi - (0.5 + M * T)) <= 2 * m0.dx
        assert abs(lo - (-0.5 + M * T)) <= 2 * m0.dx

    def test_contraction_grows_norm_within_bound(self):
        # contraction by e^{|lam| T} scales values by that factor and slopes
        # by its square, so W1inf grows by at most e^{2 |lam| T}
        m0 = make_bump(-3.0, 3.0, 1024, 0.0, 0.5)
        lam, T = -0.5, 1.0
        out = push_forward(m0, ControlSchedule.constant(Affine(lam, 0.0, 2.0), 0.0, T), 0.0, T)
        w0, w1 = w1inf(m0), w1inf(out)
        assert w0 < w1 <= math.exp(2 * abs(lam) * T) * w0

    @pytest.mark.parametrize("lam", (0.0, 0.5, -0.5))
    def test_h1_distance_grows_at_most_at_the_dilation_rate(self, lam):
        # under x -> x e^{lam T} the squared L2 distance scales by e^{-lam T}
        # and the squared seminorm by e^{-3 lam T}; lam = 0 is a translation
        lo, hi, n, T = -3.0, 3.0, 512, 1.0
        sched = ControlSchedule.constant(Affine(lam, 1.0 if lam == 0.0 else 0.0, 10.0), 0.0, T)
        bound = max(math.exp(-lam * T / 2), math.exp(-3 * lam * T / 2))
        for m1, m2 in (
            (make_bump(lo, hi, n, -0.1, 0.5), make_bump(lo, hi, n, 0.1, 0.45)),
            (make_bump(lo, hi, n, 0.0, 0.6), make_bump(lo, hi, n, 0.05, 0.6)),
        ):
            n1, n2 = push_forward(m1, sched, 0.0, T), push_forward(m2, sched, 0.0, T)
            ratio = h1(n1.values - n2.values, m1.dx) / h1(m1.values - m2.values, m1.dx)
            assert 0.0 < ratio <= bound
            if lam == 0.0:
                assert ratio >= 0.99


class TestDriftDiffuse:
    def test_gaussian_variance_growth(self):
        sigma, T = 0.05, 0.4
        lo, hi, n = -4.0, 4.0, 1024
        s0 = 0.4  # initial standard deviation

        def gauss(x):
            v = np.exp(-0.5 * (x / s0) ** 2)
            v[np.abs(x) >= hi - 2e-2] = 0.0
            return v

        m0 = DensityGrid.from_callable(lo, hi, n, gauss, normalize=True)
        sched = const_schedule(0.0, 0.0, T)
        out = drift_diffuse(m0, sched, sigma, 0.0, T)

        def variance(m):
            from masschase.grid import mean, simpson_weights

            mu = mean(m)
            w = simpson_weights(m.n_cells) * m.dx
            return float(np.dot(w, (m.x - mu) ** 2 * m.values) / total_mass(m))

        v0, v1 = variance(m0), variance(out)
        assert abs((v1 - v0) - 2 * sigma * T) <= 0.02 * 2 * sigma * T

    def test_sigma_zero_consistent_with_characteristics(self):
        lo, hi, n = -2.0, 3.0, 1024
        m0 = make_bump(lo, hi, n, 0.2, 0.5)
        c, T = 0.7, 0.3
        sched = const_schedule(c, 0.0, T)
        out_fp = drift_diffuse(m0, sched, 0.0, 0.0, T)
        out_pf = push_forward(m0, sched, 0.0, T)
        assert np.array_equal(out_fp.values, out_pf.values)

    def test_mass_conserved(self):
        # the semigroup loses only the flux through the far-off zero ends, so
        # the flat node sum holds to roundoff; the Simpson measure of the same
        # values needs n=1024 to stay under 1e-6
        m0 = make_bump(-3.0, 3.0, 1024, 0.0, 0.5)
        sched = const_schedule(0.4, 0.0, 0.5)
        out = drift_diffuse(m0, sched, 0.05, 0.0, 0.5)
        assert abs(total_mass(out) - 1.0) <= 1e-6
        flat0 = np.sum(m0.values) * m0.dx
        flat1 = np.sum(out.values) * out.dx
        assert abs(flat1 - flat0) <= 1e-12 * flat0

    def test_vanishing_viscosity_monotone(self):
        lo, hi, n = -2.5, 2.5, 1024
        m0 = make_bump(lo, hi, n, -0.3, 0.5)
        c, T = 0.5, 0.4
        sched = const_schedule(c, 0.0, T)
        ref = push_forward(m0, sched, 0.0, T)
        dists = []
        for sigma in (0.1, 0.03, 0.01, 0.003):
            out = drift_diffuse(m0, sched, sigma, 0.0, T)
            dists.append(float(np.sum(np.abs(out.values - ref.values)) * m0.dx))
        assert all(d1 < d0 for d0, d1 in zip(dists, dists[1:])), dists


class TestHeatStep:
    """The heat step against a dense eigendecomposition of the same Laplacian."""

    N = 64

    def _m0(self):
        return make_bump(-2.0, 2.0, self.N, 0.3, 0.9)

    def _dense(self, m0, s):
        n, dx = self.N, m0.dx
        L = (np.diag(np.full(n - 1, -2.0)) + np.eye(n - 1, k=1) + np.eye(n - 1, k=-1)) / dx**2
        lam, V = np.linalg.eigh(L)
        out = np.zeros(n + 1)
        out[1:-1] = V @ (np.exp(s * lam) * (V.T @ m0.values[1:-1]))
        return out

    @pytest.mark.parametrize("s", (1e-4, 1e-3, 1e-2, 0.1))
    def test_matches_the_dense_matrix_exponential(self, s):
        m0 = self._m0()
        out = heat_step(m0, s)
        ref = self._dense(m0, s)
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * ref.max()

    def test_semigroup_property(self):
        m0 = self._m0()
        once = heat_step(m0, 0.014)
        twice = heat_step(heat_step(m0, 0.006), 0.008)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-14 * once.values.max()

    def test_zero_length_returns_the_input(self):
        m0 = self._m0()
        assert heat_step(m0, 0.0) is m0

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            heat_step(self._m0(), -1e-3)


class TestDriftDiffuseArguments:
    def test_non_constant_field_with_noise_raises(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        sched = ControlSchedule.constant(Affine(0.7, -0.2, 0.9), 0.0, 1.0)
        with pytest.raises(NotReduced):
            drift_diffuse(m0, sched, 0.01, 0.0, 1.0)
        # without noise it is the exact push-forward
        out = drift_diffuse(m0, sched, 0.0, 0.0, 1.0)
        assert np.array_equal(out.values, push_forward(m0, sched, 0.0, 1.0).values)

    def test_a_later_non_constant_segment_raises(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        sched = ControlSchedule((0.0, 0.5, 1.0), (Constant(0.5), Affine(-0.8, 0.1, 0.6)))
        drift_diffuse(m0, sched, 0.01, 0.0, 0.5)
        with pytest.raises(NotReduced):
            drift_diffuse(m0, sched, 0.01, 0.0, 1.0)

    def test_negative_sigma_raises(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        with pytest.raises(ValueError):
            drift_diffuse(m0, const_schedule(0.1), -0.1, 0.0, 1.0)

    def test_zero_horizon_returns_the_input(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        assert drift_diffuse(m0, const_schedule(0.1), 0.1, 0.5, 0.5) is m0

    def test_tails_below_the_roundoff_floor_are_zero(self):
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        out = drift_diffuse(m0, const_schedule(0.0), 0.005, 0.0, 1.0)
        assert np.all(out.values >= 0.0)
        lo, hi = support_interval(out)
        assert -3.0 < lo and hi < 3.0
        assert out.values[out.values > 0].min() > 64 * np.finfo(float).eps * out.values.max()
