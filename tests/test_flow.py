"""Flow module: characteristic integration, push-forward, invariant set, diffusion."""

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
    standard_dictionary,
)
from masschase.errors import CflViolation, GridMismatch, TubeOverflow
from masschase.flow import (
    SupportTube,
    flow_arrays,
    fokker_planck_solve,
    fokker_planck_sweep,
    integrate_flow,
    inverse_flow,
    push_forward,
    solve_continuity,
    support_tube,
    verify_invariant_set,
)
from masschase.grid import DensityGrid, lp_norm, sample_at, support_interval, total_mass
from masschase.scenarios import bump_profile, make_bump

from conftest import smooth_bump


def const_schedule(c, t0=0.0, t1=1.0):
    return ControlSchedule.constant(Constant(c), t0, t1)


def linear_schedule(lam, clip=10.0, t0=0.0, t1=1.0):
    return ControlSchedule.constant(Affine(lam, 0.0, clip), t0, t1)


class TestIntegrateFlow:
    def test_zero_field_is_identity(self):
        phi, jac = integrate_flow(const_schedule(0.0), 0.37, 0.0, 1.0)
        assert phi == 0.37 and jac == 1.0

    def test_constant_field_translates_rigidly(self):
        phi, jac = integrate_flow(const_schedule(2.0), 1.0, 0.0, 0.5)
        assert phi == pytest.approx(2.0, abs=1e-12)
        assert jac == pytest.approx(1.0, abs=1e-12)

    def test_linear_field_matches_exponential(self):
        phi, jac = integrate_flow(linear_schedule(0.5), 1.0, 0.0, 1.0)
        assert abs(phi - math.exp(0.5)) <= 1e-8
        assert abs(jac - math.exp(0.5)) <= 1e-8

    def test_jacobian_is_one_at_zero_span(self):
        phi, jac = integrate_flow(linear_schedule(0.5), 0.8, 0.3, 0.3)
        assert phi == 0.8 and jac == 1.0

    def test_semigroup_property_random_points(self, rng):
        d = standard_dictionary(1.0, include_scatter=True, xi1=-0.5, xi2=1.0)
        sched = schedule_from_sequence((0.0, 0.3, 0.7, 1.0), (3, 0, 2), d)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5)
            t0, t1, t2 = np.sort(rng.uniform(0.0, 1.0, 3))
            full, _ = integrate_flow(sched, x, t0, t2)
            half, _ = integrate_flow(sched, x, t0, t1)
            two, _ = integrate_flow(sched, half, t1, t2)
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
        f = self.SCATTER
        y, _ = flow_arrays(ControlSchedule.constant(f, 0.0, 1.0), self.XS, 0.0, 1.0)
        assert np.any((f.derivative(self.XS) != 0.0) & (f.derivative(y) == 0.0))
        g = self.CONTRACTING
        y, _ = flow_arrays(ControlSchedule.constant(g, 0.0, 1.0), self.XS, 0.0, 1.0)
        assert np.any((g.derivative(self.XS) == 0.0) & (g.derivative(y) != 0.0))

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
                phi, _ = integrate_flow(sched, inverse_flow(sched, x, t0, t1), t0, t1)
                assert abs(phi - x) <= 1e-14

    def test_fixed_point_stays_put(self):
        sched = ControlSchedule.constant(Affine(0.5, -0.25, 1.0), 0.0, 1.0)
        assert integrate_flow(sched, 0.5, 0.0, 1.0) == (0.5, math.exp(0.5))
        assert inverse_flow(sched, 0.5, 0.0, 1.0) == 0.5


class TestInverseFlow:
    def test_zero_field(self):
        assert inverse_flow(const_schedule(0.0), 0.5, 0.0, 1.0) == 0.5

    def test_constant_field(self):
        z = inverse_flow(const_schedule(2.0), 1.0, 0.0, 0.5)
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_linear_field(self):
        sched = linear_schedule(0.5)
        for x in (-0.8, 0.1, 1.3):
            z = inverse_flow(sched, x, 0.0, 1.0)
            phi, _ = integrate_flow(sched, z, 0.0, 1.0)
            assert abs(phi - x) <= 1e-8


class TestPushForward:
    def test_translation_shifts_the_bump(self):
        m0 = make_bump(-2.0, 3.0, 512, 0.0, 0.5)
        sched = const_schedule(1.0, 0.0, 0.5)
        out = push_forward(m0, sched, 0.0, 0.5)
        shifted = sample_at(m0, m0.x - 0.5)
        l1 = np.sum(np.abs(out.values - shifted)) * m0.dx
        assert l1 <= 2.0 * m0.dx * lp_norm(m0, "W1inf")

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
        znorm = np.trapezoid(bump_profile(z, 0.3, 1.0, 4), z)
        exact = bump_profile(x * k, 0.3, 1.0, 4) / znorm * k
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
        d = standard_dictionary(1.0, include_scatter=True, xi1=-0.2, xi2=0.8)
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
        snaps = solve_continuity(m0, const_schedule(1.0), 0.0, [0.0, 0.5])
        assert snaps[0] is m0

    def test_constant_field_semigroup(self):
        # snapshot times commensurate with the grid so translation is exact
        lo, hi, n = -2.0, 2.0, 256
        m0 = make_bump(lo, hi, n, -0.5, 0.4)
        dx = (hi - lo) / n
        s1, s2 = 32 * dx, 64 * dx  # exact node shifts at speed 1
        sched = const_schedule(1.0, 0.0, 1.0)
        snaps = solve_continuity(m0, sched, 0.0, [s1, s2])
        re_pushed = push_forward(snaps[0], sched, s1, s2)
        l1 = np.sum(np.abs(re_pushed.values - snaps[1].values)) * dx
        assert l1 <= 2e-8

    def test_linear_field_snapshots_match_closed_form(self):
        lam = 0.5
        lo, hi, n = -2.0, 3.0, 1024
        m0 = smooth_bump(lo, hi, n, 0.3, 1.0)
        sched = linear_schedule(lam, t1=0.5)
        times = [0.2, 0.4]
        snaps = solve_continuity(m0, sched, 0.0, times)
        z = np.linspace(-1.0, 2.0, 400_001)
        znorm = np.trapezoid(bump_profile(z, 0.3, 1.0, 4), z)
        for s, snap in zip(times, snaps):
            k = math.exp(-lam * s)
            exact = bump_profile(m0.x * k, 0.3, 1.0, 4) / znorm * k
            rel_l1 = np.sum(np.abs(snap.values - exact)) / np.sum(np.abs(exact))
            assert rel_l1 < 1e-4


class TestSupportTube:
    def test_zero_time_returns_base(self):
        tube = SupportTube(0.0, 1.0, 2.0)
        assert support_tube(tube, 0.0, 0.0) == (0.0, 1.0)

    def test_inflation_arithmetic(self):
        tube = SupportTube(0.0, 1.0, 2.0)
        assert support_tube(tube, 0.0, 0.5) == (-1.0, 2.0)

    def test_independent_of_restart_time(self):
        tube = SupportTube(-0.5, 0.5, 1.0)
        assert support_tube(tube, 0.1, 0.9) == support_tube(tube, 0.6, 0.9)


class TestVerifyInvariantSet:
    def _bound(self, m0, M, T):
        # uniform norm bound with explicit one-dimensional constants:
        # e^{MT} * max(1 + M*T*e^{MT}, e^{MT}) * initial W1inf norm
        K = lp_norm(m0, "W1inf")
        return math.exp(M * T) * max(1 + M * T * math.exp(M * T), math.exp(M * T)) * K

    def test_zero_field_keeps_everything(self):
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        tube = SupportTube(-0.6, 0.6, 1.0)
        rep = verify_invariant_set(
            m0, [const_schedule(0.0)], tube, self._bound(m0, 1.0, 1.0), [0.5, 1.0]
        )
        assert rep.all_pass
        assert all(e.mass_drift <= 1e-12 for e in rep.entries)

    def test_full_speed_constant_reaches_tube_edge(self):
        m0 = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        M, T = 1.0, 1.0
        tube = SupportTube(-0.52, 0.52, M)
        rep = verify_invariant_set(
            m0, [const_schedule(M)], tube, self._bound(m0, M, T), [T]
        )
        entry = rep.entries[-1]
        assert entry.support_ok
        # the transported support edge sits at the tube edge up to one cell
        assert abs(entry.support[1] - (0.5 + M * T)) <= 2 * m0.dx

    def test_contraction_grows_norm_within_bound(self):
        m0 = make_bump(-3.0, 3.0, 1024, 0.0, 0.5)
        lam, T = -0.5, 1.0
        sched = ControlSchedule.constant(Affine(lam, 0.0, 2.0), 0.0, T)
        tube = SupportTube(-0.6, 0.6, 2.0)
        rep = verify_invariant_set(m0, [sched], tube, self._bound(m0, 2.0, T), [T])
        entry = rep.entries[-1]
        w0 = lp_norm(m0, "W1inf")
        # contraction by e^{|lam| T} scales values and steepens slopes
        assert entry.w1inf > w0
        assert entry.norm_ok

    def test_h1_ratio_recorded(self, rng):
        lo, hi, n = -3.0, 3.0, 512
        m0 = make_bump(lo, hi, n, 0.0, 0.5)
        pairs = [
            (make_bump(lo, hi, n, -0.1, 0.5), make_bump(lo, hi, n, 0.1, 0.45)),
            (make_bump(lo, hi, n, 0.0, 0.6), make_bump(lo, hi, n, 0.05, 0.6)),
        ]
        scheds = [const_schedule(1.0), linear_schedule(0.5)]
        tube = SupportTube(-0.8, 0.8, 1.0)
        rep = verify_invariant_set(
            m0, scheds, tube, self._bound(m0, 1.0, 1.0), [1.0], pairs=pairs, ratio_bound=20.0
        )
        assert len(rep.h1_ratios) == len(pairs) * len(scheds)
        assert rep.max_ratio > 0 and rep.ratios_ok

    def test_report_serializes(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        tube = SupportTube(-0.6, 0.6, 1.0)
        rep = verify_invariant_set(m0, [const_schedule(0.5)], tube, 100.0, [0.5])
        as_json = rep.to_json()
        assert '"all_pass": true' in as_json


class TestFokkerPlanck:
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
        dx = m0.dx
        n_t = int(np.ceil(T * sigma / (0.4 * dx**2)))
        out = fokker_planck_solve(m0, sched, sigma, 0.0, T, n_t)

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
        n_t = int(np.ceil(T * c / (0.8 * m0.dx)))
        out_fp = fokker_planck_solve(m0, sched, 0.0, 0.0, T, n_t)
        out_pf = push_forward(m0, sched, 0.0, T)
        l1 = np.sum(np.abs(out_fp.values - out_pf.values)) * m0.dx
        # first-order upwind against exact characteristics: O(dx) gap
        assert l1 <= 8.0 * m0.dx

    def test_mass_conserved(self):
        # the stencil conserves the flat node sum to roundoff; the Simpson
        # measure of the same values needs n=1024 to stay under 1e-6
        m0 = make_bump(-3.0, 3.0, 1024, 0.0, 0.5)
        sched = const_schedule(0.4, 0.0, 0.5)
        n_t = max(1, int(np.ceil(0.5 * 0.05 / (0.4 * m0.dx**2))))
        out = fokker_planck_solve(m0, sched, 0.05, 0.0, 0.5, n_t)
        assert abs(total_mass(out) - 1.0) <= 1e-6
        flat0 = np.sum(m0.values) * m0.dx
        flat1 = np.sum(out.values) * out.dx
        assert abs(flat1 - flat0) <= 1e-12 * flat0

    def test_cfl_violation_raises(self):
        m0 = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        with pytest.raises(CflViolation):
            fokker_planck_solve(m0, const_schedule(0.0, 0.0, 1.0), 0.5, 0.0, 1.0, 10)

    def test_vanishing_viscosity_monotone(self):
        lo, hi, n = -2.5, 2.5, 1024
        m0 = make_bump(lo, hi, n, -0.3, 0.5)
        c, T = 0.5, 0.4
        sched = const_schedule(c, 0.0, T)
        ref = push_forward(m0, sched, 0.0, T)
        dists = []
        for sigma in (0.1, 0.03, 0.01, 0.003):
            n_t = int(np.ceil(T * max(sigma / (0.4 * m0.dx**2), c / (0.8 * m0.dx))))
            out = fokker_planck_solve(m0, sched, sigma, 0.0, T, n_t)
            dists.append(float(np.sum(np.abs(out.values - ref.values)) * m0.dx))
        assert all(d1 < d0 for d0, d1 in zip(dists, dists[1:])), dists


def lone_march(m0, schedule, sigma, t0, t1, n_time_steps):
    """Reference: one Strang-split row, a field lookup at every half step."""
    dt = (t1 - t0) / n_time_steps
    dx = m0.dx
    x = m0.x
    faces = 0.5 * (x[:-1] + x[1:])
    v = m0.values.copy()
    nu = sigma * dt / dx**2

    def transport_half(v, f):
        vf = f.value(faces)
        flux = np.where(vf >= 0.0, vf * v[:-1], vf * v[1:])
        out = v.copy()
        out[1:-1] -= (dt / 2.0) / dx * (flux[1:] - flux[:-1])
        out[0] = 0.0
        out[-1] = 0.0
        return out

    for k in range(n_time_steps):
        tk = t0 + k * dt
        v = transport_half(v, schedule.field_at(tk))
        if sigma > 0.0:
            v = v.copy()
            v[1:-1] += nu * (v[2:] - 2.0 * v[1:-1] + v[:-2])
        v = transport_half(v, schedule.field_at(tk + dt / 2.0))
    return v


class TestFokkerPlanckSweep:
    T, N_T = 0.4, 240
    # the half-step time of step 100, in the march's own expression order
    SWITCH = 0.0 + 100 * (T / N_T) + (T / N_T) / 2.0

    def _rows(self):
        lo, hi, n = -2.5, 2.5, 256
        schedules = [
            const_schedule(0.8, 0.0, self.T),
            const_schedule(-0.6, 0.0, self.T),
            ControlSchedule.constant(Affine(0.7, -0.2, 0.9), 0.0, self.T),
            ControlSchedule((0.0, self.SWITCH, self.T), (Constant(0.5), Affine(-0.8, 0.1, 0.6))),
        ]
        rows = []
        for i, sched in enumerate(schedules):
            for sigma in (0.0, 0.003, 0.1):
                m0 = make_bump(lo, hi, n, -0.4 + 0.25 * i, 0.5)
                rows.append((m0, sched, sigma))
        return rows

    def test_every_row_equals_a_lone_march(self):
        rows = self._rows()
        switched = rows[-1][1]
        assert switched.field_at(self.SWITCH) is switched.fields[1]
        outs = fokker_planck_sweep(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], 0.0, self.T, self.N_T
        )
        assert len(outs) == len(rows)
        for (m0, sched, sigma), out in zip(rows, outs):
            ref = lone_march(m0, sched, sigma, 0.0, self.T, self.N_T)
            assert np.array_equal(out.values, ref), (sched, sigma)

    def test_solve_is_the_one_row_sweep(self):
        m0, sched, sigma = self._rows()[10]
        out = fokker_planck_solve(m0, sched, sigma, 0.0, self.T, self.N_T)
        assert np.array_equal(out.values, lone_march(m0, sched, sigma, 0.0, self.T, self.N_T))

    def test_one_row_over_the_limit_raises(self):
        m0 = make_bump(-2.0, 2.0, 512, 0.0, 0.5)
        calm = const_schedule(0.1, 0.0, 1.0)
        # diffusion: only the second row's sigma breaks the limit
        with pytest.raises(CflViolation):
            fokker_planck_sweep([m0, m0], [calm, calm], [0.0, 0.5], 0.0, 1.0, 400)
        # advection: only the second row's speed breaks the limit
        fast = const_schedule(100.0, 0.0, 1.0)
        with pytest.raises(CflViolation):
            fokker_planck_sweep([m0, m0], [calm, fast], [0.0, 0.0], 0.0, 1.0, 400)
        fokker_planck_sweep([m0, m0], [calm, calm], [0.0, 0.001], 0.0, 1.0, 400)

    def test_rows_on_different_grids_raise(self):
        a = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        b = make_bump(-2.0, 2.0, 128, 0.0, 0.5)
        sched = const_schedule(0.1, 0.0, 1.0)
        with pytest.raises(GridMismatch):
            fokker_planck_sweep([a, b], [sched, sched], [0.0, 0.0], 0.0, 1.0, 100)

    def test_bad_arguments_raise(self):
        m0 = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        sched = const_schedule(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            fokker_planck_sweep([m0, m0], [sched, sched], [0.0, -0.1], 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            fokker_planck_sweep([m0], [sched], [0.0], 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            fokker_planck_sweep([m0, m0], [sched], [0.0, 0.0], 0.0, 1.0, 100)

    def test_zero_horizon_returns_the_inputs(self):
        a = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        b = make_bump(-2.0, 2.0, 256, 0.3, 0.5)
        sched = const_schedule(0.1, 0.0, 1.0)
        out = fokker_planck_sweep([a, b], [sched, sched], [0.0, 0.1], 0.5, 0.5, 10)
        assert out[0] is a and out[1] is b
