"""Hamiltonian module: pairings, min-max, residuals."""

import numpy as np
import pytest

from masschase.controls import Constant, standard_dictionary
from masschase.cost import ControlEffort, ZeroRunningCost, running_cost
from masschase.errors import BoxOverflow
from masschase.grid import GradientGrid, total_mass
from masschase.hamiltonian import (
    Psi1Analytic,
    Psi3Analytic,
    TabulatedCandidate,
    hamiltonian_minmax,
    isaacs_residual,
    transport_pairing,
)
from masschase.scenarios import make_bump

from conftest import random_bump_pair, scatter_dictionary, smooth_bump, smooth_profile


ZERO = ZeroRunningCost()


class TestTransportPairing:
    def test_linear_representer_integrates_the_mass(self):
        # p = x has unit slope, so the pairing equals -a * total mass
        m = make_bump(-2.0, 3.0, 512, 0.3, 0.5)
        p = GradientGrid(m.lo, m.hi, m.x)
        a = 0.7
        val = transport_pairing(p, Constant(a), m)
        assert val == pytest.approx(-a, abs=1e-6)

    def test_zero_representer(self):
        m = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        p = GradientGrid(m.lo, m.hi, np.zeros_like(m.values))
        assert transport_pairing(p, Constant(1.0), m) == 0.0

    def test_cross_pairings_cancel_exactly(self):
        # summation by parts: pairing(mY, a, mX) + pairing(mX, a, mY) = 0
        mX = make_bump(-2.0, 2.0, 512, -0.2, 0.6)
        mY = make_bump(-2.0, 2.0, 512, 0.3, 0.5)
        a = Constant(0.9)
        s = transport_pairing(
            GradientGrid(mX.lo, mX.hi, mY.values), a, mX
        ) + transport_pairing(GradientGrid(mX.lo, mX.hi, mX.values), a, mY)
        assert abs(s) <= 1e-14

    def test_by_parts_form_converges_quadratically(self):
        # a second-order discretisation of -integral f*m*p'; the oracle
        # integrates the analytic bump with Gauss-Legendre on its support and
        # normalises by the analytic mass r * 256/315
        from masschase.controls import Affine

        center, radius = 0.1, 0.7
        f = Affine(0.5, 0.1, 5.0)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        xs = center + radius * nodes
        integrand = f.value(xs) * smooth_profile(xs, center, radius) * np.cos(xs)
        oracle = -radius * np.dot(weights, integrand) / (radius * 256.0 / 315.0)

        errs = []
        for n in (256, 512, 1024):
            m = smooth_bump(-2.0, 2.0, n, center, radius)
            p = GradientGrid(m.lo, m.hi, np.sin(m.x))
            errs.append(abs(transport_pairing(p, f, m) - oracle))
        orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(o >= 1.8 for o in orders), (errs, orders)

    def test_diffusive_term_against_quadrature(self):
        # -sigma * integral m'' p = -sigma * integral m p'' by parts; with
        # p = x^2 that is -2 * sigma * mass
        m = smooth_bump(-2.0, 2.0, 1024, 0.0, 0.6)
        p = GradientGrid(m.lo, m.hi, m.x**2)
        sigma = 0.3
        val = transport_pairing(p, Constant(0.0), m, sigma=sigma)
        assert val == pytest.approx(-2.0 * sigma * total_mass(m), abs=1e-4)

    def test_diffusive_term_moves_both_derivatives_onto_p(self):
        # -sigma * integral m'' p against -sigma * integral m p'' with the
        # exact p'' on the same Simpson norm; the two agree only if the
        # discrete second derivative sums by parts
        from masschase.grid import simpson_weights

        m = smooth_bump(-2.0, 2.0, 256, 0.1, 0.6)
        p = GradientGrid(m.lo, m.hi, np.sin(2.0 * m.x) + m.x**2)
        pdd = -4.0 * np.sin(2.0 * m.x) + 2.0
        sigma = 0.3
        ref = -sigma * float(np.dot(simpson_weights(m.n_cells) * m.dx, m.values * pdd))
        val = transport_pairing(p, Constant(0.0), m, sigma=sigma)
        assert val == pytest.approx(ref, abs=1e-8)


class TestHamiltonianMinmax:
    def test_mean_gap_candidate_cancels(self):
        mX = make_bump(-3.0, 3.0, 512, 0.0, 0.5)
        mY = make_bump(-3.0, 3.0, 512, 1.0, 0.5)
        d = standard_dictionary(1.0)
        cand = Psi3Analytic()
        res = hamiltonian_minmax(
            mX, mY, cand.grad_x(mX, mY, 0.0), cand.grad_y(mX, mY, 0.0), d, d, ZERO
        )
        assert abs(res) <= 1e-6

    def test_zero_representers_give_zero(self):
        mX = make_bump(-2.0, 2.0, 256, 0.0, 0.5)
        mY = make_bump(-2.0, 2.0, 256, 0.3, 0.5)
        z = GradientGrid(mX.lo, mX.hi, np.zeros_like(mX.values))
        d = standard_dictionary(1.0)
        assert hamiltonian_minmax(mX, mY, z, z, d, d, ZERO) == 0.0

    def test_overlap_candidate_cancels(self):
        mX = make_bump(-3.0, 3.0, 512, -0.2, 0.6)
        mY = make_bump(-3.0, 3.0, 512, 0.25, 0.5)
        d = standard_dictionary(1.0)
        cand = Psi1Analytic()
        res = hamiltonian_minmax(
            mX, mY, cand.grad_x(mX, mY, 0.0), cand.grad_y(mX, mY, 0.0), d, d, ZERO
        )
        assert abs(res) <= 1e-6

    def test_value_consistent_with_matrix(self):
        mX = make_bump(-2.0, 2.0, 256, -0.3, 0.5)
        mY = make_bump(-2.0, 2.0, 256, 0.4, 0.5)
        p = GradientGrid(mX.lo, mX.hi, mX.x)
        q = GradientGrid(mX.lo, mX.hi, -0.5 * mX.x)
        d = standard_dictionary(1.0)
        rc, tube = ControlEffort(0.3, 0.7), (mX.lo, mX.hi)
        # the objective rebuilt entry by entry, indexed [b][a]
        matrix = [
            [transport_pairing(p, a, mX) + transport_pairing(q, b, mY) - running_cost(rc, a, b, tube)
             for a in d.fields]
            for b in d.fields
        ]
        res = hamiltonian_minmax(mX, mY, p, q, d, d, rc)
        assert res == min(max(row) for row in matrix)
        assert res != hamiltonian_minmax(mX, mY, p, q, d, d, ZERO)

    def test_separability_for_control_free_cost(self):
        mX = make_bump(-2.0, 2.0, 256, -0.3, 0.5)
        mY = make_bump(-2.0, 2.0, 256, 0.4, 0.5)
        p = GradientGrid(mX.lo, mX.hi, np.tanh(mX.x))
        q = GradientGrid(mX.lo, mX.hi, mX.x**2 / 4.0)
        d = scatter_dictionary(1.0, -0.4, 0.8)
        res = hamiltonian_minmax(mX, mY, p, q, d, d, ZERO)
        max_a = max(transport_pairing(p, a, mX) for a in d.fields)
        min_b = min(transport_pairing(q, b, mY) for b in d.fields)
        assert abs(res - (max_a + min_b)) <= 1e-10


class TestIsaacsResidual:
    def test_mean_gap_candidate_fifty_random_states(self, rng):
        d = standard_dictionary(1.0)
        worst = 0.0
        for _ in range(50):
            mX, mY = random_bump_pair(rng)
            r = isaacs_residual(Psi3Analytic(), mX, mY, rng.uniform(0, 1), d, d, ZERO)
            worst = max(worst, abs(r))
        assert worst <= 1e-5

    @pytest.mark.parametrize("sigma", (0.01, 0.1, 1.0))
    def test_noise_leaves_the_mean_gap_candidate_exact(self, rng, sigma):
        # D_m V is affine in x, so the diffusive pairing sigma * <m, p''>
        # vanishes; the overlap candidate's representers are curved, so its
        # residual shows that the term is there
        d = standard_dictionary(1.0)
        worst, overlap = 0.0, 0.0
        for _ in range(50):
            mX, mY = random_bump_pair(rng)
            t = rng.uniform(0, 1)
            worst = max(worst, abs(isaacs_residual(Psi3Analytic(), mX, mY, t, d, d, ZERO, sigma)))
            overlap = max(overlap, abs(isaacs_residual(Psi1Analytic(), mX, mY, t, d, d, ZERO, sigma)))
        assert worst <= 1e-12
        assert overlap > sigma

    def test_overlap_candidate_fifty_random_states(self, rng):
        d = standard_dictionary(1.0)
        worst = 0.0
        for _ in range(50):
            mX, mY = random_bump_pair(rng)
            r = isaacs_residual(Psi1Analytic(), mX, mY, rng.uniform(0, 1), d, d, ZERO)
            worst = max(worst, abs(r))
        assert worst <= 1e-5

    @staticmethod
    def _tabulated():
        from masschase.cost import MeanDiffSquared
        from masschase.game import GameSpec, solve_values

        lo, hi, n = -3.0, 3.0, 256
        mX = make_bump(lo, hi, n, -0.4, 0.5)
        mY = make_bump(lo, hi, n, 0.6, 0.5)
        d = standard_dictionary(1.0)
        spec = GameSpec(
            T=0.5, t0=0.0, n_steps=8, mX0=mX, mY0=mY, dictA=d, dictB=d,
            rc=ZERO, fc=MeanDiffSquared(),
        )
        return TabulatedCandidate(solve_values(spec), spec), mX, mY, d

    def test_tabulated_candidate_residual_is_reported_not_asserted(self):
        cand, mX, mY, d = self._tabulated()
        r = isaacs_residual(cand, mX, mY, 0.1, d, d, ZERO)
        # order-dt defect of the discrete table; magnitude only sanity-checked
        assert np.isfinite(r)
        assert abs(r) <= 1.0

    def test_tabulated_candidate_names_a_gradient_outside_the_valid_range(self):
        # at t = 0 only z = 0 is valid, so the centred difference in the
        # shift reads nodes the recursion never reached
        cand, mX, mY, d = self._tabulated()
        for grad in (cand.grad_x, cand.grad_y):
            with pytest.raises(BoxOverflow, match="level 0: shift z = "):
                grad(mX, mY, 0.0)
        with pytest.raises(BoxOverflow):
            isaacs_residual(cand, mX, mY, 0.0, d, d, ZERO)
