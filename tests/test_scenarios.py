"""Scenario runners at their defaults, their reports, and the command line."""

import json

import numpy as np
import pytest

from masschase import scenarios
from masschase.cli import RUNNERS, main
from masschase.controls import ControlSchedule, Scatter
from masschase.flow import push_forward
from masschase.grid import DensityGrid, sample_at, total_mass


@pytest.fixture(scope="module", params=sorted(RUNNERS))
def report(request):
    return RUNNERS[request.param]()


class TestRunnersAtDefaults:
    def test_all_checks_pass(self, report):
        assert report.checks
        assert report.all_pass, report.to_text()

    def test_every_check_has_provenance(self, report):
        report.validate()
        assert all(c.provenance.strip() for c in report.checks)

    def test_json_round_trip(self, report):
        assert json.loads(report.to_json()) == report.to_dict()

    def test_viscosity_sweep_values_are_pinned(self):
        # any change to the heat step, the domain pad or the overlap at a
        # shift moves these digits; J0 is 2.66e-5 relative below the
        # heat-kernel oracle's 0.8177212306
        values = scenarios.run_viscosity_sweep().values
        assert repr(values["J0"]) == "0.8176995081579007"
        assert [repr(r["J"]) for r in values["rows"]] == [
            "0.623453476875344",
            "0.7500002841141384",
            "0.7954270806957806",
            "0.8112056472945722",
        ]

    @pytest.mark.parametrize("speeds", ((0.1, -3.0), (3.0, -0.1)))
    def test_viscosity_sweep_passes_at_a_large_shift(self, speeds):
        # the bumps end 1.55 apart, so J is small and magnifies any error
        # of the overlap at a shift that is not a whole number of cells
        report = scenarios.run_viscosity_sweep(speeds=speeds)
        assert report.all_pass, report.to_text()

    def test_viscosity_sweep_checks_every_noise_level_against_the_oracle(self):
        report = scenarios.run_viscosity_sweep()
        oracle = [c for c in report.checks if c.provenance.startswith("oracle: heat-kernel")]
        assert [c.computed for c in oracle] == [
            report.values["J0"], *(r["J"] for r in report.values["rows"])
        ]
        assert all(c.passed and c.tolerance == 1e-3 for c in oracle)

    def test_antelope_lion_values_are_pinned(self):
        # the closed-form dilate sets the spreading digits: guaranteed_scatter
        # is 2.24e-5 relative below the exact overlap of the analytic bumps,
        # 0.6609246904, and a_doubleprime is near 15 / 22.4; the one-step game
        # sets guaranteed_const, the initial overlap (oracle 0.9137544643)
        values = scenarios.run_antelope_lion().values
        expected = {
            "a_prime": 0.776321180164285,
            "a_doubleprime": 0.6696428639739188,
            "initial_overlap": 0.9137534976968192,
            "guaranteed_scatter": 0.6609099050666227,
            "best_scatter": 0.5581870382346718,
            "guaranteed_const": 0.9137534976968192,
            "final_mass_drift": 7.721953032557849e-08,
        }
        for key, value in expected.items():
            assert values[key] == pytest.approx(value, rel=1e-12), key
        assert len(values["overlaps_static"]) == 17
        assert values["overlaps_static"][0] == values["initial_overlap"]
        assert values["overlaps_static"][-1] == values["guaranteed_scatter"]
        assert values["overlaps_static"][8] == pytest.approx(0.7674268075027375, rel=1e-12)

    def test_antelope_lion_spreading_does_not_depend_on_n_steps(self):
        # each level resamples the initial bump once, so no error compounds
        # across levels and the final level is the same density at any n_steps
        values = [scenarios.run_antelope_lion(n_steps=n).values for n in (16, 64, 256)]
        assert len({v["guaranteed_scatter"] for v in values}) == 1
        assert [len(v["overlaps_static"]) for v in values] == [17, 65, 257]

    def test_scatter_feedback_converges_to_the_dilate(self):
        # a Scatter refit to [ca - R_k, ca + R_k] at the start of each of n
        # equal steps, R_k = ra + c t_k, pushed forward in one call: the
        # scenario's dilate at T is its limit, reached at first order
        # (3.59e-3, 8.94e-4, 2.23e-4 of the peak at n = 16, 64, 256)
        ca, ra, c, T = 0.0, 1.0, 1.0, 0.4
        lo, hi = ca - ra - 2 * c * T - 0.3, ca + ra + 2 * c * T + 0.3
        m0 = scenarios.make_bump(lo, hi, 512, ca, ra)
        s = (ra + c * T) / ra
        dilate = DensityGrid(lo, hi, sample_at(m0, ca + (m0.x - ca) / s) / s)
        errors = []
        for n in (16, 64, 256):
            t = np.linspace(0.0, T, n + 1)
            sched = ControlSchedule(tuple(t), tuple(Scatter(ca - r, ca + r, c) for r in ra + c * t[:-1]))
            m = push_forward(m0, sched, 0.0, T)
            errors.append(np.max(np.abs(m.values - dilate.values)) / np.max(dilate.values))
            assert abs(total_mass(m) - 1.0) <= 1e-6
        assert errors[0] >= 3.5 * errors[1] and errors[1] >= 3.5 * errors[2], errors
        assert errors[2] < 5e-4

    @pytest.mark.parametrize(
        "antelope, lion", (((0.0, 1.0), (0.0, 0.3)), ((0.5, 0.9), (0.5, 0.2)), ((-0.3, 1.1), (-0.3, 0.35)))
    )
    def test_constant_controls_guarantee_the_initial_overlap(self, antelope, lion):
        # concentric masses: whatever constant control the evader plays, the
        # pursuer matches its shift, so the best guarantee is the overlap at z = 0
        values = scenarios.run_antelope_lion(antelope, lion).values
        assert values["guaranteed_const"] == pytest.approx(values["initial_overlap"], rel=1e-12)


class TestCheck:
    def test_to_dict_lists_every_field_in_report_order(self):
        # the JSON report's check objects carry these keys in this order
        check = scenarios.make_check("gap", 0.25, 0.25, "closed form: squared gap", 1e-9)
        assert list(check.to_dict().items()) == [
            ("name", "gap"),
            ("computed", 0.25),
            ("reference", 0.25),
            ("provenance", "closed form: squared gap"),
            ("tolerance", 1e-9),
            ("mode", "rel"),
            ("passed", True),
        ]


class TestHeatKernelOracle:
    def test_zero_noise_is_the_trapezoid_overlap(self):
        centers, radii = (-0.2, 0.35), (0.6, 0.45)
        ref = scenarios.oracle_quadrature_overlap(centers, radii)
        assert scenarios.heat_kernel_oracle(centers, radii, 0.0, 0.5) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("sigma", (0.1, 0.01))
    def test_matches_a_direct_convolution(self, sigma):
        # diffuse each analytic bump by a Riemann sum against the Gaussian
        # kernel of variance 2*sigma*T, then integrate the product. The
        # overlap has kinks as a function of the shift, so 80-node
        # Gauss-Hermite converges only algebraically: 3.4e-6 off at sigma=0.1
        centers, radii, T = (-0.2, 0.35), (0.6, 0.45), 0.5
        x = np.linspace(-3.0, 3.0, 3001)
        h = x[1] - x[0]
        var = 2.0 * sigma * T
        kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        f = [scenarios.bump_profile(x, c, r) * 15.0 / (16.0 * r) for c, r in zip(centers, radii)]
        gx, gy = (kernel @ fi * h for fi in f)
        ref = float(np.sum(gx * gy) * h)
        oracle = scenarios.heat_kernel_oracle(centers, radii, sigma, T)
        assert oracle == pytest.approx(ref, rel=1e-5)


class TestCli:
    def test_run_prints_a_passing_json_report(self, capsys):
        assert main(["run", "example_psi3", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["name"] == "mean_gap_game"
        assert out["all_pass"] is True

    def test_run_prints_text_by_default(self, capsys):
        assert main(["run", "example_psi3"]) == 0
        assert capsys.readouterr().out.startswith("scenario: mean_gap_game  [PASS]")

    def test_unknown_scenario_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "no_such_scenario"])
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err
