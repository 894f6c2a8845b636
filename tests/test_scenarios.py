"""Scenario runners at their defaults, their reports, and the command line."""

import json

import pytest

from masschase import scenarios
from masschase.cli import RUNNERS, main


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
        # any change to the Fokker-Planck march's arithmetic moves these digits
        values = scenarios.run_viscosity_sweep().values
        assert repr(values["J0"]) == "0.8143886487361477"
        assert [repr(r["J"]) for r in values["rows"]] == [
            "0.6212816648882604",
            "0.7466624642294791",
            "0.7919164309938878",
            "0.807797854481247",
        ]
        assert values["n_time_steps"] == 3410

    def test_viscosity_sweep_steps_respect_both_speeds(self):
        # the fast density is the second one here and the first in the mirror;
        # the step count must come from whichever is faster
        sigmas = (0.001, 0.0003)
        slow_first = scenarios.run_viscosity_sweep(sigmas=sigmas, speeds=(0.1, -3.0))
        fast_first = scenarios.run_viscosity_sweep(sigmas=sigmas, speeds=(3.0, -0.1))
        assert slow_first.all_pass and fast_first.all_pass
        a, b = slow_first.values, fast_first.values
        assert a["n_time_steps"] == b["n_time_steps"]
        assert a["J0"] == b["J0"]
        for ra, rb in zip(a["rows"], b["rows"]):
            assert ra["J"] == pytest.approx(rb["J"], rel=1e-14)

    def test_antelope_lion_values_are_pinned(self):
        # the push-forward's exact flows set these digits
        values = scenarios.run_antelope_lion().values
        expected = {
            "a_prime": 0.776321180164285,
            "a_doubleprime": 0.6714388391194118,
            "initial_overlap": 0.9137534976968192,
            "guaranteed_scatter": 0.662504613111899,
            "best_scatter": 0.559009951369911,
            "guaranteed_const": 0.9137021095767899,
            "final_mass_drift": 1.1242964395474786e-05,
        }
        for key, value in expected.items():
            assert values[key] == pytest.approx(value, rel=1e-12), key
        assert len(values["overlaps_static"]) == 17
        assert values["overlaps_static"][0] == values["initial_overlap"]
        assert values["overlaps_static"][-1] == values["guaranteed_scatter"]
        assert values["overlaps_static"][8] == pytest.approx(0.7674526411246374, rel=1e-12)


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
