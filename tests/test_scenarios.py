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
