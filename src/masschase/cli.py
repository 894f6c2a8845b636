"""Command-line entry point: ``masschase run <scenario> [--json]``.

Runs one of the canned scenarios at its default settings and prints its
report, as text or as the JSON that ``ScenarioReport.to_json`` writes. The
exit status is 0 when every check of the report passes and 1 otherwise.
"""

from __future__ import annotations

import argparse

from . import scenarios

RUNNERS = {
    "example_psi3": scenarios.run_example_psi3,
    "example_psi1": scenarios.run_example_psi1,
    "antelope_lion": scenarios.run_antelope_lion,
    "viscosity_sweep": scenarios.run_viscosity_sweep,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="masschase", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a scenario and print its report")
    run.add_argument("scenario", choices=sorted(RUNNERS))
    run.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    report = RUNNERS[args.scenario]()
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
