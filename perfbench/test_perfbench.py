"""Tests of the benchmark itself: seeding, gates, tracer and defect ledger.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import masschase  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SEED = 7


def input_key(inp: dict):
    if "spec" in inp:
        spec = inp["spec"]
        return (json.dumps(inp["params"], sort_keys=True),
                spec.mX0.values.tobytes(), spec.mY0.values.tobytes())
    return json.dumps(inp, sort_keys=True)


def fingerprint(out):
    if isinstance(out, masschase.ValueTable):
        return tuple(a.tobytes() for a in (out.lower, out.upper, out.valid, out.hx, out.hy))
    d = out.to_dict()
    d.pop("meta")  # wall-clock runtime
    return json.dumps(d, sort_keys=True)


@pytest.fixture(scope="module")
def solved():
    """One untraced op per workload on the first input of SEED, with its oracles."""
    out = {}
    for name in NAMES:
        wl = workloads.WORKLOADS[name]
        inp = wl.inputs(SEED)[0]
        out[name] = (inp, wl.op(inp), wl.oracles(inp))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_outputs(name, solved):
    wl = workloads.WORKLOADS[name]
    again = wl.inputs(SEED)
    assert [input_key(i) for i in again] == [input_key(i) for i in wl.inputs(SEED)]
    assert input_key(again[0]) != input_key(wl.inputs(SEED + 1)[0])
    assert fingerprint(wl.op(again[0])) == fingerprint(solved[name][1])


@pytest.mark.parametrize("name", NAMES)
def test_gate_passes_at_this_commit(name, solved):
    inp, out, ref = solved[name]
    checks, _ = workloads.WORKLOADS[name].evaluate(inp, out, ref)
    assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]


@pytest.mark.parametrize("name, key, factor", [
    ("game_exact", "value", 1.01),
    ("game_exact", "brute_lower", 1 + 1e-9),
    ("game_effort", "value", 1.01),
    ("game_effort", "brute_lower", 1 + 1e-9),
    ("viscosity", "J0", 1.05),
])
def test_perturbed_reference_fails_gate(name, key, factor, solved):
    inp, out, ref = solved[name]
    bad = dict(ref, **{key: ref[key] * factor})
    checks, _ = workloads.WORKLOADS[name].evaluate(inp, out, bad)
    assert not all(c.passed for c in checks)


def test_nan_never_passes():
    assert not workloads.Check("x", float("nan"), 1.0).passed


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_are_bit_identical(name, solved):
    inp, out, _ = solved[name]
    with tracing.Tracer(masschase) as tracer:
        traced = workloads.WORKLOADS[name].op(inp)
    assert tracer.spans
    assert fingerprint(traced) == fingerprint(out)


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "masschase" or n.startswith("masschase.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    schedule = masschase.ControlSchedule
    out.update({("ControlSchedule", k): v for k, v in vars(schedule).items()})
    return out


def test_tracer_wraps_every_binding_and_restores_it(solved):
    before = _bindings()
    wl = workloads.WORKLOADS["spreading"]
    tracer = tracing.Tracer(masschase)
    with tracer:
        assert masschase.game.running_cost is masschase.cost.running_cost
        assert masschase.game.running_cost is not before[("masschase.cost", "running_cost")]
        assert masschase.scenarios.push_forward is not before[("masschase.flow", "push_forward")]
        assert masschase.solve_values is masschase.game.solve_values
        wl.op(solved["spreading"][0])
    names = {s[0] for s in tracer.spans}
    assert {"scenarios.run_antelope_lion", "flow.push_forward", "controls.field_at"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_summarize_separates_busy_and_self_time():
    spans = [
        ("game.solve_values", 0.0, 10.0, -1),
        ("game.translate_density", 1.0, 3.0, 0),
        ("grid.mean", 1.5, 2.5, 1),
        ("cost.running_cost", 4.0, 8.0, 0),
    ]
    s = tracing.summarize(spans)
    assert s["game.calls"] == 2 and s["game.busy_s"] == 10.0
    assert s["game.self_s"] == 10.0 - 1.0 - 4.0
    assert s["grid.busy_s"] == 1.0 and s["cost.busy_s"] == 4.0
    assert s["game.translate_density.busy_s"] == 2.0


@pytest.mark.parametrize("name", ["game_exact", "game_effort"])
def test_each_ledger_entry_is_open_at_this_commit(name, solved):
    """D1 and D2 are present in the solver the benchmark was written against.

    A run prints a ledger entry as "fixed" once its defect is gone; this test
    pins the defect state the benchmark was added at.
    """
    wl = workloads.WORKLOADS[name]
    inp, out, ref = solved[name]
    _, readings = wl.evaluate(inp, out, ref)
    assert [d.name for d in readings] == list(wl.ledger)
    assert all(d.open for d in readings), readings


def test_bump_overlap_oracle_matches_the_package_quadrature():
    centers, radii = (-0.2, 0.15), (0.7, 0.6)
    ref = masschase.scenarios.oracle_quadrature_overlap(centers, radii)
    assert workloads.bump_overlap_oracle(centers, radii) == pytest.approx(ref, rel=1e-9)



def test_metric_names_and_units_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
