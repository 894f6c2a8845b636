"""Seeded benchmark of masschase: four workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; masschase is imported from ``src/`` next to
this directory and nowhere else. Load model: closed loop, one client, one
process and one thread (BLAS/OpenMP pools pinned to 1 before numpy loads).
An op is one call into the program and only that call is timed; the gate
checks run untimed after it, against oracles computed once per input before
the timed loop. Ops run until ``--seconds`` of wall time have passed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from process start until the inputs
are built, oracles excluded), ``ops_per_s``, ``op_p50_s`` and
``peak_rss_mb``. ``--trace 1`` alternates traced and untraced ops and
reports per-op layer metrics from the traced ones plus the tracing
overhead. The last line of standard output is the JSON result; the lines
before it print every gate check, every known-defect ledger entry (which
never gates) and the environment.
"""

import os

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

if not (SRC / "masschase" / "__init__.py").is_file():
    sys.exit(f"perfbench: no masschase sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import masschase  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if SRC not in Path(masschase.__file__).resolve().parents:
    sys.exit(f"perfbench: masschase imported from {masschase.__file__}, not {SRC}")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# per-op layer metrics of the traced run; the name picks the source
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in tracing.LAYERS
       for kind, unit in (("calls", "calls/op"), ("busy_s", "s/op"), ("self_s", "s/op"))},
    "game.solve_values.busy_s": "s/op",
    "game.table_cells": "cells",
    "game.valid_cell_share": "ratio",
    "game.translate_density.calls": "calls/op",
    "game.translate_density.busy_s": "s/op",
    "cost.running_cost.calls": "calls/op",
    "cost.running_cost.busy_s": "s/op",
    "flow.push_forward.calls": "calls/op",
    "flow.push_forward.busy_s": "s/op",
    "grid.support_interval.calls": "calls/op",
    "grid.sample_at.calls": "calls/op",
    "flow.fokker_planck_solve.busy_s": "s/op",
    "flow.fp_node_steps": "node-steps/op",
    "controls.field_at.calls": "calls/op",
    "trace.op_s": "s",
    "trace.overhead_share": "ratio",
}

COUNTERS = {
    "flow.fokker_planck_solve": (
        "flow.fp_node_steps", lambda a: a["n_time_steps"] * (a["m0"].n_cells + 1)
    ),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of spawn-to-inputs-built time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with code {proc.returncode}")
        samples.append(t1 - t0)
    return statistics.median(samples)


class Gate:
    """Worst error and pass count per check name, across all ops."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, check: "workloads.Check") -> None:
        worst, tol, n_pass, n = self.rows.get(check.name, (0.0, check.tol, 0, 0))
        if not check.error <= worst:  # NaN sticks as the worst
            worst = check.error
        self.rows[check.name] = (worst, tol, n_pass + check.passed, n + 1)

    def lines(self, workload: str) -> "list[str]":
        return [
            f"gate {workload}.{name}  worst={worst:.3e}  tol={tol:g}  pass {n_pass}/{n}"
            + ("" if n_pass == n else "  FAIL")
            for name, (worst, tol, n_pass, n) in self.rows.items()
        ]


def run_op(wl, inp: dict, ref: dict, tracer: "tracing.Tracer | None"):
    """One op: the timed call, then its untimed checks.

    The output is dropped on return, so two ops' outputs never coexist in
    memory and ``peak_rss_mb`` is the peak of one op.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = wl.op(inp)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks, readings = wl.evaluate(inp, out, ref)
    return dt, checks, readings, (wl.stats(out) if tracer is not None else {})


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    refs = [wl.oracles(inp) for inp in inputs]
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    tracer = tracing.Tracer(masschase, COUNTERS) if args.trace else None
    gate = Gate()
    defects: "dict[str, list]" = {name: [] for name in wl.ledger}
    op_times, traced_times, untraced_times = [], [], []
    layer = Counter()
    attempted = failed = 0
    min_ops = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        # tracing runs each input twice in a row, traced then untraced, so
        # the overhead share compares the same inputs
        i = (attempted // (1 + args.trace)) % len(inputs)
        traced = bool(args.trace) and attempted % 2 == 0
        attempted += 1
        try:
            dt, checks, readings, stats = run_op(wl, inputs[i], refs[i], tracer if traced else None)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        for c in checks:
            gate.add(c)
        for d in readings:
            defects[d.name].append(d)
        if not all(c.passed for c in checks):
            failed += 1
            continue
        op_times.append(dt)
        if args.trace:
            (traced_times if traced else untraced_times).append(dt)
        if traced:
            layer.update(tracing.summarize(tracer.spans))
            layer.update(tracer.counts)
            layer.update(stats)
            layer["trace.op_s"] += dt

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for line in gate.lines(args.workload):
        print(line)
    for name, readings in defects.items():
        values = [d.value for d in readings]
        status = "open" if any(d.open for d in readings) else "fixed"
        shown = (f"min={min(values):.6g} max={max(values):.6g}" if values else "not computed")
        print(f"ledger {name}  {status}  {shown}  n={len(values)}  [{workloads.LEDGER[name]}]")
    print(f"ops attempted={attempted} failed={failed} error_share={failed / attempted:.4g}")

    if args.trace:
        n_traced = max(len(traced_times), 1)
        metrics = {name: layer[name] / n_traced for name in PER_LAYER}
        if traced_times and untraced_times:
            base = statistics.median(untraced_times)
            metrics["trace.overhead_share"] = (statistics.median(traced_times) - base) / base
        units = PER_LAYER
        for name in tracing.LAYERS:
            share = metrics[f"{name}.busy_s"] / metrics["trace.op_s"] if metrics["trace.op_s"] else 0.0
            print(f"layer {name:<10} busy_share={share:.3f}")
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(op_times) / sum(op_times) if op_times else 0.0,
            "op_p50_s": statistics.median(op_times) if op_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"op_p50_s over n={len(op_times)} ops")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
