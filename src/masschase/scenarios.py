"""Canned benchmark scenarios with provenance-tagged pass/fail reports.

Each runner assembles a game or transport experiment, computes the quantities
of interest, and returns a report whose every reference value carries a
provenance tag saying where that number comes from (closed form, independent
quadrature oracle, structural identity, or measured-and-reported). Reports
are deterministic for a fixed configuration; runtimes live in a meta block
that consumers are expected to ignore when diffing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .controls import Constant, ControlSchedule, Scatter, standard_dictionary
from .cost import MeanDiffSquared, Overlap, ZeroRunningCost, psi1, psi3
from .errors import MassChaseError
from .flow import cfl_time_steps, fokker_planck_sweep, push_forward
from .game import GameSpec, simulate_play, solve_values
from .grid import DensityGrid, sample_at, support_interval, total_mass
from .hamiltonian import Psi1Analytic, Psi3Analytic, isaacs_residual


def bump_profile(x: np.ndarray, center: float, radius: float, power: int = 2) -> np.ndarray:
    """Compactly supported polynomial bump ``(1 - u^2)^power`` on |u| < 1.

    The default quartic profile (power 2) is the standard scenario shape;
    higher powers have smoother support edges and are used where transport
    accuracy tests need them.
    """
    u = (np.asarray(x, dtype=float) - center) / radius
    return np.maximum(0.0, 1.0 - u * u) ** power


def make_bump(
    lo: float,
    hi: float,
    n_cells: int,
    center: float,
    radius: float,
    power: int = 2,
) -> DensityGrid:
    """Unit-mass bump density on the given grid."""
    return DensityGrid.from_callable(
        lo, hi, n_cells, lambda x: bump_profile(x, center, radius, power), normalize=True
    )


def oracle_quadrature_overlap(
    centers: "tuple[float, float]",
    radii: "tuple[float, float]",
    powers: "tuple[int, int]" = (2, 2),
    n_points: int = 1_000_000,
) -> float:
    """Independent high-resolution overlap integral of two unit-mass bumps.

    Trapezoid quadrature of the product of the analytic profiles on a dense
    private grid; never touches the solver's grid machinery.
    """
    lo = min(c - r for c, r in zip(centers, radii))
    hi = max(c + r for c, r in zip(centers, radii))
    xs = np.linspace(lo, hi, n_points + 1)
    fx = bump_profile(xs, centers[0], radii[0], powers[0])
    fy = bump_profile(xs, centers[1], radii[1], powers[1])
    zx = np.trapezoid(fx, xs)
    zy = np.trapezoid(fy, xs)
    return float(np.trapezoid(fx * fy, xs) / (zx * zy))


@dataclass(frozen=True)
class Check:
    """One computed-vs-reference comparison with its provenance tag."""

    name: str
    computed: float
    reference: float
    provenance: str
    tolerance: float
    mode: str  # "rel", "abs", or "bool"
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "reference": self.reference,
            "provenance": self.provenance,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "passed": self.passed,
        }


def make_check(
    name: str,
    computed: float,
    reference: float,
    provenance: str,
    tolerance: float,
    mode: str = "rel",
) -> Check:
    if mode == "rel":
        scale = abs(reference)
        if scale < 1e-12:
            passed = abs(computed - reference) <= max(tolerance, 1e-6)
        else:
            passed = abs(computed - reference) <= tolerance * scale
    elif mode == "abs":
        passed = abs(computed - reference) <= tolerance
    elif mode == "bool":
        passed = bool(computed)
    else:
        raise ValueError(f"unknown check mode {mode!r}")
    return Check(name, float(computed), float(reference), provenance, tolerance, mode, passed)


@dataclass
class ScenarioReport:
    name: str
    checks: "list[Check]" = field(default_factory=list)
    values: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def validate(self) -> None:
        """Every reference must carry a non-empty provenance tag."""
        for c in self.checks:
            if not isinstance(c.provenance, str) or not c.provenance.strip():
                raise ValueError(f"check {c.name!r} has no provenance tag")

    def to_dict(self) -> dict:
        self.validate()
        return {
            "name": self.name,
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
            "values": self.values,
            "meta": {"runtime_s": self.runtime_s},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        self.validate()
        lines = [f"scenario: {self.name}  [{'PASS' if self.all_pass else 'FAIL'}]"]
        w = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            lines.append(
                f"  {c.name:<{w}}  computed={c.computed: .6e}  reference={c.reference: .6e}  "
                f"tol={c.tolerance:g}({c.mode})  {'ok' if c.passed else 'FAIL'}  [{c.provenance}]"
            )
        for k, v in self.values.items():
            if isinstance(v, float):
                lines.append(f"  {k:<{w}}  {v: .6e}")
        return "\n".join(lines)


def run_example_psi3(
    c: float = 1.0,
    mu_x: float = 0.0,
    mu_y: float = 1.0,
    T: float = 0.5,
    n_steps: int = 32,
    n_cells: int = 512,
    radius: float = 0.5,
    tol_scale: float = 1.0,
) -> ScenarioReport:
    """Mean-gap game: the value stays at the squared initial mean gap.

    Equal speed bounds make the chase a stalemate: rigid translation at full
    speed in the same direction preserves the gap, so the solved lower and
    upper values at the origin both match the closed form, and the analytic
    candidate has vanishing Isaacs residual.
    """
    t_start = time.perf_counter()
    margin = 0.25
    lo = min(mu_x, mu_y) - radius - c * T - margin
    hi = max(mu_x, mu_y) + radius + c * T + margin
    mX = make_bump(lo, hi, n_cells, mu_x, radius)
    mY = make_bump(lo, hi, n_cells, mu_y, radius)
    d = standard_dictionary(c)
    spec = GameSpec(
        T=T, t0=0.0, n_steps=n_steps, mX0=mX, mY0=mY, dictA=d, dictB=d,
        rc=ZeroRunningCost(), fc=MeanDiffSquared(), reduced=True,
    )
    table = solve_values(spec)
    lower0 = table.value_at("lower", 0, 0.0, 0.0)
    upper0 = table.value_at("upper", 0, 0.0, 0.0)
    ref = (mu_x - mu_y) ** 2

    report = ScenarioReport(name="mean_gap_game")
    prov_value = "closed form: squared mean gap preserved under equal-speed rigid play"
    report.checks.append(make_check("lower_value", lower0, ref, prov_value, 0.05 * tol_scale))
    report.checks.append(make_check("upper_value", upper0, ref, prov_value, 0.05 * tol_scale))
    report.checks.append(
        make_check(
            "order", float(lower0 <= upper0 + 1e-9), 1.0,
            "structural: max-min never exceeds min-max", 0.0, mode="bool",
        )
    )
    resid = isaacs_residual(Psi3Analytic(), mX, mY, 0.0, d, d, ZeroRunningCost())
    report.checks.append(
        make_check(
            "isaacs_residual", abs(resid), 0.0,
            "analytic candidate: opposing full-speed pairings cancel exactly",
            1e-5 * tol_scale, mode="abs",
        )
    )
    play = simulate_play(spec, table)
    rigid = True
    if abs(mu_x - mu_y) > 1e-9:
        for ai, bi in zip(play.a_indices, play.b_indices):
            ca, cb = spec.dictA[ai].c, spec.dictB[bi].c
            if abs(ca) != c or abs(cb) != c or np.sign(ca) != np.sign(cb):
                rigid = False
    report.checks.append(
        make_check(
            "rigid_equilibrium", float(rigid), 1.0,
            "equilibrium play: both masses move at top speed in a common direction",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check("realized_J", play.realized_J, ref, prov_value, 0.05 * tol_scale)
    )
    report.values.update(
        {"lower0": lower0, "upper0": upper0, "gap": upper0 - lower0, "realized_J": play.realized_J}
    )
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def run_example_psi1(
    c: float = 1.0,
    centers: "tuple[float, float]" = (0.0, 0.3),
    radii: "tuple[float, float]" = (0.8, 0.8),
    T: float = 0.5,
    n_steps: int = 32,
    n_cells: int = 512,
    tol_scale: float = 1.0,
) -> ScenarioReport:
    """Overlap game under constant controls: the value stays at the overlap.

    Equal speeds again give rigid stalemate play; the reference overlap comes
    from an independent million-point quadrature of the analytic profiles.
    """
    t_start = time.perf_counter()
    margin = 0.25
    lo = min(cc - r for cc, r in zip(centers, radii)) - c * T - margin
    hi = max(cc + r for cc, r in zip(centers, radii)) + c * T + margin
    mX = make_bump(lo, hi, n_cells, centers[0], radii[0])
    mY = make_bump(lo, hi, n_cells, centers[1], radii[1])
    d = standard_dictionary(c)
    spec = GameSpec(
        T=T, t0=0.0, n_steps=n_steps, mX0=mX, mY0=mY, dictA=d, dictB=d,
        rc=ZeroRunningCost(), fc=Overlap(), reduced=True,
    )
    table = solve_values(spec)
    lower0 = table.value_at("lower", 0, 0.0, 0.0)
    ref = oracle_quadrature_overlap(centers, radii)

    report = ScenarioReport(name="overlap_game")
    disjoint = ref < 1e-12
    if disjoint:
        report.checks.append(
            make_check(
                "value_disjoint", lower0, 0.0,
                "oracle: disjoint supports give zero overlap, value constant in time",
                1e-3 * tol_scale, mode="abs",
            )
        )
    else:
        report.checks.append(
            make_check(
                "lower_value", lower0, ref,
                "oracle: million-point quadrature of the initial overlap; value constant in time",
                0.05 * tol_scale,
            )
        )
    resid = isaacs_residual(Psi1Analytic(), mX, mY, 0.0, d, d, ZeroRunningCost())
    report.checks.append(
        make_check(
            "isaacs_residual", abs(resid), 0.0,
            "analytic candidate: the two cross pairings are negatives of each other",
            1e-5 * tol_scale, mode="abs",
        )
    )
    report.values.update({"lower0": lower0, "oracle_overlap": ref})
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def _scatter_evolution(
    mA0: DensityGrid, c: float, t0: float, T: float, n_steps: int
) -> "list[DensityGrid]":
    """Feedback scatter evolution: joints re-derived from the current support.

    Returns the density at every level time. The spreading field is refit at
    each step because the support widens as the mass scatters.
    """
    times = np.linspace(t0, T, n_steps + 1)
    out = [mA0]
    mA = mA0
    for k in range(n_steps):
        supp = support_interval(mA, rel_threshold=1e-9)
        if supp is None:
            raise MassChaseError("scatter evolution lost the support")
        f = Scatter(supp[0], supp[1], c)
        sched = ControlSchedule.constant(f, times[k], times[k + 1])
        mA = push_forward(mA, sched, times[k], times[k + 1])
        out.append(mA)
    return out


def run_antelope_lion(
    c: float = 1.0,
    antelope: "tuple[float, float]" = (0.0, 1.0),
    lion: "tuple[float, float]" = (0.0, 0.3),
    T: float = 0.4,
    n_steps: int = 16,
    n_cells: int = 512,
    tol_scale: float = 1.0,
) -> ScenarioReport:
    """Evader mass spreading against pursuer mass: shape change pays.

    The evading mass (support containing the pursuer's) compares its best
    rigid constant control against the support-spreading feedback control;
    spreading strictly lowers its guaranteed overlap cost at the horizon.
    The pursuers respond with their best constant control throughout.
    """
    t_start = time.perf_counter()
    (ca, ra), (cl, rl) = antelope, lion
    if not (ca - ra < cl - rl and cl + rl < ca + ra):
        raise ValueError("lion support must lie strictly inside the antelope support")
    margin = 0.3
    lo = ca - ra - 2 * c * T - margin
    hi = ca + ra + 2 * c * T + margin
    mA0 = make_bump(lo, hi, n_cells, ca, ra)
    mL0 = make_bump(lo, hi, n_cells, cl, rl)
    d = standard_dictionary(c)

    # floor of the evader density over the pursuer support
    xs_l = np.linspace(cl - rl, cl + rl, 257)
    a_prime = float(np.min(sample_at(mA0, xs_l)))
    initial_overlap = psi1(mA0, mL0)

    def lion_final(b: float) -> DensityGrid:
        sched = ControlSchedule.constant(Constant(b), 0.0, T)
        return push_forward(mL0, sched, 0.0, T)

    lion_finals = {f.c: lion_final(f.c) for f in d.fields}

    # (i) constant evader controls against the best constant pursuer response
    guaranteed_const = np.inf
    for fa in d.fields:
        sched_a = ControlSchedule.constant(fa, 0.0, T)
        mA_T = push_forward(mA0, sched_a, 0.0, T)
        worst = max(psi1(mA_T, mL) for mL in lion_finals.values())
        guaranteed_const = min(guaranteed_const, worst)

    # (ii) the spreading feedback control against the same responses
    evolution = _scatter_evolution(mA0, c, 0.0, T, n_steps)
    mA_scatter_T = evolution[-1]
    scatter_costs = {b: psi1(mA_scatter_T, mL) for b, mL in lion_finals.items()}
    guaranteed_scatter = max(scatter_costs.values())
    best_scatter = min(scatter_costs.values())

    # static pursuers: overlap along the spreading evolution
    overlaps_static = [psi1(m, mL0) for m in evolution]
    a_dprime = float(np.max(sample_at(mA_scatter_T, xs_l)))

    report = ScenarioReport(name="antelope_lion")
    report.checks.append(
        make_check(
            "initial_overlap_floor", float(initial_overlap >= a_prime - 1e-9), 1.0,
            "measured: overlap of unit pursuer mass is at least the evader floor on its support",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "floor_nonnegative", float(a_prime >= 0.0), 1.0,
            "measured: the evader density floor over the pursuer support",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "scatter_reduces_overlap", float(guaranteed_scatter < initial_overlap), 1.0,
            "simulated: spreading lowers the final overlap below the initial one",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "scatter_beats_constants", float(guaranteed_scatter < guaranteed_const), 1.0,
            "simulated: guaranteed spread cost under best pursuer response beats "
            "the best rigid control's guaranteed cost",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "scatter_best_case_beats_constants", float(best_scatter < guaranteed_const), 1.0,
            "simulated: implied by the guaranteed-case comparison",
            0.0, mode="bool",
        )
    )
    diffs = np.diff(overlaps_static)
    report.checks.append(
        make_check(
            "static_pursuer_monotone", float(np.all(diffs <= 1e-12) and overlaps_static[-1] < overlaps_static[0]),
            1.0,
            "simulated: spreading against static pursuers drains the overlap monotonically",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "ceiling_below_floor", float(a_dprime < a_prime), 1.0,
            "simulated: after spreading, the evader ceiling over the pursuer support "
            "drops below the initial floor",
            0.0, mode="bool",
        )
    )
    report.values.update(
        {
            "a_prime": a_prime,
            "a_doubleprime": a_dprime,
            "initial_overlap": initial_overlap,
            "guaranteed_scatter": guaranteed_scatter,
            "best_scatter": best_scatter,
            "guaranteed_const": float(guaranteed_const),
            "overlaps_static": [float(v) for v in overlaps_static],
            "final_mass_drift": abs(total_mass(mA_scatter_T) - 1.0),
        }
    )
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def run_viscosity_sweep(
    sigmas: "tuple[float, ...]" = (0.1, 0.03, 0.01, 0.003),
    c: float = 1.0,
    centers: "tuple[float, float]" = (-0.4, 0.4),
    radii: "tuple[float, float]" = (0.6, 0.6),
    speeds: "tuple[float, float]" = (0.5, -0.5),
    T: float = 0.5,
    n_cells: int = 512,
    n_time_steps: "int | None" = None,
    fc_kind: str = "overlap",
    tol_scale: float = 1.0,
) -> ScenarioReport:
    """Cost gap to the zero-noise run as the agent noise vanishes.

    All runs, including the zero-noise reference, march through the same
    splitting solver with the same step count (chosen from the stability
    limit of the largest noise level), so the reported gaps isolate the
    diffusion effect from the transport discretization.
    """
    if any(s1 >= s0 for s0, s1 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly descending")
    t_start = time.perf_counter()
    margin = 0.3
    v_reach = max(abs(s) for s in speeds) * T
    lo = min(cc - r for cc, r in zip(centers, radii)) - v_reach - margin
    hi = max(cc + r for cc, r in zip(centers, radii)) + v_reach + margin
    mX = make_bump(lo, hi, n_cells, centers[0], radii[0])
    mY = make_bump(lo, hi, n_cells, centers[1], radii[1])
    alpha = ControlSchedule.constant(Constant(speeds[0]), 0.0, T)
    beta = ControlSchedule.constant(Constant(speeds[1]), 0.0, T)
    if fc_kind == "overlap":
        cost = psi1
    elif fc_kind == "mean_gap":
        cost = psi3
    else:
        raise ValueError(f"unknown final-cost kind {fc_kind!r}")

    sigma_max = max(max(sigmas), 1e-12)
    n_t = n_time_steps if n_time_steps is not None else max(
        cfl_time_steps(m, sched, sigma_max, 0.0, T) for m, sched in ((mX, alpha), (mY, beta))
    )

    # one march: mX rows then mY rows, each at (0, sigmas..., 0); the second
    # zero-noise pair is marched on its own rows for the identity check
    row_sigmas = (0.0, *sigmas, 0.0)
    n = len(row_sigmas)
    finals = fokker_planck_sweep(
        [mX] * n + [mY] * n, [alpha] * n + [beta] * n, row_sigmas * 2, 0.0, T, n_t
    )
    Js = [cost(finals[i], finals[n + i]) for i in range(n)]
    J0 = Js[0]
    rows = [{"sigma": s, "J": J, "gap_to_sigma0": abs(J - J0)} for s, J in zip(sigmas, Js[1:-1])]
    gaps = [r["gap_to_sigma0"] for r in rows]

    report = ScenarioReport(name=f"viscosity_sweep_{fc_kind}")
    report.checks.append(
        make_check(
            "gaps_nonincreasing",
            float(all(g1 <= g0 + 1e-12 for g0, g1 in zip(gaps, gaps[1:]))),
            1.0,
            "simulated: the cost gap shrinks with the noise level under a shared scheme",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "reference_identity", abs(Js[-1] - J0), 0.0,
            "structural: the zero-noise entry is its own reference",
            1e-15 * max(tol_scale, 1e-12), mode="abs",
        )
    )
    report.values.update({"J0": J0, "rows": rows, "n_time_steps": n_t})
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report
