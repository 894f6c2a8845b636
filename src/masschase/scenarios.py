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
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from .controls import ControlSchedule, standard_dictionary
from .cost import FinalCost, MeanDiffSquared, Overlap, ZeroRunningCost, psi1, relative_final_cost
from .flow import heat_step, push_forward
from .game import GameSpec, simulate_play, solve_values
from .grid import DensityGrid, sample_at, total_mass
from .hamiltonian import Psi1Analytic, Psi3Analytic, isaacs_residual


def bump_profile(x: np.ndarray, center: float, radius: float) -> np.ndarray:
    """Compactly supported quartic bump ``(1 - u^2)^2`` on |u| < 1, u = (x - center) / radius.

    The power 2 is fixed: every scenario and oracle uses this shape.
    """
    u = (np.asarray(x, dtype=float) - center) / radius
    return np.maximum(0.0, 1.0 - u * u) ** 2


def make_bump(lo: float, hi: float, n_cells: int, center: float, radius: float) -> DensityGrid:
    """Unit-mass quartic bump density (``bump_profile``) on the given grid."""
    return DensityGrid.from_callable(
        lo, hi, n_cells, lambda x: bump_profile(x, center, radius), normalize=True
    )


def oracle_quadrature_overlap(centers: "tuple[float, float]", radii: "tuple[float, float]") -> float:
    """Independent high-resolution overlap integral of two unit-mass quartic bumps.

    Trapezoid quadrature of the product of the analytic profiles on a dense
    private grid of a million cells; never touches the solver's grid
    machinery.
    """
    lo = min(c - r for c, r in zip(centers, radii))
    hi = max(c + r for c, r in zip(centers, radii))
    xs = np.linspace(lo, hi, 1_000_001)
    fx = bump_profile(xs, centers[0], radii[0])
    fy = bump_profile(xs, centers[1], radii[1])
    zx = np.trapezoid(fx, xs)
    zy = np.trapezoid(fy, xs)
    return float(np.trapezoid(fx * fy, xs) / (zx * zy))


@cache
def _hermite_nodes():
    """The 80-point Gauss-Hermite rule, built once."""
    return np.polynomial.hermite.hermgauss(80)


# the 5-point Gauss-Legendre rule on [-1, 1] in closed form: numpy's leggauss
# goes through LAPACK, whose first call adds about 1 MB of resident memory
_U, _V = (np.sqrt(5.0 + s * 2.0 * np.sqrt(10.0 / 7.0)) / 3.0 for s in (-1.0, 1.0))
_WU, _WV = ((322.0 + s * 13.0 * np.sqrt(70.0)) / 900.0 for s in (1.0, -1.0))
_LEGENDRE = np.array([-_V, -_U, 0.0, _U, _V]), np.array([_WV, _WU, 128.0 / 225.0, _WU, _WV])


def heat_kernel_oracle(
    centers: "tuple[float, float]",
    radii: "tuple[float, float]",
    sigma: float,
    T: float,
) -> float:
    """Overlap of two unit-mass quartic bumps after each diffuses for time T on the line.

    Each density spreads by an independent N(0, 2*sigma*T) displacement, so
    the overlap is the noiseless overlap averaged over a centre shift
    d ~ N(0, 4*sigma*T). The average is Gauss-Hermite in d (d = 0 alone at
    sigma = 0); each overlap is 5-point Gauss-Legendre on the support
    intersection, which is exact for the degree-8 product of the two
    profiles. Analytic profiles only; never touches the solver's grid machinery.
    """
    xh, wh = (np.zeros(1), np.full(1, np.sqrt(np.pi))) if sigma == 0.0 else _hermite_nodes()
    xl, wl = _LEGENDRE
    (cx, cy), (rx, ry) = centers, radii
    cy_d = cy + np.sqrt(8.0 * sigma * T) * xh
    lo = np.maximum(cx - rx, cy_d - ry)
    half = 0.5 * np.maximum(np.minimum(cx + rx, cy_d + ry) - lo, 0.0)
    x = (lo + half)[:, None] + half[:, None] * xl
    prod = bump_profile(x, cx, rx) * bump_profile(x, cy_d[:, None], ry)
    # a unit-mass quartic bump of radius r is (15 / (16 r)) (1 - u^2)^2
    overlaps = half * (prod @ wl) * (15.0 / 16.0) ** 2 / (rx * ry)
    return float(wh @ overlaps / np.sqrt(np.pi))


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
        return asdict(self)


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


def _rigid_game(
    centers: "tuple[float, float]", radii: "tuple[float, float]", fc: FinalCost
) -> GameSpec:
    """The equal-speed game of both examples, for two quartic bumps and a final cost.

    Both dictionaries are {-1, 0, 1}, the horizon is 0.5 in 32 steps, there is
    no running cost, and the 512-cell domain reaches 0.25 beyond the support
    either density can translate to.
    """
    c, T, margin = 1.0, 0.5, 0.25
    lo = min(cc - r for cc, r in zip(centers, radii)) - c * T - margin
    hi = max(cc + r for cc, r in zip(centers, radii)) + c * T + margin
    mX, mY = (make_bump(lo, hi, 512, cc, r) for cc, r in zip(centers, radii))
    d = standard_dictionary(c)
    return GameSpec(
        T=T, t0=0.0, n_steps=32, mX0=mX, mY0=mY, dictA=d, dictB=d,
        rc=ZeroRunningCost(), fc=fc,
    )


def run_example_psi3() -> ScenarioReport:
    """Mean-gap game: the value stays at the squared initial mean gap.

    The inputs are fixed: quartic bumps of radius 0.5 centred at 0 and 1, in
    the rigid game of ``_rigid_game``. Equal speed bounds make the chase a
    stalemate: rigid translation at full speed in the same direction
    preserves the gap, so the solved lower and upper values at the origin
    both match the closed form, and the analytic candidate has vanishing
    Isaacs residual.
    """
    t_start = time.perf_counter()
    mu_x, mu_y = 0.0, 1.0
    spec = _rigid_game((mu_x, mu_y), (0.5, 0.5), MeanDiffSquared())
    d = spec.dictA
    table = solve_values(spec)
    lower0 = table.value_at("lower", 0, 0.0, 0.0)
    upper0 = table.value_at("upper", 0, 0.0, 0.0)
    ref = (mu_x - mu_y) ** 2

    report = ScenarioReport(name="mean_gap_game")
    prov_value = "closed form: squared mean gap preserved under equal-speed rigid play"
    report.checks.append(make_check("lower_value", lower0, ref, prov_value, 0.05))
    report.checks.append(make_check("upper_value", upper0, ref, prov_value, 0.05))
    report.checks.append(
        make_check(
            "order", float(lower0 <= upper0 + 1e-9), 1.0,
            "structural: max-min never exceeds min-max", 0.0, mode="bool",
        )
    )
    resid = isaacs_residual(Psi3Analytic(), spec.mX0, spec.mY0, 0.0, d, d, ZeroRunningCost())
    report.checks.append(
        make_check(
            "isaacs_residual", abs(resid), 0.0,
            "analytic candidate: opposing full-speed pairings cancel exactly",
            1e-5, mode="abs",
        )
    )
    play = simulate_play(spec, table)
    rigid = True
    for ai, bi in zip(play.a_indices, play.b_indices):
        ca, cb = d[ai].c, d[bi].c
        if abs(ca) != d.max_speed or abs(cb) != d.max_speed or np.sign(ca) != np.sign(cb):
            rigid = False
    report.checks.append(
        make_check(
            "rigid_equilibrium", float(rigid), 1.0,
            "equilibrium play: both masses move at top speed in a common direction",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check("realized_J", play.realized_J, ref, prov_value, 0.05)
    )
    report.values.update(
        {"lower0": lower0, "upper0": upper0, "gap": upper0 - lower0, "realized_J": play.realized_J}
    )
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def run_example_psi1() -> ScenarioReport:
    """Overlap game under constant controls: the value stays at the overlap.

    The inputs are fixed: quartic bumps of radius 0.8 centred at 0 and 0.3,
    in the rigid game of ``_rigid_game``. Equal speeds again give rigid
    stalemate play; the reference overlap comes from an independent
    million-point quadrature of the analytic profiles.
    """
    t_start = time.perf_counter()
    centers, radii = (0.0, 0.3), (0.8, 0.8)
    spec = _rigid_game(centers, radii, Overlap())
    d = spec.dictA
    table = solve_values(spec)
    lower0 = table.value_at("lower", 0, 0.0, 0.0)
    ref = oracle_quadrature_overlap(centers, radii)

    report = ScenarioReport(name="overlap_game")
    report.checks.append(
        make_check(
            "lower_value", lower0, ref,
            "oracle: million-point quadrature of the initial overlap; value constant in time",
            0.05,
        )
    )
    resid = isaacs_residual(Psi1Analytic(), spec.mX0, spec.mY0, 0.0, d, d, ZeroRunningCost())
    report.checks.append(
        make_check(
            "isaacs_residual", abs(resid), 0.0,
            "analytic candidate: the two cross pairings are negatives of each other",
            1e-5, mode="abs",
        )
    )
    report.values.update({"lower0": lower0, "oracle_overlap": ref})
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def run_antelope_lion(
    antelope: "tuple[float, float]" = (0.0, 1.0),
    lion: "tuple[float, float]" = (0.0, 0.3),
    T: float = 0.4,
    n_steps: int = 16,
) -> ScenarioReport:
    """Evader mass spreading against pursuer mass: shape change pays.

    The evading mass (support containing the pursuer's) compares its best
    rigid constant control against the support-spreading feedback control;
    spreading strictly lowers its guaranteed overlap cost at the horizon.
    The pursuers respond with their best constant control throughout.
    Spreading is a ``Scatter`` refit at every instant to the evader's
    support, whose exact flow dilates the initial bump to radius ra + c t;
    ``n_steps`` sets only how many levels ``overlaps_static`` reports.
    ``antelope`` and ``lion`` are (centre, radius) pairs. Fixed inputs: both
    sides use the dictionary {-1, 0, 1} and the scatter speed 1, on 512
    cells with a domain 0.3 wider than twice the reach.
    """
    t_start = time.perf_counter()
    (ca, ra), (cl, rl) = antelope, lion
    if not (ca - ra < cl - rl and cl + rl < ca + ra):
        raise ValueError("lion support must lie strictly inside the antelope support")
    c, n_cells, margin = 1.0, 512, 0.3
    lo = ca - ra - 2 * c * T - margin
    hi = ca + ra + 2 * c * T + margin
    mA0 = make_bump(lo, hi, n_cells, ca, ra)
    mL0 = make_bump(lo, hi, n_cells, cl, rl)
    d = standard_dictionary(c)

    # floor of the evader density over the pursuer support
    xs_l = np.linspace(cl - rl, cl + rl, 257)
    a_prime = float(np.min(sample_at(mA0, xs_l)))
    initial_overlap = psi1(mA0, mL0)

    lion_finals = {
        f.c: push_forward(mL0, ControlSchedule.constant(f, 0.0, T), 0.0, T) for f in d.fields
    }

    # (i) the one-step game's upper value: the best constant evader control
    # against the best constant pursuer response
    rigid = GameSpec(
        T=T, t0=0.0, n_steps=1, mX0=mA0, mY0=mL0, dictA=d, dictB=d,
        rc=ZeroRunningCost(), fc=Overlap(),
    )
    guaranteed_const = solve_values(rigid).value_at("upper", 0, 0.0, 0.0)

    # (ii) the spreading feedback control against the same responses: a Scatter
    # refit to [ca - R, ca + R] is c (x - ca) / R there, so R' = c and mA0 dilates
    # about ca by s = (ra + c t) / ra; each level is mA0 at the foot times 1 / s
    x = mA0.x
    evolution = [
        DensityGrid(lo, hi, sample_at(mA0, ca + (x - ca) / s) / s)
        for s in (ra + c * np.linspace(0.0, T, n_steps + 1)) / ra
    ]
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
            "scatter_reduces_overlap", float(guaranteed_scatter < initial_overlap), 1.0,
            "closed-form dilate: spreading lowers the final overlap below the initial one",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "scatter_beats_constants", float(guaranteed_scatter < guaranteed_const), 1.0,
            "closed-form dilate: guaranteed spread cost under best pursuer response beats "
            "the best rigid control's guaranteed cost",
            0.0, mode="bool",
        )
    )
    oracle_scatter = max(
        heat_kernel_oracle((ca, cl + b * T), (ra + c * T, rl), 0.0, T) for b in lion_finals
    )
    report.checks.append(
        make_check(
            "scatter_vs_oracle", guaranteed_scatter, oracle_scatter,
            "closed form: the continuously refit scatter dilates the bump to radius R0 + cT; "
            "oracle: exact overlap of the analytic bumps",
            1e-3,
        )
    )
    diffs = np.diff(overlaps_static)
    report.checks.append(
        make_check(
            "static_pursuer_monotone", float(np.all(diffs <= 1e-12) and overlaps_static[-1] < overlaps_static[0]),
            1.0,
            "closed-form dilate: spreading against static pursuers drains the overlap monotonically",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "ceiling_below_floor", float(a_dprime < a_prime), 1.0,
            "closed-form dilate: after spreading, the evader ceiling over the pursuer support "
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
            "guaranteed_const": guaranteed_const,
            "overlaps_static": [float(v) for v in overlaps_static],
            "final_mass_drift": abs(total_mass(mA_scatter_T) - 1.0),
        }
    )
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report


def run_viscosity_sweep(
    centers: "tuple[float, float]" = (-0.4, 0.4),
    radii: "tuple[float, float]" = (0.6, 0.6),
    speeds: "tuple[float, float]" = (0.5, -0.5),
) -> ScenarioReport:
    """Overlap gap to the zero-noise run as the agent noise vanishes.

    Both speeds are constant and diffusion commutes with translation, so each
    noise level heat-steps the untranslated bumps once (``flow.heat_step``)
    and reads their overlap at the relative shift z_T = (vX - vY) * T
    (``cost.relative_final_cost``). Nothing is translated, so the domain is
    padded only by 6 standard deviations of the widest heat kernel. Every
    overlap is checked against the heat-kernel convolution of the analytic
    bumps. Fixed inputs: the noise levels 0.1, 0.03, 0.01 and 0.003, the
    horizon 0.5, and 512 cells.
    """
    t_start = time.perf_counter()
    sigmas, T, n_cells = (0.1, 0.03, 0.01, 0.003), 0.5, 512
    pad = 6.0 * np.sqrt(2.0 * max(sigmas) * T)
    lo = min(cc - r for cc, r in zip(centers, radii)) - pad
    hi = max(cc + r for cc, r in zip(centers, radii)) + pad
    mX = make_bump(lo, hi, n_cells, centers[0], radii[0])
    mY = make_bump(lo, hi, n_cells, centers[1], radii[1])
    z_T = (speeds[0] - speeds[1]) * T

    row_sigmas = (0.0, *sigmas)
    diffused = [(heat_step(mX, s * T), heat_step(mY, s * T)) for s in row_sigmas]
    Js = [float(relative_final_cost(Overlap(), dX, dY)(z_T)) for dX, dY in diffused]
    J0 = Js[0]
    rows = [{"sigma": s, "J": J, "gap_to_sigma0": abs(J - J0)} for s, J in zip(sigmas, Js[1:])]
    gaps = [r["gap_to_sigma0"] for r in rows]

    report = ScenarioReport(name="viscosity_sweep_overlap")
    report.checks.append(
        make_check(
            "gaps_nonincreasing",
            float(all(g1 <= g0 + 1e-12 for g0, g1 in zip(gaps, gaps[1:]))),
            1.0,
            "simulated: the cost gap shrinks with the noise level",
            0.0, mode="bool",
        )
    )
    report.checks.append(
        make_check(
            "heat_mass_kept",
            max(abs(total_mass(m) - 1.0) for pair in diffused for m in pair), 0.0,
            "structural: the heat semigroup conserves mass on the whole line; "
            "the domain pad keeps the zero-Dirichlet loss below this",
            1e-5, mode="abs",
        )
    )
    final_centers = tuple(cc + v * T for cc, v in zip(centers, speeds))
    report.checks += [
        make_check(
            f"J_vs_oracle_sigma={s:g}", J, heat_kernel_oracle(final_centers, radii, s, T),
            "oracle: heat-kernel convolution of the analytic bumps", 1e-3,
        )
        for s, J in zip(row_sigmas, Js)
    ]
    report.values.update({"J0": J0, "rows": rows})
    report.runtime_s = time.perf_counter() - t_start
    report.validate()
    return report
