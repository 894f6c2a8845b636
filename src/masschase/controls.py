"""Admissible velocity fields, control dictionaries, and time schedules.

Fields are defined on all of R (clipped where applicable), which sidesteps
compact-support bookkeeping; the effective domain is always the support tube,
where clipping stays inactive in the canonical scenarios. Each kind exposes
its analytic spatial derivative so flow integration never needs finite
differences of the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class Constant:
    """Spatially constant field: rigid translation at speed ``c``."""

    c: float

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    sup_norm = property(lambda self: abs(self.c))
    div_sup = property(lambda self: 0.0)

    def describe(self) -> str:
        return f"constant({self.c:g})"


@dataclass(frozen=True)
class Affine:
    """``slope * x + intercept`` clipped to [-clip, clip]; derivative 0 where clipped."""

    slope: float
    intercept: float
    clip: float

    def __post_init__(self) -> None:
        if self.clip <= 0:
            raise ValueError("clip bound must be positive")

    def value(self, x):
        return np.clip(self.slope * np.asarray(x, dtype=float) + self.intercept, -self.clip, self.clip)

    def derivative(self, x):
        raw = self.slope * np.asarray(x, dtype=float) + self.intercept
        return np.where(np.abs(raw) < self.clip, self.slope, 0.0)

    sup_norm = property(lambda self: self.clip)
    div_sup = property(lambda self: abs(self.slope))

    def describe(self) -> str:
        return f"affine({self.slope:g}*x{self.intercept:+g}, clip {self.clip:g})"


@dataclass(frozen=True)
class Scatter:
    """Spreading field: -c left of xi1, +c right of xi2, linear in between.

    Only piecewise-linear in space (W1inf, not W2inf): its divergence jumps at
    the two joints, which the admissibility validator reports as a warning.
    """

    xi1: float
    xi2: float
    c: float

    def __post_init__(self) -> None:
        if not self.xi1 < self.xi2:
            raise ValueError(f"scatter needs xi1 < xi2, got ({self.xi1}, {self.xi2})")
        if self.c <= 0:
            raise ValueError("scatter speed c must be positive")

    def value(self, x):
        t = np.clip((np.asarray(x, dtype=float) - self.xi1) / (self.xi2 - self.xi1), 0.0, 1.0)
        return -self.c + 2.0 * self.c * t

    def derivative(self, x):
        xa = np.asarray(x, dtype=float)
        inside = (xa > self.xi1) & (xa < self.xi2)
        return np.where(inside, 2.0 * self.c / (self.xi2 - self.xi1), 0.0)

    sup_norm = property(lambda self: self.c)
    div_sup = property(lambda self: 2.0 * self.c / (self.xi2 - self.xi1))

    def describe(self) -> str:
        return f"scatter([{self.xi1:g},{self.xi2:g}], c {self.c:g})"


ControlField = Union[Constant, Affine, Scatter]


def eval_field(f: ControlField, x, want_derivative: bool = False):
    """Evaluate a field (and optionally its analytic spatial derivative) at ``x``.

    Scalars in, scalars out; arrays in, arrays out.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    v = f.value(x)
    if scalar:
        v = float(v)
    if not want_derivative:
        return v
    d = f.derivative(x)
    if scalar:
        d = float(d)
    return v, d


@dataclass(frozen=True)
class AdmissibilityBounds:
    """The single bound M applied to sup-norm, H1 norm, and divergence norm."""

    M: float

    def __post_init__(self) -> None:
        if self.M <= 0:
            raise ValueError("admissibility bound M must be positive")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Measured field norms over a bounded domain plus per-constraint verdicts."""

    sup_norm: float
    h1_norm: float
    div_sup: float
    div_lipschitz: float
    passes: dict
    warnings: tuple

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def validate_admissible(
    f: ControlField,
    bounds: AdmissibilityBounds,
    domain: "tuple[float, float]",
    n_probe: int = 256,
) -> AdmissibilityReport:
    """Probe a field against the admissibility bounds over a bounded interval.

    The H1 norm is computed over the probe domain only (a nonzero constant
    field has infinite H1 norm over the whole line; the game only ever sees
    the field on the support tube). The divergence Lipschitz estimate is a
    finite-difference probe: for piecewise-linear kinds whose divergence
    jumps, the estimate diverges with probe resolution and is reported as a
    smoothness warning rather than a failure of the divergence bound.
    """
    if n_probe < 2:
        raise ValueError("need at least 2 probe points")
    lo, hi = domain
    xs = np.linspace(lo, hi, n_probe)
    h = xs[1] - xs[0]
    v, d = eval_field(f, xs, want_derivative=True)
    sup = float(np.max(np.abs(v)))
    # trapezoid is plenty for a report-level norm probe
    h1 = float(np.sqrt(np.trapezoid(v * v + d * d, xs)))
    div_sup = float(np.max(np.abs(d)))
    div_lip = float(np.max(np.abs(np.diff(d))) / h)

    warnings = []
    smooth = isinstance(f, Constant)
    if not smooth:
        warnings.append(
            f"{f.describe()}: divergence is discontinuous at the joints; "
            "field is W1inf but not W2inf"
        )
    passes = {
        "sup_norm": sup <= bounds.M + 1e-12,
        "h1_norm": h1 <= bounds.M + 1e-12,
        # the W1inf divergence bound; the Lipschitz part only constrains
        # smooth kinds, piecewise-linear kinds carry the warning instead
        "div_w1inf": (div_sup + (0.0 if not smooth else div_lip)) <= bounds.M + 1e-12,
    }
    return AdmissibilityReport(sup, h1, div_sup, div_lip, passes, tuple(warnings))


@dataclass(frozen=True)
class ControlDictionary:
    """A fixed, ordered, finite family of admissible fields.

    Order is part of the contract: downstream argmin/argmax tie-breaking
    picks the lowest index, so identical construction must yield identical
    optimization results.
    """

    fields: "tuple[ControlField, ...]"
    bounds: AdmissibilityBounds

    def __post_init__(self) -> None:
        if len(self.fields) == 0:
            raise ValueError("control dictionary must be nonempty")
        object.__setattr__(self, "fields", tuple(self.fields))
        for f in self.fields:
            if f.sup_norm > self.bounds.M + 1e-12:
                raise ValueError(
                    f"{f.describe()}: sup-norm {f.sup_norm:g} exceeds bound M={self.bounds.M:g}"
                )

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> ControlField:
        return self.fields[i]

    @property
    def max_speed(self) -> float:
        return max(f.sup_norm for f in self.fields)

    @property
    def div_bound(self) -> float:
        """Largest divergence sup-norm over the dictionary."""
        return max(f.div_sup for f in self.fields)

    def all_constant(self) -> bool:
        return all(isinstance(f, Constant) for f in self.fields)


def standard_dictionary(
    c: float,
    include_scatter: bool = False,
    xi1: float = 0.0,
    xi2: float = 1.0,
) -> ControlDictionary:
    """The canonical dictionary [-c, 0, +c], optionally with a scatter field last."""
    if c <= 0:
        raise ValueError("speed bound c must be positive")
    fields: "list[ControlField]" = [Constant(-c), Constant(0.0), Constant(c)]
    M = c
    if include_scatter:
        sc = Scatter(xi1, xi2, c)
        fields.append(sc)
        M = max(M, sc.div_sup)
    return ControlDictionary(tuple(fields), AdmissibilityBounds(M))


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant-in-time selection of fields over [t0, t1].

    ``breakpoints`` has one more entry than ``fields``; the selection is
    right-continuous, with the final field extending to the last breakpoint.
    """

    breakpoints: "tuple[float, ...]"
    fields: "tuple[ControlField, ...]"

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        fs = tuple(self.fields)
        if len(bp) != len(fs) + 1:
            raise ValueError("need exactly one field per breakpoint interval")
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "fields", fs)

    @property
    def t0(self) -> float:
        return self.breakpoints[0]

    @property
    def t1(self) -> float:
        return self.breakpoints[-1]

    def field_at(self, t: float) -> ControlField:
        """The active field at time t (right-continuous; clamped to [t0, t1])."""
        if t <= self.t0:
            return self.fields[0]
        if t >= self.t1:
            return self.fields[-1]
        i = int(np.searchsorted(np.asarray(self.breakpoints), t, side="right")) - 1
        return self.fields[min(i, len(self.fields) - 1)]

    def value(self, x, t: float):
        return self.field_at(t).value(x)

    def derivative(self, x, t: float):
        return self.field_at(t).derivative(x)

    def segments(self, t0: float, t1: float):
        """Yield (s0, s1, field) pieces covering [t0, t1] with constant field each."""
        if t1 < t0:
            raise ValueError("need t0 <= t1")
        if t1 == t0:
            yield t0, t1, self.field_at(t0)
            return
        bp = self.breakpoints
        cuts = [t0] + [b for b in bp if t0 < b < t1] + [t1]
        for s0, s1 in zip(cuts, cuts[1:]):
            yield s0, s1, self.field_at(s0)

    @property
    def max_speed(self) -> float:
        return max(f.sup_norm for f in self.fields)

    @classmethod
    def constant(cls, f: ControlField, t0: float, t1: float) -> "ControlSchedule":
        return cls((t0, t1), (f,))


def schedule_from_sequence(
    times: Sequence[float],
    dictionary_indices: Sequence[int],
    dictionary: ControlDictionary,
) -> ControlSchedule:
    """Build a schedule selecting one dictionary entry per interval.

    ``times`` are the interval breakpoints; there must be exactly
    ``len(times) - 1`` indices. Raises IndexError for an out-of-range index.
    """
    if len(dictionary_indices) != len(times) - 1:
        raise ValueError(
            f"expected {len(times) - 1} indices for {len(times)} breakpoints, "
            f"got {len(dictionary_indices)}"
        )
    fields = []
    for k in dictionary_indices:
        if not 0 <= k < len(dictionary):
            raise IndexError(f"dictionary index {k} out of range [0, {len(dictionary)})")
        fields.append(dictionary[k])
    return ControlSchedule(tuple(times), tuple(fields))
