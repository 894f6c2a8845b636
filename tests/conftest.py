"""Shared test helpers: bump densities, a scatter dictionary and seeded randomness."""

import numpy as np
import pytest

from masschase.controls import AdmissibilityBounds, ControlDictionary, Scatter, standard_dictionary
from masschase.grid import DensityGrid
from masschase.scenarios import make_bump


def smooth_profile(x, center, radius):
    """Power-4 bump ``(1 - u^2)^4`` on |u| < 1, u = (x - center) / radius."""
    u = (np.asarray(x, dtype=float) - center) / radius
    return np.maximum(0.0, 1.0 - u * u) ** 4


def smooth_bump(lo, hi, n_cells, center, radius):
    """Unit-mass bump with C3 support edges (``smooth_profile``).

    Transport accuracy tests use this shape: the tight mass-conservation
    tolerances require smoother support edges than the default quartic.
    """
    return DensityGrid.from_callable(
        lo, hi, n_cells, lambda x: smooth_profile(x, center, radius), normalize=True
    )


def scatter_dictionary(c, xi1, xi2):
    """The dictionary [-c, 0, +c] with ``Scatter(xi1, xi2, c)`` appended last.

    Its bound M covers the scatter's divergence as well as the speed c.
    """
    sc = Scatter(xi1, xi2, c)
    return ControlDictionary(
        (*standard_dictionary(c).fields, sc), AdmissibilityBounds(max(c, sc.div_sup))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_bump_pair(rng, lo=-2.0, hi=3.0, n_cells=512):
    """Two random unit-mass bumps safely inside the domain."""
    span = hi - lo
    c1 = lo + span * rng.uniform(0.3, 0.7)
    c2 = lo + span * rng.uniform(0.3, 0.7)
    r1 = rng.uniform(0.3, 0.7)
    r2 = rng.uniform(0.3, 0.7)
    return make_bump(lo, hi, n_cells, c1, r1), make_bump(lo, hi, n_cells, c2, r2)
