"""Shared test helpers: bump densities and seeded randomness."""

import numpy as np
import pytest

from masschase.scenarios import make_bump


def smooth_bump(lo, hi, n_cells, center, radius):
    """Unit-mass bump with C3 support edges (power-4 profile).

    Transport accuracy tests use this shape: the tight mass-conservation
    tolerances require smoother support edges than the default quartic.
    """
    return make_bump(lo, hi, n_cells, center, radius, power=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_bump_pair(rng, lo=-2.0, hi=3.0, n_cells=512, power=2):
    """Two random unit-mass bumps safely inside the domain."""
    span = hi - lo
    c1 = lo + span * rng.uniform(0.3, 0.7)
    c2 = lo + span * rng.uniform(0.3, 0.7)
    r1 = rng.uniform(0.3, 0.7)
    r2 = rng.uniform(0.3, 0.7)
    return (
        make_bump(lo, hi, n_cells, c1, r1, power),
        make_bump(lo, hi, n_cells, c2, r2, power),
    )
