import math

import pytest

from zetaglue import FiberSpectrum, GlueGeometry

try:
    from hypothesis import settings
except ImportError:  # the property suite skips itself without hypothesis
    pass
else:
    # the same examples on every run, and none replayed from earlier runs
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")

THETA = math.pi / 2


@pytest.fixture
def std_fiber():
    """Two transverse modes: one in the kernel, one at frequency 1."""
    return FiberSpectrum.finite([(0.0, 1), (1.0, 1)])


@pytest.fixture
def std_geom():
    """a1 = 1, a2 = 2, quarter-turn holonomy on the zero mode."""
    def make(R: float = 4.0, theta: float = THETA) -> GlueGeometry:
        return GlueGeometry(1.0, 2.0, R, holonomy=(theta,))
    return make


@pytest.fixture
def circle_fiber():
    return FiberSpectrum.circle(2 * math.pi)
