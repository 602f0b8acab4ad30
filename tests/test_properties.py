"""Property suite over random finite fibers: the log-domain gluing identity
per stretch, and the symmetries of the assembled log-determinants."""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zetaglue.glue import GlueGeometry, logdet_grid  # noqa: E402
from zetaglue.spectral_core import FiberSpectrum, fiber_zeta_data  # noqa: E402

GRID = (2.0, 5.0, 16.0, 64.0)
PHASE = st.floats(0.1, 2.0 * math.pi - 0.1)


@st.composite
def instances(draw):
    """A finite fiber with 1-2000 nonzero modes of multiplicity 1-3 and 1-3
    zero modes, with a1, a2 in [0.5, 3] and one phase per zero mode."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 2000))
    zeros = draw(st.integers(1, 3))
    mus = sorted({0.1 * 100.0 ** rng.random() for _ in range(n)})
    fiber = FiberSpectrum.finite([(0.0, zeros)]
                                 + [(mu, rng.randint(1, 3)) for mu in mus])
    geom = GlueGeometry(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)),
                        GRID[0], holonomy=tuple(draw(PHASE) for _ in range(zeros)))
    return fiber, geom


def _logs(asm):
    return asm.log_det_M, asm.log_det_M1, asm.log_det_M2, asm.log_det_R


def _tol(asm):
    # per-mode rounding, summed over the fiber: a few ulps of each term
    return 1e-15 * sum(r.mult * (abs(r.log_det_M) + abs(r.log_det_M1)
                                 + abs(r.log_det_M2) + abs(r.log_det_R))
                       for r in asm.rows) + 1e-13


@settings(max_examples=40, deadline=None)
@given(instances())
def test_log_domain_bfk_identity(inst):
    fiber, geom = inst
    constant = -(2.0 * fiber_zeta_data(fiber).zeta_at_zero
                 + 2 * fiber.h0) * math.log(2.0)
    for asm in logdet_grid(geom, fiber, GRID):
        log_m, log_1, log_2, log_r = _logs(asm)
        assert abs((log_m - log_1 - log_2 - log_r) - constant) <= _tol(asm)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_piece_swap_symmetry(inst):
    fiber, geom = inst
    swapped = GlueGeometry(geom.a2, geom.a1, geom.R, geom.holonomy)
    for a, b in zip(logdet_grid(geom, fiber, GRID),
                    logdet_grid(swapped, fiber, GRID)):
        tol = _tol(a)
        (m, m1, m2, r), (sm, sm1, sm2, sr) = _logs(a), _logs(b)
        assert abs(m - sm) <= tol and abs(r - sr) <= tol
        assert abs(m1 - sm2) <= tol and abs(m2 - sm1) <= tol


@settings(max_examples=40, deadline=None)
@given(instances())
def test_holonomy_reflection_invariance(inst):
    fiber, geom = inst
    reflected = GlueGeometry(geom.a1, geom.a2, geom.R,
                             tuple(2.0 * math.pi - t for t in geom.holonomy))
    for a, b in zip(logdet_grid(geom, fiber, GRID),
                    logdet_grid(reflected, fiber, GRID)):
        tol = _tol(a)
        assert all(abs(x - y) <= tol for x, y in zip(_logs(a), _logs(b)))
