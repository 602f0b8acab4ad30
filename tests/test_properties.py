"""Property suite over random fibers: the log-domain gluing identity per
stretch, the symmetries of the assembled log-determinants, and the
heat-trace deviation and symmetries of the relative trace."""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zetaglue.adiabatic import (  # noqa: E402
    _log_abs_deviation,
    half_fiber_heat_trace,
    relative_heat_trace,
)
from zetaglue.glue import GlueGeometry, logdet_grid  # noqa: E402
from zetaglue.spectral_core import (  # noqa: E402
    FiberSpectrum,
    fiber_zeta_data,
    heat_trace_circle,
    heat_trace_dirichlet,
)

GRID = (2.0, 5.0, 16.0, 64.0)
EPS = 2.0 ** -52
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


@st.composite
def heat_instances(draw):
    """A finite fiber as in `instances`, with 1-200 nonzero modes, or a
    circle fiber of circumference 1-1000; a1, a2 in [0.5, 3], R in [1, 8],
    one phase per zero mode plus up to two nonzero-mode phases, and t
    log-uniform on [0.05, 500]."""
    if draw(st.booleans()):
        fiber = FiberSpectrum.circle(1000.0 ** draw(st.floats(0.0, 1.0)))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        mus = sorted({0.1 * 100.0 ** rng.random()
                      for _ in range(draw(st.integers(1, 200)))})
        fiber = FiberSpectrum.finite([(0.0, draw(st.integers(1, 3)))]
                                     + [(mu, rng.randint(1, 3)) for mu in mus])
    phases = {draw(st.integers(0, 5)): draw(PHASE)
              for _ in range(draw(st.integers(0, 2)))}
    geom = GlueGeometry(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)),
                        draw(st.floats(1.0, 8.0)),
                        holonomy=tuple(draw(PHASE) for _ in range(fiber.h0)),
                        nonzero_phases=phases)
    return fiber, geom, 0.05 * 1e4 ** draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(heat_instances())
def test_image_form_matches_direct_deviation(inst):
    fiber, geom, t = inst
    trace = relative_heat_trace(geom, fiber, t)
    half = half_fiber_heat_trace(fiber, t)
    direct = trace - half
    lg, sign = _log_abs_deviation(geom, fiber, t)
    # the direct subtraction is only good to a few ulps of the traces it
    # subtracts: W (K_C + K_L1 + K_L2), with W at most the half trace and
    # each twisted circle trace at most the untwisted one
    floor = 16.0 * EPS * half * (heat_trace_circle(geom.C, 0.0, 0.0, t)
                                 + heat_trace_dirichlet(geom.L1, 0.0, t)
                                 + heat_trace_dirichlet(geom.L2, 0.0, t))
    if abs(direct) > 1e-11 * abs(trace):
        assert abs(sign * math.exp(lg) - direct) <= 1e-8 * abs(direct) + floor


@settings(max_examples=60, deadline=None)
@given(heat_instances())
def test_relative_trace_symmetries(inst):
    fiber, geom, t = inst
    trace = relative_heat_trace(geom, fiber, t)
    swapped = GlueGeometry(geom.a2, geom.a1, geom.R, geom.holonomy,
                           geom.nonzero_phases)
    reflected = GlueGeometry(
        geom.a1, geom.a2, geom.R,
        tuple(2.0 * math.pi - th for th in geom.holonomy),
        {k: 2.0 * math.pi - th for k, th in geom.nonzero_phases.items()})
    for other in (swapped, reflected):
        assert abs(relative_heat_trace(other, fiber, t) - trace) \
            <= 1e-12 * abs(trace)
