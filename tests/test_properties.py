"""Property suite over random fibers: the log-domain gluing identity per
stretch, also where mu C is far below 1 and where a zero-mode holonomy is
close to 0 or 2 pi, the symmetries and additivity of
the assembled log-determinants, the modular symmetry of the torus
determinants a circle fiber glues into, the heat-trace deviation and
symmetries of the relative trace, and the closed form of the composite
scattering matrix."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from zetaglue import adiabatic  # noqa: E402
from zetaglue.adiabatic import (  # noqa: E402
    BfkCheck,
    TheoremCheck,
    _TwistGroups,
    _log_det_half_complement,
    sweep,
    verify_bfk_corollary,
    verify_theorem_dn,
    verify_theorem_main,
)
from zetaglue.glue import GlueGeometry, logdet_closed, logdet_grid  # noqa: E402
from zetaglue.oracles import (  # noqa: E402
    half_fiber_heat_trace,
    heat_trace_circle,
    heat_trace_dirichlet,
)
from zetaglue.scattering import scattering_matrix  # noqa: E402
from zetaglue.spectral_core import (  # noqa: E402
    FiberSpectrum,
    _heat_trace_circle_mu0,
    _heat_trace_dirichlet_mu0,
    fiber_zeta_data,
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


@settings(max_examples=60, deadline=None)
@given(st.floats(-100.0, -4.0))
def test_bfk_identity_at_small_mu_C(log_mu):
    # one nonzero mode with mu C from about 1e-99 to 0.03 on the default
    # grid: 2 cosh(mu C) - 2 would cancel to nothing here
    fiber = FiberSpectrum.finite([(0.0, 1), (10.0 ** log_mu, 1)])
    geom = GlueGeometry(1.0, 2.0, 4.0, holonomy=(1.5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = verify_bfk_corollary(sweep(geom, fiber))
    assert check.failed_rows == ()
    assert check.max_rel_dev <= 1e-12


# zero-mode holonomies within 1e-3 of 0, down to 1e-300, and of 2 pi, down
# to a few ulps: there 2 - 2 cos(theta) would cancel
NEAR_FLAT = (st.floats(-300.0, -3.0).map(lambda u: 10.0 ** u)
             | st.floats(-15.0, -3.0).map(lambda u: 2.0 * math.pi - 10.0 ** u))


@settings(max_examples=60, deadline=None)
@given(NEAR_FLAT, st.integers(1, 3))
def test_bfk_identity_at_small_holonomy(theta, zeros):
    fiber = FiberSpectrum.finite([(0.0, zeros), (1.0, 1), (2.5, 2)])
    geom = GlueGeometry(1.0, 2.0, 4.0, holonomy=(theta,) * zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = verify_bfk_corollary(sweep(geom, fiber))
    assert check.failed_rows == ()
    assert check.max_rel_dev <= 1e-12


def _torus_logdet(fiber_length, glued_length, theta=1.3):
    """log det M of a circle fiber glued along a circle, less the zero
    mode's log(2 - 2 cos theta), plus 2 log of the glued circumference."""
    geom = GlueGeometry(glued_length / 4.0, glued_length / 4.0,
                        glued_length / 8.0, holonomy=(theta,))
    log_m = logdet_closed(geom, FiberSpectrum.circle(fiber_length)).log_det_M
    return (log_m - math.log(2.0 - 2.0 * math.cos(theta))
            + 2.0 * math.log(glued_length))


@settings(max_examples=30, deadline=None)
@given(st.floats(math.log(0.3), math.log(164.0)),
       st.floats(math.log(0.3), math.log(164.0)))
def test_torus_determinant_modular_symmetry(log_l, log_c):
    # the glued manifold of a circle fiber is a flat torus: swapping the
    # fiber and the glued circumference leaves its determinant unchanged,
    # which pins the continued values the circle regularization assigns
    fiber_length, glued_length = math.exp(log_l), math.exp(log_c)
    direct = _torus_logdet(fiber_length, glued_length)
    swapped = _torus_logdet(glued_length, fiber_length)
    assert abs(direct - swapped) <= 1e-13 * max(1.0, abs(direct))


# stretches past 6.7e153, where L1 L2 overflows, and past 4.5e307, where
# C = a1 + a2 + 4R does
HUGE = st.sampled_from([6.7e153, 1e154, 4.5e307, 1e308]) | st.floats(
    6.7e153, 1.7e308)


@st.composite
def sweeps(draw):
    """A finite fiber with 1-1000 nonzero modes of multiplicity 1-3 and 1-3
    zero modes; a grid of 3-2000 stretches (at most 4000 / modes of them),
    on [0.5, 100] but for up to three past 6.7e153."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 1000))
    zeros = draw(st.integers(1, 3))
    mus = sorted({0.1 * 100.0 ** rng.random() for _ in range(n)})
    fiber = FiberSpectrum.finite([(0.0, zeros)]
                                 + [(mu, rng.randint(1, 3)) for mu in mus])
    geom = GlueGeometry(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)),
                        1.0, holonomy=tuple(draw(PHASE) for _ in range(zeros)))
    huge = draw(st.lists(HUGE, max_size=3))
    size = draw(st.integers(3, max(3, min(2000, 4000 // n))))
    grid = [0.5 * 200.0 ** rng.random() for _ in range(size - len(huge))]
    return fiber, geom, grid + huge


def _linear(x, R=1.0, h=0):
    """(R^h e^x, exact): R ** h * math.exp(x) where both factors are in the
    float range, exact; else mpmath's value rounded to a float, inf past the
    float range and 0.0 below it."""
    try:
        return R ** h * math.exp(x), True
    except OverflowError:
        return float(mpmath.mpf(R) ** h * mpmath.exp(x)), False


def _closed_row(geom, fiber, R):
    """(row values, "") of the sweep row at R, taken from logdet_closed, its
    linear columns as _linear pairs, or (None, error).  Past 4.5e307 the
    geometry itself overflows, and the one-stretch grid that logdet_closed
    reads is used."""
    try:
        asm = logdet_closed(geom.with_R(R), fiber)
    except ValueError as exc:
        asm = logdet_grid(geom, fiber, (R,))[0] if "circumference" in str(
            exc) else exc
    if isinstance(asm, Exception):
        return None, str(asm)
    h = 2 * fiber.h0
    return (R, *_logs(asm), _linear(asm.log_ratio, R, h),
            _linear(asm.log_det_R, R, h), _linear(asm.log_bfk_ratio)), ""


# two zero modes at R = 1e100: R^4 overflows while the logs are finite, and
# scaled_det_R is about 37
_R4_OVERFLOWS = (FiberSpectrum.finite([(0.0, 2), (0.7, 1), (1.3, 2)]),
                 GlueGeometry(1.0, 2.0, 1.0, holonomy=(1.5, 2.5)),
                 [1.0, 10.0, 1e100])


@settings(max_examples=25, deadline=None)
@given(sweeps())
@example(_R4_OVERFLOWS)
def test_sweep_rows_are_logdet_closed(inst):
    fiber, geom, grid = inst
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's overflow warnings are off
        result = sweep(geom, fiber, grid)
        check = verify_bfk_corollary(result)
        assert [r.R for r in result.rows] == sorted(grid)
        for row in result.rows:
            values, error = _closed_row(geom, fiber, row.R)
            assert row.failed == (values is None) and row.error == error
            if values is None:
                continue
            # the logs bit for bit, and each linear column where both of
            # its factors are in the float range; elsewhere it comes from
            # the log, whose sum h log R + x rounds to (h + 1) 710 eps
            assert [x.hex() for x in values[:5]] == [
                x.hex() for x in (row.R, row.log_det_M, row.log_det_M1,
                                  row.log_det_M2, row.log_det_R)]
            for (ref, exact), x in zip(values[5:], (
                    row.scaled_ratio, row.scaled_det_R, row.bfk_ratio)):
                assert (x.hex() == ref.hex() if exact else
                        math.isclose(x, ref, rel_tol=2e-12, abs_tol=1e-300))
    for row, dev in zip(result.rows, check.rel_devs, strict=True):
        gap = (row.log_det_M - row.log_det_M1 - row.log_det_M2
               - row.log_det_R) - check.log_predicted
        try:
            assert dev.hex() == abs(math.expm1(gap)).hex()
        except OverflowError:   # past 1e153 the logs cancel to noise
            assert dev == math.inf
    good = [(row, dev) for row, dev in zip(result.rows, check.rel_devs)
            if not row.failed]
    assert check.max_rel_dev == max((dev for _, dev in good), default=0.0)
    assert check.per_row == tuple(row.bfk_ratio for row, _ in good)
    assert result.Rs == tuple(row.R for row, _ in good)
    assert check.failed_rows == tuple((row.R, row.error)
                                      for row in result.rows if row.failed)


@st.composite
def finite_fibers(draw):
    """A finite fiber with 1-300 nonzero modes of multiplicity 1-3, 1-3
    zero modes, and one phase per zero mode."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = draw(st.integers(1, 3))
    mus = sorted({0.1 * 100.0 ** rng.random()
                  for _ in range(draw(st.integers(1, 300)))})
    modes = [(mu, rng.randint(1, 3)) for mu in mus]
    return zeros, modes, tuple(draw(PHASE) for _ in range(zeros))


@settings(max_examples=40, deadline=None)
@given(finite_fibers(), finite_fibers(), st.floats(0.5, 3.0),
       st.floats(0.5, 3.0))
def test_additivity_over_disjoint_fibers(f, g, a1, a2):
    # every mode is summed on its own, so the log-determinants of F + G are
    # the sums of those of F and G up to the same rounding floor as the
    # gluing identity, taken over the modes of F + G
    (zf, mf, hf), (zg, mg, hg) = f, g
    parts = [logdet_grid(GlueGeometry(a1, a2, GRID[0], holonomy=h),
                         FiberSpectrum.finite([(0.0, z)] + m), GRID)
             for z, m, h in (f, g)]
    joined = logdet_grid(GlueGeometry(a1, a2, GRID[0], holonomy=hf + hg),
                         FiberSpectrum.finite([(0.0, zf + zg)]
                                              + sorted(mf + mg)), GRID)
    for asm, a, b in zip(joined, *parts):
        tol = _tol(asm)
        assert all(abs(x - (y + z)) <= tol
                   for x, y, z in zip(_logs(asm), _logs(a), _logs(b)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-6, 2.0 * math.pi - 1e-6), min_size=1, max_size=6),
       st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(-0.99, 0.99))
def test_composite_closed_form(thetas, a1, a2, lam):
    # per zero mode S1(lam) S2(lam) = e^{i lam (a1 + a2)} diag(e^{i theta},
    # e^{-i theta}), so det((I - S1(0) S2(0))/2) = prod sin^2(theta_j / 2);
    # the matrix side is good to a few ulps per mode (its factors
    # |1 - e^{i theta}|^2 / 4 are sums of squares, with no cancellation)
    fiber = FiberSpectrum.finite([(0.0, len(thetas)), (1.0, 1)])
    geom = GlueGeometry(a1, a2, GRID[0], holonomy=tuple(thetas))

    def product(lam):
        return (scattering_matrix(1, lam, geom, fiber)
                @ scattering_matrix(2, lam, geom, fiber))

    eye = np.eye(2 * len(thetas))
    _, log_det = np.linalg.slogdet((eye - product(0.0)) / 2.0)
    closed = _log_det_half_complement(geom, fiber)
    assert abs(closed - log_det) <= 1e-15 * (len(thetas) + abs(closed))
    w = np.exp(1j * np.array(thetas))
    expect = np.exp(1j * lam * (a1 + a2)) * np.diag(
        np.stack([w, w.conj()], axis=1).reshape(-1))
    assert np.abs(product(lam) - expect).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(-3.0, 1.0))
def test_table_half_trace_matches_generator(inst, log_t):
    # the split suite reads the half cross-section trace off the twist
    # table; the oracle keeps the per-mode fsum
    fiber, geom = inst
    t = 10.0 ** log_t
    bare = FiberSpectrum.finite(fiber.modes[1:])   # the same, no zero modes
    for fib, g in ((fiber, geom),
                   (bare, GlueGeometry(geom.a1, geom.a2, geom.R, ()))):
        ref = half_fiber_heat_trace(fib, t)
        if t * fib.min_nonzero ** 2 <= 700.0 or fib.h0:
            got = _TwistGroups(g, fib, t).half_fiber_trace(np.array([t]))[0]
            assert abs(got - ref) <= 1e-14 * ref


@st.composite
def heat_instances(draw):
    """A finite fiber as in `instances`, with 1-200 nonzero modes, or a
    circle fiber of circumference 1-1000; a1, a2 in [0.5, 3], R in [1, 8],
    one phase per zero mode, and t
    log-uniform on [0.05, 500]."""
    if draw(st.booleans()):
        fiber = FiberSpectrum.circle(1000.0 ** draw(st.floats(0.0, 1.0)))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        mus = sorted({0.1 * 100.0 ** rng.random()
                      for _ in range(draw(st.integers(1, 200)))})
        fiber = FiberSpectrum.finite([(0.0, draw(st.integers(1, 3)))]
                                     + [(mu, rng.randint(1, 3)) for mu in mus])
    geom = GlueGeometry(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)),
                        draw(st.floats(1.0, 8.0)),
                        holonomy=tuple(draw(PHASE) for _ in range(fiber.h0)))
    return fiber, geom, 0.05 * 1e4 ** draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(heat_instances())
def test_image_form_matches_direct_deviation(inst):
    fiber, geom, t = inst
    groups = _TwistGroups(geom, fiber, t)
    trace = float(groups.relative_trace(geom, [t])[0])
    half = half_fiber_heat_trace(fiber, t)
    direct = trace - half
    lg, sign = groups.log_abs_deviation(geom, t)
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
    trace = _TwistGroups(geom, fiber, t).relative_trace(geom, [t])[0]
    swapped = GlueGeometry(geom.a2, geom.a1, geom.R, geom.holonomy)
    reflected = GlueGeometry(geom.a1, geom.a2, geom.R,
                             tuple(2.0 * math.pi - th for th in geom.holonomy))
    for other in (swapped, reflected):
        other_trace = _TwistGroups(other, fiber, t).relative_trace(other, [t])[0]
        assert abs(other_trace - trace) <= 1e-12 * abs(trace)


# twists within 1e-3 of 0 and of 2 pi, where one line of the circle sum
# decays far slower than the rest, and anywhere in between
TWIST = st.one_of(st.floats(0.0, 1e-3),
                  st.floats(2.0 * math.pi - 1e-3, 2.0 * math.pi,
                            exclude_max=True),
                  st.floats(0.0, 2.0 * math.pi, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 3.0), TWIST,
       st.lists(st.floats(-4.0, 6.0), min_size=1, max_size=12))
def test_array_kernels_match_scalar(log_length, theta, log_ratios):
    # t / length^2 from 1e-4 to 1e6: both sides of the 1/20 branch switch,
    # and past the underflow of every line at the top
    length = 10.0 ** log_length
    t = length * length * 10.0 ** np.array(log_ratios)
    pairs = ((_heat_trace_dirichlet_mu0(length, t),
              [heat_trace_dirichlet(length, 0.0, x) for x in t]),
             (_heat_trace_circle_mu0(length, theta, t),
              [heat_trace_circle(length, theta, 0.0, x) for x in t]))
    for got, want in pairs:
        for g, w in zip(got.tolist(), want):
            assert abs(g - w) <= 1e-14 * abs(w)


@settings(max_examples=40, deadline=None)
@given(heat_instances())
def test_batched_relative_trace_matches_pointwise(inst):
    # one call over several t, whose modes are cut at the smallest, against
    # one call per t
    fiber, geom, t = inst
    ts = t * np.array([1.0, 1.7, 10.0, 1e3])
    groups = _TwistGroups(geom, fiber, t)
    got = groups.relative_trace(geom, ts)
    for x, g in zip(ts.tolist(), got.tolist()):
        want = float(groups.relative_trace(geom, [x])[0])
        # ulps of the traces each twist group subtracts
        floor = 16.0 * EPS * half_fiber_heat_trace(fiber, x) * (
            heat_trace_circle(geom.C, 0.0, 0.0, x)
            + heat_trace_dirichlet(geom.L1, 0.0, x)
            + heat_trace_dirichlet(geom.L2, 0.0, x))
        assert abs(g - want) <= 1e-13 * abs(want) + floor


@st.composite
def circle_instances(draw):
    """A circle fiber of circumference 1-1000, with a1, a2 in [0.5, 3] and
    one zero-mode phase."""
    fiber = FiberSpectrum.circle(10.0 ** draw(st.floats(0.0, 3.0)))
    geom = GlueGeometry(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)),
                        GRID[0], holonomy=(draw(PHASE),))
    return fiber, geom


# 10^4 nonzero modes: every linear column leaves the float range
_WIDEST = (FiberSpectrum.finite([(0.0, 1)]
                                + [(0.5 + 0.003 * k, 1) for k in range(10_000)]),
           GlueGeometry(1.0, 2.0, 2.0, holonomy=(1.5,)))


@settings(max_examples=25, deadline=None)
@given(st.one_of(instances(), circle_instances()))
@example(_WIDEST)
def test_theorem_deviation_within_tail_bound_and_floor(inst):
    # each row's deviation from the limit is the nonzero modes' remainder
    # alone, from R = 2 out to 1e5
    fiber, geom = inst
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep(geom, fiber, (2.0, 8.0, 64.0, 1024.0, 1e5))
        for check in (verify_theorem_main(result), verify_theorem_dn(result)):
            assert check.failed_rows == ()
            for dev, bound, floor in zip(check.deviations, check.tail_bounds,
                                         check.rounding_floors, strict=True):
                assert abs(dev) <= bound + floor


def _bfk_by_rows(result, rel_tol=1e-9):
    """verify_bfk_corollary as a loop over the sweep rows: the reference
    for its column form."""
    exponent = adiabatic._bfk_exponent(result.fiber)
    log_predicted = exponent * math.log(2.0)
    rel_devs, ratios, failed, worst = [], [], [], 0.0
    for r in result.rows:
        dev = abs(adiabatic._exp((r.log_det_M - r.log_det_M1 - r.log_det_M2
                                  - r.log_det_R) - log_predicted, math.expm1))
        rel_devs.append(dev)
        if r.failed:
            failed.append((r.R, r.error))
        else:
            ratios.append(r.bfk_ratio)
            if dev > worst:
                worst = dev
    passed = bool(ratios) and not failed and worst <= rel_tol
    return BfkCheck(2.0 ** exponent, log_predicted, worst, passed,
                    tuple(ratios), tuple(rel_devs), tuple(failed))


def _theorem_by_rows(result, dn, tol=1e-4):
    """The theorem check with its logs and failed rows read from the sweep
    rows: the reference for its column form."""
    rows, h, geom = result.rows, result.h_Y, result.geom_template
    log_predicted = (adiabatic._log_dn_limit if dn
                     else adiabatic._log_main_limit)(geom, result.fiber)
    R = np.array([r.R for r in rows])
    logs = np.array([[r.log_det_M, r.log_det_M1, r.log_det_M2, r.log_det_R]
                     for r in rows]).reshape(-1, 4)
    signs = np.array((0.0, 0.0, 0.0, 1.0) if dn else (1.0, -1.0, -1.0, 0.0))
    used = np.flatnonzero(signs)
    dev = ((logs @ signs - log_predicted)
           + (h * np.log(R) - adiabatic._zero_mode_log(geom, h // 2, R)))
    dev[[r.failed for r in rows]] = math.nan
    mult, *mode_logs = result.grid.mode_logs[1:]
    floor = 2.0 * EPS * (
        mult @ sum(np.abs(mode_logs[i]) for i in used) + abs(log_predicted)
        + np.abs(logs[:, used]).sum(axis=1) + h * np.abs(np.log(R)))
    bound = adiabatic._tail_bound(geom, result.fiber, R, dn)
    failed_rows = tuple(
        (r.R, r.error if r.failed else f"deviation {d:.3g} exceeds tail "
         f"bound {b:.3g} + rounding floor {f:.3g}")
        for r, d, b, f in zip(rows, dev.tolist(), bound.tolist(),
                              floor.tolist())
        if r.failed or not abs(d) <= b + f)
    with np.errstate(over="ignore"):
        gap = np.abs(np.expm1(dev))
    passed = not failed_rows and bool(np.any((bound + floor <= tol)
                                             & (gap <= tol)))
    cause = (None if passed else "failed rows" if failed_rows
             else "no rows" if not rows else "grid not asymptotic: tail "
             f"bound + rounding floor {bound[-1] + floor[-1]:.3g} at R = "
             f"{R[-1]:g}")
    return TheoremCheck(adiabatic._exp(log_predicted), log_predicted, passed,
                        tuple(dev.tolist()), tuple(bound.tolist()),
                        tuple(floor.tolist()), failed_rows, cause)


def _bits(x):
    """x with each float as its hex string, so that nan equals nan."""
    if isinstance(x, float):
        return x.hex()
    return tuple(map(_bits, x)) if isinstance(x, tuple) else x


# a circle fiber on a grid that ends past the float range
CIRCLE_SWEEPS = circle_instances().map(
    lambda inst: (*inst, [2.0, 8.0, 64.0, 1e154, 1e308]))


@settings(max_examples=25, deadline=None)
@given(st.one_of(sweeps(), CIRCLE_SWEEPS), st.none() | st.integers(0, 1999))
@example(_R4_OVERFLOWS, None)
@example(_R4_OVERFLOWS, 1)
def test_checks_match_their_row_loops(inst, plant):
    # the column checks equal the row loops bit for bit, on failed rows,
    # rows past the float range and a failure planted on finite logs
    fiber, geom, grid = inst
    result = sweep(geom, fiber, grid)
    if plant is not None:
        errors = list(result.grid.errors)
        errors[plant % len(errors)] = RuntimeError("planted")
        result = dataclasses.replace(result, grid=dataclasses.replace(
            result.grid, errors=tuple(errors)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's warnings are off in BFK
        checks = (verify_bfk_corollary(result),)
    with warnings.catch_warnings():
        # past R of about 1e154 the tail bound overflows on both paths
        warnings.simplefilter("ignore")
        checks += (verify_theorem_main(result), verify_theorem_dn(result))
        assert "rows" not in vars(result)
        references = (_bfk_by_rows(result), _theorem_by_rows(result, False),
                      _theorem_by_rows(result, True))
    for check, reference in zip(checks, references):
        assert _bits(dataclasses.astuple(check)) == _bits(
            dataclasses.astuple(reference))
