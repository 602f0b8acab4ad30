"""Independent numerical oracles for the closed forms; only tests call them.

Each oracle recomputes a quantity the library evaluates in closed form by
a route that takes no shortcut through that closed form: zeta data from
the heat trace (the kappa-integral with the pole subtracted by hand), a
log-determinant by explicit eigenvalue enumeration plus analytic tail,
and an inverse trace as the time integral of the heat trace.

This is the only module that imports scipy, which the package does not
depend on (it comes with the test extra).  The package does not import
this module, so no job loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .base1d import Circle, DirichletInterval, ModeProblem
from .glue import ConditionAViolation, GlueGeometry, mode_table
from .spectral_core import (
    EULER_GAMMA,
    FiberSpectrum,
    HeatCoefficientMismatch,
    ZetaData,
    heat_trace_mode,
    tail_residual_bound,
    zeta_from_sequence,
)

__all__ = [
    "zeta_via_heat",
    "heat_coeffs_for_mode",
    "oracle_logdet_truncated",
    "CrosscheckEntry",
    "CrosscheckReport",
    "heat_route_crosscheck",
]


# ---------------------------------------------------------------------------
# Heat route: zeta data from the trace of exp(-t * operator)
# ---------------------------------------------------------------------------

def zeta_via_heat(trace: Callable[[float], float],
                  small_t_coeffs: Sequence[float],
                  kernel_dim: int = 0) -> ZetaData:
    """Zeta data from the kernel-subtracted heat trace.

    trace(t) must return Tr exp(-t A) - kernel_dim and decay for large t.
    small_t_coeffs = (a_0, a_1, ...) describe the *unsubtracted* trace as
    sum_k a_k t^{(k-1)/2} near t = 0 (the half-integer ladder of a 1-D
    problem; a 0-D spectrum just uses a_0 = 0, a_1 = count, ...).  At least
    four coefficients are required so the subtracted integrand is tame.

    The derivative at 0 is assembled as the pole-subtracted kappa-integral
    plus Euler's constant times the regularized constant term.
    """
    cs = list(small_t_coeffs)
    if len(cs) < 4:
        raise ValueError("need at least 4 small-time coefficients")

    def model_subtracted(t: float) -> float:
        return math.fsum(cs[k] * t ** ((k - 1) / 2.0) for k in range(len(cs))) \
            - kernel_dim

    # consistency of declared coefficients with the actual trace near t = 0
    t1, t2 = 1e-6, 4e-6
    r1 = trace(t1) - model_subtracted(t1)
    r2 = trace(t2) - model_subtracted(t2)
    # project the defect onto {t^-1/2, 1}
    det = t1 ** -0.5 - t2 ** -0.5
    gap_lead = (r1 - r2) / det
    gap_const = r1 - gap_lead * t1 ** -0.5
    scale = max(1.0, max(abs(x) for x in cs))
    if abs(gap_lead) > 1e-6 * scale or abs(gap_const) > 1e-6 * scale:
        raise HeatCoefficientMismatch(gap_lead, gap_const)

    a_reg = cs[1] - kernel_dim  # regularized constant term

    # exponential cutoff detection for the large-t window
    t_hi = 1.0
    ref = max(1.0, abs(trace(1.0)))
    while abs(trace(t_hi)) > 1e-20 * ref:
        t_hi *= 2.0
        if t_hi > 1e12:
            raise RuntimeError("trace does not decay; cannot locate cutoff")

    i_low, _ = quad(lambda t: (trace(t) - model_subtracted(t)) / t, 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    i_high, _ = quad(lambda t: trace(t) / t, 1.0, t_hi,
                     epsabs=1e-13, epsrel=1e-12, limit=400)

    finite_part = math.fsum(
        cs[k] * 2.0 / (k - 1) for k in range(len(cs)) if k != 1
    )
    zprime = EULER_GAMMA * a_reg + finite_part + i_low + i_high
    return ZetaData.from_zeta(a_reg, zprime, kernel_dim)


def heat_coeffs_for_mode(problem: ModeProblem, order: int = 8) -> list[float]:
    """Small-time trace coefficients a_k with Tr ~ sum a_k t^{(k-1)/2}.

    The image-sum form of either base trace is (length-term) * exp(-mu^2 t)
    up to exponentially small corrections, so the ladder is the exponential
    series distributed over even/odd slots.
    """
    base = problem.base
    mu2 = problem.mu ** 2
    cs = [0.0] * (order + 1)
    if isinstance(base, Circle):
        lead, const = base.C / math.sqrt(4.0 * math.pi), 0.0
    else:
        lead, const = base.L / math.sqrt(4.0 * math.pi), -0.5
    for j in range(0, (order + 2) // 2):
        coeff = (-mu2) ** j / math.factorial(j)
        if 2 * j <= order:
            cs[2 * j] = lead * coeff
        if 2 * j + 1 <= order:
            cs[2 * j + 1] = const * coeff
    return cs


# ---------------------------------------------------------------------------
# Independent truncation oracle for the 1-D closed forms
# ---------------------------------------------------------------------------

def oracle_logdet_truncated(problem: ModeProblem, cutoff: int = 10_000,
                            tail_order: int = 4) -> tuple[float, float]:
    """log det by explicit eigenvalue enumeration plus analytic tail.

    Returns (log_det, residual bound).  Exists as an independent check of
    the closed forms; production paths never call it.
    """
    if cutoff < 100:
        raise ValueError("cutoff must be >= 100")
    seq = problem.eigenvalue_seq()
    data = zeta_from_sequence(seq, cutoff=cutoff, tail_order=tail_order,
                              tail_tol=math.inf)
    resid = tail_residual_bound(seq, cutoff=cutoff, tail_order=tail_order)
    return data.log_det, resid


# ---------------------------------------------------------------------------
# Inverse trace of one assembled mode, by eigenvalues and by heat trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckEntry:
    problem: str
    eigen_sum: float
    heat_integral: float

    @property
    def gap(self) -> float:
        return abs(self.eigen_sum - self.heat_integral)


@dataclass(frozen=True)
class CrosscheckReport:
    entries: tuple[CrosscheckEntry, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return all(e.gap <= self.tol * max(1.0, abs(e.eigen_sum))
                   for e in self.entries)


def heat_route_crosscheck(geom: GlueGeometry, fiber: FiberSpectrum,
                          mode_index: int, tol: float = 1e-8) -> CrosscheckReport:
    """Inverse trace of one mode, two ways: eigenvalue sum with an
    Euler-Maclaurin tail versus the time-integrated heat trace.

    mode_index counts zero modes first (one per holonomy phase), then
    nonzero modes in spectral order.  The selected mode must be
    kernel-free on all three base problems, which condition A guarantees.
    """
    if mode_index < fiber.h0:
        mu = 0.0
        theta = geom.holonomy[mode_index]
        if theta == 0.0:
            raise ConditionAViolation("selected mode has a kernel")
    else:
        k = mode_index - fiber.h0
        mus, _, thetas = mode_table(geom, fiber, k + 1)
        mu, theta = float(mus[k]), float(thetas[k])
    problems = (
        ("closed", ModeProblem(mu, Circle(geom.C, theta))),
        ("piece1", ModeProblem(mu, DirichletInterval(geom.L1))),
        ("piece2", ModeProblem(mu, DirichletInterval(geom.L2))),
    )
    entries = []
    for name, prob in problems:
        a = _inverse_trace_eigen(prob)
        b = _inverse_trace_heat(prob)
        entries.append(CrosscheckEntry(name, a, b))
    return CrosscheckReport(tuple(entries), tol)


def _inverse_trace_eigen(problem: ModeProblem, cutoff: int = 20_000) -> float:
    """Sum of reciprocal eigenvalues: truncated sum + Euler-Maclaurin tail."""
    seq = problem.eigenvalue_seq()
    if seq.kernel_dim:
        raise ConditionAViolation("selected mode has a kernel")
    mu = seq.mu
    total: list[float] = []
    for fam in seq.families:
        c, d, n0 = fam.slope, fam.offset, fam.start
        n = np.arange(n0, cutoff, dtype=float)
        vals = 1.0 / ((c * n + d) ** 2 + mu * mu)
        total.append(fam.mult * math.fsum(vals))

        def f(x: float) -> float:
            return 1.0 / ((c * x + d) ** 2 + mu * mu)

        N = float(cutoff)
        if mu > 0:
            tail_int = (math.pi / 2.0 - math.atan((c * N + d) / mu)) / (c * mu)
        else:
            tail_int = 1.0 / (c * (c * N + d))
        fp = -2.0 * c * (c * N + d) / ((c * N + d) ** 2 + mu * mu) ** 2
        total.append(fam.mult * (tail_int + 0.5 * f(N) - fp / 12.0))
    return math.fsum(total)


def _inverse_trace_heat(problem: ModeProblem) -> float:
    """Integral over time of the heat trace (resolvent at zero)."""
    lam_min = problem.eigenvalue_seq().nth(0)
    t_hi = 60.0 / lam_min
    i1, _ = quad(lambda t: heat_trace_mode(problem, t), 0.0, 1.0,
                 epsabs=1e-12, epsrel=1e-11, limit=200)
    i2, _ = quad(lambda u: heat_trace_mode(problem, math.exp(u)) * math.exp(u),
                 0.0, math.log(t_hi), epsabs=1e-12, epsrel=1e-11, limit=400)
    return i1 + i2
