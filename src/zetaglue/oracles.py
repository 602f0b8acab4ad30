"""Independent numerical oracles and scalar references; only tests call them.

Each oracle recomputes a quantity the library evaluates in closed form by
a route that takes no shortcut through that closed form: zeta data from
the heat trace (the kappa-integral with the pole subtracted by hand), a
log-determinant by explicit eigenvalue enumeration plus analytic tail,
and an inverse trace as the time integral of the heat trace.  The 1-D
mode problems they run on (ModeProblem over a Circle or a
DirichletInterval) are defined here, with scalar one-mode copies of
base1d's closed forms and DN block, and the scalar heat traces that the
array kernels of spectral_core and adiabatic are compared against.

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

from .base1d import _OVERFLOW_ARG
from .glue import ConditionAViolation, GlueGeometry, mode_table
from .spectral_core import (
    _EXP_FLOOR,
    EULER_GAMMA,
    ArithmeticFamily,
    EigenvalueSeq,
    FiberSpectrum,
    ZetaData,
    _family_zeta,
    zeta_from_sequence,
)

__all__ = [
    "HeatCoefficientMismatch",
    "heat_trace_dirichlet",
    "heat_trace_circle",
    "half_fiber_heat_trace",
    "Circle",
    "DirichletInterval",
    "ModeProblem",
    "heat_trace_mode",
    "tail_residual_bound",
    "logdet_circle_mode",
    "logdet_dirichlet_mode",
    "dn_block",
    "zeta_via_heat",
    "heat_coeffs_for_mode",
    "oracle_logdet_truncated",
    "CrosscheckEntry",
    "CrosscheckReport",
    "heat_route_crosscheck",
]


# ---------------------------------------------------------------------------
# Scalar heat traces of the 1-D base problems, references for the array
# kernels of spectral_core and adiabatic
# ---------------------------------------------------------------------------

def heat_trace_dirichlet(L: float, mu: float, t: float) -> float:
    """Tr exp(-t(-d^2 + mu^2)) on [0, L] with Dirichlet ends."""
    _check_t(t, L)
    if t >= L * L / 20.0:
        # direct eigenvalue sum
        total = 0.0
        n = 1
        while True:
            ex = t * ((math.pi * n / L) ** 2 + mu * mu)
            if ex > _EXP_FLOOR:
                break
            total += math.exp(-ex)
            n += 1
        return total
    # image sum
    theta_sum = 1.0
    m = 1
    while True:
        ex = m * m * L * L / t
        if ex > _EXP_FLOOR:
            break
        theta_sum += 2.0 * math.exp(-ex)
        m += 1
    return math.exp(-mu * mu * t) * (L / math.sqrt(4.0 * math.pi * t) * theta_sum - 0.5)


def heat_trace_circle(C: float, theta: float, mu: float, t: float) -> float:
    """Tr exp(-t(-d^2 + mu^2)) on a circle of circumference C, twist theta."""
    _check_t(t, C)
    if t >= C * C / 20.0:
        # lines 2 pi n +- theta; the n = 0 line can underflow while the
        # theta - 2 pi line is still above the floor, so the walk ends only
        # past 2 pi n > |theta|, where both exponents grow with n
        total = 0.0
        n = 0
        while True:
            ex_p = t * (((2.0 * math.pi * n + theta) / C) ** 2 + mu * mu)
            ex_m = t * (((-2.0 * math.pi * n + theta) / C) ** 2 + mu * mu)
            if (2.0 * math.pi * n > abs(theta)
                    and min(ex_p, ex_m) > _EXP_FLOOR):
                break
            term = 0.0
            if ex_p <= _EXP_FLOOR:
                term += math.exp(-ex_p)
            if n > 0 and ex_m <= _EXP_FLOOR:
                term += math.exp(-ex_m)
            total += term
            n += 1
        return total
    theta_sum = 1.0
    m = 1
    while True:
        ex = m * m * C * C / (4.0 * t)
        if ex > _EXP_FLOOR:
            break
        theta_sum += 2.0 * math.cos(m * theta) * math.exp(-ex)
        m += 1
    return math.exp(-mu * mu * t) * C / math.sqrt(4.0 * math.pi * t) * theta_sum


def _check_t(t: float, length: float) -> None:
    if t <= 0.0:
        raise ValueError("t must be positive")
    if t < 1e-300 or length * length / t > 1e300:
        raise ValueError("t underflows the image-sum switch")


def half_fiber_heat_trace(fiber: FiberSpectrum, t: float) -> float:
    """Half the doubled cross-section trace, i.e. one copy's full trace."""
    if fiber.kind == "finite":
        return math.fsum(k * math.exp(-t * m * m) for m, k in fiber.modes)
    return heat_trace_circle(fiber.circumference, 0.0, 0.0, t)


# ---------------------------------------------------------------------------
# 1-D mode problems and scalar references for base1d
# ---------------------------------------------------------------------------

_SMALL_ARG = 1.0   # the circle form switches to sinh^2 + sin^2 below this


@dataclass(frozen=True)
class Circle:
    """Circle base of circumference C with holonomy phase theta in [0, 2pi)."""

    C: float
    theta: float

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        if not (0.0 <= self.theta < 2.0 * math.pi):
            raise ValueError("theta must lie in [0, 2pi)")


@dataclass(frozen=True)
class DirichletInterval:
    """Interval base [0, L] with Dirichlet ends."""

    L: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")


@dataclass(frozen=True)
class ModeProblem:
    """One transverse mode riding on a 1-D base problem."""

    mu: float
    base: Circle | DirichletInterval

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def eigenvalue_seq(self) -> EigenvalueSeq:
        if isinstance(self.base, Circle):
            c = 2.0 * math.pi / self.base.C
            th = self.base.theta
            if th == 0.0:
                if self.mu == 0.0:
                    # the flat n = 0 entry is the kernel
                    fams = (ArithmeticFamily(c, 0.0, 1, mult=2),)
                    return EigenvalueSeq(fams, mu=0.0, kernel_dim=1)
                # n = 0 sits at mu^2, the rest is doubly degenerate
                fams = (ArithmeticFamily(c, 0.0, 0),
                        ArithmeticFamily(c, 0.0, 1))
                return EigenvalueSeq(fams, mu=self.mu)
            d = th / self.base.C
            fams = (ArithmeticFamily(c, d, 0), ArithmeticFamily(c, -d, 1))
            return EigenvalueSeq(fams, mu=self.mu)
        L = self.base.L
        return EigenvalueSeq((ArithmeticFamily(math.pi / L, 0.0, 1),), mu=self.mu)


def heat_trace_mode(problem: ModeProblem, t: float) -> float:
    """Heat trace of a 1-D mode problem (direct sum for large t, image sum
    for small t; the branches agree at the crossover to 1e-12 relative)."""
    base = problem.base
    if isinstance(base, Circle):
        return heat_trace_circle(base.C, base.theta, problem.mu, t)
    return heat_trace_dirichlet(base.L, problem.mu, t)


def logdet_circle_mode(C: float, theta: float, mu: float) -> float:
    """log det of -d^2 + mu^2 on the circle: log(2 cosh(mu C) - 2 cos theta).

    Overflow-safe for large mu C, and below mu C = 1 taken as
    log(4 sinh^2(mu C / 2) + 4 sin^2(theta / 2)), which does not cancel.
    Rejects the flat zero mode (mu = 0, theta = 0), whose determinant
    would vanish.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if mu == 0.0 and theta == 0.0:
        raise ValueError("zero mode on circle")
    x = mu * C
    if x > _OVERFLOW_ARG:
        return x + math.log1p(-2.0 * math.cos(theta) * math.exp(-x)
                              + math.exp(-2.0 * x))
    if x < _SMALL_ARG:
        logs = [2.0 * math.log(2.0 * abs(v))
                for v in (math.sinh(0.5 * x), math.sin(0.5 * theta)) if v]
        top = max(logs)
        return top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return math.log(2.0 * math.cosh(x) - 2.0 * math.cos(theta))


def logdet_dirichlet_mode(L: float, mu: float) -> float:
    """log det of -d^2 + mu^2 on [0, L], Dirichlet: log(2 sinh(mu L)/mu)."""
    if L <= 0:
        raise ValueError("L must be positive")
    if mu == 0.0:
        return math.log(2.0 * L)
    x = mu * L
    if x > _OVERFLOW_ARG:
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(mu)
    return math.log(2.0 * math.sinh(x) / mu)


def dn_block(L: float, mu: float, w: complex = 1.0) -> np.ndarray:
    """Dirichlet-to-Neumann map of -d^2 + mu^2 on [0, L], a 2x2 Hermitian
    array whose rows and columns index the two cut components.

    Outward-normal convention at both ends: diagonal mu coth(mu L) (1/L at
    mu = 0), off-diagonal -mu csch(mu L) times the boundary phase.  The
    unit phase w sits on the second cut component; a glued loop picks up
    w2 * conj(w1).  Positive semidefinite, strictly definite for mu > 0.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    w = complex(w)
    if abs(abs(w) - 1.0) > 1e-12:
        raise ValueError("boundary phase must be unimodular")
    if mu == 0.0:
        diag, off = 1.0 / L, 1.0 / L
    else:
        x = mu * L
        if x > _OVERFLOW_ARG:
            e = math.exp(-2.0 * x)
            diag = mu * (1.0 + e) / (1.0 - e)
            off = mu * 2.0 * math.exp(-x) / (1.0 - e)
        else:
            diag = mu / math.tanh(x)
            off = mu / math.sinh(x)
    return np.array([[diag, -off * w.conjugate()], [-off * w, diag]],
                    dtype=complex)


# ---------------------------------------------------------------------------
# Heat route: zeta data from the trace of exp(-t * operator)
# ---------------------------------------------------------------------------

class HeatCoefficientMismatch(ValueError):
    """Declared small-time heat coefficients disagree with the trace."""

    def __init__(self, gap_leading: float, gap_constant: float):
        self.gap_leading = gap_leading
        self.gap_constant = gap_constant
        super().__init__(
            "small-time coefficients inconsistent with trace: "
            f"measured-vs-declared gap {gap_leading:.3e} (t^-1/2), "
            f"{gap_constant:.3e} (const)"
        )


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


def tail_residual_bound(seq: EigenvalueSeq, cutoff: int = 10_000,
                        tail_order: int = 4) -> float:
    """Residual bound of zeta_from_sequence at this cutoff/order.

    Analytic tail of the truncated binomial expansion plus a rounding-noise
    allowance for the partial sums, 1e-15 (sum |log lambda_n| +
    |log Gamma(a)| + 1) per family and unit multiplicity, a = cutoff + d/c.
    Only this bound computes the allowance, and as a bound it takes a plain
    numpy sum.
    """
    total = 0.0
    for fam in seq.families:
        _, _, tail, logs = _family_zeta(fam, seq.mu, cutoff, tail_order)
        a = fam.start + logs.size + fam.offset / fam.slope
        noise = 1e-15 * (float(np.abs(logs).sum()) + abs(math.lgamma(a)) + 1.0)
        total += tail + fam.mult * noise
    return total


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
        k = mode_index - fiber.h0   # nonzero modes carry no twist
        mu, theta = float(mode_table(fiber, k + 1)[0][k]), 0.0
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
    seq = problem.eigenvalue_seq()
    # roots ascend within a family: the lowest eigenvalue starts one
    lam_min = min(fam.root(fam.start) ** 2 for fam in seq.families) + seq.mu ** 2
    t_hi = 60.0 / lam_min
    i1, _ = quad(lambda t: heat_trace_mode(problem, t), 0.0, 1.0,
                 epsabs=1e-12, epsrel=1e-11, limit=200)
    i2, _ = quad(lambda u: heat_trace_mode(problem, math.exp(u)) * math.exp(u),
                 0.0, math.log(t_hi), epsabs=1e-12, epsrel=1e-11, limit=400)
    return i1 + i2
