"""Spectral sequences, zeta-regularization and heat traces for 1-D mode towers.

Everything here is the bookkeeping for one self-adjoint operator with a
discrete spectrum: its zeta function near s = 0, the regularized
log-determinant, and the heat traces of the two 1-D base problems at
mu = 0, over arrays of t.  Eigenvalue towers of the form
(c*n + d)^2 + mu^2 are continued past the naive sum with a Hurwitz-zeta
tail evaluated by Euler-Maclaurin.  The heat route, which recovers the
same data from the trace, and the scalar heat traces at any mu are
oracles in zetaglue.oracles.

Cross-section ("fiber") spectra come in two flavors: a finite eigenvalue
multiset, or the analytic family of a circle cross-section.  For the circle
the closed continuations of the Riemann zeta supply zeta(0), zeta'(0) and
the regularized first moment used by the gluing code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ZetaData",
    "ArithmeticFamily",
    "EigenvalueSeq",
    "FiberSpectrum",
    "TailNotConverged",
    "zeta_from_sequence",
    "fiber_zeta_data",
    "fiber_sqrt_zeta_data",
    "fiber_scaled_sqrt_logdet",
    "fiber_sqrt_zeta_at_minus_one",
]

EULER_GAMMA = 0.5772156649015328606
LOG_2PI = math.log(2.0 * math.pi)
# Riemann zeta at the two points the circle fiber needs; both classical.
ZETA_R_AT_0 = -0.5
ZETA_R_PRIME_AT_0 = -0.5 * LOG_2PI
ZETA_R_AT_MINUS_1 = -1.0 / 12.0

_EXP_FLOOR = 745.0  # exp(-x) underflows past this; used to cut sums


class TailNotConverged(RuntimeError):
    """Truncated-sum tail exceeds the requested accuracy.

    Carries the residual estimate so callers can decide whether to retry
    with a larger cutoff.
    """

    def __init__(self, residual: float, cutoff: int):
        self.residual = residual
        self.cutoff = cutoff
        super().__init__(
            f"tail-not-converged: residual estimate {residual:.3e} at cutoff {cutoff}"
        )


@dataclass(frozen=True)
class ZetaData:
    """(zeta(0), zeta'(0), log det, dim ker) for one spectral sequence.

    log_det is stored redundantly and must equal -zeta_prime_at_zero.
    """

    zeta_at_zero: float
    zeta_prime_at_zero: float
    log_det: float
    kernel_dim: int

    def __post_init__(self):
        if self.log_det != -self.zeta_prime_at_zero:
            raise ValueError("log_det must equal -zeta_prime_at_zero exactly")
        if self.kernel_dim < 0:
            raise ValueError("kernel_dim must be nonnegative")

    @classmethod
    def from_zeta(cls, zeta_at_zero: float, zeta_prime_at_zero: float,
                  kernel_dim: int = 0) -> "ZetaData":
        return cls(zeta_at_zero, zeta_prime_at_zero, -zeta_prime_at_zero,
                   kernel_dim)


# ---------------------------------------------------------------------------
# Eigenvalue sequences:  lambda_n = (c n + d)^2 + mu^2,  n >= n0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArithmeticFamily:
    """One arithmetic tower (c*n + d)^2 + shift, n >= n0, with multiplicity."""

    slope: float
    offset: float
    start: int
    mult: int = 1

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("slope must be positive")
        if self.mult < 1:
            raise ValueError("mult must be >= 1")
        if self.slope * self.start + self.offset < 0:
            raise ValueError("family roots must be nonnegative")

    def root(self, n: int) -> float:
        return self.slope * n + self.offset


@dataclass(frozen=True)
class EigenvalueSeq:
    """Closed-form eigenvalue sequence with Weyl-type growth (cn+d)^2 + mu^2.

    families   -- arithmetic towers of square roots (the growth model doubles
                  as the tail-correction data)
    mu         -- transverse frequency added in quadrature
    kernel_dim -- zero eigenvalues, kept out of the families
    """

    families: tuple[ArithmeticFamily, ...]
    mu: float = 0.0
    kernel_dim: int = 0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        for fam in self.families:
            if fam.root(fam.start) ** 2 + self.mu ** 2 == 0.0:
                raise ValueError(
                    "family produces a zero eigenvalue; "
                    "put kernel elements in kernel_dim instead"
                )


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin (real s, the only flavor needed here)
# ---------------------------------------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)
_EM_TERMS = 6   # Bernoulli corrections summed past the direct terms


def hurwitz_zeta_em(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) for real s > 1, a > 0, by Euler-Maclaurin."""
    if s <= 1:
        raise ValueError("hurwitz_zeta_em needs s > 1")
    K = 0 if a >= 40 else int(math.ceil(40 - a))
    tot = math.fsum((a + k) ** (-s) for k in range(K))
    aK = a + K
    tot += aK ** (1 - s) / (s - 1) + 0.5 * aK ** (-s)
    fac = s
    for i in range(1, _EM_TERMS + 1):
        tot += _BERNOULLI[i - 1] / math.factorial(2 * i) * fac * aK ** (-s - 2 * i + 1)
        fac *= (s + 2 * i - 1) * (s + 2 * i)
    return tot


def _family_zeta(fam: ArithmeticFamily, mu: float, cutoff: int, tail_order: int):
    """(zeta(0), zeta'(0), tail residual, log terms) for one arithmetic family.

    Splits at n = cutoff; the tail is the exact Hurwitz continuation of
    (c n + d)^{-2s} with the mu^2 shift expanded binomially to tail_order.
    The log terms are log lambda_n for n0 <= n < cutoff, unscaled by mult.
    """
    c, d, n0 = fam.slope, fam.offset, fam.start
    N = max(cutoff, n0 + 1)
    a = N + d / c
    if (mu / (c * a)) ** 2 >= 0.25:
        raise TailNotConverged((mu / (c * a)) ** 2, N)

    n = np.arange(n0, N, dtype=float)
    logs = np.log((c * n + d) ** 2 + mu * mu)

    zeta0 = (N - n0) + (0.5 - a)
    zprime = -math.fsum(logs.tolist())
    zprime += -2.0 * math.log(c) * (0.5 - a)
    zprime += 2.0 * (math.lgamma(a) - 0.5 * LOG_2PI)
    # at mu = 0 the binomial terms all carry ratio = 0 and the tail is exact
    analytic_tail = 0.0
    if mu > 0:
        # binomial expansion parameter against (c n + d)^2
        ratio = (mu / c) ** 2
        for j in range(1, tail_order + 1):
            zprime += (((-1.0) ** j / j) * ratio ** j
                       * hurwitz_zeta_em(2 * j, a))
        analytic_tail = abs(
            ratio ** (tail_order + 1) / (tail_order + 1)
            * hurwitz_zeta_em(2 * tail_order + 2, a)
        )
    return (fam.mult * zeta0, fam.mult * zprime, fam.mult * analytic_tail,
            logs)


def zeta_from_sequence(seq: EigenvalueSeq, cutoff: int = 10_000,
                       tail_order: int = 4, tail_tol: float = 1e-10) -> ZetaData:
    """zeta(0) and zeta'(0) of an eigenvalue sequence.

    Truncated eigenvalue sum below `cutoff` indices per family plus the
    analytic tail of order `tail_order`.  Each distinct family is evaluated
    once and scaled by how often it occurs (zeta is additive); its partial
    sum of log lambda_n is a correctly rounded math.fsum.  At mu = 0 the
    tail is exact at any cutoff, so a larger cutoff only adds rounding.
    The rounding-noise allowance is left to
    zetaglue.oracles.tail_residual_bound.  Deterministic for fixed inputs.
    Raises TailNotConverged when the analytic tail (the part the cutoff
    controls) exceeds tail_tol.
    """
    if cutoff < 100:
        raise ValueError("cutoff must be >= 100")
    z0 = zp = tail = 0.0
    for fam, count in Counter(seq.families).items():
        f0, fp, ft, _ = _family_zeta(fam, seq.mu, cutoff, tail_order)
        z0 += count * f0
        zp += count * fp
        tail += count * ft
    if tail > tail_tol:
        raise TailNotConverged(tail, cutoff)
    return ZetaData.from_zeta(z0, zp, seq.kernel_dim)


# ---------------------------------------------------------------------------
# Heat traces of the two 1-D base problems at mu = 0, image-sum accelerated
# ---------------------------------------------------------------------------

def _exp_neg(x: np.ndarray) -> np.ndarray:
    """exp(-x), 0 where x > 745: numpy computes the subnormal results past
    the floor about a hundred times slower than ordinary ones."""
    return np.exp(-x, out=np.zeros_like(x), where=x <= _EXP_FLOOR)


def _heat_trace_dirichlet_mu0(L: float, t: np.ndarray) -> np.ndarray:
    """Tr exp(t d^2) on [0, L] with Dirichlet ends at every t of an array:
    the direct eigenvalue sum from t = L^2 / 20 on, the image sum below."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    direct = t >= L * L / 20.0
    td, ti = t[direct], t[~direct]
    if td.size:
        n = np.arange(1, int(L * math.sqrt(_EXP_FLOOR / td.min()) / math.pi)
                      + 2)[:, None]
        out[direct] = _exp_neg(td * ((math.pi * n / L) ** 2)).sum(axis=0)
    if ti.size:
        m = np.arange(1, int(math.sqrt(_EXP_FLOOR * ti.max()) / L) + 2)
        theta_sum = 1.0 + (2.0 * _exp_neg((m * m * L * L)[:, None] / ti)
                           ).sum(axis=0)
        out[~direct] = L / np.sqrt(4.0 * math.pi * ti) * theta_sum - 0.5
    return out


def _heat_trace_circle_mu0(C: float, theta: float, t: np.ndarray) -> np.ndarray:
    """Tr exp(t d^2) on a circle of circumference C with twist theta at every
    t of an array: the direct sum over the lines 2 pi n + theta from
    t = C^2 / 20 on, the image sum below."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    direct = t >= C * C / 20.0
    td, ti = t[direct], t[~direct]
    if td.size:
        # every line 2 pi n +- theta within the floor at the smallest t
        reach = C * math.sqrt(_EXP_FLOOR / td.min()) + abs(theta)
        n = np.arange(int(reach / (2.0 * math.pi)) + 2)[:, None]
        terms = _exp_neg(td * (((2.0 * math.pi * n + theta) / C) ** 2))
        terms[1:] += _exp_neg(td * (((-2.0 * math.pi * n[1:] + theta) / C)
                                    ** 2))
        out[direct] = terms.sum(axis=0)
    if ti.size:
        m = np.arange(1, int(2.0 * math.sqrt(_EXP_FLOOR * ti.max()) / C) + 2)
        theta_sum = 1.0 + (2.0 * np.cos(m * theta)[:, None]
                           * _exp_neg((m * m * C * C)[:, None] / (4.0 * ti))
                           ).sum(axis=0)
        out[~direct] = C / np.sqrt(4.0 * math.pi * ti) * theta_sum
    return out


# ---------------------------------------------------------------------------
# Fiber spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberSpectrum:
    """Transverse spectrum: finite eigenvalue multiset or a circle family.

    Finite fibers list (mu, mult) pairs sorted by mu with at most one zero
    entry.  The circle variant stands for -d^2/dy^2 on a circle: mu_k =
    2 pi k / circumference with multiplicity 2 for k >= 1 plus one zero mode.
    """

    kind: str
    modes: tuple[tuple[float, int], ...] = ()
    circumference: float = 0.0

    @classmethod
    def finite(cls, modes: Sequence[tuple[float, int]]) -> "FiberSpectrum":
        modes = tuple((float(m), int(k)) for m, k in modes)
        if not all(math.isfinite(m) and m >= 0 for m, _ in modes):
            raise ValueError("fiber frequencies must be finite and nonnegative")
        if any(k < 1 for _, k in modes):
            raise ValueError("multiplicities must be >= 1")
        if sorted(m for m, _ in modes) != [m for m, _ in modes]:
            raise ValueError("modes must be sorted nondecreasing")
        if sum(1 for m, _ in modes if m == 0.0) > 1:
            raise ValueError("at most one zero entry")
        return cls(kind="finite", modes=modes)

    @classmethod
    def circle(cls, circumference: float) -> "FiberSpectrum":
        if not (math.isfinite(circumference) and circumference > 0):
            raise ValueError("circumference must be finite and positive")
        return cls(kind="circle", circumference=float(circumference))

    @property
    def h0(self) -> int:
        """Kernel dimension of the transverse operator."""
        if self.kind == "circle":
            return 1
        return sum(k for m, k in self.modes if m == 0.0)

    @property
    def min_nonzero(self) -> float:
        if self.kind == "circle":
            return 2.0 * math.pi / self.circumference
        for m, _ in self.modes:
            if m > 0.0:
                return m
        return math.inf


def fiber_zeta_data(fiber: FiberSpectrum) -> ZetaData:
    """Zeta data of the transverse operator on the complement of its kernel."""
    if fiber.kind == "finite":
        z0 = float(sum(k for m, k in fiber.modes if m > 0.0))
        zp = -2.0 * math.fsum(k * math.log(m) for m, k in fiber.modes if m > 0.0)
        return ZetaData.from_zeta(z0, zp, fiber.h0)
    # circle: zeta(s) = 2 (2 pi / L)^{-2s} zeta_R(2s)
    L = fiber.circumference
    z0 = 2.0 * ZETA_R_AT_0
    zp = 2.0 * (-2.0 * math.log(2.0 * math.pi / L) * ZETA_R_AT_0
                + 2.0 * ZETA_R_PRIME_AT_0)
    return ZetaData.from_zeta(z0, zp, 1)


def fiber_sqrt_zeta_data(fiber: FiberSpectrum) -> ZetaData:
    """Zeta data of the square root of the transverse operator (kernel out)."""
    if fiber.kind == "finite":
        z0 = float(sum(k for m, k in fiber.modes if m > 0.0))
        zp = -math.fsum(k * math.log(m) for m, k in fiber.modes if m > 0.0)
        return ZetaData.from_zeta(z0, zp, fiber.h0)
    L = fiber.circumference
    z0 = 2.0 * ZETA_R_AT_0
    zp = 2.0 * (-math.log(2.0 * math.pi / L) * ZETA_R_AT_0 + ZETA_R_PRIME_AT_0)
    return ZetaData.from_zeta(z0, zp, 1)


def fiber_scaled_sqrt_logdet(fiber: FiberSpectrum) -> float:
    """log det* of twice the square-root operator.

    Computed as zeta(0) log 2 + log det*(sqrt), and asserted against the
    direct continuation of the doubled sequence (determinant scaling law).
    """
    sq = fiber_sqrt_zeta_data(fiber)
    via_scaling = sq.zeta_at_zero * math.log(2.0) + sq.log_det
    if fiber.kind == "finite":
        direct = math.fsum(k * math.log(2.0 * m)
                           for m, k in fiber.modes if m > 0.0)
    else:
        L = fiber.circumference
        # zeta_{2 sqrt}(s) = 2 (4 pi / L)^{-s} zeta_R(s)
        zp = 2.0 * (-math.log(4.0 * math.pi / L) * ZETA_R_AT_0 + ZETA_R_PRIME_AT_0)
        direct = -zp
    if abs(direct - via_scaling) > 1e-10 * max(1.0, abs(direct)):
        raise AssertionError("determinant scaling identity violated")
    return via_scaling


def fiber_sqrt_zeta_at_minus_one(fiber: FiberSpectrum) -> float:
    """Regularized first moment of the nonzero transverse frequencies.

    Finite fibers: the plain sum.  Circle fibers: the continued value
    2 (2 pi / L) zeta_R(-1) of the divergent sum of frequencies.
    """
    if fiber.kind == "finite":
        return math.fsum(k * m for m, k in fiber.modes if m > 0.0)
    return 2.0 * (2.0 * math.pi / fiber.circumference) * ZETA_R_AT_MINUS_1
