"""Closed forms for the 1-D longitudinal problems of the separable model.

Two base geometries occur: a circle of circumference C with a holonomy
phase, and an interval of length L with Dirichlet ends.  For the shifted
operator -d^2/du^2 + mu^2 both have elementary determinants

    circle:   2 cosh(mu C) - 2 cos(theta)
    interval: 2 sinh(mu L) / mu          (2L at mu = 0)

and the interval has an explicit 2x2 boundary response (Dirichlet-to-
Neumann) block per transverse mode.  The independent truncation oracle
that recomputes the determinants through the generic zeta machinery is
zetaglue.oracles.oracle_logdet_truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    ArithmeticFamily,
    EigenvalueSeq,
)

__all__ = [
    "Circle",
    "DirichletInterval",
    "ModeProblem",
    "DNBlock",
    "logdet_circle_mode",
    "logdet_dirichlet_mode",
    "dn_block",
]

_OVERFLOW_ARG = 30.0  # switch to exponential-form rewrites past this


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

    @property
    def has_kernel(self) -> bool:
        """True for the flat circle mode; such a mode breaks the gluing
        hypotheses when it appears in an assembled geometry."""
        return (isinstance(self.base, Circle) and self.mu == 0.0
                and self.base.theta == 0.0)

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

    def heat_trace(self, t: float) -> float:
        from .spectral_core import heat_trace_mode

        return heat_trace_mode(self, t)


# ---------------------------------------------------------------------------
# Closed-form log-determinants
# ---------------------------------------------------------------------------

def logdet_circle_mode(C: float, theta: float, mu: float) -> float:
    """log det of -d^2 + mu^2 on the circle: log(2 cosh(mu C) - 2 cos theta).

    Overflow-safe for large mu C.  Rejects the flat zero mode (mu = 0,
    theta = 0), whose determinant would vanish.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if mu == 0.0 and theta == 0.0:
        raise ValueError("zero mode on circle")
    x = mu * C
    if x > _OVERFLOW_ARG:
        return x + math.log1p(-2.0 * math.cos(theta) * math.exp(-x)
                              + math.exp(-2.0 * x))
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


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DNBlock:
    """Boundary response of one mode on one interval: a 2x2 Hermitian block.

    Rows/columns index the two cut components.  Diagonal mu coth(mu L)
    (1/L at mu = 0), off-diagonal -mu csch(mu L) times the boundary phase.
    Positive semidefinite, strictly definite for mu > 0.
    """

    matrix: np.ndarray
    mu: float
    L: float
    w: complex

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def det(self) -> float:
        a = self.matrix
        return float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)


def dn_block(L: float, mu: float, w: complex = 1.0) -> DNBlock:
    """Dirichlet-to-Neumann map of -d^2 + mu^2 on [0, L].

    Outward-normal convention at both ends.  The unit phase w sits on the
    second cut component; a glued loop picks up w2 * conj(w1).
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
    m = np.array([[diag, -off * w.conjugate()], [-off * w, diag]], dtype=complex)
    return DNBlock(matrix=m, mu=mu, L=L, w=w)
