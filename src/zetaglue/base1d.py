"""Closed forms for the 1-D longitudinal problems of the separable model.

Two base geometries occur: a circle of circumference C with a holonomy
phase, and an interval of length L with Dirichlet ends.  For the shifted
operator -d^2/du^2 + mu^2 both have elementary determinants

    circle:   2 cosh(mu C) - 2 cos(theta)
              = 4 sinh^2(mu C / 2) + 4 sin^2(theta / 2)
    interval: 2 sinh(mu L) / mu          (2L at mu = 0)

and the interval has an explicit 2x2 boundary response (Dirichlet-to-
Neumann) block per transverse mode: diagonal mu coth(mu L), off-diagonal
-mu csch(mu L) times the boundary phase.  This module evaluates them over
broadcast numpy arrays, the one implementation glue sums.  The scalar
references and the independent truncation oracle that recomputes the
determinants through the generic zeta machinery are in zetaglue.oracles.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []

_OVERFLOW_ARG = 30.0  # switch to exponential-form rewrites past this
_SMALL_ARG = 1.0      # switch to the cancellation-free circle form below this


def _csch_coth(x):
    """csch x and coth x - 1 in decaying exponentials, finite at any x > 0."""
    e, d = np.exp(-x), -np.expm1(-2.0 * x)
    return 2.0 * e / d, 2.0 * e * e / d


def _growth_remainders(x_c, x_1, x_2, cos_t):
    """log(2 cosh x_c - 2 cos theta) - x_c and log(2 sinh x_i) - x_i."""
    e_c = np.exp(-x_c)
    return (np.log1p(-2.0 * cos_t * e_c + e_c * e_c),
            np.log1p(-np.exp(-2.0 * x_1)), np.log1p(-np.exp(-2.0 * x_2)))


def _block_remainder(x1, x2, theta):
    """log(det B / 4 mu^2), B the sum of the two interval DN blocks.  Per
    unit mu, diagonal minus off-diagonal is t = tanh(x/2), diagonal plus
    off-diagonal 1/t and off-diagonal s = csch x, so det B / mu^2 =
    (t1 + t2)(1/t1 + 1/t2) + 4 s1 s2 sin^2(theta/2), and the first term is
    4 + (t1 - t2)^2 / (t1 t2): no cancellation against the leading 4, and
    none in 1 - cos theta at small theta."""
    t1, t2 = np.tanh(0.5 * x1), np.tanh(0.5 * x2)
    (s1, _), (s2, _) = _csch_coth(x1), _csch_coth(x2)
    return np.log1p(0.25 * ((t1 - t2) ** 2 / (t1 * t2)
                            + 4.0 * s1 * s2 * np.sin(0.5 * theta) ** 2))


@np.errstate(divide="ignore")   # sin(theta/2) = 0: a log of -inf, no term
def _nonzero_logs(mu, theta, L1, L2, C):
    """log det of M, M1, M2 and R for nonzero modes over broadcast arrays.

    Past x = 30, M, M1 and M2 take their growth plus remainder.  Below
    x = 1, M takes log(4 sinh^2(x/2) + 4 sin^2(theta/2)) as a logaddexp of
    the two logs, where 2 cosh x - 2 cos theta would cancel.  Each branch
    sees only its side's inputs."""
    cos_t = np.cos(theta)
    xs = (mu * C, mu * L1, mu * L2)
    rems = _growth_remainders(*(np.maximum(x, _OVERFLOW_ARG) for x in xs), cos_t)
    lo_c, lo_1, lo_2 = (np.minimum(x, _OVERFLOW_ARG) for x in xs)
    circle = np.log(2.0 * np.cosh(np.maximum(lo_c, _SMALL_ARG)) - 2.0 * cos_t)
    small = xs[0] < _SMALL_ARG
    if small.any():
        circle = np.where(small, np.logaddexp(
            2.0 * np.log(2.0 * np.sinh(0.5 * np.minimum(lo_c, _SMALL_ARG))),
            2.0 * np.log(2.0 * np.abs(np.sin(0.5 * theta)))), circle)
    direct = (circle, np.log(2.0 * np.sinh(lo_1) / mu),
              np.log(2.0 * np.sinh(lo_2) / mu))
    growth = (xs[0], xs[1] - np.log(mu), xs[2] - np.log(mu))
    return tuple(np.where(x > _OVERFLOW_ARG, g + r, d)
                 for x, g, r, d in zip(xs, growth, rems, direct)) + (
        np.log(4.0 * mu * mu) + _block_remainder(xs[1], xs[2], theta),)
