"""Closed forms for the 1-D longitudinal problems of the separable model.

Two base geometries occur: a circle of circumference C, and an interval
of length L with Dirichlet ends.  A transverse zero mode sees the circle
with a holonomy phase theta, and its determinant is 4 sin^2(theta / 2);
a nonzero mode mu sees it untwisted.  For the shifted operator
-d^2/du^2 + mu^2 both have elementary determinants

    circle:   2 cosh(mu C) - 2 = 4 sinh^2(mu C / 2)
    interval: 2 sinh(mu L) / mu          (2L at mu = 0)

and the interval has an explicit 2x2 boundary response (Dirichlet-to-
Neumann) block per transverse mode: diagonal mu coth(mu L), off-diagonal
-mu csch(mu L).  This module evaluates the nonzero-mode forms over
broadcast numpy arrays, the one implementation glue sums.  The scalar
references and the independent truncation oracle that recomputes the
determinants through the generic zeta machinery are in zetaglue.oracles.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []

_OVERFLOW_ARG = 30.0  # switch to exponential-form rewrites past this


def _csch_coth(x):
    """csch x and coth x - 1 in decaying exponentials, finite at any x > 0."""
    e, d = np.exp(-x), -np.expm1(-2.0 * x)
    return 2.0 * e / d, 2.0 * e * e / d


def _growth_remainders(x_c, x_1, x_2):
    """log(2 cosh x_c - 2) - x_c = 2 log(1 - e^{-x_c}) and
    log(2 sinh x_i) - x_i."""
    return (2.0 * np.log1p(-np.exp(-x_c)),
            np.log1p(-np.exp(-2.0 * x_1)), np.log1p(-np.exp(-2.0 * x_2)))


def _block_remainder(x1, x2):
    """log(det B / 4 mu^2), B the sum of the two interval DN blocks.  Per
    unit mu, diagonal minus off-diagonal is t = tanh(x/2) and diagonal plus
    off-diagonal 1/t, so det B / mu^2 = (t1 + t2)(1/t1 + 1/t2) =
    4 + (t1 - t2)^2 / (t1 t2): no cancellation against the leading 4."""
    t1, t2 = np.tanh(0.5 * x1), np.tanh(0.5 * x2)
    return np.log1p(0.25 * ((t1 - t2) ** 2 / (t1 * t2)))


def _nonzero_logs(mu, L1, L2, C):
    """log det of M, M1, M2 and R for nonzero modes over broadcast arrays.

    Past x = 30, M, M1 and M2 take their growth plus remainder.  Below, M
    takes 2 cosh x - 2 as 4 sinh^2(x/2), which does not cancel at small x.
    Each branch sees only its side's inputs."""
    xs = (mu * C, mu * L1, mu * L2)
    rems = _growth_remainders(*(np.maximum(x, _OVERFLOW_ARG) for x in xs))
    lo_c, lo_1, lo_2 = (np.minimum(x, _OVERFLOW_ARG) for x in xs)
    direct = (2.0 * np.log(2.0 * np.sinh(0.5 * lo_c)),
              np.log(2.0 * np.sinh(lo_1) / mu),
              np.log(2.0 * np.sinh(lo_2) / mu))
    growth = (xs[0], xs[1] - np.log(mu), xs[2] - np.log(mu))
    return tuple(np.where(x > _OVERFLOW_ARG, g + r, d)
                 for x, g, r, d in zip(xs, growth, rems, direct)) + (
        np.log(4.0 * mu * mu) + _block_remainder(xs[1], xs[2]),)
