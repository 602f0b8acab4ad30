"""Assembly of the glued model and its cut pieces.

The model manifold is a circle of circumference C = a1 + a2 + 4R carrying a
transverse spectrum; cutting at two points leaves intervals of lengths
L_i = a_i + 2R with Dirichlet conditions.  Per transverse mode everything
is an elementary 1-D problem, so the three log-determinants and the
boundary-response operator (sum of the two interval blocks) come from
closed forms.

For an analytic circle cross-section the mode sums diverge; the divergent
parts are linear in the frequencies and are assigned their continued
values through the cross-section zeta function (first moment, mode count,
log-determinant).  The gluing-constant identity holds per mode after the
subtraction, which is the cross-check that pins the renormalization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .base1d import (_block_remainder, _csch_coth, _growth_remainders,
                     _nonzero_logs)
from .spectral_core import (
    FiberSpectrum,
    fiber_sqrt_zeta_at_minus_one,
    fiber_sqrt_zeta_data,
)

__all__ = [
    "GlueGeometry",
    "ConditionAReport",
    "ConditionAViolation",
    "AssembledDeterminants",
    "condition_A_check",
    "mode_table",
    "DeterminantGrid",
    "logdet_grid",
    "logdet_closed",
    "trace_perp_inverse_diff",
]


class ConditionAViolation(ValueError):
    """A zero mode with trivial holonomy: the glued operator develops
    eigenvalues decaying exponentially under stretching."""


@dataclass(frozen=True)
class GlueGeometry:
    """Interior lengths a1, a2, stretch R, and one holonomy phase per
    transverse zero mode; the nonzero modes carry no twist.

    Derived: interval lengths L_i = a_i + 2R and circumference
    C = a1 + a2 + 4R = L1 + L2.
    """

    a1: float
    a2: float
    R: float
    holonomy: tuple[float, ...] = ()

    def __post_init__(self):
        # chained, so that NaN fails like 0 and inf (NaN <= 0 is False)
        if not (0.0 < self.a1 < math.inf and 0.0 < self.a2 < math.inf
                and 0.0 < self.R < math.inf):
            raise ValueError("a1, a2, R must be finite and positive")
        if not math.isfinite(self.C):
            raise ValueError(f"circumference a1 + a2 + 4R overflows at "
                             f"R = {self.R:.17g}")
        object.__setattr__(self, "holonomy", tuple(float(t) for t in self.holonomy))
        for t in self.holonomy:
            if not (0.0 <= t < 2.0 * math.pi):
                raise ValueError("holonomy phases must lie in [0, 2pi)")
        assert abs((self.L1 + self.L2) - self.C) < 1e-12 * self.C

    @property
    def L1(self) -> float:
        return self.a1 + 2.0 * self.R

    @property
    def L2(self) -> float:
        return self.a2 + 2.0 * self.R

    @property
    def C(self) -> float:
        return self.a1 + self.a2 + 4.0 * self.R

    def with_R(self, R: float) -> "GlueGeometry":
        return GlueGeometry(self.a1, self.a2, R, self.holonomy)


@dataclass(frozen=True)
class ConditionAReport:
    """Outcome of the no-exponentially-small-eigenvalues check."""

    ok: bool
    violations: tuple[str, ...]

    def raise_if_failed(self):
        if not self.ok:
            raise ConditionAViolation("; ".join(self.violations))


def condition_A_check(geom: GlueGeometry, fiber: FiberSpectrum) -> ConditionAReport:
    """Check that every zero-mode holonomy phase is nonzero.

    Equivalently, no flat circle mode appears in the assembly and the two
    cut-operator fixed spaces intersect trivially, which rules out
    exponentially small eigenvalues of the boundary-response operator.
    """
    if len(geom.holonomy) != fiber.h0:
        raise ValueError(f"holonomy must carry one phase per zero mode "
                         f"({fiber.h0} needed, {len(geom.holonomy)} given)")
    # a phase below 1e-323 rounds its half-angle, and so sin(theta/2), to 0
    bad = tuple(f"zero mode {j}: holonomy phase 0 gives a flat circle mode"
                if t == 0.0 else f"zero mode {j}: holonomy phase {t!r} "
                "underflows sin(theta/2) to 0, a flat circle mode"
                for j, t in enumerate(geom.holonomy)
                if math.sin(0.5 * t) == 0.0)
    return ConditionAReport(ok=not bad, violations=bad)


@dataclass(frozen=True)
class ModeRow:
    """Per-mode breakdown of the four log-determinants.

    For an analytic fiber the nonzero-mode rows hold the post-subtraction
    remainders; the subtracted growth is restored through the continued
    sums stored on the parent record.
    """

    label: str
    mu: float
    mult: int
    log_det_M: float
    log_det_M1: float
    log_det_M2: float
    log_det_R: float


@dataclass(frozen=True)
class AssembledDeterminants:
    log_det_M: float
    log_det_M1: float
    log_det_M2: float
    log_det_R: float
    h_Y: int
    regularization: dict | None = None
    # per-mode arrays (mu, mult, then the four logs), zero modes first
    mode_logs: tuple[np.ndarray, ...] = field(default=(), repr=False,
                                              compare=False)

    @cached_property
    def rows(self) -> tuple[ModeRow, ...]:
        """Per-mode breakdown, built on first access."""
        mu, mult, *logs = self.mode_logs
        zeros = self.h_Y // 2
        labels = ["zero"] * zeros + ["nonzero"] * (len(mu) - zeros)
        return tuple(map(ModeRow, labels, mu.tolist(), mult.tolist(),
                         *(col.tolist() for col in logs)))

    @property
    def log_ratio(self) -> float:
        """log of det_M / (det_M1 det_M2)."""
        return self.log_det_M - self.log_det_M1 - self.log_det_M2

    @property
    def log_bfk_ratio(self) -> float:
        return self.log_ratio - self.log_det_R


def mode_table(fiber: FiberSpectrum, n: int | None = None):
    """(mu, mult) arrays over the fiber's nonzero modes in spectral order: a
    finite fiber's modes, or its first n; a circle fiber's first n."""
    if fiber.kind == "finite":
        modes = [(m, k) for m, k in fiber.modes if m > 0.0][:n]
        mu = np.array([m for m, _ in modes], dtype=float)
        mult = np.array([k for _, k in modes], dtype=np.int64)
    else:
        mu = 2.0 * math.pi * np.arange(1, n + 1) / fiber.circumference
        mult = np.full(n, 2)
    return mu, mult


def _scan_circle(fiber, evaluate, n: int, limit: int | None = None):
    """Circle modes through the first where evaluate(mu, mult) ->
    (values, stop) stops, n modes a pass, n doubling up to limit.  Returns
    (stopped, table, values), cut after that mode if one stopped."""
    while True:
        n = min(n, limit or n)
        table = mode_table(fiber, n)
        values, stop = evaluate(*table)
        if stop.any():
            k = int(np.argmax(stop)) + 1
            return True, tuple(a[:k] for a in table), tuple(v[:k] for v in values)
        if n == limit:
            return False, table, values
        n *= 2


@dataclass(frozen=True, eq=False)
class DeterminantGrid(Sequence):
    """logdet_grid's columns: per stretch, the total log det M, M1, M2, R
    and the error that stopped it, or None; the mode table, zero modes
    first, and its modes x stretches logs, of which stretch j uses the
    first counts[j] modes.  Entry j is built on access."""

    Rs: tuple[float, ...]
    totals: tuple[list[float], ...]
    errors: tuple[Exception | None, ...]
    h_Y: int
    regularization: dict | None
    # mu, mult, then the four logs, as in AssembledDeterminants
    mode_logs: tuple[np.ndarray, ...] = field(repr=False)
    counts: tuple[int, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.Rs)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(map(self.__getitem__, range(len(self))[j]))
        if self.errors[j] is not None:
            return self.errors[j]
        n, reg = self.counts[j], self.regularization
        return AssembledDeterminants(
            *(col[j] for col in self.totals), self.h_Y, reg and dict(reg),
            tuple(a[:n] if a.ndim == 1 else a[:n, j] for a in self.mode_logs))


def _fsums(rows: list) -> list[float]:
    """math.fsum of each row; nan for one whose partial sums overflow."""
    try:
        return list(map(math.fsum, rows))
    except OverflowError:
        return [_fsums([r])[0] for r in rows] if len(rows) > 1 else [math.nan]


_TAIL_EPS = 1e-16      # a circle fiber's remainders stop below this, relative
_MAX_MODES = 100_000   # and within this many modes, or the stretch fails


@np.errstate(over="ignore")   # a total past the float range fails its stretch
def logdet_grid(geom: GlueGeometry, fiber: FiberSpectrum,
                Rs) -> DeterminantGrid:
    """All four log-determinants at each stretch in Rs, by closed forms; a1,
    a2 and the phases come from geom.  Finite fibers sum per-mode values
    exactly, in one modes x stretches pass.  Circle fibers, one pass per
    stretch, subtract the divergent growth per mode (mu C, mu L_i - log mu,
    log 4 mu^2), assign the subtracted sums their continued values, and cut
    the remainder series once below _TAIL_EPS.  Raises on a condition
    violation; a stretch's error is a RuntimeError (no cut within
    _MAX_MODES) or a ValueError (a total past the float range)."""
    condition_A_check(geom, fiber).raise_if_failed()
    Rs = np.asarray(Rs, dtype=float)
    if not np.all(np.isfinite(Rs) & (Rs > 0)):
        raise ValueError("a1, a2, R must be finite and positive")
    L1, L2 = geom.a1 + 2.0 * Rs, geom.a2 + 2.0 * Rs
    C = geom.a1 + geom.a2 + 4.0 * Rs
    # zero modes: dets 4 sin^2(theta/2) = 2 - 2 cos theta, 2 L_i, and
    # 4 sin^2(theta/2) / (L1 L2); the sine does not cancel at small theta
    hol = np.array(geom.holonomy)
    flat = 2.0 * np.log(2.0 * np.abs(np.sin(0.5 * hol)))[:, None]
    zero_logs = np.broadcast_arrays(flat, np.log(2.0 * L1), np.log(2.0 * L2),
                                    flat - np.log(L1 * L2))
    zeros = (np.zeros(len(hol)), np.ones(len(hol), dtype=np.int64))
    reg, errors = None, [None] * len(Rs)
    if fiber.kind == "finite":
        mu, mult = mode_table(fiber)
        table = tuple(map(np.concatenate, zip(zeros, (mu, mult))))
        logs = tuple(map(np.vstack, zip(zero_logs, _nonzero_logs(
            mu[:, None], L1, L2, C))))
        # per stretch, the math.fsum of each mult-weighted column
        totals = [_fsums((table[1][:, None] * col).T.tolist()) for col in logs]
        counts = (len(table[0]),) * len(Rs)
    else:
        # circle fibers: continued sums of the growth subtracted per mode,
        # plus the remainders through the first mode where all three are small
        sq = fiber_sqrt_zeta_data(fiber)
        reg = {"sum_mu": fiber_sqrt_zeta_at_minus_one(fiber), "mode_count":
               sq.zeta_at_zero, "sum_log_mu": -sq.zeta_prime_at_zero}
        s_mu, s_cnt, s_log = reg.values()
        limit = _MAX_MODES
        totals = [[math.nan] * len(Rs) for _ in range(4)]
        scanned = [((),) * 4] * len(Rs)   # each stretch's four remainders
        for j, (l1, l2, c) in enumerate(np.stack([L1, L2, C], 1).tolist()):
            scale = 1.0 + abs(c * s_mu)
            if math.isinf(scale):   # so is the head c * s_mu: failed below
                continue

            def remainders(mu, mult):
                rems = (*_growth_remainders(mu * c, mu * l1, mu * l2),
                        _block_remainder(mu * l1, mu * l2))
                largest = np.max(np.abs(rems[:3]), axis=0)
                return rems + (largest,), largest < _TAIL_EPS * scale

            # the largest remainder is about 2 exp(-mu min(C, 2 L1, 2 L2))
            reach = (max(math.log(3.0 / (_TAIL_EPS * scale)), 0.0)
                     / min(c, 2.0 * l1, 2.0 * l2))
            stopped, (_, mult), rems = _scan_circle(
                fiber, remainders,
                int(reach * fiber.circumference / (2.0 * math.pi)) + 2, limit)
            if not stopped:
                errors[j] = RuntimeError(
                    f"fiber regularization did not converge within {limit} "
                    f"modes (last remainder {rems[-1][-1]:.3e})")
                continue
            heads = (c * s_mu, l1 * s_mu - s_log, l2 * s_mu - s_log,
                     2.0 * math.log(2.0) * s_cnt + 2.0 * s_log)
            for total, head, z, rem in zip(totals, heads, zero_logs, rems):
                total[j] = math.fsum([head] + z[:, j].tolist()
                                     + (mult * rem).tolist())
            scanned[j] = rems[:4]
        # one table through the longest scan; stretch-major logs, of which
        # only the rows a stretch fills take memory
        h0, n = len(hol), max((len(r[0]) for r in scanned), default=0)
        table = tuple(map(np.concatenate, zip(zeros, mode_table(fiber, n))))
        logs = tuple(np.zeros((h0 + n, len(Rs)), order="F") for _ in zero_logs)
        for j, rems in enumerate(scanned):
            for col, z, rem in zip(logs, zero_logs, rems):
                col[:h0 + len(rem), j] = np.concatenate([z[:, j], rem])
        counts = tuple(h0 + len(r[0]) for r in scanned)
    Rs = tuple(Rs.tolist())
    # a stretch that stopped early keeps its error
    for j in np.flatnonzero(~np.isfinite(totals).all(axis=0)).tolist():
        errors[j] = errors[j] or ValueError(
            f"non-finite log-determinant at R={Rs[j]:g}")
    return DeterminantGrid(Rs, tuple(totals), tuple(errors), 2 * fiber.h0,
                           reg, table + logs, counts)


def logdet_closed(geom: GlueGeometry,
                  fiber: FiberSpectrum) -> AssembledDeterminants:
    """logdet_grid at geom.R alone; raises that stretch's error."""
    (entry,) = logdet_grid(geom, fiber, (geom.R,))
    if isinstance(entry, Exception):
        raise entry
    return entry


_TRACE_TAIL_EPS = 1e-18   # a circle fiber's trace series stops below this


@np.errstate(over="ignore")   # mu L past the float range: a term of 0
def trace_perp_inverse_diff(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    """Trace of (block inverse minus the large-R limit) over nonzero modes.

    Per mode the 2x2 block sum B satisfies tr B^{-1} - 1/mu =
    2 mu (s1 s2 - c1 c2)/det B with c_i = coth(mu L_i) - 1 and
    s_i = csch(mu L_i); everything is evaluated in decaying exponentials.
    A circle fiber's series stops after the first mode past the second
    whose term falls below _TRACE_TAIL_EPS.
    """
    def terms(mu, mult):
        (s1, c1), (s2, c2) = _csch_coth(mu * geom.L1), _csch_coth(mu * geom.L2)
        det_over_mu2 = (2.0 + c1 + c2) ** 2 - (s1 * s1 + s2 * s2
                                               + 2.0 * s1 * s2)
        d = 2.0 * (s1 * s2 - c1 * c2) / (mu * det_over_mu2)
        return (mult * d,), ((np.abs(d) < _TRACE_TAIL_EPS)
                             & (np.arange(len(d)) > 1))

    if fiber.kind == "finite":
        (total,), _ = terms(*mode_table(fiber))
    else:  # a term is about exp(-mu C) / mu
        reach = max(math.log(1.0 / (_TRACE_TAIL_EPS * fiber.min_nonzero)),
                    0.0) / geom.C
        n = int(reach * fiber.circumference / (2.0 * math.pi)) + 3
        _, _, (total,) = _scan_circle(fiber, terms, n)
    return math.fsum(total.tolist())
