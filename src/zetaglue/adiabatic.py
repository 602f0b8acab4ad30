"""Stretch sweeps: both sides of the limit theorems, checked per row, the
per-stretch gluing constant, and the heat-trace cancellation checks.

A sweep evaluates the assembled determinants on a grid of stretches.  The
limits are checked per row, in logs: each zero mode adds exactly
log(4 R^2 / (L1 L2)) to a scaled column past its limit, and the nonzero
modes' exponentially small rest is bounded a priori.  Predictions for the
limits are assembled, in logs, from the fiber zeta data and the closed form
prod sin^2(theta_j/2) of det((Id - U)/2) for the composite scattering
matrix U at 0, and the three predicted quantities satisfy an exact
algebraic triangle that is asserted rather than assumed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .glue import (DeterminantGrid, GlueGeometry, condition_A_check,
                   logdet_closed, logdet_grid, mode_table)
from .scattering import model_logdet, model_logdet_star
from .spectral_core import (
    EULER_GAMMA,
    FiberSpectrum,
    _EXP_FLOOR,
    _exp_neg,
    _heat_trace_circle_mu0,
    _heat_trace_dirichlet_mu0,
    fiber_scaled_sqrt_logdet,
    fiber_sqrt_zeta_data,
    fiber_zeta_data,
)

__all__ = [
    "SweepRow",
    "SweepResult",
    "sweep",
    "predicted_main_limit",
    "predicted_dn_limit",
    "predicted_bfk_constant",
    "verify_theorem_main",
    "verify_theorem_dn",
    "verify_bfk_corollary",
    "verify_lemma_cancellation",
    "verify_smalltime_largetime_split",
]

DEFAULT_R_GRID = (4.0, 8.0, 16.0, 32.0, 64.0)


class SweepRow(NamedTuple):
    R: float
    log_det_M: float
    log_det_M1: float
    log_det_M2: float
    log_det_R: float
    scaled_ratio: float      # R^{h_Y} det_M / (det_M1 det_M2)
    scaled_det_R: float      # R^{h_Y} det_R
    bfk_ratio: float
    failed: bool = False
    error: str = ""


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep: its determinant grid, whose log columns the checks read,
    and its rows, built on first read."""

    h_Y: int
    fiber: FiberSpectrum
    geom_template: GlueGeometry
    grid: DeterminantGrid = field(repr=False)

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """A row per stretch, its linear columns from its logs; nan, with
        the error's text, where the grid failed the stretch."""
        rows, h, grid = [], self.h_Y, self.grid
        for R, M, M1, M2, D, error in zip(grid.Rs, *grid.totals, grid.errors):
            lr = M - M1 - M2
            rows.append(SweepRow(R, *[math.nan] * 7, True, str(error))
                        if error is not None else
                        SweepRow(R, M, M1, M2, D, _scaled_exp(lr, R, h),
                                 _scaled_exp(D, R, h), _scaled_exp(lr - D)))
        return tuple(rows)

    @property
    def Rs(self) -> tuple[float, ...]:
        return self.column("R")

    def column(self, name: str) -> tuple[float, ...]:
        """The column over the rows that did not fail; R and the logs are
        read from the grid, with no row built."""
        i, grid = SweepRow._fields.index(name), self.grid
        col = (grid.Rs, *grid.totals)[i] if i < 5 else (r[i] for r in self.rows)
        return tuple(v for v, error in zip(col, grid.errors) if error is None)


def _row_logs(grid: DeterminantGrid) -> tuple[np.ndarray, np.ndarray]:
    """(failed mask, stretches x 4 array of log det M, M1, M2, R): the
    rows' logs, nan on a failed stretch."""
    failed = np.array([error is not None for error in grid.errors], dtype=bool)
    logs = np.column_stack(grid.totals)
    logs[failed] = math.nan
    return failed, logs


def sweep(geom_template: GlueGeometry, fiber: FiberSpectrum,
          R_grid=DEFAULT_R_GRID) -> SweepResult:
    """Fill the determinant columns over a stretch grid, in grid order.

    All stretches are evaluated together by logdet_grid: one array pass
    for a finite fiber, one pass per stretch for a circle fiber.  The
    result holds that grid; its rows are built when first read.
    """
    grid = logdet_grid(geom_template, fiber, sorted(map(float, R_grid)))
    return SweepResult(grid.h_Y, fiber, geom_template, grid)


# ---------------------------------------------------------------------------
# Predicted limits
# ---------------------------------------------------------------------------

def _log_det_half_complement(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    """log det((Id - U)/2), U the composite scattering matrix at 0.  Per
    zero mode U is diag(e^{i theta}, e^{-i theta}), so the determinant is
    the product of sin^2(theta_j / 2)."""
    condition_A_check(geom, fiber).raise_if_failed()
    return math.fsum(2.0 * math.log(abs(math.sin(0.5 * t)))
                     for t in geom.holonomy)


def _exp(x: float, exp=math.exp) -> float:
    """exp(x), e^x or math.expm1's e^x - 1; inf where that overflows."""
    try:
        return exp(x)
    except OverflowError:
        return math.inf


def _exps(x: np.ndarray, exp=math.exp) -> list[float]:
    """_exp of each entry of an array, as floats."""
    try:
        return list(map(exp, x.tolist()))
    except OverflowError:
        return [_exp(v, exp) for v in x.tolist()]


def _scaled_exp(x: float, R: float = 1.0, h: int = 0) -> float:
    """R^h e^x as R ** h * math.exp(x), or from its log where a factor
    overflows: inf past the float range, 0.0 below it."""
    try:
        return R ** h * math.exp(x)
    except OverflowError:
        return _exp(h * math.log(R) + x)


def _log_main_limit(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    return (-2 * fiber.h0 * math.log(2.0)
            + fiber_zeta_data(fiber).log_det  # one copy
            + _log_det_half_complement(geom, fiber))


def predicted_main_limit(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    """2^{-h} sqrt(det* of the doubled cross-section) det((Id-U)/2), taken
    in logs; inf past the float range."""
    return _exp(_log_main_limit(geom, fiber))


def _log_dn_limit(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    z, sq = fiber_zeta_data(fiber), fiber_sqrt_zeta_data(fiber)
    log_value = 2.0 * z.zeta_at_zero * math.log(2.0) + 2.0 * sq.log_det
    # same number through the scaled square root; the doubling identity
    assert abs(log_value - 2.0 * fiber_scaled_sqrt_logdet(fiber)) <= 1e-10
    return log_value + _log_det_half_complement(geom, fiber)


def predicted_dn_limit(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    """2^{zeta(0)} det*(sqrt) det((Id-U)/2) over the doubled cross-section,
    taken in logs; inf past the float range."""
    return _exp(_log_dn_limit(geom, fiber))


def _bfk_exponent(fiber: FiberSpectrum) -> float:
    """-zeta(0) - h over the doubled cross-section, the base-2 log of the
    gluing constant; finite where the constant underflows (past 2^-1074)."""
    return -2.0 * fiber_zeta_data(fiber).zeta_at_zero - 2 * fiber.h0


def predicted_bfk_constant(fiber: FiberSpectrum) -> float:
    """2^{-zeta(0) - h} over the doubled cross-section."""
    return 2.0 ** _bfk_exponent(fiber)


def consistency_triangle_gap(geom: GlueGeometry, fiber: FiberSpectrum) -> float:
    """Relative gap of predicted(main) / predicted(dn) vs the constant,
    compared in logs so that no side overflows."""
    log_constant = _bfk_exponent(fiber) * math.log(2.0)
    return abs(math.expm1(_log_main_limit(geom, fiber)
                          - _log_dn_limit(geom, fiber) - log_constant))


# ---------------------------------------------------------------------------
# Theorem verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremCheck:
    predicted: float             # inf past the float range
    log_predicted: float
    passed: bool
    deviations: tuple[float, ...]   # per sweep row, nan where the row failed
    tail_bounds: tuple[float, ...]
    rounding_floors: tuple[float, ...]
    failed_rows: tuple[tuple[float, str], ...] = ()   # (R, error) per failed row
    cause: str | None = None     # why the check failed


def _zero_mode_log(geom: GlueGeometry, h0: int, R):
    """h0 log(4 R^2 / (L1 L2)) at R, a stretch or an array of them: what
    the zero modes add, exactly, to a scaled column's log past its limit."""
    return -h0 * (np.log1p(0.5 * geom.a1 / R) + np.log1p(0.5 * geom.a2 / R))


def _tail_bound(geom: GlueGeometry, fiber: FiberSpectrum, R: np.ndarray,
                dn: bool) -> np.ndarray:
    """Bound at each stretch on the nonzero modes' part of a scaled log
    column past its limit: per mode 2 log(1 - e^{-mu C}) - sum_i log(1 -
    e^{-2 mu L_i}) for the ratio, |log(1 - x)| <= x / (1 - x), and
    log1p((t1 - t2)^2 / (4 t1 t2)), t_i = tanh(mu L_i / 2), for det R."""
    L1, L2 = geom.a1 + 2.0 * R, geom.a2 + 2.0 * R
    L = np.minimum(L1, L2)
    if fiber.kind == "circle":
        mu = 2.0 * math.pi / fiber.circumference   # modes k mu, of mult 2

        def series(x):   # sum_k 2 e^{-k mu x}
            return 2.0 * np.exp(-mu * x) / -np.expm1(-mu * x)

        if dn:   # (t1 - t2)^2 / (4 t1 t2) <= e^{-2 mu L} / tanh^2(mu L / 2)
            return series(2.0 * L) / np.tanh(0.5 * mu * L) ** 2
        return ((2.0 * series(L1 + L2) + series(2.0 * L1) + series(2.0 * L2))
                / -np.expm1(-2.0 * mu * L))
    mu, mult = mode_table(fiber)
    mu = mu[:, None]
    if dn:
        t1, t2 = np.tanh(0.5 * mu * L1), np.tanh(0.5 * mu * L2)
        return mult @ ((t1 - t2) ** 2 / (4.0 * t1 * t2))
    return mult @ ((2.0 * np.exp(-mu * (L1 + L2)) + np.exp(-2.0 * mu * L1)
                    + np.exp(-2.0 * mu * L2)) / -np.expm1(-2.0 * mu * L))


def _theorem_check(result: SweepResult, dn: bool, log_predicted: float,
                   tol: float) -> TheoremCheck:
    """Check the limit of log det M - log det M1 - log det M2, or of log
    det R (dn), per row.  dev = column + h log R - log predicted -
    h0 log(4 R^2 / (L1 L2)) is the nonzero modes' rest alone: it must lie
    within the tail bound plus the rounding floor 2 eps (sum mult |per-mode
    log| + sum |total| + |log predicted| + h |log R|) on every row, and some
    row must resolve the limit: bound + floor <= tol, |expm1(dev)| <= tol."""
    grid, h, geom = result.grid, result.h_Y, result.geom_template
    R = np.array(grid.Rs, dtype=float)
    failed, logs = _row_logs(grid)
    signs = np.array((0.0, 0.0, 0.0, 1.0) if dn else (1.0, -1.0, -1.0, 0.0))
    used = np.flatnonzero(signs)
    dev = ((logs @ signs - log_predicted)
           + (h * np.log(R) - _zero_mode_log(geom, h // 2, R)))
    mult, *mode_logs = grid.mode_logs[1:]
    floor = 2.0 * np.finfo(float).eps * (
        mult @ sum(np.abs(mode_logs[i]) for i in used) + abs(log_predicted)
        + np.abs(logs[:, used]).sum(axis=1) + h * np.abs(np.log(R)))
    bound = _tail_bound(geom, result.fiber, R, dn)
    # a failed row's logs, so its deviation, are nan: outside every bound
    failed_rows = tuple(
        (grid.Rs[j], str(grid.errors[j]) if failed[j] else
         f"deviation {dev[j]:.3g} exceeds tail bound {bound[j]:.3g} + "
         f"rounding floor {floor[j]:.3g}")
        for j in np.flatnonzero(~(np.abs(dev) <= bound + floor)).tolist())
    with np.errstate(over="ignore"):   # a row far off its limit: gap inf
        gap = np.abs(np.expm1(dev))
    passed = not failed_rows and bool(np.any((bound + floor <= tol)
                                             & (gap <= tol)))
    cause = (None if passed else "failed rows" if failed_rows
             else "no rows" if not len(R) else "grid not asymptotic: tail "
             f"bound + rounding floor {bound[-1] + floor[-1]:.3g} at R = "
             f"{R[-1]:g}")
    return TheoremCheck(_exp(log_predicted), log_predicted, passed,
                        tuple(dev.tolist()), tuple(bound.tolist()),
                        tuple(floor.tolist()), failed_rows, cause)


def verify_theorem_main(result: SweepResult, tol: float = 1e-4) -> TheoremCheck:
    """R^h det M / (det M1 det M2) against its predicted limit, per row."""
    return _theorem_check(result, False, _log_main_limit(
        result.geom_template, result.fiber), tol)


def verify_theorem_dn(result: SweepResult, tol: float = 1e-4) -> TheoremCheck:
    """R^h det R against its predicted limit, per row."""
    return _theorem_check(result, True, _log_dn_limit(
        result.geom_template, result.fiber), tol)


@dataclass(frozen=True)
class BfkCheck:
    predicted: float             # underflows to 0.0 past 2^-1074
    log_predicted: float
    max_rel_dev: float
    passed: bool
    per_row: tuple[float, ...]   # bfk ratios of the rows that did not fail
    rel_devs: tuple[float, ...]  # per sweep row, nan where the row failed
    failed_rows: tuple[tuple[float, str], ...] = ()   # (R, error) per failed row


def verify_bfk_corollary(result: SweepResult, rel_tol: float = 1e-9) -> BfkCheck:
    """The gluing constant holds per row, with no extrapolation; fails when
    any row failed or when no row is left to check.

    Each row's relative deviation is |expm1(log ratio - log constant)|, inf
    past the float range, the log ratio being log det M - log det M1 -
    log det M2 - log det R, so the check never divides by a constant that
    underflowed.  It reads the grid's log columns and builds no row.
    """
    exponent = _bfk_exponent(result.fiber)
    log_predicted = exponent * math.log(2.0)
    failed, logs = _row_logs(result.grid)
    with np.errstate(over="ignore"):   # logs that cancel past the float range
        log_ratio = logs[:, 0] - logs[:, 1] - logs[:, 2] - logs[:, 3]
    rel_devs = np.abs(_exps(log_ratio - log_predicted, math.expm1))
    ratios = tuple(_exps(log_ratio[~failed]))
    worst = float(rel_devs[~failed].max(initial=0.0))
    failed_rows = tuple((result.grid.Rs[j], str(result.grid.errors[j]))
                        for j in np.flatnonzero(failed).tolist())
    passed = bool(ratios) and not failed_rows and worst <= rel_tol
    return BfkCheck(2.0 ** exponent, log_predicted, worst, passed, ratios,
                    tuple(rel_devs.tolist()), failed_rows)


# ---------------------------------------------------------------------------
# Heat-trace cancellation
# ---------------------------------------------------------------------------

def _modes_through(fiber: FiberSpectrum, mu_max: float) -> int | None:
    """Mode-table length holding a circle fiber's modes up to mu_max and the
    first one past it; None, the whole table, for a finite fiber."""
    return (None if fiber.kind == "finite"
            else int(mu_max * fiber.circumference / (2.0 * math.pi)) + 2)


# log-weights below this are dropped from the image-term deviation
_LOG_CUT = -1500.0


def _image_pref(t: float) -> float:
    """log(2 / sqrt(4 pi t)), the prefactor of every image term."""
    return math.log(2.0) - 0.5 * math.log(4.0 * math.pi * t)


class _TwistGroups:
    """The fiber modes by twist: the zero modes' distinct holonomies with
    their counts, and the nonzero modes as one untwisted tower.

    Each per-mode 1-D heat trace factors exactly as K(theta, mu, t) =
    e^{-t mu^2} K(theta, 0, t), in the direct and in the image branch, so a
    mode sum is one mu = 0 trace per distinct twist times the Gaussian
    weight W_theta(t) = sum mult e^{-t mu^2} over that twist's modes: the
    zero-mode count for a holonomy, and the tower's weight for twist 0.
    The tower is built once for the smallest t a caller asks for: a circle
    fiber's runs through the last mode either cut keeps there, and both
    cuts keep fewer modes at larger t.  Only the stretch-free parts of the
    geometry are read, so one table serves every stretch.
    """

    def __init__(self, geom: GlueGeometry, fiber: FiberSpectrum, t_min: float):
        if t_min <= 0:
            raise ValueError("t must be positive")
        # circle modes (mult 2) past this frequency fall below both cuts
        mu_max = math.sqrt(max(_EXP_FLOOR, -_LOG_CUT + math.log(2.0)
                               + _image_pref(t_min)) / t_min)
        mu, mult = mode_table(fiber, _modes_through(fiber, mu_max))
        h0 = len(geom.holonomy)
        self.t_min, self.fiber = t_min, fiber
        self.holonomies = sorted(Counter(geom.holonomy).items())
        # the tower in spectral order, so mu^2 ascends
        self.mu2, self.tower_mult = mu * mu, mult.astype(float)
        self.log_mult = np.log(self.tower_mult)
        self.max_log_mult = float(self.log_mult.max(initial=0.0))
        # zero modes first, then the tower, for half_fiber_trace
        self.mu = np.concatenate([np.zeros(h0), mu])
        self.mult = np.concatenate([np.ones(h0), mult])

    def _check(self, t: float) -> None:
        if t < self.t_min:
            raise ValueError(f"t = {t!r} is below the table's t_min = "
                             f"{self.t_min!r}")

    def relative_trace(self, geom: GlueGeometry, t: np.ndarray) -> np.ndarray:
        """sum over twists of W_theta(t) (K_C(theta) - K_L1 - K_L2) at every
        t of an array, on the mu = 0 array kernels, twist 0 first; the tower
        is cut once, at t mu^2 <= 745 for the array's smallest t."""
        t = np.asarray(t, dtype=float)
        t_lo = float(t.min())
        self._check(t_lo)
        k_1, k_2 = (_heat_trace_dirichlet_mu0(L, t) for L in (geom.L1, geom.L2))
        n = int(np.searchsorted(self.mu2, _EXP_FLOOR / t_lo, side="right"))
        tower = _exp_neg(t[:, None] * self.mu2[:n]) @ self.tower_mult[:n]
        total = np.zeros_like(t)
        for theta, weight in ([(0.0, tower)] if n else []) + self.holonomies:
            total += weight * (_heat_trace_circle_mu0(geom.C, theta, t)
                               - k_1 - k_2)
        return total

    def half_fiber_trace(self, t: np.ndarray) -> np.ndarray:
        """Half the doubled cross-section trace at every t of an array; a
        finite fiber's is the table's sum mult e^{-t mu^2}, zero modes
        included."""
        t = np.asarray(t, dtype=float)
        if self.fiber.kind != "finite":
            return _heat_trace_circle_mu0(self.fiber.circumference, 0.0, t)
        # (t mu) mu rounds as oracles.half_fiber_heat_trace does; t mu^2 can
        # differ by |t mu^2| ulps
        return _exp_neg((t[:, None] * self.mu) * self.mu) @ self.mult

    def log_abs_deviation(self, geom: GlueGeometry,
                          t: float) -> tuple[float, float]:
        """(log|deviation|, sign): image-term form of relative trace minus
        the half cross-section trace, safe far below float underflow.

        Per twist the log-weight base = log(2 W_theta(t) / sqrt(4 pi t)); the
        tower's is a log-sum-exp taken in mode order up to the first mode
        whose own base falls below -1500.  The image orders m then run once
        per twist, up to 64, until every image exponent exceeds 1540 - base.
        All entries go into one signed fsum; an exact zero reads as 1e-18 of
        the largest entry.
        """
        self._check(t)
        L1, L2, C = geom.L1, geom.L2, geom.C
        pref = _image_pref(t)
        # tower modes before the first whose base is below the cut; every
        # mode from `hi` on is below it by at least 1
        hi = int(np.searchsorted(
            self.mu2, (pref + self.max_log_mult - _LOG_CUT + 1.0) / t,
            side="right"))
        logs = self.log_mult[:hi] - t * self.mu2[:hi]
        below = logs + pref < _LOG_CUT
        logs = logs[:int(np.argmax(below))] if below.any() else logs
        bases = [(th, pref + math.log(k)) for th, k in self.holonomies]
        if logs.size:
            top = float(logs.max())
            bases.insert(0, (0.0, pref + top
                             + math.log(float(np.exp(logs - top).sum()))))
        entries: list[tuple[float, float]] = []  # (log|term|, sign)
        for theta, base in bases:
            for m in range(1, 65):
                ex_c = m * m * C * C / (4.0 * t)
                ex_1 = m * m * L1 * L1 / t
                ex_2 = m * m * L2 * L2 / t
                if min(ex_c, ex_1, ex_2) > -_LOG_CUT - base + 40.0 and m > 1:
                    break
                cosv = math.cos(m * theta)
                if cosv != 0.0:
                    entries.append((base + math.log(C * abs(cosv)) - ex_c,
                                    math.copysign(1.0, cosv)))
                entries.append((base + math.log(L1) - ex_1, -1.0))
                entries.append((base + math.log(L2) - ex_2, -1.0))
        if not entries:
            return -math.inf, 1.0
        top = max(lg for lg, _ in entries)
        acc = math.fsum(sgn * math.exp(lg - top) for lg, sgn in entries)
        if acc == 0.0:
            return top + math.log(1e-18), 1.0
        return top + math.log(abs(acc)), math.copysign(1.0, acc)


@dataclass(frozen=True)
class LemmaCancellationReport:
    c1_hat: float
    c2_hat: float
    rows: tuple[tuple[float, float, float], ...]  # (R, t, log|dev|)
    max_violation_factor: float
    float_crosscheck_gap: float

    def ok(self, c2_min: float = 0.5, slack: float = 2.0) -> bool:
        return self.c2_hat >= c2_min and self.max_violation_factor <= slack


def verify_lemma_cancellation(geom_template: GlueGeometry,
                              fiber: FiberSpectrum,
                              Rs=(4.0, 6.0, 8.0),
                              ts=(0.25, 1.0, 4.0)) -> LemmaCancellationReport:
    """Bound |relative trace - half cross-section trace| by c1 e^{-c2 R^2/t}.

    The deviation is evaluated in image-term (log) form so the grid can
    reach far below the float floor; where the magnitude is measurable the
    direct float subtraction is cross-checked against it.  Constants are
    fitted at the largest stretch and the bound is then required on the
    rest of the grid within a factor of two.
    """
    Rs = sorted(float(R) for R in Rs)
    groups = _TwistGroups(geom_template, fiber, min(list(ts) + Rs))
    rows = []
    for R in Rs:
        geom = geom_template.with_R(R)
        rows += [(R, float(t), groups.log_abs_deviation(geom, t)[0])
                 for t in [*ts, R]]
    r_max = Rs[-1]
    xs = np.array([R * R / t for R, t, lg in rows if R == r_max])
    ys = np.array([lg for R, t, lg in rows if R == r_max])
    slope, intercept = np.polyfit(xs, ys, 1)
    c2_hat = max(-float(slope), 0.0)
    c1_hat = math.exp(min(float(intercept), 700.0))
    worst = 0.0
    for R, t, lg in rows:
        log_bound = math.log(c1_hat) - c2_hat * R * R / t
        worst = max(worst, math.exp(min(lg - log_bound, 700.0)))

    # float-level cross-check where the subtraction is meaningful, each
    # stretch's t values in one array call
    gap = 0.0
    for R in Rs:
        near = [(t, lg) for r, t, lg in rows
                if r == R and lg > math.log(1e-11)]
        if near:
            ts, lgs = map(np.array, zip(*near))
            geom = geom_template.with_R(R)
            direct = np.abs(groups.relative_trace(geom, ts)
                            - groups.half_fiber_trace(ts))
            gap = max(gap, float(np.max(np.abs(direct - np.exp(lgs))
                                        / np.maximum(direct, 1e-300))))
    return LemmaCancellationReport(
        c1_hat=c1_hat, c2_hat=c2_hat, rows=tuple(rows),
        max_violation_factor=worst, float_crosscheck_gap=gap,
    )


# ---------------------------------------------------------------------------
# Window numerics: Gauss-Kronrod panels and the exponential integral
# ---------------------------------------------------------------------------

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1]: the nodes, their
# Kronrod weights, and the 10-point Gauss weights of the odd-indexed nodes
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK21_NODES = np.concatenate([_GK21_NODES, -_GK21_NODES[-2::-1]])
_GK21_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK21_KRONROD = np.concatenate([_GK21_KRONROD, _GK21_KRONROD[-2::-1]])
_GK21_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK21_GAUSS = np.concatenate([_GK21_GAUSS, _GK21_GAUSS[::-1]])


def _gk21_panels(f, lo: np.ndarray, hi: np.ndarray):
    """(integrals, error estimates) of f over the panels [lo_i, hi_i], with
    every node of every panel in one call of f on a flat array.

    The error is QUADPACK's: the Kronrod-Gauss gap, scaled by the integral
    of |f - mean| as (200 gap / that)^1.5 where smaller, and at least the
    rounding floor 50 eps times the integral of |f|.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * _GK21_NODES).ravel()).reshape(len(c), 21)
    s_k = fv @ _GK21_KRONROD
    gap = np.abs((s_k - fv[:, 1::2] @ _GK21_GAUSS) * h)
    dabs = np.abs(np.abs(fv - 0.5 * s_k[:, None]) @ _GK21_KRONROD * h)
    ratio = np.divide(200.0 * gap, dabs, out=np.ones_like(gap), where=dabs > 0)
    err = np.where((dabs > 0) & (gap > 0),
                   dabs * np.minimum(1.0, ratio ** 1.5), gap)
    floor = 50.0 * np.finfo(float).eps * np.abs(h) * (np.abs(fv) @ _GK21_KRONROD)
    return h * s_k, np.maximum(err, floor)


_MAX_PANELS = 400


def _integrate(f, a: float, b: float, epsabs: float = 1e-11,
               epsrel: float = 1e-10) -> tuple[float, float]:
    """(integral of f over [a, b], error estimate) by globally adaptive
    21-point Gauss-Kronrod with at most 400 panels; f maps an array of
    points to an array of values.

    Each round bisects the panels with the largest errors, as many as it
    takes to leave at most half the tolerance max(epsabs, epsrel |I|) on
    the panels kept whole, and as many as the cap allows; the new panels'
    nodes go to f in one call.  The loop ends when the summed error meets
    the tolerance or the cap is reached.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    val, err = _gk21_panels(f, lo, hi)
    while True:
        total, err_sum = math.fsum(val.tolist()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        room = _MAX_PANELS - len(lo)
        if err_sum <= tol or room == 0:
            return total, err_sum
        order = np.argsort(-err, kind="stable")
        # error left on the panels from each position of `order` on
        left = np.cumsum(err[order][::-1])[::-1]
        k = min(int(np.count_nonzero(left > 0.5 * tol)), room)
        split, keep = order[:k], np.sort(order[k:])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk21_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


_E1_SERIES_TERMS = 20   # x^k / (k k!) < 1e-19 past k = 20 for x <= 1


def _exp1(x: np.ndarray) -> np.ndarray:
    """E1(x) = int_x^inf e^{-s} / s ds at every x > 0 of an array.

    Up to x = 1 the power series -gamma - log x + sum_k (-1)^{k+1} x^k /
    (k k!), smallest term first; above it the continued fraction
    e^{-x} / (x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))), evaluated bottom-up
    from depth 20 + 80 / x; 0 past x = 745, where e^{-x} underflows.
    Within 5e-16 relative of mpmath on (0, 700].
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    low = x <= 1.0
    xs = x[low]
    if xs.size:
        terms = [xs]
        for k in range(2, _E1_SERIES_TERMS + 1):
            terms.append(terms[-1] * (-xs) * (k - 1) / (k * k))
        series = np.zeros_like(xs)
        for term in reversed(terms):
            series += term
        out[low] = -EULER_GAMMA - np.log(xs) + series
    high = ~low & (x <= _EXP_FLOOR)
    xs = x[high]
    if xs.size:
        tail = np.zeros_like(xs)
        for k in range(20 + int(80.0 / xs.min()), 0, -1):
            tail = k / (1.0 + k / (xs + tail))
        out[high] = np.exp(-xs) / (xs + tail)
    return out


# ---------------------------------------------------------------------------
# Small-time / large-time decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    """Both time windows of the relative zeta derivative at one stretch.

    The raw window values carry log R counterterms whose epsilon pieces
    cancel in the sum; the individual window gaps are recorded for
    inspection, only the epsilon-independent sum is asserted.
    """

    R: float
    epsilon: float
    T: float
    small_raw: float
    small_counterterm: float
    small_limit_value: float
    large_raw: float
    large_counterterm: float
    large_limit_value: float
    sum_quadrature: float        # (zeta_small)'(0) + (zeta_large)'(0)
    log_ratio_closed: float
    # h log R - log(predicted limit) - h0 log(4 R^2 / (L1 L2))
    asymptote: float
    small_quad_error: float      # _integrate's error estimates of both windows
    large_quad_error: float

    @property
    def small_gap(self) -> float:
        return abs((self.small_raw - self.small_counterterm)
                   - self.small_limit_value)

    @property
    def large_gap(self) -> float:
        return abs((self.large_raw + self.large_counterterm)
                   - self.large_limit_value)

    @property
    def sum_vs_closed_gap(self) -> float:
        return abs(self.sum_quadrature + self.log_ratio_closed)

    @property
    def asymptote_gap(self) -> float:
        return abs(self.sum_quadrature - self.asymptote)


def verify_smalltime_largetime_split(geom: GlueGeometry, fiber: FiberSpectrum,
                                     epsilon: float = 0.25) -> SplitReport:
    """Reproduce the relative zeta derivative from the two time windows.

    Small window: half cross-section derivative plus the counterterm
    h0 (gamma + log T); large window: the model-operator combination with
    counterterm h0 (gamma - eps log R).  Their sum is compared against the
    closed-form log ratio, which it must reproduce up to quadrature error.
    """
    if not math.isfinite(epsilon):  # a NaN window edge has no integral
        raise ValueError("epsilon must be finite")
    condition_A_check(geom, fiber).raise_if_failed()
    R, h0 = geom.R, fiber.h0
    T = R ** (2.0 - epsilon)

    z_fiber = fiber_zeta_data(fiber)
    # truncation of the cross-section integral past T
    # a circle fiber's terms run through the first below 1e-18, which
    # comes before mu^2 T = 50
    mu, mult = mode_table(fiber, _modes_through(fiber, math.sqrt(50.0 / T)))
    tail_y = mult * _exp1(mu * mu * T)
    if fiber.kind == "circle":
        tail_y = tail_y[:int(np.argmax(tail_y < 1e-18)) + 1]
    tail_y_val = math.fsum(tail_y.tolist())

    t_lo = min(min(geom.L1 ** 2, geom.L2 ** 2, geom.C ** 2 / 4.0) / 69.0,
               0.5 * T)
    groups = _TwistGroups(geom, fiber, t_lo)

    def dev(u: np.ndarray) -> np.ndarray:
        t = np.exp(u)
        return groups.relative_trace(geom, t) - groups.half_fiber_trace(t)

    i_dev, small_quad_error = _integrate(dev, math.log(t_lo), math.log(T))

    small_counterterm = h0 * (EULER_GAMMA + math.log(T))
    small_raw = (small_counterterm + z_fiber.zeta_prime_at_zero
                 - tail_y_val + i_dev)
    # large window: integrate the relative trace from T out to decay; the
    # slowest rates are the interval ground states, the zero-mode twists
    # and the lowest nonzero fiber frequency (the twist-0 group)
    lam_min_sq = min([(math.pi / geom.L1) ** 2, (math.pi / geom.L2) ** 2,
                      fiber.min_nonzero ** 2]
                     + [(min(th, 2 * math.pi - th) / geom.C) ** 2
                        for th in geom.holonomy])
    large_raw, large_quad_error = _integrate(
        lambda u: groups.relative_trace(geom, np.exp(u)),
        math.log(T), math.log(80.0 / lam_min_sq))
    large_counterterm = h0 * (EULER_GAMMA - epsilon * math.log(R))
    # model value of the large-time limit
    log_quarter = model_logdet([a for theta in geom.holonomy
                                for a in (theta, 2.0 * math.pi - theta)])
    log_cbar_star = 2.0 * (model_logdet_star([0.0, math.pi] * h0)[0])
    large_limit = 0.5 * (-log_quarter + log_cbar_star)

    return SplitReport(
        R=R, epsilon=epsilon, T=T,
        small_raw=small_raw, small_counterterm=small_counterterm,
        small_limit_value=z_fiber.zeta_prime_at_zero,
        large_raw=large_raw, large_counterterm=large_counterterm,
        large_limit_value=large_limit,
        sum_quadrature=small_raw + large_raw,
        log_ratio_closed=logdet_closed(geom, fiber).log_ratio,
        asymptote=(2 * h0 * math.log(R) - _log_main_limit(geom, fiber)
                   - float(_zero_mode_log(geom, h0, R))),
        small_quad_error=small_quad_error, large_quad_error=large_quad_error,
    )
