"""Scattering data of the half-infinite extensions and the model operators.

Each cut piece, extended by half-infinite cylinders, scatters the
zero-mode plane waves without reflection: per transverse zero mode the
2x2 matrix is an off-diagonal (full-transmission) unitary whose phase
grows linearly with the interior length.  The composite of the two pieces
is exactly exp(i lambda (a1 + a2)) diag(e^{i theta}, e^{-i theta}) per
zero mode, so det((Id - U)/2) at lambda = 0 is the product of
sin^2(theta_j / 2); the predicted limits use that closed form.

The rescaled small eigenvalues of the glued operator and of the pieces
are governed by explicit model operators on the unit circle, spectrum
(pi k + alpha_j/2)^2; this module predicts them, matches them bijectively
against the exact towers in the shrinking window lambda <= R^{-kappa},
and verifies the determinant identities the models satisfy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .glue import ConditionAViolation, GlueGeometry, condition_A_check
from .spectral_core import (
    ArithmeticFamily,
    EigenvalueSeq,
    FiberSpectrum,
    ZetaData,
    zeta_from_sequence,
)

__all__ = [
    "SValueReport",
    "scattering_matrix",
    "model_positive_roots",
    "model_logdet",
    "model_logdet_star",
    "model_zeta_single_phase",
    "model_zeta_quarter_c12",
    "model_zeta_cbar_star",
    "model_identities_over",
    "svalues_exact",
    "svalue_match",
    "svalue_report",
    "svalue_rate_ratios",
    "dn_zero_mode_asymptotics",
    "det_L_identity",
]

TWO_PI = 2.0 * math.pi
# cap on the roots svalues_exact enumerates for one operator at one stretch;
# its window holds about h0 R^(-kappa) length / pi of them
MAX_WINDOW_ROOTS = 100_000
# cutoff of the model towers' truncated zeta: they have mu = 0, so their
# lgamma tail is exact at any cutoff, and a larger one only adds rounding
_MODEL_CUTOFF = 100


def _piece_matrix(piece: int, lam: float, geom: GlueGeometry) -> np.ndarray:
    """exp(i lam a_i) times the block-diagonal gauge-twisted swap: per zero
    mode j the block [[0, conj(w_j)], [w_j, 0]], with w = 1 on piece 1 and
    e^{i theta_j} on piece 2 (the holonomy sits entirely on piece 2)."""
    if piece not in (1, 2):
        raise ValueError("piece must be 1 or 2")
    a = geom.a1 if piece == 1 else geom.a2
    theta = np.array(geom.holonomy)
    w = np.exp(1j * theta) if piece == 2 else np.ones(len(theta), dtype=complex)
    j = 2 * np.arange(len(w))
    out = np.zeros((2 * len(w), 2 * len(w)), dtype=complex)
    out[j, j + 1] = w.conj()
    out[j + 1, j] = w
    return cmath.exp(1j * lam * a) * out


def scattering_matrix(piece: int, lam: float, geom: GlueGeometry,
                      fiber: FiberSpectrum) -> np.ndarray:
    """Scattering matrix of one piece at momentum lam (zero-mode window).

    Derived by solving the free longitudinal equation across the interior:
    no reflection, transmission phase exp(i lam a_i) times the gauge.
    """
    if abs(lam) >= fiber.min_nonzero:
        raise ValueError("not in zero-mode window")
    if len(geom.holonomy) != fiber.h0:
        raise ValueError("holonomy/fiber mismatch")
    return _piece_matrix(piece, lam, geom)


# ---------------------------------------------------------------------------
# Model operators on the unit circle
# ---------------------------------------------------------------------------

def _canonical_phase(alpha: float) -> float:
    a = math.fmod(alpha, TWO_PI)
    if a < 0:
        a += TWO_PI
    return a


def model_positive_roots(alphas, root_max: float) -> list[float]:
    """Positive square roots |pi k + alpha/2| <= root_max, all branches."""
    if not math.isfinite(root_max):  # the scan would never stop
        raise ValueError("root_max must be finite")
    roots = []
    for alpha in alphas:
        k = 0
        while True:
            hit = False
            for sgn in ((1,) if k == 0 else (1, -1)):
                r = abs(math.pi * k * sgn + 0.5 * alpha)
                if 0.0 < r <= root_max:
                    roots.append(r)
                    hit = True
            if not hit and math.pi * k - abs(0.5 * alpha) > root_max:
                break
            k += 1
    roots.sort()
    return roots


def model_logdet(alphas) -> float:
    """log det of the model operator: sum of log(4 sin^2(alpha/2)).

    Only valid off the kernel locus; a vanishing phase routes to the
    starred path.
    """
    total, kernel = model_logdet_star(alphas)
    if kernel:
        raise ValueError("phase 0 mod 2pi: use model_logdet_star")
    return total


def model_logdet_star(alphas) -> tuple[float, int]:
    """Kernel-excluded log det and kernel dimension of the model operator."""
    total = 0.0
    kernel = 0
    for alpha in alphas:
        a = _canonical_phase(alpha)
        if a == 0.0:
            total += math.log(4.0)  # continued value of the kernel-free tower
            kernel += 1
        else:
            total += math.log(4.0) + 2.0 * math.log(abs(math.sin(0.5 * a)))
    return total, kernel


def _model_families(alpha: float, quarter: bool) -> tuple[ArithmeticFamily, ...]:
    """Eigenvalue families of the (possibly quarter-scaled) model tower."""
    a = _canonical_phase(alpha)
    c = math.pi / 2.0 if quarter else math.pi
    d = a / 4.0 if quarter else a / 2.0
    if a == 0.0:
        return (ArithmeticFamily(c, 0.0, 1, mult=2),)
    return (ArithmeticFamily(c, d, 0), ArithmeticFamily(c, -d, 1))


def model_zeta_single_phase(alpha: float) -> ZetaData:
    """Truncated-zeta numerics for a single-phase model tower."""
    kernel = 1 if _canonical_phase(alpha) == 0.0 else 0
    return zeta_from_sequence(EigenvalueSeq(
        _model_families(alpha, quarter=False), kernel_dim=kernel),
        cutoff=_MODEL_CUTOFF)


def model_zeta_quarter_c12(geom: GlueGeometry) -> ZetaData:
    """Truncated-zeta numerics for the quarter-scaled composite model."""
    fams: list[ArithmeticFamily] = []
    for theta in geom.holonomy:
        for alpha in (theta, TWO_PI - theta):
            fams.extend(_model_families(alpha, quarter=True))
    return zeta_from_sequence(EigenvalueSeq(tuple(fams)),
                              cutoff=_MODEL_CUTOFF)


def model_zeta_cbar_star(geom: GlueGeometry) -> ZetaData:
    """Truncated-zeta numerics for one reflected piece model (kernel out)."""
    fams: list[ArithmeticFamily] = []
    kernel = 0
    for _ in geom.holonomy:
        fams.extend(_model_families(0.0, quarter=False))
        kernel += 1
        fams.extend(_model_families(math.pi, quarter=False))
    return zeta_from_sequence(EigenvalueSeq(tuple(fams), kernel_dim=kernel),
                              cutoff=_MODEL_CUTOFF)


@dataclass(frozen=True)
class ModelIdentitiesReport:
    h_Y: int
    log_det_quarter_c12: float
    log_rhs_quarter: float
    log_det_cbar_star: float
    log_rhs_cbar: float
    numeric_gap_quarter: float
    numeric_gap_cbar: float

    @property
    def gap_quarter(self) -> float:
        return abs(self.log_det_quarter_c12 - self.log_rhs_quarter)

    @property
    def gap_cbar(self) -> float:
        return abs(self.log_det_cbar_star - self.log_rhs_cbar)


def model_identities_over(geoms: Sequence[GlueGeometry], fiber: FiberSpectrum
                          ) -> tuple[ModelIdentitiesReport, ...]:
    """Verify the two model determinant identities at each geometry in
    geoms, exactly and numerically.

    det of the quarter-scaled composite model equals 2^{2 h} det((Id-U)/2)^2
    where U is the composite matrix at 0, here the product of the two piece
    matrices, so the closed form of the model side is checked against it;
    the kernel-excluded det of each reflected piece model equals 2^{2 h}.
    The reflected piece models depend on the number of zero modes only, so
    their side of the identities, truncated-zeta oracle included, is
    evaluated once for all geometries.
    """
    for geom in geoms:
        condition_A_check(geom, fiber).raise_if_failed()
    if not geoms:
        return ()
    h_Y = 2 * fiber.h0
    log_cbar, kernel = model_logdet_star([0.0, math.pi] * fiber.h0)
    log_rhs_cbar = 2.0 * h_Y * math.log(2.0)
    assert kernel == fiber.h0
    numeric_gap_cbar = abs(model_zeta_cbar_star(geoms[0]).log_det - log_cbar)

    reports = []
    for geom in geoms:
        u0 = _piece_matrix(1, 0.0, geom) @ _piece_matrix(2, 0.0, geom)
        d_half = np.linalg.det((np.eye(h_Y) - u0) / 2.0)
        d_half = float(d_half.real)

        alphas = []
        for theta in geom.holonomy:
            alphas.extend([theta, TWO_PI - theta])
        # quarter scaling is determinant-neutral: the tower has zeta(0) = 0
        log_quarter = model_logdet(alphas)
        log_rhs_quarter = 2.0 * h_Y * math.log(2.0) + 2.0 * math.log(abs(d_half))

        zq = model_zeta_quarter_c12(geom)
        reports.append(ModelIdentitiesReport(
            h_Y=h_Y,
            log_det_quarter_c12=log_quarter,
            log_rhs_quarter=log_rhs_quarter,
            log_det_cbar_star=log_cbar,
            log_rhs_cbar=log_rhs_cbar,
            numeric_gap_quarter=abs(zq.log_det - log_quarter),
            numeric_gap_cbar=numeric_gap_cbar,
        ))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Small-eigenvalue windows and matching
# ---------------------------------------------------------------------------

def svalues_exact(which: str, geom: GlueGeometry, fiber: FiberSpectrum,
                  kappa: float = 0.75) -> list[tuple[float, int]]:
    """Exact small eigenvalue roots lambda <= R^{-kappa}, tagged by zero mode.

    which: 'M' for the glued circle, 'M1'/'M2' for the cut pieces.  The
    window stays below the first transverse threshold, so only zero modes
    contribute; a window past it, or one holding more than
    MAX_WINDOW_ROOTS roots, raises ValueError.
    """
    condition_A_check(geom, fiber).raise_if_failed()
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    window = geom.R ** (-kappa)
    if window >= fiber.min_nonzero:
        raise ValueError("window reaches past the first transverse threshold")
    lengths = {"M": geom.C, "M1": geom.L1, "M2": geom.L2}
    if which not in lengths:
        raise ValueError("which must be 'M', 'M1' or 'M2'")
    # the roots lie pi / length apart per zero mode: count before enumerating
    count = fiber.h0 * window * lengths[which] / math.pi
    if count > MAX_WINDOW_ROOTS:
        raise ValueError(f"window holds about {count:.3g} roots, "
                         f"more than {MAX_WINDOW_ROOTS}")
    out: list[tuple[float, int]] = []
    if which in ("M1", "M2"):
        L = lengths[which]
        for j in range(fiber.h0):
            n = 1
            while math.pi * n / L <= window:
                out.append((math.pi * n / L, j))
                n += 1
    else:
        C = geom.C
        for j, theta in enumerate(geom.holonomy):
            n = 0
            while (TWO_PI * n + theta) / C <= window:
                out.append(((TWO_PI * n + theta) / C, j))
                n += 1
            n = 1
            while (TWO_PI * n - theta) / C <= window:
                out.append(((TWO_PI * n - theta) / C, j))
                n += 1
    out.sort()
    return out


@dataclass(frozen=True)
class SValueReport:
    """Matched small eigenvalues against the model spectrum.

    pairs hold (exact lambda, scaled exact value, model value, residual);
    the matching is a sorted bijection inside the window, and
    cardinality_ok is false on a count mismatch beyond the allowed window
    boundary shift.
    """

    kappa: float
    R: float
    pairs: tuple[tuple[float, float, float, float], ...]
    cardinality_ok: bool

    @property
    def bijective(self) -> bool:
        return self.cardinality_ok

    @property
    def worst_residual(self) -> float:
        return max((p[3] for p in self.pairs), default=0.0)


def svalue_match(exact: list[tuple[float, int]], model_roots: list[float],
                 R: float, kappa: float = 0.75,
                 shift: float = math.pi / 2.0) -> SValueReport:
    """Greedy nearest-neighbor (order) bijection in scaled coordinates.

    Scaled coordinate is (R lambda)^2; model_roots are the positive roots
    of the matching model tower (reflected-piece model for the pieces,
    quarter-scaled composite for the glued circle).  The window edge is
    R1^{1-kappa} with the boundary shift |R1^{1-kappa} - R^{1-kappa}|
    bounded by `shift`.
    """
    scaled = [(lam, (R * lam) ** 2) for lam, _ in exact]
    n = len(scaled)
    lo = max(0.0, R ** (1.0 - kappa) - shift)
    hi = R ** (1.0 - kappa) + shift
    cardinality_ok = True
    if n > len(model_roots):
        cardinality_ok = False
        chosen = model_roots
    else:
        chosen = model_roots[:n]
        if chosen and chosen[-1] > hi:
            cardinality_ok = False
        if n < len(model_roots) and model_roots[n] <= lo:
            cardinality_ok = False
    pairs = tuple((lam, s, root * root, abs(s - root * root))
                  for (lam, s), root in zip(scaled, chosen))
    return SValueReport(kappa=kappa, R=R, pairs=pairs,
                        cardinality_ok=cardinality_ok)


def svalue_report(which: str, geom: GlueGeometry, fiber: FiberSpectrum,
                  kappa: float = 0.75) -> SValueReport:
    """Window, model spectrum and matching for one operator in one call."""
    exact = svalues_exact(which, geom, fiber, kappa)
    R = geom.R
    if which == "M":
        alphas = []
        for theta in geom.holonomy:
            alphas.extend([theta, TWO_PI - theta])
        root_max = 2.0 * (R ** (1.0 - kappa) + math.pi)
        roots = sorted(r / 2.0 for r in model_positive_roots(alphas, root_max))
        # the two phase branches enumerate each root value twice; the
        # quantization pairs each exact eigenvalue with one distinct value
        roots = roots[::2]
        # quarter-scaled composite model; window edge 2 R1^{1-kappa} on the
        # unscaled roots means R1^{1-kappa} on these
        return svalue_match(exact, roots, R, kappa, shift=math.pi / 4.0)
    alphas = []
    for _ in range(fiber.h0):
        alphas.extend([0.0, math.pi])
    root_max = R ** (1.0 - kappa) + math.pi
    roots = model_positive_roots(alphas, root_max)
    # reflected-piece model towers double the physical count; halve them
    roots = roots[::2]
    return svalue_match(exact, roots, R, kappa, shift=math.pi / 2.0)


def svalue_rate_ratios(rep_small: SValueReport, rep_large: SValueReport) -> list[float]:
    """Residual ratios over model eigenvalues present in both windows."""
    common = {}
    for lam, s, m, r in rep_small.pairs:
        common.setdefault(round(m, 9), [None, None])[0] = r
    for lam, s, m, r in rep_large.pairs:
        key = round(m, 9)
        if key in common:
            common[key][1] = r
    return [a / b for a, b in common.values()
            if a is not None and b is not None and b > 0.0]


# ---------------------------------------------------------------------------
# Boundary-response asymptotics on the zero-mode space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DNModeAsymptotics:
    piece: int
    mode: int
    value_minus: float          # pairing on the -1 eigenvector
    value_plus: float           # pairing on the +1 eigenvector
    alpha_derived: float        # from the family derivative at 0
    model_matched: float        # (1/R)(1 - alpha/2R)^{-1} with matched sign
    model_mismatched: float     # same with the opposite sign
    matched_sign: int


@dataclass(frozen=True)
class DNAsymptoticsReport:
    entries: tuple[DNModeAsymptotics, ...]


def dn_zero_mode_asymptotics(geom: GlueGeometry,
                             fiber: FiberSpectrum) -> DNAsymptoticsReport:
    """Zero-mode pairings of each piece response against the scattering
    prediction (1/R)(1 - alpha/2R)^{-1}.

    alpha is derived from the module's own piece matrices, not hard-coded:
    the family exp(i lam a) C(0) has derivative i a C(0) at 0, so on an
    eigenvector of C(0) with eigenvalue e it acts as i alpha with alpha = a e,
    -a on the -1 vector.  Both sign choices are reported and exactly one
    matches.
    """
    condition_A_check(geom, fiber).raise_if_failed()
    R = geom.R
    entries = []
    for piece in (1, 2):
        c0 = _piece_matrix(piece, 0.0, geom)
        a = geom.a1 if piece == 1 else geom.a2
        L = geom.L1 if piece == 1 else geom.L2
        for j in range(len(geom.holonomy)):
            b0 = c0[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
            # the mu = 0 DN block of the piece, boundary phase w = b0[1, 0]
            w, d = complex(b0[1, 0]), 1.0 / L
            n_block = np.array([[d, -d * w.conjugate()], [-d * w, d]],
                               dtype=complex)
            w0, v0 = np.linalg.eigh(b0)
            idx_minus = int(np.argmin(w0))
            idx_plus = int(np.argmax(w0))
            phi_m, phi_p = v0[:, idx_minus], v0[:, idx_plus]
            val_m = float((phi_m.conj() @ n_block @ phi_m).real)
            val_p = float((phi_p.conj() @ n_block @ phi_p).real)
            alpha = a * float(w0[idx_minus])

            def model(al: float) -> float:
                return (1.0 / R) / (1.0 - al / (2.0 * R))

            m_a, m_b = model(alpha), model(-alpha)
            if abs(val_m - m_a) <= abs(val_m - m_b):
                matched, mismatched, sign = m_a, m_b, +1
            else:
                matched, mismatched, sign = m_b, m_a, -1
            entries.append(DNModeAsymptotics(
                piece=piece, mode=j, value_minus=val_m, value_plus=val_p,
                alpha_derived=alpha,
                model_matched=matched, model_mismatched=mismatched,
                matched_sign=sign,
            ))
    return DNAsymptoticsReport(tuple(entries))


@dataclass(frozen=True)
class DetLReport:
    det_L: float
    rhs: float
    gap: float


def det_L_identity(geom: GlueGeometry) -> DetLReport:
    """det of (1/R)((Id-C1)/2 + (Id-C2)/2) against R^{-h} det((Id-C12)/2).

    Requires the two fixed spaces to intersect trivially; a zero holonomy
    phase names the offending common fixed vector.
    """
    for j, theta in enumerate(geom.holonomy):
        if theta == 0.0:
            raise ConditionAViolation(
                f"common fixed vector (1, 1)/sqrt(2) on zero mode {j}"
            )
    h_Y = 2 * len(geom.holonomy)
    c1, c2 = _piece_matrix(1, 0.0, geom), _piece_matrix(2, 0.0, geom)
    eye = np.eye(h_Y)
    l_op = ((eye - c1) / 2.0 + (eye - c2) / 2.0) / geom.R
    det_l = float(np.linalg.det(l_op).real)
    rhs = geom.R ** (-h_Y) * float(np.linalg.det((eye - c1 @ c2) / 2.0).real)
    return DetLReport(det_L=det_l, rhs=rhs, gap=abs(det_l - rhs))

