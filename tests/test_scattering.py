import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from zetaglue.glue import ConditionAViolation, GlueGeometry
from zetaglue.scattering import (
    det_L_identity,
    dn_zero_mode_asymptotics,
    model_identities_over,
    model_logdet,
    model_logdet_star,
    model_positive_roots,
    model_zeta_single_phase,
    scattering_matrix,
    svalue_rate_ratios,
    svalue_report,
    svalues_exact,
)
from zetaglue.spectral_core import FiberSpectrum

LAM_GRID = [0.0, 0.05, 0.1, 0.3, 0.45]


class TestScatteringMatrix:
    def test_at_zero_is_twisted_swap(self, std_fiber, std_geom):
        m = scattering_matrix(1, 0.0, std_geom(10.0), std_fiber)
        ev = sorted(np.linalg.eigvals(m).real)
        assert abs(ev[0] + 1.0) < 1e-14 and abs(ev[1] - 1.0) < 1e-14
        assert abs(m[0, 0]) < 1e-15 and abs(m[1, 1]) < 1e-15

    def test_transmission_phase(self):
        # interior length 1 at lam = pi: off-diagonal picks up -1
        # (needs the first transverse threshold above pi)
        fib = FiberSpectrum.finite([(0.0, 1), (4.0, 1)])
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        m = scattering_matrix(1, math.pi, g, fib)
        assert abs(m[1, 0] + 1.0) < 1e-14

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("piece", [1, 2])
    def test_unitarity_and_functional_equation(self, std_fiber, std_geom,
                                               piece, lam):
        g = std_geom(10.0)
        m = scattering_matrix(piece, lam, g, std_fiber)
        eye = np.eye(m.shape[0])
        assert np.abs(m @ m.conj().T - eye).max() < 1e-12
        minus = scattering_matrix(piece, -lam, g, std_fiber)
        assert np.abs(m @ minus - eye).max() < 1e-12

    def test_extension_glues_to_one_plane_wave(self, std_fiber, std_geom):
        # oracle: the two cylinder-end expansions of the generalized
        # eigensection must agree as one free solution across the interior
        g = std_geom(10.0)
        gauges = {1: 1.0, 2: cmath.exp(1j * math.pi / 2)}
        for lam in (0.1, 0.37):
            for piece, a in ((1, g.a1), (2, g.a2)):
                c = scattering_matrix(piece, lam, g, std_fiber)
                w = gauges[piece]
                for psi in (np.array([1.0, 0.0]), np.array([0.3, 0.8j])):
                    out = c @ psi
                    for x in np.linspace(0.0, a, 7):
                        f_left = (psi[0] * cmath.exp(1j * lam * x)
                                  + out[0] * cmath.exp(-1j * lam * x))
                        f_right = w.conjugate() * (
                            psi[1] * cmath.exp(-1j * lam * (x - a))
                            + out[1] * cmath.exp(1j * lam * (x - a)))
                        assert abs(f_left - f_right) < 1e-12

    def test_window_enforced(self, std_fiber, std_geom):
        with pytest.raises(ValueError, match="window"):
            scattering_matrix(1, 1.5, std_geom(10.0), std_fiber)


def composite(geom, fiber, lam):
    return (scattering_matrix(1, lam, geom, fiber)
            @ scattering_matrix(2, lam, geom, fiber))


class TestComposite:
    def test_half_turn_gives_minus_identity(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi,))
        assert np.abs(composite(g, std_fiber, 0.0) + np.eye(2)).max() < 1e-14

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_unitarity(self, std_fiber, std_geom, lam):
        m = composite(std_geom(10.0), std_fiber, lam)
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


class TestModelOperators:
    # the model spectrum is (pi k + alpha/2)^2 over all integers k; its
    # positive square roots below a bound, with multiplicity
    def test_spectrum_half_turn(self):
        vals = np.square(model_positive_roots([math.pi], 3 * math.pi / 2))
        expect = [math.pi ** 2 / 4, math.pi ** 2 / 4, 9 * math.pi ** 2 / 4]
        assert np.allclose(vals[:3], expect)

    def test_spectrum_contains_kernel_for_trivial_phase(self):
        # k = 0 is the kernel, kept out of the positive roots and counted
        # by the starred determinant
        assert np.allclose(model_positive_roots([0.0], math.pi),
                           [math.pi, math.pi])
        assert model_logdet_star([0.0])[1] == 1

    def test_spectrum_quarter_turn(self):
        vals = np.square(model_positive_roots([math.pi / 2], math.pi))
        assert np.allclose(vals, [math.pi ** 2 / 16, 9 * math.pi ** 2 / 16])

    def test_logdet_formula(self):
        # phases pi/2 and 3pi/2: 16 sin^2(pi/4) sin^2(3pi/4) = 4
        val = model_logdet([math.pi / 2, 3 * math.pi / 2])
        assert abs(val - math.log(4.0)) < 1e-14
        with pytest.raises(ValueError):
            model_logdet([0.0])

    def test_logdet_star_kernel_dims(self):
        val, kernel = model_logdet_star([0.0, math.pi])
        assert kernel == 1
        assert abs(val - math.log(16.0)) < 1e-14

    @pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 2, math.pi])
    def test_truncated_zeta_matches_formula(self, alpha):
        numeric = model_zeta_single_phase(alpha)
        closed = model_logdet([alpha])
        assert abs(numeric.log_det - closed) < 1e-8

    def test_identities_quarter_and_reflected(self, std_fiber, std_geom):
        (rep,) = model_identities_over((std_geom(10.0),), std_fiber)
        assert rep.h_Y == 2
        # quarter-composite: 2^4 sin^4(pi/4) = 4
        assert abs(math.exp(rep.log_det_quarter_c12) - 4.0) < 1e-12
        assert rep.gap_quarter < 1e-12
        # reflected pieces: exactly 2^{2 h}
        assert abs(math.exp(rep.log_det_cbar_star) - 16.0) < 1e-11
        assert rep.gap_cbar < 1e-12
        assert rep.numeric_gap_quarter < 1e-8
        assert rep.numeric_gap_cbar < 1e-8

    def test_identities_over_equal_one_at_a_time(self):
        # the reflected side is shared, the quarter side is per geometry
        fib = FiberSpectrum.finite([(0.0, 2), (1.0, 1)])
        geoms = [GlueGeometry(1.0, 2.0, 10.0, holonomy=(t, t))
                 for t in (math.pi / 3, math.pi / 2, math.pi)]
        assert model_identities_over(geoms, fib) == tuple(
            model_identities_over((g,), fib)[0] for g in geoms)
        assert model_identities_over([], fib) == ()


class TestSValues:
    def test_piece_window(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        vals = svalues_exact("M1", g, std_fiber)
        assert abs(vals[0][0] - math.pi / 21.0) < 1e-15
        assert abs(vals[0][0] - 0.149600) < 1e-6

    def test_closed_window(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        vals = svalues_exact("M", g, std_fiber)
        assert abs(vals[0][0] - (math.pi / 2) / 43.0) < 1e-15
        assert abs(vals[0][0] - 0.0365301) < 1e-7

    def test_empty_window_without_kernel(self):
        fib = FiberSpectrum.finite([(1.0, 1)])
        g = GlueGeometry(1.0, 2.0, 10.0)
        assert svalues_exact("M", g, fib) == []
        assert svalues_exact("M1", g, fib) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_window_rejected(self, std_fiber, bad):
        # a NaN window or root bound never ends the root scan
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        with pytest.raises(ValueError, match="kappa must be finite"):
            svalues_exact("M", g, std_fiber, kappa=bad)
        with pytest.raises(ValueError, match="root_max must be finite"):
            model_positive_roots([math.pi], bad)

    @pytest.mark.parametrize("which", ["M", "M1", "M2"])
    def test_window_root_count_capped(self, std_fiber, which):
        # about (2/pi) R^(1/4) roots per piece: at R = 1e300 the scan never
        # ended; the count is known before any root is enumerated
        g = GlueGeometry(1.0, 2.0, 1e300, holonomy=(math.pi / 2,))
        with pytest.raises(ValueError,
                           match=r"about \d\.\d+e\+7[45] roots, more than"):
            svalues_exact(which, g, std_fiber)

    def test_piece_quantization(self, std_fiber):
        # 2 R lambda sits near a multiple of pi, off by O(R^{-kappa})
        for R in (10.0, 20.0, 40.0, 80.0):
            g = GlueGeometry(1.0, 2.0, R, holonomy=(math.pi / 2,))
            for lam, _ in svalues_exact("M1", g, std_fiber):
                k = round(2 * R * lam / math.pi)
                assert abs(2 * R * lam - k * math.pi) <= 1.1 * R ** -0.75

    def test_both_parities_present(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 200.0, holonomy=(math.pi / 2,))
        ks = {round(2 * 200.0 * lam / math.pi)
              for lam, _ in svalues_exact("M1", g, std_fiber)}
        assert any(k % 2 == 0 for k in ks) and any(k % 2 == 1 for k in ks)

    @pytest.mark.parametrize("which", ["M", "M1", "M2"])
    def test_bijective_matching(self, std_fiber, which):
        for R in (10.0, 20.0, 40.0, 80.0):
            g = GlueGeometry(1.0, 2.0, R, holonomy=(math.pi / 2,))
            rep = svalue_report(which, g, std_fiber)
            assert rep.bijective
            assert len(rep.pairs) == len(svalues_exact(which, g, std_fiber))

    def test_residual_rate_under_doubling(self, std_fiber):
        for which in ("M", "M1", "M2"):
            for r_lo, r_hi in ((10.0, 20.0), (20.0, 40.0), (40.0, 80.0)):
                a = svalue_report(which,
                                  GlueGeometry(1.0, 2.0, r_lo,
                                               holonomy=(math.pi / 2,)),
                                  std_fiber)
                b = svalue_report(which,
                                  GlueGeometry(1.0, 2.0, r_hi,
                                               holonomy=(math.pi / 2,)),
                                  std_fiber)
                for ratio in svalue_rate_ratios(a, b):
                    assert 1.6 <= ratio <= 2.4


def _dn_within_gates(rep):
    """The dn-asymptotics gates at their default tolerances."""
    return bool(rep.entries) and all(
        abs(e.value_minus - e.model_matched)
        <= 1e-12 * max(1.0, abs(e.value_minus))
        and abs(e.value_plus) <= 1e-14 for e in rep.entries)


class TestDNAsymptotics:
    def test_closed_form_coincidence(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        rep = dn_zero_mode_asymptotics(g, std_fiber)
        e1 = next(e for e in rep.entries if e.piece == 1)
        assert abs(e1.value_minus - 2.0 / 21.0) < 1e-15
        assert abs(e1.value_minus - e1.model_matched) < 1e-14
        # derived alpha is minus the interior length on the -1 vector
        assert abs(e1.alpha_derived + 1.0) < 1e-9
        assert _dn_within_gates(rep)

    def test_sign_discrimination(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        rep = dn_zero_mode_asymptotics(g, std_fiber)
        for e in rep.entries:
            assert abs(e.value_minus - e.model_matched) < 1e-13
            # the opposite sign misses at order 1/R^2
            assert abs(e.value_minus - e.model_mismatched) > 1e-4

    def test_plus_direction_vanishes(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        rep = dn_zero_mode_asymptotics(g, std_fiber)
        for e in rep.entries:
            assert abs(e.value_plus) <= 1e-14

    def test_alpha_is_exact(self):
        # at R = 5 an error of 1e-10 in alpha moves the model by about
        # 1.2e-12 on this geometry, past the 1e-12 match gate
        g = GlueGeometry(2.161598515178046, 2.7961964594796584, 5.0,
                         holonomy=(3.8418080573450193,))
        rep = dn_zero_mode_asymptotics(g, FiberSpectrum.circle(4.734))
        assert [e.alpha_derived for e in rep.entries] == [-g.a1, -g.a2]
        assert _dn_within_gates(rep)

    def test_no_zero_mode_is_not_ok(self):
        # no zero mode, no entry: nothing was checked
        rep = dn_zero_mode_asymptotics(
            GlueGeometry(1.0, 2.0, 10.0), FiberSpectrum.finite([(1.0, 1)]))
        assert rep.entries == () and not _dn_within_gates(rep)

    def test_leading_term(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 1000.0, holonomy=(math.pi / 2,))
        rep = dn_zero_mode_asymptotics(g, std_fiber)
        e1 = next(e for e in rep.entries if e.piece == 1)
        assert abs(1000.0 * e1.value_minus - 1.0) < 1e-3


class TestDetL:
    def test_quarter_turn(self):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi / 2,))
        rep = det_L_identity(g)
        assert abs(rep.det_L - 0.005) < 1e-15
        assert rep.gap < 1e-12

    def test_half_turn(self):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(math.pi,))
        rep = det_L_identity(g)
        assert abs(rep.det_L - 1.0 / 100.0) < 1e-15
        assert rep.gap <= 1e-12 * max(1.0, abs(rep.rhs))

    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi])
    @pytest.mark.parametrize("R", [2.0, 10.0, 64.0])
    def test_identity_grid(self, theta, R):
        rep = det_L_identity(GlueGeometry(1.0, 2.0, R, holonomy=(theta,)))
        assert rep.gap <= 1e-12 * max(1.0, abs(rep.rhs))

    def test_common_fixed_vector_named(self):
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=(0.0,))
        with pytest.raises(ConditionAViolation, match="common fixed vector"):
            det_L_identity(g)


def test_fixed_space_dims_sum():
    # fixed space of each reflected piece matrix -C_i(0): its eigenvalue +1;
    # the two dimensions sum to the zero-mode dimension 2 h0
    for holonomy in ((math.pi / 2,), (0.3, 2.0)):
        fib = FiberSpectrum.finite([(0.0, len(holonomy)), (1.0, 1)])
        g = GlueGeometry(1.0, 2.0, 10.0, holonomy=holonomy)
        h1, h2 = (int(np.sum(np.linalg.eigvalsh(
            -scattering_matrix(piece, 0.0, g, fib)) > 0.5)) for piece in (1, 2))
        assert h1 == h2 == fib.h0
        assert h1 + h2 == 2 * fib.h0


# ---------------------------------------------------------------------------
# Rescaled small-time trace comparison: the traces of the matched small
# eigenvalues against the model's, a lemma no experiment reports
# ---------------------------------------------------------------------------

def trace_comparison_residual(which, geom, fiber, t, kappa=0.75):
    """|small-window trace of the rescaled operator - half the model's|.

    The window is the matched small-eigenvalue set (rescaled eigenvalues
    below sqrt(R)); the half accounts for the doubled zero-mode space of
    the model towers.
    """
    rep = svalue_report(which, geom, fiber, kappa)
    exact_sum = math.fsum(math.exp(-t * s) for _, s, _, _ in rep.pairs)
    model_sum = math.fsum(math.exp(-t * m) for _, _, m, _ in rep.pairs)
    return abs(exact_sum - model_sum)


@dataclass(frozen=True)
class TraceComparisonReport:
    """Empirical support for res <= c1 R^{-1/4} t e^{-c2 t}, per operator.

    Constants are fitted at the largest stretch (where the bound is
    tightest); the claim of a uniform constant is supported two ways: the
    fitted bound holds within a factor of two one doubling below, and the
    scaled residual max_t res R^{1/4} e^{c2 t}/t never increases with R,
    so its supremum sits at the smallest grid stretch.
    """

    constants: dict  # which -> (c1_hat, c2_hat)
    adjacent_violation_factor: float
    scaled_residuals: dict  # which -> tuple of (R, max_t scaled residual)
    grid: tuple[tuple[str, float, float, float], ...]  # which, R, t, residual

    @property
    def ok(self) -> bool:
        if self.adjacent_violation_factor > 2.0:
            return False
        if any(c2 <= 0.0 for _, c2 in self.constants.values()):
            return False
        for series in self.scaled_residuals.values():
            qs = [q for _, q in series]
            if any(b > 1.05 * a for a, b in zip(qs, qs[1:])):
                return False
        return True


def trace_comparison_report(geom_template, fiber, Rs, ts, kappa=0.75):
    """Small-window trace comparison on a (t, R) grid with fitted constants.

    The constants differ per operator because the slowest surviving model
    eigenvalue does; they are never pooled.
    """
    Rs = sorted(Rs)
    rows = []
    for R in Rs:
        geom = geom_template.with_R(R)
        for which in ("M", "M1", "M2"):
            for t in ts:
                rows.append((which, R, t,
                             trace_comparison_residual(which, geom, fiber, t, kappa)))
    r_max = Rs[-1]
    constants = {}
    for which in ("M", "M1", "M2"):
        pts = sorted((t, res) for w, R, t, res in rows
                     if w == which and R == r_max and res > 0.0)
        if len(pts) < 2:
            constants[which] = (0.0, math.inf)
            continue
        # decay rate from the asymptotic pair, envelope constant over all t
        (t1, r1), (t2, r2) = pts[-2], pts[-1]
        c2 = max((math.log(r1 / t1) - math.log(r2 / t2)) / (t2 - t1), 1e-12)
        c1 = max(res * r_max ** 0.25 * math.exp(min(c2 * t, 700.0)) / t
                 for t, res in pts)
        constants[which] = (c1, c2)
    adjacent = 0.0
    if len(Rs) >= 2:
        for which, R, t, res in rows:
            if R != Rs[-2]:
                continue
            c1, c2 = constants[which]
            bound = c1 * R ** -0.25 * t * math.exp(-c2 * t)
            if res > 0.0 and bound > 0.0:
                adjacent = max(adjacent, res / bound)
    scaled = {}
    for which in ("M", "M1", "M2"):
        _, c2 = constants[which]
        series = []
        for R in Rs:
            qs = [res * R ** 0.25 * math.exp(min(c2 * t, 700.0)) / t
                  for w, rr, t, res in rows
                  if w == which and rr == R and res > 0.0]
            series.append((R, max(qs, default=0.0)))
        scaled[which] = tuple(series)
    return TraceComparisonReport(constants=constants,
                                 adjacent_violation_factor=adjacent,
                                 scaled_residuals=scaled,
                                 grid=tuple(rows))


def test_trace_comparison_bound(std_fiber):
    g = GlueGeometry(1.0, 2.0, 40.0, holonomy=(math.pi / 2,))
    rep = trace_comparison_report(g, std_fiber,
                                  Rs=(20.0, 40.0, 80.0),
                                  ts=(0.5, 1.0, 2.0, 4.0))
    for which in ("M", "M1", "M2"):
        assert rep.constants[which][1] > 0.0
        qs = [q for _, q in rep.scaled_residuals[which]]
        assert all(b <= 1.05 * a for a, b in zip(qs, qs[1:]))
    assert rep.adjacent_violation_factor <= 2.0
    assert rep.ok
