import math

import numpy as np
import pytest

from zetaglue import glue
from zetaglue.glue import (
    ConditionAViolation,
    GlueGeometry,
    condition_A_check,
    logdet_closed,
    logdet_grid,
    trace_perp_inverse_diff,
)
from zetaglue.oracles import (
    dn_block,
    heat_route_crosscheck,
    logdet_circle_mode,
    logdet_dirichlet_mode,
)
from zetaglue.spectral_core import FiberSpectrum


def _totals(asm):
    return asm.log_det_M, asm.log_det_M1, asm.log_det_M2, asm.log_det_R


class TestGeometry:
    def test_derived_lengths(self):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(1.0,))
        assert g.L1 == 9.0 and g.L2 == 10.0 and g.C == 19.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GlueGeometry(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GlueGeometry(1.0, 1.0, 1.0, holonomy=(7.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["a1", "a2", "R"])
    def test_non_finite_length_rejected(self, field, bad):
        # NaN passes a `v <= 0` test, so each length must be checked finite
        lengths = {"a1": 1.0, "a2": 2.0, "R": 4.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            GlueGeometry(**lengths, holonomy=(1.0,))

    @pytest.mark.parametrize("R", [5e307, 1e308])
    def test_circumference_overflow_named(self, R):
        # a bare assert failed here, with no message and not at all under -O
        with pytest.raises(ValueError, match="a1 \\+ a2 \\+ 4R overflows"):
            GlueGeometry(1.0, 2.0, R, holonomy=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stretch_grid_rejected(self, std_fiber, std_geom, bad):
        with pytest.raises(ValueError, match="finite"):
            logdet_grid(std_geom(), std_fiber, [2.0, bad, 8.0])


class TestConditionA:
    def test_ok(self, std_fiber, std_geom):
        rep = condition_A_check(std_geom(), std_fiber)
        assert rep.ok and rep.violations == ()

    def test_violation(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(0.0,))
        rep = condition_A_check(g, std_fiber)
        assert not rep.ok
        assert "zero mode 0" in rep.violations[0]
        with pytest.raises(ConditionAViolation):
            rep.raise_if_failed()

    def test_vacuous_without_kernel(self):
        fib = FiberSpectrum.finite([(1.0, 1)])
        g = GlueGeometry(1.0, 2.0, 4.0)
        assert condition_A_check(g, fib).ok

    def test_holonomy_count_mismatch(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 4.0)  # no phases but fiber has a kernel
        with pytest.raises(ValueError, match="holonomy"):
            condition_A_check(g, std_fiber)


class TestLogdetClosed:
    def test_standard_instance(self, std_fiber, std_geom):
        asm = logdet_closed(std_geom(4.0), std_fiber)
        expected_m = (math.log(2.0 - 2.0 * math.cos(math.pi / 2))
                      + math.log(2.0 * math.cosh(19.0) - 2.0))
        assert abs(asm.log_det_M - expected_m) < 1e-12
        assert asm.h_Y == 2
        # totals are per-mode sums for a finite fiber
        for col in ("log_det_M", "log_det_M1", "log_det_M2", "log_det_R"):
            total = getattr(asm, col)
            rows = sum(r.mult * getattr(r, col) for r in asm.rows)
            assert abs(total - rows) < 1e-12 * max(1.0, abs(total))

    def test_per_mode_closed_forms(self, std_fiber, std_geom):
        g = std_geom(4.0)
        asm = logdet_closed(g, std_fiber)
        assert abs(asm.rows[0].log_det_M
                   - logdet_circle_mode(g.C, math.pi / 2, 0.0)) < 1e-15
        assert abs(asm.rows[1].log_det_M1
                   - logdet_dirichlet_mode(g.L1, 1.0)) < 1e-15

    def test_no_kernel_fiber_ignores_holonomy(self):
        fib = FiberSpectrum.finite([(1.0, 2)])
        g = GlueGeometry(1.0, 2.0, 4.0)
        asm = logdet_closed(g, fib)
        per_mode = 2 * logdet_circle_mode(g.C, 0.0, 1.0)
        assert abs(asm.log_det_M - per_mode) < 1e-12

    def test_condition_violation_raises(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(0.0,))
        with pytest.raises(ConditionAViolation):
            logdet_closed(g, std_fiber)


class TestCircleFiberRegularization:
    def test_cutoff_doubling_stability(self, circle_fiber, monkeypatch):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(math.pi / 2,))
        monkeypatch.setattr(glue, "_TAIL_EPS", 1e-8)
        rough = logdet_closed(g, circle_fiber)
        monkeypatch.setattr(glue, "_TAIL_EPS", 1e-17)
        fine = logdet_closed(g, circle_fiber)
        for col in ("log_det_M", "log_det_M1", "log_det_M2", "log_det_R"):
            assert abs(getattr(rough, col) - getattr(fine, col)) < 1e-9

    def test_remainders_decay_per_mode(self, circle_fiber):
        g = GlueGeometry(1.0, 2.0, 2.0, holonomy=(math.pi / 2,))
        asm = logdet_closed(g, circle_fiber)
        for row in asm.rows:
            if row.label == "nonzero":
                assert abs(row.log_det_M) < 3.0 * math.exp(-row.mu * g.C)

    def test_regularization_record(self, circle_fiber):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(math.pi / 2,))
        asm = logdet_closed(g, circle_fiber)
        reg = asm.regularization
        assert abs(reg["sum_mu"] - (-1.0 / 6.0)) < 1e-15
        assert reg["mode_count"] == -1.0
        assert abs(reg["sum_log_mu"] - math.log(2 * math.pi)) < 1e-14

    def test_nonconvergence_fails_its_stretch_alone(self, monkeypatch):
        # the shortest stretch needs about 1500 modes, the others 100 or less
        fiber = FiberSpectrum.circle(1000.0)
        g = GlueGeometry(1.0, 2.0, 0.5, holonomy=(math.pi / 2,))
        Rs = (0.5, 16.0, 64.0)
        full = logdet_grid(g, fiber, Rs)
        monkeypatch.setattr(glue, "_MAX_MODES", 200)
        grid = logdet_grid(g, fiber, Rs)
        assert isinstance(grid[0], RuntimeError)
        assert "did not converge within 200 modes" in str(grid[0])
        for R, asm, whole in zip(Rs[1:], grid[1:], full[1:]):
            ref = logdet_closed(g.with_R(R), fiber)
            for got in (ref, whole):
                assert _totals(asm) == _totals(got)
                assert asm.rows == got.rows and asm.regularization == got.regularization

    def test_nonconvergence_reported(self, circle_fiber, monkeypatch):
        g = GlueGeometry(1.0, 2.0, 0.5, holonomy=(math.pi / 2,))
        monkeypatch.setattr(glue, "_MAX_MODES", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            logdet_closed(g, circle_fiber)


def block_sum(geom, mu, theta=0.0):
    """One mode's 2x2 block of the boundary operator: the sum of the two
    interval DN blocks, the twist on the second piece."""
    w = complex(math.cos(theta), math.sin(theta))
    return dn_block(geom.L1, mu) + dn_block(geom.L2, mu, w)


class TestBoundaryOperatorBlocks:
    def test_zero_mode_block_det(self, std_geom):
        g = std_geom(4.0)
        det = float(np.linalg.det(block_sum(g, 0.0, math.pi / 2)).real)
        expect = (2.0 - 2.0 * math.cos(math.pi / 2)) / (g.L1 * g.L2)
        assert abs(det - expect) < 1e-15

    def test_block_eigenvalues_near_two(self):
        # mu = 1, both intervals of length 11: limit 2 mu with the coupling
        # still visible at e^{-mu L}; the determinant and inverse trace
        # carry the e^{-2 mu L} cancellation
        blk = block_sum(GlueGeometry(1.0, 1.0, 5.0), 1.0)
        for e in np.linalg.eigvalsh(blk):
            assert abs(e - 2.0) <= 5.0 * math.exp(-11.0)
        det = float(np.linalg.det(blk).real)
        assert abs(det / 4.0 - 1.0) <= 5.0 * math.exp(-22.0)

    def test_finite_fiber_product(self, std_fiber, std_geom):
        # zero mode with its holonomy, then the mode at frequency 1
        g = std_geom(4.0)
        prod = sum(math.log(float(np.linalg.det(block_sum(g, mu, theta)).real))
                   for mu, theta in ((0.0, math.pi / 2), (1.0, 0.0)))
        assert abs(logdet_closed(g, std_fiber).log_det_R - prod) < 1e-12

    def test_singular_block_rejected(self, std_fiber):
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(0.0,))
        with pytest.raises(ConditionAViolation):
            logdet_closed(g, std_fiber)


def bfk_ratio(geom, fiber):
    """det_M / (det_M1 det_M2 det_R): the gluing constant, independent of
    R, the interior lengths and the holonomy."""
    return math.exp(logdet_closed(geom, fiber).log_bfk_ratio)


class TestBfkRatio:
    def test_two_mode_fiber(self, std_fiber, std_geom):
        assert abs(bfk_ratio(std_geom(4.0), std_fiber) - 1.0 / 16.0) < 1e-12

    def test_single_zero_mode_fiber(self):
        fib = FiberSpectrum.finite([(0.0, 1)])
        g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(math.pi / 2,))
        assert abs(bfk_ratio(g, fib) - 0.25) < 1e-13

    def test_constant_in_stretch(self, std_fiber, std_geom):
        r2 = bfk_ratio(std_geom(2.0), std_fiber)
        r16 = bfk_ratio(std_geom(16.0), std_fiber)
        assert abs(r2 - r16) < 1e-10 * abs(r16)

    @pytest.mark.parametrize("a1,a2,theta", [
        (0.5, 0.5, 0.3), (3.0, 1.0, math.pi), (2.0, 2.0, 2.5)])
    def test_constant_in_geometry_and_holonomy(self, std_fiber, a1, a2, theta):
        g = GlueGeometry(a1, a2, 6.0, holonomy=(theta,))
        assert abs(bfk_ratio(g, std_fiber) - 1.0 / 16.0) < 1e-12


class TestTracePerp:
    def test_magnitude_at_reference_stretch(self):
        fib = FiberSpectrum.finite([(1.0, 1)])
        g = GlueGeometry(1.0, 1.0, 5.0)
        d = trace_perp_inverse_diff(g, fib)
        assert abs(d) <= 5e-9
        # closed-form block-inverse oracle: coth(L) - 1 for equal lengths,
        # in its cancellation-free form
        oracle = 2.0 / math.expm1(22.0)
        assert abs(d / oracle - 1.0) < 1e-12

    def test_doubling_slope(self):
        fib = FiberSpectrum.finite([(1.0, 1)])
        g = GlueGeometry(1.0, 1.0, 4.0)
        lo = trace_perp_inverse_diff(g, fib)
        hi = trace_perp_inverse_diff(g.with_R(8.0), fib)
        # log|diff| drops by ~ 4 mu dR
        drop = math.log(abs(lo)) - math.log(abs(hi))
        assert abs(drop - 4.0 * 1.0 * 4.0) < 0.1 * 16.0

    def test_no_nonzero_modes(self):
        fib = FiberSpectrum.finite([(0.0, 1)])
        g = GlueGeometry(1.0, 1.0, 5.0, holonomy=(math.pi,))
        assert trace_perp_inverse_diff(g, fib) == 0.0

    def test_circle_fiber_converges(self, circle_fiber):
        g = GlueGeometry(1.0, 2.0, 3.0, holonomy=(math.pi / 2,))
        d = trace_perp_inverse_diff(g, circle_fiber)
        # dominated by the first transverse mode, frequency 1
        assert abs(d) < 1e-4


class TestHeatRouteCrosscheck:
    def test_closed_circle_inverse_trace(self, std_fiber):
        # a1=1, a2=14, R=1: circumference 19, quarter twist
        g = GlueGeometry(1.0, 14.0, 1.0, holonomy=(math.pi / 2,))
        rep = heat_route_crosscheck(g, std_fiber, 0)
        closed = next(e for e in rep.entries if e.problem == "closed")
        # resolvent-sum oracle: C^2 / (4 sin^2(theta/2))
        assert abs(closed.eigen_sum - 19.0 ** 2 / 2.0) < 1e-9 * 19.0 ** 2
        assert rep.ok

    def test_basel_sum_on_piece(self, std_fiber):
        g = GlueGeometry(1.0, 14.0, 1.0, holonomy=(math.pi / 2,))
        rep = heat_route_crosscheck(g, std_fiber, 0)
        piece1 = next(e for e in rep.entries if e.problem == "piece1")
        # sum over (pi n / 3)^{-2} = 9/6
        assert abs(piece1.eigen_sum - 1.5) < 1e-10
        assert piece1.gap < 1e-8

    def test_large_mu_consistent(self):
        fib = FiberSpectrum.finite([(0.0, 1), (4.0, 1)])
        g = GlueGeometry(1.0, 14.0, 1.0, holonomy=(math.pi / 2,))
        rep = heat_route_crosscheck(g, fib, 1)  # mu C = 76 > 60
        assert rep.ok

    def test_kernel_mode_rejected(self, std_fiber):
        g = GlueGeometry(1.0, 14.0, 1.0, holonomy=(0.0,))
        with pytest.raises(ConditionAViolation):
            heat_route_crosscheck(g, std_fiber, 0)


def test_circle_fiber_totals_are_regularized_sums(circle_fiber):
    # totals = continued divergent parts + per-mode remainders
    g = GlueGeometry(1.0, 2.0, 4.0, holonomy=(math.pi / 2,))
    asm = logdet_closed(g, circle_fiber)
    reg = asm.regularization
    rows_m = sum(r.mult * r.log_det_M for r in asm.rows)
    rows_1 = sum(r.mult * r.log_det_M1 for r in asm.rows)
    rows_r = sum(r.mult * r.log_det_R for r in asm.rows)
    assert abs(asm.log_det_M - (g.C * reg["sum_mu"] + rows_m)) < 1e-12
    assert abs(asm.log_det_M1 - (g.L1 * reg["sum_mu"] - reg["sum_log_mu"]
                                 + rows_1)) < 1e-12
    expected_r = (2 * math.log(2.0) * reg["mode_count"]
                  + 2 * reg["sum_log_mu"] + rows_r)
    assert abs(asm.log_det_R - expected_r) < 1e-12
