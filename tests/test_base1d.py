import cmath
import math

import numpy as np
import pytest

from zetaglue.base1d import _nonzero_logs
from zetaglue.oracles import (
    Circle,
    DirichletInterval,
    ModeProblem,
    dn_block,
    logdet_circle_mode,
    logdet_dirichlet_mode,
    oracle_logdet_truncated,
)

GRID_LT = [(1.0, 0.5), (2.5, 1.0), (5.0, 2.0)]


class TestCircleClosedForm:
    @pytest.mark.parametrize("C", [1.0, 5.5, 20.0])
    def test_half_turn_gives_four(self, C):
        # circumference-independent: 4 sin^2(pi/2) = 4
        assert abs(logdet_circle_mode(C, math.pi, 0.0) - math.log(4.0)) < 1e-14

    def test_quarter_turn(self):
        val = logdet_circle_mode(10.0, math.pi / 2, 0.0)
        assert abs(val - math.log(2.0)) < 1e-14
        oracle, resid = oracle_logdet_truncated(
            ModeProblem(0.0, Circle(10.0, math.pi / 2)))
        assert abs(val - oracle) <= resid

    def test_massive(self):
        val = logdet_circle_mode(5.0, math.pi, 2.0)
        assert abs(math.exp(val) - (2 * math.cosh(10.0) + 2.0)) < 1e-8
        oracle, resid = oracle_logdet_truncated(
            ModeProblem(2.0, Circle(5.0, math.pi)))
        assert abs(val - oracle) <= resid

    def test_overflow_safe(self):
        # mu C far past double range for cosh
        val = logdet_circle_mode(100.0, 1.0, 50.0)
        assert abs(val - 5000.0) < 1e-9

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError, match="zero mode"):
            logdet_circle_mode(3.0, 0.0, 0.0)


class TestDirichletClosedForm:
    def test_flat(self):
        assert abs(logdet_dirichlet_mode(3.0, 0.0) - math.log(6.0)) < 1e-14
        oracle, resid = oracle_logdet_truncated(
            ModeProblem(0.0, DirichletInterval(3.0)))
        assert abs(math.log(6.0) - oracle) <= resid

    def test_massive(self):
        val = logdet_dirichlet_mode(2.0, 1.0)
        assert abs(math.exp(val) - 2 * math.sinh(2.0)) < 1e-12
        assert abs(math.exp(val) - 7.253720815694038) < 1e-9

    def test_dominant_balance_large_argument(self):
        # log det -> mu L - log mu as mu L -> infinity
        val = logdet_dirichlet_mode(2.0, 50.0)
        assert abs(val - (100.0 - math.log(50.0))) < 1e-12


@pytest.mark.parametrize("L,mu", GRID_LT + [(11.0, 1.0)])
@pytest.mark.parametrize("base", ["circle", "interval"])
def test_closed_forms_match_oracle_on_grid(L, mu, base):
    if base == "circle":
        prob = ModeProblem(mu, Circle(2 * L, 1.2))
        closed = logdet_circle_mode(2 * L, 1.2, mu)
    else:
        prob = ModeProblem(mu, DirichletInterval(L))
        closed = logdet_dirichlet_mode(L, mu)
    oracle, resid = oracle_logdet_truncated(prob)
    assert abs(closed - oracle) <= resid


# untwisted nonzero modes with mu C from 1e-9 to 10; below 1,
# 2 cosh(mu C) - 2 cancels
SMALL_ARGS = [(10.0, 1e-6), (10.0, 1e-8), (3.0, 1e-10), (5.0, 1e-3),
              (7.0, 0.1), (7.0, 1.0 / 7.0), (5.0, 2.0)]


@pytest.mark.parametrize("C,mu", SMALL_ARGS)
def test_small_argument_circle_form_matches_oracle(C, mu):
    # the array form, the scalar reference and eigenvalue enumeration agree
    # where the direct form loses up to all of its digits
    log_m = float(_nonzero_logs(np.array([mu]), 1.0, 2.0, C)[0][0])
    oracle, resid = oracle_logdet_truncated(ModeProblem(mu, Circle(C, 0.0)))
    assert abs(log_m - oracle) <= resid
    assert abs(log_m - logdet_circle_mode(C, 0.0, mu)) \
        <= 1e-14 * max(1.0, abs(log_m))


def test_oracle_cutoff_consistency():
    prob = ModeProblem(1.0, DirichletInterval(2.0))
    v3, r3 = oracle_logdet_truncated(prob, cutoff=1000)
    v4, _ = oracle_logdet_truncated(prob, cutoff=10000)
    assert abs(v3 - v4) < r3


class TestDNBlock:
    def test_flat_unit_interval(self):
        b = dn_block(1.0, 0.0, 1.0)
        assert np.allclose(b, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_massive_unit_interval(self):
        b = dn_block(1.0, 1.0, 1.0)
        assert abs(b[0, 0].real - 1.3130352854993312) < 1e-14
        assert abs(b[0, 1].real + 0.8509181282393216) < 1e-14

    def test_decouples_at_large_mu(self):
        b = dn_block(1.0, 100.0, 1.0)
        assert abs(b[0, 0].real - 100.0) < 1e-10
        assert abs(b[0, 1]) < 1e-40

    def test_hermitian_positive(self):
        w = cmath.exp(1j * 0.7)
        b = dn_block(2.0, 0.5, w)
        assert np.allclose(b, b.conj().T)
        ev = np.linalg.eigvalsh(b)
        assert np.all(ev > 0)

    def test_semidefinite_at_mu_zero(self):
        ev = np.linalg.eigvalsh(dn_block(2.0, 0.0, 1.0))
        assert min(ev) > -1e-16 and abs(min(ev)) < 1e-15

    def test_phase_must_be_unimodular(self):
        with pytest.raises(ValueError):
            dn_block(1.0, 0.0, 2.0)

    @pytest.mark.parametrize("L,mu", [(3.0, 1.0), (6.0, 0.7), (9.0, 2.0)])
    def test_single_block_eigenvalues_converge_to_mu(self, L, mu):
        # rate e^{-mu L} from the off-diagonal coupling
        ev = np.linalg.eigvalsh(dn_block(L, mu, 1.0))
        for e in ev:
            assert abs(e - mu) <= 3.0 * mu * math.exp(-mu * L)

    @pytest.mark.parametrize("L,mu", [(6.0, 1.0), (11.0, 1.0), (8.0, 1.5)])
    def test_sum_block_trace_inverse_rate(self, L, mu):
        # the pairwise cancellations live in det/trace functionals: the
        # inverse trace approaches 1/mu at the doubled rate e^{-2 mu L}
        b = dn_block(L, mu, 1.0) + dn_block(L, mu, 1.0)
        diff = np.trace(np.linalg.inv(b)).real - 1.0 / mu
        assert abs(diff) <= 4.0 * math.exp(-2 * mu * L) / mu


SEWING_GRID = [
    (1.0, 1.0, 0.5, 0.7),
    (2.0, 3.0, 1.0, math.pi / 2),
    (4.0, 1.5, 2.0, math.pi),
    (9.0, 10.0, 1.0, 0.1),
    (2.0, 5.0, 0.25, 5.0),
]


@pytest.mark.parametrize("L1,L2,mu,theta", SEWING_GRID)
def test_sewing_identity_massive(L1, L2, mu, theta):
    # gluing the two interval responses reproduces the circle determinant
    w1, w2 = 1.0, cmath.exp(1j * theta)
    b = dn_block(L1, mu, w1) + dn_block(L2, mu, w2)
    det = float(np.linalg.det(b).real)
    lhs = (2 * math.sinh(mu * L1) / mu) * (2 * math.sinh(mu * L2) / mu) * det
    rhs = 4.0 * (2 * math.cosh(mu * (L1 + L2)) - 2 * math.cos(theta))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("L1,L2,theta", [
    (1.0, 1.0, 0.7), (2.0, 3.0, math.pi / 2), (5.0, 1.5, math.pi)])
def test_sewing_identity_flat(L1, L2, theta):
    w2 = cmath.exp(1j * theta)
    b = dn_block(L1, 0.0, 1.0) + dn_block(L2, 0.0, w2)
    det = float(np.linalg.det(b).real)
    lhs = (2 * L1) * (2 * L2) * det
    rhs = 4.0 * (2.0 - 2.0 * math.cos(theta))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("R", [4.0, 32.0])
def test_plus_direction_pairing_vanishes(R):
    # trivial holonomy: the sum of the two interval blocks pairs to exactly
    # zero with the common fixed vector, the degenerate limit condition A
    # excludes
    b = dn_block(1.0 + 2.0 * R, 0.0, 1.0) + dn_block(2.0 + 2.0 * R, 0.0, 1.0)
    phi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert float((phi @ b @ phi).real) == 0.0


class TestModeProblem:
    def test_eigenvalue_seq_kernel_dim(self):
        seq = ModeProblem(0.0, Circle(3.0, 0.0)).eigenvalue_seq()
        assert seq.kernel_dim == 1
        seq = ModeProblem(0.0, Circle(3.0, 0.5)).eigenvalue_seq()
        assert seq.kernel_dim == 0

    def test_eigenvalues_match_formulas(self):
        seq = ModeProblem(0.5, Circle(7.0, 1.0)).eigenvalue_seq()
        vals = sorted(fam.root(n) ** 2 + seq.mu ** 2 for fam in seq.families
                      for n in range(fam.start, fam.start + 10)
                      if fam.root(n) ** 2 + seq.mu ** 2 <= 4.0)
        expect = sorted(
            ((2 * math.pi * n + 1.0) / 7.0) ** 2 + 0.25
            for n in range(-10, 11)
            if ((2 * math.pi * n + 1.0) / 7.0) ** 2 + 0.25 <= 4.0
        )
        assert np.allclose(vals, expect)

    def test_validation(self):
        with pytest.raises(ValueError):
            Circle(3.0, -0.1)
        with pytest.raises(ValueError):
            Circle(-3.0, 0.1)
        with pytest.raises(ValueError):
            DirichletInterval(0.0)
        with pytest.raises(ValueError):
            ModeProblem(-1.0, DirichletInterval(1.0))
