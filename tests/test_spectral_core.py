import math

import mpmath
import pytest

from zetaglue.oracles import (
    Circle,
    DirichletInterval,
    HeatCoefficientMismatch,
    ModeProblem,
    heat_coeffs_for_mode,
    heat_trace_circle,
    heat_trace_dirichlet,
    heat_trace_mode,
    tail_residual_bound,
    zeta_via_heat,
)
from zetaglue.spectral_core import (
    ArithmeticFamily,
    EigenvalueSeq,
    FiberSpectrum,
    TailNotConverged,
    ZetaData,
    fiber_scaled_sqrt_logdet,
    fiber_sqrt_zeta_at_minus_one,
    fiber_sqrt_zeta_data,
    fiber_zeta_data,
    hurwitz_zeta_em,
    zeta_from_sequence,
)
from zetaglue.glue import GlueGeometry
from zetaglue.scattering import (
    TWO_PI,
    _model_families,
    model_identities_over,
    model_logdet,
    model_zeta_single_phase,
)

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property tests at the end need hypothesis
    given = None


def dirichlet_seq(L, mu=0.0):
    return EigenvalueSeq((ArithmeticFamily(math.pi / L, 0.0, 1),), mu=mu)


def circle_seq(C, theta, mu=0.0):
    c = 2 * math.pi / C
    return EigenvalueSeq(
        (ArithmeticFamily(c, theta / C, 0), ArithmeticFamily(c, -theta / C, 1)),
        mu=mu,
    )


def mp_logdet_power_tower(c, d_list):
    """Independent continuation oracle: -d/ds sum over towers (c n + d)^{-2s}
    via Hurwitz zeta, evaluated with mpmath."""
    mpmath.mp.dps = 30

    def zeta_s(s):
        tot = mpmath.mpf(0)
        for d, n0 in d_list:
            tot += c ** (-2 * s) * mpmath.zeta(2 * s, n0 + mpmath.mpf(d) / c)
        return tot

    return float(-mpmath.diff(zeta_s, 0))


class TestZetaFromSequence:
    def test_dirichlet_interval_known_value(self):
        # oracle: Riemann zeta continuation of the (pi n / 3)^2 tower
        oracle = mp_logdet_power_tower(math.pi / 3.0, [(0.0, 1)])
        assert abs(oracle - math.log(6.0)) < 1e-12
        data = zeta_from_sequence(dirichlet_seq(3.0))
        assert abs(data.log_det - math.log(6.0)) < 1e-10
        assert abs(data.zeta_at_zero + 0.5) < 1e-12

    def test_empty_spectrum(self):
        data = zeta_from_sequence(EigenvalueSeq((), kernel_dim=3))
        assert data == ZetaData(0.0, 0.0, -0.0, 3)

    def test_circle_with_quarter_twist(self):
        data = zeta_from_sequence(circle_seq(10.0, math.pi / 2))
        assert abs(data.log_det - math.log(2.0)) < 1e-10
        assert abs(data.zeta_at_zero) < 1e-12

    def test_massive_modes_match_closed_forms(self):
        data = zeta_from_sequence(dirichlet_seq(2.0, mu=1.0))
        assert abs(data.log_det - math.log(2 * math.sinh(2.0))) < 1e-10
        data = zeta_from_sequence(circle_seq(5.0, math.pi, mu=2.0))
        assert abs(data.log_det - math.log(2 * math.cosh(10.0) + 2.0)) < 1e-9

    def test_additivity_exact_and_tailed(self):
        a = zeta_from_sequence(dirichlet_seq(3.0))
        b = zeta_from_sequence(circle_seq(10.0, math.pi / 2))
        union = EigenvalueSeq(
            dirichlet_seq(3.0).families + circle_seq(10.0, math.pi / 2).families
        )
        both = zeta_from_sequence(union)
        assert abs(both.zeta_at_zero - (a.zeta_at_zero + b.zeta_at_zero)) \
            < 1e-12
        assert abs(both.zeta_prime_at_zero
                   - (a.zeta_prime_at_zero + b.zeta_prime_at_zero)) < 1e-10

    def test_monotone_truncation(self):
        seq = dirichlet_seq(2.0, mu=1.0)
        lo = zeta_from_sequence(seq, cutoff=1000)
        hi = zeta_from_sequence(seq, cutoff=10000)
        bound = tail_residual_bound(seq, cutoff=1000)
        assert abs(lo.zeta_prime_at_zero - hi.zeta_prime_at_zero) < bound

    def test_tail_not_converged(self):
        seq = dirichlet_seq(2.0, mu=200.0)
        with pytest.raises(TailNotConverged) as err:
            zeta_from_sequence(seq, cutoff=100)
        assert err.value.residual > 0

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            zeta_from_sequence(dirichlet_seq(2.0), cutoff=50)


class TestEigenvalueSeq:
    def test_kernel_rejected_in_families(self):
        # a zero eigenvalue must go through kernel_dim, not a family
        with pytest.raises(ValueError):
            EigenvalueSeq((ArithmeticFamily(1.0, 0.0, 0),), mu=0.0)
        # with a transverse shift the same family is fine: lowest entry mu^2
        seq = EigenvalueSeq((ArithmeticFamily(1.0, 0.0, 0),), mu=2.0)
        assert seq.families[0].root(0) ** 2 + seq.mu ** 2 == 4.0
        # a root whose square underflows is a zero eigenvalue too
        with pytest.raises(ValueError):
            EigenvalueSeq((ArithmeticFamily(1.0, 1e-200, 0),), mu=1e-200)
        with pytest.raises(ValueError):
            ArithmeticFamily(1.0, -2.0, 0)  # negative root


class TestZetaViaHeat:
    def test_dirichlet_interval(self):
        p = ModeProblem(0.0, DirichletInterval(3.0))
        data = zeta_via_heat(lambda t: heat_trace_mode(p, t),
                             heat_coeffs_for_mode(p))
        assert abs(data.log_det - math.log(6.0)) < 1e-6
        assert abs(data.zeta_at_zero + 0.5) < 1e-12

    def test_zero_trace(self):
        data = zeta_via_heat(lambda t: 0.0, [0.0, 0.0, 0.0, 0.0])
        assert data == ZetaData(0.0, 0.0, -0.0, 0)

    def test_single_eigenvalue(self):
        # kappa(s) = Gamma(s) 4^{-s}: log det must be log 4
        cs = [0.0, 1.0, 0.0, -4.0, 0.0, 8.0, 0.0, -32.0 / 3.0]
        data = zeta_via_heat(lambda t: math.exp(-4.0 * t), cs)
        assert abs(data.log_det - math.log(4.0)) < 1e-9
        assert abs(data.zeta_at_zero - 1.0) < 1e-14

    def test_kernel_subtraction(self):
        # flat circle: one zero mode subtracted away, det' = C^2
        p = ModeProblem(0.0, Circle(4.0, 0.0))
        data = zeta_via_heat(lambda t: heat_trace_mode(p, t) - 1.0,
                             heat_coeffs_for_mode(p), kernel_dim=1)
        assert data.kernel_dim == 1
        assert abs(data.log_det - math.log(16.0)) < 1e-7

    def test_coefficient_mismatch_detected(self):
        p = ModeProblem(0.0, DirichletInterval(3.0))
        bad = heat_coeffs_for_mode(p)
        bad[1] += 0.01
        with pytest.raises(HeatCoefficientMismatch) as err:
            zeta_via_heat(lambda t: heat_trace_mode(p, t), bad)
        assert abs(err.value.gap_constant + 0.01) < 1e-6

    @pytest.mark.parametrize("problem", [
        ModeProblem(0.0, DirichletInterval(3.0)),
        ModeProblem(1.0, DirichletInterval(2.0)),
        ModeProblem(1.0, DirichletInterval(11.0)),
        ModeProblem(0.0, Circle(10.0, math.pi / 2)),
        ModeProblem(2.0, Circle(5.0, math.pi)),
        ModeProblem(0.5, Circle(19.0, math.pi / 3)),
    ])
    def test_two_route_agreement(self, problem):
        heat = zeta_via_heat(lambda t: heat_trace_mode(problem, t),
                             heat_coeffs_for_mode(problem))
        seq = zeta_from_sequence(problem.eigenvalue_seq())
        assert abs(heat.log_det - seq.log_det) < 1e-6
        assert abs(heat.zeta_at_zero - seq.zeta_at_zero) < 1e-10


class TestHeatTraces:
    @pytest.mark.parametrize("L,mu", [(3.0, 0.0), (2.0, 1.0), (11.0, 0.5)])
    def test_dirichlet_branch_agreement(self, L, mu):
        t_star = L * L / 20.0
        below = heat_trace_dirichlet(L, mu, t_star * (1 - 1e-12))
        at = heat_trace_dirichlet(L, mu, t_star)
        assert abs(below - at) < 1e-12 * max(1.0, abs(at))

    @pytest.mark.parametrize("C,theta,mu", [
        (4.0, math.pi, 0.0), (10.0, math.pi / 2, 0.0), (5.0, 1.0, 2.0)])
    def test_circle_branch_agreement(self, C, theta, mu):
        t_star = C * C / 20.0
        below = heat_trace_circle(C, theta, mu, t_star * (1 - 1e-12))
        at = heat_trace_circle(C, theta, mu, t_star)
        assert abs(below - at) < 1e-12 * max(1.0, abs(at))

    def test_circle_against_direct_sum(self):
        # direct enumeration oracle over ((2 pi n + pi)^2)/16
        t, C, theta = 0.25, 4.0, math.pi
        oracle = sum(
            math.exp(-t * ((2 * math.pi * n + theta) / C) ** 2)
            for n in range(-60, 61)
        )
        val = heat_trace_circle(C, theta, 0.0, t)
        assert abs(val - oracle) < 1e-12 * oracle

    def test_circle_twist_near_two_pi_at_large_time(self):
        # the n = 0 line underflows here, the theta - 2 pi line does not;
        # the walk once stopped at n = 0 and returned 0.0
        t, C, theta = 2e6, 261.289, 6.114
        oracle = math.fsum(
            math.exp(-t * ((2 * math.pi * n + theta) / C) ** 2)
            for n in range(-50, 51))
        assert oracle == pytest.approx(0.4324, abs=1e-4)
        assert abs(heat_trace_circle(C, theta, 0.0, t) - oracle) \
            <= 1e-14 * oracle

    def test_dirichlet_small_time_form(self):
        L, t = 3.0, 0.2
        leading = L / math.sqrt(4 * math.pi * t) - 0.5
        val = heat_trace_dirichlet(L, 0.0, t)
        assert abs(val - leading) < 3 * math.exp(-L * L / t)

    def test_large_time_vanishes(self):
        assert heat_trace_dirichlet(3.0, 1.0, 800.0) == 0.0
        assert heat_trace_circle(4.0, math.pi, 0.5, 4000.0) == 0.0

    def test_bad_t(self):
        with pytest.raises(ValueError):
            heat_trace_dirichlet(3.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            heat_trace_dirichlet(3.0, 0.0, 1e-305)


class TestFiberData:
    def test_finite_single_nonzero(self):
        fib = FiberSpectrum.finite([(0.0, 1), (1.0, 1)])
        data = fiber_zeta_data(fib)
        assert data.zeta_at_zero == 1.0
        assert data.log_det == 0.0
        assert data.kernel_dim == 1

    def test_finite_eigenvalue_four(self):
        # frequencies 2 with multiplicity 2: eigenvalues {4, 4}
        fib = FiberSpectrum.finite([(0.0, 1), (2.0, 2)])
        data = fiber_zeta_data(fib)
        assert data.zeta_at_zero == 2.0
        assert abs(data.log_det - 2 * math.log(4.0)) < 1e-14

    def test_circle_continuation(self, circle_fiber):
        data = fiber_zeta_data(circle_fiber)
        assert abs(data.zeta_at_zero + 1.0) < 1e-14
        L = circle_fiber.circumference
        assert abs(data.log_det - 2 * math.log(L)) < 1e-12
        # Hurwitz-continuation oracle through the generic tail machinery
        seq = EigenvalueSeq(
            (ArithmeticFamily(2 * math.pi / L, 0.0, 1, mult=2),))
        oracle = zeta_from_sequence(seq)
        assert abs(oracle.log_det - data.log_det) < 1e-9
        assert abs(oracle.zeta_at_zero - data.zeta_at_zero) < 1e-10

    def test_sqrt_data_finite(self):
        fib = FiberSpectrum.finite([(0.0, 1), (1.0, 1)])
        sq = fiber_sqrt_zeta_data(fib)
        assert sq.log_det == 0.0
        assert abs(fiber_scaled_sqrt_logdet(fib) - math.log(2.0)) < 1e-14

    def test_sqrt_data_circle(self, circle_fiber):
        # continuation oracle via mpmath for 2 (2 pi / L)^{-s} zeta(s)
        mpmath.mp.dps = 30
        L = circle_fiber.circumference
        ratio = 2 * mpmath.pi / L
        oracle = float(-mpmath.diff(
            lambda s: 2 * ratio ** (-s) * mpmath.zeta(s), 0))
        sq = fiber_sqrt_zeta_data(circle_fiber)
        assert abs(sq.log_det - oracle) < 1e-12
        assert abs(sq.log_det - math.log(L)) < 1e-12

    @pytest.mark.parametrize("modes", [
        [(0.0, 1), (1.0, 1)], [(0.5, 2), (2.0, 1)], [(0.0, 2), (3.0, 3)]])
    def test_sqrt_squares_to_full(self, modes):
        fib = FiberSpectrum.finite(modes)
        assert abs(fiber_zeta_data(fib).log_det
                   - 2 * fiber_sqrt_zeta_data(fib).log_det) < 1e-12

    def test_sqrt_at_minus_one(self, circle_fiber):
        # continued first moment: 2 (2 pi / L) zeta(-1) = -pi/(3 L)
        val = fiber_sqrt_zeta_at_minus_one(circle_fiber)
        assert abs(val - (-math.pi / (3 * circle_fiber.circumference))) < 1e-15
        fib = FiberSpectrum.finite([(0.0, 1), (1.5, 2)])
        assert fiber_sqrt_zeta_at_minus_one(fib) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberSpectrum.finite([(1.0, 1), (0.0, 1)])  # unsorted
        with pytest.raises(ValueError):
            FiberSpectrum.finite([(0.0, 1), (0.0, 1)])  # two kernels
        with pytest.raises(ValueError):
            FiberSpectrum.finite([(-1.0, 1)])
        with pytest.raises(ValueError):
            FiberSpectrum.circle(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN frequency passed `m < 0` and was then dropped as no mode
        with pytest.raises(ValueError, match="finite"):
            FiberSpectrum.finite([(0.0, 1), (bad, 1)])
        with pytest.raises(ValueError, match="finite"):
            FiberSpectrum.circle(bad)


def test_hurwitz_euler_maclaurin_against_mpmath():
    mpmath.mp.dps = 30
    for s in (2.0, 4.0, 10.0):
        for a in (0.7, 3.2, 41.0, 10000.25):
            ref = float(mpmath.zeta(s, a))
            assert abs(hurwitz_zeta_em(s, a) - ref) < 1e-13 * abs(ref)


def test_zeta_data_invariant():
    with pytest.raises(ValueError):
        ZetaData(1.0, 2.0, 3.0, 0)
    with pytest.raises(ValueError):
        ZetaData(1.0, 2.0, -2.0, -1)


# ---------------------------------------------------------------------------
# The model-tower oracle and the distinct-tower walk of zeta_from_sequence
# ---------------------------------------------------------------------------

# (h0, theta) -> (numeric_gap_quarter, numeric_gap_cbar), computed with one
# math.fsum of math.log terms per occurrence of a family at cutoff 100; the
# holonomy repeats theta h0 times
MODEL_GAPS_FSUM = {
    (1, math.pi / 3): (2.26929586233382e-13, 2.19824158875781e-13),
    (1, math.pi / 2): (4.5075054799781356e-13, 2.19824158875781e-13),
    (1, math.pi): (2.19824158875781e-13, 2.19824158875781e-13),
    (2, math.pi / 3): (4.53859172466764e-13, 4.39648317751562e-13),
    (2, math.pi / 2): (9.015010959956271e-13, 4.39648317751562e-13),
    (2, math.pi): (4.39648317751562e-13, 4.39648317751562e-13),
    (3, math.pi / 3): (6.80788758700146e-13, 6.590283874174929e-13),
    (3, math.pi / 2): (1.3518075547835906e-12, 6.590283874174929e-13),
    (3, math.pi): (6.590283874174929e-13, 6.590283874174929e-13),
}


@pytest.mark.parametrize("key", sorted(MODEL_GAPS_FSUM))
def test_model_identities_gaps_unchanged(key):
    h0, theta = key
    geom = GlueGeometry(1.0, 2.0, 10.0, holonomy=(theta,) * h0)
    (rep,) = model_identities_over(
        (geom,), FiberSpectrum.finite([(0.0, h0), (1.0, 1)]))
    # the quarter and reflected log-dets are ~h0 log 16: within 2 ulps
    for got, ref in zip((rep.numeric_gap_quarter, rep.numeric_gap_cbar),
                        MODEL_GAPS_FSUM[key]):
        assert abs(got - ref) <= 2 * math.ulp(8.0 * h0)


EPS = 2.0 ** -52


@pytest.mark.parametrize("alpha", [1e-3, 0.5, math.pi / 2, 3.0, TWO_PI - 1e-3])
@pytest.mark.parametrize("quarter", [False, True])
def test_model_tower_zeta_is_cutoff_free(alpha, quarter):
    # at mu = 0 the lgamma tail is exact, so the cutoff moves (zeta(0),
    # zeta'(0)) only by rounding: the cancelling terms are each about
    # 2 a log a at a = cutoff + d/c (worst seen 3.6 eps a log a over 600
    # model towers)
    for fam in _model_families(alpha, quarter):
        seq = EigenvalueSeq((fam,))
        a = 10_000 + fam.offset / fam.slope
        floor = 8.0 * EPS * a * math.log(a)
        ref = zeta_from_sequence(seq, cutoff=100)
        for cutoff in (1000, 10_000):
            got = zeta_from_sequence(seq, cutoff=cutoff)
            for x, y in ((got.zeta_at_zero, ref.zeta_at_zero),
                         (got.zeta_prime_at_zero, ref.zeta_prime_at_zero)):
                assert abs(x - y) <= floor


# tail_residual_bound with the noise allowance summed by math.fsum
TAIL_BOUND_FSUM = [
    (dirichlet_seq(3.0), 1000, 1.7808804228795762e-11),
    (dirichlet_seq(3.0), 10000, 2.472224121977586e-10),
    (dirichlet_seq(2.0, mu=1.0), 1000, 1.8619518329500514e-11),
    (dirichlet_seq(2.0, mu=1.0), 10000, 2.553314986093672e-10),
    (circle_seq(5.0, math.pi, mu=2.0), 1000, 3.635294229529608e-11),
    (circle_seq(5.0, math.pi, mu=2.0), 10000, 5.017437381643937e-10),
    (EigenvalueSeq(circle_seq(10.0, math.pi / 2).families * 3, mu=0.5), 1000,
     1.0074334335547617e-10),
    (EigenvalueSeq(circle_seq(10.0, math.pi / 2).families * 3, mu=0.5), 10000,
     1.4220558267174692e-09),
]


@pytest.mark.parametrize("seq,cutoff,ref", TAIL_BOUND_FSUM)
def test_tail_residual_bound_unchanged(seq, cutoff, ref):
    assert abs(tail_residual_bound(seq, cutoff=cutoff) - ref) <= 1e-12 * ref


if given is not None:
    # within about 1e-6 of 0 or 2 pi the gaps grow like eps / theta, from
    # the rounding of 2 pi - theta in the phase
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.floats(1e-3, TWO_PI - 1e-3))
    def test_model_numeric_gaps_small(h0, theta):
        geom = GlueGeometry(1.0, 2.0, 10.0, holonomy=(theta,) * h0)
        (rep,) = model_identities_over(
            (geom,), FiberSpectrum.finite([(0.0, h0), (1.0, 1)]))
        single = abs(model_zeta_single_phase(theta).log_det
                     - model_logdet([theta]))
        assert max(rep.numeric_gap_quarter, rep.numeric_gap_cbar,
                   single) <= 1e-11

    @given(st.floats(0.1, 5.0), st.floats(0.0, 3.0), st.integers(0, 2),
           st.floats(0.0, 3.0), st.integers(1, 4))
    def test_repeated_tower_equals_multiplicity(slope, offset, start, mu, k):
        # no zero eigenvalue, also none by underflow
        assume((slope * start + offset) ** 2 + mu ** 2 > 0.0)
        fam = ArithmeticFamily(slope, offset, start)
        repeated = zeta_from_sequence(EigenvalueSeq((fam,) * k, mu=mu))
        merged = zeta_from_sequence(EigenvalueSeq(
            (ArithmeticFamily(slope, offset, start, mult=k),), mu=mu))
        for a, b in ((repeated.zeta_at_zero, merged.zeta_at_zero),
                     (repeated.zeta_prime_at_zero, merged.zeta_prime_at_zero)):
            assert abs(a - b) <= 1e-15 * abs(b)
