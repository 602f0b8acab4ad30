"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np

from zetaglue.adiabatic import (
    consistency_triangle_gap,
    predicted_bfk_constant,
    sweep,
    verify_bfk_corollary,
    verify_lemma_cancellation,
    verify_theorem_dn,
    verify_theorem_main,
)
from zetaglue.glue import (
    GlueGeometry,
    condition_A_check,
    trace_perp_inverse_diff,
)
from zetaglue.oracles import (
    Circle,
    DirichletInterval,
    ModeProblem,
    heat_coeffs_for_mode,
    heat_trace_circle,
    heat_trace_dirichlet,
    heat_trace_mode,
    zeta_via_heat,
)
from zetaglue.scattering import (
    det_L_identity,
    dn_zero_mode_asymptotics,
    model_identities_over,
    model_logdet,
    model_zeta_single_phase,
    scattering_matrix,
    svalue_rate_ratios,
    svalue_report,
    svalues_exact,
)
from zetaglue.spectral_core import (
    ArithmeticFamily,
    EigenvalueSeq,
    FiberSpectrum,
    zeta_from_sequence,
)

FIBER = FiberSpectrum.finite([(0.0, 1), (1.0, 1)])
THETA = math.pi / 2


def geom(R, theta=THETA, a1=1.0, a2=2.0):
    return GlueGeometry(a1, a2, R, holonomy=(theta,))


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_bfk_constant_per_stretch():
    predicted = predicted_bfk_constant(FIBER)
    assert predicted == 0.0625
    res = sweep(geom(2.0), FIBER, R_grid=(2.0, 4.0, 8.0, 16.0, 32.0))
    check = verify_bfk_corollary(res, rel_tol=1e-9)
    report("1 gluing constant 1/16 per stretch", check.passed,
           f"max rel dev {check.max_rel_dev:.2e}")


def test_criterion_02_main_theorem_limit():
    res = sweep(geom(4.0), FIBER, R_grid=(4.0, 8.0, 16.0, 32.0, 64.0))
    check = verify_theorem_main(res, tol=1e-4)
    row32 = next(r for r in res.rows if r.R == 32.0)
    pointwise = abs(row32.scaled_ratio - check.predicted) / check.predicted
    ok = check.passed and pointwise <= 0.05
    report("2 determinant-ratio limit 1/8", ok,
           f"log deviation at R=64 {check.deviations[-1]:.2e}, "
           f"pointwise {pointwise:.3f}")


def test_criterion_03_dn_theorem_limit_and_triangle():
    res = sweep(geom(4.0), FIBER, R_grid=(4.0, 8.0, 16.0, 32.0, 64.0))
    check = verify_theorem_dn(res, tol=1e-4)
    triangle = consistency_triangle_gap(geom(4.0), FIBER)
    ok = check.passed and triangle <= 1e-9
    report("3 boundary-operator limit 2 + triangle", ok,
           f"log deviation at R=64 {check.deviations[-1]:.2e}, "
           f"triangle {triangle:.2e}")


def test_criterion_04_model_operator_identities():
    worst_numeric = 0.0
    for alpha in (math.pi / 3, math.pi / 2, math.pi):
        numeric = model_zeta_single_phase(alpha).log_det
        closed = model_logdet([alpha])
        worst_numeric = max(worst_numeric, abs(numeric - closed))
    (rep,) = model_identities_over((geom(10.0),), FIBER)
    ok = (worst_numeric <= 1e-8 and rep.gap_quarter <= 1e-12
          and rep.gap_cbar <= 1e-12)
    report("4 model determinant identities", ok,
           f"numeric gap {worst_numeric:.2e}, exact gaps "
           f"{rep.gap_quarter:.2e}/{rep.gap_cbar:.2e}")


def test_criterion_05_small_eigenvalue_laws():
    Rs = (10.0, 20.0, 40.0, 80.0)
    reports = {}
    bijective = True
    quant = {}
    for R in Rs:
        g = geom(R)
        for which in ("M", "M1", "M2"):
            rep = svalue_report(which, g, FIBER)
            reports[(which, R)] = rep
            bijective = bijective and rep.bijective
        for which, L in (("M1", g.L1), ("M2", g.L2)):
            worst = max(abs(2 * R * lam - round(2 * R * lam / math.pi) * math.pi)
                        for lam, _ in svalues_exact(which, g, FIBER))
            quant[(which, R)] = worst
    # |2 R lambda - k pi| <= c R^{-3/4} with c fitted at the largest stretch
    c_hat = max(quant[("M1", Rs[-1])], quant[("M2", Rs[-1])]) * Rs[-1] ** 0.75
    quant_ok = all(w <= 2.0 * c_hat * R ** -0.75
                   for (which, R), w in quant.items())
    ratios = []
    for which in ("M", "M1", "M2"):
        for lo, hi in zip(Rs, Rs[1:]):
            ratios.extend(svalue_rate_ratios(reports[(which, lo)],
                                             reports[(which, hi)]))
    rates_ok = all(1.6 <= r <= 2.4 for r in ratios)
    ok = bijective and quant_ok and rates_ok
    report("5 small-eigenvalue quantization/matching", ok,
           f"rates [{min(ratios):.2f}, {max(ratios):.2f}], "
           f"c_hat {c_hat:.3f}, bijective {bijective}")


def test_criterion_06_dn_asymptotics():
    worst_match, worst_plus = 0.0, 0.0
    for R in (5.0, 10.0, 20.0, 40.0, 80.0):
        rep = dn_zero_mode_asymptotics(geom(R), FIBER)
        for e in rep.entries:
            rel = abs(e.value_minus - e.model_matched) / e.value_minus
            worst_match = max(worst_match, rel)
            worst_plus = max(worst_plus, abs(e.value_plus))
    ok = worst_match <= 1e-12 and worst_plus <= 1e-14
    report("6 boundary-pairing asymptotics", ok,
           f"worst match {worst_match:.2e}, worst plus {worst_plus:.2e}")


def test_criterion_07_det_L_identity():
    worst = 0.0
    for theta in (math.pi / 3, math.pi / 2, math.pi):
        rep = det_L_identity(geom(10.0, theta=theta))
        worst = max(worst, rep.gap)
    ok = worst <= 1e-12
    report("7 zero-mode determinant identity", ok, f"worst gap {worst:.2e}")


def test_criterion_08_trace_perp_decay():
    fib = FiberSpectrum.finite([(1.0, 1)])
    g = GlueGeometry(1.0, 1.0, 3.0)
    Rs = np.arange(3.0, 10.5, 1.0)
    vals = [trace_perp_inverse_diff(g.with_R(R), fib) for R in Rs]
    slope = float(np.polyfit(Rs, [math.log(abs(v)) for v in vals], 1)[0])
    at5 = abs(trace_perp_inverse_diff(g.with_R(5.0), fib))
    ok = abs(slope - (-4.0)) <= 0.4 and at5 <= 1e-8
    report("8 inverse-trace decay slope -4 mu", ok,
           f"slope {slope:.4f}, |diff(R=5)| {at5:.2e}")


def test_criterion_09_heat_cancellation():
    rep = verify_lemma_cancellation(geom(4.0), FIBER,
                                    Rs=(4.0, 6.0, 8.0), ts=(0.25, 1.0, 4.0))
    ok = rep.c2_hat >= 0.5 and rep.max_violation_factor <= 2.0
    report("9 heat-trace cancellation bound", ok,
           f"c2 {rep.c2_hat:.2f}, violation factor "
           f"{rep.max_violation_factor:.2f}")


def test_criterion_10_analytic_fiber():
    fiber = FiberSpectrum.circle(2 * math.pi)
    res = sweep(geom(4.0), fiber, R_grid=(4.0, 8.0, 16.0, 32.0, 64.0))
    bfk = verify_bfk_corollary(res, rel_tol=1e-6)
    main = verify_theorem_main(res, tol=1e-3)
    ok = bfk.passed and main.passed
    report("10 analytic cross-section run", ok,
           f"bfk dev {bfk.max_rel_dev:.2e}, "
           f"log deviation at R=64 {main.deviations[-1]:.2e}")


def test_criterion_11_property_suites():
    g = geom(10.0)
    # unitarity + functional equation over the momentum window
    worst_u = 0.0
    for lam in np.linspace(-0.45, 0.45, 9):
        for piece in (1, 2):
            m = scattering_matrix(piece, float(lam), g, FIBER)
            minus = scattering_matrix(piece, float(-lam), g, FIBER)
            eye = np.eye(m.shape[0])
            worst_u = max(worst_u,
                          float(np.abs(m @ m.conj().T - eye).max()),
                          float(np.abs(m @ minus - eye).max()))
    unitary_ok = worst_u <= 1e-12

    # zeta additivity on a disjoint union
    fam_a = (ArithmeticFamily(math.pi / 3.0, 0.0, 1),)
    fam_b = (ArithmeticFamily(2 * math.pi / 10.0, THETA / 10.0, 0),
             ArithmeticFamily(2 * math.pi / 10.0, -THETA / 10.0, 1))
    a = zeta_from_sequence(EigenvalueSeq(fam_a))
    b = zeta_from_sequence(EigenvalueSeq(fam_b))
    union = zeta_from_sequence(EigenvalueSeq(fam_a + fam_b))
    add_ok = (abs(union.zeta_at_zero
                  - (a.zeta_at_zero + b.zeta_at_zero)) < 1e-12
              and abs(union.zeta_prime_at_zero
                      - (a.zeta_prime_at_zero + b.zeta_prime_at_zero)) < 1e-10)

    # two-route agreement on the mode-problem grid
    routes_ok = True
    for prob in (ModeProblem(0.0, DirichletInterval(3.0)),
                 ModeProblem(1.0, DirichletInterval(2.0)),
                 ModeProblem(0.0, Circle(10.0, THETA)),
                 ModeProblem(2.0, Circle(5.0, math.pi))):
        heat = zeta_via_heat(lambda t, p=prob: heat_trace_mode(p, t),
                             heat_coeffs_for_mode(prob))
        seq = zeta_from_sequence(prob.eigenvalue_seq())
        routes_ok = routes_ok and abs(heat.log_det - seq.log_det) < 1e-6

    # heat-trace branch agreement at the crossover
    branch_ok = True
    for L, mu in ((3.0, 0.0), (2.0, 1.0)):
        ts = L * L / 20.0
        lo = heat_trace_dirichlet(L, mu, ts * (1 - 1e-12))
        hi = heat_trace_dirichlet(L, mu, ts)
        branch_ok = branch_ok and abs(lo - hi) <= 1e-12 * max(1.0, hi)
    for C, theta, mu in ((4.0, math.pi, 0.0), (10.0, THETA, 0.5)):
        ts = C * C / 20.0
        lo = heat_trace_circle(C, theta, mu, ts * (1 - 1e-12))
        hi = heat_trace_circle(C, theta, mu, ts)
        branch_ok = branch_ok and abs(lo - hi) <= 1e-12 * max(1.0, hi)

    # trivial holonomy rejected
    cond_ok = not condition_A_check(
        GlueGeometry(1.0, 2.0, 4.0, holonomy=(0.0,)), FIBER).ok

    ok = unitary_ok and add_ok and routes_ok and branch_ok and cond_ok
    report("11 property suites", ok,
           f"unitarity {worst_u:.1e}, additivity {add_ok}, "
           f"routes {routes_ok}, branches {branch_ok}, condition {cond_ok}")
