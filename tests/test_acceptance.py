"""End-to-end acceptance runs, one test per criterion.

Each test exercises a full pipeline at its stated tolerance and reports a
single pass/fail line.  The r = 0 rows of criteria 1 and 2 are the hard
ones: the level curve has a corner at z = 1 there and the theta
parametrization is only Holder-1/2, so equal-weight node sums converge like
M^(-3/2) (errors near 1e-5 at M = 4096).  suite_lemma1 and verify_balayage
therefore use the corner-graded rule graded_mu_r (theta = s - sin s), whose
error decays like M^(-9/2) and is near 1e-16 at M = 4096, well inside the
stated tolerances.
"""

import time

import pytest
from mpmath import fprod, fsum, mp, mpc, mpf

from szegolab import asymptotics
from szegolab.asymptotics import (
    level_median,
    make_schedule,
    zero_distribution_report,
)
from szegolab.cli import main, suite_laguerre, suite_lemma1
from szegolab.laguerre import (
    LaguerreSpec,
    askey_check,
    monic_rescaled,
    param_decomposition,
)
from szegolab.potential import verify_balayage, weighted_leja
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.rootfinding import contracted_zeros, find_roots
from szegolab.szego import real_crossings, trace_level_curve

SUITE_PREC = 192
LEVELS = ("0", "0.1919", "1")


def test_criterion_1_discretized_measure():
    t0 = time.monotonic()
    failures = []
    for r_text in LEVELS:
        r = ap_real(r_text, SUITE_PREC)
        for check in suite_lemma1(r, 4096, SUITE_PREC):
            if not check.passed:
                failures.append(f"r={r_text} {check.name}: {check.detail}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert not failures, "; ".join(failures)


def test_criterion_2_balayage_and_robin():
    failures = []
    for r_text in LEVELS:
        r = ap_real(r_text, SUITE_PREC)
        x0, x_neg = real_crossings(r, SUITE_PREC)
        curve = trace_level_curve(r, 1024, SUITE_PREC)
        with workprec(SUITE_PREC):
            interior = (mpc(x0 / 2), mpc(x_neg / 2))
            exterior = (mpc(2), mpc(3), mpc(-2), mpc(0, mpf("1.5")))
            for p in interior:
                dist = min(abs(p - z) for z in curve.points)
                assert dist >= mpf("0.05"), f"r={r_text}: test point too close"
        report = verify_balayage(r, 4096, interior, exterior, SUITE_PREC)
        for prefix, tol in (
            ("origin", mpf("1e-10")),
            ("interior", mpf("1e-8")),
            ("exterior", mpf("1e-8")),
        ):
            err = report.worst(prefix)
            if not err <= tol:
                failures.append(
                    f"r={r_text} {prefix}: |error| = {mp.nstr(err, 6)} "
                    f"> {mp.nstr(tol, 3)}"
                )
        leja = weighted_leja(r, 128, 2048, SUITE_PREC)
        with workprec(op_precision(SUITE_PREC, leja.robin_estimate, r)):
            target = (r + 1) / 2
            rel = abs(leja.robin_estimate - target) / target
        if not rel <= mpf("0.05"):
            failures.append(f"r={r_text} leja: relative gap {mp.nstr(rel, 5)}")
    assert not failures, "; ".join(failures)


def test_criterion_3_laguerre_identities():
    checks = suite_laguerre(256)
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failures, "; ".join(failures)


def test_criterion_4_rootfinder_vieta():
    schedules = (
        ("generic", make_schedule("generic", c=ap_real("0.1", 64))),
        ("exponential", make_schedule("exponential", r=ap_real("0.5", 64))),
        ("superexponential", make_schedule("superexponential")),
    )
    failures = []
    for name, sched in schedules:
        for n in (10, 30, 60):
            prec = sched.precision_bits(n)
            alpha = sched.alpha_at(n)
            zs = contracted_zeros(n, alpha, prec)
            coeff = monic_rescaled(LaguerreSpec(n, alpha, n), prec)
            with workprec(op_precision(prec, alpha, *zs.zeros)):
                bound = mpf(2) ** -(prec // 4)
                res_tol = mpf(2) ** -(prec // 2)
                mean_target = (n + alpha) / n
                rel_sum = abs(fsum(zs.zeros) / n - mean_target) / abs(mean_target)
                c0 = coeff.coeffs[0]
                prod_target = c0 if n % 2 == 0 else -c0
                rel_prod = abs(fprod(zs.zeros) - prod_target) / abs(prod_target)
                worst_res = max(zs.residuals)
            label = f"{name} n={n}"
            if not rel_sum < bound:
                failures.append(f"{label}: sum residual {mp.nstr(rel_sum, 5)}")
            if not rel_prod < bound:
                failures.append(f"{label}: product residual {mp.nstr(rel_prod, 5)}")
            if not worst_res <= res_tol:
                failures.append(f"{label}: root residual {mp.nstr(worst_res, 5)}")
            if not zs.sweep_bits < prec:  # swept at the roots' condition
                failures.append(f"{label}: swept at {zs.sweep_bits} bits")
    triple = find_roots(monic_rescaled(LaguerreSpec(3, mpf(-3), 3), 128), 128)
    assert triple.origin_multiplicity == 3
    assert not failures, "; ".join(failures)


def test_criterion_5_figure_two_regression():
    t0 = time.monotonic()
    alpha = ap_real("-60.1", 512)
    zs = contracted_zeros(60, alpha, 512)
    assert len(zs.zeros) == 60
    assert zs.origin_multiplicity == 0
    with workprec(op_precision(512, *zs.zeros)):
        mean = fsum(zs.zeros) / 60
        assert abs(mean - mpf(-1) / 600) <= mpf(2) ** -64
    report = zero_distribution_report(60, alpha, M_curve=512, precision_bits=512)
    # regression thresholds pinned from the first verified build
    assert report.level_deviation <= mpf("0.013")
    assert report.ks_theta <= mpf("0.011")
    assert time.monotonic() - t0 < 60.0


def test_criterion_6_figure_three_level(tmp_path):
    alpha = ap_real("-59.99999", 512)
    pd = param_decomposition(60, alpha, 512)
    with workprec(528):
        # r_eff must equal -log(dist)/n for the realized dist, and that
        # value is (1/12) log 10 up to the rounding of alpha itself
        assert abs(pd.r_eff - (-mp.log(pd.dist) / 60)) <= mpf(2) ** -500
        assert abs(pd.r_eff - mp.log(10) / 12) <= mpf(2) ** -480
    zs = contracted_zeros(60, alpha, 512)
    median = level_median(zs, 512)
    with workprec(128):
        target = mpf("0.19188")
        assert abs(median - target) / target <= mpf("0.15")
    assert main(["experiment", "--fig", "3", "--out-dir", str(tmp_path)]) == 0
    for suffix in ("zeros.csv", "curve.csv", "report.json"):
        assert (tmp_path / f"fig3_{suffix}").exists()


def test_criterion_7_convergence_trends(monkeypatch):
    sched = make_schedule("generic", c=ap_real("0.1", 64))
    # the sup-norm screen leaves at most 5 full-precision evaluations per report
    calls = []
    evaluate = asymptotics.evaluate

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "evaluate", counted)
    reports = []
    for n in (30, 60, 120):
        calls.clear()
        reports.append(
            zero_distribution_report(
                n, sched.alpha_at(n), M_curve=512, precision_bits=sched.precision_bits(n)
            )
        )
        assert len(calls) <= 5
    for a, b in zip(reports, reports[1:]):
        assert b.ks_theta < a.ks_theta
        assert b.origin_gap < a.origin_gap
        for k in range(1, 5):
            assert b.moment_gaps[k] < a.moment_gaps[k]
    sup = make_schedule("superexponential")
    zs = contracted_zeros(40, sup.alpha_at(40), sup.precision_bits(40))
    curve = trace_level_curve(mpf(3), 512, SUITE_PREC)
    with workprec(256):
        z_max = max(abs(z) for z in zs.zeros)
        curve_max = max(abs(z) for z in curve.points)
    assert z_max < curve_max


def test_criterion_8_askey_representation():
    results = (
        askey_check(1, mpf("-0.5"), 0, 0),
        askey_check(0, mpf("-1.25"), mpf("0.5"), ap_real("0.3", 192)),
        askey_check(4, mpf("-4.3"), -4, mpf("0.5")),
    )
    for res in results:
        assert res.abs_error < mpf("1e-6")
