"""Parameter schedules, convergence diagnostics, and extremality gaps."""

from dataclasses import replace

import pytest
from mpmath import mp, mpf

from szegolab import asymptotics, szego
from szegolab.asymptotics import (
    ks_uniform_theta,
    level_median,
    make_schedule,
    origin_extremality,
    schedule_precision,
    supnorm_extremality,
    zero_distribution_report,
)
from szegolab.errors import InvalidParameter, InvalidSchedule
from szegolab.laguerre import LaguerreSpec, evaluate, param_decomposition
from szegolab.precision import (
    ap_real,
    default_precision,
    mantissa_bits,
    op_precision,
    workprec,
)
from szegolab.rootfinding import ZeroSet, contracted_zeros
from szegolab.szego import trace_level_curve

from conftest import gap


def test_make_schedule_validation():
    with pytest.raises(InvalidSchedule):
        make_schedule("linear")
    with pytest.raises(InvalidSchedule):
        make_schedule("generic")
    with pytest.raises(InvalidSchedule):
        make_schedule("generic", c=mpf("0.6"))
    with pytest.raises(InvalidSchedule):
        make_schedule("generic", c=mpf(0))
    with pytest.raises(InvalidSchedule):
        make_schedule("exponential")
    # r = 0 is refused too: e^(-r n) < 1/2 would never hold at any n
    for bad in (mpf("-0.5"), 0, mpf(0)):
        with pytest.raises(InvalidSchedule):
            make_schedule("exponential", r=bad)
    for bad in (mp.inf, mp.nan):
        with pytest.raises(InvalidSchedule):
            make_schedule("exponential", r=bad)
    with pytest.raises(InvalidSchedule):
        make_schedule("superexponential", c=mpf("0.1"))
    for bad in ("abc", True):
        with pytest.raises(InvalidSchedule):
            make_schedule("generic", c=bad)
        with pytest.raises(InvalidSchedule):
            make_schedule("exponential", r=bad)
    # a parameter of another kind is refused, as superexponential does
    with pytest.raises(InvalidSchedule):
        make_schedule("generic", c=0.1, r="abc")
    with pytest.raises(InvalidSchedule):
        make_schedule("exponential", r=0.5, c=True)
    # an mpf passes untouched; text is read only through ap_real
    c = ap_real("0.1", 256)
    assert make_schedule("generic", c=c).c is c
    with pytest.raises(InvalidSchedule):
        make_schedule("exponential", r="0.5")
    assert make_schedule("exponential", r=ap_real("0.5", 64)).r == mpf("0.5")


def test_alpha_at_rejects_a_non_int_degree():
    sched = make_schedule("generic", c=0.1)
    for bad in (True, 1.0, 0):
        with pytest.raises(InvalidSchedule):
            sched.alpha_at(bad)


def test_generic_schedule_alpha_exact():
    c = ap_real("0.1", 64)
    sched = make_schedule("generic", c=c)
    alpha = sched.alpha_at(60)
    with workprec(op_precision(sched.precision_bits(60), alpha, c)):
        assert alpha == -60 - c
    assert sched.r_limit() == 0
    with workprec(64):
        assert gap(sched.dist_log2(60), mp.log(c, 2), 64) <= mpf(2) ** -50


def test_exponential_schedule():
    sched = make_schedule("exponential", r=mpf("0.5"))
    alpha = sched.alpha_at(30)
    with workprec(sched.precision_bits(30)):
        expected = -30 + mp.e ** mpf("-15")
        assert gap(alpha, expected, sched.precision_bits(30)) <= mpf(2) ** -200
    assert sched.r_limit() == mpf("0.5")
    # n too small to separate alpha from the degenerate set by less
    # than half a unit
    slow = make_schedule("exponential", r=mpf("0.001"))
    with pytest.raises(InvalidSchedule):
        slow.alpha_at(10)


def test_superexponential_schedule():
    sched = make_schedule("superexponential")
    assert sched.r_limit() == mp.inf
    alpha = sched.alpha_at(6)
    prec = sched.precision_bits(6)
    with workprec(prec):
        assert gap(alpha, -6 + mp.e ** (-mpf(36)), prec) <= mpf(2) ** -(prec - 20)
    # dist_log2 tracks the actual decomposition
    pd = param_decomposition(6, alpha, prec)
    with workprec(64):
        assert gap(mp.log(pd.dist, 2), sched.dist_log2(6), 64) <= mpf("1e-6")


def test_schedule_precision_grows_with_smallness():
    base = schedule_precision(30, 0.0)
    assert base == default_precision(30) + 64
    assert schedule_precision(30, -100.0) == base + 150
    sched = make_schedule("superexponential")
    assert sched.precision_bits(20) >= default_precision(20) + 64 + 400


def test_ks_uniform_grid_is_one_over_n():
    n = 40
    curve = trace_level_curve(mpf(1), n, 192)
    ks = ks_uniform_theta(curve.points, 192)
    with workprec(128):
        assert gap(ks, mpf(1) / n, 128) <= mpf("1e-20")


def test_ks_clustered_is_one():
    zeros = tuple(mp.mpc("0.5") for _ in range(16))
    ks = ks_uniform_theta(zeros, 128)
    assert ks >= mpf("0.9")


def test_origin_extremality_exact_and_generic():
    # alpha = -(n + 1): dist = 1, r_eff = 0, and |L_n(0)|^(1/n) = 1 exactly
    assert origin_extremality(5, mpf(-6), 192) == 0
    # L_3^(-3.5)(0) = (-2.5)(-1.5)(-0.5)/6 = -0.3125, dist = 0.5
    expected = None
    with workprec(192):
        r_eff = -mp.log(mpf("0.5")) / 3
        expected = abs(mpf("0.3125") ** (mpf(1) / 3) - mp.e ** (-r_eff))
    got = origin_extremality(3, mpf("-3.5"), 192)
    assert gap(got, expected, 192) <= mpf(2) ** -150


def _scan_case(M=128):
    """n = 20, alpha = -20.25 at 256 bits: zeros, the curve Gamma_(r_eff) with
    M nodes, and the unscreened scan over every node but 0, 1 and M - 1."""
    n, alpha = 20, ap_real("-20.25", 256)
    pd = param_decomposition(n, alpha, 256)
    curve = trace_level_curve(pd.r_eff, M, 256)
    zs = contracted_zeros(n, alpha, 256)
    spec = LaguerreSpec.contracted(n, alpha)
    with workprec(op_precision(256, spec.alpha)):
        full = max(
            mp.e ** (-mp.re(z)) * abs(evaluate(spec, z, 256)) ** (mpf(1) / n)
            for j, z in enumerate(curve.points)
            if j not in (0, 1, M - 1)
        )
    return zs, curve, pd, full


def test_supnorm_extremality_below_level():
    zs, curve, pd, _ = _scan_case()
    val = supnorm_extremality(zs, curve, 256)
    with workprec(256):
        assert val < mp.e ** (-pd.r_eff)
        assert val > mpf("0.5") * mp.e ** (-pd.r_eff)


def _count_evaluations(monkeypatch):
    calls = []
    real = asymptotics.evaluate

    def evaluate(spec, z, precision_bits=None):
        calls.append(z)
        return real(spec, z, precision_bits)

    monkeypatch.setattr(asymptotics, "evaluate", evaluate)
    return calls


def test_supnorm_extremality_scans_half_a_mirrored_curve(monkeypatch):
    M = 128
    zs, curve, _, full = _scan_case(M)
    calls = _count_evaluations(monkeypatch)
    half = supnorm_extremality(zs, curve, 256)
    # the screen evaluates only nodes that can hold the maximum, each once
    evaluated = [curve.points.index(z) for z in calls]
    assert all(2 <= j <= M // 2 for j in evaluated)
    assert len(set(evaluated)) == len(evaluated) < M / 8
    assert half == full


def test_supnorm_extremality_unbounded_screen_evaluates_every_node(monkeypatch):
    # An infinite unit roundoff makes every bound infinite: every node
    # 2 .. M/2 is evaluated once, and the value is the screened one.
    M = 128
    zs, curve, _, _ = _scan_case(M)
    screened = supnorm_extremality(zs, curve, 256)
    monkeypatch.setattr(szego, "_SHADOW_U", mp.inf)
    calls = _count_evaluations(monkeypatch)
    assert supnorm_extremality(zs, curve, 256) == screened
    assert [curve.points.index(z) for z in calls] == list(range(2, M // 2 + 1))


@pytest.mark.parametrize("radii", ["overlapping", "infinite", "none"])
def test_supnorm_extremality_without_certified_disks_scans_every_node(
    radii, monkeypatch
):
    # Disks that overlap, a radius that is infinite, or a hand-built set with
    # no radii certify nothing: every node 2 .. M/2 is evaluated exactly once
    # and the value is the full scan's to the last bit.
    M = 128
    zs, curve, _, full = _scan_case(M)
    if radii == "overlapping":
        zs = replace(zs, radii=(mpf(1),) * len(zs))
    elif radii == "infinite":
        zs = replace(zs, radii=(mp.inf,) + zs.radii[1:])
    else:
        zs = ZeroSet(zs.zeros, zs.residuals, zs.origin_multiplicity, zs.spec)
    calls = _count_evaluations(monkeypatch)
    assert supnorm_extremality(zs, curve, 256) == full
    assert [curve.points.index(z) for z in calls] == list(range(2, M // 2 + 1))


def test_supnorm_extremality_needs_contracted_zeros():
    curve = trace_level_curve(mpf(1), 16, 128)
    for spec in (None, LaguerreSpec(4, mpf("-4.5"), mpf(1))):
        with pytest.raises(InvalidParameter):
            supnorm_extremality(ZeroSet((), (), 0, spec), curve, 128)


def _schedule_point(kind, n, **params):
    sched = make_schedule(kind, **{k: mpf(v) for k, v in params.items()})
    return sched.alpha_at(n), sched.precision_bits(n)


@pytest.mark.parametrize(
    "n, point, tiny",
    [
        (60, lambda: (ap_real("-60.1", 512), 512), False),  # fig 2
        (30, lambda: _schedule_point("generic", 30, c="0.1"), False),
        (40, lambda: _schedule_point("exponential", 40, r="0.87"), False),
        (22, lambda: _schedule_point("superexponential", 22), True),
        (30, lambda: _schedule_point("superexponential", 30), True),
        (120, lambda: _schedule_point("generic", 120, c="0.1"), False),
    ],
    ids=[
        "fig2-60", "generic-30", "exponential-40", "superexp-22", "superexp-30",
        "generic-120",
    ],
)
def test_supnorm_screen_encloses_every_full_precision_value(n, point, tiny):
    alpha, bits = point()
    M = 64
    pd = param_decomposition(n, alpha, bits)
    trace_bits = min(bits, 512)
    with workprec(trace_bits):
        r_trace = +pd.r_eff
    curve = trace_level_curve(r_trace, M, trace_bits)
    nodes = curve.points[2 : M // 2 + 1]
    zs = contracted_zeros(n, alpha, bits)
    s, lower, upper = asymptotics._log_bounds(zs, nodes, curve.r, bits)
    assert all(hi < mp.inf for hi in upper)  # the disks are certified disjoint
    spec = zs.spec
    prec = op_precision(bits, spec.alpha)
    with workprec(prec):
        values = [
            mp.e ** (-mp.re(z)) * abs(evaluate(spec, z, bits)) ** (mpf(1) / n)
            for z in nodes
        ]
    with workprec(prec + 64):
        lam = n * mp.log(n) - mp.log(mp.factorial(n)) + s * n * mp.log(2)
        for v, lo, hi in zip(values, lower, upper):
            assert mpf(lo) <= mp.log(v) - lam / n <= mpf(hi)
        # whether every radius over 2^s lies below double range; the radii are
        # rounded up, so none is 0
        scaled = [mp.ldexp(r, -s) for r in zs.radii]
        assert all(r > 0 for r in scaled)
        assert all(r < mpf(2) ** -1022 for r in scaled) == tiny
    assert supnorm_extremality(zs, curve, bits) == max(values)


def test_zero_distribution_report_fields():
    n = 20
    alpha = ap_real("-20.25", 256)
    report = zero_distribution_report(n, alpha, M_curve=256, precision_bits=256)
    assert report.n == n
    with workprec(256):
        assert gap(report.r_eff, -mp.log(mpf("0.25")) / 20, 256) <= mpf(2) ** -240
    assert report.moment_gaps[0] == 0
    assert report.moment_gaps[1] <= mpf("0.05")
    assert report.level_deviation <= mpf("0.1")
    assert report.ks_theta <= mpf("0.1")
    assert report.supnorm_gap < 0
    assert report.origin_gap <= mpf("0.2")


def test_zero_distribution_report_traces_at_the_cap():
    # r_eff carries the schedule's 616 bits; the curve is traced at
    # 512 + 16 working bits all the same.
    n = 14
    sched = make_schedule("superexponential")
    bits = sched.precision_bits(n)
    assert bits > 512
    report = zero_distribution_report(n, sched.alpha_at(n), 64, bits)
    assert mantissa_bits(report.r_eff) > 512
    with workprec(512):
        assert report.curve.r == +report.r_eff
    assert max(mantissa_bits(z) for z in report.curve.points) <= 512 + 16


def test_level_median_on_synthetic_curve_zeros():
    r = mpf(1)
    curve = trace_level_curve(r, 32, 192)
    zs = ZeroSet(
        zeros=tuple(curve.points),
        residuals=(mpf(0),) * len(curve.points),
        origin_multiplicity=0,
    )
    med = level_median(zs, 192)
    assert gap(med, r, 192) <= mpf("1e-12")


def test_empty_zero_sets_are_refused():
    # an empty set has no median, and its KS distance is no perfect fit
    with pytest.raises(InvalidParameter):
        level_median(ZeroSet((), (), 0))
    with pytest.raises(InvalidParameter):
        ks_uniform_theta([])


def test_level_median_on_real_zeros():
    n = 30
    alpha = ap_real("-30.1", 320)
    zs = contracted_zeros(n, alpha, 320)
    pd = param_decomposition(n, alpha, 320)
    med = level_median(zs, 320)
    with workprec(128):
        assert abs(med - pd.r_eff) / pd.r_eff <= mpf("0.5")
