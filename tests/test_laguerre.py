"""Laguerre construction, evaluation, decomposition, and the Askey check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from szegolab import laguerre
from szegolab.errors import DegenerateParameter, InvalidParameter
from szegolab.laguerre import (
    LaguerreSpec,
    askey_check,
    coefficients,
    evaluate,
    evaluate_at_zero,
    monic_rescaled,
    param_decomposition,
    recommended_precision,
)
from szegolab.precision import ap_real, default_precision, op_precision, workprec

from conftest import gap, rel_gap

PREC = 256


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        LaguerreSpec(0, mpf(1), mpf(1))
    with pytest.raises(InvalidParameter):
        LaguerreSpec(True, 0.5, 1)
    with pytest.raises(InvalidParameter):
        LaguerreSpec(3, mpf(1), mpf(0))
    with pytest.raises(InvalidParameter):
        LaguerreSpec(3, "1.5", mpf(1))
    for bad in (mp.inf, -mp.inf, mp.nan, float("inf"), float("nan")):
        with pytest.raises(InvalidParameter):
            LaguerreSpec(3, bad, mpf(1))
    spec = LaguerreSpec(3, 1.5, 2)
    assert spec.alpha == mpf("1.5") and spec.scale == mpf(2)


def test_coefficients_examples():
    with workprec(PREC):
        c = coefficients(LaguerreSpec(2, -3, 1), PREC).coeffs
        assert c == (mpf(1), mpf(1), mpf("0.5"))
        c = coefficients(LaguerreSpec(3, -3, 1), PREC).coeffs
        assert c == (mpf(0), mpf(0), mpf(0), mpf(-1) / 6)
        alpha = mpf("2.75")
        c = coefficients(LaguerreSpec(1, alpha, 1), PREC).coeffs
        assert c == (1 + alpha, mpf(-1))


def test_leading_coefficient_exact():
    rng = random.Random(20260826)
    with workprec(PREC):
        for _ in range(10):
            n = rng.randint(1, 9)
            alpha = ap_real(f"{rng.uniform(-15, 5):.12f}", PREC)
            c = coefficients(LaguerreSpec(n, alpha, 1), PREC).coeffs
            expected = (mpf(-1) ** n) / mp.factorial(n)
            assert c[n] == expected


def test_evaluate_examples():
    assert evaluate(LaguerreSpec(1, mpf("2.5"), 1), 1, PREC) == mpf("2.5")
    assert evaluate(LaguerreSpec(2, -3, 1), 2, PREC) == 5
    assert evaluate(LaguerreSpec(3, -3, 1), 6, PREC) == -36


def test_evaluate_at_zero_examples():
    assert evaluate_at_zero(LaguerreSpec(2, -3, 1), PREC) == 1
    assert evaluate_at_zero(LaguerreSpec(3, -3, 1), PREC) == 0
    assert evaluate_at_zero(LaguerreSpec(1, mpf("-1.5"), 1), PREC) == mpf("-0.5")


def test_evaluate_at_zero_iff_law():
    n = 6
    for k in range(1, n + 1):
        assert evaluate_at_zero(LaguerreSpec(n, -k, 1), PREC) == 0
    for alpha in (mpf("-6.5"), mpf("-0.5"), mpf(2), mpf(-7)):
        assert evaluate_at_zero(LaguerreSpec(n, alpha, 1), PREC) != 0


def test_evaluate_at_zero_matches_evaluate():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(1, 10)
        alpha = ap_real(f"{rng.uniform(-12, 4):.10f}", PREC)
        spec = LaguerreSpec(n, alpha, 1)
        d = gap(evaluate_at_zero(spec, PREC), evaluate(spec, 0, PREC), PREC)
        assert d <= mpf(2) ** (-PREC + 16)


def test_monic_rescaled_examples():
    with workprec(PREC):
        alpha = mpf("0.75")
        c = monic_rescaled(LaguerreSpec(1, alpha, 1), PREC)
        assert c.monic_flag and c.coeffs == (-(1 + alpha), mpf(1))
        c = monic_rescaled(LaguerreSpec(2, -3, 2), PREC)
        assert c.coeffs == (mpf("0.5"), mpf(1), mpf(1))
        c = monic_rescaled(LaguerreSpec(3, -3, 3), PREC)
        assert c.coeffs == (mpf(0), mpf(0), mpf(0), mpf(1))


def test_monic_requires_matching_scale():
    with pytest.raises(InvalidParameter):
        monic_rescaled(LaguerreSpec(3, -3, 2), PREC)


def test_oracle_recurrence_vs_horner():
    # 50 random parameters, 20 random points each, degrees up to 12: the
    # recurrence and Horner on the coefficient list agree to 2^(-prec/2).
    rng = random.Random(424242)
    prec = 128
    tol = mpf(2) ** -(prec // 2)
    for _ in range(50):
        n = rng.randint(1, 12)
        alpha = ap_real(f"{rng.uniform(-15, 5):.12f}", prec)
        spec = LaguerreSpec(n, alpha, 1)
        coeffs = coefficients(spec, prec).coeffs
        with workprec(op_precision(prec, alpha) + 32):
            for _ in range(20):
                z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                direct = mp.polyval(list(reversed(coeffs)), z)
                rec = evaluate(spec, z, prec)
                assert abs(direct - rec) / max(mpf(1), abs(rec)) <= tol


def test_degenerate_parameter_identity():
    # L_n^(-k)(z) = (-z)^k ((n-k)!/n!) L_{n-k}^(k)(z) for 1 <= k <= n; the
    # degree-0 case on the right is the constant 1.
    rng = random.Random(99)
    worst = mpf(0)
    with workprec(PREC):
        for n in range(1, 11):
            for k in range(1, n + 1):
                ratio = mp.factorial(n - k) / mp.factorial(n)
                for _ in range(2):
                    z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    lhs = evaluate(LaguerreSpec(n, -k, 1), z, PREC)
                    low = (
                        mpf(1)
                        if k == n
                        else evaluate(LaguerreSpec(n - k, k, 1), z, PREC)
                    )
                    worst = max(worst, abs(lhs - (-z) ** k * ratio * low))
    assert worst < mpf("1e-20")


def test_partial_sum_coefficients_exact():
    with workprec(PREC):
        for n in range(1, 21):
            c = coefficients(LaguerreSpec(n, -(n + 1), 1), PREC).coeffs
            sign = mpf(1) if n % 2 == 0 else mpf(-1)
            fact = mpf(1)
            for k in range(n + 1):
                if k > 0:
                    fact *= k
                assert c[k] == sign / fact


def test_param_decomposition_examples():
    pd = param_decomposition(60, ap_real("-60.1", 256), 256)
    assert pd.k_n == 60 and pd.h_n == 60
    assert gap(pd.dist, ap_real("0.1", 256), 256) <= mpf(2) ** -250
    with workprec(256):
        assert gap(pd.r_eff, mp.log(10) / 60, 256) <= mpf(2) ** -245

    alpha = ap_real("-59.99999", 512)
    pd = param_decomposition(60, alpha, 512)
    assert pd.k_n == 59
    assert gap(pd.dist, ap_real("1e-5", 512), 512) <= mpf(2) ** -500
    with workprec(512):
        assert gap(pd.r_eff, mp.log(10) / 12, 512) <= mpf(2) ** -490

    pd = param_decomposition(60, mpf("-30.5"), 256)
    assert pd.k_n == 30 and pd.delta_n == mpf("0.5") and pd.dist == mpf("0.5")
    # midway tie resolves to the smaller |s|
    assert pd.h_n == 30


def test_param_decomposition_reconstruction_exact():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(2, 80)
        alpha = ap_real(f"{rng.uniform(-90, 10):.12f}", 192)
        try:
            pd = param_decomposition(n, alpha, 192)
        except DegenerateParameter:
            continue
        with workprec(256):
            assert -pd.k_n - pd.delta_n == alpha


def test_param_decomposition_rejects_degenerate():
    for alpha in (-1, -3, -5):
        with pytest.raises(DegenerateParameter):
            param_decomposition(5, alpha, 128)
    # -6 is outside S_5 and fine
    assert param_decomposition(5, -6, 128).dist == 1


def test_degree_must_be_an_int_not_a_bool():
    for bad in (True, 1.0, 0):
        with pytest.raises(InvalidParameter):
            param_decomposition(bad, mpf("-1.5"))
        with pytest.raises(InvalidParameter):
            recommended_precision(bad, mpf("0.5"))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-80.0, max_value=20.0))
def test_param_decomposition_dist_matches_brute_force(alpha_f):
    n = 60
    alpha = mpf(alpha_f)
    try:
        pd = param_decomposition(n, alpha, 128)
    except DegenerateParameter:
        return
    with workprec(128):
        brute = min(abs(alpha + s) for s in range(1, n + 1))
    assert gap(pd.dist, brute, 128) == 0


def test_recommended_precision_grows_with_closeness():
    base = recommended_precision(60, mpf("-60.5"))
    near = recommended_precision(60, ap_real("-59.99999", 512))
    assert near > base
    assert base >= default_precision(60) + 64
    # schedule_precision at dist(alpha, S_n), floored at alpha's bits + 64
    assert base == 276
    assert recommended_precision(60, mpf("-60.1")) == 279
    assert near == 512 + 64
    assert recommended_precision(5, -3) == default_precision(5) + 64  # in S_n
    assert recommended_precision(10, mpf("0.5")) == default_precision(10) + 64


def test_askey_examples():
    # (n=1, a=-0.5, b=0, x=0): both sides 1/2
    res = askey_check(1, mpf("-0.5"), 0, 0)
    assert gap(res.lhs, mpf("0.5"), 128) <= mpf(2) ** -100
    assert res.abs_error < mpf("1e-6")
    # (n=0): both sides e^(-x)
    x = ap_real("0.3", 192)
    res = askey_check(0, mpf("-1.25"), mpf("0.5"), x)
    with workprec(256):
        assert gap(res.lhs, mp.e ** (-x), 192) <= mpf(2) ** -180
    assert res.abs_error < mpf("1e-6")
    # (n=4, a=-4.3, b=-4, x=0.5)
    res = askey_check(4, mpf("-4.3"), -4, mpf("0.5"))
    assert res.abs_error < mpf("1e-6")
    lhs, rhs, err = res
    assert (lhs, rhs, err) == (res.lhs, res.rhs, res.abs_error)


def test_askey_validation():
    with pytest.raises(InvalidParameter):
        askey_check(2, mpf("0.5"), mpf("0.5"), 0)
    with pytest.raises(InvalidParameter):
        askey_check(2, 0, 1, -1)
    with pytest.raises(InvalidParameter):
        askey_check(-1, 0, 1, 0)
    with pytest.raises(InvalidParameter):
        askey_check(True, mpf("-0.5"), 0, 0)


@pytest.mark.parametrize(
    "n, alpha, beta, x",
    [
        (1, mpf("-0.5"), 0, 0),
        (0, mpf("-1.25"), mpf("0.5"), ap_real("0.3", 192)),
        (4, mpf("-4.3"), -4, mpf("0.5")),
        (3, mpf("0.2"), mpf("7.9"), mpf("2.0")),
        (20, mpf("0.5"), mpf("2.25"), mpf("1.0")),
    ],
)
def test_askey_identity_holds_to_working_precision(n, alpha, beta, x):
    # Criterion 8's cases, a wide beta - alpha and a high degree: both sides
    # agree to half of the default 192 bits.
    res = askey_check(n, alpha, beta, x)
    assert res.abs_error <= mpf(2) ** -96 * max(1, abs(res.lhs))


def _tanh_sinh_rhs(n, alpha, beta, x, bits):
    """The right side by quadrature: (1/Gamma(s)) int_x^inf (t-x)^(s-1) e^(-t) L_n^(b)(t) dt.

    On [x, x+1] the substitution u = (t-x)^s absorbs the algebraic
    singularity; [x+1, inf) is integrated as it stands.  Both use mpmath's
    tanh-sinh rule, which needs no cutoff on a half-line (Takahasi & Mori 1974).
    """
    with workprec(bits):
        s = beta - alpha

        def g(t):
            return mp.e ** (-t) * laguerre._recurrence(n, beta, t)

        i_near = mp.quad(lambda u: g(x + u ** (1 / s)), [0, 1]) / s
        i_far = mp.quad(lambda t: (t - x) ** (s - 1) * g(t), [x + 1, mp.inf])
        return (i_near + i_far) / mp.gamma(s)


_ORACLE_CASES = [
    (1, mpf("-0.5"), mpf(0), mpf(0)),
    (0, mpf("-1.25"), mpf("0.5"), ap_real("0.3", 192)),
    (4, mpf("-4.3"), mpf(-4), mpf("0.5")),
    (20, mpf("0.5"), mpf("2.25"), mpf("1.0")),
]


@pytest.mark.parametrize("n, alpha, beta, x", _ORACLE_CASES)
def test_askey_exact_side_agrees_with_tanh_sinh(n, alpha, beta, x):
    # Criterion 8's cases and a high degree: the closed-form right side
    # against an independent quadrature of the integral, at the check's
    # own working precision.
    res = askey_check(n, alpha, beta, x)
    bits = max(192, default_precision(max(n, 1))) + 32
    oracle = _tanh_sinh_rhs(n, alpha, beta, x, bits)
    with workprec(bits):
        assert abs(res.rhs - oracle) <= mpf(2) ** -96 * max(1, abs(res.lhs))


# A generic n = 4 case: every coefficient of L_4^(beta) is nonzero.
_MUTATION_CASE = (4, mpf("0.25"), mpf("1.75"), mpf("0.5"))


def _askey_fails(res):
    return res.abs_error > mpf(2) ** -96 * max(1, abs(res.lhs))


def test_askey_check_catches_a_perturbed_recurrence(monkeypatch):
    def recurrence(n, alpha, w):
        # laguerre._recurrence with (k + alpha) moved by 2^-60
        prev, cur = mpf(1), 1 + alpha - w
        for k in range(1, n):
            shifted = k + alpha + mp.ldexp(1, -60)
            prev, cur = cur, ((2 * k + 1 + alpha - w) * cur - shifted * prev) / (k + 1)
        return cur

    assert not _askey_fails(askey_check(*_MUTATION_CASE))
    monkeypatch.setattr(laguerre, "_recurrence", recurrence)
    assert _askey_fails(askey_check(*_MUTATION_CASE))


@pytest.mark.parametrize("j", range(5))
def test_askey_check_catches_a_perturbed_coefficient(monkeypatch, j):
    scaled = laguerre._scaled_coefficients

    def perturbed(n, B, one):
        # coefficient j of L_n^(beta) times (1 + 2^-60), exactly
        d, den = scaled(n, B, one)
        d = [v << 60 for v in d]
        d[j] += d[j] >> 60
        return d, den << 60

    monkeypatch.setattr(laguerre, "_scaled_coefficients", perturbed)
    assert _askey_fails(askey_check(*_MUTATION_CASE))


def test_askey_at_degree_zero_is_e_to_minus_x_exactly():
    x = ap_real("0.3", 192)
    res = askey_check(0, mpf("-1.25"), mpf("0.5"), x)
    with workprec(192 + 32):
        assert res.rhs == res.lhs == mp.e ** (-x)
    assert res.abs_error == 0


def test_askey_refuses_inputs_past_the_stated_spread():
    # The exact ints span D bits, from the last bit of the finest input to
    # the top of the largest; D may exceed the working precision (64 here)
    # by at most 2^16 bits.
    limit = 64 + 2**16
    res = askey_check(1, mpf("-0.5"), mpf(0), mp.ldexp(1, 1 - limit), 64)
    assert not _askey_fails(res)
    for x in (mp.ldexp(1, -limit), mp.ldexp(1, -(2**24)), mp.ldexp(1, limit)):
        with pytest.raises(InvalidParameter, match="span"):
            askey_check(1, mpf("-0.5"), mpf(0), x, 64)
    with pytest.raises(InvalidParameter, match="span"):
        askey_check(1, mp.ldexp(1, -limit), mpf(1), mpf(0), 64)
