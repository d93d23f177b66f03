"""Fixed-point ints: conversions, complex products and quotients, e^w, log."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from mpmath.libmp.libelefun import LOG_TAYLOR_PREC

from szegolab.fixed import cdiv, cexp, cmul, gaussian_ints, log, to_fixed, to_mpc


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def test_to_fixed_truncates_and_to_mpc_rounds_once():
    assert to_fixed(mpf("2.75"), 1) == 5 and to_fixed(-2.75, 1) == -5
    assert to_fixed(mpf(3), 4) == 48 and to_fixed(0.0, 1000) == 0
    rng = random.Random(18)
    with mp.workprec(200):
        for _ in range(200):
            f, e = rng.uniform(-4, 4), rng.randrange(-50, 300)
            x = mpf(f) ** 7
            assert to_fixed(x, e) == int(_exact(x) * Fraction(2) ** e)
            assert to_fixed(f, e) == int(Fraction(f) * Fraction(2) ** e)
    for prec in (53, 80, 208):
        with mp.workprec(prec):
            for _ in range(50):
                re, im, e = rng.getrandbits(300) - 2**299, rng.getrandbits(90), rng.randrange(-20, 400)
                assert to_mpc(re, im, e) == mpc(mp.ldexp(re, -e), mp.ldexp(im, -e))


def test_gaussian_ints_are_exact():
    with mp.workprec(120):
        points = [mpc("0.1", "-3"), mpf("1e-20"), mpc(0, "2.5e7"), mpf(0)]
    xs, ys, e = gaussian_ints(points)
    for p, x, y in zip(points, xs, ys):
        assert x * Fraction(2) ** e == _exact(p.real)
        assert y * Fraction(2) ** e == _exact(p.imag)


@pytest.mark.parametrize("F", [88, 236, 556])
def test_complex_product_and_quotient_round_down(F):
    # Each part is the exact value on 2^-F rounded down: below it by less
    # than one unit, never above it.
    rng = random.Random(F)
    for _ in range(300):
        ar, ai, br, bi = (rng.randrange(-(2 << F), 2 << F) for _ in range(4))
        a = (Fraction(ar, 2**F), Fraction(ai, 2**F))
        b = (Fraction(br, 2**F), Fraction(bi, 2**F))
        q = b[0] ** 2 + b[1] ** 2
        prod = (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        quot = ((a[0] * b[0] + a[1] * b[1]) / q, (a[1] * b[0] - a[0] * b[1]) / q)
        for got, want in ((cmul(ar, ai, br, bi, F), prod), (cdiv(ar, ai, br, bi, F), quot)):
            for g, w in zip(got, want):
                assert 0 <= w * 2**F - g < 1


@pytest.mark.parametrize("F", [88, 236, 556, 1116])
def test_fixed_exp_matches_mp_exp(F):
    # The grids of szego._w0 at 80, 208, 528 and 1088 bits.  exp_fixed errs
    # by up to about 14 e^(Re w) units of 2^-F here and cos_sin_fixed by up
    # to about 10, so e^w stays within 32 (1 + e^(Re w)) units; a real w
    # gives an exactly real e^w.
    rng = random.Random(F)
    args = [(rng.uniform(-1.5, 1), rng.uniform(-4, 4)) for _ in range(60)]
    args += [(rng.uniform(-1.5, 1), 0.0) for _ in range(10)] + [(1e-30, -1e-30), (0.0, 3.2)]
    for a, b in args:
        wr, wi = to_fixed(mpf(a), F), to_fixed(mpf(b), F)
        er, ei = cexp(wr, wi, F)
        with mp.workprec(2 * F + 64):
            w = mpc(mp.ldexp(wr, -F), mp.ldexp(wi, -F))
            ref = mp.exp(w) * 2**F
            bound = 32 * (1 + mp.exp(w.real))
            assert abs(er - ref.real) <= bound and abs(ei - ref.imag) <= bound, (a, b)
        if not wi:
            assert ei == 0


@pytest.mark.parametrize(
    "F", [80, 236, 1000, LOG_TAYLOR_PREC - 40, LOG_TAYLOR_PREC, 3000]
)
def test_fixed_log_within_its_bound(F):
    # F + 16 + bits(n) working bits sit below LOG_TAYLOR_PREC for the first
    # four grids at |n| < 2^8 and above it for the last two, so both sides
    # of the split run.  man covers powers of two, mantissas just below a
    # power of two (x near 1) and wide random ones, |n| up to 3000.
    rng = random.Random(F)
    cases = [(1, 0), (1, -1), (3, -2), ((1 << 300) - 1, -300), (1, 2900), (7, -3000)]
    for _ in range(40):
        b = rng.randint(1, 700)
        cases.append((rng.getrandbits(b) | (1 << (b - 1)), rng.randint(-200, 200)))
    for man, exp in cases:
        t = log(man, exp, F)
        with mp.workprec(2 * F + 64):
            ref = mp.log(mp.ldexp(mpf(man), exp)) * 2**F
            assert abs(t - ref) < mpf("1.01"), (man, exp)
