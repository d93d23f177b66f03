"""Fixed-point arithmetic on Python ints.

A real t is held as the int t 2^F on a grid 2^-F that the caller chooses,
a complex number as a pair of such ints.  Below about 1000 bits mpmath's
per-operation overhead, not the bits, sets the cost of an mpf or mpc
operation: at 228 bits an mpc multiply costs about 25 Python-int multiplies
and shifts.  The Aberth sweeps and the Newton polish, residuals and radii
of the zeros (rootfinding), the W_0 iteration of the curve nodes (szego),
the squared distances, block logs and weighted sums of the log potentials
(measures), and the harmonic moments and pullback density of mu_r
(potential) run on these ints.  to_fixed truncates
toward zero, products and quotients round down, so each part errs by less
than one unit of 2^-F; to_mpc rounds ints back to the ambient precision.
"""

from __future__ import annotations

from mpmath import mp, mpc
from mpmath.libmp import from_float, from_man_exp, fzero, mpf_log, round_nearest
from mpmath.libmp.libelefun import (
    LOG_TAYLOR_PREC,
    cos_sin_fixed,
    exp_fixed,
    ln2_fixed,
    log_taylor_cached,
)
from mpmath.libmp.libmpf import lshift


def _shift(t, e) -> int:
    # The raw mpf t = (sign, man, exp, bc) times 2^e, truncated toward zero.
    sign, man, exp, _ = t
    k = exp + e
    v = man << k if k >= 0 else man >> -k
    return -v if sign else v


def to_fixed(x, e) -> int:
    """x 2^e truncated toward zero to an int, for a finite mpf or float x."""
    return _shift(from_float(x) if isinstance(x, float) else x._mpf_, e)


def to_mpc(re, im, e):
    """(re + i im) 2^-e as an mpc, each part rounded once to the ambient
    precision: mpc(mp.ldexp(re, -e), mp.ldexp(im, -e)) at a third of its
    cost."""
    prec = mp.prec
    return mp.make_mpc(
        (from_man_exp(re, -e, prec, round_nearest), from_man_exp(im, -e, prec, round_nearest))
    )


def gaussian_ints(points) -> tuple:
    """(X, Y, e) with points[j] = (X[j] + i Y[j]) 2^e exactly.

    An mpf is man * 2^exp, so e, the least exponent of a nonzero
    coordinate, turns every finite coordinate into an int with no rounding.
    """
    parts = [p._mpc_ if isinstance(p, mpc) else (p._mpf_, fzero) for p in points]
    e = min((c[2] for p in parts for c in p if c[1]), default=0)
    return [_shift(re, -e) for re, _ in parts], [_shift(im, -e) for _, im in parts], e


def cmul(ar, ai, br, bi, F) -> tuple:
    """The product (ar + i ai)(br + i bi) on 2^-F."""
    return (ar * br - ai * bi) >> F, (ar * bi + ai * br) >> F


def cdiv(ar, ai, br, bi, F) -> tuple:
    """The quotient (ar + i ai) / (br + i bi) on 2^-F, for a nonzero divisor."""
    q = br * br + bi * bi
    return ((ar * br + ai * bi) << F) // q, ((ai * br - ar * bi) << F) // q


def cexp(wr, wi, F) -> tuple:
    """e^(wr + i wi) on 2^-F: libmp's exp_fixed(wr) times cos_sin_fixed(wi).

    Both are mpmath's own fixed-point kernels (range reduction by ln 2 and
    pi/2, then Taylor series).  Measured up to 1116 bits, exp_fixed errs by
    at most about 14 e^wr units of 2^-F and cos_sin_fixed by about 10, so
    e^w is within 32 (1 + e^wr) units in each part.  wi = 0 gives an
    exactly real e^w.
    """
    ea = exp_fixed(wr, F)
    if not wi:
        return ea, 0
    c, s = cos_sin_fixed(wi, F)
    return (ea * c) >> F, (ea * s) >> F


def log(man, exp, F) -> int:
    """log(man 2^exp) on 2^-F, for an int man > 0.

    With man 2^exp = x 2^n, x = man / 2^b in [1/2, 1), the log is taken on
    2^-wp, wp = F + 16 + bits(n), as mpf_log takes it: libmp's
    log_taylor_cached(x) + n ln2_fixed up to LOG_TAYLOR_PREC working bits,
    mpf_log itself above.  Cutting x to 2^-wp moves its log by at most two
    units of 2^-wp; log_taylor_cached cuts its quotients u and v and each of
    its about wp/32 series terms once, so it errs by at most wp/8 + 8 more
    (measured: 76 at 2500 bits), and ln2_fixed by less than one, scaled by
    |n|.  mpf_log rounds to wp bits and the cut to 2^-wp adds a unit, in all
    2 |n| + 3 units.  Either error is below 2^-9 units of 2^-F, and the last
    shift rounds down by less than one, so the result errs by less than
    1.01 units of 2^-F.
    """
    b = man.bit_length()
    n = exp + b
    wp = F + 16 + n.bit_length()
    if wp <= LOG_TAYLOR_PREC:
        t = log_taylor_cached(lshift(man, wp - b), wp) + n * ln2_fixed(wp)
    else:
        t = _shift(mpf_log(from_man_exp(man, exp), wp), wp)
    return t >> (wp - F)
