"""Fixed-point arithmetic on Python ints.

A real t is held as the int t 2^F on a grid 2^-F that the caller chooses,
a complex number as a pair of such ints.  Below about 1000 bits mpmath's
per-operation overhead, not the bits, sets the cost of an mpf or mpc
operation: at 228 bits an mpc multiply costs about 25 Python-int multiplies
and shifts.  The Aberth sweeps and zero radii (rootfinding), the W_0
iteration of the curve nodes (szego) and the squared distances of the log
potentials (measures) run on these ints.  to_fixed truncates toward zero,
products and quotients round down, so each part errs by less than one unit
of 2^-F; to_mpc rounds ints back to the ambient precision.
"""

from __future__ import annotations

from mpmath import mp, mpc
from mpmath.libmp import from_float, from_man_exp, fzero, round_nearest
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed


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
