"""Shared helpers for the test suite.

Assertions on mpmath scalars must not run at the default 53-bit ambient
precision: arithmetic rounds every operand to the ambient context first, so
a difference of two 192-bit values computed at 53 bits reports rounding
noise instead of the true gap.  All comparisons go through gap(), which
lifts the working precision to the operands' mantissa widths.
"""

import functools

from mpmath import mp

from szegolab.measures import DiscreteMeasure
from szegolab.potential import graded_mu_r
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.szego import trace_level_curve


def gap(a, b, precision_bits: int = 128):
    """|a - b| computed at a precision that cannot truncate either operand."""
    with workprec(op_precision(precision_bits, a, b)):
        return abs(a - b)


def rel_gap(a, b, precision_bits: int = 128):
    """|a - b| / max(1, |b|) at operand-safe precision."""
    with workprec(op_precision(precision_bits, a, b)):
        return abs(a - b) / max(mp.mpf(1), abs(b))


# (weights, r, M) cases for the reference checks of the fixed-point kernels:
# every r of the checks with both weightings, each weighting at every M.
KERNEL_CASES = [
    ("graded", "0", 4096),
    ("graded", "1e-70", 1024),
    ("graded", "0.3", 16),
    ("graded", "1", 1024),
    ("graded", "22", 16),
    ("graded", "800", 1024),
    ("equal", "0", 1024),
    ("equal", "1e-70", 16),
    ("equal", "0.3", 4096),
    ("equal", "1", 16),
    ("equal", "22", 1024),
    ("equal", "800", 4096),
]
KERNEL_IDS = ["-".join(map(str, case)) for case in KERNEL_CASES]


@functools.lru_cache(maxsize=None)
def kernel_case(weights: str, r: str, M: int):
    """(curve, measure) at 192 bits: graded_mu_r, or the traced curve with
    equal weights 1/M as discretize_mu_r builds it."""
    bits = 192
    level = ap_real(r, bits)
    if weights == "graded":
        return graded_mu_r(level, M, bits)
    curve = trace_level_curve(level, M, bits)
    with workprec(bits):
        w = mp.mpf(1) / M
    return curve, DiscreteMeasure(points=curve.points, weights=(w,) * M)


def half_ulp(x, bits: int):
    """Half a unit in the last place of the mpf x rounded to bits; 0 at 0."""
    _, man, exp, bc = x._mpf_
    return mp.ldexp(1, exp + bc - bits - 1) if man else mp.mpf(0)
