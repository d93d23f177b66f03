"""Working-precision plumbing for mpmath scalars.

All numeric values in this package are mpmath ``mpf``/``mpc`` scalars.
Every operation that does arithmetic takes an explicit ``precision_bits``
argument and runs under ``mp.workprec``.  Two rules hold package-wide:

* precisions below ``MIN_PRECISION_BITS`` (64) are rejected, and
* mixed-precision inputs never degrade: the effective working precision of
  an operation is the maximum of the requested precision and the mantissa
  width of every operand (``op_precision``).

Every real parameter comes in through ``as_real``, and every complex one
through ``as_complex``; both take numbers exactly and refuse text.  A
decimal or complex literal is read only by ``ap_real``/``ap_complex``, at a
stated precision, so that, e.g., ``alpha = -60 + 1e-5`` keeps all of its
information at 512 bits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from mpmath import mp, mpc, mpf

from .errors import InvalidParameter, PrecisionError

MIN_PRECISION_BITS = 64

# Decimal digits carried per bit when formatting output; log10(2) rounded up
# a hair so round-tripping never loses the last bit.
_DIGITS_PER_BIT = 0.301


def check_precision(precision_bits) -> int:
    """Validate a precision request and return it as an int."""
    if not isinstance(precision_bits, int) or isinstance(precision_bits, bool):
        raise PrecisionError(
            f"precision_bits must be an int, got {type(precision_bits).__name__}"
        )
    if precision_bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"precision_bits={precision_bits} below minimum {MIN_PRECISION_BITS}"
        )
    return precision_bits


def as_real(value, name) -> mpf:
    """value as a finite mpf, exactly: an mpf as it is, an int or a float
    without rounding.  InvalidParameter for anything else (a bool, a string,
    a complex number) and for NaN or +-inf; text goes through ap_real."""
    if isinstance(value, (int, float, mpf)) and not isinstance(value, bool):
        x = mp.mpmathify(value)  # lossless for these types; an mpf is kept
        if mp.isfinite(x):
            return x
    raise InvalidParameter(f"need a finite real {name}, got {value!r}")


def as_complex(value, name) -> mpf | mpc:
    """value as a finite mpc or mpf, exactly: an mpc or an mpf as it is, an
    int, a float or a complex without rounding.  InvalidParameter for
    anything else (a bool, a string) and for a NaN or infinite part; text
    goes through ap_complex."""
    if isinstance(value, (int, float, complex, mpf, mpc)) and not isinstance(value, bool):
        z = mp.mpmathify(value)  # lossless for these types; mpf and mpc are kept
        if mp.isfinite(z):
            return z
    raise InvalidParameter(f"need a finite complex {name}, got {value!r}")


@contextmanager
def workprec(precision_bits: int):
    """Context manager running mpmath at a validated binary precision."""
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        yield


def mantissa_bits(x) -> int:
    """Bits of information actually present in an mpf/mpc value."""
    if isinstance(x, mpc):
        return max(mantissa_bits(x.real), mantissa_bits(x.imag))
    if isinstance(x, mpf):
        # _mpf_ = (sign, mantissa, exponent, bit count); special values
        # (0, inf, nan) carry no mantissa.
        return x._mpf_[3]
    return 0


def op_precision(precision_bits: int, *operands) -> int:
    """Effective working precision: requested, but never below any operand."""
    check_precision(precision_bits)
    prec = precision_bits
    for x in operands:
        prec = max(prec, mantissa_bits(x))
    return prec


def ap_real(value, precision_bits: int) -> mpf:
    """Construct an mpf from value (str, int, float, mpf) at given bits;
    InvalidParameter for a literal mpmath cannot read."""
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        try:
            return mpf(value)
        except (TypeError, ValueError):
            raise InvalidParameter(f"cannot read {value!r} as a real number") from None


def ap_complex(value, precision_bits: int, imag=None) -> mpc:
    """Construct an mpc at given bits from a number, a real or complex
    literal ("2", "1.5j", "0.1+0.2j") or a (real, imag) pair;
    InvalidParameter for a literal mpmath cannot read."""
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        try:
            if imag is None:
                return mpc(mp.mpmathify(value))
            return mpc(mpf(value), mpf(imag))
        # mpmath's complex-literal parser raises AttributeError on bad text
        except (TypeError, ValueError, AttributeError):
            raise InvalidParameter(f"cannot read {value!r} as a number") from None


def default_precision(n: int) -> int:
    """Default working precision for degree-n polynomial work.

    Monic contracted coefficients grow like binom(n,k) n^k / k! ~ 2^{3.5 n},
    so 3.5 bits per degree keeps intermediate Horner sums fully resolved.
    """
    return max(128, math.ceil(3.5 * n))


def schedule_precision(n: int, dist_log2) -> int:
    """Working precision for degree n with dist(alpha, S_n) ~ 2^dist_log2.

    Vieta sums of the contracted zeros cancel down to the scale of dist, so
    resolving them needs the degree-driven budget plus ~1.5 bits per bit of
    smallness in dist.
    """
    extra = int(mp.ceil(mpf(3) / 2 * max(0.0, -dist_log2)))
    return default_precision(n) + 64 + extra


def decimal_digits(precision_bits: int) -> int:
    """Decimal digits that reproduce precision_bits of mantissa."""
    return math.ceil(precision_bits * _DIGITS_PER_BIT) + 2


def format_real(x, precision_bits: int) -> str:
    """Deterministic decimal rendering of an mpf at the configured digits."""
    from mpmath import nstr

    if not isinstance(x, mpf):
        with workprec(op_precision(precision_bits, x)):
            x = mpf(x)
    return nstr(x, decimal_digits(precision_bits))
