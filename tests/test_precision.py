"""Precision plumbing: validation, contexts, and mixed-precision arithmetic."""

import pytest
from mpmath import mp, mpc, mpf

from szegolab.asymptotics import make_schedule, origin_extremality
from szegolab.errors import (
    ConfigurationError,
    InvalidParameter,
    InvalidSchedule,
    PrecisionError,
)
from szegolab.laguerre import (
    CoeffList,
    LaguerreSpec,
    askey_check,
    param_decomposition,
    recommended_precision,
)
from szegolab.potential import (
    discretize_mu_r,
    graded_mu_r,
    verify_balayage,
    weighted_leja,
)
from szegolab.precision import (
    MIN_PRECISION_BITS,
    ap_complex,
    ap_real,
    as_complex,
    as_real,
    check_precision,
    decimal_digits,
    default_precision,
    format_real,
    mantissa_bits,
    op_precision,
    workprec,
)
from szegolab.rootfinding import contracted_zeros, find_roots
from szegolab.szego import curve_point, real_crossings, trace_level_curve

from conftest import gap


def test_check_precision_accepts_minimum():
    assert check_precision(MIN_PRECISION_BITS) == 64
    assert check_precision(512) == 512


def test_check_precision_rejects_low_and_non_int():
    with pytest.raises(PrecisionError):
        check_precision(32)
    with pytest.raises(PrecisionError):
        check_precision("128")
    with pytest.raises(PrecisionError):
        check_precision(True)
    with pytest.raises(PrecisionError):
        check_precision(127.0)


def test_precision_error_is_configuration_error():
    assert issubclass(PrecisionError, ConfigurationError)


def test_workprec_sets_and_restores():
    outside = mp.prec
    with workprec(300):
        assert mp.prec == 300
    assert mp.prec == outside
    with pytest.raises(PrecisionError):
        with workprec(16):
            pass


def test_mantissa_bits():
    assert mantissa_bits(ap_real("0.1", 192)) == 192
    assert mantissa_bits(mpf(0)) == 0
    assert mantissa_bits(42) == 0
    z = ap_complex("0.1", 256, imag="0.2")
    assert mantissa_bits(z) == 256


def test_op_precision_lifts_to_operands():
    x = ap_real("0.1", 320)
    assert op_precision(64, x) == 320
    assert op_precision(400, x) == 400
    assert op_precision(64, 3, 0.5) == 64


def test_ap_real_parses_at_requested_bits():
    a = ap_real("0.1", 64)
    b = ap_real("0.1", 128)
    assert a != b
    assert mantissa_bits(b) == 128
    assert ap_real(3, 64) == 3


def test_ap_complex_forms():
    z = ap_complex("1.5", 96, imag="-2.25")
    assert z.real == mpf("1.5") and z.imag == mpf("-2.25")
    w = ap_complex(mpc(1, 1), 96)
    assert w == mpc(1, 1)


def test_mixed_precision_subtraction_keeps_information():
    # The same decimal parsed at two precisions differs by ~2^-65.  At the
    # default 53-bit ambient context the subtraction would round both
    # operands first and report garbage; op_precision lifts to 256 bits and
    # resolves the true gap.
    a = ap_real("0.123456789123456789", 256)
    b = ap_real("0.123456789123456789", 64)
    assert op_precision(64, a, b) == 256
    d = gap(a, b, 64)
    assert mpf(0) < d < mpf(2) ** -60


def test_default_precision_floor_and_growth():
    assert default_precision(1) == 128
    assert default_precision(36) == 128
    assert default_precision(60) == 210
    assert default_precision(120) == 420


def test_decimal_digits():
    assert decimal_digits(64) == 22
    assert decimal_digits(512) == 157


def test_format_real_deterministic_and_precision_faithful():
    x = ap_real("0.1", 256)
    y = ap_real("0.1", 64)
    sx = format_real(x, 256)
    assert sx == format_real(x, 256)
    # distinct binary values render distinct decimal strings
    assert sx != format_real(y, 256)
    assert format_real(3, 128) == "3.0"
    # round trip: parsing the rendered digits recovers the binary value
    assert ap_real(sx, 256) == x


# Every public entry that takes a real parameter, called with v in that
# slot, and where its result shows v (None where it does not).
_QUADRATIC = CoeffList(coeffs=(mpf(-1), mpf(0), mpf(1)), monic_flag=True)
_ENTRIES = {
    "LaguerreSpec alpha": (lambda v: LaguerreSpec(3, v, 1), lambda s: s.alpha),
    "LaguerreSpec scale": (lambda v: LaguerreSpec(3, 0.5, v), lambda s: s.scale),
    "param_decomposition": (lambda v: param_decomposition(3, v, 64), None),
    "recommended_precision": (lambda v: recommended_precision(3, v), None),
    "askey_check alpha": (lambda v: askey_check(1, v, 2, 0.5, 64), None),
    "askey_check beta": (lambda v: askey_check(1, -0.5, v, 0.5, 64), None),
    "askey_check x": (lambda v: askey_check(1, -0.5, 2, v, 64), None),
    "find_roots tol": (lambda v: find_roots(_QUADRATIC, 128, tol=v), None),
    "contracted_zeros alpha": (lambda v: contracted_zeros(3, v), lambda z: z.spec.alpha),
    "contracted_zeros tol": (lambda v: contracted_zeros(3, 0.5, 128, v), None),
    "origin_extremality": (lambda v: origin_extremality(3, v), None),
    "real_crossings": (lambda v: real_crossings(v, 128), None),
    "curve_point r": (lambda v: curve_point(v, 1, 128), None),
    "curve_point theta": (lambda v: curve_point(0.5, v, 128), None),
    "trace_level_curve": (lambda v: trace_level_curve(v, 16, 128), lambda c: c.r),
    "discretize_mu_r": (lambda v: discretize_mu_r(v, 16, 128), None),
    "graded_mu_r": (lambda v: graded_mu_r(v, 16, 128), lambda cm: cm[0].r),
    "verify_balayage": (lambda v: verify_balayage(v, 16, (), (), 128), lambda b: b.r),
    "weighted_leja": (lambda v: weighted_leja(v, 2, 16, 128), None),
    "make_schedule c": (lambda v: make_schedule("generic", c=v), lambda s: s.c),
    "make_schedule r": (lambda v: make_schedule("exponential", r=v), lambda s: s.r),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_real_parameter_comes_in_through_as_real(entry):
    call, shown = _ENTRIES[entry]
    error = InvalidSchedule if entry.startswith("make_schedule") else InvalidParameter
    for bad in ("0.5", True, float("nan"), mp.nan, float("inf"), -mp.inf):
        if entry == "discretize_mu_r" and bad == mp.inf:
            # r = inf is the point mass at 0, the limit of mu_r
            assert call(bad).label == "delta_0"
            continue
        with pytest.raises(error):
            call(bad)
    x = ap_real("0.5", 192)
    result = call(x)
    if shown is not None:
        assert shown(result) is x


def test_as_real_reads_numbers_exactly():
    x = ap_real("0.1", 256)
    assert as_real(x, "x") is x
    assert as_real(2**60 + 1, "n") == 2**60 + 1
    assert as_real(0.1, "x") == mpf(0.1)
    assert make_schedule("exponential", r=2**60 + 1).r == 2**60 + 1
    for bad in ("0.5", True, 1j, mpc(1, 0), [1], None):
        with pytest.raises(InvalidParameter):
            as_real(bad, "x")


def test_as_complex_reads_numbers_exactly():
    z, x = ap_complex("0.1+0.2j", 256), ap_real("0.1", 256)
    assert as_complex(z, "z") is z and as_complex(x, "z") is x
    assert as_complex(2**60 + 1, "z") == 2**60 + 1
    assert as_complex(0.1, "z") == mpf(0.1)
    w = as_complex(0.1 + 0.2j, "z")
    assert (w.real, w.imag) == (mpf(0.1), mpf(0.2))
    for bad in ("1", "0.1+0.2j", True, [1], None, complex(1, float("inf"))):
        with pytest.raises(InvalidParameter):
            as_complex(bad, "z")
    for bad in (mpc(mp.nan, 0), mpc(0, mp.inf), mp.ninf):
        with pytest.raises(InvalidParameter):
            as_complex(bad, "z")


def test_literals_are_read_only_by_ap_real_and_ap_complex():
    z = ap_complex("0.1+0.2j", 128)
    assert (z.real, z.imag) == (ap_real("0.1", 128), ap_real("0.2", 128))
    assert ap_complex("1.5j", 128) == mpc(0, "1.5")
    assert ap_complex("-0.3", 128) == ap_real("-0.3", 128)
    for bad in ("abc", "", None):
        with pytest.raises(InvalidParameter):
            ap_real(bad, 128)
    for bad in ("xyz", "1+2jj", "j", None):
        with pytest.raises(InvalidParameter):
            ap_complex(bad, 128)
