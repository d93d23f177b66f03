"""Discrete measures and the exact-integer pair kernel behind log_potential."""

import pytest
from mpmath import mp, mpc, mpf

from szegolab.errors import InvalidParameter, SingularEvaluation
from szegolab.measures import (
    SINGULAR_DISTANCE,
    DiscreteMeasure,
    _mirror_order,
    log_potential,
)
from szegolab.potential import discretize_mu_r, graded_mu_r
from szegolab.precision import (
    ap_complex,
    ap_real,
    mantissa_bits,
    op_precision,
    workprec,
)
from szegolab.szego import trace_level_curve

from conftest import KERNEL_CASES, KERNEL_IDS, half_ulp, kernel_case

PREC = 192


def _near_oracle(mu, z):
    """log_potential(mu, z), checked against a sum of logs at twice the bits.

    At working precision p the kernel's sum errs by less than
    2^-(p + 15) (1 + 2 max_j |log|z - x_j||) before its one rounding, and
    V is half of it, so |V - V*| <= 2^-p (1 + 4 S) for
    S = sum_j w_j |log|z - x_j|| unless S is far below the largest
    |log|z - x_j||.
    """
    prec = op_precision(PREC, z, *mu.points)
    v = log_potential(mu, z, PREC)
    with workprec(2 * prec):
        logs = [mp.log(abs(z - x)) for x in mu.points]
        exact = -mp.fsum(w * g for w, g in zip(mu.weights, logs))
        scale = mp.fsum(w * abs(g) for w, g in zip(mu.weights, logs))
        assert abs(v - exact) <= mpf(2) ** -prec * (1 + 4 * scale)
    return v


def _measure(points, weights):
    with workprec(PREC):
        return DiscreteMeasure(points=tuple(points), weights=tuple(weights))


@pytest.mark.parametrize("z", ["2", "1e50"])
def test_kernel_on_a_tiny_curve(z):
    # radius about e^-801: the common scale 2^e is far below the point z
    mu = discretize_mu_r(ap_real("800", PREC), 64, PREC)
    v = _near_oracle(mu, ap_complex(z, PREC))
    with workprec(PREC):
        assert abs(v + mp.log(mpf(z))) <= mpf("1e-50")


def test_kernel_with_real_points_and_a_point_at_zero():
    quarter = mpf(1) / 4
    mu = _measure(
        (mpf(0), mpf("0.5"), mpf(-3), mpc("0.25", "0.75")), (quarter,) * 4
    )
    assert isinstance(mu.points[0], mpf)
    for z in (mpc("0.1", "0.2"), ap_real("-1.5", PREC), mpc(0, 1)):
        _near_oracle(mu, z)


def test_kernel_skips_zero_weights_but_not_their_distance():
    _, graded = graded_mu_r(mpf(1), 64, PREC)
    assert graded.weights[0] == 0
    _near_oracle(graded, mpc("0.1", "0.05"))
    half = mpf(1) / 2
    mu = _measure((mpf(0), mpf(1), mpc(0, 2), mpf(-1)), (0, half, 0, half))
    _near_oracle(mu, mpc("0.5", "0.5"))
    with pytest.raises(SingularEvaluation):
        log_potential(mu, mpc(0, 2), PREC)


def test_kernel_weight_change_after_a_full_block():
    # the first 64 nodes visited carry weight 1/128 and fill one block; the
    # next one both starts a block and changes the weight to 1/32
    points = trace_level_curve(mpf(1), 80, PREC).points
    weights = [mpf(1) / 32] * 80
    for j in list(_mirror_order(80))[:64]:
        weights[j] = mpf(1) / 128
    mu = _measure(points, weights)
    for z in (mpc(0), mpc(2), mpc("0.2", "0.3")):
        _near_oracle(mu, z)


def test_kernel_floor_is_exact():
    # |z|^2 = SINGULAR_DISTANCE^2 exactly is singular; adding (D 2^-150)^2,
    # far below the working precision, lifts it just above the floor
    half = mpf(1) / 2
    mu = _measure((mpf(0), mpf(1)), (half, half))
    d = SINGULAR_DISTANCE
    with pytest.raises(SingularEvaluation):
        log_potential(mu, mpc(d), PREC)
    with pytest.raises(SingularEvaluation):
        log_potential(mu, mpc(0, -d), PREC)
    v = _near_oracle(mu, mpc(d, mp.ldexp(d, -150)))
    assert mp.isfinite(v)


def test_mirror_order_visits_each_node_once():
    for m in (1, 2, 7, 8, 64):
        order = list(_mirror_order(m))
        assert sorted(order) == list(range(m))
        assert order[:3] == [0, 1, m - 1][: min(3, m)]


@pytest.mark.parametrize(
    "bad", [mpc(mp.nan), mpc(mp.inf), mpc(1, mp.ninf), mpf(mp.nan), mpf(mp.ninf)]
)
def test_discrete_measure_rejects_non_finite_points(bad):
    half = mpf(1) / 2
    with pytest.raises(InvalidParameter, match="finite"):
        DiscreteMeasure(points=(mpc(0), bad), weights=(half, half))


def test_discrete_measure_takes_numbers_exactly_and_refuses_text():
    # values that are not mpf / mpc go through as_real and as_complex: a
    # number is taken without rounding, text and bools are refused
    half = mpf(1) / 2
    mu = DiscreteMeasure(points=(2**60 + 1, 0.1 + 0.2j), weights=(0.5, half))
    assert mu.points[0] == 2**60 + 1 and mu.points[1] == mpc(0.1, 0.2)
    assert mu.weights == (half, half)
    for points, weights in [
        (("1", 2), (half, half)),
        ((1, 2), ("0.5", "0.5")),
        ((True, 2), (half, half)),
        ((1, 2), (True, 0)),
    ]:
        with pytest.raises(InvalidParameter):
            DiscreteMeasure(points=points, weights=weights)


def test_discrete_measure_rejects_nan_weight():
    with pytest.raises(InvalidParameter, match="nonnegative"):
        DiscreteMeasure(points=(mpc(0), mpc(1)), weights=(mpf(1), mpf(mp.nan)))


def _log_formula(mu, z, bits):
    """-sum_j w_j log|z - x_j| in mpmath at bits, and sum_j |log|z - x_j|^2|,
    over the nonzero weights: the formula that the int kernel replaced."""
    with workprec(bits):
        logs = [(w, mp.log(abs(z - x))) for x, w in zip(mu.points, mu.weights) if w]
        return -mp.fsum(w * g for w, g in logs), 2 * mp.fsum(abs(g) for _, g in logs)


def _check_log_potential(mu, z, P):
    """log_potential against its formula at 2p + 64 bits, p its working
    precision.  The value stays within the docstring bound of
    _log_pair_sum, (2.01 + sum_j |log|z - x_j|^2|) 2^-F halved, plus half
    a unit in its last place, and within the larger of the formula's own error at p bits
    and one rounding unit 2^(1 - p) |V|."""
    v = log_potential(mu, z, P)
    p = max(op_precision(P, z), max(mantissa_bits(x) for x in mu.points))
    F = p + 16 + len(mu).bit_length()
    exact, logs = _log_formula(mu, z, 2 * p + 64)
    parent, _ = _log_formula(mu, z, p)
    with workprec(2 * p + 64):
        err = abs(v - exact)
        bound = mp.ldexp(mpf("2.01") + logs, -F - 1) + half_ulp(v, p)
        assert err <= bound, (z, err, bound)
        own = max(abs(parent - exact), mp.ldexp(abs(exact), 1 - p))
        assert err <= own, (z, err, own)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
def test_log_potential_matches_its_formula(case):
    _, mu = kernel_case(*case)
    near = "1e50" if case[1] == "800" else "0"
    for re, im in ((near, "0"), ("2", "0"), ("0.1", "0.05"), ("0", "1.5")):
        _check_log_potential(mu, ap_complex(re, PREC, im), PREC)


def test_log_potential_above_the_log_taylor_precision():
    # at 2600 bits fixed.log runs mpf_log instead of log_taylor_cached
    bits = 2600
    _, mu = graded_mu_r(ap_real("0.3", bits), 16, bits)
    for z in (ap_complex("0.1", bits, "0.05"), ap_complex("2", bits)):
        _check_log_potential(mu, z, bits)
