"""Level curves, crossings, and region classification."""

import pytest
from mpmath import mp, mpc, mpf

from szegolab import szego
from szegolab.errors import InvalidParameter, NonConvergence
from szegolab.potential import graded_mu_r
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.szego import (
    LevelCurve,
    RegionTag,
    curve_point,
    locate,
    phi_map,
    real_crossings,
    trace_level_curve,
)

from conftest import gap

PREC = 192


def test_phi_map_fixed_values():
    assert phi_map(1, PREC) == 1
    assert phi_map(0, PREC) == 0
    with workprec(PREC):
        assert gap(phi_map(mpf("0.5"), PREC), mpf("0.5") * mp.e ** mpf("0.5"), PREC) \
            <= mpf(2) ** -180


def test_real_crossings_r0():
    x0, x_neg = real_crossings(0, PREC)
    assert x0 == 1
    assert gap(x_neg, mpf("-0.2784645427610738"), PREC) <= mpf("1e-15")
    with workprec(PREC):
        assert gap(abs(phi_map(x_neg, PREC)), mpf(1), PREC) <= mpf(2) ** -180


def test_real_crossings_general():
    for r_text in ("0.05", "0.1919", "1", "3"):
        r = ap_real(r_text, PREC)
        x0, x_neg = real_crossings(r, PREC)
        assert 0 < x0 < 1 and -1 < x_neg < 0
        with workprec(PREC + 16):
            level = mp.e ** (-r)
            assert gap(abs(phi_map(x0, PREC)), level, PREC) <= mpf(2) ** -180
            assert gap(abs(phi_map(x_neg, PREC)), level, PREC) <= mpf(2) ** -180


def test_real_crossings_resolved_at_large_r():
    # Both crossings are ~e^(-1-r), far below 2^-PREC at r = 200.
    r = mpf(200)
    x0, x_neg = real_crossings(r, PREC)
    with workprec(PREC + 16):
        level = mp.e ** (-r)
        for x in (x0, x_neg):
            assert gap(abs(phi_map(x, PREC)), level, PREC) / level <= mpf(2) ** -180
    assert trace_level_curve(r, 16, PREC).max_residual <= mpf(2) ** -180


def test_real_crossings_below_working_precision():
    # -e^(-1-r) rounds onto the branch point -1/e, where lambertw is complex.
    x0, _ = real_crossings(mpf("1e-70"), PREC)
    assert isinstance(x0, mpf) and 0 < x0 <= 1


def test_real_crossings_rejects_negative():
    for r in (-1, mp.inf, mp.nan):
        with pytest.raises(InvalidParameter):
            real_crossings(r, PREC)


@pytest.mark.parametrize("r_text", ["0", "0.05", "0.192", "1", "3"])
def test_trace_residuals_and_shape(r_text):
    r = ap_real(r_text, PREC)
    M = 128
    curve = trace_level_curve(r, M, PREC)
    assert len(curve.samples) == M
    assert curve.max_residual <= mpf("1e-12")
    with workprec(PREC + 16):
        # every node is on the level set and inside the unit disk
        level = mp.e ** (-r)
        for theta, z in curve.samples[:: M // 16]:
            assert gap(abs(phi_map(z, PREC)), level, PREC) <= mpf("1e-12")
            assert abs(z) <= 1 + mpf("1e-8")


def test_trace_theta_grid_and_conjugate_symmetry():
    r = mpf(1)
    M = 64
    curve = trace_level_curve(r, M, PREC)
    with workprec(PREC):
        for j, (theta, _) in enumerate(curve.samples):
            assert gap(theta, 2 * mp.pi * j / M, PREC) <= mpf(2) ** -180
    pts = curve.points
    # conjugate() rounds to the ambient context, so it needs workprec too
    with workprec(PREC + 16):
        for j in range(1, M):
            assert gap(pts[M - j], pts[j].conjugate(), PREC) <= mpf("1e-30")


@pytest.mark.parametrize("r_text", ["0", "0.192", "1", "200"])
def test_trace_mirrors_exactly(r_text):
    # Node M - j is the exact conjugate of node j, compared without
    # rounding; nodes 0 and M/2 are the real crossings themselves.
    r = ap_real(r_text, PREC)
    M = 64
    pts = trace_level_curve(r, M, PREC).points
    x0, x_neg = real_crossings(r, PREC)
    assert pts[0] == x0 and pts[0].imag == 0
    assert pts[M // 2] == x_neg and pts[M // 2].imag == 0
    for j in range(1, M):
        assert pts[M - j].real == pts[j].real
        assert pts[M - j].imag + pts[j].imag == 0


def test_trace_argument_roundtrip():
    r = ap_real("0.5", PREC)
    M = 64
    curve = trace_level_curve(r, M, PREC)
    with workprec(PREC + 16):
        for theta, z in curve.samples[1 : M // 2]:
            w = phi_map(z, PREC)
            ang = mp.arg(w)
            if ang < 0:
                ang += 2 * mp.pi
            assert gap(ang, theta, PREC) <= mpf("1e-40")


def test_curves_nest_with_level():
    curves = {
        r_text: trace_level_curve(ap_real(r_text, PREC), 64, PREC)
        for r_text in ("0", "0.1", "1", "3")
    }
    for outer, inner in (("0", "0.1"), ("0.1", "1"), ("1", "3")):
        for z in curves[inner].points[::8]:
            assert locate(z, curves[outer]) is RegionTag.INTERIOR


def test_deep_level_curve_is_tiny():
    curve = trace_level_curve(6, 64, PREC)
    assert max(abs(z) for z in curve.points) < mpf("0.01")


def test_locate_regions():
    r = mpf(1)
    curve = trace_level_curve(r, 64, PREC)
    x0, x_neg = real_crossings(r, PREC)
    with workprec(PREC):
        assert locate(mpc(x0 / 2), curve) is RegionTag.INTERIOR
        assert locate(mpc(x_neg / 2), curve) is RegionTag.INTERIOR
    assert locate(mpc(2), curve) is RegionTag.EXTERIOR
    assert locate(mpc(0, "1.5"), curve) is RegionTag.EXTERIOR
    assert locate(curve.points[5], curve) is RegionTag.ON_CURVE


def test_locate_classifies_against_gamma_r_not_the_polyline():
    # Midway between nodes the 16-gon's chords cut inside Gamma_1, so points
    # 1e-3 inside the curve there lie outside the polyline.
    curve = trace_level_curve(1, 16, PREC)
    with workprec(PREC + 16):
        for j in range(16):
            z = curve_point(1, 2 * mp.pi * (j + mpf("0.5")) / 16, PREC)
            assert locate(z * (1 - mpf("1e-3")), curve) is RegionTag.INTERIOR
            assert locate(z * (1 + mpf("1e-3")), curve) is RegionTag.EXTERIOR
        # At r = 0 the sublevel set |phi| < 1 has an unbounded component
        # touching Gamma_0 at the corner z = 1; it is exterior.
        corner = trace_level_curve(0, 16, PREC)
        beyond = 1 + mpf("0.05") * mp.expjpi(mpf(1) / 8)
        assert locate(beyond, corner) is RegionTag.EXTERIOR
        assert locate(mpf("0.95"), corner) is RegionTag.INTERIOR


def test_trace_validates_inputs():
    with pytest.raises(InvalidParameter):
        trace_level_curve(-1, 64, PREC)
    with pytest.raises(InvalidParameter):
        trace_level_curve(1, 15, PREC)
    with pytest.raises(InvalidParameter):
        trace_level_curve(1, 33, PREC)


def test_graded_curve_is_mirrored_and_solves_phi(monkeypatch):
    M = 64
    calls = []
    real = szego._curve_point

    def curve_point_counted(r, theta):
        calls.append(theta)
        return real(r, theta)

    monkeypatch.setattr(szego, "_curve_point", curve_point_counted)
    for r in (0, 1):
        calls.clear()
        curve, _ = graded_mu_r(r, M, PREC)
        assert len(calls) == M // 2 - 1
        pts = curve.points
        for j in range(1, M):
            assert pts[M - j].real == pts[j].real
            assert pts[M - j].imag + pts[j].imag == 0  # -x would round
        assert pts[M // 2] == real_crossings(r, PREC)[1]
        with workprec(PREC + 16):
            for theta, z in curve.samples:
                target = mp.e ** (-r + 1j * theta)
                assert gap(phi_map(z, PREC), target, PREC) <= mpf("1e-50")


@pytest.mark.parametrize(
    "r, bits",
    [(0, PREC), ("1e-40", PREC), ("1e-12", PREC), ("0.5", PREC), (22, PREC), ("0.3", 1088)],
)
def test_curve_point_matches_lambertw(r, bits):
    # M = 64 equispaced and graded image angles, both starting at theta = 0,
    # and theta = 1e-30: near r = 0 these make e x + 1 cancel enough bits for
    # the branch series seed and the precision raise.  Each node must equal
    # mpmath's or lie within 2^-bits of it, relatively.
    M = 64
    with workprec(bits + 16):
        r = mpf(r)
        grid = [2 * mp.pi * j / M for j in range(M)]
        thetas = grid + [s - mp.sin(s) for s in grid] + [mpf("1e-30")]
        for theta in thetas:
            if r == 0 and theta == 0:
                continue  # the corner; see test_curve_point_at_the_corner
            z = szego._curve_point(r, theta)
            ref = -mp.lambertw(-mp.e ** (-1 - r + 1j * theta))
            assert z == ref or abs(z - ref) <= abs(ref) * mpf(2) ** -bits, theta


def test_curve_point_at_the_corner():
    # -e^(-1) rounds onto the branch point -1/e at 192 bits; mpmath's
    # lambertw returns 1 - 6e-32i there.
    assert gap(curve_point(0, 0, PREC), mpf(1), PREC) <= mpf(2) ** -150


def test_w0_raises_nonconvergence_at_its_cap(monkeypatch):
    # From a 1e-16 seed one Halley step cannot meet the stop rule at 192
    # bits; lambertw would only warn and return its last iterate.
    z = curve_point(mpf("0.5"), 1, PREC)
    monkeypatch.setattr(szego, "_W0_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as err:
        curve_point(mpf("0.5"), 1, PREC)
    with workprec(PREC + 16):
        assert gap(-err.value.best, z, PREC) <= mpf("1e-40")


def test_level_curve_rejects_unmirrored_nodes():
    curve = trace_level_curve(mpf(1), 16, PREC)
    thetas = (0, mpf("0.3"), 1, 2, mpf("2.5"), 4, 5, 6)
    asymmetric = tuple((t, curve_point(1, t, PREC)) for t in thetas)
    with pytest.raises(InvalidParameter):
        LevelCurve(mpf(1), asymmetric, curve.level, curve.max_residual, PREC)
    with pytest.raises(InvalidParameter):
        LevelCurve(mpf(1), curve.samples[:-1], curve.level, curve.max_residual, PREC)
