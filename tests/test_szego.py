"""Level curves, crossings, and region classification."""

import random

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero

from szegolab import szego
from szegolab.errors import InvalidParameter, NonConvergence
from szegolab.fixed import cexp
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


@pytest.mark.parametrize("bits", range(64, 1393, 16))
def test_real_crossings_r0_is_the_corner_at_every_precision(bits):
    # At r = 0 the rounded -e^(-1) lies a few ulps off -1/e; at 576, 656
    # and 1232 bits _w0 once stalled there.  x0 is the corner without it.
    assert real_crossings(0, bits)[0] == 1
    if bits == 576:
        assert len(trace_level_curve(0, 16, bits)) == 16


@pytest.mark.parametrize("bits", [576, 656, 1232])
def test_w0_beyond_the_branch_point_by_a_few_ulps(bits):
    # At these precisions -e^(-1-r) for r below 2^-bits rounds a few ulps
    # beyond -1/e, where e x + 1 at the working precision has the wrong
    # sign.  W_0 there is complex, as mpmath's lambertw has it, so x0 is the
    # corner.
    r = mpf(2) ** -(bits + 30)
    with workprec(op_precision(bits, r) + 16):
        ref = mp.lambertw(-mp.exp(-1 - r))
        w = mp.make_mpc(szego._w0((-mp.exp(-1 - r))._mpf_, fzero))
        assert w.imag > 0 and gap(w, ref, mp.prec) <= mpf(2) ** -(bits // 2)
    assert real_crossings(r, bits)[0] == 1


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


@pytest.mark.parametrize("bits", [64, 128, 192, 256, 512, 1238])
def test_real_crossings_match_lambertw(bits):
    # The crossings run _w0 and must give mpmath's lambertw bits, read at the
    # same working precision p = bits + 16.  The one exception is x0 where
    # -e^(-1-r) lies within 2^-bits of the branch point -1/e: there W_0 has
    # slope ~ 1/sqrt(2 (e x + 1)), so rounding the argument to p bits already
    # moves x0 by up to ~2^-(p/2), and the two iterations may differ by that
    # much (7e-23 at r = 1e-70, 128 bits).
    rng = random.Random(2010)
    levels = ["0", "1e-70", "1e-12", "0.001", "0.1919", "0.5", "1", "3", "22",
              "60", "200", "800"] + [f"{rng.uniform(0, 2):.6f}" for _ in range(40)]
    for r_text in levels:
        with workprec(bits):
            r = mpf(r_text)
        with workprec(op_precision(bits, r) + 16):
            ref0 = -mp.lambertw(-mp.exp(-1 - r))
            ref0 = mpf(1) if r == 0 or isinstance(ref0, mpc) else ref0
            ref_neg = -mp.lambertw(mp.exp(-1 - r))
        x0, x_neg = real_crossings(r, bits)
        assert isinstance(x0, mpf) and isinstance(x_neg, mpf)
        assert x_neg == ref_neg, r_text
        assert x0 == ref0 or (
            r < mpf(2) ** -bits and abs(x0 - ref0) <= mpf(2) ** -((bits + 16) // 2)
        ), r_text


def test_real_crossings_rejects_negative():
    # text, lists and bools are typed errors too; True is not read as r = 1
    for r in (-1, mp.inf, mp.nan, "abc", [1], True):
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
    for r in (-1, True, "abc"):
        with pytest.raises(InvalidParameter):
            trace_level_curve(r, 64, PREC)
    with pytest.raises(InvalidParameter):
        trace_level_curve(1, 15, PREC)
    with pytest.raises(InvalidParameter):
        trace_level_curve(1, 33, PREC)


def test_graded_curve_is_mirrored_and_solves_phi(monkeypatch):
    M = 64
    calls = []
    real = szego._curve_point

    def curve_point_counted(r, theta, mag):
        calls.append(theta)
        return real(r, theta, mag)

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
            z = szego._curve_point(r, theta, szego._modulus(r))
            ref = -mp.lambertw(-mp.exp(-1 - r + 1j * theta))
            assert z == ref or abs(z - ref) <= abs(ref) * mpf(2) ** -bits, theta


def test_curve_point_at_the_corner():
    # r = theta = 0 is the branch point -1/e, whose node is the corner 1;
    # mpmath's lambertw of the rounded argument is 1 - 6e-32i at 192 bits.
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


@pytest.mark.parametrize("r, theta", [("0", "1e-30"), ("1e-12", "0"), ("0.5", "3")])
def test_w0_cap_carries_the_last_iterate(monkeypatch, r, theta):
    # The branch series seeds r = 0, theta = 1e-30 (e x + 1 cancels about
    # 100 bits) and the real r = 1e-12, theta = 0 (about 40); the double
    # seeds theta = 3.  One step meets no stop rule at 208 bits, and the
    # error carries that step's iterate.
    z = curve_point(ap_real(r, PREC), mpf(theta), PREC)
    monkeypatch.setattr(szego, "_W0_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as err:
        curve_point(ap_real(r, PREC), mpf(theta), PREC)
    with workprec(PREC + 16):
        assert gap(-err.value.best, z, PREC) <= mpf("1e-40")


@pytest.mark.parametrize("bits", [128, 192, 528, 1240])
@pytest.mark.parametrize("r", ["0", "1e-70", "0.3", "22"])
def test_node_argument_is_mp_exp_to_the_last_bit(r, bits):
    # e^(-1-r) is computed once per curve (_modulus), and each node's
    # argument from it must still be -mp.exp(-1 - r + i theta) bit for bit:
    # at the equispaced and graded angles of an M = 64 curve, at 1e-30, at
    # theta = 0 and at a theta with more bits than the precision.  r too has
    # more bits, so -1 - r rounds.
    M = 64
    with workprec(bits + 64):
        r = mpf(r)
        wide = mp.pi / 3
    with workprec(bits):
        mag = szego._modulus(r)
        grid = [2 * mp.pi * j / M for j in range(M)]
        thetas = grid + [s - mp.sin(s) for s in grid] + [mpf("1e-30"), wide]
        for theta in thetas:
            x = szego._argument(r, theta, mag)
            assert x == (-mp.exp(-1 - r + 1j * theta))._mpc_, theta


@pytest.mark.parametrize(
    "r, theta, bits",
    [
        ("0", "1e-30", PREC),  # e x + 1 cancels about 100 bits: branch series
        ("1e-12", "1e-6", 528),
        ("0.5", "2", 528),
        ("22", "1", PREC),  # |x| = e^-23
        ("22", "3", 1240),
        ("0.3", None, 528),  # the real crossings
        ("1e-12", None, PREC),
    ],
)
def test_exp_update_stays_within_its_bound(r, theta, bits, monkeypatch):
    # _w0 takes e^w from fixed.cexp once, then updates it after each step by
    # the series of e^(-u), u = w - w_new.  After every update the running
    # e^w must lie within the bound of _w0's docstring, summed over the
    # updates so far, of a fresh cexp of the new w, allowing both cexp calls
    # their 32 (1 + e^(Re w)) units.  A real x keeps e^w exactly real.
    real = szego._exp_step
    chains = []

    def checked(er, ei, wr, wi, nr, ni, F):
        out = real(er, ei, wr, wi, nr, ni, F)
        if not chains or chains[-1][-1][4:6] != (wr, wi):
            assert (er, ei) == cexp(wr, wi, F)
            chains.append([])
        chains[-1].append((er, ei, wr, wi, nr, ni, F, out))
        return out

    monkeypatch.setattr(szego, "_exp_step", checked)
    r = ap_real(r, bits)
    if theta is None:
        real_crossings(r, bits)
    else:
        curve_point(r, mpf(theta), bits)
    assert chains
    worst = 0
    for chain in chains:
        total = 0
        for er, ei, wr, wi, nr, ni, F, (outr, outi) in chain:
            g = F - max(abs(nr - wr), abs(ni - wi)).bit_length()
            terms = F // (g - 1) + 2
            size = ((abs(er) + abs(ei)) >> F) + 1
            total += (3 * terms + 5) * size + 2
            fr, fi = cexp(nr, ni, F)
            err = max(abs(outr - fr), abs(outi - fi))
            assert err <= total + 64 * (1 + size)
            assert theta is not None or outi == 0
            worst = max(worst, err)
    assert worst > 0  # the updates are not exact, so the check has teeth


@pytest.mark.parametrize("P", [80, 208, 528, 1088])
@pytest.mark.parametrize("r", ["0", "1e-40", "1e-12", "0.3", "1", "22", "800", "1e300"])
def test_nodes_match_lambertw_at_twice_the_precision(r, P):
    # Each node at P bits lies within 2^(1-P) of W_0 of its own P-bit
    # argument, relatively, as lambertw gives it at 2P + 64 bits: the
    # rounding to P bits and nothing more.  The graded angles s - sin s,
    # s = 2 pi j / 4096, j = 1, 2, 5, and 1e-30 lie near the r = 0 corner,
    # where e x + 1 cancels more than _BRANCH_BITS bits and the branch
    # series seeds the iteration.  Where e x + 1 rounds to 0 at P bits, the
    # node is the corner 1.
    M = 4096
    branch = 0
    with workprec(P):
        r = mpf(r)
        thetas = [s - mp.sin(s) for s in (2 * mp.pi * j / M for j in (1, 2, 5, 40))]
        thetas += [mpf("1e-30"), mpf("0.5"), mpf(2), mp.pi - mpf("1e-9")]
        for theta in thetas:
            z = szego._curve_point(r, theta, szego._modulus(r))
            x = -mp.exp(-1 - r + 1j * theta)
            d = mp.e * x + 1
            if not d:
                assert z == 1
                continue
            branch += -mp.mag(d) > szego._BRANCH_BITS
            with workprec(2 * P + 64):
                ref = -mp.lambertw(x)
                assert abs(z - ref) <= abs(ref) * mpf(2) ** (1 - P), theta
    assert (branch > 0) == (r < mpf("1e-6"))


@pytest.mark.parametrize("r", ["0", "1e-12", "0.3", "1", "30", "800"])
def test_double_nodes_lie_within_their_radii(r):
    # Every double of node j / 2^k, j <= M/2, of trace_level_curve reaches
    # the node within its certified radius; nodes M - j are the conjugates.
    # At r = 800 the curve's radius, about e^-801, is below the double
    # range; the scale 2^k keeps the doubles of order 1.
    M = 384
    r = ap_real(r, PREC)
    points = trace_level_curve(r, M, PREC).points
    k, zs, rads = szego._shadow_half(r, M, real_crossings(r, PREC), PREC)
    assert len(zs) == len(rads) == M // 2 + 1
    with workprec(PREC + 64):
        assert mp.ldexp(1, k) <= mp.exp(-1 - r) < mp.ldexp(1, k + 1)
        for node, z, rad in zip(points, zs, rads):
            assert rad < 2.0**-30
            scaled = mpc(mp.ldexp(node.real, -k), mp.ldexp(node.imag, -k))
            assert abs(mpc(z) - scaled) <= rad


def test_double_nodes_at_huge_r_have_infinite_radii():
    # At r = 10^300 the nodes' own argument e^(-1-r+i theta), rounded at
    # 208 bits, is uncertain by far more than itself.
    for r in (ap_real("1e300", PREC), ap_real("1e400", PREC)):
        _, _, rads = szego._shadow_half(r, 16, real_crossings(r, PREC), PREC)
        assert all(rad == mp.inf for rad in rads[1:-1])


def test_level_curve_rejects_unmirrored_nodes():
    curve = trace_level_curve(mpf(1), 16, PREC)
    thetas = (0, mpf("0.3"), 1, 2, mpf("2.5"), 4, 5, 6)
    asymmetric = tuple((t, curve_point(1, t, PREC)) for t in thetas)
    with pytest.raises(InvalidParameter):
        LevelCurve(mpf(1), asymmetric, curve.level, curve.max_residual, PREC)
    with pytest.raises(InvalidParameter):
        LevelCurve(mpf(1), curve.samples[:-1], curve.level, curve.max_residual, PREC)


@pytest.mark.parametrize(
    "r, bits",
    [("0", PREC), ("1e-12", PREC), ("0.3", PREC), ("30", PREC), ("800", PREC),
     ("0.107", 512), ("22.7", 512), ("1e-200", 512)],
)
def test_one_node_per_angle_from_every_builder(r, bits, monkeypatch):
    # Node j of trace_level_curve, _half_node at _theta(j, M) and
    # curve_point at theta_j = 2 * mp.pi * j / M, by mpf operators, must
    # agree to the last bit, and theta_j too.  A part far below |z|, such as
    # Re z at r = 30, theta = pi/2, is held only to about 2^-F |z|, so its
    # last bits follow the seed of the Halley iteration: each inner node
    # must be seeded by fp.lambertw of its own argument, rounded to nearest
    # as complex() rounds an mpc, and not by a neighbouring node.
    M = 64
    r = ap_real(r, bits)
    seeds = []
    lambertw = szego.fp.lambertw

    def recorded(x):
        seeds.append(x)
        return lambertw(x)

    monkeypatch.setattr(szego.fp, "lambertw", recorded)
    curve = trace_level_curve(r, M, bits)
    traced = list(seeds)
    crossings = real_crossings(r, bits)
    args = []
    with workprec(op_precision(bits, r) + 16):
        mag = szego._modulus(r)
        for j in range(M // 2 + 1):
            theta = 2 * mp.pi * j / M
            assert szego._theta(j, M)._mpf_ == curve.thetas[j]._mpf_ == theta._mpf_
            node = curve.points[j]._mpc_
            half = szego._half_node(r, j, M, szego._theta(j, M), crossings, mag)
            assert half._mpc_ == node, j
            if j < M // 2:
                assert curve_point(r, theta, bits)._mpc_ == node, j
            if 0 < j < M // 2:
                args.append(complex(-mp.exp(-1 - r + 1j * theta)))
    # the crossings take up to two seeds before the inner nodes
    assert traced[len(traced) - len(args):] == args and len(traced) - len(args) <= 2
    if r < mpf(2) ** -bits and bits == 512:
        # the argument at theta = 0 rounds to -e^(-1) at 528 bits, where
        # e x + 1 rounds to 0 with e rounded to nearest: node 0 is the corner
        assert curve.points[0] == 1


def test_double_node_radius_only_for_the_principal_branch():
    # _w0_double certifies a root near any seed, but only a root in the unit
    # disk is W_0's: seeded near W_-1(-0.3) = -1.781..., Halley's steps
    # reach that root, and its radius must be inf.
    x, dx = complex(-0.3), 2.0**-50
    v, rad = szego._w0_double(x, 0, dx, complex(-0.49))
    with workprec(PREC):
        assert abs(mpc(v) - mp.lambertw(mpf("-0.3"))) <= rad < 2.0**-40
    v, rad = szego._w0_double(x, 0, dx, complex(-1.78))
    with workprec(PREC):
        assert abs(mpc(v) - mp.lambertw(mpf("-0.3"), -1)) < 2.0**-40
    assert rad == mp.inf
