"""The map phi(z) = z e^(1-z), its level curves, and point classification.

Gamma_r = {z : |z e^(1-z)| = e^(-r), |z| <= 1} is given in closed form:
phi(z) = w inverts on the bounded component as z = -W_0(-w/e), so the node
at image angle theta is z(theta) = -W_0(-e^(-1-r+i theta)).  Gamma_r is
symmetric about the real axis, z(2 pi - theta) = conj z(theta), and every
LevelCurve is built mirrored by one builder: nodes 1 .. M/2 - 1 come from
the closed form, nodes 0 and M/2 from real_crossings, and node M - j is
the exact conjugate of node j.  At r = 0 the curve has a corner at z = 1,
the branch point of W_0; node 0 from real_crossings is exactly 1 there.
LevelCurve rejects nodes that are not mirrored, so callers may scan half
of any curve.  trace_level_curve samples the equispaced theta_j = 2 pi j / M;
_theta and _half_node build theta_j and node j one index at a time, so a
caller that needs only some nodes gets each one to the last bit.
_w0 evaluates W_0 for every node, the crossings included, by the Halley
iteration and stop rule of mpmath's lambertw from a close seed (the double
W_0(x), or the branch series where x is near -1/e), run on Python ints
on a power-of-two grid (szegolab.fixed) instead of mpc numbers, whose
per-operation overhead costs more than their bits at these lengths.  Only
its last steps run at full width, with one full-width exp per node; each
node's argument is mp.exp's to the last bit, with e^(-1-r) computed once
per curve.
_max_residual checks the rounded nodes on the same ints.  _shadow_half
gives every equispaced node as a double, with a radius certified by
Kantorovich's theorem to reach the full-precision node.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from math import isqrt

from mpmath import fp, mp, mpc, mpf
from mpmath.libmp import mpf_cos_sin, mpf_exp, mpf_mul, mpf_neg, mpf_pos, round_nearest

from .errors import InvalidParameter, NonConvergence
from .fixed import cdiv, cexp, cmul, to_fixed, to_mpc
from .precision import as_real, op_precision, workprec

DEFAULT_TRACE_PRECISION = 192
# Halley steps before _w0 gives up; mpmath's lambertw stops at the same count.
_W0_MAX_ITER = 100
# Where e x + 1 cancels more bits than this, the branch series seeds W_0
# better than a double does: the series errs by about 2^-(2c + 2) after
# c cancelled bits and the double by about 2^-(53 - c/2); they cross near 20.
_BRANCH_BITS = 20


class RegionTag(enum.Enum):
    INTERIOR = "interior"
    ON_CURVE = "on_curve"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class LevelCurve:
    """Traced samples (theta_j, z_j) of Gamma_r, ordered by theta.

    The M nodes are mirrored: M is even and node M - j is exactly
    conj(node j), so nodes 0 and M/2 are real.  Compared without rounding:
    conjugate() would round to the ambient precision, and a sum of two
    floats is zero only if they cancel exactly.
    """

    r: mpf
    samples: tuple
    level: mpf
    max_residual: mpf
    precision_bits: int

    def __post_init__(self):
        pts = self.points
        if len(pts) % 2 or any(
            pts[j].real != pts[-j].real or pts[j].imag + pts[-j].imag != 0
            for j in range(len(pts) // 2 + 1)
        ):
            raise InvalidParameter(
                "LevelCurve nodes must be mirrored: node M - j = conj(node j)"
            )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def points(self) -> tuple:
        return tuple(z for _, z in self.samples)

    @property
    def thetas(self) -> tuple:
        return tuple(t for t, _ in self.samples)


def _phi(z):
    # z e^(1-z) at the caller's working precision.
    return z * mp.exp(1 - z)


def phi_map(z, precision_bits: int = 128):
    """phi(z) = z e^(1-z)."""
    prec = op_precision(precision_bits, z)
    with workprec(prec):
        return _phi(mpc(z) if isinstance(z, (complex, mpc)) else mpf(z))


def _check_r(r) -> mpf:
    r = as_real(r, "r")
    if r < 0:
        raise InvalidParameter(f"need r >= 0, got {r}")
    return r


def real_crossings(r, precision_bits: int = DEFAULT_TRACE_PRECISION):
    """Real-axis crossings of Gamma_r, by _w0 like every other curve node.

    x0 in (0, 1] solves x e^(1-x) = e^(-r), so x0 = -W_0(-e^(-1-r));
    x_neg in (-1, 0) solves |x| e^(1-x) = e^(-r), so x_neg = -W_0(e^(-1-r)).
    At r = 0, x0 is the corner 1, W_0(-1/e) = -1, without _w0, which would
    solve at the rounded -e^(-1), a few ulps off -1/e.  Where -e^(-1-r)
    rounds below the branch point (r below the working precision), W_0
    there is not real; x0 is then the corner 1 too.
    """
    r = _check_r(r)
    with workprec(op_precision(precision_bits, r) + 16):
        x = mp.exp(-1 - r)
        w = _w0(-x) if r else mpc(-1)
        x0 = mpf(1) if w.imag else -w.real
        return x0, -_w0(x).real


def check_node_count(M) -> None:
    """Validate a node count for a discretized Gamma_r: an even int >= 16."""
    if not isinstance(M, int) or M < 16 or M % 2 != 0:
        raise InvalidParameter(f"need even node count M >= 16, got {M}")


def _w0(x):
    """W_0(x) for |x| <= 1/e at the ambient precision prec, by Halley's
    iteration on Python ints.

    The iteration and its stop rule mag(w_new - w) <= mag(w_new) -
    (prec + 15), mag read from the larger part, are mpmath's lambertw's; the
    seed is better.  Away from the
    branch point -1/e it is the double fp.lambertw(x), good to about 1e-16,
    where lambertw's own seed takes about six full-width steps at 208 bits.
    Where e x + 1 cancels c > _BRANCH_BITS bits, the seed is the branch
    series -1 + p - p^2/3 + 11 p^3/72, p = sqrt(2 (e x + 1)) (Corless et al.
    1996), and as in lambertw the precision rises by c/2 bits, or the
    ill-conditioned steps near -1/e cannot meet the stop rule.  p takes
    e x + 1 at that precision too: at prec bits it errs by about 2^-prec,
    and where x lies a few ulps from -1/e its sign can be wrong, so that a
    real x beyond -1/e gets a real seed for its complex W_0, which the
    exactly real steps never reach.  Where e x + 1 rounds to 0, x is the
    branch point and W_0(x) = -1.  Raises
    NonConvergence after _W0_MAX_ITER steps, where lambertw only warns.

    With k = mag(x) the steps solve v e^(2^k v) = x / 2^k for v = w / 2^k,
    of order 1 however tiny x is (|v| >= 1/(4 e)): v, x / 2^k, e^w and each
    product and quotient are ints on 2^-F, F = prec + 28 + c/2, lambertw's
    working precision and 8 guard bits.  A grid 2^-G holds about
    G - 32 - c/2 good bits of v and Halley's step triples them, so the double
    seed (about 50 - c good bits) first takes one step on each of the coarser
    grids G <- (G - 32 - c/2) // 3 + 32 + c/2 that hold more than it has:
    90 and 206 bits under F = 556, 100 under F = 236.  The branch series
    does not: its error is relative to |1 + w|, about 2^(-c/2), and a coarse
    grid's noise could push the iterate across the branch point onto W_-1.
    The loop on 2^-F then evaluates e^w once (fixed.cexp, within 32 (1 +
    e^Re w) units in each part) and after each step updates it by the
    Taylor series of e^(-u), u = w - w_new (_exp_step).  With |u| < 2^-g
    in each part the series sums J <= F / (g - 1) + 2 terms, 2 to 4 once
    |u| <= 2^-150, and each update adds at most (3 J + 5) |e^w| + 2 units.
    Each other product and quotient errs by at most a few tens of units,
    far below the stop rule's 2^-(prec + 15) |v|, so the last iterate is as
    close to the root as lambertw's; it is rounded once to prec bits.  A
    real x stays exactly real.
    """
    prec = mp.prec
    d = mp.e * x + 1
    if not d:
        return mpc(-1)
    cancel = max(0, -mp.mag(d))
    F = prec + 28 + cancel // 2
    k = mp.mag(x)
    grids = [F]
    if cancel > _BRANCH_BITS:
        with workprec(F):
            p = mp.sqrt(2 * (mp.e * x + 1))
            w = -1 + p * (1 + p * (mpf(-1) / 3 + p * mpf(11) / 72))
    else:
        w = fp.lambertw(complex(x))
        lost = 32 + cancel // 2
        while (grids[-1] - lost) // 3 > 50 - cancel:
            grids.append((grids[-1] - lost) // 3 + lost)
    G = grids[-1]
    vr, vi = to_fixed(w.real, G - k), to_fixed(w.imag, G - k)
    for H in reversed(grids[1:]):
        vr, vi = vr << (H - G), vi << (H - G)
        G = H
        xr, xi = to_fixed(x.real, G - k), to_fixed(x.imag, G - k)
        er, ei = cexp(vr >> -k, vi >> -k, G)
        hr, hi = _halley(vr, vi, er, ei, xr, xi, k, G)
        vr, vi = vr - hr, vi - hi
    vr, vi = vr << (F - G), vi << (F - G)
    xr, xi = to_fixed(x.real, F - k), to_fixed(x.imag, F - k)
    wr, wi = vr >> -k, vi >> -k
    er, ei = cexp(wr, wi, F)
    for _ in range(_W0_MAX_ITER):
        hr, hi = _halley(vr, vi, er, ei, xr, xi, k, F)
        vr, vi = vr - hr, vi - hi
        step, size = max(abs(hr), abs(hi)), max(abs(vr), abs(vi))
        if step.bit_length() <= size.bit_length() - (prec + 15):
            return to_mpc(vr, vi, F - k)
        nr, ni = vr >> -k, vi >> -k
        er, ei = _exp_step(er, ei, wr, wi, nr, ni, F)
        wr, wi = nr, ni
    raise NonConvergence(
        f"W_0 Halley iteration hit {_W0_MAX_ITER} steps at x = {x}",
        best=to_mpc(vr, vi, F - k),
    )


def _halley(vr, vi, er, ei, xr, xi, k, F):
    """Halley's step h on v e^(2^k v) = x / 2^k at v, from e = e^(2^k v);
    all ints on 2^-F.

    With w = 2^k v and A = 1 + w, Halley's step on w e^w - x, divided by
    2^k, is g / (e^w A - 2^k (1 + A) g / (2 A)), g = v e^w - x / 2^k.
    """
    one = 1 << F
    gr, gi = cmul(vr, vi, er, ei, F)
    gr, gi = gr - xr, gi - xi
    ar, ai = one + (vr >> -k), vi >> -k
    tr, ti = cmul(one + ar, ai, gr, gi, F)
    tr, ti = cdiv(tr >> (1 - k), ti >> (1 - k), ar, ai, F)
    dr, di = cmul(er, ei, ar, ai, F)
    return cdiv(gr, gi, dr - tr, di - ti, F)


def _exp_step(er, ei, wr, wi, nr, ni, F):
    """e^n on 2^-F from e = e^w, for n near w: e times the Taylor series of
    e^(-u), u = w - n, summed until a term is at most one unit in each part.

    Each term is the last times -u, then divided by j, each cut once, so
    each errs by less than 2 sqrt 2 / (1 - |u|) units; the one left out and
    all after it by less than 5.  With J terms summed the series errs by at
    most 3 J + 5 units, and the product with e adds |e| times that, plus 2.
    """
    ur, ui = nr - wr, ni - wi  # -u
    sr, si, tr, ti, j = 1 << F, 0, 1 << F, 0, 1
    while True:
        tr, ti = cmul(tr, ti, ur, ui, F)
        tr, ti = tr // j, ti // j
        if max(abs(tr), abs(ti)) <= 1:
            return cmul(er, ei, sr, si, F)
        sr, si, j = sr + tr, si + ti, j + 1


def _modulus(r):
    """e^(-1-r) as mp.exp(-1 - r + i theta) takes it for every theta != 0:
    libmp's mpc_exp exponentiates -1 - r, rounded to the ambient precision,
    at 4 bits more.  A raw mpf, computed once per curve."""
    return mpf_exp((-1 - r)._mpf_, mp.prec + 4, round_nearest)


def _argument(r, theta, mag):
    """-mp.exp(-1 - r + i theta) to the last bit, from mag = _modulus(r).

    mpc_exp multiplies mag by mpf_cos_sin of theta, rounded to the ambient
    precision prec, at prec + 4 bits, and rounds each product to prec; at
    theta = 0 it is mp.exp(-1 - r).
    """
    if not theta:
        return -mp.exp(-1 - r + 1j * theta)
    prec = mp.prec
    t = mpf_pos(theta._mpf_, prec, round_nearest)  # as 1j * theta rounds it
    c, s = mpf_cos_sin(t, prec + 4, round_nearest)
    re, im = mpf_mul(mag, c, prec, round_nearest), mpf_mul(mag, s, prec, round_nearest)
    return mp.make_mpc((mpf_neg(re), mpf_neg(im)))


def _curve_point(r, theta, mag):
    # -W_0(-e^(-1-r+i theta)) at the caller's working precision, mag =
    # _modulus(r) at the same.  At r = theta = 0 the argument is the branch
    # point -1/e before rounding, and the node the corner 1.  The argument is
    # mp.exp's, not an int one: near -1/e, W_0 scales a last-bit change of it
    # by up to 2^(c/2), and an int e^(i theta) rounds differently from
    # mpc_exp on about 3 % of nodes.
    if not r and not theta:
        return mpc(1)
    return -_w0(_argument(r, theta, mag))


# The double shadow of the equispaced nodes.  Node j of trace_level_curve is
# z_j = -W_0(x_j), x_j = -e^(-1-r+i theta_j); _shadow_half gives z_j / 2^k as
# a double with a radius R_j >= |double - z_j / 2^k|, where 2^k <= e^(-1-r)
# < 2^(k+1), so every double is of order 1 however small the curve is.  In
# the standard model (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, sec. 2.2), with u = 2^-53 and rounding to nearest, and
# with math.exp, math.cos, math.sin, math.log and abs() (hypot) faithfully
# rounded, each below 2u relative error, as glibc's are:
#   x_j / 2^k = -a e^(i theta_j) with a = e^(-1-r) / 2^k in [1, 2), which
#   mp.exp gives at the ambient P >= 80 bits within (r + 3) 2^-P before
#   float() rounds it by u; the closed-form node's own argument
#   -mp.exp(-1 - r + i theta_j) is within (r + 5) 2^(1-P) of the exact
#   x_j, relatively.  theta_j = 2 pi j / M errs by 3.001 u theta_j (pi, the
#   product, the division), cos and sin by 2 u, and the two products by u,
#   so x_j / 2^k is within u (3.001 theta_j + 4.001) + (r + 5) 2^(2-P) of
#   its double, relatively; u (4 theta_j + 5) + (r + 5) 2^(2-P) covers it.
# _w0_double then bounds the root of v e^(2^k v) = x_j / 2^k by Kantorovich's
# theorem.  The closed-form node is within 2^-77 |v| of that root, and
# R_j adds u |v| for it: _w0 stops once its Halley step on the same scaled
# equation is below 2^-(P + 13) |v|, with every step's arithmetic on a grid
# 2^-(P + 28) fine, so its last iterate is within about 2^-(P + 13) |v| of
# the root at P >= 80 bits, and rounding it to P bits adds 2^(1-P) |v|.
# Terms scaled by 2^k may underflow, each by at most 2^-1075, far below
# every u-sized margin here.  Nodes 0 and M/2 are the crossings rounded to
# nearest, within u |z| of them.

# Unit roundoff of IEEE double.  Every term of a double shadow's error bound
# is a multiple of it, so setting it to inf makes every bound infinite.
_SHADOW_U = 2.0**-53


def _ldexp(z, k):
    # z 2^k, exact in each part unless it underflows.
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _w0_double(x, k, dx):
    """W_0(2^k x) / 2^k in doubles, and a radius certified to reach it.

    Returns (v, R) with |v - W_0(2^k y) / 2^k| <= R for every y within dx
    of x.  v is fp.lambertw polished by one double Halley step on
    f(v) = v e^(2^k v) - x, where f' = e^(2^k v) (1 + 2^k v) and
    f'' = 2^k e^(2^k v) (2 + 2^k v).  Kantorovich's theorem for y: with
    eta >= |f(v) / f'(v)| and L >= |f''| on the disc |w - v| <= 2 eta, a
    root lies within 2 eta of v once |f'(v)|^-1 L eta <= 1/2.  The computed
    e^(2^k v) errs by 5.001 u relative, the product v e^(2^k v) by 4 u |v e|
    more, and the residual's subtraction and abs by 3.001 u |res|; y adds
    dx; |f'(v)| is within 13 u of its double.  The factors 1 + 32 u and
    1 + 8 u and the test 4 L eta <= |f'(v)| cover the rounding of eta, L and
    the test.  The
    disc is far smaller than the distance, about 2 |1 + w| near -1/e and
    more elsewhere, to any other branch's root, so the root is W_0's, which
    fp.lambertw seeds.  R is inf where the test fails.
    """
    v = _ldexp(complex(fp.lambertw(_ldexp(x, k))), -k)
    sv = _ldexp(v, k)
    e = cmath.exp(sv)
    f = v * e - x
    d = 1 + sv
    v -= f / (e * d - (2 + sv) * _ldexp(f, k) / (2 * d))
    sv = _ldexp(v, k)
    ea = math.exp(sv.real)
    e = complex(ea * math.cos(sv.imag), ea * math.sin(sv.imag))
    res = abs(v * e - x)
    d1 = abs(e * (1 + sv))
    u = _SHADOW_U
    eta = (1 + 32 * u) * (res + u * (4 * res + 10 * abs(v) * abs(e)) + dx) / d1
    if not eta < 0.5:
        return v, math.inf
    lip = (1 + 8 * u) * math.ldexp(
        math.exp(math.ldexp(v.real + 2 * eta, k))
        * (abs(2 + sv) + math.ldexp(2 * eta, k)),
        k,
    )
    if not 4 * lip * eta <= d1:
        return v, math.inf
    return v, 2 * eta


def _shadow_half(r, M, crossings, precision_bits):
    """Nodes 0 .. M/2 of trace_level_curve(r, M, precision_bits) as doubles.

    Returns (k, zs, rads): zs[j] is a double of node_j / 2^k and
    |zs[j] - node_j / 2^k| <= rads[j] (derived above _SHADOW_U), where
    2^k <= e^(-1-r) < 2^(k+1) and crossings = real_crossings(r,
    precision_bits).  Where r is too large for the bound, a radius is inf.
    """
    with workprec(op_precision(precision_bits, r) + 16):
        mant, k = mp.frexp(mp.exp(-1 - r))
        rel = math.ldexp(float(r) + 5, 2 - mp.prec)
    k -= 1
    a = float(2 * mant)
    zs, rads = [], []
    for j in range(M // 2 + 1):
        if j in (0, M // 2):
            z = complex(float(mp.ldexp(crossings[2 * j // M], -k)))
            zs.append(z)
            rads.append(_SHADOW_U * abs(z))
            continue
        theta = 2 * math.pi * j / M
        x = complex(-a * math.cos(theta), -a * math.sin(theta))
        dx = (_SHADOW_U * (4 * theta + 5) + rel) * abs(x)
        v, rad = _w0_double(x, k, dx)
        zs.append(-v)
        rads.append(rad + _SHADOW_U * abs(v))
    return k, zs, rads


def curve_point(r, theta, precision_bits: int = DEFAULT_TRACE_PRECISION) -> mpc:
    """The point z of Gamma_r with phi(z) = e^(-r + i theta), in closed form.

    phi(z) = w inverts on the bounded component as z = -W_0(-w/e)
    (Corless et al., Adv. Comput. Math. 5, 1996), so
    z = -W_0(-e^(-1-r+i theta)), with no continuation; _w0 evaluates W_0.
    At r = 0, theta = 0 the argument is the branch point -1/e, and z is the
    corner 1 exactly.
    """
    r = _check_r(r)
    theta = as_real(theta, "theta")
    with workprec(op_precision(precision_bits, r) + 16):
        return _curve_point(r, theta, _modulus(r))


def _theta(j, M):
    # theta_j = 2 pi j / M of trace_level_curve, at the ambient precision.
    return 2 * mp.pi * j / M


def _half_node(r, j, M, theta, crossings, mag):
    """Node j <= M/2 of a mirrored M-node curve, at the ambient precision.

    Nodes 0 and M/2 are crossings = real_crossings(r, ...); node j between
    them is the closed form at image angle theta, with mag = _modulus(r).
    At the precision op_precision(precision_bits, r) + 16 and theta =
    _theta(j, M) it is node j of trace_level_curve(r, M, precision_bits) to
    the last bit.
    """
    if j in (0, M // 2):
        return mpc(crossings[2 * j // M])
    return _curve_point(r, theta, mag)


def trace_level_curve(
    r, M: int, precision_bits: int = DEFAULT_TRACE_PRECISION
) -> LevelCurve:
    """Gamma_r at M equispaced image angles theta_j = 2 pi j / M."""
    r = _check_r(r)
    check_node_count(M)
    with workprec(op_precision(precision_bits, r) + 16):
        thetas = tuple(_theta(j, M) for j in range(M))
    return _mirrored_curve(r, thetas, precision_bits)


def _mirrored_curve(r, thetas, precision_bits) -> LevelCurve:
    """Gamma_r at M image angles with thetas[M - j] = 2 pi - thetas[j].

    Nodes 0 .. M/2 come from _half_node, and node M - j is the exact
    conjugate of node j; max_residual is taken over nodes 0 .. M/2; r has
    passed _check_r.
    """
    m = len(thetas)
    with workprec(op_precision(precision_bits, r) + 16):
        crossings, mag = real_crossings(r, precision_bits), _modulus(r)
        half = [
            _half_node(r, j, m, thetas[j], crossings, mag) for j in range(m // 2 + 1)
        ]
        # conjugate() rounds to the ambient precision, the nodes' own here.
        points = half + [z.conjugate() for z in reversed(half[1:-1])]
        return LevelCurve(
            r=r,
            samples=tuple(zip(thetas, points)),
            level=mp.e ** (-r),
            max_residual=_max_residual(r, half),
            precision_bits=precision_bits,
        )


def _max_residual(r, nodes):
    """max ||phi(z)| - e^(-r)| over the rounded nodes, at the ambient prec.

    |phi(z)| = |z| e^(1 - Re z), so with e^(-1-r) = a 2^k, a in [1/2, 1),
    the residual is e 2^k ||z / 2^k| e^(-Re z) - a|.  Each node is cut to
    ints on 2^-F, F = prec + 28, where |z / 2^k| (isqrt), e^(-Re z)
    (exp_fixed) and their product err by a few units, far below the
    residual, about 2^-prec, that rounding leaves in a node.
    """
    F = mp.prec + 28
    with workprec(F):
        a, k = mp.frexp(mp.exp(-1 - r))
    a = to_fixed(a, F)
    worst = 0
    for z in nodes:
        x, y = to_fixed(z.real, F - k), to_fixed(z.imag, F - k)
        size = (isqrt(x * x + y * y) * cexp(-(x >> -k), 0, F)[0]) >> F
        worst = max(worst, abs(size - a))
    return mp.e * mp.ldexp(worst, k - F)


def locate(z, curve: LevelCurve) -> RegionTag:
    """Classify z against Gamma_r: on the curve, interior, or exterior.

    OnCurve means the defining-equation residual ||phi(z)| - e^(-r)| is at
    most tol = max(1e-12, 8 * curve.max_residual) and |z| <= 1 + tol.
    Otherwise z is interior iff |z| < 1 and |phi(z)| < e^(-r).  That set
    is the inside of Gamma_r: log|phi| is harmonic away from 0 and
    |phi| >= 1 on the unit circle, so by the minimum principle each of its
    components contains 0.  The unbounded component of |phi| < e^(-r)
    along the positive real axis lies outside the unit disk.
    """
    prec = op_precision(curve.precision_bits, z)
    with workprec(prec + 16):
        tol = max(mpf("1e-12"), 8 * curve.max_residual)
        zc = mpc(z)
        size = abs(_phi(zc))
        if abs(size - curve.level) <= tol and abs(zc) <= 1 + tol:
            return RegionTag.ON_CURVE
        if abs(zc) < 1 and size < curve.level:
            return RegionTag.INTERIOR
        return RegionTag.EXTERIOR
