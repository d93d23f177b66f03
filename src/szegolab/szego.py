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
of any curve.  trace_level_curve samples the equispaced theta_j = 2 pi j / M.
_w0 evaluates W_0 by mpmath's Halley iteration and stop rule from a close
seed: the double W_0(x), or the branch series where x is near -1/e.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from mpmath import fp, mp, mpc, mpf

from .errors import InvalidParameter, NonConvergence
from .precision import op_precision, workprec

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
    return z * mp.e ** (1 - z)


def phi_map(z, precision_bits: int = 128):
    """phi(z) = z e^(1-z)."""
    prec = op_precision(precision_bits, z)
    with workprec(prec):
        return _phi(mpc(z) if isinstance(z, (complex, mpc)) else mpf(z))


def _check_r(r) -> mpf:
    r = mpf(r) if not isinstance(r, mpf) else r
    if not (r >= 0) or not mp.isfinite(r):
        raise InvalidParameter(f"need finite r >= 0, got {r}")
    return r


def real_crossings(r, precision_bits: int = DEFAULT_TRACE_PRECISION):
    """Real-axis crossings of Gamma_r, by _w0 like every other curve node.

    x0 in (0, 1] solves x e^(1-x) = e^(-r), so x0 = -W_0(-e^(-1-r));
    x_neg in (-1, 0) solves |x| e^(1-x) = e^(-r), so x_neg = -W_0(e^(-1-r)).
    Where -e^(-1-r) rounds onto or below the branch point -1/e (r = 0, or r
    below the working precision), W_0 there is not real; x0 is then the
    corner 1.
    """
    r = _check_r(r)
    with workprec(op_precision(precision_bits, r) + 16):
        w = _w0(-mp.e ** (-1 - r))
        x0 = mpf(1) if r == 0 or w.imag else -w.real
        return x0, -_w0(mp.e ** (-1 - r)).real


def check_node_count(M) -> None:
    """Validate a node count for a discretized Gamma_r: an even int >= 16."""
    if not isinstance(M, int) or M < 16 or M % 2 != 0:
        raise InvalidParameter(f"need even node count M >= 16, got {M}")


def _w0(x):
    """W_0(x) at the ambient precision prec, by Halley's iteration.

    The iteration, its working precision prec + 20 and its stop rule
    mag(w_new - w) <= mag(w_new) - (prec + 15) are mpmath's lambertw's; the
    seed is better.  Away from the branch point -1/e it is the double
    fp.lambertw(x), good to about 1e-16, so three steps finish at 192 bits
    where lambertw's rough seed takes about six.  Where e x + 1 cancels
    c > _BRANCH_BITS bits, a double no longer resolves it and the seed is the
    branch series -1 + p - p^2/3 + 11 p^3/72, p = sqrt(2 (e x + 1))
    (Corless et al. 1996).  As in lambertw, the precision rises by c/2 bits,
    or the ill-conditioned steps near -1/e cannot meet the stop rule.  Where
    e x + 1 rounds to 0, x is the branch point and W_0(x) = -1.  Raises
    NonConvergence after _W0_MAX_ITER steps, where lambertw only warns.
    """
    prec = mp.prec
    d = mp.e * x + 1
    if not d:
        return mpc(-1)
    cancel = max(0, -mp.mag(d))
    with workprec(prec + 20 + cancel // 2):
        if cancel > _BRANCH_BITS:
            p = mp.sqrt(2 * d)
            w = -1 + p * (1 + p * (mpf(-1) / 3 + p * mpf(11) / 72))
        else:
            w = mpc(fp.lambertw(complex(x)))
        for _ in range(_W0_MAX_ITER):
            ew = mp.exp(w)
            wew = w * ew
            wewz = wew - x
            wn = w - wewz / (wew + ew - (w + 2) * wewz / (2 * w + 2))
            if mp.mag(wn - w) <= mp.mag(wn) - (prec + 15):
                break
            w = wn
        else:
            raise NonConvergence(
                f"W_0 Halley iteration hit {_W0_MAX_ITER} steps at x = {x}", best=wn
            )
    return +wn


def _curve_point(r, theta):
    # -W_0(-e^(-1-r+i theta)) at the caller's working precision.
    return -_w0(-mp.e ** (-1 - r + 1j * theta))


def curve_point(r, theta, precision_bits: int = DEFAULT_TRACE_PRECISION) -> mpc:
    """The point z of Gamma_r with phi(z) = e^(-r + i theta), in closed form.

    phi(z) = w inverts on the bounded component as z = -W_0(-w/e)
    (Corless et al., Adv. Comput. Math. 5, 1996), so
    z = -W_0(-e^(-1-r+i theta)), with no continuation; _w0 evaluates W_0.
    At r = 0, theta = 0 the argument is -1/e rounded, so z is the corner 1
    to about half the working precision, and exactly 1 where e x + 1
    rounds to 0, as it does at 192 bits.
    """
    r = _check_r(r)
    with workprec(op_precision(precision_bits, r) + 16):
        return _curve_point(r, theta)


def trace_level_curve(
    r, M: int, precision_bits: int = DEFAULT_TRACE_PRECISION
) -> LevelCurve:
    """Gamma_r at M equispaced image angles theta_j = 2 pi j / M."""
    check_node_count(M)
    with workprec(op_precision(precision_bits, r) + 16):
        thetas = (mpf(0),) + tuple(2 * mp.pi * j / M for j in range(1, M))
    return _mirrored_curve(r, thetas, precision_bits)


def _mirrored_curve(r, thetas, precision_bits) -> LevelCurve:
    """Gamma_r at M image angles with thetas[M - j] = 2 pi - thetas[j].

    Nodes 0 and M/2 are the real crossings x0 and x_neg, nodes
    1 .. M/2 - 1 come from the closed form, and node M - j is the exact
    conjugate of node j; max_residual is taken over nodes 0 .. M/2.
    """
    r = _check_r(r)
    m = len(thetas)
    with workprec(op_precision(precision_bits, r) + 16):
        x0, x_neg = real_crossings(r, precision_bits)
        half = [mpc(x0)] + [_curve_point(r, t) for t in thetas[1 : m // 2]]
        half.append(mpc(x_neg))
        # conjugate() rounds to the ambient precision, the nodes' own here.
        points = half + [z.conjugate() for z in reversed(half[1:-1])]
        level = mp.e ** (-r)
        return LevelCurve(
            r=r,
            samples=tuple(zip(thetas, points)),
            level=level,
            max_residual=max(abs(abs(_phi(z)) - level) for z in half),
            precision_bits=precision_bits,
        )


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
