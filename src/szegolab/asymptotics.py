"""Parameter schedules and convergence experiments for the contracted zeros.

A schedule n -> alpha_n controls how fast the parameter approaches the
degenerate set S_n; the induced level is r_eff = -log(dist)/n.  Reports
quantify how closely the computed zero counting measure follows mu_(r_eff):
level deviation, angular Kolmogorov-Smirnov distance against the uniform
law, harmonic moment gaps, and the two extremality gaps used as
convergence proxies.  Every LevelCurve is mirrored about the real axis,
so the sup-norm gap is a maximum over nodes j <= M/2 of Gamma_(r_eff)
only.  A double-precision Horner pass with a certified error bound screens
those nodes, and only the ones that can hold the maximum are evaluated at
full precision.  Working precision comes from
precision.schedule_precision, re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from . import szego
from .errors import InvalidSchedule
from .laguerre import (
    LaguerreSpec,
    evaluate,
    evaluate_at_zero,
    monic_rescaled,
    param_decomposition,
    recommended_precision,
)
from .precision import op_precision, schedule_precision, workprec
from .rootfinding import ZeroSet, contracted_zeros
from .szego import LevelCurve, _phi, phi_map, trace_level_curve

_SCHEDULE_KINDS = ("generic", "exponential", "superexponential")


@dataclass(frozen=True)
class AlphaSchedule:
    """One of the three parameter schedules toward S_n."""

    kind: str
    c: mpf | None = None
    r: mpf | None = None

    def dist_log2(self, n: int) -> mpf:
        """log2 of dist(alpha_n, S_n), exact up to rounding."""
        with workprec(64):
            if self.kind == "generic":
                return mp.log(self.c, 2)
            if self.kind == "exponential":
                return -self.r * n / mp.log(2)
            return -mpf(n) ** 2 / mp.log(2)

    def precision_bits(self, n: int) -> int:
        return schedule_precision(n, float(self.dist_log2(n)))

    def alpha_at(self, n: int) -> mpf:
        """alpha_n at a precision that keeps dist fully resolved."""
        if not isinstance(n, int) or n < 1:
            raise InvalidSchedule(f"need positive int n, got {n}")
        prec = self.precision_bits(n)
        with workprec(prec):
            if self.kind == "generic":
                return -n - self.c
            if self.kind == "exponential":
                eps = mp.e ** (-self.r * n)
                if eps >= mpf(1) / 2:
                    raise InvalidSchedule(
                        f"exponential schedule needs e^(-r n) < 1/2; "
                        f"n = {n} is too small for r = {mp.nstr(self.r, 8)}"
                    )
                return -n + eps
            return -n + mp.e ** (-mpf(n) ** 2)

    def r_limit(self) -> mpf:
        if self.kind == "generic":
            return mpf(0)
        if self.kind == "exponential":
            return self.r
        return mp.inf


def make_schedule(kind: str, c=None, r=None) -> AlphaSchedule:
    """generic(c) with c in (0, 1/2]; exponential(r) with finite r >= 0;
    superexponential (no parameters)."""
    if kind not in _SCHEDULE_KINDS:
        raise InvalidSchedule(
            f"unknown schedule kind {kind!r}; expected one of {_SCHEDULE_KINDS}"
        )
    if kind == "generic":
        if c is None:
            raise InvalidSchedule("generic schedule needs parameter c")
        c = mpf(c) if not isinstance(c, mpf) else c
        if not (0 < c <= mpf(1) / 2):
            raise InvalidSchedule(f"need c in (0, 1/2], got {mp.nstr(c, 8)}")
        return AlphaSchedule(kind="generic", c=c)
    if kind == "exponential":
        if r is None:
            raise InvalidSchedule("exponential schedule needs parameter r")
        r = mpf(r) if not isinstance(r, mpf) else r
        if not (r >= 0) or not mp.isfinite(r):
            raise InvalidSchedule(f"need finite r >= 0, got {mp.nstr(r, 8)}")
        return AlphaSchedule(kind="exponential", r=r)
    if c is not None or r is not None:
        raise InvalidSchedule("superexponential schedule takes no parameters")
    return AlphaSchedule(kind="superexponential")


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance of the degree-n zero distribution from the mu_(r_eff) law,
    with the zeros and the Gamma_(r_eff) curve it was measured on."""

    n: int
    alpha: mpf
    r_eff: mpf
    level_deviation: mpf
    ks_theta: mpf
    moment_gaps: tuple
    supnorm_gap: mpf
    origin_gap: mpf
    zeros: ZeroSet
    curve: LevelCurve


def _theta_of(z):
    theta = mp.arg(_phi(z))
    if theta < 0:
        theta += 2 * mp.pi
    return theta


def ks_uniform_theta(zeros, precision_bits: int = 128) -> mpf:
    """Kolmogorov-Smirnov distance of {arg phi(zeta_i)} from uniform [0, 2pi)."""
    prec = op_precision(precision_bits, *zeros)
    n = len(zeros)
    with workprec(prec):
        thetas = sorted(_theta_of(z) for z in zeros)
        two_pi = 2 * mp.pi
        d = mpf(0)
        for i, t in enumerate(thetas):
            f = t / two_pi
            d = max(d, abs(f - mpf(i) / n), abs(mpf(i + 1) / n - f))
        return d


# The double screen of supnorm_extremality.  Node z of the curve has the
# value v(z) = e^(-Re z) |L(z)|^(1/n), L(z) = L_n^(alpha)(n z) = l_n p(z),
# l_n = (-1)^n n^n / n!, p monic with the coefficients c_k of
# laguerre.monic_rescaled.  With y = z / 2^s, 2^s <= e^(-1-r) < 2^(s+1) as in
# szego._shadow_half, p(z) = 2^(s n) q(y), q(y) = sum_k b_k y^k,
# b_k = c_k 2^(s (k - n)) exactly (mp.ldexp), so q is monic and of order 1 on
# the curve however small the curve is, and log v(z) = lam / n - Re z +
# log|q(y)| / n with lam = log|l_n 2^(s n)| the same for every node.  The
# screen encloses, for each node, the log of the value that the
# full-precision expression of supnorm_extremality computes, less lam / n.
# In the standard model (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, secs. 2.2, 3.6 and 5.1), with u = 2^-53, rounding to
# nearest, math.log faithful (szego states the same of exp, cos and sin),
# mpmath's abs, log, exp and pow within two units in the last place, and
# P >= 64 the bits of the full-precision expression:
#   Horner in doubles.  q_n = 1, q_k = q_(k+1) y + b_k, and the computed
#     qh_k = fl(fl(yh qh_(k+1)) + bh_k), with yh and bh_k the doubles of y
#     and b_k.  A complex product rounds by at most sqrt(2) gamma_2 relative
#     (sec. 3.6), adding the real bh_k by u, and |yh - y| <= u |y|.  So
#     e_k = qh_k - q_k = y e_(k+1) + t_k with |t_k| <= 1.01 u |qh_k| +
#     3.83 u |yh| |qh_(k+1)| + |bh_k - b_k|, and |qh_0 - q(y)| <=
#     sum_k |y|^k |t_k|.  Its first two parts are at most 4.84 u mu, with
#     mu = sum_k |yh|^k |qh_k| Higham's running bound; 7 u mu also covers
#     the error of abs(qh_0) (hypot, within 2 u), one of mu's terms.
#   The coefficients.  monic_rescaled builds c_k from alpha with at most
#     5 n + 2 roundings at P bits, within g |c_k|, g = (5 n + 3) 2^-P, of the
#     true coefficient; the double adds u.  A b_k below 2^-1022 is flushed
#     to 0 and errs by at most 2^-1021.  Coefficient k thus weighs
#     w_k = 1.01 (u + g) |bh_k| + 2^-1020 in sw = sum_k |yh|^k w_k; the
#     2^-1020 also covers underflow in the pass (2^-1072 per operation) and
#     in the double of eq below.
#   The sums in doubles.  mu, sw and |y|^k <= |yh|^k (1 + u)^k are within
#     (1 + u)^(8 n + 12) of their computed values, with the roundings of rad
#     below; F = 1 + 10 (n + 1) u covers that.  A node with |yh| below
#     2^-1000, where a subnormal part of yh would break |yh - y| <= u |y|,
#     is not bounded.
#   The full-precision recurrence.  evaluate runs y_(k+1) = (a_k y_k -
#     b'_k y_(k-1)) / (k + 1), a_k = 2k + 1 + alpha - n z, b'_k = k + alpha,
#     at P' >= P bits.  A step's result is the exact step from the computed
#     y_k and y_(k-1) within 6 2^-P (A_k |y_k| + |b'_k| |y_(k-1)|) / (k + 1),
#     A_k = |2k + 1 + alpha| + n R >= |a_k|, R = rmax >= max |z|.  With the
#     majorant Y_0 = 1, Y_1 = A_0, Y_(k+1) = (A_k Y_k + |b'_k| Y_(k-1)) /
#     (k + 1), induction bounds the error of y_k by ((1 + 6 2^-P)^k - 1) Y_k,
#     so that of L(z) by 6.01 n 2^-P Y_n.  Y_n is computed at P bits, and
#     eq = 8 n 2^-P Y_n / |l_n 2^(s n)| bounds the error in units of q, with
#     room for the roundings of Y_n, of eq and of its double.
#   So |L(z)| / |l_n 2^(s n)| lies within rad = F (7 u mu + sw) + eq of the
#     double |qh_0|; x = |qh_0| +- rad rounds by u relative.
#   The rest of the expression.  abs, pow(1/n), mp.e ** (-Re z) and the
#     product at P bits move log v by at most 2^-P (8 + 2 |Re z| +
#     4 |log|L|| / n); the part that scales with |log|L|| is monotone in it,
#     so the end x may stand in for |L|.  The screen doubles this term for
#     the rounding of its own double.  Then w = log(x) / n - re, re = Re z as
#     a double, is within u (2 |w| + 2 |re| + 4 |log x| / n + 2) + 2^-1073
#     of log(x) / n - Re z, the rounding of w +- that margin included.
# Every bound has terms in szego._SHADOW_U, so setting it to inf makes every
# bound infinite and every node a candidate.


def _log_bounds(spec, nodes, r, precision_bits):
    """(s, lower, upper): certified bounds, derived above, on the log of each
    node's full-precision value less log|l_n 2^(s n)| / n.

    A bound that cannot be certified is -inf or inf (or nan for an upper).
    """
    u = szego._SHADOW_U
    n = spec.n
    coeffs = monic_rescaled(spec, precision_bits).coeffs
    prec = op_precision(precision_bits, spec.alpha)
    with workprec(64):
        s = mp.frexp(mp.exp(-1 - r))[1] - 1
        lam = float(n * mp.log(n) - mp.log(mp.factorial(n)) + s * n * mp.ln2)
    ys = [complex(mp.ldexp(z.real, -s), mp.ldexp(z.imag, -s)) for z in nodes]
    rmax = (1 + 8 * u) * math.ldexp(max(map(abs, ys), default=0.0), s) + 2.0**-1074
    with workprec(prec):
        nr = n * mpf(rmax)
        prev, cur = mpf(1), abs(1 + spec.alpha) + nr
        for k in range(1, n):
            prev, cur = cur, (
                (abs(2 * k + 1 + spec.alpha) + nr) * cur + abs(k + spec.alpha) * prev
            ) / (k + 1)
        eq = float(mp.ldexp(8 * n * cur * mp.factorial(n) / mpf(n) ** n, -prec - s * n))
    ub = 1.01 * (u + math.ldexp(5 * n + 3, -prec))
    low = []
    for c, k in zip(coeffs[-2::-1], range(n - 1, -1, -1)):
        b = float(mp.ldexp(c, s * (k - n)))
        b = b if abs(b) >= 2.0**-1022 else 0.0
        low.append((b, ub * abs(b) + 2.0**-1020))
    f = 1 + 10 * (n + 1) * u

    def widen(x, re):
        # log(x) / n - re and its margin, derived above
        lx = math.log(x)
        w = lx / n - re
        tail = math.ldexp(8 + 2 * abs(re) + 4 * (abs(lam) + abs(lx)) / n, -prec)
        return w, u * (2 * abs(w) + 2 * abs(re) + 4 * abs(lx) / n + 2) + (
            2.0**-1073 + 2 * tail
        )

    upper, lower = [], []
    for y, z in zip(ys, nodes):
        ay = abs(y)
        q, mu, sw = 1 + 0j, 1.0, ub + 2.0**-1020
        for b, wb in low:
            q = q * y + b
            mu = mu * ay + abs(q)
            sw = sw * ay + wb
        rad = f * (7 * u * mu + sw) + eq if ay >= 2.0**-1000 else math.inf
        re = float(z.real)
        w, err = widen(abs(q) + rad, re)
        upper.append(w + err)
        lo = abs(q) - rad
        if 0 < lo < math.inf:
            w, err = widen(lo, re)
            lower.append(w - err)
        else:
            lower.append(-math.inf)
    return s, lower, upper


def supnorm_extremality(
    n: int, alpha, curve: LevelCurve, precision_bits: int | None = None
) -> mpf:
    """max over the samples of curve of e^(-Re z) |L_n^(alpha)(n z)|^(1/n).

    The nodes next to the positive crossing x0 (the first, second and last
    sample) are excluded: the underlying bound holds quasi-everywhere and
    genuinely fails at x0.  L_n^(alpha) has real coefficients, so the value
    at conj z equals the value at z to the last bit; node M - j of every
    LevelCurve is exactly the conjugate of node j, so only nodes
    2 .. M/2 can hold the maximum.  A double-precision Horner pass with a
    certified running error bound (_log_bounds) encloses each of their
    values, and a node is evaluated at full precision only if its upper
    bound reaches the largest lower bound: every other node's value is
    strictly below some node's, so the result is the full scan's to the
    last bit.  Where the bounds are not finite every node is evaluated.
    """
    if precision_bits is None:
        precision_bits = recommended_precision(n, alpha)
    spec = LaguerreSpec.contracted(n, alpha)
    prec = op_precision(precision_bits, spec.alpha)
    nodes = curve.points[2 : len(curve) // 2 + 1]
    _, lower, upper = _log_bounds(spec, nodes, curve.r, precision_bits)
    least = max(lower, default=-math.inf)
    with workprec(prec):
        best = mpf(0)
        for z, hi in zip(nodes, upper):
            if hi < least:
                continue
            val = mp.e ** (-mp.re(z)) * abs(evaluate(spec, z, precision_bits)) ** (
                mpf(1) / n
            )
            best = max(best, val)
        return best


def origin_extremality(n: int, alpha, precision_bits: int | None = None) -> mpf:
    """| |L_n^(alpha)(0)|^(1/n) - e^(-r_eff) |."""
    if precision_bits is None:
        precision_bits = recommended_precision(n, alpha)
    spec = LaguerreSpec(n, alpha, mpf(1))
    pd = param_decomposition(n, spec.alpha, precision_bits)
    with workprec(op_precision(precision_bits, spec.alpha)):
        value = abs(evaluate_at_zero(spec, precision_bits)) ** (mpf(1) / n)
        return abs(value - mp.e ** (-pd.r_eff))


def zero_distribution_report(
    n: int, alpha, M_curve: int = 512, precision_bits: int | None = None
) -> ConvergenceReport:
    """Full convergence diagnostics for the contracted zeros at (n, alpha).

    The zeros are solved once and Gamma_(r_eff) is traced once, with M_curve
    nodes at up to 512 bits; both are returned in the report.  r_eff is
    rounded to the trace precision first, since the trace would otherwise
    rise to r_eff's own mantissa.
    """
    if precision_bits is None:
        precision_bits = recommended_precision(n, alpha)
    pd = param_decomposition(n, alpha, precision_bits)
    zs = contracted_zeros(n, alpha, precision_bits)
    trace_bits = min(precision_bits, 512)
    with workprec(trace_bits):
        r_trace = +pd.r_eff
    curve = trace_level_curve(r_trace, M_curve, trace_bits)
    prec = op_precision(precision_bits, pd.r_eff, *zs.zeros)
    with workprec(prec):
        level_dev = mpf(0)
        for z in zs.zeros:
            level_dev = max(level_dev, abs(mp.log(abs(_phi(z))) + pd.r_eff))
        moment_gaps = []
        for k in range(5):
            mean = mp.fsum((z**k for z in zs.zeros)) / n
            moment_gaps.append(abs(mean - (1 if k == 0 else 0)))
        ks = ks_uniform_theta(zs.zeros, precision_bits)
        sup_val = supnorm_extremality(n, alpha, curve, precision_bits)
        supnorm_gap = sup_val - mp.e ** (-pd.r_eff)
        origin_gap = origin_extremality(n, alpha, precision_bits)
    return ConvergenceReport(
        n=n,
        alpha=zs.spec.alpha if zs.spec is not None else alpha,
        r_eff=pd.r_eff,
        level_deviation=level_dev,
        ks_theta=ks,
        moment_gaps=tuple(moment_gaps),
        supnorm_gap=supnorm_gap,
        origin_gap=origin_gap,
        zeros=zs,
        curve=curve,
    )


def level_median(zs: ZeroSet, precision_bits: int = 128) -> mpf:
    """Median over zeros of -log|phi(zeta)|, the observed level."""
    prec = op_precision(precision_bits, *zs.zeros)
    with workprec(prec):
        levels = sorted(-mp.log(abs(phi_map(z, precision_bits))) for z in zs.zeros)
        m = len(levels)
        if m % 2 == 1:
            return levels[m // 2]
        return (levels[m // 2 - 1] + levels[m // 2]) / 2
