"""Parameter schedules and convergence experiments for the contracted zeros.

A schedule n -> alpha_n controls how fast the parameter approaches the
degenerate set S_n; the induced level is r_eff = -log(dist)/n.  Reports
quantify how closely the computed zero counting measure follows mu_(r_eff):
level deviation, angular Kolmogorov-Smirnov distance against the uniform
law, harmonic moment gaps, and the two extremality gaps used as
convergence proxies.  Every LevelCurve is mirrored about the real axis,
so the sup-norm gap is a maximum over nodes j <= M/2 of Gamma_(r_eff)
only.  The report's own zeros, summed in doubles within their certified
radii, screen those nodes, and only the ones that can hold the maximum are
evaluated at full precision.  Working precision comes from
precision.schedule_precision, re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from . import szego
from .errors import InvalidParameter, InvalidSchedule
from .laguerre import (
    LaguerreSpec,
    evaluate,
    evaluate_at_zero,
    param_decomposition,
    recommended_precision,
)
from .precision import as_real, op_precision, schedule_precision, workprec
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
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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


def _schedule_param(value, name) -> mpf:
    try:
        return as_real(value, name)
    except InvalidParameter as exc:
        raise InvalidSchedule(str(exc)) from exc


def make_schedule(kind: str, c=None, r=None) -> AlphaSchedule:
    """generic(c) with c in (0, 1/2]; exponential(r) with finite r > 0;
    superexponential (no parameters); no kind takes another's parameter.
    c and r are numbers (precision.as_real); text goes through ap_real."""
    if kind not in _SCHEDULE_KINDS:
        raise InvalidSchedule(
            f"unknown schedule kind {kind!r}; expected one of {_SCHEDULE_KINDS}"
        )
    if kind == "generic":
        if c is None or r is not None:
            raise InvalidSchedule("generic schedule takes parameter c and no r")
        c = _schedule_param(c, "c")
        if not (0 < c <= mpf(1) / 2):
            raise InvalidSchedule(f"need c in (0, 1/2], got {mp.nstr(c, 8)}")
        return AlphaSchedule(kind="generic", c=c)
    if kind == "exponential":
        if r is None or c is not None:
            raise InvalidSchedule("exponential schedule takes parameter r and no c")
        r = _schedule_param(r, "r")
        if r <= 0:
            raise InvalidSchedule(f"need r > 0, got {mp.nstr(r, 8)}")
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
    n = len(zeros)
    if n == 0:
        raise InvalidParameter("empty zero set")
    prec = op_precision(precision_bits, *zeros)
    with workprec(prec):
        thetas = sorted(_theta_of(z) for z in zeros)
        two_pi = 2 * mp.pi
        d = mpf(0)
        for i, t in enumerate(thetas):
            f = t / two_pi
            d = max(d, abs(f - mpf(i) / n), abs(mpf(i + 1) / n - f))
        return d


# The screen of supnorm_extremality encloses the log of each node's value
# v(z) = e^(-Re z) |L(z)|^(1/n), as its full-precision expression computes it
# at P >= 64 bits, less lam / n: L(z) = L_n^(alpha)(n z) = l_n p(z), p monic,
# l_n = (-1)^n n^n / n!, lam = log|l_n 2^(s n)| (|lam| <= n (1 + |s|)),
# 2^s <= e^(-1-r) < 2^(s+1) as in szego._shadow_half, y = z / 2^s, q(y) =
# p(z) / 2^(s n); u = 2^-53, math.log and complex abs faithful, mpmath 2 ulp.
#   The roots.  find_roots solved the coefficients c' of monic_rescaled at P
#     bits, within g = (5 n + 3) 2^-P relative of the true ones.  A root of c'
#     lies within rho_k of zero k; if the n disks are disjoint, each holds
#     one, eta_k, and q'(y) = prod_k (y - eta_k / 2^s) is c' scaled.  The
#     doubles ze_k of the zeros over 2^s and yh of y err by u |.| + 2^-1074;
#     rho >= 2^-1022 bounds every rho_k / 2^s (a cluster's radii leave double
#     range).  So the disks are disjoint if all |ze_i - ze_j| > 2.01 (rho +
#     u Z + 2^-1074), Z = max |ze_k|.
#   The sum.  h_k = abs(yh - ze_k) is within 3 u of |yh - ze_k|, itself
#     within a factor 1 +- tau of |y - eta_k / 2^s|, tau = (rho + u (|y| + Z)
#     + 2^-1073) / min h_k.  If tau <= 1/2, log|q'(y)| is within E = 1.01 (3 u
#     |S| + 4 n (u max(1, 1 - log min h_k) + tau)) of S = fsum log h_k: each
#     log errs by 2 u |log h_k|, and sum |log h_k| <= |S| + 2 n max(0,
#     -log min h_k).
#   The rest.  |c'_k| <= e_(n-k)(|eta|), so |q - q'| <= g (1 + 2 g) (|y| + Z +
#     rho)^n.  evaluate's recurrence errs by 6.01 n 2^-P Y_n at most, Y_n its
#     majorant with |a_k| <= |2k + 1 + alpha| + n R, R = rmax >= |z|; in units
#     of q, eq = 8 n 2^-P Y_n / |l_n 2^(s n)|.  Relative to |q'| >= e^(S - E)
#     these are rc and re; if both are <= e^-3, the log of the computed
#     |L| / |l_n 2^(s n)| is within D = E + 2.02 (rc + re) + 2^-1069 of S.
#     abs, pow(1/n), mp.e ** (-Re z) and the product move log v by 2^-P (8 +
#     2 |Re z| + 4 |log|L|| / n) at most, below u (3 + |s| + |re| + (|S| +
#     D) / n) / 2^9, and w = S / n - re, re = Re z as a double, errs by
#     u (|w| + |re| + |S| / n).  So the bounds are w +- (1.01 (D / n + u (2 |w|
#     + 2 |re| + 2 |S| / n + |s| + 2)) + 2^-1073).  Other nodes are unbounded.
# Every bound has terms in szego._SHADOW_U; at inf every node is a candidate.


def _log_bounds(zs, nodes, r, precision_bits):
    """(s, lower, upper): the bounds derived above, -inf / inf where uncertified."""
    u, n, alpha = szego._SHADOW_U, zs.spec.n, zs.spec.alpha
    prec = op_precision(precision_bits, alpha)
    with workprec(64):
        s = mp.frexp(mp.exp(-1 - r))[1] - 1
    ys, ze = ([complex(mp.ldexp(z.real, -s), mp.ldexp(z.imag, -s)) for z in pts]
              for pts in (nodes, zs.zeros))
    lower, upper = [-math.inf] * len(nodes), [math.inf] * len(nodes)
    rho = float(mp.ldexp(max(zs.radii, default=mp.inf), -s))
    big, rho = max(map(abs, ze), default=0.0), max(rho * (1 + 2.0**-52), 2.0**-1022)
    pairs = (abs(a - b) for i, a in enumerate(ze) for b in ze[i + 1 :])
    apart = 2.01 * (rho + u * big + 2.0**-1074)
    if (len(ze), len(zs.radii)) != (n, n) or not min(pairs, default=math.inf) > apart:
        return s, lower, upper
    rmax = (1 + 8 * u) * math.ldexp(max(map(abs, ys), default=0.0), s) + 2.0**-1074
    with workprec(prec):
        nr = n * mpf(rmax)
        prev, cur = mpf(1), abs(1 + alpha) + nr
        for k in range(1, n):
            a_k = abs(2 * k + 1 + alpha) + nr
            prev, cur = cur, (a_k * cur + abs(k + alpha) * prev) / (k + 1)
        eq = mp.ldexp(8 * n * cur * mp.factorial(n) / mpf(n) ** n, -prec - s * n)
        leq = float(mp.log(eq))
    lg = math.log(5 * n + 3) - prec * math.log(2) + 2.0**-40
    for j, (y, z) in enumerate(zip(ys, nodes)):
        hs = [abs(y - w) for w in ze]
        tau = (rho + u * (abs(y) + big) + 2.0**-1073) / min(hs)
        if not tau <= 0.5:
            continue
        S = math.fsum(map(math.log, hs))
        E = 1.01 * (3 * u * abs(S) + 4 * n * (u * max(1, 1 - math.log(min(hs))) + tau))
        lc = lg + n * math.log((abs(y) + big + rho) * (1 + 4 * u)) - S + E
        if max(lc, leq - S + E) <= -3:
            D = E + 2.02 * (math.exp(lc) + math.exp(leq - S + E)) + 2.0**-1069
            re = float(z.real)
            w = S / n - re
            err = D / n + u * (2 * abs(w) + 2 * abs(re) + 2 * abs(S) / n + abs(s) + 2)
            lower[j], upper[j] = w - 1.01 * err - 2.0**-1073, w + 1.01 * err + 2.0**-1073
    return s, lower, upper


def supnorm_extremality(
    zs: ZeroSet, curve: LevelCurve, precision_bits: int | None = None
) -> mpf:
    """max over the samples of curve of e^(-Re z) |L_n^(alpha)(n z)|^(1/n),
    for zs the zeros contracted_zeros(n, alpha, precision_bits) returns.

    The nodes next to the positive crossing x0 (the first, second and last
    sample) are excluded: the underlying bound holds quasi-everywhere and
    genuinely fails at x0.  L_n^(alpha) is real and node M - j of every
    LevelCurve is the exact conjugate of node j, so only nodes 2 .. M/2
    count.  Only those whose bound from the zeros' potential (_log_bounds)
    reaches the largest lower bound are evaluated at full precision, so the
    result is the full scan's to the last bit; where zs has no radii or its
    disks overlap, all are.
    """
    spec = zs.spec
    if spec is None or spec.scale != spec.n:
        raise InvalidParameter("supnorm_extremality needs zeros of L_n^(alpha)(n z)")
    n = spec.n
    if precision_bits is None:
        precision_bits = recommended_precision(n, spec.alpha)
    prec = op_precision(precision_bits, spec.alpha)
    nodes = curve.points[2 : len(curve) // 2 + 1]
    _, lower, upper = _log_bounds(zs, nodes, curve.r, precision_bits)
    least = max(lower, default=-math.inf)
    with workprec(prec):
        values = (
            mp.e ** (-mp.re(z)) * abs(evaluate(spec, z, precision_bits)) ** (mpf(1) / n)
            for z, hi in zip(nodes, upper)
            if not hi < least
        )
        return max(values, default=mpf(0))


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
        sup_val = supnorm_extremality(zs, curve, precision_bits)
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
    if not zs.zeros:
        raise InvalidParameter("empty zero set")
    prec = op_precision(precision_bits, *zs.zeros)
    with workprec(prec):
        levels = sorted(-mp.log(abs(phi_map(z, precision_bits))) for z in zs.zeros)
        m = len(levels)
        if m % 2 == 1:
            return levels[m // 2]
        return (levels[m // 2 - 1] + levels[m // 2]) / 2
