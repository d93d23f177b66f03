"""Parameter schedules and convergence experiments for the contracted zeros.

A schedule n -> alpha_n controls how fast the parameter approaches the
degenerate set S_n; the induced level is r_eff = -log(dist)/n.  Reports
quantify how closely the computed zero counting measure follows mu_(r_eff):
level deviation, angular Kolmogorov-Smirnov distance against the uniform
law, harmonic moment gaps, and the two extremality gaps used as
convergence proxies.  Every LevelCurve is mirrored about the real axis,
so the sup-norm gap is a maximum over nodes j <= M/2 of Gamma_(r_eff)
only.  Working precision comes from precision.schedule_precision,
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import InvalidSchedule
from .laguerre import (
    LaguerreSpec,
    evaluate,
    evaluate_at_zero,
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


def supnorm_extremality(
    n: int, alpha, curve: LevelCurve, precision_bits: int | None = None
) -> mpf:
    """max over the samples of curve of e^(-Re z) |L_n^(alpha)(n z)|^(1/n).

    The nodes next to the positive crossing x0 (the first, second and last
    sample) are excluded: the underlying bound holds quasi-everywhere and
    genuinely fails at x0.  L_n^(alpha) has real coefficients, so the value
    at conj z equals the value at z to the last bit; node M - j of every
    LevelCurve is exactly the conjugate of node j, so only nodes
    2 .. M/2 are evaluated.
    """
    if precision_bits is None:
        precision_bits = recommended_precision(n, alpha)
    spec = LaguerreSpec.contracted(n, alpha)
    prec = op_precision(precision_bits, spec.alpha)
    with workprec(prec):
        best = mpf(0)
        for z in curve.points[2 : len(curve) // 2 + 1]:
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
