"""Laguerre polynomials L_n^(a) with arbitrary real parameter.

Everything here works for parameters far outside the classical range
a > -1, in particular for a near the degenerate set S_n = {-n, ..., -1}
where the polynomial acquires a multiple zero at the origin.  Two
evaluation paths are provided: the three-term recurrence (stable, used for
point evaluation) and explicit coefficients (used to feed the root finder,
and as exact ints for the right side of the Askey check).  Generalized
binomials are always accumulated as plain products, never as Gamma ratios,
so negative integer parameters are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .errors import DegenerateParameter, InvalidParameter
from .fixed import gaussian_ints
from .precision import (
    as_real,
    default_precision,
    mantissa_bits,
    op_precision,
    schedule_precision,
    workprec,
)


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree, parameter, and contraction scale of L_n^(alpha)(scale*z)."""

    n: int
    alpha: mpf
    scale: mpf

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InvalidParameter(f"degree n must be a positive int, got {self.n}")
        object.__setattr__(self, "alpha", as_real(self.alpha, "alpha"))
        object.__setattr__(self, "scale", as_real(self.scale, "scale"))
        if not (self.scale > 0):
            raise InvalidParameter(f"scale must be positive, got {self.scale}")

    @classmethod
    def contracted(cls, n: int, alpha) -> "LaguerreSpec":
        """Spec for L_n^(alpha)(n z), the contraction used throughout."""
        return cls(n, alpha, n)


@dataclass(frozen=True)
class CoeffList:
    """Ascending-degree coefficients; monic lists end in an exact 1."""

    coeffs: tuple
    monic_flag: bool
    spec: LaguerreSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise InvalidParameter("empty coefficient list")
        if self.monic_flag and self.coeffs[-1] != 1:
            raise InvalidParameter(
                f"monic_flag set but leading coefficient is {self.coeffs[-1]}"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class ParamDecomposition:
    """Position of alpha relative to the degenerate set S_n = {-n..-1}.

    alpha = -k_n - delta_n with k_n = min(floor(-alpha), n); dist is the
    distance from alpha to S_n, attained at -h_n; r_eff = -log(dist)/n is
    the finite-n level (dist^(1/n) = e^(-r_eff)).
    """

    dist: mpf
    h_n: int
    k_n: int
    delta_n: mpf
    r_eff: mpf


def _binomial_products(n: int, alpha):
    """Return [binom(n+alpha, m) for m = 0..n] at the ambient precision.

    binom(n+alpha, m) = prod_{i=n-m+1..n} (alpha+i) / m!.  Numerator and
    denominator are accumulated separately so that integer alpha gives
    exact integer ratios (no per-factor rounding).
    """
    out = [mpf(1)]
    num = mpf(1)
    den = mpf(1)
    for m in range(1, n + 1):
        num = num * (alpha + (n - m + 1))
        den = den * m
        out.append(num / den)
    return out


def coefficients(spec: LaguerreSpec, precision_bits: int) -> CoeffList:
    """Coefficients of L_n^(alpha)(scale*z), ascending degree.

    coeffs[k] = binom(n+alpha, n-k) * (-scale)^k / k!.
    """
    n = spec.n
    prec = op_precision(precision_bits, spec.alpha, spec.scale)
    with workprec(prec):
        binom = _binomial_products(n, spec.alpha)
        coeffs = []
        pow_ns = mpf(1)
        fact = mpf(1)
        neg_scale = -spec.scale
        for k in range(n + 1):
            if k > 0:
                pow_ns = pow_ns * neg_scale
                fact = fact * k
            coeffs.append(binom[n - k] * pow_ns / fact)
    return CoeffList(tuple(coeffs), monic_flag=False, spec=spec)


def monic_rescaled(spec: LaguerreSpec, precision_bits: int | None = None) -> CoeffList:
    """Monic coefficients of p_n(z) = L_n^(alpha)(n z) / l_n, l_n = (-1)^n n^n/n!.

    Requires scale = n.  coeffs[k] = (-1)^(n-k) binom(n+alpha, n-k) n!/(k! n^(n-k)),
    with the leading coefficient exactly 1.
    """
    n = spec.n
    if spec.scale != n:
        raise InvalidParameter(
            f"monic_rescaled requires scale = n, got scale={spec.scale}, n={n}"
        )
    if precision_bits is None:
        precision_bits = default_precision(n)
    prec = op_precision(precision_bits, spec.alpha)
    with workprec(prec):
        binom = _binomial_products(n, spec.alpha)
        coeffs = [mpf(0)] * (n + 1)
        coeffs[n] = mpf(1)
        # ratio_k = n! / (k! n^(n-k)), built downward from ratio_n = 1.
        ratio = mpf(1)
        sign = 1
        for k in range(n - 1, -1, -1):
            ratio = ratio * (k + 1) / n
            sign = -sign
            coeffs[k] = sign * binom[n - k] * ratio
    return CoeffList(tuple(coeffs), monic_flag=True, spec=spec)


def _recurrence(n: int, alpha, w):
    """L_n^(alpha)(w) by the three-term recurrence; handles n = 0."""
    if n == 0:
        return mpf(1)
    prev = mpf(1)
    cur = 1 + alpha - w
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - w) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def evaluate(spec: LaguerreSpec, z, precision_bits: int | None = None):
    """L_n^(alpha)(scale*z) via the stable three-term recurrence."""
    if precision_bits is None:
        precision_bits = default_precision(spec.n)
    prec = op_precision(precision_bits, spec.alpha, spec.scale, z)
    with workprec(prec):
        w = spec.scale * (mpc(z) if isinstance(z, (complex, mpc)) else mpf(z))
        return _recurrence(spec.n, spec.alpha, w)


def evaluate_at_zero(spec: LaguerreSpec, precision_bits: int | None = None) -> mpf:
    """L_n^(alpha)(0) = binom(n+alpha, n) = prod_{k=1..n} (alpha+k)/k.

    Exactly zero iff alpha is an integer in {-1, ..., -n}.
    """
    if precision_bits is None:
        precision_bits = default_precision(spec.n)
    prec = op_precision(precision_bits, spec.alpha)
    with workprec(prec):
        num = mpf(1)
        for k in range(1, spec.n + 1):
            num = num * (spec.alpha + k)
        return num / mp.factorial(spec.n)


def param_decomposition(
    n: int, alpha, precision_bits: int | None = None
) -> ParamDecomposition:
    """Decompose alpha against S_n = {-n, ..., -1}.

    dist = delta_n when alpha < -n, min(delta_n, 1-delta_n) when
    -n < alpha < -1; ties at half-integers resolve toward the element of
    smaller modulus.  alpha in S_n (exactly, at working precision) is
    degenerate and rejected.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"degree n must be a positive int, got {n}")
    alpha = as_real(alpha, "alpha")
    if precision_bits is None:
        precision_bits = default_precision(n)
    prec = op_precision(precision_bits, alpha)
    with workprec(prec):
        k_n = min(int(mp.floor(-alpha)), n)
        delta = -alpha - k_n
        if alpha >= -1:
            h_n = 1
            dist = abs(alpha + 1)
        elif alpha < -n:
            h_n = n
            dist = -alpha - n
        else:
            # -n <= alpha < -1, so 1 <= k_n <= n and 0 <= delta < 1.
            if delta == 0:
                raise DegenerateParameter(
                    f"alpha = {alpha} lies in S_{n} = {{-{n}, ..., -1}}"
                )
            if delta <= mpf(1) / 2:
                h_n = k_n
                dist = delta
            else:
                h_n = k_n + 1
                dist = 1 - delta
        if dist == 0:
            raise DegenerateParameter(
                f"alpha = {alpha} is at zero distance from S_{n} "
                f"at {prec}-bit precision"
            )
        r_eff = -mp.log(dist) / n
    return ParamDecomposition(dist=dist, h_n=h_n, k_n=k_n, delta_n=delta, r_eff=r_eff)


def recommended_precision(n: int, alpha) -> int:
    """Degree- and distance-aware default precision for L_n^(alpha)(n z) work.

    schedule_precision at dist(alpha, S_n), and never below the bits alpha
    itself carries plus 64.
    """
    a = as_real(alpha, "alpha")
    try:
        dist_log2 = mp.log(param_decomposition(n, a, default_precision(n)).dist, 2)
    except DegenerateParameter:
        dist_log2 = 0  # exact degenerate alpha: handled exactly by root deflation
    return max(schedule_precision(n, dist_log2), mantissa_bits(a) + 64)


@dataclass(frozen=True)
class AskeyResult:
    """Both sides of the integral representation check; iterates as
    (lhs, rhs, abs_error) so it unpacks like the documented triple."""

    lhs: mpf
    rhs: mpf
    abs_error: mpf

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.abs_error))


# askey_check refuses inputs that span more than this many bits beyond the
# working precision: its exact ints would grow to n times that span.
_ASKEY_SPREAD_BITS = 1 << 16


def _scaled_coefficients(n: int, B: int, one: int) -> tuple:
    """(d, n!): ints with c_j one^(n-j) = d[j] / n! exactly, for beta = B / one.

    c_j = (-1)^j binom(n+beta, n-j) / j! is the coefficient of t^j in
    L_n^(beta)(t), so n! c_j = (-1)^j binom(n, j) prod_{i=j+1..n} (beta + i).
    """
    d = [0] * (n + 1)
    prod, comb, fact = 1, 1, 1
    for j in range(n, -1, -1):
        d[j] = -comb * prod if j & 1 else comb * prod
        prod *= B + j * one
        comb = comb * j // (n - j + 1)
        fact *= max(j, 1)
    return d, fact


def askey_check(n: int, alpha, beta, x, precision_bits: int | None = None) -> AskeyResult:
    """Check e^(-x) L_n^(a)(x) = (1/Gamma(s)) int_x^inf (t-x)^(s-1) e^(-t) L_n^(b)(t) dt, s = b - a.

    The left side is the three-term recurrence.  The right side is the same
    integral in closed form, from L_n^(b)'s explicit coefficients c_j.  With
    t = x + u and int_0^inf u^(s-1+i) e^(-u) du = Gamma(s) (s)_i, it is
    e^(-x) sum_j c_j m_j, where m_j = sum_i binom(j, i) x^(j-i) (s)_i is the
    j-th moment of x + u under u^(s-1) e^(-u) / Gamma(s).  Integrating by
    parts (s > 0 makes the boundary terms vanish) gives m_0 = 1, m_1 = x + s
    and m_(j+1) = (x + s + j) m_j - j x m_(j-1).  No Gamma is evaluated and
    nothing is truncated.

    alpha, beta and x are taken exactly as ints A, B, X over one = 2^E,
    E >= 0.  Then n! c_j one^(n-j) (_scaled_coefficients) and m_j one^j are
    ints, so q = sum_j c_j m_j = N / (n! one^n) for an exact int N.  At
    P = prec + 32 bits, q is rounded once, to q (1 + d1), and multiplied by
    e' = e^(-x) (1 + d0), the same rounded value the left side uses; that
    product rounds once more, by d2.  With |d1|, |d2| <= 2^-P,
    |rhs - e' q| <= (2^(1-P) + 2^(-2P)) |e' q|, and e' q differs from the
    integral only by d0, which scales both sides alike.  For n = 0, q = 1
    and rhs = lhs = e' exactly.

    The ints grow to about n D bits, where D is the span of A, B, X and one.
    When D exceeds the working precision by more than 2^16 bits (as for
    x = 2^-(2^24)), InvalidParameter is raised instead.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidParameter(f"degree n must be a nonnegative int, got {n}")
    alpha = as_real(alpha, "alpha")
    beta = as_real(beta, "beta")
    x = as_real(x, "x")
    if not (beta > alpha):
        raise InvalidParameter(f"need beta > alpha, got beta={beta}, alpha={alpha}")
    if x < 0:
        raise InvalidParameter(f"need x >= 0, got {x}")
    if precision_bits is None:
        precision_bits = max(192, default_precision(max(n, 1)))
    prec = op_precision(precision_bits, alpha, beta, x)
    (A, B, X, one), _, e = gaussian_ints([alpha, beta, x, mpf(1)])
    spread = max(abs(v).bit_length() for v in (A, B, X, one))
    if spread > prec + _ASKEY_SPREAD_BITS:
        raise InvalidParameter(
            f"alpha, beta and x span {spread} bits, more than {prec} + 2^16"
        )
    XS = X + B - A
    d, den = _scaled_coefficients(n, B, one)
    N, m_prev, m = 0, 0, 1
    for j in range(n + 1):
        N += d[j] * m
        m_prev, m = m, (XS + j * one) * m - (j * X * m_prev << -e)
    with workprec(prec + 32):
        ex = mp.e ** (-x)
        lhs = ex * _recurrence(n, alpha, x)
        q = mpf_div(from_man_exp(N, n * e), from_int(den), mp.prec, round_nearest)
        rhs = ex * mp.make_mpf(q)
        abs_error = abs(lhs - rhs)
    return AskeyResult(lhs=lhs, rhs=rhs, abs_error=abs_error)
