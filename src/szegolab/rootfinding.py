"""Simultaneous root finding for the monic contracted polynomials.

Aberth-Ehrlich iteration with Newton polish.  Exact origin roots (all
trailing coefficients identically zero, the alpha = -k degenerate case)
are deflated before iterating, since simultaneous iterations stagnate on
multiple roots.

Starts form a restart ladder, tried in order until one converges:

* limit-law: the paper's limit law puts the zeros of L_n^(alpha)(n z) on
  Gamma_(r_eff), distributed like mu_(r_eff), so the m seeds are
  z_k = -W_0(-e^(-1-r_eff) e^(i theta_k)), theta_k = 2 pi (k + 1/2) / m
  (szego's closed form, evaluated at 64 bits and promoted by Aberth).
  Used only when the coefficient list carries its LaguerreSpec, no origin
  roots were deflated, dist(alpha, S_n) <= 1 (r_eff >= 0, the paper's
  regime) and the cluster signal below is off; otherwise skipped.
* circle: radius 1/2 with an irrational phase offset.
* geometric: the geometric-mean radius |c_0|^(1/m).  When that radius
  signals that every root is far inside |z| = 1/2, it comes before the
  circle.
* newton-polygon: annuli from the Newton polygon of the coefficients.

Conjugate pairs.  With real coefficients and a LaguerreSpec (no origin
roots deflated), the number of real zeros is known before solving:
R = R+ + R-, Szego's count of positive zeros plus the negative one (see
_real_zero_counts).  When R+ <= 1 and R <= 2, which covers the paper's
regime and every schedule, the first rung -- limit-law, or geometric for
the cluster -- runs on half the roots: R real seeds at the real crossings
x0 / x_neg of Gamma_(r_eff) (or at +-|c_0|^(1/m)) and P = (m - R)/2 seeds
in the upper half plane, at theta_k = pi (k + 1/2) / P on Gamma_(r_eff)
(or on the upper half of the geometric circle).  Only those P + R roots
are iterated, the real ones in real arithmetic; the lower half is their
exact conjugate, so conjugate zeros agree to the last bit and real zeros
have Im z = 0 exactly.  If that rung fails, the rest of the ladder runs
unchanged.  Otherwise the rung keeps its full seeds: Gamma_(r_eff) crosses
the real axis once on each side, so it has no seed for a second positive
zero, and naive real seeds stall when many zeros are real.

On the full rungs, with real coefficients, a root whose imaginary part is
below its residual and that has no other root within twice that distance
is returned as real (Im z = 0 exactly), so the order of real zeros does not
hang on the sign of rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .errors import DegenerateParameter, InvalidParameter, NonConvergence
from .laguerre import (
    CoeffList,
    LaguerreSpec,
    evaluate_at_zero,
    monic_rescaled,
    param_decomposition,
    recommended_precision,
)
from .measures import DiscreteMeasure
from .precision import mantissa_bits, op_precision, workprec
from .szego import curve_point, real_crossings

SWEEP_CAP = 200

# Phase offset (as a fraction of a turn) for initial circles; irrational so
# no starting point hits a symmetry axis of the root set.
_GOLDEN = "0.6180339887498948482045868343656381177"

# |c_0|^(1/m) below this means the whole root set sits far inside the
# default circle |z| = 1/2; start from the geometric-mean radius instead.
_CLUSTER_SIGNAL = mpf("1e-3")

# Precision of the limit-law seeds.  Aberth promotes them to working
# precision; seeds at working precision take the same sweeps and cost more.
_SEED_BITS = 64


@dataclass(frozen=True)
class ZeroSet:
    """All roots (with multiplicity) plus per-root residuals |p/p'|.

    start names the ladder rung whose Aberth run delivered the roots
    ("limit-law", "circle", "geometric", "newton-polygon"), or
    "closed-form" when at most two roots remained after deflation; sweeps
    counts that run's Aberth sweeps (0 for closed forms).
    """

    zeros: tuple
    residuals: tuple
    origin_multiplicity: int
    spec: LaguerreSpec | None = None
    start: str = "closed-form"
    sweeps: int = 0

    def __len__(self) -> int:
        return len(self.zeros)


def _horner_pair(coeffs, z):
    """Evaluate p(z) and p'(z) together; coeffs ascending degree.  Real
    coefficients at a real z stay in real arithmetic."""
    p = coeffs[-1]
    dp = mpf(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _start_circle(m, radius, offset_turns):
    pts = []
    for i in range(m):
        angle = 2 * mp.pi * (i + offset_turns) / m
        pts.append(radius * mp.e ** (1j * angle))
    return pts


class _Half(NamedTuple):
    """Starts of a conjugate-pair run: upper-half-plane points (their
    conjugates are implied) and real points."""

    upper: list
    reals: list


def _real_zero_counts(spec):
    """(R+, R-): the numbers of positive and negative zeros of L_n^(alpha).

    R+ is Szego's count (Orthogonal Polynomials, Thm 6.73): n for
    alpha > -1, n + floor(alpha) + 1 for -n < alpha < -1 and 0 for
    alpha < -n.  R- = 1 iff L_n^(alpha)(0) < 0: the zeros' product has the
    sign of L_n^(alpha)(0), so that is the parity of the negative zeros,
    and at most one is assumed.  A pair run started from a wrong count
    cannot converge, and the ladder moves on.
    """
    n, alpha = spec.n, spec.alpha
    if alpha > -1:
        pos = n
    elif alpha < -n:
        pos = 0
    else:
        pos = n + int(mp.floor(alpha)) + 1
    neg = 1 if evaluate_at_zero(spec, _SEED_BITS) < 0 else 0
    return pos, neg


def _angles(count, turns):
    # theta_k = turns * pi * (k + 1/2) / count at the seed precision.
    with workprec(_SEED_BITS):
        return [turns * mp.pi * (k + mpf(1) / 2) / count for k in range(count)]


def _limit_law_starts(spec, m, counts=None):
    """Seeds on Gamma_(r_eff), or None when alpha is degenerate or outside
    the paper's regime (r_eff < 0).

    Without counts, m seeds at theta_k = 2 pi (k + 1/2) / m.  With
    counts = (R+, R-), both at most 1, a _Half: R+ seeds at x0, R- at
    x_neg and P = (m - R)/2 upper seeds at theta_k = pi (k + 1/2) / P.
    """
    try:
        r_eff = param_decomposition(spec.n, spec.alpha).r_eff
    except DegenerateParameter:
        return None
    if r_eff < 0:
        return None
    with workprec(_SEED_BITS):
        r_eff = +r_eff
    if counts is None:
        return [curve_point(r_eff, t, _SEED_BITS) for t in _angles(m, 2)]
    pos, neg = counts
    x0, x_neg = real_crossings(r_eff, _SEED_BITS)
    upper = [curve_point(r_eff, t, _SEED_BITS) for t in _angles((m - pos - neg) // 2, 1)]
    return _Half(upper, [x0] * pos + [x_neg] * neg)


def _half_circle(m, radius, counts):
    """_Half starts on the circle |z| = radius: R+ at radius, R- at
    -radius, and P = (m - R)/2 at angles pi (k + 1/2) / P."""
    pos, neg = counts
    thetas = _angles((m - pos - neg) // 2, 1)
    return _Half([radius * mp.e ** (1j * t) for t in thetas], [radius] * pos + [-radius] * neg)


def _newton_polygon_starts(coeffs, offset_turns):
    """Initial points from the upper convex hull of (k, log2|c_k|).

    Each hull segment of width d contributes d points on the annulus of
    radius (|c_lo|/|c_hi|)^(1/d), the classical estimate for the moduli of
    the roots it accounts for.
    """
    pts = [(k, mp.log(abs(c), 2)) for k, c in enumerate(coeffs) if c != 0]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    starts = []
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        d = k2 - k1
        radius = mpf(2) ** ((v1 - v2) / d)
        for i in range(d):
            angle = 2 * mp.pi * (i + offset_turns + k1) / d
            starts.append(radius * mp.e ** (1j * angle))
    return starts


def _newton(coeffs, z):
    """The Newton correction p(z)/p'(z), or None where p(z) = 0."""
    p, dp = _horner_pair(coeffs, z)
    if p == 0:
        return None
    if dp == 0:
        dp = mpf(2) ** (-mp.prec)
    return p / dp


def _aberth_step(newton, s):
    # Aberth's correction from the Newton step and sum_j 1/(z - z_j).
    denom = 1 - newton * s
    return newton if denom == 0 else newton / denom


def _aberth(coeffs, starts, tol):
    """Run Aberth-Ehrlich from the given starts.

    Returns (roots, converged, sweeps).
    """
    z = [mpc(s) for s in starts]
    m = len(z)
    for sweep in range(1, SWEEP_CAP + 1):
        max_step = mpf(0)
        for i in range(m):
            newton = _newton(coeffs, z[i])
            if newton is None:
                continue
            step = _aberth_step(
                newton, mp.fsum((1 / (z[i] - z[j]) for j in range(m) if j != i))
            )
            z[i] = z[i] - step
            max_step = max(max_step, abs(newton), abs(step))
        if max_step < tol:
            return z, True, sweep
    return z, False, SWEEP_CAP


def _pair_terms(z, pairs, skip=None):
    # 1/(z - w) + 1/(z - conj w) = 2 (z - a) / ((z - a)^2 + b^2) for each
    # w = a + i b in pairs, given as (a, b^2), except pairs[skip].
    out = []
    for k, (a, b2) in enumerate(pairs):
        if k != skip:
            d = z - a
            out.append(2 * d / (d * d + b2))
    return out


def _aberth_pairs(coeffs, upper, reals, tol):
    """Aberth-Ehrlich for real coefficients on the roots upper, their
    conjugates and reals, iterating only upper and reals (reals in real
    arithmetic).

    Returns (upper, reals, converged, sweeps).
    """
    w = [mpc(s) for s in upper]
    x = [mpf(s) for s in reals]
    pairs = [(v.real, v.imag**2) for v in w]
    for sweep in range(1, SWEEP_CAP + 1):
        max_step = mpf(0)
        for i in range(len(w)):
            z = w[i]
            newton = _newton(coeffs, z)
            if newton is None:
                continue
            terms = _pair_terms(z, pairs, i) + [1 / (z - t) for t in x]
            terms.append(mpc(0, -1 / (2 * z.imag)))  # 1/(z - conj z)
            step = _aberth_step(newton, mp.fsum(terms))
            w[i] = z = z - step
            pairs[i] = (z.real, z.imag**2)
            max_step = max(max_step, abs(newton), abs(step))
        for i in range(len(x)):
            newton = _newton(coeffs, x[i])
            if newton is None:
                continue
            terms = _pair_terms(x[i], pairs)
            terms += [1 / (x[i] - t) for j, t in enumerate(x) if j != i]
            step = _aberth_step(newton, mp.fsum(terms))
            x[i] = x[i] - step
            max_step = max(max_step, abs(newton), abs(step))
        if max_step < tol:
            return w, x, True, sweep
    return w, x, False, SWEEP_CAP


def _residual(coeffs, z):
    p, dp = _horner_pair(coeffs, z)
    scale = abs(dp) if dp != 0 else mpf(2) ** (-mp.prec)
    return abs(p) / scale


def _polish_and_residuals(coeffs, roots):
    polished = []
    residuals = []
    for z in roots:
        for _ in range(2):
            p, dp = _horner_pair(coeffs, z)
            if dp == 0 or p == 0:
                break
            z = z - p / dp
        polished.append(z)
        residuals.append(_residual(coeffs, z))
    return polished, residuals


def _mirror(coeffs, upper, reals):
    """Polish and residuals on upper and reals; the lower half is the exact
    conjugate of upper and shares its residuals."""
    upper, res_upper = _polish_and_residuals(coeffs, upper)
    reals, res_reals = _polish_and_residuals(coeffs, reals)
    lower = [w.conjugate() for w in upper]  # exact at the roots' precision
    return upper + lower + [mpc(x) for x in reals], res_upper * 2 + res_reals


def _snap_real(coeffs, roots, residuals):
    """Set Im z = 0 where |Im z| <= residual and no other root lies within
    2 |Im z|; the residual is recomputed at the real point."""
    roots, residuals = list(roots), list(residuals)
    for i, z in enumerate(roots):
        y = abs(z.imag)
        if y == 0 or y > residuals[i]:
            continue
        if any(abs(z - w) <= 2 * y for j, w in enumerate(roots) if j != i):
            continue
        roots[i] = mpc(z.real)
        residuals[i] = _residual(coeffs, roots[i])
    return roots, residuals


def _sort_key(z):
    return (mp.arg(z), abs(z))


def find_roots(coeffs: CoeffList, precision_bits: int, tol=None) -> ZeroSet:
    """All roots of a monic polynomial, each with residual <= tol."""
    if not coeffs.monic_flag:
        raise InvalidParameter("find_roots requires a monic coefficient list")
    prec = op_precision(precision_bits, *coeffs.coeffs)
    if tol is None:
        tol = mpf(2) ** (-(precision_bits // 2))
    else:
        tol = mpf(tol) if not isinstance(tol, mpf) else tol
        if not (tol > 0) or not mp.isfinite(tol):
            raise InvalidParameter(f"need finite tol > 0, got {tol}")
    n = coeffs.degree

    with workprec(prec + 16):
        c = list(coeffs.coeffs)
        real = not any(isinstance(a, mpc) for a in c)
        mult = 0
        while mult < n and c[0] == 0:
            c.pop(0)
            mult += 1
        m = len(c) - 1
        zeros = [mpc(0)] * mult
        residuals = [mpf(0)] * mult
        start, sweeps = "closed-form", 0

        if m == 1:
            root_list, res_list = _polish_and_residuals(c, [-mpc(c[0])])
        elif m == 2:
            b, c0 = mpc(c[1]), mpc(c[0])
            sq = mp.sqrt(b * b - 4 * c0)
            s = b + sq if mp.re(b.conjugate() * sq) >= 0 else b - sq
            q = -s / 2
            root_list, res_list = _polish_and_residuals(c, [q, c0 / q])
        elif m >= 3:
            spec = coeffs.spec if mult == 0 else None
            root_list, res_list, start, sweeps = _iterate_with_restarts(
                c, m, tol, spec, real
            )
        else:
            root_list, res_list = [], []
        if real:
            root_list, res_list = _snap_real(c, root_list, res_list)

        if res_list and max(res_list) > tol:
            raise NonConvergence(
                f"root residuals up to {mp.nstr(max(res_list), 6)} exceed "
                f"tol = {mp.nstr(tol, 6)} at {prec} bits",
                best=tuple(zeros + root_list),
                max_residual=max(res_list),
            )

        order = sorted(range(len(root_list)), key=lambda i: _sort_key(root_list[i]))
        zeros += [root_list[i] for i in order]
        residuals += [res_list[i] for i in order]

    return ZeroSet(
        zeros=tuple(zeros),
        residuals=tuple(residuals),
        origin_multiplicity=mult,
        spec=coeffs.spec,
        start=start,
        sweeps=sweeps,
    )


def _iterate_with_restarts(c, m, tol, spec, real):
    """Aberth from each rung of the ladder in turn; returns (roots,
    residuals, rung name, sweeps) of the first to converge within tol,
    else of the attempt with the smallest worst residual.  A rung whose
    starts are a _Half runs on conjugate pairs."""
    offset = mpf(_GOLDEN)
    geo_radius = abs(c[0]) ** (mpf(1) / m)
    counts = _real_zero_counts(spec) if spec is not None and real else None
    if counts is not None and (counts[0] > 1 or sum(counts) > 2):
        counts = None  # one seed per side; naive real seeds stall
    circle = ("circle", _start_circle(m, mpf(1) / 2, offset))
    geometric = ("geometric", _start_circle(m, geo_radius, offset))
    if geo_radius < _CLUSTER_SIGNAL:
        if counts is not None:
            geometric = ("geometric", _half_circle(m, geo_radius, counts))
        attempts = [geometric, circle]
    else:
        attempts = [circle, geometric]
        law = None if spec is None else _limit_law_starts(spec, m, counts)
        if law is not None:
            attempts.insert(0, ("limit-law", law))
    attempts.append(("newton-polygon", _newton_polygon_starts(c, offset)))

    best = None
    for name, starts in attempts:
        if isinstance(starts, _Half):
            upper, reals, converged, sweeps = _aberth_pairs(
                c, starts.upper, starts.reals, tol
            )
            roots, res = _mirror(c, upper, reals)
        else:
            roots, converged, sweeps = _aberth(c, starts, tol)
            roots, res = _polish_and_residuals(c, roots)
        worst = max(res)
        if best is None or worst < max(best[1]):
            best = (roots, res, name, sweeps)
        if converged and worst <= tol:
            return roots, res, name, sweeps
    return best


def contracted_zeros(
    n: int, alpha, precision_bits: int | None = None, tol=None
) -> ZeroSet:
    """Zeros of the contracted polynomial L_n^(alpha)(n z).

    Default precision is degree- and distance-aware: parameters
    exponentially close to the degenerate set S_n produce coefficients
    with catastrophic cancellation in the Vieta sums, so extra mantissa
    proportional to -log2 dist(alpha, S_n) is added automatically.
    """
    spec = LaguerreSpec.contracted(n, alpha)
    if precision_bits is None:
        precision_bits = recommended_precision(n, spec.alpha)
    monic = monic_rescaled(spec, precision_bits)
    return find_roots(monic, precision_bits, tol)


def counting_measure(zs: ZeroSet) -> DiscreteMeasure:
    """Uniform unit mass on the zeros (weights 1/n each)."""
    n = len(zs.zeros)
    if n == 0:
        raise InvalidParameter("empty zero set")
    prec = max(64, max((mantissa_bits(z) for z in zs.zeros), default=64))
    with workprec(prec):
        w = mpf(1) / n
        weights = (w,) * n
    if zs.spec is not None:
        label = (
            f"nu(L_{zs.spec.n}^({mp.nstr(zs.spec.alpha, 12)})"
            f"({mp.nstr(zs.spec.scale, 6)} z))"
        )
    else:
        label = f"nu(p_{n})"
    return DiscreteMeasure(points=zs.zeros, weights=weights, label=label)
