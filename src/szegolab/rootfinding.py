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
  roots were deflated and dist(alpha, S_n) <= 1 (r_eff >= 0, the paper's
  regime, which includes the superexponential cluster, where Gamma_(r_eff)
  shrinks toward 0); otherwise skipped.
* circle: radius 1/2 with an irrational phase offset.
* newton-polygon: annuli from the Newton polygon of the coefficients.

The order is the same for every input.

Conjugate pairs.  Every rung yields (starts, npairs) as _sweeps takes
them; full rungs have npairs = 0.  With real coefficients and a LaguerreSpec
(no origin roots deflated), R = R+ + R-, Szego's count of positive zeros
plus the negative one, is known before solving (_real_zero_counts).  When
R+ <= 1 and R <= 2, which covers the paper's regime and every schedule,
the limit-law rung yields P = (m - R)/2 upper starts at theta_k =
pi (k + 1/2) / P on Gamma_(r_eff), then R real starts at its real
crossings x0 / x_neg, and npairs = P.  Only those P + R roots are
iterated, the real ones in real arithmetic; the lower half is their exact
conjugate, with their residuals and radii, so conjugate zeros agree to the
last bit and real zeros have Im z = 0 exactly.  A failed pair run hands
over to the rest of the ladder unchanged.  Other counts keep the
full starts: Gamma_(r_eff) crosses the real axis once on each side, so it
has no seed for a second positive zero, and naive real seeds stall when
many zeros are real.

On the full rungs, with real coefficients, a root is returned as real
(Im z = 0 exactly) where the certified radii prove a real root there: the
m disks are pairwise disjoint, so each holds one root, the root's disk
meets the real axis and its mirror image meets no other disk, so the root
in it is its own conjugate (_snap_real).  A conjugate pair is never
snapped.  So the order of real zeros does not hang on the sign of rounding
noise, and no heuristic threshold decides which zeros are real.

Fixed point.  The root finder runs on Python ints, not mpmath numbers,
whose per-operation overhead dominates below about 1000 bits.  With
2^(s m) <= |c_0| < 2^((s + 1) m), so that 2^s is about the geometric mean
of the root moduli, it works on y = z / 2^s and the scaled monic
polynomial with coefficients c_k 2^(s(k - m)), which is of order 1 on its
zeros.  Coefficients and iterates are ints on 2^-F, F the working
precision plus _FIXED_GUARD bits; each Horner product is an int multiply
and a shift, and each term of sum 1/(z - z_j) one int division.  After the
Aberth sweeps, one function (_polish) takes the Newton steps per root on
the same ints, rounds the root once to the working precision, and reads
its residual |p/p'| and a certified radius from one more Horner pass with
running error bounds.  The real snap re-polishes the snapped point the
same way; only the max(residual) <= tol gate compares mpf numbers.

Precision.  Only that last step needs the full width F.  Cut to W bits,
the coefficients move a root by about 2^(kappa - W) relative, kappa =
log2(A(|z|) / (|z| |p'(z)|)), A(t) = sum |c_k| t^k (Gautschi, Numer. Math.
21, 1973), and kappa is far below F: about 0.77 bits per degree at the
schedules' law seeds (40 bits at generic n = 60, 183 at n = 240, against
F = 303 and 933) and -3 on the superexponential cluster (F = 8089 at
n = 60).  So each rung sweeps at W = kappa-hat + _KAPPA_MARGIN bits, with
kappa-hat the largest kappa of its starts (_condition), until the largest
step is 2^-(_KAPPA_MARGIN / 2) of the roots' scale.  _polish then takes
every later Newton step: one on each grid whose good bits double, checked
against the bits it assumes, and the last two at F; the max(residual) <=
tol gate is kept.  If the narrow run or a checked step fails, or a
residual exceeds tol, full-width sweeps start from the roots reached.
(MPSolve likewise raises precision only where its inclusion radii need
it: Bini & Robol, J. Comput. Appl. Math. 272, 2014.)  ZeroSet.sweep_bits
records the grid of the run that delivered the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, isqrt

from mpmath import mp, mpc, mpf

from .errors import InvalidParameter, NonConvergence
from .fixed import cdiv, cmul, gaussian_ints, to_fixed, to_mpc
from .laguerre import (
    CoeffList,
    LaguerreSpec,
    evaluate_at_zero,
    monic_rescaled,
    param_decomposition,
    recommended_precision,
)
from .measures import DiscreteMeasure
from .precision import as_real, mantissa_bits, op_precision, workprec
from .szego import curve_point, real_crossings

SWEEP_CAP = 200

# Phase offset (as a fraction of a turn) for initial circles; irrational so
# no starting point hits a symmetry axis of the root set.
_GOLDEN = "0.6180339887498948482045868343656381177"

# Precision of the limit-law seeds.  Aberth promotes them to working
# precision; seeds at working precision take the same sweeps and cost more.
_SEED_BITS = 64

# Guard bits of the fixed-point Aberth sweeps above the working precision.
_FIXED_GUARD = 8

# Bits above the starts' condition kappa-hat at which a rung first sweeps.
_KAPPA_MARGIN = 128


@dataclass(frozen=True)
class ZeroSet:
    """All roots (with multiplicity) plus per-root residuals |p/p'|.

    radii (from find_roots; () on hand-built sets): a root of the solved
    coefficients lies within radii[i] of zeros[i], inf where none is certified.

    start names the ladder rung whose Aberth run delivered the roots
    ("limit-law", "circle", "newton-polygon"), or
    "closed-form" when at most two roots remained after deflation; sweeps
    counts that run's Aberth sweeps and sweep_bits is its int grid, W or
    the full width (both 0 for closed forms).  Neither enters an artifact.
    """

    zeros: tuple
    residuals: tuple
    origin_multiplicity: int
    spec: LaguerreSpec | None = None
    start: str = "closed-form"
    sweeps: int = 0
    sweep_bits: int = 0
    radii: tuple = ()

    def __len__(self) -> int:
        return len(self.zeros)


def _start_circle(m, offset_turns):
    return [mp.expj(2 * mp.pi * (i + offset_turns) / m) / 2 for i in range(m)]


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
    """(starts, npairs) on Gamma_(r_eff), or None outside the paper's regime
    (r_eff < 0).  find_roots passes a spec only when no root lies at 0, so
    alpha is not degenerate: alpha in S_n makes L_n^(alpha)(n z) vanish at 0.

    Without counts, m seeds at theta_k = 2 pi (k + 1/2) / m and npairs = 0.
    With counts = (R+, R-), both at most 1, a conjugate-pair run: P =
    (m - R+ - R-)/2 upper seeds at theta_k = pi (k + 1/2) / P, then R+
    copies of the real crossing x0 and R- of x_neg, and npairs = P.
    """
    r_eff = param_decomposition(spec.n, spec.alpha).r_eff
    if r_eff < 0:
        return None
    with workprec(_SEED_BITS):
        r_eff = +r_eff
    if counts is None:
        return [curve_point(r_eff, t, _SEED_BITS) for t in _angles(m, 2)], 0
    (pos, neg), (x0, x_neg) = counts, real_crossings(r_eff, _SEED_BITS)
    npairs = (m - pos - neg) // 2
    upper = [curve_point(r_eff, t, _SEED_BITS) for t in _angles(npairs, 1)]
    return upper + [x0] * pos + [x_neg] * neg, npairs


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
            starts.append(radius * mp.expj(angle))
    return starts


def _fixed_coeffs(coeffs, F):
    """(s, b): the scale 2^s, 2^(s m) <= |c_0| < 2^((s + 1) m) up to one
    step of s, and the coefficients b_k = c_k 2^(s(k - m)) of the monic
    p(2^s y) / 2^(s m) as (re, im) ints on 2^-F, k = m - 1 down to 0.

    2^s is about the geometric mean of the root moduli, so the scaled
    polynomial is of order 1 on its zeros.  (The largest root modulus is
    not: at n = 120 it leaves |p'| near 2^-336 at some zeros, below what
    F bits can resolve.)
    """
    m = len(coeffs) - 1
    s = mp.mag(coeffs[0]) // m if coeffs[0] else 0
    b = []
    for k in range(m - 1, -1, -1):
        c, e = mpc(coeffs[k]), F + s * (k - m)
        b.append((to_fixed(c.real, e), to_fixed(c.imag, e)))
    return s, b


def _horner_fixed(b, x, y, F):
    """(Re p, Im p, Re p', Im p') at x + iy, all ints on 2^-F, for the
    monic polynomial with coefficients b from _fixed_coeffs.  Each step
    truncates each part once, so each errs by less than one unit."""
    pr, pi_, dr, di = 1 << F, 0, 0, 0
    ypx, ymx = y + x, y - x
    for br, bi in b:
        # (a + ib)(x + iy) by Gauss's three products
        k = x * (dr + di)
        dr, di = ((k - di * ypx) >> F) + pr, ((k + dr * ymx) >> F) + pi_
        k = x * (pr + pi_)
        pr, pi_ = ((k - pi_ * ypx) >> F) + br, ((k + pr * ymx) >> F) + bi
    return pr, pi_, dr, di


def _condition(b, points, F):
    """kappa-hat: an int bound above max_k log2(A(|y_k|) / (|y_k| |p'(y_k)|))
    over points (x, y) on 2^-F, A(t) = sum |b_j| t^j, for the monic b of
    _fixed_coeffs (Gautschi, Numer. Math. 21, 1973); None where y_k = 0 or
    p'(y_k) = 0.  |b_j| is read as |Re b_j| + |Im b_j| and each log2 from a
    bit length, so the bound errs high by at most 3 bits.  On the scaled
    ints, not on doubles: |c_0| is about e^(-3661) at superexponential
    n = 60, and the doubles of the scaled coefficients underflow there.
    """
    worst = None
    for x, y in points:
        t = isqrt(x * x + y * y)
        _, _, dr, di = _horner_fixed(b, x, y, F)
        d = isqrt(dr * dr + di * di)
        if not (t and d):
            return None
        a = 1 << F
        for br, bi in b:
            a = ((a * t) >> F) + abs(br) + abs(bi)
        k = a.bit_length() + F + 2 - t.bit_length() - d.bit_length()
        worst = k if worst is None else max(worst, k)
    return worst


def _sweeps(coeffs, starts, npairs, tol, F=None, floor=None):
    """Aberth-Ehrlich sweeps in scaled fixed point; returns (roots,
    converged, sweeps).

    The first npairs starts are upper-half-plane roots that also stand for
    their conjugates; the rest are free roots.  Each root is held as the
    ints of y = z / 2^s on 2^-F (_fixed_coeffs), F = mp.prec +
    _FIXED_GUARD unless given, and each term of sum 1/(z - w) takes one
    reciprocal division; a squared distance below 2^-F counts as 2^-F.  A
    root where p = 0 exactly is not moved; where p' = 0 exactly, p' counts
    as 1.  The stop rule max(|p/p'|, |step|) < tol compares squared int
    norms with (tol 2^(F - s))^2.  A narrow run, F given, may be too coarse
    for tol; with floor given, it has also converged once its largest step
    is at most 2^floor units.  With real coefficients, real starts stay
    exactly real.
    """
    F = F or mp.prec + _FIXED_GUARD
    s, b = _fixed_coeffs(coeffs, F)
    zs = [mpc(z) for z in starts]
    xr = [to_fixed(z.real, F - s) for z in zs]
    xi = [to_fixed(z.imag, F - s) for z in zs]
    sq = [y * y for y in xi]
    one2, two2 = 1 << 2 * F, 1 << 2 * F + 1
    tt = to_fixed(tol, F - s) ** 2
    flat = None if floor is None else 1 << 2 * max(0, floor)
    n = len(zs)
    for sweep in range(1, SWEEP_CAP + 1):
        small = True
        big = 0
        for i in range(n):
            x, y = xr[i], xi[i]
            pr, pi_, dr, di = _horner_fixed(b, x, y, F)
            if not (pr or pi_):
                continue
            if not (dr or di):
                dr = 1 << F
            # sum 1/(z - w) on 2^-2F.  A pair w, conj w contributes
            # 2 d conj(D) / |D|^2 with d = z - Re w, D = d^2 + (Im w)^2.
            sr = si = 0
            y2 = sq[i]
            for j in range(npairs):
                if j != i:
                    u = x - xr[j]
                    ar = (u * u - y2 + sq[j]) >> F
                    ai = (u * y) >> (F - 1)
                    rec = two2 // (((ar * ar + ai * ai) >> F) or 1)
                    sr += ((u * ar + y * ai) >> F) * rec
                    si += ((y * ar - u * ai) >> F) * rec
            for j in range(npairs, n):
                if j != i:
                    ur, ui = x - xr[j], y - xi[j]
                    rec = one2 // (((ur * ur + ui * ui) >> F) or 1)
                    sr += ur * rec
                    si -= ui * rec
            sr, si = sr >> F, si >> F
            if i < npairs:
                si -= (1 << 2 * F - 1) // y  # 1/(z - conj z)
            # The Aberth step p / (p' - p S), one complex division.
            qr, qi = cmul(pr, pi_, sr, si, F)
            qr, qi = dr - qr, di - qi
            if not (qr or qi):
                qr, qi = dr, di
            hr, hi = cdiv(pr, pi_, qr, qi, F)
            h2 = hr * hr + hi * hi
            big = max(big, h2)
            if small:
                p2 = (pr * pr + pi_ * pi_) << 2 * F
                small = h2 < tt and p2 < tt * (dr * dr + di * di)
            xr[i], xi[i] = x - hr, y - hi
            sq[i] = xi[i] * xi[i]
        if flat is not None and big <= flat:
            small = True
        if small:
            break
    roots = [to_mpc(x, y, F - s) for x, y in zip(xr, xi)]
    return roots, small, sweep


def _polish(coeffs, roots, kappa=0, a=0):
    """Newton steps, a residual and a radius per root of the monic coeffs
    (degree m >= 1); returns a (root, residual, radius) triple each, or None.

    Roots good to a bits above the condition kappa (none if a <= 0) first
    take one step on each grid 2^-G, G = kappa + 2^j a for j = 1, 2, ...
    while G < F, on the coefficients cut to G, and are rounded to the working
    precision after each.  A step about doubles the good bits and 2^-G holds
    about G - kappa of them, so the last leaves at least half of what 2^-F
    holds.  None if a step is longer than 2^(-a/2) |y|, a the bits it
    assumes: the root had less than half of them.

    On _fixed_coeffs' grid 2^-F each root then takes two steps, each one
    _horner_fixed pass and one cdiv, skipped once p or p' is 0, and is
    rounded once to the working precision.  At y, that root cut to 2^-F,
    one more pass takes p on 2^-F as _horner_fixed has it and p' on
    2^-G >= 2^-F, from y and p cut to G bits (128 beyond |y|^m).  Each
    product and cut errs by under a unit per part, so the errors obey
    e_k <= |y| e_(k+1) + 3 and d_k <= (|y| + 3 2^-G) d_(k+1) + 3 +
    2^(1-G) |p'_(k+1)| + 2^(G-F) e_(k+1) units, from 0 (Higham 2002,
    section 5.1).  The residual is |p/p'| there (0 where p = 0, inf where
    p' = 0).  By Newton's disk a root lies within
    m (|p| + e_0) / (|p'| - d_0) (inf if |p'| <= d_0), plus 2 units for the
    cut: the radius, rounded up.
    """
    F = mp.prec + _FIXED_GUARD
    while 0 < a and kappa + 2 * a < F:
        G = kappa + 2 * a
        s, b = _fixed_coeffs(coeffs, G)
        out = []
        for z in roots:
            x, y = to_fixed(z.real, G - s), to_fixed(z.imag, G - s)
            pr, pi_, dr, di = _horner_fixed(b, x, y, G)
            if (pr or pi_) and (dr or di):
                hr, hi = cdiv(pr, pi_, dr, di, G)
                if (hr * hr + hi * hi) << a > x * x + y * y:
                    return None
                x, y = x - hr, y - hi
            out.append(to_mpc(x, y, G - s))
        roots, a = out, 2 * a
    m = len(coeffs) - 1
    s, b = _fixed_coeffs(coeffs, F)
    polished = []
    for z in map(mpc, roots):
        x, y = to_fixed(z.real, F - s), to_fixed(z.imag, F - s)
        for _ in range(2):
            pr, pi_, dr, di = _horner_fixed(b, x, y, F)
            if not (pr or pi_) or not (dr or di):
                break
            hr, hi = cdiv(pr, pi_, dr, di, F)
            x, y = x - hr, y - hi
        z = to_mpc(x, y, F - s)
        x, y = to_fixed(z.real, F - s), to_fixed(z.imag, F - s)
        a = isqrt(x * x + y * y) + 1
        G = min(F, 128 + m * max(0, a.bit_length() - F))
        c, pr, pi_, dr, di, e, d = F - G, 1 << F, 0, 0, 0, 0, 0
        u, v, ag = x >> c, y >> c, (a >> c) + 4
        for br, bi in b:
            d = ((ag * d) >> G) + ((abs(dr) + abs(di)) >> (G - 1)) + (e >> c) + 6
            dr, di = cmul(u, v, dr, di, G)
            dr, di = dr + (pr >> c), di + (pi_ >> c)
            e = ((a * e) >> F) + 4
            k = x * (pr + pi_)
            pr, pi_ = ((k - pi_ * (y + x)) >> F) + br, ((k + pr * (y - x)) >> F) + bi
        p2, d2 = pr * pr + pi_ * pi_, dr * dr + di * di
        if d2:
            residual = mp.ldexp(mp.sqrt(mpf(p2) / d2), G - F + s)
        else:
            residual = mp.inf if p2 else mpf(0)
        num = m * (isqrt(p2) + 1 + e)
        den = (isqrt(d2) - d) << c
        radius = mp.inf
        if den > 0:  # num / den + 2^(1 - F) as one fraction
            t = mp.fdiv((num << F) + 2 * den, den << F, prec=53, rounding="u")
            radius = mp.ldexp(t, s)
        polished.append((z, residual, radius))
    return polished


def _snap_real(coeffs, polished):
    """Set Im z = 0 on each zero whose disk holds a real root of the real
    coeffs; that real point is polished again (_polish keeps it real).

    Row k is (z_k, residual, r_k), and the disk D_k = {|w - z_k| <= r_k}
    holds a root of coeffs (_polish's radius).  If the m disks are pairwise
    disjoint, each holds exactly one of the m roots.  Let D_k meet the real
    axis while conj(D_k) meets no D_j, j != k, and let zeta be D_k's root.
    The coefficients are real, so conj zeta is a root too; it lies in
    conj(D_k), so in no D_j but D_k, whose only root is zeta: zeta is real.
    It lies within r_k of z_k, so within r_k of Re z_k, where the zero is
    polished again.  Every other zero is left as it is, a conjugate pair
    among them: conj(D_k) meets the partner's disk.  Centres and radii are
    read as Gaussian ints on one scale (fixed.gaussian_ints), so each
    comparison is exact.  The O(m^2) disjointness test runs only when some
    non-real disk meets the axis.  (MPSolve decides which roots are real
    from isolated inclusion disks too: Bini & Fiorentino, Numer. Algorithms
    23, 2000.)
    """
    meets = [k for k, (z, _, r) in enumerate(polished) if z.imag and abs(z.imag) <= r]
    if not meets or any(r == mp.inf for _, _, r in polished):
        return polished
    m = len(polished)
    X, Y, _ = gaussian_ints([z for z, _, _ in polished] + [r for _, _, r in polished])

    def apart(i, j, conj=False):  # D_i, or conj(D_i), and D_j are disjoint
        dx, dy = X[i] - X[j], (-Y[i] if conj else Y[i]) - Y[j]
        return dx * dx + dy * dy > (X[m + i] + X[m + j]) ** 2

    if not all(apart(i, j) for i in range(m) for j in range(i)):
        return polished
    out = list(polished)
    for k in meets:
        if all(apart(k, j, True) for j in range(m) if j != k):
            out[k] = _polish(coeffs, [polished[k][0].real])[0]
    return out


def _sort_key(z):
    return (mp.arg(z), abs(z))


# Double arguments further apart than this order their zeros' full keys.
_ARG_GAP = 2.0**-48


def _double_arg(z) -> float:
    """arg z as a double a, |a - arg z| < 2^-50.

    z / 2^s, 2^s = 2^mp.mag(z) >= |z|, has its larger part at least 1/4
    in size, and float() rounds each part to nearest: the point moves by less
    than 2^-53 sqrt(2) |z / 2^s| + 2^-1074 (a part that underflows keeps its
    sign), so its argument by less than 2^-52.  A faithfully rounded atan2
    adds less than one unit in the last place of |a| <= pi, 2^-51.
    """
    if not z:
        return 0.0
    s = mp.mag(z)
    return atan2(float(mp.ldexp(z.imag, -s)), float(mp.ldexp(z.real, -s)))


def _sorted_rows(rows) -> list:
    """rows, (z, residual, radius), in the order of sorted(rows, key =
    _sort_key of z), with the full key computed only where needed.

    The rows are sorted by their double arguments (_double_arg) and cut into
    runs where neighbours lie more than _ARG_GAP apart.  Across a cut the
    true arguments differ by more than 2^-48 - 2 * 2^-50 = 2^-49, far above
    the rounding of mp.arg at the working precision (at least 80 bits), so
    the full keys are in the same order.  Each run is sorted by the full key
    and then by the row's index, which is what the stable sort gives equal
    keys.  Real zeros of one sign share the double argument 0 or pi, so
    they form one run.
    """
    order = sorted((_double_arg(z), k) for k, (z, _, _) in enumerate(rows))
    out, run = [], []
    for j, (a, k) in enumerate(order):
        run.append(k)
        if j + 1 == len(order) or order[j + 1][0] - a > _ARG_GAP:
            if len(run) > 1:
                run.sort(key=lambda k: (_sort_key(rows[k][0]), k))
            out += [rows[k] for k in run]
            run = []
    return out


def find_roots(coeffs: CoeffList, precision_bits: int, tol=None) -> ZeroSet:
    """All roots of a monic polynomial, each with residual <= tol and a radius.

    tol, if given, is a positive number (precision.as_real; text goes
    through ap_real); the default is 2^-(precision_bits // 2).
    """
    if not coeffs.monic_flag:
        raise InvalidParameter("find_roots requires a monic coefficient list")
    prec = op_precision(precision_bits, *coeffs.coeffs)
    if tol is None:
        tol = mpf(2) ** (-(precision_bits // 2))
    else:
        tol = as_real(tol, "tol")
        if tol <= 0:
            raise InvalidParameter(f"need tol > 0, got {tol!r}")
    n = coeffs.degree

    with workprec(prec + 16):
        c = list(coeffs.coeffs)
        real = not any(isinstance(a, mpc) for a in c)
        mult = 0
        while mult < n and c[0] == 0:
            c.pop(0)
            mult += 1
        m = len(c) - 1
        start, sweeps, bits = "closed-form", 0, 0

        if m == 1:
            polished = _polish(c, [-mpc(c[0])])
        elif m == 2:
            b, c0 = mpc(c[1]), mpc(c[0])
            sq = mp.sqrt(b * b - 4 * c0)
            s = b + sq if mp.re(b.conjugate() * sq) >= 0 else b - sq
            q = -s / 2
            polished = _polish(c, [q, c0 / q])
        elif m >= 3:
            spec = coeffs.spec if mult == 0 else None
            polished, start, sweeps, bits = _iterate_with_restarts(c, m, tol, spec, real)
        else:
            polished = []
        if real:
            polished = _snap_real(c, polished)

        worst = max((res for _, res, _ in polished), default=0)
        if worst > tol:
            raise NonConvergence(
                f"root residuals up to {mp.nstr(worst, 6)} exceed "
                f"tol = {mp.nstr(tol, 6)} at {prec} bits",
                best=(mpc(0),) * mult + tuple(z for z, _, _ in polished),
                max_residual=worst,
            )
        rows = [(mpc(0), mpf(0), mpf(0))] * mult
        rows += _sorted_rows(polished)

    return ZeroSet(
        zeros=tuple(z for z, _, _ in rows),
        residuals=tuple(res for _, res, _ in rows),
        origin_multiplicity=mult,
        spec=coeffs.spec,
        start=start,
        sweeps=sweeps,
        sweep_bits=bits,
        radii=tuple(rad for _, _, rad in rows),
    )


def _iterate_with_restarts(c, m, tol, spec, real):
    """Aberth from each rung of the ladder in turn; returns (polished rows,
    rung name, sweeps, sweep bits) of the first to converge within tol, else
    of the attempt with the smallest worst residual.  Each rung yields
    (starts, npairs) as _sweeps takes them, built only when the rung runs, or
    None to be skipped.  The first npairs rows stand for conjugate pairs:
    their exact conjugates follow them, with the same residuals and radii."""
    offset = mpf(_GOLDEN)
    counts = _real_zero_counts(spec) if spec is not None and real else None
    if counts is not None and (counts[0] > 1 or sum(counts) > 2):
        counts = None  # one seed per side; naive real seeds stall
    rungs = {
        "limit-law": lambda: None if spec is None else _limit_law_starts(spec, m, counts),
        "circle": lambda: (_start_circle(m, offset), 0),
        "newton-polygon": lambda: (_newton_polygon_starts(c, offset), 0),
    }

    best = None
    for name, rung in rungs.items():
        run = rung()
        if run is None:
            continue
        starts, npairs = run
        polished, converged, sweeps, bits = _run_rung(c, starts, npairs, tol)
        # conjugate() is exact at the roots' precision
        lower = [(z.conjugate(), res, rad) for z, res, rad in polished[:npairs]]
        polished[npairs:npairs] = lower
        if converged:
            return polished, name, sweeps, bits
        worst = max(res for _, res, _ in polished)
        if best is None or worst < best[0]:
            best = (worst, polished, name, sweeps, bits)
    return best[1:]


def _run_rung(c, starts, npairs, tol):
    """One rung's Aberth run and _polish; returns (polished rows, converged,
    sweeps, sweep bits), converged meaning that the run met its stop rule
    and every residual is within tol.

    The sweeps run at W = kappa-hat + _KAPPA_MARGIN bits (_condition, on
    the starts), if that is below the full grid F: on the coefficients cut
    to W, down to the grid's floor, and _polish takes the roots to F.  If
    that run or a step of _polish fails, or a residual exceeds tol,
    full-width sweeps start again from the best roots reached.
    """
    F = mp.prec + _FIXED_GUARD
    s, b = _fixed_coeffs(c, F)
    zs = [mpc(z) for z in starts]
    points = [(to_fixed(z.real, F - s), to_fixed(z.imag, F - s)) for z in zs]
    kappa = _condition(b, points, F)
    if kappa is not None and kappa + _KAPPA_MARGIN < F:
        W = kappa + _KAPPA_MARGIN
        zs, converged, sweeps = _sweeps(c, zs, npairs, tol, W, kappa + _KAPPA_MARGIN // 2)
        polished = _polish(c, zs, kappa, _KAPPA_MARGIN) if converged else None
        if polished is not None:
            if max(res for _, res, _ in polished) <= tol:
                return polished, True, sweeps, W
            zs = [z for z, _, _ in polished]
    roots, converged, sweeps = _sweeps(c, zs, npairs, tol)
    polished = _polish(c, roots)
    converged = converged and max(res for _, res, _ in polished) <= tol
    return polished, converged, sweeps, F


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
