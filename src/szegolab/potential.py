"""Discretized mu_r, logarithmic potentials, balayage checks, Leja points.

mu_r is the image of the uniform angle measure dtheta/2pi under the
inverse of phi on Gamma_r.  Two discretizations are built here:

* discretize_mu_r: equal weights 1/M at the traced nodes theta_j = 2 pi j/M.
  Spectrally accurate for r > 0; at r = 0 the curve's corner at z = 1 makes
  the theta-parametrization only Holder-1/2 and the error decays like
  M^(-3/2).  The energy and Leja computations use it.
* graded_mu_r: the corner-graded rule theta = s - sin s on a uniform
  s-grid, with weights (1 - cos s_j)/M.  Its error decays like M^(-9/2)
  at r = 0 and spectrally for r > 0; the lemma-1 and balayage checks use
  it, so their r = 0 identities hold to about 1e-16 at M = 4096.  The grid
  is symmetric, theta_(M-j) = 2 pi - theta_j, so its curve is built
  mirrored like the traced one.

The energy, Leja and potential sums multiply squared distances
dx^2 + dy^2, with no square root, into products.  weighted_energy and
log_potential share the pair kernel measures._log_pair_sum: it converts the
points once to Gaussian integers on one power-of-two scale, so every
squared distance is an exact int, multiplies blocks of up to 64
equal-weight factors, and adds each block's fixed-point log times its
weight as ints, rounding the total once.  A discretize_mu_r support is
mirrored, node M - j the exact conjugate of node j, with equal weights, so
conjugation maps its pairs onto pairs at the same distance: weighted_energy
sums one pair of each such orbit, twice, and the self-conjugate pairs
(0, M/2) and (j, M - j) once, about M^2/4 squared distances instead of
M^2/2 (derived in its docstring).  harmonic_moments and
pullback_density run on szegolab.fixed ints too.  weighted_leja keeps
omega^(2k) prod |z - z_j|^2 per grid node as an mpf product and takes a
single log at the end; each factor is applied by the same libmp calls on
raw values that s * |g - z|^2 * w makes, in the same order and at the same
roundings, without building an mpf or mpc object.  It picks each greedy
point through a double-precision shadow of the products' logs, whose
running rounding-error bound, derived in the standard model, certifies
which few nodes can win the step; one pass per step updates the shadow and
finds those nodes.  The shadow reads the grid as doubles with certified
radii (szego._shadow_half), so the grid is never traced: a node is
evaluated at full precision only once it can win.  Only the candidates'
products are brought up to date, lazily and in the order of an update of
every node, so the points and the estimate are those of the full greedy
rule to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpc_abs,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_sin,
    mpf_sub,
    mpf_sum,
    round_nearest,
)
from mpmath.libmp.libelefun import pi_fixed

from .errors import InvalidParameter, InvalidTestPoint
from .fixed import cmul, gaussian_ints, to_fixed, to_mpc
from .measures import DiscreteMeasure, _log_pair_sum, log_potential
from .precision import op_precision, workprec
from .szego import (
    _SHADOW_U,
    DEFAULT_TRACE_PRECISION,
    LevelCurve,
    RegionTag,
    _check_r,
    _half_node,
    _mirrored_curve,
    _modulus,
    _shadow_half,
    _theta,
    check_node_count,
    locate,
    real_crossings,
    trace_level_curve,
)


@dataclass(frozen=True)
class ExternalField:
    """The external field phi_ext(z) = (log|z| + Re z)/2 and its weight.

    omega = e^(-phi_ext) = |z|^(-1/2) e^(-Re z / 2) is an admissible
    weight on every Gamma_r (positive and continuous there; unbounded only
    at z = 0, which no finite-r curve contains).
    """

    def phi(self, z, precision_bits: int = 128) -> mpf:
        with workprec(op_precision(precision_bits, z)):
            return mp.make_mpf(_phi_ext(mpc(z)._mpc_, precision_bits))

    def omega(self, z, precision_bits: int = 128) -> mpf:
        prec = op_precision(precision_bits, z)
        with workprec(prec):
            return mp.e ** (-self.phi(z, precision_bits))


DEFAULT_FIELD = ExternalField()


def _phi_ext(z, precision_bits):
    """DEFAULT_FIELD.phi(z, precision_bits) of the raw mpc z as a raw mpf:
    (log|z| + Re z) / 2 at op_precision(precision_bits, z), each step
    rounded to nearest as mpmath's abs, log, + and / 2 round it."""
    prec, rnd = max(precision_bits, z[0][3], z[1][3]), round_nearest
    t = mpf_add(mpf_log(mpc_abs(z, prec, rnd), prec, rnd), z[0], prec, rnd)
    return mpf_div(t, from_int(2), prec, rnd)


@dataclass(frozen=True)
class BalayageCheck:
    point: mpc
    identity: str
    lhs: mpf
    rhs: mpf

    @property
    def abs_error(self) -> mpf:
        with workprec(op_precision(64, self.lhs, self.rhs)):
            return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class BalayageReport:
    r: mpf
    checks: tuple

    def worst(self, identity_prefix: str = "") -> mpf:
        errs = [
            c.abs_error for c in self.checks if c.identity.startswith(identity_prefix)
        ]
        if not errs:
            raise InvalidParameter(f"no checks match prefix {identity_prefix!r}")
        return max(errs)


def discretize_mu_r(
    r, M: int, precision_bits: int = DEFAULT_TRACE_PRECISION
) -> DiscreteMeasure:
    """Equal-weight discretization of mu_r on the traced Gamma_r nodes.

    r = +inf yields the limit measure delta_0.
    """
    if r == mp.inf:
        return DiscreteMeasure(points=(mpc(0),), weights=(mpf(1),), label="delta_0")
    curve = trace_level_curve(r, M, precision_bits)
    with workprec(precision_bits):
        w = mpf(1) / M
    return DiscreteMeasure(
        points=curve.points,
        weights=(w,) * M,
        label=f"mu_r(r={mp.nstr(curve.r, 10)}, M={M})",
    )


def graded_mu_r(
    r, M: int, precision_bits: int = DEFAULT_TRACE_PRECISION
) -> tuple:
    """Corner-graded discretization of mu_r: (curve, measure) on the same nodes.

    The image angle is substituted as theta = s - sin s on the uniform grid
    s_j = 2 pi j / M, so node j sits at theta_j = s_j - sin s_j and carries
    weight theta'(s_j)/M = (1 - cos s_j)/M.  The weights sum to exactly 1
    for every M >= 2 (the cosines of the M-th roots of unity sum to 0), so
    nothing is renormalized.  theta has a triple zero at s = 0, which
    flattens the Holder-1/2 corner of Gamma_0 at z = 1: the node sum then
    errs like M^(-9/2) at r = 0 instead of M^(-3/2), and stays spectral for
    r > 0 (Kress, Numer. Math. 58, 1990; Sidi, ISNM 112, 1993).  The node at
    theta = 0 has weight 0.  The curve is a mirrored LevelCurve, so locate
    and pullback_density apply to it; only nodes 1 .. M/2 - 1 are
    evaluated by Lambert W.  The weights are mirrored like the nodes,
    w_(M-j) = w_j exactly.
    """
    r = _check_r(r)
    check_node_count(M)
    with workprec(op_precision(precision_bits, r) + 16):
        # s - mp.sin(s) and (1 - mp.cos(s)) / M, rounded as those round
        prec, rnd, m = mp.prec, round_nearest, from_int(M)
        thetas, half = [], []
        for j in range(M):
            s = _theta(j, M)._mpf_
            if j <= M // 2:
                c, sin = mpf_cos_sin(s, prec, rnd)
                w = mpf_div(mpf_sub(fone, c, prec, rnd), m, prec, rnd)
                half.append(mp.make_mpf(w))
            else:
                sin = mpf_sin(s, prec, rnd)
            thetas.append(mp.make_mpf(mpf_sub(s, sin, prec, rnd)))
        thetas = tuple(thetas)
        weights = tuple(half + half[-2:0:-1])
    curve = _mirrored_curve(r, thetas, precision_bits)
    mu = DiscreteMeasure(
        points=curve.points,
        weights=weights,
        label=f"graded mu_r(r={mp.nstr(r, 10)}, M={M})",
    )
    return curve, mu


def pullback_density(curve: LevelCurve) -> tuple:
    """Density of mu_r against dtheta at each node, from the curve samples.

    Re[(1/2 pi i) (1-z)/z * z'(theta)] with z' by central differences over
    the samples' own thetas (wrapping around at both ends), so this is an
    honest consistency check rather than the tautology obtained from the
    analytic z' = i w / phi'(z) (which reduces to 1/2pi identically).  At
    the r = 0 corner node the (1-z) factor vanishes and the computed
    density is exactly 0, the continuity limit being 1/2pi.

    The density is d = Im[(1 - z) dz conj z] / (2 pi dtheta |z|^2) for the
    differences dz and dtheta, so it depends on the scale-free dz / z only.
    The nodes and 1 are Gaussian ints on one scale 2^e (fixed.gaussian_ints)
    and the thetas ints on 2^-F, F >= P + 24 for the curve's P bits, so the
    numerator, |z|^2 and dtheta are exact ints, but for the 2 pi that the
    two end nodes add.  pi is libmp's pi_fixed on 2^-F, within 1.01 units,
    and one division of the two ints, rounded once to P + 16 bits, gives d.
    Before that rounding d errs by less than 1.02 |d| (1/pi + 2/dtheta)
    units of 2^-F, the 2/dtheta at the two end nodes only.
    """
    m = len(curve.points)
    xs, ys, e = gaussian_ints((*curve.points, mpf(1)))
    one = xs.pop()
    ys.pop()
    ts, _, et = gaussian_ints(curve.thetas)
    F = max(-et, curve.precision_bits + 24)
    ts = [t << (F + et) for t in ts]
    pi = pi_fixed(F)
    # wrap one node around at each end
    ts = [ts[-1] - 2 * pi, *ts, ts[0] + 2 * pi]
    xs = [xs[-1], *xs, xs[0]]
    ys = [ys[-1], *ys, ys[0]]
    prec = curve.precision_bits + 16
    out = []
    for j in range(1, m + 1):
        x, y = xs[j], ys[j]
        dx, dy = xs[j + 1] - xs[j - 1], ys[j + 1] - ys[j - 1]
        ar, ai = one - x, -y
        tr, ti = ar * dx - ai * dy, ar * dy + ai * dx
        # d = n 2^(3e) / (2 (pi 2^-F) (dtheta 2^-F) |z|^2 2^(2e))
        num = from_man_exp(ti * x - tr * y, e + 2 * F - 1)
        den = from_int(pi * (ts[j + 1] - ts[j - 1]) * (x * x + y * y))
        out.append(mp.make_mpf(mpf_div(num, den, prec, round_nearest)))
    return tuple(out)


def harmonic_moments(mu: DiscreteMeasure, k_max: int, precision_bits: int = 192):
    """Discrete moments sum_i w_i x_i^k for k = 0..k_max, as mpc.

    The n points are scaled by 2^s >= max |x_i| (mp.mag) and cut toward zero
    to u_i on 2^-F, F = P + G, G = 16 + 2 k_max + bits(n) for the working
    precision P.  Each point keeps one running product p_i = u_i^k, one
    fixed.cmul per term, and its weight cut to W_i = floor(w_i 2^F).  As
    |u_i| <= 1 and each cut and product errs by less than sqrt(2) units of
    2^-F, p_i errs by less than 2 sqrt(2) k < 3 k units and the term W_i p_i
    by less than 3 k w_i + 1.  The sum over i is exact, so moment k errs by
    less than (3 k W + n) 2^(k s - F), W = sum_i w_i, before it is rounded
    once to P bits.  A point below the real axis runs its product on its
    conjugate, so conjugate points with equal weights cancel exactly in the
    imaginary part.  k_max must be an int >= 0.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise InvalidParameter(f"k_max must be an int >= 0, got {k_max!r}")
    pts = mu.points
    prec = op_precision(precision_bits, *pts)
    s = max((mp.mag(x) for x in pts if x), default=0)
    F = prec + 16 + 2 * k_max + len(pts).bit_length()
    us, ws = [], []
    for x, w in zip(pts, mu.weights):
        ur, ui = to_fixed(x.real, F - s), to_fixed(x.imag, F - s)
        wf = to_fixed(w, F)
        us.append((ur, abs(ui)))
        ws.append((wf, -wf if ui < 0 else wf))
    ps = [(1 << F, 0)] * len(pts)
    out = []
    with workprec(prec):
        for k in range(k_max + 1):
            if k:
                ps = [cmul(a, b, c, d, F) for (a, b), (c, d) in zip(ps, us)]
            re = sum(w * a for (w, _), (a, _) in zip(ws, ps))
            im = sum(w * b for (_, w), (_, b) in zip(ws, ps))
            out.append(to_mpc(re, im, 2 * F - k * s))
    return out


def verify_balayage(
    r,
    M: int,
    interior_pts,
    exterior_pts,
    precision_bits: int = DEFAULT_TRACE_PRECISION,
) -> BalayageReport:
    """Check the balayage identities of mu_r at explicit points.

    (i) interior: V + Re z = r + 1 (the harmonic extension is constant on
    the closure of G_r); (ii) exterior: V + log|z| = 0 (balayage constant
    vanishes for the unbounded component); (iii) V(0) = r + 1;
    (iv) on-curve external field: V + phi_ext = (r+1)/2, evaluated at
    points offset from the curve by 3 local node spacings since the discrete
    potential is singular at the nodes themselves.  mu_r is the
    corner-graded graded_mu_r, so the identities hold at r = 0 too.
    """
    r = _check_r(r)
    curve, mu = graded_mu_r(r, M, precision_bits)
    checks = []
    prec = op_precision(precision_bits, r)
    with workprec(prec + 16):
        rp1 = r + 1
        v0 = log_potential(mu, mpc(0), precision_bits)
        checks.append(BalayageCheck(mpc(0), "origin: V(0)", v0, rp1))
        for z in interior_pts:
            zc = mpc(z)
            if locate(zc, curve) is not RegionTag.INTERIOR:
                raise InvalidTestPoint(f"{zc} is not interior to Gamma_r")
            lhs = log_potential(mu, zc, precision_bits) + mp.re(zc)
            checks.append(BalayageCheck(zc, "interior: V + Re z", lhs, rp1))
        for z in exterior_pts:
            zc = mpc(z)
            if locate(zc, curve) is not RegionTag.EXTERIOR:
                raise InvalidTestPoint(f"{zc} is not exterior to Gamma_r")
            lhs = log_potential(mu, zc, precision_bits) + mp.log(abs(zc))
            checks.append(BalayageCheck(zc, "exterior: V + log|z|", lhs, mpf(0)))
        # (iv) at inward/outward offsets of a few nodes away from theta = 0.
        pts = curve.points
        for j in (M // 8, 3 * M // 8, 5 * M // 8):
            z = pts[j]
            tangent = pts[(j + 1) % M] - pts[(j - 1) % M]
            spacing = abs(tangent) / 2
            normal = 1j * tangent / abs(tangent)
            for side in (1, -1):
                zt = z + side * 3 * spacing * normal
                lhs = log_potential(mu, zt, precision_bits) + DEFAULT_FIELD.phi(
                    zt, precision_bits
                )
                checks.append(
                    BalayageCheck(zt, "field: V + phi_ext", lhs, rp1 / 2)
                )
    return BalayageReport(r=r, checks=tuple(checks))


@dataclass(frozen=True)
class EnergyResult:
    """Weighted energy I and the modified Robin functional F = I - int phi dmu."""

    energy: mpf
    robin: mpf

    def __iter__(self):
        return iter((self.energy, self.robin))


def _mirrored(xs, ys, weights) -> bool:
    """Whether the m points (xs[j] + i ys[j]) 2^e, j < m, are laid out as a
    LevelCurve's, node m - j the exact conjugate of node j, with equal
    weights: the layout weighted_energy folds."""
    m = len(xs)
    return (
        m % 2 == 0
        and all(w == weights[0] for w in weights)
        and all(
            xs[j] == xs[-j] and ys[j] == -ys[-j] for j in range(m // 2 + 1)
        )
    )


def weighted_energy(mu: DiscreteMeasure, precision_bits: int = 128) -> EnergyResult:
    """Discrete weighted energy of mu, diagonal excluded.

    I = -sum_{i != j} w_i w_j log|x_i - x_j| + 2 sum_i w_i phi_ext(x_i)
    with phi_ext from DEFAULT_FIELD; the diagonal exclusion biases I by
    O(log M / M), which the calling checks absorb into their tolerances.
    The pair part is -sum_i w_i sum_{j>i} w_j log|x_i - x_j|^2, one log
    per block of squared distances.  Zero-weight points are skipped; the
    remaining support needs 2 points, and a point of it at 0, where phi_ext
    is infinite, is refused.  The support is converted to Gaussian integers
    once, and every row runs the exact-integer kernel measures._log_pair_sum
    on them.

    A support of m points laid out like a LevelCurve's, node m - j the exact
    conjugate of node j, with equal weights w (every discretize_mu_r
    measure), is folded.  Conjugation j -> m - j (mod m) keeps every
    distance, so it splits the pairs into orbits of equal terms.  An orbit
    has two pairs but for the self-conjugate ones, (0, m/2) and (i, m - i)
    for 0 < i < m/2.  One pair of each two-pair orbit is taken: row 0 over
    j = 1 .. m/2 - 1, row i = 1 .. m/2 - 1 over i < j < m - i, every term
    counted twice; one more kernel call sums the self-conjugate pairs, once,
    as the distances of their difference vectors x_0 - x_(m/2) and 2 i Im x_i
    from 0.  So the kernel sees about m^2/4 squared distances instead of
    m^2/2.  phi_ext(conj x) = phi_ext(x) exactly, so the field sum runs
    over nodes 0 .. m/2, the inner ones counted twice; it is the same exact
    sum as over all m nodes, rounded once, so the field part is unchanged.
    Any other support, a graded measure's with its zero weight at node 0
    among them, runs all m - 1 rows.

    Let P be the working precision, precision_bits (or more for wider
    points) plus 16, and lam = max |log|x_i - x_j|^2| over the support.
    Each kernel sum R errs by less than 2^-(P + 15) (1 + lam) before it is
    rounded to P bits, and its term -c w_i R, c = 1 or 2, is rounded once
    more.  The counts c w_i sum to at most 1 + w, and the terms c w_i |R|
    to at most sum_(i<j) w_i w_j |log|x_i - x_j|^2| <= lam / 2, so the pair
    part errs by less than 2^-P (1.01 lam + 2^-14) before its sum is
    rounded, folded or not.  The field part is the same sum both ways.  So
    the folded and the unfolded energy, and their Robin values, differ by
    less than 2^(3 - P) (1 + lam + |I| + |F|), F = I - int phi_ext dmu.
    """
    prec = op_precision(precision_bits, *mu.points)
    with workprec(prec + 16):
        support = [(x, w) for x, w in zip(mu.points, mu.weights) if w]
        if len(support) < 2:
            raise InvalidParameter("weighted energy needs at least 2 weighted points")
        support, weights = zip(*support)
        if any(x == 0 for x in support):
            raise InvalidParameter("a support point at 0 gives infinite energy")
        xs, ys, e = gaussian_ints(support)
        m = len(support)
        if _mirrored(xs, ys, weights):
            h = m // 2
            # (row, its js, count): one pair of each two-pair orbit, twice
            rows = [(0, range(1, h), 2)]
            rows += [(i, range(i + 1, m - i), 2) for i in range(1, h)]
            nodes = [(0, 1), (h, 1)] + [(j, 2) for j in range(1, h)]
            # the self-conjugate pairs, once: their difference vectors from 0
            dx = [xs[0] - xs[h]] + [0] * (h - 1)
            dy = [0] + [2 * y for y in ys[1:h]]
            sums = [(1, 0, _log_pair_sum(0, 0, dx, dy, weights, range(h), e, 0))]
        else:
            rows = [(i, range(i + 1, m), 1) for i in range(m - 1)]
            nodes = [(j, 1) for j in range(m)]
            sums = []
        sums += [
            (c, i, _log_pair_sum(xs[i], ys[i], xs, ys, weights, js, e, 0))
            for i, js, c in rows
        ]
        if any(row is None for _, _, row in sums):
            raise InvalidParameter("coincident support points give infinite energy")
        # mp.fsum of c * (w_j * DEFAULT_FIELD.phi(x_j)), by the same calls
        prec, rnd = mp.prec, round_nearest
        terms = []
        for j, c in nodes:
            x = support[j]
            x = x._mpc_ if isinstance(x, mpc) else (x._mpf_, fzero)
            t = mpf_mul(weights[j]._mpf_, _phi_ext(x, precision_bits), prec, rnd)
            terms.append(mpf_mul_int(t, c, prec, rnd))
        field_sum = mp.make_mpf(mpf_sum(terms, prec, rnd))
        energy = mp.fsum(-c * (weights[i] * row) for c, i, row in sums) + 2 * field_sum
        return EnergyResult(energy=energy, robin=energy - field_sum)




@dataclass(frozen=True)
class LejaResult:
    measure: DiscreteMeasure
    sup_norm: mpf
    robin_estimate: mpf

    def robin_gap(self, r, precision_bits: int) -> tuple:
        """(target, relative gap): the modified Robin constant (r+1)/2 and
        |robin_estimate - (r+1)/2| / ((r+1)/2), at the estimate's precision."""
        with workprec(op_precision(precision_bits, self.robin_estimate, r)):
            target = (r + 1) / 2
            return target, abs(self.robin_estimate - target) / target


# weighted_leja's double shadow.  After k greedy steps the exact objective of
# grid node g_i is the mpf S_i = omega2_i^(k+1) prod_(j<k) |g_i - z_j|^2; its
# shadow is F_i = lw_i + sum_(j<k) (lw_i + log(dx^2 + dy^2)).  The grid is
# never traced: szego._shadow_half gives each node as a double of g_i / 2^s
# (2^s about the curve's radius, so no coordinate underflows however small
# the curve is) within a certified radius R_i, and dx, dy are differences of
# these doubles.  lw_i = -(log|g_i / 2^s| + Re g_i), from the same doubles,
# is within dlw_i of L_i + s ln 2, where L_i = -2 phi_ext(g_i) is the
# exponent whose mp.exp is omega2_i: |log| and |Re| move by at most
# R_i / (|g_i / 2^s| - R_i) and 2^s R_i, and abs, the faithful log and the
# sum round by u (2 |log| + |lw_i| + 2.001).  The scaled squared distances
# are the true ones times 2^(-2s), so F_i approximates ln S_i plus
# (k + 1) s ln 2 - 2 k s ln 2, the same shift for every live node, within
# E_i.  In the standard model (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, sec. 2.2), with u = 2^-53, rounding to nearest and
# P >= 80 mp bits, term j of node i errs by at most
#   2.001 t         the nodes: the difference vector lies within
#                   R_i + R_j of the doubles' one, so its squared norm moves
#                   by a factor within (1 -+ t)^2, t = (R_i + R_j) / |d|; for
#                   the computed t_hat <= _SHADOW_MOVE, t <= 1.0001 t_hat;
#   dlw_i           lw_i, against L_i + s ln 2;
# and u times
#   4.001           the two subtractions, the two squares and their sum;
#   2.001 |l|       l = log(dx^2 + dy^2), faithfully rounded like every libm
#                   result here (szego states the same of exp, cos and sin);
#   1.001 |lw_i + l|, 1.001 |f|   the sums lw_i + l and f = F_i + lw_i + l;
# plus less than 2^-69 in all for the mpf roundings of S_i (six of 2^-P per
# step) and of omega2_i (2^(1-P)), and for subnormal coordinates or squares
# once dx^2 + dy^2 > _SHADOW_TINY.  Per term E_i adds
# 3 t + dlw_i + u (4 |l| + 3 |lw_i| + 3 |f| + 5), which rounds these up.
# Its per-node part de_i = dlw_i + u (3 |lw_i| + 5) is computed once per
# call, and each step adds 3 t + de_i + u (4 |l| + 3 |f|): nine roundings of
# relative u in all, as many as the increment took when it was one
# expression per step.  The surplus, over u (|f| + 1), covers them and the
# rounding of F_i +- E_i in the candidate test.  The start F_i = lw_i errs by at
# most dlw_i + 2^(2-P), which dlw_i + u (3 |lw_i| + 2) covers in the same
# way.  A node whose radius is not certified gets lw_i = 0 and E_i = inf.

# A term with t_hat above _SHADOW_MOVE, or with a squared distance at or
# below _SHADOW_TINY (toward the subnormal range), is not bounded: its node
# gets E_i = inf and stays a candidate.
_SHADOW_MOVE = 2.0**-13
_SHADOW_TINY = 2.0**-1000


def _candidates(live, F, E) -> list:
    """Live nodes whose objective can be the largest, in index order.
    weighted_leja takes them so at its first step and for its final max;
    _shadow_step gives them after each step from its own pass.

    Node i is dropped only if F_i + E_i < max_j (F_j - E_j): its objective
    is then strictly below node j's, so every maximizer is kept.
    """
    lo = max(F[i] - E[i] for i in live)
    return [i for i in live if F[i] + E[i] >= lo]


def _shadow_step(c, live, xs, ys, rad, lw, de, F, E) -> list:
    """Add the factor omega2_i |g_i - g_c|^2 to every live node's shadow;
    returns _candidates(live, F, E) after it, from the same pass.

    de_i is the per-node part of E_i's increment (derived above
    _SHADOW_MOVE).  The pass keeps the running max lo of F_j - E_j and a
    short list of the nodes with F_i + E_i >= lo at their turn.  lo only
    grows, so a node left out has F_i + E_i below the final max and is no
    candidate; the maximizer of F_j - E_j is kept, so the final filter of
    the short list by the final lo gives exactly _candidates' set, in index
    order.
    """
    zx, zy, zr = xs[c], ys[c], rad[c]
    lo = -math.inf
    kept = []
    for i in live:
        dx = xs[i] - zx
        dy = ys[i] - zy
        d2 = dx * dx + dy * dy
        t = (rad[i] + zr) / math.sqrt(d2) if d2 > _SHADOW_TINY else math.inf
        if not t <= _SHADOW_MOVE:
            E[i] = math.inf
            kept.append(i)
            continue
        lg = math.log(d2)
        f = F[i] + (lw[i] + lg)
        err = E[i] + (3 * t + de[i] + _SHADOW_U * (4 * abs(lg) + 3 * abs(f)))
        F[i], E[i] = f, err
        if f - err > lo:
            lo = f - err
        if f + err >= lo:
            kept.append(i)
    return [i for i in kept if F[i] + E[i] >= lo]


def _field_shadow(zs, rads, s) -> tuple:
    """(lw, dlw): doubles of L_i + s ln 2 and their bounds, derived above."""
    lw, dlw = [], []
    for z, rad in zip(zs, rads):
        m = abs(z)
        if not rad < m:
            lw.append(0.0)
            dlw.append(math.inf)
            continue
        lm = math.log(m)
        w = -(lm + math.ldexp(z.real, s))
        lw.append(w)
        dlw.append(
            rad / (m - rad)
            + math.ldexp(rad, s)
            + _SHADOW_U * (3 * abs(lm) + 2 * abs(w) + 3)
        )
    return lw, dlw


def _sq_dist(a, b, prec):
    """|a - b|^2 = dx^2 + dy^2 of the raw mpc a and b, with no square root,
    as a raw mpf: the differences, the squares and their sum each rounded
    to nearest at prec bits, as a - b, dx * dx + dy * dy round them."""
    rnd = round_nearest
    dx = mpf_sub(a[0], b[0], prec, rnd)
    dy = mpf_sub(a[1], b[1], prec, rnd)
    dx2, dy2 = mpf_mul(dx, dx, prec, rnd), mpf_mul(dy, dy, prec, rnd)
    return mpf_add(dx2, dy2, prec, rnd)


def weighted_leja(r, N: int, grid_M: int, precision_bits: int = 128) -> LejaResult:
    """Greedy weighted Leja points on Gamma_r.

    z_k maximizes omega(z)^k prod_{j<k} |z - z_j| over the nodes of
    trace_level_curve(r, grid_M) (k = 1..N), the first maximal node on ties;
    t_hat_N = max_z omega(z)^N prod_{j<=N} |z - z_j| estimates the weighted
    Chebyshev constant, so -log(t_hat_N)/N approximates the modified Robin
    constant (r+1)/2 (Reichel, BIT 30, 1990).  The squared objective of node
    i is an mpf product S_i, and a double shadow F_i ~ ln S_i with a running
    error bound E_i (derived above _SHADOW_MOVE) picks the nodes that can
    win: only those with F_i + E_i >= max_j (F_j - E_j).  The shadow is built
    from double nodes with certified radii (szego._shadow_half), so the grid
    is never traced: a node and its omega2_i are evaluated at full precision
    only when it first becomes a candidate, by the same libmp calls on raw
    values as trace_level_curve's node and mp.exp(-2 DEFAULT_FIELD.phi(g)).
    Its S_i is brought up to date lazily, by the same libmp calls on raw
    values in the same order as an update of every node at every step, so
    points, sup_norm and robin_estimate are those of that eager rule to the
    last bit.  About one node per step is updated instead of
    grid_M, and about one node in eight is ever evaluated.  The final max
    over S_i / omega2_i is taken the same way.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise InvalidParameter(f"need an int N >= 1, got {N!r}")
    if grid_M < 8 * N:
        raise InvalidParameter(f"need grid_M >= 8 N = {8 * N}, got {grid_M}")
    check_node_count(grid_M)
    r = _check_r(r)
    prec = op_precision(precision_bits, r)
    with workprec(prec + 16):
        crossings, mag = real_crossings(r, precision_bits), _modulus(r)
        scale, zs, rads = _shadow_half(r, grid_M, crossings, precision_bits)
        zs += [z.conjugate() for z in reversed(zs[1:-1])]
        rads += rads[-2:0:-1]
        xs = [z.real for z in zs]
        ys = [z.imag for z in zs]
        lw, dlw = _field_shadow(zs, rads, scale)
        F = list(lw)
        E = [e + _SHADOW_U * (3 * abs(w) + 2) for e, w in zip(dlw, lw)]
        # Node i and omega2_i once it is a candidate; S_i =
        # omega(g_i)^(2k) prod_{j<k} |g_i - z_j|^2 after done[i] steps.
        grid, omega2, S = [None] * grid_M, [None] * grid_M, [None] * grid_M
        done = [0] * grid_M
        live = list(range(grid_M))
        chosen = []

        P, rnd = mp.prec, round_nearest

        def load(i):
            # omega2 = e^L, L = -2 phi_ext: mp.exp(-2 * DEFAULT_FIELD.phi(g))
            # by the same calls.  |conj g| and Re g are exact, so node M - j
            # repeats node j's omega2 to the last bit.
            j = min(i, grid_M - i)
            if grid[j] is None:
                theta = _theta(j, grid_M)
                g = _half_node(r, j, grid_M, theta, crossings, mag)._mpc_
                grid[j] = g
                L = mpf_mul_int(_phi_ext(g, precision_bits), -2, P, rnd)
                omega2[j] = S[j] = mpf_exp(L, P, rnd)
            if grid[i] is None:
                grid[i] = (grid[j][0], mpf_neg(grid[j][1]))
                omega2[i] = S[i] = omega2[j]

        def exact(i):
            # S_i after every chosen point, factors applied in the eager order
            # and rounded as s * |g - z|^2 * w rounds them
            load(i)
            s, g, w = S[i], grid[i], omega2[i]
            for z in chosen[done[i] :]:
                s = mpf_mul(mpf_mul(s, _sq_dist(g, z, P), P, rnd), w, P, rnd)
            S[i], done[i] = s, len(chosen)
            return s

        de = [d + _SHADOW_U * (3 * abs(w) + 5) for d, w in zip(dlw, lw)]
        cands = _candidates(live, F, E)
        for _ in range(N):
            # max keeps the first of equal keys, and candidates are in
            # index order: conjugate nodes tie after a real point.
            best_i = max(cands, key=lambda i: mp.make_mpf(exact(i)))
            chosen.append(grid[best_i])
            live.remove(best_i)
            cands = _shadow_step(best_i, live, xs, ys, rads, lw, de, F, E)
        # t_hat_N^2 = max_i S_i / omega(g_i)^2 (S carries k = N + 1); chosen
        # nodes, with S_i = 0, are not live.  G_i = F_i - lw_i shadows
        # ln(S_i / omega2_i) within EG_i: E_i plus lw_i and the subtraction.
        G = [f - w for f, w in zip(F, lw)]
        EG = [
            e + d + _SHADOW_U * (3 * abs(w) + 3 * abs(g) + 2)
            for e, d, w, g in zip(E, dlw, lw, G)
        ]
        best = max(
            mp.make_mpf(mpf_div(exact(i), omega2[i], P, rnd))
            for i in _candidates(live, G, EG)
        )
        sup_norm = mp.sqrt(best)
        robin_estimate = -mp.log(best) / (2 * N)
        measure = DiscreteMeasure(
            points=tuple(mp.make_mpc(z) for z in chosen),
            weights=(mpf(1) / N,) * N,
            label=f"leja(r={mp.nstr(r, 10)}, N={N})",
        )
    return LejaResult(measure=measure, sup_norm=sup_norm, robin_estimate=robin_estimate)
