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

The energy, Leja and potential sums share one pair kernel in measures:
squared distances dx^2 + dy^2, with no square root, multiplied into
products.  weighted_energy takes one log per block of equal-weight pairs;
weighted_leja keeps omega^(2k) prod |z - z_j|^2 per grid node as a
product and takes a single log at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import InvalidParameter, InvalidTestPoint
from .measures import DiscreteMeasure, _log_pair_sum, _sq_dist, log_potential
from .precision import op_precision, workprec
from .szego import (
    DEFAULT_TRACE_PRECISION,
    LevelCurve,
    RegionTag,
    _mirrored_curve,
    check_node_count,
    locate,
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
        prec = op_precision(precision_bits, z)
        with workprec(prec):
            zc = mpc(z)
            return (mp.log(abs(zc)) + mp.re(zc)) / 2

    def omega(self, z, precision_bits: int = 128) -> mpf:
        prec = op_precision(precision_bits, z)
        with workprec(prec):
            return mp.e ** (-self.phi(z, precision_bits))


DEFAULT_FIELD = ExternalField()


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
    r = mpf(r) if not isinstance(r, mpf) else r
    if r == mp.inf:
        return DiscreteMeasure(points=(mpc(0),), weights=(mpf(1),), label="delta_0")
    curve = trace_level_curve(r, M, precision_bits)
    with workprec(precision_bits):
        w = mpf(1) / M
    return DiscreteMeasure(
        points=curve.points,
        weights=(w,) * M,
        label=f"mu_r(r={mp.nstr(r, 10)}, M={M})",
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
    r = mpf(r) if not isinstance(r, mpf) else r
    check_node_count(M)
    with workprec(op_precision(precision_bits, r) + 16):
        grid = [2 * mp.pi * j / M for j in range(M)]
        thetas = tuple(s - mp.sin(s) for s in grid)
        half = [(1 - mp.cos(s)) / M for s in grid[: M // 2 + 1]]
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
    density is 0, the continuity limit being 1/2pi.
    """
    m = len(curve.samples)
    prec = curve.precision_bits
    with workprec(prec + 16):
        two_pi = 2 * mp.pi
        out = []
        pts = curve.points
        thetas = curve.thetas
        for j in range(m):
            z = pts[j]
            t_prev = thetas[j - 1] - (two_pi if j == 0 else 0)
            t_next = thetas[(j + 1) % m] + (two_pi if j == m - 1 else 0)
            dz = (pts[(j + 1) % m] - pts[j - 1]) / (t_next - t_prev)
            val = (1 - z) / z * dz / (2j * mp.pi)
            out.append(mp.re(val))
    return tuple(out)


def harmonic_moments(mu: DiscreteMeasure, k_max: int, precision_bits: int = 192):
    """Discrete moments sum_i w_i x_i^k for k = 0..k_max."""
    prec = op_precision(precision_bits, *mu.points)
    with workprec(prec):
        out = []
        for k in range(k_max + 1):
            out.append(
                mp.fsum((w * x**k for x, w in zip(mu.points, mu.weights)))
            )
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
    r = mpf(r) if not isinstance(r, mpf) else r
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


def weighted_energy(mu: DiscreteMeasure, precision_bits: int = 128) -> EnergyResult:
    """Discrete weighted energy of mu, diagonal excluded.

    I = -sum_{i != j} w_i w_j log|x_i - x_j| + 2 sum_i w_i phi_ext(x_i)
    with phi_ext from DEFAULT_FIELD; the diagonal exclusion biases I by
    O(log M / M), which the calling checks absorb into their tolerances.
    The pair part is -sum_i w_i sum_{j>i} w_j log|x_i - x_j|^2, one log
    per block of squared distances; zero-weight points are skipped.
    """
    pts = mu.points
    if len(pts) < 2:
        raise InvalidParameter("weighted energy needs at least 2 points")
    prec = op_precision(precision_bits, *pts)
    with workprec(prec + 16):
        support, weights = zip(*((x, w) for x, w in zip(pts, mu.weights) if w))
        rows = []
        for i in range(len(support) - 1):
            row = _log_pair_sum(support[i], support[i + 1 :], weights[i + 1 :], 0)
            if row is None:
                raise InvalidParameter(
                    "coincident support points give infinite energy"
                )
            rows.append(-weights[i] * row)
        field_sum = mp.fsum(
            w * DEFAULT_FIELD.phi(x, precision_bits) for x, w in zip(pts, mu.weights)
        )
        energy = mp.fsum(rows) + 2 * field_sum
        return EnergyResult(energy=energy, robin=energy - field_sum)


@dataclass(frozen=True)
class LejaResult:
    measure: DiscreteMeasure
    sup_norm: mpf
    robin_estimate: mpf


def weighted_leja(r, N: int, grid_M: int, precision_bits: int = 128) -> LejaResult:
    """Greedy weighted Leja points on Gamma_r.

    z_k maximizes omega(z)^k prod_{j<k} |z - z_j| over the traced grid
    (k = 1..N); t_hat_N = max_z omega(z)^N prod_{j<=N} |z - z_j| estimates
    the weighted Chebyshev constant, so -log(t_hat_N)/N approximates the
    modified Robin constant (r+1)/2.  The squared objective is kept as an
    mpf product per grid node (Reichel, BIT 30, 1990), so the whole greedy
    run takes one log.
    """
    if N < 1:
        raise InvalidParameter(f"need N >= 1, got {N}")
    if grid_M < 8 * N:
        raise InvalidParameter(f"need grid_M >= 8 N = {8 * N}, got {grid_M}")
    r = mpf(r) if not isinstance(r, mpf) else r
    curve = trace_level_curve(r, grid_M, precision_bits)
    grid = curve.points
    prec = op_precision(precision_bits, r)
    with workprec(prec + 16):
        # S_i = omega(g_i)^(2k) prod_{j<k} |g_i - z_j|^2, kept as a product:
        # a chosen node's S drops to 0, and only the final max takes a log.
        omega2 = [mp.exp(-2 * DEFAULT_FIELD.phi(g, precision_bits)) for g in grid]
        S = list(omega2)
        chosen = []
        for _ in range(N):
            best_i = max(range(grid_M), key=S.__getitem__)
            zk = grid[best_i]
            chosen.append(zk)
            S = [s * _sq_dist(g, zk) * w for s, g, w in zip(S, grid, omega2)]
        # t_hat_N^2 = max_i S_i / omega(g_i)^2 (S carries k = N + 1)
        best = max(s / w for s, w in zip(S, omega2))
        sup_norm = mp.sqrt(best)
        robin_estimate = -mp.log(best) / (2 * N)
        measure = DiscreteMeasure(
            points=tuple(chosen),
            weights=(mpf(1) / N,) * N,
            label=f"leja(r={mp.nstr(r, 10)}, N={N})",
        )
    return LejaResult(measure=measure, sup_norm=sup_norm, robin_estimate=robin_estimate)
