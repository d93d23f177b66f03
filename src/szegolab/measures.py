"""Discrete measures: weighted point sets on the complex plane."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .errors import InvalidParameter, SingularEvaluation
from .fixed import gaussian_ints, to_fixed
from .precision import mantissa_bits, op_precision

# Weight-sum slack: weights (1/M, or the graded (1 - cos s_j)/M) are rounded
# at working precision and may pass through decimal serialization, so allow
# a generous binary epsilon.
MASS_TOL_BITS = 32


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure sum_i w_i * delta(x_i)."""

    points: tuple
    weights: tuple
    label: str = ""

    def __post_init__(self):
        # Coerce only foreign types: mpc(p) under a low ambient precision
        # would silently truncate high-precision support points.
        points = tuple(
            p if isinstance(p, (mpf, mpc)) else mpc(p) for p in self.points
        )
        weights = tuple(
            w if isinstance(w, mpf) else mpf(w) for w in self.weights
        )
        if len(points) != len(weights):
            raise InvalidParameter(
                f"{len(points)} points but {len(weights)} weights"
            )
        if not points:
            raise InvalidParameter("measure needs at least one point")
        if not all(mp.isfinite(p) for p in points):
            raise InvalidParameter("support points must be finite")
        if not all(w >= 0 for w in weights):
            raise InvalidParameter("weights must be nonnegative")
        with mp.workprec(max(64, *(mantissa_bits(w) for w in weights))):
            total = mp.fsum(weights)
            mass_err = abs(total - 1)
        if mass_err > mpf(2) ** (-MASS_TOL_BITS):
            raise InvalidParameter(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _point_bits(self) -> int:
        """The widest mantissa among the support points.

        log_potential is called at many points of one measure; caching this
        saves a pass over the support, about as costly as the pair kernel.
        """
        return max(mantissa_bits(p) for p in self.points)

    def total_mass(self) -> mpf:
        with mp.workprec(max(64, *(mantissa_bits(w) for w in self.weights))):
            return mp.fsum(self.weights)


# Points closer than this to a support point make the log potential
# meaningless at working precisions; reject instead of returning noise.
SINGULAR_DISTANCE = mpf("1e-30")

# Exact squared distances multiplied into one product before its single log.
# The running product is truncated to prec + _GUARD bits after each multiply,
# so a block's at most 63 truncations leave its relative error below
# 63 * 2^-(prec + 15) < 2^-(prec + 9) before it is rounded once to prec bits.
_BLOCK = 64
_GUARD = 16


def _sq_dist(a, b) -> mpf:
    """|a - b|^2 = dx^2 + dy^2, with no square root."""
    d = a - b
    dx, dy = d.real, d.imag
    return dx * dx + dy * dy


def _mirror_order(m):
    """0, 1, m - 1, 2, m - 2, ...: node j next to its mirror node m - j."""
    yield 0
    for j in range(1, m // 2 + 1):
        yield j
        if m - j != j:
            yield m - j


def _block_log(man, exp, prec) -> mpf:
    """mp.log of man * 2^exp, rounded once to prec bits before the log."""
    return mp.log(mp.make_mpf(from_man_exp(man, exp, prec, round_nearest)))


def _log_pair_sum(zx, zy, xs, ys, weights, order, e, floor):
    """sum_j w_j log|z - x_j|^2 over j in order, at the working precision.

    z = (zx + i zy) 2^e and x_j = (xs[j] + i ys[j]) 2^e are Gaussian
    integers on one scale (fixed.gaussian_ints), so each squared distance
    dx^2 + dy^2 is an exact int.  Runs of equal weights multiply their
    squared distances into one product, which takes one mp.log per _BLOCK
    factors or at the next weight change; the product is kept to
    prec + _GUARD bits, so the argument of each log errs by less than
    2^-(prec + 9) relative before its one rounding.  Zero weights add
    nothing.  Returns None when some dx^2 + dy^2 <= floor, an int on the
    same scale, zero weights included, so each caller raises its own error;
    that comparison is exact.
    """
    prec = mp.prec
    keep = prec + _GUARD
    terms = []
    run_w, prod, shift, count = None, 0, 0, 0
    for j in order:
        dx = xs[j] - zx
        dy = ys[j] - zy
        s = dx * dx + dy * dy
        if s <= floor:
            return None
        w = weights[j]
        if 0 < count < _BLOCK and (w is run_w or w == run_w):
            prod *= s
            extra = prod.bit_length() - keep
            if extra > 0:
                prod >>= extra
                shift += extra
            count += 1
        elif w:
            if count:
                terms.append(run_w * _block_log(prod, shift + 2 * e * count, prec))
            run_w, prod, shift, count = w, s, 0, 1
    if count:
        terms.append(run_w * _block_log(prod, shift + 2 * e * count, prec))
    return mp.fsum(terms)


def log_potential(mu: DiscreteMeasure, z, precision_bits: int) -> mpf:
    """Logarithmic potential V^mu(z) = -sum_i w_i log|z - x_i| at a finite z."""
    if not mp.isfinite(z):
        raise InvalidParameter(f"evaluation point must be finite, got {z}")
    prec = max(op_precision(precision_bits, z), mu._point_bits)
    with mp.workprec(prec):
        zc = mpc(z)
        # the nodes are visited in _mirror_order, so the equal weights of
        # mirrored nodes j and M - j fall in one run and share one log
        xs, ys, e = gaussian_ints((*mu.points, zc))
        zx, zy = xs.pop(), ys.pop()
        floor = to_fixed(SINGULAR_DISTANCE**2, -2 * e)
        order = _mirror_order(len(mu))
        total = _log_pair_sum(zx, zy, xs, ys, mu.weights, order, e, floor)
        if total is None:
            raise SingularEvaluation(
                f"evaluation point {zc} within {SINGULAR_DISTANCE} of support"
            )
        return -total / 2
