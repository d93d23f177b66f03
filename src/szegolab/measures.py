"""Discrete measures: weighted point sets on the complex plane."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .errors import InvalidParameter, SingularEvaluation
from .fixed import gaussian_ints, log as fixed_log, to_fixed
from .precision import as_complex, as_real, mantissa_bits, op_precision

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
        # mpf and mpc values pass as they are; anything else is taken
        # exactly, and text is refused (precision.as_real, as_complex).
        points = tuple(
            p if isinstance(p, (mpf, mpc)) else as_complex(p, "point")
            for p in self.points
        )
        weights = tuple(
            w if isinstance(w, mpf) else as_real(w, "weight") for w in self.weights
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

    @cached_property
    def _support_ints(self) -> tuple:
        """The support as Gaussian ints on one scale, fixed.gaussian_ints.

        Converting the support costs about a third of a log_potential call,
        and it is the same at every point.
        """
        return gaussian_ints(self.points)

    def total_mass(self) -> mpf:
        with mp.workprec(max(64, *(mantissa_bits(w) for w in self.weights))):
            return mp.fsum(self.weights)


# Points closer than this to a support point make the log potential
# meaningless at working precisions; reject instead of returning noise.
SINGULAR_DISTANCE = mpf("1e-30")

# Exact squared distances multiplied into one product before its single log.
_BLOCK = 64


def _mirror_order(m):
    """0, 1, m - 1, 2, m - 2, ...: node j next to its mirror node m - j."""
    yield 0
    for j in range(1, m // 2 + 1):
        yield j
        if m - j != j:
            yield m - j


def _log_pair_sum(zx, zy, xs, ys, weights, order, e, floor):
    """sum_j w_j log|z - x_j|^2 over j in order, rounded once to the working
    precision P.

    z = (zx + i zy) 2^e and x_j = (xs[j] + i ys[j]) 2^e are Gaussian
    integers on one scale (fixed.gaussian_ints), so each squared distance
    dx^2 + dy^2 is an exact int.  Runs of equal weights multiply their
    squared distances into one product, up to _BLOCK factors or to the next
    weight change.  The sum runs on 2^-F, F = P + G, G = 16 + bits(n) for
    the n = len(xs) points.  The product is cut to F + 7 bits after each
    multiply, so its at most 63 cuts move its log L_b by less than one unit
    of 2^-F, and fixed.log takes L_b to within 1.01 more.  Block b then adds
    its weight cut to W_b = floor(w_b 2^F) times the int of its log; that sum
    is exact and is rounded once.  So before the rounding the result errs by
    less than 2.01 w_b + |L_b| units of 2^-F per block, at most
    (2.01 + sum_j |log|z - x_j|^2|) 2^-F for weights summing to at most 1,
    below 2^-(P + 15) (1 + max_j |log|z - x_j|^2|).  Zero weights add
    nothing.  Returns None when some dx^2 + dy^2 <= floor, an int on the
    same scale, zero weights included, so each caller raises its own error;
    that comparison is exact.
    """
    F = mp.prec + 16 + len(xs).bit_length()
    keep = F + 7
    total = 0
    run_w, prod, shift, count = None, 0, 0, 0
    for j in order:
        dx = xs[j] - zx
        dy = ys[j] - zy
        s = dx * dx + dy * dy
        if s <= floor:
            return None
        w = weights[j]
        if 0 < count < _BLOCK and w._mpf_ == run_w._mpf_:
            prod *= s
            extra = prod.bit_length() - keep
            if extra > 0:
                prod >>= extra
                shift += extra
            count += 1
        elif w:
            if count:
                total += to_fixed(run_w, F) * fixed_log(prod, shift + 2 * e * count, F)
            run_w, prod, shift, count = w, s, 0, 1
    if count:
        total += to_fixed(run_w, F) * fixed_log(prod, shift + 2 * e * count, F)
    return mp.make_mpf(from_man_exp(total, -2 * F, mp.prec, round_nearest))


def log_potential(mu: DiscreteMeasure, z, precision_bits: int) -> mpf:
    """Logarithmic potential V^mu(z) = -sum_i w_i log|z - x_i| at a finite z."""
    if not mp.isfinite(z):
        raise InvalidParameter(f"evaluation point must be finite, got {z}")
    prec = max(op_precision(precision_bits, z), mu._point_bits)
    with mp.workprec(prec):
        zc = mpc(z)
        # z and the support on the finer of their two scales
        xs, ys, e = mu._support_ints
        (zx,), (zy,), ez = gaussian_ints((zc,))
        d = min(e, ez)
        xs = [x << (e - d) for x in xs]
        ys = [y << (e - d) for y in ys]
        zx, zy, e = zx << (ez - d), zy << (ez - d), d
        # the nodes are visited in _mirror_order, so the equal weights of
        # mirrored nodes j and M - j fall in one run and share one log
        floor = to_fixed(SINGULAR_DISTANCE**2, -2 * e)
        order = _mirror_order(len(mu))
        total = _log_pair_sum(zx, zy, xs, ys, mu.weights, order, e, floor)
        if total is None:
            raise SingularEvaluation(
                f"evaluation point {zc} within {SINGULAR_DISTANCE} of support"
            )
        return -total / 2
