"""Discrete measures: weighted point sets on the complex plane."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import InvalidParameter, SingularEvaluation
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
        if any(w < 0 for w in weights):
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

    def total_mass(self) -> mpf:
        with mp.workprec(max(64, *(mantissa_bits(w) for w in self.weights))):
            return mp.fsum(self.weights)


# Points closer than this to a support point make the log potential
# meaningless at working precisions; reject instead of returning noise.
SINGULAR_DISTANCE = mpf("1e-30")

# Squared distances multiplied into one product before its single log; the
# product's relative rounding error stays within about 64 ulps.
_BLOCK = 64


def _sq_dist(a, b) -> mpf:
    """|a - b|^2 = dx^2 + dy^2, with no square root."""
    d = a - b
    dx, dy = d.real, d.imag
    return dx * dx + dy * dy


def _log_pair_sum(z, points, weights, floor):
    """sum_j w_j log|z - x_j|^2 at the working precision, or None.

    Runs of equal weights multiply their squared distances into one
    product, which takes one mp.log per _BLOCK factors or at the next
    weight change; mpf exponents cannot overflow, so the product needs no
    rescaling.  Zero weights add nothing.  Returns None when some
    |z - x_j|^2 <= floor, zero weights included, so each caller raises
    its own error.
    """
    terms = []
    run_w, prod, count = None, None, 0
    for x, w in zip(points, weights):
        s = _sq_dist(z, x)
        if s <= floor:
            return None
        if not w:
            continue
        if count == _BLOCK or w != run_w:
            if count:
                terms.append(run_w * mp.log(prod))
            run_w, prod, count = w, s, 1
        else:
            prod *= s
            count += 1
    if count:
        terms.append(run_w * mp.log(prod))
    return mp.fsum(terms)


def log_potential(mu: DiscreteMeasure, z, precision_bits: int) -> mpf:
    """Logarithmic potential V^mu(z) = -sum_i w_i log|z - x_i| at a finite z."""
    if not mp.isfinite(z):
        raise InvalidParameter(f"evaluation point must be finite, got {z}")
    prec = op_precision(precision_bits, z, *mu.points)
    with mp.workprec(prec):
        zc = mpc(z)
        total = _log_pair_sum(zc, mu.points, mu.weights, SINGULAR_DISTANCE**2)
        if total is None:
            raise SingularEvaluation(
                f"evaluation point {zc} within {SINGULAR_DISTANCE} of support"
            )
        return -total / 2
