"""Balayage measure discretization, potential identities, energy, and Leja."""

import pytest
from mpmath import mp, mpc, mpf

from szegolab.cli import suite_lemma1
from szegolab.errors import InvalidParameter, InvalidTestPoint, SingularEvaluation
from szegolab.measures import DiscreteMeasure, log_potential
from szegolab.potential import (
    DEFAULT_FIELD,
    discretize_mu_r,
    graded_mu_r,
    harmonic_moments,
    pullback_density,
    verify_balayage,
    weighted_energy,
    weighted_leja,
)
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.szego import real_crossings, trace_level_curve

from conftest import gap

PREC = 192


def test_discretize_mass_and_weights():
    mu = discretize_mu_r(mpf(1), 64, PREC)
    assert len(mu.points) == 64
    assert all(w == mu.weights[0] for w in mu.weights)
    assert gap(mu.total_mass(), mpf(1), PREC) <= mpf(2) ** -150


def test_discretize_infinite_level_is_point_mass():
    mu = discretize_mu_r(mp.inf, 64, PREC)
    assert mu.points == (mpc(0),)
    assert mu.weights == (mpf(1),)


def test_pullback_density_positive_and_near_uniform():
    curve = trace_level_curve(mpf(1), 128, PREC)
    density = pullback_density(curve)
    with workprec(PREC):
        uniform = 1 / (2 * mp.pi)
        assert min(density) > mpf("0.5") * uniform
        assert max(density) < 3 * uniform


def test_harmonic_moments_away_from_corner():
    for r_text in ("0.1919", "1"):
        mu = discretize_mu_r(ap_real(r_text, PREC), 1024, PREC)
        moments = harmonic_moments(mu, 6, PREC)
        with workprec(PREC):
            assert gap(moments[0], mpf(1), PREC) <= mpf("1e-12")
            for m in moments[1:]:
                assert abs(m) <= mpf("1e-10")


def test_harmonic_moments_corner_accuracy_is_limited():
    # The theta parametrization is Holder-1/2 at the r = 0 corner, so the
    # equal-weight node sum converges like M^(-3/2) instead of spectrally.
    # The defect is real but bounded; the substituted quadrature below
    # resolves the same moments to high accuracy.
    mu = discretize_mu_r(mpf(0), 512, PREC)
    moments = harmonic_moments(mu, 4, PREC)
    with workprec(PREC):
        worst = max(abs(m) for m in moments[1:])
    assert mpf("1e-8") < worst < mpf("1e-2")


def test_graded_weights_sum_to_one_without_renormalizing():
    _, mu = graded_mu_r(mpf(1), 16, PREC)
    assert gap(mu.total_mass(), mpf(1), PREC) <= mpf(2) ** -150
    assert mu.weights[0] == 0
    assert all(mu.weights[j] == mu.weights[16 - j] for j in range(1, 16))


def test_graded_corner_node_is_exact_with_zero_density():
    curve, mu = graded_mu_r(mpf(0), 64, PREC)
    assert curve.points[0] == 1
    assert curve.thetas[0] == 0
    density = pullback_density(curve)
    assert density[0] == 0
    assert min(density[1:]) > 0
    assert curve.max_residual <= mpf("1e-55")


def test_lemma1_passes_near_the_corner():
    # the equal-weight rule missed the moment tolerance here (2.6e-9)
    checks = suite_lemma1(ap_real("0.01", PREC), 1024, PREC)
    assert all(c.passed for c in checks), [c.detail for c in checks]


def test_log_potential_exterior_value():
    mu = discretize_mu_r(mpf(1), 256, PREC)
    with workprec(PREC):
        v = log_potential(mu, mpc(2), PREC)
        assert gap(v, -mp.log(2), PREC) <= mpf("1e-12")


def test_log_potential_singular_at_support():
    mu = discretize_mu_r(mpf(1), 64, PREC)
    with pytest.raises(SingularEvaluation):
        log_potential(mu, mu.points[3], PREC)


def test_log_potential_singular_boundary():
    # the test compares the squared distance with SINGULAR_DISTANCE**2
    mu = discretize_mu_r(mpf(1), 64, PREC)
    x = mu.points[5]
    with workprec(PREC):
        near, far = x + mpf("1e-31"), x + mpf("1e-29")
    with pytest.raises(SingularEvaluation):
        log_potential(mu, near, PREC)
    assert mp.isfinite(log_potential(mu, far, PREC))


def test_log_potential_rejects_non_finite_point():
    mu = DiscreteMeasure(points=(mpc(0),), weights=(mpf(1),))
    for bad in (mpc(mp.nan), mpc(mp.inf), mpc(0, -mp.inf)):
        with pytest.raises(InvalidParameter):
            log_potential(mu, bad, PREC)


def test_verify_balayage_identities():
    report = verify_balayage(mpf(1), 256, (mpc("0.05"),), (mpc(2), mpc(0, "1.5")), PREC)
    assert report.worst("origin") <= mpf("1e-10")
    assert report.worst("interior") <= mpf("1e-8")
    assert report.worst("exterior") <= mpf("1e-8")
    assert report.worst("field") <= mpf(40) / 256
    with pytest.raises(InvalidParameter):
        report.worst("nonexistent")


def test_verify_balayage_rejects_misplaced_points():
    with pytest.raises(InvalidTestPoint):
        verify_balayage(mpf(1), 64, (mpc(5),), (), PREC)
    with pytest.raises(InvalidTestPoint):
        verify_balayage(mpf(1), 64, (), (mpc("0.05"),), PREC)


def test_weighted_energy_robin_constant():
    results = {}
    for r in (mpf(0), mpf(1)):
        mu = discretize_mu_r(r, 512, PREC)
        res = weighted_energy(mu, precision_bits=PREC)
        results[r] = res.robin
        with workprec(PREC):
            assert abs(res.robin - (r + 1) / 2) <= mpf("0.03")
        energy, robin = res
        assert (energy, robin) == (res.energy, res.robin)
    # the discretization bias is nearly level-independent, so the slope
    # between levels is much sharper than the absolute values
    with workprec(PREC):
        slope = results[mpf(1)] - results[mpf(0)]
        assert abs(slope - mpf("0.5")) <= mpf("0.01")


def test_weighted_energy_rejects_coincident_points():
    mu = DiscreteMeasure(
        points=(mpc(1), mpc(0, 1), mpc(1)), weights=(mpf(1) / 4, mpf(1) / 2, mpf(1) / 4)
    )
    with pytest.raises(InvalidParameter, match="coincident"):
        weighted_energy(mu, precision_bits=PREC)


@pytest.mark.parametrize("r", ["0", "1"])
def test_weighted_energy_matches_pairwise_oracle(r):
    # graded weights change at every node and include the zero weight at
    # theta = 0, so every block of squared distances is flushed early
    _, mu = graded_mu_r(mpf(r), 64, PREC)
    res = weighted_energy(mu, precision_bits=PREC)
    pts, ws = mu.points, mu.weights
    with workprec(PREC + 16):
        pairs = mp.fsum(
            ws[i] * ws[j] * mp.log(abs(pts[i] - pts[j]))
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if ws[i] and ws[j]
        )
        field = mp.fsum(w * DEFAULT_FIELD.phi(x, PREC) for x, w in zip(pts, ws))
        energy = -2 * pairs + 2 * field
        robin = energy - field
    assert gap(res.energy, energy, PREC) <= mpf("1e-50")
    assert gap(res.robin, robin, PREC) <= mpf("1e-50")


def _greedy_log_leja(r, N, grid_M, precision_bits):
    """Weighted Leja points by greedy sums of logs: (points, robin estimate)."""
    grid = trace_level_curve(r, grid_M, precision_bits).points
    with workprec(precision_bits + 16):
        log_w = [-DEFAULT_FIELD.phi(g, precision_bits) for g in grid]
        log_prod = [mpf(0)] * grid_M
        chosen = []
        for k in range(1, N + 1):
            best_i = max(range(grid_M), key=lambda i: k * log_w[i] + log_prod[i])
            chosen.append(grid[best_i])
            for i in range(grid_M):
                d = abs(grid[i] - grid[best_i])
                log_prod[i] += mp.log(d) if d > 0 else mp.ninf
        best = max(N * log_w[i] + log_prod[i] for i in range(grid_M))
        return chosen, -best / N


@pytest.mark.parametrize("r", ["0", "1"])
def test_weighted_leja_matches_greedy_log_sums(r):
    N = 24
    result = weighted_leja(mpf(r), N, 384, 128)
    points, robin = _greedy_log_leja(mpf(r), N, 384, 128)
    assert result.measure.points == tuple(points)
    assert gap(result.robin_estimate, robin, 128) <= mpf("1e-30")
    with workprec(128):
        sup_norm = mp.exp(-N * result.robin_estimate)
    assert gap(result.sup_norm, sup_norm, 128) <= mpf("1e-30")


def test_weighted_leja_beginning_and_estimate():
    r = mpf(0)
    result = weighted_leja(r, 24, 384, 128)
    assert len(result.measure.points) == 24
    _, x_neg = real_crossings(r, 128)
    assert gap(result.measure.points[0], x_neg, 128) <= mpf("1e-20")
    with workprec(128):
        target = mpf("0.5")
        assert abs(result.robin_estimate - target) / target <= mpf("0.2")
    assert result.sup_norm > 0


def test_weighted_leja_validation():
    with pytest.raises(InvalidParameter):
        weighted_leja(mpf(0), 0, 64, 128)
    with pytest.raises(InvalidParameter):
        weighted_leja(mpf(0), 16, 64, 128)


def test_external_field():
    with workprec(PREC):
        z = mpc(2)
        expected = (mp.log(2) + 2) / 2
        assert gap(DEFAULT_FIELD.phi(z, PREC), expected, PREC) <= mpf(2) ** -180
        assert gap(
            DEFAULT_FIELD.omega(z, PREC), mp.e ** (-expected), PREC
        ) <= mpf(2) ** -180


def test_discrete_measure_validation():
    with pytest.raises(InvalidParameter):
        DiscreteMeasure(points=(mpc(0),), weights=(mpf(1), mpf(1)), label="bad")
    with pytest.raises(InvalidParameter):
        DiscreteMeasure(points=(mpc(0),), weights=(mpf(-1),), label="bad")
    with pytest.raises(InvalidParameter):
        DiscreteMeasure(points=(mpc(0),), weights=(mpf("0.9"),), label="bad")
