"""Balayage measure discretization, potential identities, energy, and Leja."""

import random

import pytest
from mpmath import mp, mpc, mpf

from szegolab.cli import suite_lemma1
from szegolab.errors import InvalidParameter, InvalidTestPoint, SingularEvaluation
from szegolab import potential
from szegolab.measures import DiscreteMeasure, _log_pair_sum, log_potential
from szegolab.potential import (
    DEFAULT_FIELD,
    EnergyResult,
    discretize_mu_r,
    graded_mu_r,
    harmonic_moments,
    pullback_density,
    verify_balayage,
    weighted_energy,
    weighted_leja,
)
from szegolab.fixed import gaussian_ints
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.szego import real_crossings, trace_level_curve

from conftest import KERNEL_CASES, KERNEL_IDS, gap, half_ulp, kernel_case

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


def _moment_formula(mu, bits):
    """The mpmath moments that the int kernel replaced: fsum(w x^k), k <= 6."""
    pairs = list(zip(mu.points, mu.weights))
    with workprec(bits):
        return [mp.fsum(w * x**k for x, w in pairs) for k in range(7)]


def _check_moments(mu):
    """harmonic_moments against fsum(w x^k) at 2P + 64 bits, on the same
    points and weights, for k_max in (0, 1, 6).

    Each part of each moment stays within the docstring bound
    (3 k W + n) 2^(k s - F) plus half a unit in its last place, and the
    moment within the larger of the error of the same formula at P bits
    (the mpmath kernel's own) and one rounding unit 2^(1 - P) |m_k|.
    """
    pts = mu.points
    P = op_precision(PREC, *pts)
    n = len(pts)
    exact, parent = _moment_formula(mu, 2 * P + 64), _moment_formula(mu, P)
    s = max((mp.mag(x) for x in pts if x), default=0)
    for k_max in (0, 1, 6):
        got = harmonic_moments(mu, k_max, PREC)
        assert len(got) == k_max + 1
        F = P + 16 + 2 * k_max + n.bit_length()
        with workprec(2 * P + 64):
            W = mp.fsum(mu.weights)
            for k, m in enumerate(got):
                assert isinstance(m, mpc)
                bound = (3 * k * W + n) * mp.ldexp(1, k * s - F)
                ref = mpc(exact[k])
                for part, want in ((m.real, ref.real), (m.imag, ref.imag)):
                    assert abs(part - want) <= bound + half_ulp(part, P), (k_max, k)
                err = abs(m - ref)
                own = max(abs(parent[k] - ref), mp.ldexp(abs(ref), 1 - P))
                assert err <= own, (k_max, k, err, own)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
def test_harmonic_moments_match_their_formula(case):
    _check_moments(kernel_case(*case)[1])


def test_harmonic_moments_off_the_unit_disc():
    # |x| up to 5, a point at 1e-30, real points and no conjugate symmetry;
    # the same measure scaled by 2^-1000 needs the 2^s scale to resolve
    with workprec(PREC):
        pts = [mpf(5), mpc(-3, 4), mpc("0.5", "0.25"), mpf("1e-30"), mpc(0, -2)]
        pts.append(mpc("-1.25", "-0.75"))
        weights = [mpf(k) / 8 for k in (1, 2, 1, 2, 1, 1)]
        for scale in (1, mp.ldexp(1, -1000)):
            _check_moments(DiscreteMeasure(points=[x * scale for x in pts], weights=weights))


def test_harmonic_moments_run_one_chain_per_conjugate_orbit(monkeypatch):
    # A mirrored M = 64 curve has two real nodes (theta = 0 and pi) and 31
    # conjugate pairs: 33 product chains, one cmul each per k >= 1, and the
    # equal weights of each pair cancel its imaginary parts exactly.
    mu = discretize_mu_r(ap_real("0.5", PREC), 64, PREC)
    cmul, calls = potential.cmul, []

    def counting(*args):
        calls.append(args)
        return cmul(*args)

    monkeypatch.setattr(potential, "cmul", counting)
    moments = harmonic_moments(mu, 6, PREC)
    assert len(calls) == 33 * 6
    assert all(m.imag == 0 for m in moments)


def test_harmonic_moments_of_merged_orbits_with_unequal_weights():
    # A repeated point, a conjugate pair with unequal weights, a repeated
    # real point: each orbit's signed weights are summed before its chain.
    with workprec(PREC):
        pts = [mpc(1, 2), mpc(1, 2), mpc(1, -2), mpf(3), mpf(3), mpc("0.5", "-0.25")]
        weights = [mpf(k) / 16 for k in (1, 2, 3, 4, 5, 1)]
    _check_moments(DiscreteMeasure(points=pts, weights=weights))


@pytest.mark.parametrize("k_max", [-1, 6.0, True, "6"])
def test_harmonic_moments_rejects_a_bad_k_max(k_max):
    mu = discretize_mu_r(mpf(1), 16, PREC)
    with pytest.raises(InvalidParameter, match="k_max"):
        harmonic_moments(mu, k_max, PREC)


def _density_formula(curve, bits):
    """The mpmath pullback density that the int kernel replaced, at bits."""
    m = len(curve.points)
    pts, thetas = curve.points, curve.thetas
    with workprec(bits):
        two_pi = 2 * mp.pi
        out = []
        for j in range(m):
            z = pts[j]
            t_prev = thetas[j - 1] - (two_pi if j == 0 else 0)
            t_next = thetas[(j + 1) % m] + (two_pi if j == m - 1 else 0)
            dz = (pts[(j + 1) % m] - pts[j - 1]) / (t_next - t_prev)
            out.append(((1 - z) / z * dz / (2j * mp.pi)).real)
    return out


@pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
def test_pullback_density_matches_its_formula(case):
    # Against the formula at 2P + 64 bits, each node's density stays within
    # the docstring bound plus half a unit in its last place at P + 16 bits,
    # and within the larger of the formula's own error at P + 16 bits and
    # one rounding unit of the result.
    curve, _ = kernel_case(*case)
    P = curve.precision_bits
    got = pullback_density(curve)
    wide = 2 * P + 64
    exact, parent = _density_formula(curve, wide), _density_formula(curve, P + 16)
    F = max(-gaussian_ints(curve.thetas)[2], P + 24)
    m = len(got)
    with workprec(wide):
        ends = {0: curve.thetas[1] - curve.thetas[-1] + 2 * mp.pi}
        ends[m - 1] = curve.thetas[0] + 2 * mp.pi - curve.thetas[-2]
        for j, d in enumerate(got):
            err = abs(d - exact[j])
            rel = 1 / mp.pi + (2 / ends[j] if j in ends else 0)
            bound = mpf("1.02") * abs(exact[j]) * mp.ldexp(rel, -F)
            assert err <= bound + half_ulp(d, P + 16), j
            own = max(abs(parent[j] - exact[j]), mp.ldexp(abs(exact[j]), -P - 15))
            assert err <= own, (j, err, own)


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


def test_discretizations_reject_a_non_real_r():
    for r in ("abc", [1], True):
        for build in (discretize_mu_r, graded_mu_r):
            with pytest.raises(InvalidParameter):
                build(r, 16, PREC)
    with pytest.raises(InvalidParameter):
        discretize_mu_r("inf", 16, PREC)
    assert discretize_mu_r(ap_real("inf", PREC), 16, PREC).label == "delta_0"


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


def test_weighted_energy_at_the_origin():
    # phi_ext is infinite at 0: a zero-weight point there drops out of both
    # parts, and a point there with positive weight is refused
    half = mpf(1) / 2
    with_zero = DiscreteMeasure(points=(0, 1, 2), weights=(0, half, half))
    without = DiscreteMeasure(points=(1, 2), weights=(half, half))
    assert weighted_energy(with_zero, PREC) == weighted_energy(without, PREC)
    assert mp.isfinite(weighted_energy(with_zero, PREC).energy)
    with pytest.raises(InvalidParameter):
        weighted_energy(DiscreteMeasure(points=(0, 1), weights=(half, half)), PREC)


@pytest.mark.parametrize(
    "r, equal",
    [("0", False), ("1", False), ("0", True), ("1", True)],
    ids=["0", "1", "equal-0", "equal-1"],
)
def test_weighted_energy_matches_pairwise_oracle(r, equal):
    # graded weights change at every node and include the zero weight at
    # theta = 0, so every block of squared distances is flushed early; the
    # equal weights at M = 128 fill whole 64-factor blocks in the first rows
    if equal:
        mu = discretize_mu_r(mpf(r), 128, PREC)
    else:
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


def test_weighted_energy_counts_the_weighted_support():
    # delta_1 is refused however it is written: a zero-weight point changes
    # nothing, as at the origin above
    for points, weights in (((1,), (1,)), ((1, 2), (1, 0)), ((2, 1), (0, 1))):
        with pytest.raises(InvalidParameter, match="2 weighted points"):
            weighted_energy(DiscreteMeasure(points=points, weights=weights), 128)


def _unfolded_energy(mu, precision_bits):
    """weighted_energy before the conjugate fold: rows i < m - 1 over every
    j > i, each pair once; the reference for the folded sum."""
    prec = op_precision(precision_bits, *mu.points)
    with workprec(prec + 16):
        support, weights = zip(*((x, w) for x, w in zip(mu.points, mu.weights) if w))
        xs, ys, e = gaussian_ints(support)
        m = len(support)
        rows = []
        for i in range(m - 1):
            row = _log_pair_sum(xs[i], ys[i], xs, ys, weights, range(i + 1, m), e, 0)
            rows.append(-weights[i] * row)
        field_sum = mp.fsum(
            w * DEFAULT_FIELD.phi(x, precision_bits) for x, w in zip(support, weights)
        )
        energy = mp.fsum(rows) + 2 * field_sum
        return EnergyResult(energy=energy, robin=energy - field_sum)


def _count_pair_sums(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _log_pair_sum(*args)

    monkeypatch.setattr(potential, "_log_pair_sum", counted)
    return calls


@pytest.mark.parametrize("M", [16, 128, 512])
@pytest.mark.parametrize("r", ["0", "1e-12", "0.3", "1"])
def test_weighted_energy_folds_conjugate_orbits(monkeypatch, r, M):
    mu = discretize_mu_r(ap_real(r, PREC), M, PREC)
    calls = _count_pair_sums(monkeypatch)
    folded = weighted_energy(mu, PREC)
    # rows 0 .. M/2 - 1 and one call for the self-conjugate pairs
    assert calls[0] == M // 2 + 1
    unfolded = _unfolded_energy(mu, PREC)
    if (r, M) != ("1e-12", 16):
        assert folded == unfolded
        return
    # here the fold's roundings move the last bit of both values
    bound = _fold_bound(mu, unfolded, PREC)
    with workprec(PREC + 16):
        assert 0 < abs(folded.energy - unfolded.energy) <= bound
        assert 0 < abs(folded.robin - unfolded.robin) <= bound


def _sq_dist(a, b):
    """|a - b|^2 = dx^2 + dy^2 by mpc and mpf operators: the rounding
    potential._sq_dist must give on raw values."""
    d = a - b
    dx, dy = d.real, d.imag
    return dx * dx + dy * dy


def _fold_bound(mu, res, precision_bits):
    """weighted_energy's bound on |folded - unfolded|, energy and Robin
    value: 2^(3 - P) (1 + lam + |I| + |F|)."""
    P = op_precision(precision_bits, *mu.points) + 16
    with workprec(64):
        lam = max(
            abs(mp.log(_sq_dist(x, y)))
            for i, x in enumerate(mu.points)
            for y in mu.points[i + 1 :]
        )
        return mpf(2) ** (3 - P) * (1 + lam + abs(res.energy) + abs(res.robin))


def _random_mirrored(rng, m):
    """m equal-weight points laid out as a LevelCurve's, at PREC bits."""
    with workprec(PREC):
        ends = [mpc(3 * mpf(rng.random()) - 1) for _ in range(2)]
        inner = [
            mpc(3 * mpf(rng.random()) - 1, 2 * mpf(rng.random()) + mpf("0.01"))
            for _ in range(m // 2 - 1)
        ]
        half = [ends[0], *inner, ends[1]]
        points = half + [z.conjugate() for z in reversed(half[1:-1])]
        w = mpf(1) / m
    return DiscreteMeasure(points=tuple(points), weights=(w,) * m)


def test_weighted_energy_fold_within_its_bound(monkeypatch):
    # near-cancelling energies of random mirrored supports: the fold's
    # roundings can move the last bits, within the docstring's bound
    rng = random.Random(7)
    moved = 0
    for _ in range(40):
        mu = _random_mirrored(rng, rng.choice([8, 16, 32, 64]))
        calls = _count_pair_sums(monkeypatch)
        folded = weighted_energy(mu, PREC)
        assert calls[0] == len(mu) // 2 + 1
        unfolded = _unfolded_energy(mu, PREC)
        bound = _fold_bound(mu, unfolded, PREC)
        with workprec(PREC + 16):
            assert abs(folded.energy - unfolded.energy) <= bound
            assert abs(folded.robin - unfolded.robin) <= bound
        moved += folded != unfolded
    assert moved


def test_weighted_energy_unfolded_out_of_curve_order(monkeypatch):
    # a mirrored support in another order, or with unequal weights, runs
    # every row; so does a graded measure, whose node 0 has weight 0
    mu = discretize_mu_r(ap_real("0.3", PREC), 64, PREC)
    order = list(range(64))
    random.Random(3).shuffle(order)
    shuffled = DiscreteMeasure(
        points=tuple(mu.points[j] for j in order), weights=mu.weights
    )
    _, graded = graded_mu_r(ap_real("0.3", PREC), 64, PREC)
    for case, rows in ((shuffled, 63), (graded, 62)):
        calls = _count_pair_sums(monkeypatch)
        assert weighted_energy(case, PREC) == _unfolded_energy(case, PREC)
        assert calls[0] == rows
    res = weighted_energy(shuffled, PREC)
    with workprec(PREC + 16):
        assert abs(res.energy - weighted_energy(mu, PREC).energy) <= _fold_bound(
            mu, res, PREC
        )


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


def _product_greedy_leja(r, N, grid_M, precision_bits):
    """(points, sup_norm, robin_estimate) of the eager greedy rule, which
    updates every grid product at every step; weighted_leja must equal it."""
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
    return tuple(chosen), sup_norm, robin_estimate


def _leja_triple(result):
    return result.measure.points, result.sup_norm, result.robin_estimate


def _count_sq_dist(monkeypatch):
    calls = [0]
    real = potential._sq_dist

    def counted(a, b, prec):
        calls[0] += 1
        return real(a, b, prec)

    monkeypatch.setattr(potential, "_sq_dist", counted)
    return calls


def _count_nodes(monkeypatch):
    """Indices j <= M/2 of the full-precision nodes weighted_leja builds."""
    built = []
    real = potential._half_node

    def counted(r, j, *rest):
        built.append(j)
        return real(r, j, *rest)

    monkeypatch.setattr(potential, "_half_node", counted)
    return built


@pytest.mark.parametrize(
    "r, N, grid_M, bits",
    [
        ("0", 24, 384, 128),
        ("1e-12", 24, 384, 128),
        ("0.3", 24, 384, 128),
        ("0.5", 24, 384, 128),
        ("1", 24, 384, 128),
        # nearly a circle: near-ties give several candidates per step
        ("30", 8, 64, 192),
        # radius about e^-801: unscaled doubles of the nodes would be 0, and
        # every node a candidate
        ("800", 8, 64, 192),
    ],
)
def test_weighted_leja_is_the_product_greedy_rule(monkeypatch, r, N, grid_M, bits):
    r = ap_real(r, bits)
    calls = _count_sq_dist(monkeypatch)
    built = _count_nodes(monkeypatch)
    result = weighted_leja(r, N, grid_M, bits)
    assert _leja_triple(result) == _product_greedy_leja(r, N, grid_M, bits)
    # the eager rule takes N * grid_M squared distances and traces every node
    assert calls[0] < N * grid_M / 4
    if r == 800:
        # every omega2_i rounds to the same mpf: the first step's tie is
        # settled only by every node, each evaluated once
        assert sorted(built) == list(range(grid_M // 2 + 1))
    else:
        assert len(built) < grid_M / 4


def test_weighted_leja_unbounded_shadow_updates_every_node(monkeypatch):
    # An infinite error bound makes every unchosen node a candidate at every
    # step: each step brings all of them up to date, as the eager rule does.
    r, N, grid_M = mpf("0.5"), 24, 384
    monkeypatch.setattr(potential, "_SHADOW_U", mp.inf)
    calls = _count_sq_dist(monkeypatch)
    built = _count_nodes(monkeypatch)
    result = weighted_leja(r, N, grid_M, 128)
    assert _leja_triple(result) == _product_greedy_leja(r, N, grid_M, 128)
    assert calls[0] == sum(grid_M - k for k in range(1, N + 1)) <= N * grid_M
    # each half node once; node M - j is the conjugate of node j
    assert sorted(built) == list(range(grid_M // 2 + 1))


@pytest.mark.parametrize(
    "r, N, grid_M, bits",
    [
        ("0", 24, 384, 128),
        ("0.3", 24, 384, 128),
        ("1", 24, 384, 128),
        ("800", 8, 64, 192),
    ],
)
def test_shadow_step_returns_the_candidates(monkeypatch, r, N, grid_M, bits):
    # the one-pass filter must give _candidates' set over every live node
    real = potential._shadow_step
    sizes = []

    def checked(c, live, *rest):
        out = real(c, live, *rest)
        F, E = rest[-2:]
        assert out == potential._candidates(live, F, E)
        sizes.append((len(out), len(live)))
        return out

    monkeypatch.setattr(potential, "_shadow_step", checked)
    weighted_leja(ap_real(r, bits), N, grid_M, bits)
    assert len(sizes) == N


def test_leja_robin_gap():
    r = ap_real("0.3", 128)
    result = weighted_leja(r, 24, 384, 128)
    target, rel = result.robin_gap(r, 128)
    with workprec(op_precision(128, result.robin_estimate, r)):
        assert target == (r + 1) / 2
        assert rel == abs(result.robin_estimate - target) / target


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
    # the grid's node count and r, checked without tracing the grid
    with pytest.raises(InvalidParameter):
        weighted_leja(mpf(0), 2, 65, 128)
    with pytest.raises(InvalidParameter):
        weighted_leja(mpf(0), 1, 8, 128)
    for r in (mpf(-1), mp.inf, mp.nan):
        with pytest.raises(InvalidParameter):
            weighted_leja(r, 2, 64, 128)
    # N must be an int: 1.5 used to fail deep inside, True to run as N = 1
    for N in (1.5, True):
        with pytest.raises(InvalidParameter):
            weighted_leja(1, N, 16, 128)


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
