"""Simultaneous root finding and contracted-zero extraction."""

import random

import pytest
from mpmath import mp, mpc, mpf

from szegolab import rootfinding
from szegolab.asymptotics import make_schedule
from szegolab.errors import InvalidParameter, NonConvergence
from szegolab.fixed import to_fixed
from szegolab.laguerre import (
    CoeffList,
    LaguerreSpec,
    monic_rescaled,
    recommended_precision,
)
from szegolab.precision import ap_real, op_precision, workprec
from szegolab.rootfinding import (
    ZeroSet,
    contracted_zeros,
    counting_measure,
    find_roots,
)

from conftest import gap


def _horner_pair(coeffs, z):
    """p(z) and p'(z) in mpmath at the ambient precision; coeffs ascending.
    The mp reference for the solver's fixed-point Horner passes."""
    p = coeffs[-1]
    dp = mpf(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _coeff_list(*ascending):
    return CoeffList(coeffs=tuple(mpf(c) for c in ascending), monic_flag=True)


def test_find_roots_quadratic():
    zs = find_roots(_coeff_list(-1, 0, 1), 128)
    vals = sorted(z.real for z in zs.zeros)
    assert gap(vals[0], mpf(-1), 128) <= mpf(2) ** -100
    assert gap(vals[1], mpf(1), 128) <= mpf(2) ** -100
    assert all(r <= mpf(2) ** -64 for r in zs.residuals)


def test_find_roots_exact_origin_deflation():
    zs = find_roots(_coeff_list(0, 0, 0, 1), 128)
    assert zs.origin_multiplicity == 3
    assert zs.zeros == (mpc(0), mpc(0), mpc(0))
    assert zs.residuals == (mpf(0), mpf(0), mpf(0))


def test_find_roots_requires_monic():
    bad = CoeffList(coeffs=(mpf(1), mpf(2)), monic_flag=False)
    with pytest.raises(InvalidParameter):
        find_roots(bad, 128)
    with pytest.raises(InvalidParameter):
        find_roots(_coeff_list(-1, 0, 1), 128, tol=0)


def test_find_roots_rejects_non_finite_tol():
    # tol = inf would stop Aberth at once and return the starting points.
    for tol in ("inf", "nan"):
        with pytest.raises(InvalidParameter):
            find_roots(_coeff_list(-1, 0, 1), 128, tol=mpf(tol))
    # Text, complex and other values mpf cannot take are typed errors too, and
    # a bool is not read as tol = 1.
    for tol in ("abc", 1j, mpc(1, 0), [1], True, False):
        with pytest.raises(InvalidParameter):
            find_roots(_coeff_list(-1, 0, 1), 128, tol=tol)
    with pytest.raises(InvalidParameter):
        find_roots(_coeff_list(-1, 0, 1), 128, tol="1e-30")
    tol = ap_real("1e-30", 128)
    assert max(find_roots(_coeff_list(-1, 0, 1), 128, tol=tol).residuals) <= tol


def test_monic_rescaled_triple_origin_root():
    coeffs = monic_rescaled(LaguerreSpec(3, -3, 3), 192)
    zs = find_roots(coeffs, 192)
    assert zs.origin_multiplicity == 3
    assert zs.zeros == (mpc(0), mpc(0), mpc(0))


def test_contracted_zeros_count_and_residuals():
    prec = 256
    zs = contracted_zeros(10, mpf("-10.5"), prec)
    assert len(zs) == 10
    assert zs.origin_multiplicity == 0
    tol = mpf(2) ** -(prec // 2)
    assert max(zs.residuals) <= tol


def test_vieta_sum_and_product():
    prec = 256
    rng = random.Random(31415)
    for n in (8, 15, 24):
        alpha = ap_real(f"{rng.uniform(-(n + 4), -1):.10f}", prec)
        zs = contracted_zeros(n, alpha, prec)
        coeffs = monic_rescaled(LaguerreSpec.contracted(n, alpha), prec)
        with workprec(op_precision(prec, alpha) + 32):
            mean = mp.fsum(zs.zeros) / n
            expected = (n + alpha) / n
            assert abs(mean - expected) / max(1, abs(expected)) <= mpf(2) ** -(
                prec // 4
            )
            prod = mpf(1)
            for z in zs.zeros:
                prod *= z
            expected_prod = (mpf(-1)) ** n * coeffs.coeffs[0]
            assert abs(prod - expected_prod) / max(1, abs(expected_prod)) <= mpf(
                2
            ) ** -(prec // 4)


def test_zeros_closed_under_conjugation():
    # The pair rung returns the lower half as exact conjugates, each with its
    # partner's residual and radius; compared without rounding (conjugate()
    # and unary minus would round to the ambient precision).
    zs = contracted_zeros(12, mpf("-12.25"), 192)
    assert zs.start == "limit-law"
    rows = list(zip(zs.zeros, zs.residuals, zs.radii))
    for z, res, rad in rows:
        assert any(
            w.real == z.real and w.imag + z.imag == 0 and (r, d) == (res, rad)
            for w, r, d in rows
        )


def test_origin_multiplicity_for_integer_alpha_in_degenerate_set():
    zs = contracted_zeros(6, -4, 256)
    assert zs.origin_multiplicity == 4
    assert zs.zeros[:4] == (mpc(0),) * 4
    assert all(z != 0 for z in zs.zeros[4:])


def test_zeros_sorted_by_argument():
    zs = contracted_zeros(9, mpf("-9.5"), 192)
    keys = [(mp.arg(z), abs(z)) for z in zs.zeros]
    assert keys == sorted(keys)


def test_superexponential_cluster_collapses():
    # alpha = -n + e^(-n^2) drives every zero toward the origin, and
    # Gamma_(r_eff) with it; the limit-law seeds must still converge to
    # residual tolerance.
    n = 12
    prec = None  # distance-aware default
    with workprec(640):
        alpha = -n + mp.e ** (-(mpf(n) ** 2))
    zs = contracted_zeros(n, alpha, prec)
    assert max(abs(z) for z in zs.zeros) < mpf("1e-3")
    assert max(zs.residuals) <= mpf(2) ** -64


def test_non_convergence_carries_diagnostics():
    err = NonConvergence("no luck", best=(mpc(1),), max_residual=mpf("0.5"))
    assert err.best == (mpc(1),)
    assert err.max_residual == mpf("0.5")


def test_counting_measure():
    zs = contracted_zeros(8, mpf("-8.5"), 192)
    mu = counting_measure(zs)
    assert len(mu.points) == 8
    with workprec(192):
        assert gap(mu.total_mass(), mpf(1), 192) <= mpf(2) ** -150
    assert all(w == mu.weights[0] for w in mu.weights)
    with pytest.raises(InvalidParameter):
        counting_measure(ZeroSet(zeros=(), residuals=(), origin_multiplicity=0))


LADDER = ("limit-law", "circle", "newton-polygon")


def _fail_first(monkeypatch, k):
    """Make the first k rungs that run fail whole: each reports
    non-convergence with its starts, polished, as its rows.  Returns the list
    of rungs run ("pairs" when npairs > 0, else "full")."""
    run_rung = rootfinding._run_rung
    calls = []

    def fake(coeffs, starts, npairs, tol):
        calls.append("pairs" if npairs > 0 else "full")
        if len(calls) <= k:
            return rootfinding._polish(coeffs, list(starts)), False, 0, 0
        return run_rung(coeffs, starts, npairs, tol)

    monkeypatch.setattr(rootfinding, "_run_rung", fake)
    return calls


def _superexponential_alpha(n):
    with workprec(640):
        return -n + mp.e ** (-(mpf(n) ** 2))


@pytest.mark.parametrize(
    "n, alpha, k, runs, bits",
    [
        (9, "-9.5", 0, ["pairs"], 192),  # R = 1: the law rung runs on pairs
        (9, "-9.5", 1, ["pairs", "full"], 192),  # a failed pair run hands over
        (9, "-9.5", 2, ["pairs", "full", "full"], 192),
        (12, "-7.5", 1, ["full", "full"], 192),  # R = 6 > 2: no pair run
        (12, None, 0, ["pairs"], None),  # superexponential: the law pair rung
        (12, None, 1, ["pairs", "full"], None),
        (12, None, 2, ["pairs", "full", "full"], None),
        # Re p rounds to 0 at the real zero here, so its residual equals
        # |Im z| up to rounding, and no rule that compares the two can tell
        # it real; its isolated disk, which meets the axis, does.
        (9, "-9.5", 1, ["pairs", "full"], 160),
        (9, "-9.5", 2, ["pairs", "full", "full"], 168),
    ],
    ids=list(LADDER)
    + [
        "above-two-real",
        "cluster",
        "cluster-circle",
        "cluster-newton-polygon",
        "circle-160",
        "newton-polygon-168",
    ],
)
def test_every_rung_delivers_the_same_rows(n, alpha, k, runs, bits, monkeypatch):
    # n = 9 has one real zero; without Im = 0 snapping, the law and circle
    # starts leave rounding noise of opposite signs on it, which sorts it
    # into the first row from one start and the last row from the other.
    if alpha is None:
        alpha = _superexponential_alpha(n)
        prec = recommended_precision(n, alpha)
    else:
        alpha, prec = mpf(alpha), bits
    tol = mpf(2) ** -(prec // 2)
    reference = contracted_zeros(n, alpha, prec)
    calls = _fail_first(monkeypatch, k)
    zs = contracted_zeros(n, alpha, prec)
    assert calls == runs
    assert zs.start == LADDER[k]
    assert 0 < zs.sweeps <= rootfinding.SWEEP_CAP
    assert max(zs.residuals) <= tol
    bound = 2 * max(max(zs.residuals), max(reference.residuals))
    with workprec(prec + 16):
        assert all(abs(a - b) <= bound for a, b in zip(zs.zeros, reference.zeros))
    assert [z.imag == 0 for z in zs.zeros] == [z.imag == 0 for z in reference.zeros]
    assert zs.zeros[-1].imag == 0 and zs.zeros[-1].real < 0  # R- = 1 in each case


@pytest.mark.parametrize(
    "n, alpha, start, runs",
    [
        (4, mpf("0.5"), "circle", ["full"]),  # dist(alpha, S_n) = 1.5 > 1
        (6, -4, "closed-form", []),  # 4 origin roots deflated, 2 left
        (9, -4, "circle", ["full"]),  # 4 origin roots deflated, 5 left
        (12, mpf("-7.5"), "limit-law", ["full"]),  # R+ = 5: pair rung skipped
        (10, mpf("-8.5"), "limit-law", ["full"]),  # R+ = 2: pair rung skipped
    ],
    ids=[
        "dist-above-one",
        "deflated-quadratic",
        "deflated",
        "above-two-real",
        "two-positive",
    ],
)
def test_limit_law_rung_skipped(n, alpha, start, runs, monkeypatch):
    calls = _fail_first(monkeypatch, 0)
    zs = contracted_zeros(n, alpha)
    assert zs.start == start
    assert calls == runs
    assert max(zs.residuals) <= mpf(2) ** -64


@pytest.mark.parametrize(
    "n, alpha",
    [
        (7, "0.5"),  # alpha > -1: every zero positive
        (8, "-0.5"),
        (10, "-3.5"),  # -n < alpha < -1: R+ = 7, R- = 1
        (11, "-9.5"),  # R+ = 2, R- = 1
        (10, "-8.5"),  # R+ = 2, R- = 0: full law rung
        (13, "-12.5"),  # R+ = 1, R- = 0
        (10, "-9.5"),  # R+ = 1, R- = 1
        (9, "-9.5"),  # alpha < -n: R+ = 0, R- = 1
        (12, "-12.25"),  # R+ = 0, R- = 0
        (12, None),  # superexponential: R+ = 1, R- = 1
        # Many real zeros on full rungs, where Im z and the residual are
        # both rounding noise after the full-width steps
        (30, "0.5"),
        (40, "0.5"),
        (20, "10"),
        (20, "-0.5"),
        (60, "-30.5"),  # R+ = 30, R- = 0
    ],
)
def test_szego_real_zero_count(n, alpha):
    alpha = _superexponential_alpha(n) if alpha is None else mpf(alpha)
    pos, neg = rootfinding._real_zero_counts(LaguerreSpec.contracted(n, alpha))
    zs = contracted_zeros(n, alpha)
    real = [z.real for z in zs.zeros if z.imag == 0]
    assert (sum(x > 0 for x in real), sum(x < 0 for x in real)) == (pos, neg)


def test_snap_real_reads_the_disks():
    # Rows of (z - 1)(z - 2)(z - 3) from _polish, the first moved off the
    # axis by hand.  Only a disk that meets the axis, is disjoint from the
    # others and whose mirror image meets no other disk is snapped.
    coeffs = [mpf(-6), mpf(11), mpf(-6), mpf(1)]
    with workprec(128):
        tol, eps = mpf(2) ** -64, mpf(2) ** -100
        one, two, three = rootfinding._polish(coeffs, [mpc(1), mpc(2), mpc(3)])
        res = one[1]
        z, w = mpc(1, eps), 5 * eps / 8
        leave = {
            # both meet the axis and overlap; neither mirror image meets the other
            "overlapping": [(z, res, 3 * eps / 2), (mpc(1 + 2 * eps, w), res, w), three],
            "conjugate-pair": [(z, res, 2 * eps), (z.conjugate(), res, 2 * eps), three],
            # disjoint disks, but the first one's mirror image holds the second's centre
            "lopsided-pair": [(z, res, 3 * eps / 2), (z.conjugate(), res, eps / 4), three],
            "uncertified": [(z, res, mp.inf), two, three],
        }
        for name, rows in leave.items():
            assert rootfinding._snap_real(coeffs, rows) == rows, name
        rows = [(z, res, 2 * eps), two, three]
        snapped, *rest = rootfinding._snap_real(coeffs, rows)
    assert rest == [two, three]
    assert snapped[0].imag == 0 and abs(snapped[0] - z) <= 2 * eps
    assert snapped[1] <= tol and snapped[2] < eps


def test_unused_rungs_build_no_starts(monkeypatch):
    # The ladder builds a rung's starts only when that rung runs, so a fig 2
    # solve and a superexponential solve, which both converge on the
    # limit-law rung, build neither the circle nor the Newton polygon.
    def unused(*args):
        raise AssertionError("starts built for a rung that did not run")

    for name in ("_newton_polygon_starts", "_start_circle"):
        monkeypatch.setattr(rootfinding, name, unused)
    zs = contracted_zeros(60, ap_real("-60.1", 512), 512)
    assert zs.start == "limit-law" and len(zs) == 60
    calls = _fail_first(monkeypatch, 0)
    zs = contracted_zeros(12, _superexponential_alpha(12))
    assert zs.start == "limit-law" and calls == ["pairs"] and len(zs) == 12


def test_exhausted_ladder_raises_with_the_best_attempt(monkeypatch):
    # Every rung fails: find_roots raises, carrying the best attempt's m
    # zeros and its worst residual, which is above tol.
    tol = mpf(2) ** -96
    calls = _fail_first(monkeypatch, len(LADDER))
    with pytest.raises(NonConvergence) as info:
        contracted_zeros(9, mpf("-9.5"), 192)
    err = info.value
    assert calls == ["pairs", "full", "full"]
    assert len(err.best) == 9
    assert err.max_residual > tol


def _one_law_pair_run(n, alpha, bits, sweeps, monkeypatch):
    calls = _fail_first(monkeypatch, 0)
    zs = contracted_zeros(n, alpha, bits)
    assert zs.start == "limit-law" and calls == ["pairs"]
    assert 0 < zs.sweeps <= sweeps
    assert max(zs.residuals) <= mpf(2) ** -(bits // 2)


def test_limit_law_seeds_figure_two(monkeypatch):
    _one_law_pair_run(60, ap_real("-60.1", 512), 512, 4, monkeypatch)


@pytest.mark.parametrize(
    "kind, param, n, sweeps",
    [
        ("fig3", None, 60, 6),
        ("generic", {"c": "0.399"}, 40, 5),
        ("exponential", {"r": "0.870"}, 40, 5),
        ("superexponential", {}, 22, 5),
    ],
    ids=["fig3", "generic-40", "exponential-40", "superexp-22"],
)
def test_limit_law_seeds_the_schedule_slots(kind, param, n, sweeps, monkeypatch):
    # Each slot, the cluster included, is solved by one pair run of the law
    # rung, within the sweeps it takes today.
    if kind == "fig3":
        bits = 512
        alpha = ap_real("-59.99999", bits)
    else:
        sched = make_schedule(kind, **{k: ap_real(v, 192) for k, v in param.items()})
        bits, alpha = sched.precision_bits(n), sched.alpha_at(n)
    _one_law_pair_run(n, alpha, bits, sweeps, monkeypatch)


def _monic_from_roots(roots, bits):
    """Ascending coefficients of prod (z - r)."""
    with workprec(bits):
        c = [mpc(1)]
        for r in roots:
            c = [-r * c[0]] + [c[k - 1] - r * c[k] for k in range(1, len(c))] + [c[-1]]
    return CoeffList(c, monic_flag=True)


def _fixed_setup(coeffs, bits):
    """(P, F, s, b) exactly as find_roots and _sweeps set them up."""
    P = op_precision(bits, *coeffs.coeffs) + 16
    F = P + rootfinding._FIXED_GUARD
    with workprec(P):
        s, b = rootfinding._fixed_coeffs(coeffs.coeffs, F)
    return P, F, s, b


_COMPLEX_ROOTS = ("0.3+0.2j", "-0.25+0.45j", "0.1-0.6j", "-0.4-0.1j", "0.55+0.05j")


def _horner_case(name):
    if name == "fig2":
        return monic_rescaled(LaguerreSpec.contracted(60, ap_real("-60.1", 512)), 512), 512
    if name == "generic-60":
        sched = make_schedule("generic", c=ap_real("0.1", 64))
        bits = sched.precision_bits(60)
        return monic_rescaled(LaguerreSpec.contracted(60, sched.alpha_at(60)), bits), bits
    return _monic_from_roots([mpc(complex(r)) for r in _COMPLEX_ROOTS], 192), 192


@pytest.mark.parametrize("name", ["fig2", "generic-60", "complex"])
def test_fixed_horner_within_its_running_bound(name):
    # Each step of _horner_fixed truncates each part of a product once, and
    # each coefficient was truncated once, every time by less than one unit
    # of 2^-F.  So the errors in units obey e_k <= |y| e_(k+1) + 2 sqrt 2 for
    # p and d_k <= |y| d_(k+1) + sqrt 2 + e_(k+1) for p', from e_m = d_m = 0
    # (3 and 2 bound the roots).  The reference is mp Horner on the exact
    # scaled coefficients at the exact point, at twice the precision.
    # Points: the solver's zeros, points 2^-20 off them, and a circle.
    coeffs, bits = _horner_case(name)
    P, F, s, b = _fixed_setup(coeffs, bits)
    m = coeffs.degree
    zs = find_roots(coeffs, bits).zeros
    with workprec(P):
        points = list(zs[::3]) + [z * (1 + mpf(2) ** -20 * 1j) for z in zs[1::5]]
        points += [abs(zs[0]) * mp.expj(k) for k in range(4)]
        ints = [(to_fixed(z.real, F - s), to_fixed(z.imag, F - s)) for z in points]
    worst = 0
    with workprec(2 * F + 64):
        scaled = [mpc(c) for c in coeffs.coeffs]
        scaled = [
            mpc(mp.ldexp(c.real, s * (k - m)), mp.ldexp(c.imag, s * (k - m)))
            for k, c in enumerate(scaled)
        ]
        for X, Y in ints:
            y = mpc(mp.ldexp(X, -F), mp.ldexp(Y, -F))
            p, dp = _horner_pair(scaled, y)
            pr, pi, dr, di = rootfinding._horner_fixed(b, X, Y, F)
            e = d = mpf(0)
            for _ in range(m):
                e, d = abs(y) * e + 3, abs(y) * d + 2 + e
            err_p = abs(mpc(pr, pi) - p * 2**F)
            err_dp = abs(mpc(dr, di) - dp * 2**F)
            assert err_p <= e and err_dp <= d
            worst = max(worst, err_p / e, err_dp / d)
    assert worst > 0  # the ints are not exact, so the check has teeth


def test_superexponential_scaled_coefficients_stay_nonzero():
    # The cluster's scaled coefficients span from about 1 down to 2^-660 at
    # n = 22, far below double range; on 2^-F none may round to 0.
    sched = make_schedule("superexponential")
    bits = sched.precision_bits(22)
    coeffs = monic_rescaled(LaguerreSpec.contracted(22, sched.alpha_at(22)), bits)
    P, F, s, b = _fixed_setup(coeffs, bits)
    assert len(b) == 22
    for (re, im), c in zip(b, reversed(coeffs.coeffs[:-1])):
        assert c != 0 and re != 0 and im == 0
    assert min(abs(re).bit_length() for re, _ in b) < F - 600


def _radius_case(name):
    if name == "complex":
        return _monic_from_roots([mpc(complex(r)) for r in _COMPLEX_ROOTS], 192), 128
    if name == "fig2":
        return _horner_case(name)
    kind, param, n = {
        "exponential-40": ("exponential", {"r": "0.870"}, 40),
        "generic-40": ("generic", {"c": "0.399"}, 40),
        "superexp-22": ("superexponential", {}, 22),
    }[name]
    sched = make_schedule(kind, **{k: ap_real(v, 192) for k, v in param.items()})
    bits = sched.precision_bits(n)
    return monic_rescaled(LaguerreSpec.contracted(n, sched.alpha_at(n)), bits), bits


@pytest.mark.parametrize(
    "name", ["fig2", "exponential-40", "generic-40", "superexp-22", "complex"]
)
def test_every_zero_lies_within_its_radius(name):
    # The reference root is the zero refined by up to 12 Newton steps on the
    # same rounded coefficients at 4x the bits, until a step no longer moves
    # it at that precision.  The radius must bound that distance (the
    # residual |p/p'| in its place fails every case here), and the disks must
    # be pairwise disjoint, so that each holds exactly one root.  The residual
    # is read at the rounded root, so it must track that distance within a
    # factor 2.
    coeffs, bits = _radius_case(name)
    zs = find_roots(coeffs, bits)
    assert len(zs.radii) == len(zs.zeros) == coeffs.degree
    P = op_precision(bits, *coeffs.coeffs) + 16
    with workprec(4 * P):
        c = [mpc(a) for a in coeffs.coeffs]
        for z, radius, residual in zip(zs.zeros, zs.radii, zs.residuals):
            root = mpc(z)
            for _ in range(12):
                p, dp = _horner_pair(c, root)
                root -= p / dp
                if abs(p / dp) <= abs(root) * mpf(2) ** (16 - 4 * P):
                    break
            assert abs(root - z) <= radius < mp.inf
            assert abs(root - z) <= 2 * residual
        for i, (z, radius) in enumerate(zip(zs.zeros, zs.radii)):
            for w, other in zip(zs.zeros[i + 1 :], zs.radii[i + 1 :]):
                assert abs(z - w) > radius + other


def test_deflated_origin_roots_have_radius_zero():
    zs = find_roots(_coeff_list(0, 0, -1, 0, 1), 128)
    assert zs.origin_multiplicity == 2
    assert zs.radii[:2] == (0, 0) and all(0 < r < mpf(2) ** -100 for r in zs.radii[2:])


def test_degree_one_closed_form():
    # L_2^(-1)(2z) = 2z(z - 1): one origin root is deflated and the linear
    # factor left is solved in closed form.
    zs = contracted_zeros(2, -1)
    assert zs.zeros == (0, 1) and zs.residuals == (0, 0)
    assert zs.start == "closed-form" and zs.origin_multiplicity == 1
    assert zs.radii[0] == 0 and 0 < zs.radii[1] < mp.inf


def test_full_aberth_on_complex_coefficients():
    # Complex coefficients take the full rungs only, on the fixed-point kernel.
    roots = [mpc(complex(r)) for r in _COMPLEX_ROOTS]
    zs = find_roots(_monic_from_roots(roots, 192), 128)
    assert zs.start == "circle" and zs.sweeps > 0
    assert max(zs.residuals) <= mpf(2) ** -64
    with workprec(144):
        for r in roots:
            assert min(abs(z - r) for z in zs.zeros) <= mpf(2) ** -100


def _cube_roots_of_unity():
    return [mp.expj(2 * mp.pi * k / 3) for k in range(3)]


def test_aberth_skips_a_start_where_p_is_exactly_zero():
    # z^3 - 1 started exactly at its root 1: p = 0 there in the ints, so that
    # root is never stepped and the other two converge around it.
    coeffs = [mpf(-1), mpf(0), mpf(0), mpf(1)]
    with workprec(144):
        starts = [mpc(1), mpc("-0.4", "0.7"), mpc("-0.6", "-0.9")]
        roots, converged, sweeps = rootfinding._sweeps(coeffs, starts, 0, mpf(2) ** -64)
        assert converged and roots[0] == 1
        for r, z in zip(_cube_roots_of_unity(), roots):
            assert abs(z - r) <= mpf(2) ** -64


def test_aberth_substitutes_a_zero_derivative():
    # z^3 - 1 started at 0, between the starts a and -a: there p = -1,
    # p' = 0 and sum 1/(z - w) = 0 exactly in the ints, so the Aberth
    # denominator p' - p S is 0.  The step falls back to p / p' with p'
    # counted as 1, which moves 0 exactly onto the root 1.
    coeffs = [mpf(-1), mpf(0), mpf(0), mpf(1)]
    with workprec(144):
        F = mp.prec + rootfinding._FIXED_GUARD
        s, b = rootfinding._fixed_coeffs(coeffs, F)
        assert s == 0 and rootfinding._horner_fixed(b, 0, 0, F) == (-(1 << F), 0, 0, 0)
        a = mpc("0.6", "0.3")
        roots, converged, sweeps = rootfinding._sweeps(
            coeffs, [mpc(0), a, -a], 0, mpf(2) ** -64
        )
        assert converged and roots[0] == 1
        for r in _cube_roots_of_unity():
            assert min(abs(z - r) for z in roots) <= mpf(2) ** -64


def test_a_start_at_zero_sweeps_at_full_width(monkeypatch):
    # z^3 - 1 started at 0, a and -a: |y| = 0 at the first start, so
    # _condition gives no bound and _run_rung skips the narrow run, sweeping
    # at the full width F from the starts.
    coeffs = [mpf(-1), mpf(0), mpf(0), mpf(1)]
    runs = _record_sweeps(monkeypatch)
    with workprec(144):
        F = mp.prec + rootfinding._FIXED_GUARD
        s, b = rootfinding._fixed_coeffs(coeffs, F)
        a = mpc("0.6", "0.3")
        starts = [mpc(0), a, -a]
        points = [(to_fixed(z.real, F - s), to_fixed(z.imag, F - s)) for z in starts]
        assert rootfinding._condition(b, points, F) is None
        tol = mpf(2) ** -72
        rows, converged, sweeps, bits = rootfinding._run_rung(coeffs, starts, 0, tol)
        for r in _cube_roots_of_unity():
            assert min(abs(z - r) for z, _, _ in rows) <= mpf(2) ** -100
    assert converged and (bits, sweeps) == (F, 5) and F == 152
    assert runs == [(None, 5)]
    assert max(res for _, res, _ in rows) <= tol


def _record_sweeps(monkeypatch):
    """Record (grid, sweeps) of every Aberth run, grid None at full width."""
    real = rootfinding._sweeps
    runs = []

    def recorded(coeffs, starts, npairs, tol, F=None, floor=None):
        out = real(coeffs, starts, npairs, tol, F, floor)
        runs.append((F, out[2]))
        return out

    monkeypatch.setattr(rootfinding, "_sweeps", recorded)
    return runs


def _rows(zs):
    return zs.zeros, zs.residuals, zs.radii, zs.start


@pytest.mark.parametrize(
    "name", ["fig2", "exponential-40", "generic-40", "superexp-22", "superexp-30"]
)
def test_narrow_sweeps_deliver_the_full_width_rows(name, monkeypatch):
    # The law rung sweeps at W = kappa-hat + 128 bits, below the precision
    # P, climbs and polishes at full width, and returns the rows of a solve
    # whose every sweep runs at full width (the margin patched so that W
    # passes P) bit for bit.
    if name == "superexp-30":
        sched = make_schedule("superexponential")
        bits = sched.precision_bits(30)
        coeffs = monic_rescaled(LaguerreSpec.contracted(30, sched.alpha_at(30)), bits)
    else:
        coeffs, bits = _radius_case(name)
    runs = _record_sweeps(monkeypatch)
    zs = find_roots(coeffs, bits)
    assert [F for F, _ in runs] == [zs.sweep_bits] and zs.sweep_bits < bits
    monkeypatch.setattr(rootfinding, "_KAPPA_MARGIN", 1 << 20)
    runs.clear()
    full = find_roots(coeffs, bits)
    assert runs == [(None, full.sweeps)]
    P, F, s, b = _fixed_setup(coeffs, bits)
    assert full.sweep_bits == F
    assert _rows(zs) == _rows(full)


@pytest.mark.parametrize("case", ["no-margin", "kappa-too-low"])
def test_too_narrow_sweeps_fall_back_to_full_width(case, monkeypatch):
    # Two ways a narrow run cannot deliver.  With no margin above kappa-hat
    # (42 bits on fig 2) it stops at its floor after a sweep and the climb
    # has no good bits to double, so its roots fail the gate.  With
    # kappa-hat 100 bits too low (26-bit sweeps on the superexponential
    # n = 22 cluster) it converges on the coefficients cut to W, but the
    # climb's first step is longer than the bits it assumes.  Either way
    # full-width sweeps from the roots reached return the full-width rows bit
    # for bit.
    coeffs, bits = _horner_case("fig2") if case == "no-margin" else _radius_case("superexp-22")
    margin, condition = rootfinding._KAPPA_MARGIN, rootfinding._condition
    monkeypatch.setattr(rootfinding, "_KAPPA_MARGIN", 1 << 20)
    full = find_roots(coeffs, bits)
    if case == "no-margin":
        monkeypatch.setattr(rootfinding, "_KAPPA_MARGIN", 0)
    else:
        monkeypatch.setattr(rootfinding, "_KAPPA_MARGIN", margin)
        monkeypatch.setattr(rootfinding, "_condition", lambda *args: condition(*args) - 100)
    runs = _record_sweeps(monkeypatch)
    zs = find_roots(coeffs, bits)
    (narrow, sweeps), (wide, wide_sweeps) = runs
    assert 0 < narrow < bits and wide is None
    assert sweeps <= 5 < rootfinding.SWEEP_CAP
    assert zs.sweep_bits == full.sweep_bits and zs.sweeps == wide_sweeps
    assert _rows(zs) == _rows(full)


def test_gate_failure_restarts_full_width_from_the_polished_zeros(monkeypatch):
    # On fig 2 the narrow run converges and every checked step of _polish
    # holds, so with a tol that no residual meets only the gate fails, and
    # the full-width sweeps (stubbed here) start from _polish's zeros.
    coeffs, bits = _radius_case("fig2")
    P, F, s, b = _fixed_setup(coeffs, bits)
    real, polish = rootfinding._sweeps, rootfinding._polish
    runs, rows = [], []

    def recorded(c, starts, npairs, tol, F=None, floor=None):
        runs.append((F, list(starts)))
        return real(c, starts, npairs, tol, F, floor) if F else (list(starts), False, 0)

    def polished(*args):
        rows.append(polish(*args))
        return rows[-1]

    monkeypatch.setattr(rootfinding, "_sweeps", recorded)
    monkeypatch.setattr(rootfinding, "_polish", polished)
    with workprec(P):
        starts, npairs = rootfinding._limit_law_starts(coeffs.spec, coeffs.degree)
        tol = mpf(2) ** -(4 * F)
        out = rootfinding._run_rung(list(coeffs.coeffs), starts, npairs, tol)
    (narrow, _), (wide, wide_starts) = runs
    assert 0 < narrow < F and wide is None
    assert rows[0] is not None and wide_starts == [z for z, _, _ in rows[0]]
    assert out[1:] == (False, 0, F)


def test_bare_cluster_hands_off_to_full_width(monkeypatch):
    # Without its spec the superexponential n = 22 cluster has no law rung.
    # The circle run at kappa-hat + 128 bits ends unconverged after
    # SWEEP_CAP sweeps; full-width sweeps from its roots then converge, and
    # the zeros are the spec solve's.
    coeffs, bits = _radius_case("superexp-22")
    spec_zs = find_roots(coeffs, bits)
    runs = _record_sweeps(monkeypatch)
    zs = find_roots(CoeffList(coeffs.coeffs, monic_flag=True), bits)
    assert bits == 1240 and zs.spec is None
    assert runs == [(126, rootfinding.SWEEP_CAP), (None, 9)] and zs.sweeps == 9
    assert zs.start == "circle" and zs.sweep_bits == _fixed_setup(coeffs, bits)[1] == 1264
    assert zs.zeros == spec_zs.zeros
    assert max(zs.residuals) <= mpf(2) ** -(bits // 2)


@pytest.mark.parametrize(
    "kind, n, kappa",
    [("generic", 60, 40), ("generic", 120, 87), ("superexponential", 22, -3)],
)
def test_kappa_hat_is_the_starts_condition(kind, n, kappa):
    # kappa-hat on the law rung's starts, from the scaled ints, bounds the
    # condition log2(A(|z|) / (|z| |p'(z)|)) of each start, computed in mp
    # on the exact scaled coefficients, by at most 3 bits from above; the
    # values measured in doubles were 40.4 / 87.2 / -3.1 bits.
    sched = make_schedule(kind, **({"c": ap_real("0.1", 64)} if kind == "generic" else {}))
    bits, alpha = sched.precision_bits(n), sched.alpha_at(n)
    spec = LaguerreSpec.contracted(n, alpha)
    coeffs = monic_rescaled(spec, bits)
    P, F, s, b = _fixed_setup(coeffs, bits)
    with workprec(P):
        counts = rootfinding._real_zero_counts(spec)
        starts, _ = rootfinding._limit_law_starts(spec, n, counts)
        points = [(to_fixed(mpc(z).real, F - s), to_fixed(mpc(z).imag, F - s)) for z in starts]
    got = rootfinding._condition(b, points, F)
    worst = None
    with workprec(2 * F):
        c = [mp.ldexp(a, -s * (n - k)) for k, a in enumerate(coeffs.coeffs)]
        for x, y in points:
            z = mpc(mp.ldexp(x, -F), mp.ldexp(y, -F))
            t = abs(z)
            _, dp = _horner_pair(c, z)
            k = mp.log(mp.fsum(abs(a) * t**j for j, a in enumerate(c)) / (t * abs(dp)), 2)
            worst = k if worst is None else max(worst, k)
    assert worst <= got <= worst + 3
    assert abs(worst - kappa) < 2


def test_close_arguments_are_resorted_by_the_full_key(monkeypatch):
    # b's argument exceeds a's by about 2^-80: both round to the double 1.0,
    # so only the full key orders them, a first although |a| > |b|
    bits = 256
    with workprec(bits):
        a = 2 * mp.expj(1)
        b = mp.expj(1) * mpc(1, mpf(2) ** -80)
        c = mpc(-1, mpf("0.5"))
    assert rootfinding._double_arg(a) == rootfinding._double_arg(b)
    calls = [0]
    full = rootfinding._sort_key

    def counted(z):
        calls[0] += 1
        return full(z)

    monkeypatch.setattr(rootfinding, "_sort_key", counted)
    zs = find_roots(_monic_from_roots([b, c, a], bits), bits)
    with workprec(bits + 16):
        assert list(zs.zeros) == sorted(zs.zeros, key=full)
        assert gap(zs.zeros[0], a, bits) <= mpf(2) ** -200
        assert gap(zs.zeros[1], b, bits) <= mpf(2) ** -200
    # the full key runs on the run of a and b only
    assert calls[0] == 2
    with workprec(bits + 16):
        for zs in ((b, a, c), (a, c, b)):
            rows = [(z, k, k) for k, z in enumerate(zs)]
            expected = sorted(rows, key=lambda row: full(row[0]))
            assert rootfinding._sorted_rows(rows) == expected


def test_equal_full_keys_keep_their_order():
    # a stable sort keeps rows with equal keys in order; so must the runs
    with workprec(128):
        z = mpc(1, 1)
        rows = [(mpc(2), 0, 0), (z, 1, 1), (mpc(-1), 2, 2), (z, 3, 3), (mpc(1), 4, 4)]
        expected = sorted(rows, key=lambda row: rootfinding._sort_key(row[0]))
        assert rootfinding._sorted_rows(rows) == expected
        assert [row[1] for row in expected] == [4, 0, 1, 3, 2]
