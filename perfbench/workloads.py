"""Seeded case lists for the three workloads, how to run each case, and the
untimed checks applied to what it returns.

Sizes (degree n, node counts M, Leja N and grid) are fixed per case slot so
that one pass does the same amount of work for every seed; the seed draws
the values that do not set the size (c, rate, r, the Askey parameters, and
which row gets which M).  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpc, mpf

from szegolab import asymptotics, cli, laguerre, measures, potential, precision, szego

WORKLOADS = ("schedule-experiments", "identity-suites", "robin-energy")

SUITE_PREC = 192
FIG_PREC = 512
SCHEDULE_N = 40
SUPEREXP_N = 22
IDENTITY_M = (1024, 2048, 4096)
ENERGY_M = 512
LEJA_N = 128
LEJA_GRID = 16 * LEJA_N

# The r = 0 rows of criteria 1 and 2 fail at their stated tolerances at this
# commit (equal-weight nodes at the corner z = 1 converge like M^(-3/2); see
# the README's limitations).  They are counted and listed as failures, but do
# not mark the run incorrect.
KNOWN_DEFECTS = {"lemma1": {"moments"}, "balayage": {"origin", "interior", "exterior"}}


@dataclass(frozen=True)
class Case:
    name: str
    kind: str
    params: tuple  # (key, value) pairs of strings and ints

    @property
    def p(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    margin_digits: float | None = None
    known_defect: bool = False


def _fixed(rng, lo: int, hi: int) -> str:
    """A decimal in [lo/1000, hi/1000] with three digits after the point."""
    return f"{rng.randint(lo, hi) / 1000:.3f}"


def make_cases(workload: str, seed: int) -> list:
    """The case list of one pass; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "schedule-experiments":
        c = _fixed(rng, 1, 500)
        rate = _fixed(rng, 200, 1000)
        return [
            Case("fig2", "experiment", (("fig", 2),)),
            Case("fig3", "experiment", (("fig", 3),)),
            Case(
                f"generic c={c} n={SCHEDULE_N}",
                "experiment",
                (("schedule", "generic"), ("c", c), ("n", SCHEDULE_N)),
            ),
            Case(
                f"exponential rate={rate} n={SCHEDULE_N}",
                "experiment",
                (("schedule", "exponential"), ("rate", rate), ("n", SCHEDULE_N)),
            ),
            Case(
                f"superexponential n={SUPEREXP_N}",
                "experiment",
                (("schedule", "superexponential"), ("n", SUPEREXP_N)),
            ),
        ]
    if workload == "identity-suites":
        # r = 0 runs at the acceptance tests' M = 4096; the seeded rows share
        # the other two sizes in seeded order, so a pass traces 7168 nodes.
        # Seeded r stays in [0.02, 1.2]: above 1.2 criterion 2's interior
        # points come within 0.05 of the curve, and below about 0.013 the
        # corner defect of the r = 0 row already fails criterion 1 at M = 1024.
        levels = ["0", _fixed(rng, 20, 1200), _fixed(rng, 20, 1200)]
        sizes = [IDENTITY_M[-1]] + rng.sample(IDENTITY_M[:-1], 2)
        cases = []
        for r, m in zip(levels, sizes):
            params = (("r", r), ("M", m))
            cases.append(Case(f"lemma1 r={r} M={m}", "lemma1", params))
            cases.append(Case(f"balayage r={r} M={m}", "balayage", params))
        cases.append(Case("laguerre-identities", "laguerre", ()))
        for _ in range(3):
            n = rng.randint(0, 5)
            alpha = _fixed(rng, -5000, 1000)
            beta = f"{float(alpha) + rng.randint(200, 2500) / 1000:.3f}"
            x = _fixed(rng, 0, 2000)
            params = (("n", n), ("alpha", alpha), ("beta", beta), ("x", x))
            name = f"askey n={n} alpha={alpha} beta={beta} x={x}"
            cases.append(Case(name, "askey", params))
        return cases
    if workload == "robin-energy":
        r = _fixed(rng, 1, 1500)
        return [
            Case(f"energy r={r} M={ENERGY_M}", "energy", (("r", r), ("M", ENERGY_M))),
            Case(
                f"leja r={r} N={LEJA_N} grid={LEJA_GRID}",
                "leja",
                (("r", r), ("N", LEJA_N), ("grid", LEJA_GRID)),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# running a case (timed) and checking its output (untimed)


def run_case(case: Case, workdir: Path, shared: dict):
    """Run one case and return its output; raises whatever the program raises.

    ``shared`` carries outputs between the cases of one pass (the lemma-1
    curve that the balayage check measures its distance guard against).
    """
    p = case.p
    if case.kind == "experiment":
        argv = ["experiment", "--out-dir", str(workdir)]
        for key in ("fig", "schedule", "c", "rate", "n"):
            if key in p:
                argv += [f"--{key}", str(p[key])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"szegolab exited {code}: {err.getvalue().strip()}")
        return workdir
    if case.kind == "lemma1":
        r, m = precision.ap_real(p["r"], SUITE_PREC), p["M"]
        # A repeat of this case must not hold two curves at once, or peak
        # memory would depend on how many repeats fit in the run.
        shared.pop(("curve", p["r"], m), None)
        curve = szego.trace_level_curve(r, m, SUITE_PREC)
        density = potential.pullback_density(curve)
        with precision.workprec(SUITE_PREC):
            w = mpf(1) / m
        mu = measures.DiscreteMeasure(points=curve.points, weights=(w,) * m)
        moments = potential.harmonic_moments(mu, 6, SUITE_PREC)
        shared[("curve", p["r"], m)] = curve
        return mu, density, moments
    if case.kind == "balayage":
        r = precision.ap_real(p["r"], SUITE_PREC)
        x0, x_neg = szego.real_crossings(r, SUITE_PREC)
        with precision.workprec(SUITE_PREC):
            interior = (mpc(x0 / 2), mpc(x_neg / 2))
            exterior = (mpc(2), mpc(3), mpc(-2), mpc(0, mpf("1.5")))
        return potential.verify_balayage(r, p["M"], interior, exterior, SUITE_PREC)
    if case.kind == "laguerre":
        return cli.suite_laguerre(256)
    if case.kind == "askey":
        return laguerre.askey_check(
            p["n"],
            precision.ap_real(p["alpha"], SUITE_PREC),
            precision.ap_real(p["beta"], SUITE_PREC),
            precision.ap_real(p["x"], SUITE_PREC),
        )
    if case.kind == "energy":
        mu = potential.discretize_mu_r(precision.ap_real(p["r"], SUITE_PREC), p["M"], SUITE_PREC)
        return potential.weighted_energy(mu, precision_bits=SUITE_PREC)
    if case.kind == "leja":
        r = precision.ap_real(p["r"], SUITE_PREC)
        return potential.weighted_leja(r, p["N"], p["grid"], SUITE_PREC)
    raise ValueError(f"unknown case kind {case.kind!r}")


# The checks of each case kind, so that an exception fails each of them.
CHECK_NAMES = {
    "experiment": ("artifacts", "residual", "vieta-mean", "report-finite"),
    "lemma1": ("mass", "density", "moments"),
    "balayage": ("distance-guard", "origin", "interior", "exterior"),
    "laguerre": ("degenerate-identity", "partial-sum", "oracle-agreement"),
    "askey": ("askey",),
    "energy": ("energy",),
    "leja": ("leja-robin",),
}


def _tol_check(name, err, tol, bits, defects=()) -> Check:
    """err <= tol, with margin log10(tol/err); an exact zero counts as 2^-bits."""
    with precision.workprec(max(bits, 64) + 16):
        floor = mpf(2) ** -bits
        margin = float(mp.log10(tol / max(err, floor)))
        passed = bool(err <= tol)
        detail = f"|error| = {mp.nstr(err, 4)} (tol {mp.nstr(tol, 3)})"
    return Check(name, passed, detail, margin, name in defects and not passed)


def failed_checks(case: Case, reason: str) -> list:
    return [Check(name, False, reason) for name in CHECK_NAMES[case.kind]]


def experiment_spec(case: Case):
    """(label, n, alpha, bits) exactly as `szegolab experiment` resolves them."""
    p = case.p
    if "fig" in p:
        alpha_text = "-60.1" if p["fig"] == 2 else "-59.99999"
        return f"fig{p['fig']}", 60, precision.ap_real(alpha_text, FIG_PREC), FIG_PREC
    kwargs = {}
    if "c" in p:
        kwargs["c"] = precision.ap_real(p["c"], 192)
    if "rate" in p:
        kwargs["r"] = precision.ap_real(p["rate"], 192)
    sched = asymptotics.make_schedule(p["schedule"], **kwargs)
    n = p["n"]
    return f"{p['schedule']}_n{n}", n, sched.alpha_at(n), sched.precision_bits(n)


def artifact_paths(case: Case, workdir: Path) -> list:
    label = experiment_spec(case)[0]
    return [workdir / f"{label}_{s}" for s in ("zeros.csv", "curve.csv", "report.json")]


def artifact_digest(case: Case, workdir: Path) -> str:
    h = hashlib.sha256()
    for path in artifact_paths(case, workdir):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_experiment(case: Case, workdir: Path) -> list:
    label, n, alpha, bits = experiment_spec(case)
    paths = artifact_paths(case, workdir)
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return [Check("artifacts", False, f"missing {missing}")] + [
            Check(name, False, "no artifacts") for name in CHECK_NAMES["experiment"][1:]
        ]
    rows = paths[0].read_text(encoding="utf-8").splitlines()[1:]
    checks = [Check("artifacts", len(rows) == n, f"{len(rows)} zeros for n = {n}")]
    with precision.workprec(bits + 64):
        zeros, residuals = [], []
        for row in rows:
            re, im, res = row.split(",")
            zeros.append(mpc(mpf(re), mpf(im)))
            residuals.append(mpf(res))
        checks.append(
            _tol_check("residual", max(residuals), mpf(2) ** -(bits // 2), bits)
        )
        target = (n + alpha) / n
        rel = abs(mp.fsum(zeros) / n - target) / abs(target)
        checks.append(_tol_check("vieta-mean", rel, mpf(2) ** -(bits // 4), bits))
    report = json.loads(paths[2].read_text(encoding="utf-8"))
    values = [report[k] for k in report if k not in ("n", "moment_gaps")]
    values += report["moment_gaps"]
    finite = all(mp.isfinite(mpf(v)) for v in values)
    checks.append(Check("report-finite", finite, f"{len(values)} report numbers"))
    return checks


def check_case(case: Case, output, shared: dict) -> list:
    p = case.p
    defects = KNOWN_DEFECTS.get(case.kind, set()) if p.get("r") == "0" else set()
    if case.kind == "experiment":
        return _check_experiment(case, output)
    if case.kind == "lemma1":
        mu, density, moments = output
        with precision.workprec(SUITE_PREC):
            mass_err = abs(mu.total_mass() - 1)
            worst = max(abs(m - (1 if k == 0 else 0)) for k, m in enumerate(moments))
        min_density = min(density)
        return [
            _tol_check("mass", mass_err, mpf("1e-12"), SUITE_PREC, defects),
            Check("density", bool(min_density >= 0), f"min = {mp.nstr(min_density, 4)}"),
            _tol_check("moments", worst, mpf("1e-10"), SUITE_PREC, defects),
        ]
    if case.kind == "balayage":
        report = output
        curve = shared.get(("curve", p["r"], p["M"]))
        if curve is None:
            guard = Check("distance-guard", False, "lemma-1 curve of this row missing")
        else:
            with precision.workprec(SUITE_PREC):
                interior = [c.point for c in report.checks if c.identity.startswith("interior")]
                dist = min(abs(q - z) for q in interior for z in curve.points)
            guard = Check("distance-guard", bool(dist >= mpf("0.05")), f"{mp.nstr(dist, 4)}")
        checks = [guard]
        for prefix, tol in (("origin", "1e-10"), ("interior", "1e-8"), ("exterior", "1e-8")):
            checks.append(
                _tol_check(prefix, report.worst(prefix), mpf(tol), SUITE_PREC, defects)
            )
        return checks
    if case.kind == "laguerre":
        return [Check(c.name, c.passed, c.detail) for c in output]
    if case.kind == "askey":
        bits = max(SUITE_PREC, precision.default_precision(max(p["n"], 1)))
        return [_tol_check("askey", output.abs_error, mpf("1e-6"), bits)]
    if case.kind == "energy":
        with precision.workprec(SUITE_PREC + 16):
            r = precision.ap_real(p["r"], SUITE_PREC)
            err = abs(output.robin - (r + 1) / 2)
        return [_tol_check("energy", err, mpf("0.03"), SUITE_PREC)]
    if case.kind == "leja":
        with precision.workprec(SUITE_PREC + 16):
            r = precision.ap_real(p["r"], SUITE_PREC)
            target = (r + 1) / 2
            rel = abs(output.robin_estimate - target) / target
        return [_tol_check("leja-robin", rel, mpf("0.05"), SUITE_PREC)]
    raise ValueError(f"unknown case kind {case.kind!r}")
