"""Command-line front end.

Subcommands drive every computation in the package and write CSV/JSON
artifacts.  Numeric output is decimal with ceil(0.301 * bits) + 2 digits so
files round-trip the underlying binary values, and identical invocations
produce byte-identical files.

Exit codes: 0 success, 1 computational failure (non-convergence, trace
failure, I/O), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpc, mpf

from .asymptotics import level_median, make_schedule, zero_distribution_report
from .errors import ConfigurationError, SzegolabError
from .laguerre import LaguerreSpec, coefficients, evaluate, recommended_precision
from .measures import log_potential
from .potential import (
    discretize_mu_r,
    graded_mu_r,
    harmonic_moments,
    pullback_density,
    verify_balayage,
    weighted_energy,
    weighted_leja,
)
from .precision import (
    ap_real,
    check_precision,
    format_real,
    op_precision,
    workprec,
)
from .rootfinding import contracted_zeros
from .szego import check_node_count, real_crossings, trace_level_curve

ENV_PRECISION = "SZEGO_PRECISION_BITS"

SUITES = ("lemma1", "balayage", "robin", "laguerre-identities")


# ---------------------------------------------------------------------------
# option resolution: explicit flag > config file > environment > default


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        values[key.strip()] = value.strip()
    return values


def _resolve(ns, conf, name, default=None):
    value = getattr(ns, name.replace("-", "_"), None)
    if value is None:
        value = conf.get(name)
    if value is None:
        value = default
    return value


def _as_int(name, value):
    if value is None or isinstance(value, int):
        return value
    try:
        return int(str(value), 10)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _as_mpf(name, value, precision_bits):
    try:
        return ap_real(str(value), precision_bits)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}"
        ) from None


def _as_mpc(name, value, precision_bits):
    try:
        with workprec(precision_bits):
            return mpc(mp.mpmathify(str(value).strip()))
    except (ValueError, TypeError):
        raise ConfigurationError(
            f"{name} must be a real or complex number, got {value!r}"
        ) from None


def _resolve_precision(ns, conf, default=192):
    value = _resolve(ns, conf, "precision")
    if value is None:
        env = os.environ.get(ENV_PRECISION)
        if env is not None:
            value = env
    if value is None:
        return default
    return check_precision(_as_int("precision", value))


def _resolve_nodes(ns, conf) -> int:
    nodes = _as_int("nodes", _resolve(ns, conf, "nodes", 512))
    check_node_count(nodes)
    return nodes


def _level_inputs(ns, conf):
    """(r, nodes, precision) for the commands that discretize Gamma_r."""
    r_text = _resolve(ns, conf, "r")
    if r_text is None:
        raise ConfigurationError(f"{ns.command} requires --r")
    precision = _resolve_precision(ns, conf)
    nodes = _resolve_nodes(ns, conf)
    return _as_mpf("r", r_text, precision), nodes, precision


# ---------------------------------------------------------------------------
# output formatting


def write_text_atomic(path, text: str) -> None:
    """Write text to path atomically (temporary file, then rename)."""
    path = Path(path)
    if str(path.parent) and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_table(header: str, rows, precision_bits: int) -> str:
    """A CSV table: the header line, then one line of reals per row."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format_real(x, precision_bits) for x in row))
    return "\n".join(lines) + "\n"


def report_json(report, precision_bits: int) -> str:
    def fmt(x):
        return format_real(x, precision_bits)

    payload = {
        "n": report.n,
        "alpha": fmt(report.alpha),
        "r_eff": fmt(report.r_eff),
        "level_deviation": fmt(report.level_deviation),
        "ks_theta": fmt(report.ks_theta),
        "moment_gaps": [fmt(g) for g in report.moment_gaps],
        "supnorm_gap": fmt(report.supnorm_gap),
        "origin_gap": fmt(report.origin_gap),
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text, out, summary=None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)
        if summary:
            print(summary)


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str


def suite_lemma1(r, M: int, precision_bits: int) -> list:
    """Mass, density positivity, and harmonic moments of the discretized mu_r.

    The measure is the corner-graded graded_mu_r, whose moment error decays
    like M^(-9/2) at the r = 0 corner (about 1e-16 at M = 4096) and
    spectrally for r > 0; the density check reuses its curve nodes.  With
    few nodes the r = 0 moments still miss 1e-10 (5e-8 at M = 64).
    """
    curve, mu = graded_mu_r(r, M, precision_bits)
    density = pullback_density(curve)
    checks = []
    with workprec(op_precision(precision_bits, *mu.weights)):
        mass_err = abs(mu.total_mass() - 1)
    checks.append(
        SuiteCheck(
            "mass", mass_err <= mpf("1e-12"), f"|mass - 1| = {mp.nstr(mass_err, 6)}"
        )
    )
    min_density = min(density)
    checks.append(
        SuiteCheck(
            "density", min_density >= 0, f"min density = {mp.nstr(min_density, 6)}"
        )
    )
    moments = harmonic_moments(mu, 6, precision_bits)
    with workprec(op_precision(precision_bits, *moments)):
        worst = max(abs(m - (1 if k == 0 else 0)) for k, m in enumerate(moments))
    checks.append(
        SuiteCheck(
            "moments",
            worst <= mpf("1e-10"),
            f"max |m_k - delta_k0| over k <= 6 = {mp.nstr(worst, 6)}",
        )
    )
    return checks


def suite_balayage(r, M: int, precision_bits: int) -> list:
    """Potential identities at the origin and at interior/exterior points.

    The on-curve field identity is checked at normal offsets proportional to
    the node spacing, so its tolerance scales like 1/M.
    """
    x0, x_neg = real_crossings(r, precision_bits)
    with workprec(precision_bits):
        interior = (mpc(x0 / 2), mpc(x_neg / 2))
        exterior = (mpc(2), mpc(3), mpc(-2), mpc(0, mpf("1.5")))
        field_tol = mpf(40) / M
    report = verify_balayage(r, M, interior, exterior, precision_bits)
    tolerances = (
        ("origin", mpf("1e-10")),
        ("interior", mpf("1e-8")),
        ("exterior", mpf("1e-8")),
        ("field", field_tol),
    )
    checks = []
    for prefix, tol in tolerances:
        err = report.worst(prefix)
        checks.append(
            SuiteCheck(
                prefix,
                err <= tol,
                f"worst |error| = {mp.nstr(err, 6)} (tol {mp.nstr(tol, 4)})",
            )
        )
    return checks


def suite_robin(r, M: int, precision_bits: int, count: int, grid: int) -> list:
    """Discrete weighted energy and the Leja estimate of the Robin constant.

    The energy tolerance 0.03 absorbs the diagonal-exclusion bias of the
    M-point energy sum at the default M = 512; the bias shrinks as M grows.
    """
    checks = []
    mu = discretize_mu_r(r, M, precision_bits)
    energy = weighted_energy(mu, precision_bits=precision_bits)
    with workprec(op_precision(precision_bits, energy.robin, r)):
        target = (r + 1) / 2
        err = abs(energy.robin - target)
    checks.append(
        SuiteCheck(
            "energy",
            err <= mpf("0.03"),
            f"|F_hat - (r+1)/2| = {mp.nstr(err, 6)} at M = {M}",
        )
    )
    _, rel = weighted_leja(r, count, grid, precision_bits).robin_gap(r, precision_bits)
    checks.append(
        SuiteCheck(
            "leja-robin",
            rel <= mpf("0.05"),
            f"relative gap = {mp.nstr(rel, 6)} at N = {count}",
        )
    )
    return checks


def suite_laguerre(precision_bits: int) -> list:
    """Degenerate-parameter identity, partial-sum coefficients, and the
    recurrence-versus-coefficient evaluation oracle."""
    checks = []
    with workprec(precision_bits):
        pts = (mpf("0.7"), mpf("-1.3"), mpf("2.2"), mpc(mpf("0.4"), mpf("0.9")))

    worst = mpf(0)
    with workprec(precision_bits):
        for n in range(1, 11):
            for k in range(1, n + 1):
                ratio = mp.factorial(n - k) / mp.factorial(n)
                for z in pts:
                    lhs = evaluate(LaguerreSpec(n, -k, 1), z, precision_bits)
                    # k = n drops the degree to zero, where L_0 is the
                    # constant 1.
                    low = (
                        mpf(1)
                        if k == n
                        else evaluate(LaguerreSpec(n - k, k, 1), z, precision_bits)
                    )
                    rhs = (-z) ** k * ratio * low
                    worst = max(worst, abs(lhs - rhs))
    checks.append(
        SuiteCheck(
            "degenerate-identity",
            worst < mpf("1e-20"),
            f"max residual = {mp.nstr(worst, 6)} over 1 <= k <= n <= 10",
        )
    )

    exact = True
    mismatch = ""
    with workprec(precision_bits):
        for n in range(1, 21):
            coeff = coefficients(LaguerreSpec(n, -(n + 1), 1), precision_bits)
            sign = mpf(1) if n % 2 == 0 else mpf(-1)
            fact = mpf(1)
            for k, c in enumerate(coeff.coeffs):
                if k > 0:
                    fact *= k
                if c != sign / fact:
                    exact = False
                    mismatch = f"first mismatch at n = {n}, k = {k}"
                    break
            if not exact:
                break
    checks.append(
        SuiteCheck(
            "partial-sum",
            exact,
            mismatch or "coefficients equal (-1)^n / k! exactly for n <= 20",
        )
    )

    worst_rel = mpf(0)
    cases = ((5, "0.5"), (12, "-3.25"), (25, "7.0"))
    with workprec(precision_bits + 32):
        for n, alpha_text in cases:
            spec = LaguerreSpec(n, ap_real(alpha_text, precision_bits), 1)
            coeff = coefficients(spec, precision_bits)
            for z in pts:
                direct = mp.polyval(list(reversed(coeff.coeffs)), z)
                rec = evaluate(spec, z, precision_bits)
                scale = max(mpf(1), abs(rec))
                worst_rel = max(worst_rel, abs(direct - rec) / scale)
    tol = mpf(2) ** -(precision_bits // 2)
    checks.append(
        SuiteCheck(
            "oracle-agreement",
            worst_rel <= tol,
            f"max relative gap = {mp.nstr(worst_rel, 6)} (tol {mp.nstr(tol, 4)})",
        )
    )
    return checks


def run_suite(suite: str, r, M: int, precision_bits: int, count: int, grid: int):
    if suite == "lemma1":
        return suite_lemma1(r, M, precision_bits)
    if suite == "balayage":
        return suite_balayage(r, M, precision_bits)
    if suite == "robin":
        return suite_robin(r, M, precision_bits, count, grid)
    if suite == "laguerre-identities":
        return suite_laguerre(precision_bits)
    raise ConfigurationError(f"unknown suite {suite!r}; expected one of {SUITES}")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_zeros(ns, conf) -> int:
    n = _as_int("n", _resolve(ns, conf, "n"))
    alpha_text = _resolve(ns, conf, "alpha")
    if n is None or alpha_text is None:
        raise ConfigurationError("zeros requires --n and --alpha")
    # Parse alpha with every significant digit resolved, so that a literal
    # near S_n keeps its distance from the set.
    mantissa = str(alpha_text).lower().split("e")[0].lstrip("+-0.")
    digits = sum(ch.isdigit() for ch in mantissa)
    bits = max(320, math.ceil(digits * math.log2(10)) + 64)
    exact = _as_mpf("alpha", alpha_text, bits)
    precision = _resolve_precision(ns, conf, default=None)
    if precision is None:
        precision = recommended_precision(n, exact)
    alpha = _as_mpf("alpha", alpha_text, precision)
    if alpha != exact and mp.isint(alpha) and -n <= alpha <= -1:
        raise ConfigurationError(
            f"alpha = {alpha_text} rounds onto S_{n} at {precision} bits; "
            "raise --precision or omit it"
        )
    tol_text = _resolve(ns, conf, "tol")
    tol = None if tol_text is None else _as_mpf("tol", tol_text, precision)
    zs = contracted_zeros(n, alpha, precision, tol)
    rows = ((z.real, z.imag, res) for z, res in zip(zs.zeros, zs.residuals))
    out = _resolve(ns, conf, "out")
    _emit(
        csv_table("re,im,residual", rows, precision),
        out,
        f"wrote {len(zs.zeros)} zeros to {out} (origin multiplicity "
        f"{zs.origin_multiplicity})",
    )
    return 0


def cmd_curve(ns, conf) -> int:
    r, nodes, precision = _level_inputs(ns, conf)
    curve = trace_level_curve(r, nodes, precision)
    rows = ((theta, z.real, z.imag) for theta, z in curve.samples)
    out = _resolve(ns, conf, "out")
    _emit(
        csv_table("theta,re,im", rows, precision),
        out,
        f"wrote {len(curve.samples)} nodes to {out} (max residual "
        f"{mp.nstr(curve.max_residual, 4)})",
    )
    return 0


def cmd_measure(ns, conf) -> int:
    r, nodes, precision = _level_inputs(ns, conf)
    mu = discretize_mu_r(r, nodes, precision)
    rows = ((x.real, x.imag, w) for x, w in zip(mu.points, mu.weights))
    out = _resolve(ns, conf, "out")
    _emit(
        csv_table("re,im,weight", rows, precision),
        out,
        f"wrote {len(mu.points)} support points to {out}",
    )
    return 0


def cmd_potential(ns, conf) -> int:
    r, nodes, prec = _level_inputs(ns, conf)
    at_values = getattr(ns, "at", None) or []
    if not at_values and conf.get("at") is not None:
        at_values = [conf["at"]]
    if not at_values:
        at_values = ["0"]
    points = [_as_mpc("at", text, prec) for text in at_values]
    mu = discretize_mu_r(r, nodes, prec)
    rows = [(p.real, p.imag, log_potential(mu, p, prec)) for p in points]
    out = _resolve(ns, conf, "out")
    _emit(
        csv_table("re,im,potential", rows, prec),
        out,
        f"wrote {len(points)} evaluations to {out}",
    )
    return 0


def cmd_verify(ns, conf) -> int:
    suite = _resolve(ns, conf, "suite")
    if suite is None:
        raise ConfigurationError("verify requires --suite")
    default_prec = 256 if suite == "laguerre-identities" else 192
    precision = _resolve_precision(ns, conf, default=default_prec)
    count = _as_int("count", _resolve(ns, conf, "count", 128))
    grid = _as_int("grid", _resolve(ns, conf, "grid", 16 * count))
    nodes = _resolve_nodes(ns, conf)
    r = _as_mpf("r", _resolve(ns, conf, "r", "1"), precision)
    checks = run_suite(suite, r, nodes, precision, count, grid)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_leja(ns, conf) -> int:
    r_text = _resolve(ns, conf, "r")
    if r_text is None:
        raise ConfigurationError("leja requires --r")
    precision = _resolve_precision(ns, conf, default=128)
    count = _as_int("count", _resolve(ns, conf, "count", 128))
    grid = _as_int("grid", _resolve(ns, conf, "grid", 16 * count))
    r = _as_mpf("r", r_text, precision)
    result = weighted_leja(r, count, grid, precision)
    target, rel = result.robin_gap(r, precision)
    print(
        f"robin estimate = {format_real(result.robin_estimate, precision)} "
        f"(target {format_real(target, precision)}, relative gap {mp.nstr(rel, 4)})"
    )
    out = _resolve(ns, conf, "out")
    if out is not None:
        mu = result.measure
        rows = ((x.real, x.imag, w) for x, w in zip(mu.points, mu.weights))
        write_text_atomic(out, csv_table("re,im,weight", rows, precision))
        print(f"wrote {count} Leja points to {out}")
    return 0


def cmd_experiment(ns, conf) -> int:
    fig = _resolve(ns, conf, "fig")
    schedule = _resolve(ns, conf, "schedule")
    if (fig is None) == (schedule is None):
        raise ConfigurationError("experiment requires exactly one of --fig, --schedule")
    nodes = _resolve_nodes(ns, conf)
    out_dir = Path(_resolve(ns, conf, "out-dir", "."))

    if fig is not None:
        fig = _as_int("fig", fig)
        if fig not in (2, 3):
            raise ConfigurationError(f"--fig must be 2 or 3, got {fig}")
        precision = _resolve_precision(ns, conf, default=512)
        n = 60
        alpha = ap_real("-60.1" if fig == 2 else "-59.99999", precision)
        label = f"fig{fig}"
    else:
        if schedule not in ("generic", "exponential", "superexponential"):
            raise ConfigurationError(f"unknown schedule {schedule!r}")
        n = _as_int("n", _resolve(ns, conf, "n"))
        if n is None:
            raise ConfigurationError("experiment --schedule requires --n")
        kwargs = {}
        c_text = _resolve(ns, conf, "c")
        rate_text = _resolve(ns, conf, "rate")
        if c_text is not None:
            kwargs["c"] = _as_mpf("c", c_text, 192)
        if rate_text is not None:
            kwargs["r"] = _as_mpf("rate", rate_text, 192)
        sched = make_schedule(schedule, **kwargs)
        precision = _resolve_precision(ns, conf, default=None)
        if precision is None:
            precision = sched.precision_bits(n)
        alpha = sched.alpha_at(n)
        label = f"{schedule}_n{n}"

    report = zero_distribution_report(n, alpha, M_curve=nodes, precision_bits=precision)
    median = level_median(report.zeros, precision)

    zs = report.zeros
    zero_rows = ((z.real, z.imag, res) for z, res in zip(zs.zeros, zs.residuals))
    curve_rows = ((theta, z.real, z.imag) for theta, z in report.curve.samples)
    outputs = (
        (f"{label}_zeros.csv", csv_table("re,im,residual", zero_rows, precision)),
        (f"{label}_curve.csv", csv_table("theta,re,im", curve_rows, precision)),
        (f"{label}_report.json", report_json(report, precision)),
    )
    for name, text in outputs:
        path = out_dir / name
        write_text_atomic(path, text)
        print(f"wrote {path}")
    print(f"r_eff = {format_real(report.r_eff, precision)}")
    print(f"level median = {format_real(median, precision)}")
    return 0


_HANDLERS = {
    "zeros": cmd_zeros,
    "curve": cmd_curve,
    "measure": cmd_measure,
    "potential": cmd_potential,
    "verify": cmd_verify,
    "leja": cmd_leja,
    "experiment": cmd_experiment,
}


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegolab",
        description=(
            "Arbitrary-precision laboratory for Laguerre zero asymptotics: "
            "contracted zeros, Szego level curves, balayage measures, and "
            "potential-theory verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument(
            "--precision",
            help=f"working precision in bits, >= 64 (env {ENV_PRECISION})",
        )
        p.add_argument(
            "--config",
            help="flat key=value file supplying defaults for any flag",
        )

    p = sub.add_parser("zeros", help="contracted zeros of L_n^(alpha)(n z)")
    p.add_argument("--n", help="polynomial degree")
    p.add_argument("--alpha", help="Laguerre parameter (decimal string)")
    p.add_argument("--tol", help="root residual tolerance")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    common(p)

    p = sub.add_parser("curve", help="trace the level curve Gamma_r")
    p.add_argument("--r", help="level, r >= 0")
    p.add_argument("--nodes", help="node count M, even and >= 16 (default 512)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    common(p)

    p = sub.add_parser("measure", help="discretize the balayage measure mu_r")
    p.add_argument("--r", help="level, r >= 0, or inf for the point mass at 0")
    p.add_argument("--nodes", help="node count M, even and >= 16 (default 512)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    common(p)

    p = sub.add_parser("potential", help="logarithmic potential of mu_r")
    p.add_argument("--r", help="level, r >= 0")
    p.add_argument("--nodes", help="node count M, even and >= 16 (default 512)")
    p.add_argument(
        "--at",
        action="append",
        help="evaluation point, e.g. 2, -0.3, or 0.1+0.2j (repeatable)",
    )
    p.add_argument("--out", help="output CSV path (default: stdout)")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, help="suite name")
    p.add_argument("--r", help="level for the measure suites (default 1)")
    p.add_argument("--nodes", help="node count M (default 512)")
    p.add_argument("--count", help="Leja point count for the robin suite")
    p.add_argument("--grid", help="Leja candidate grid size (default 16*count)")
    common(p)

    p = sub.add_parser("leja", help="weighted Leja points on Gamma_r")
    p.add_argument("--r", help="level, r >= 0")
    p.add_argument("--count", help="number of Leja points (default 128)")
    p.add_argument("--grid", help="candidate grid size (default 16*count)")
    p.add_argument("--out", help="output CSV path")
    common(p)

    p = sub.add_parser("experiment", help="figure reproductions and schedule runs")
    p.add_argument("--fig", help="figure number: 2 or 3")
    p.add_argument("--schedule", help="generic | exponential | superexponential")
    p.add_argument("--n", help="degree for schedule runs")
    p.add_argument("--c", help="offset for the generic schedule, 0 < c <= 1/2")
    p.add_argument("--rate", help="rate for the exponential schedule, >= 0")
    p.add_argument("--nodes", help="overlay curve nodes (default 512)")
    p.add_argument("--out-dir", help="output directory (default .)")
    common(p)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        conf = _load_config(ns.config) if getattr(ns, "config", None) else {}
        return _HANDLERS[ns.command](ns, conf)
    except ConfigurationError as exc:
        print(f"szegolab: usage error: {exc}", file=sys.stderr)
        return 2
    except SzegolabError as exc:
        print(f"szegolab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"szegolab: i/o error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
