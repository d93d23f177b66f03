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
    ap_complex,
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
# options: explicit flag > config file > environment > default


@dataclass(frozen=True)
class _Option:
    help: str
    default: object = None
    choices: tuple = None
    repeat: bool = False  # a repeatable flag; its value is a list


# Each flag once; a command's config keys are its flag names.  Defaults that
# differ by command (precision, verify's r, grid = 16 * count) live in the
# handlers.
_OPTIONS = {
    "n": _Option("polynomial degree"),
    "alpha": _Option("Laguerre parameter (decimal string)"),
    "tol": _Option("root residual tolerance"),
    "suite": _Option("suite name", choices=SUITES),
    "fig": _Option("figure number: 2 or 3"),
    "schedule": _Option("generic | exponential | superexponential"),
    "r": _Option("level, r >= 0; measure takes inf for the point mass at 0, "
                 "verify defaults to 1"),
    "c": _Option("offset for the generic schedule, 0 < c <= 1/2"),
    "rate": _Option("rate for the exponential schedule, > 0"),
    "nodes": _Option("node count M of Gamma_r, even and >= 16", 512),
    "at": _Option("evaluation point, e.g. 2, -0.3, or 0.1+0.2j; repeatable", "0",
                  repeat=True),
    "count": _Option("number of Leja points", 128),
    "grid": _Option("Leja candidate grid size (default 16*count)"),
    "out": _Option("output CSV path (default: stdout; leja: no CSV)"),
    "out-dir": _Option("output directory", "."),
    "precision": _Option(f"working precision in bits, >= 64 (env {ENV_PRECISION})"),
    "config": _Option("flat key=value file supplying defaults for any flag"),
}


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
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        if key not in _OPTIONS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _as_int(name, value):
    if value is None or isinstance(value, int):
        return value
    try:
        return int(str(value), 10)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _precision(ns, default):
    """The resolved precision, or the command's own default if none was set."""
    if ns.precision is None:
        return default
    return check_precision(_as_int("precision", ns.precision))


def _nodes(ns) -> int:
    nodes = _as_int("nodes", ns.nodes)
    check_node_count(nodes)
    return nodes


def _level_inputs(ns):
    """(r, nodes, precision) for the commands that discretize Gamma_r."""
    if ns.r is None:
        raise ConfigurationError(f"{ns.command} requires --r")
    precision = _precision(ns, 192)
    nodes = _nodes(ns)
    return ap_real(ns.r, precision), nodes, precision


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


def cmd_zeros(ns) -> int:
    n, alpha_text = _as_int("n", ns.n), ns.alpha
    if n is None or alpha_text is None:
        raise ConfigurationError("zeros requires --n and --alpha")
    # Parse alpha with every significant digit resolved, so that a literal
    # near S_n keeps its distance from the set.
    mantissa = str(alpha_text).lower().split("e")[0].lstrip("+-0.")
    digits = sum(ch.isdigit() for ch in mantissa)
    bits = max(320, math.ceil(digits * math.log2(10)) + 64)
    exact = ap_real(alpha_text, bits)
    precision = _precision(ns, None) or recommended_precision(n, exact)
    alpha = ap_real(alpha_text, precision)
    if alpha != exact and mp.isint(alpha) and -n <= alpha <= -1:
        raise ConfigurationError(
            f"alpha = {alpha_text} rounds onto S_{n} at {precision} bits; "
            "raise --precision or omit it"
        )
    tol = None if ns.tol is None else ap_real(ns.tol, precision)
    zs = contracted_zeros(n, alpha, precision, tol)
    rows = ((z.real, z.imag, res) for z, res in zip(zs.zeros, zs.residuals))
    _emit(
        csv_table("re,im,residual", rows, precision),
        ns.out,
        f"wrote {len(zs.zeros)} zeros to {ns.out} (origin multiplicity "
        f"{zs.origin_multiplicity})",
    )
    return 0


def cmd_curve(ns) -> int:
    r, nodes, precision = _level_inputs(ns)
    curve = trace_level_curve(r, nodes, precision)
    rows = ((theta, z.real, z.imag) for theta, z in curve.samples)
    _emit(
        csv_table("theta,re,im", rows, precision),
        ns.out,
        f"wrote {len(curve.samples)} nodes to {ns.out} (max residual "
        f"{mp.nstr(curve.max_residual, 4)})",
    )
    return 0


def cmd_measure(ns) -> int:
    r, nodes, precision = _level_inputs(ns)
    mu = discretize_mu_r(r, nodes, precision)
    rows = ((x.real, x.imag, w) for x, w in zip(mu.points, mu.weights))
    _emit(
        csv_table("re,im,weight", rows, precision),
        ns.out,
        f"wrote {len(mu.points)} support points to {ns.out}",
    )
    return 0


def cmd_potential(ns) -> int:
    r, nodes, prec = _level_inputs(ns)
    points = [ap_complex(text, prec) for text in ns.at]
    mu = discretize_mu_r(r, nodes, prec)
    rows = [(p.real, p.imag, log_potential(mu, p, prec)) for p in points]
    _emit(
        csv_table("re,im,potential", rows, prec),
        ns.out,
        f"wrote {len(points)} evaluations to {ns.out}",
    )
    return 0


def cmd_verify(ns) -> int:
    if ns.suite is None:
        raise ConfigurationError("verify requires --suite")
    precision = _precision(ns, 256 if ns.suite == "laguerre-identities" else 192)
    count = _as_int("count", ns.count)
    grid = _as_int("grid", 16 * count if ns.grid is None else ns.grid)
    nodes = _nodes(ns)
    r = ap_real("1" if ns.r is None else ns.r, precision)
    checks = run_suite(ns.suite, r, nodes, precision, count, grid)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_leja(ns) -> int:
    if ns.r is None:
        raise ConfigurationError("leja requires --r")
    precision = _precision(ns, 128)
    count = _as_int("count", ns.count)
    grid = _as_int("grid", 16 * count if ns.grid is None else ns.grid)
    r = ap_real(ns.r, precision)
    result = weighted_leja(r, count, grid, precision)
    target, rel = result.robin_gap(r, precision)
    print(
        f"robin estimate = {format_real(result.robin_estimate, precision)} "
        f"(target {format_real(target, precision)}, relative gap {mp.nstr(rel, 4)})"
    )
    if ns.out is not None:
        mu = result.measure
        rows = ((x.real, x.imag, w) for x, w in zip(mu.points, mu.weights))
        write_text_atomic(ns.out, csv_table("re,im,weight", rows, precision))
        print(f"wrote {count} Leja points to {ns.out}")
    return 0


def cmd_experiment(ns) -> int:
    if (ns.fig is None) == (ns.schedule is None):
        raise ConfigurationError("experiment requires exactly one of --fig, --schedule")
    nodes = _nodes(ns)

    if ns.fig is not None:
        fig = _as_int("fig", ns.fig)
        if fig not in (2, 3):
            raise ConfigurationError(f"--fig must be 2 or 3, got {fig}")
        precision = _precision(ns, 512)
        n = 60
        alpha = ap_real("-60.1" if fig == 2 else "-59.99999", precision)
        label = f"fig{fig}"
    else:
        n = _as_int("n", ns.n)
        if n is None:
            raise ConfigurationError("experiment --schedule requires --n")
        sched = make_schedule(
            ns.schedule,
            c=None if ns.c is None else ap_real(ns.c, 192),
            r=None if ns.rate is None else ap_real(ns.rate, 192),
        )
        precision = _precision(ns, None) or sched.precision_bits(n)
        alpha = sched.alpha_at(n)
        label = f"{ns.schedule}_n{n}"

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
        path = Path(ns.out_dir) / name
        write_text_atomic(path, text)
        print(f"wrote {path}")
    print(f"r_eff = {format_real(report.r_eff, precision)}")
    print(f"level median = {format_real(median, precision)}")
    return 0


# command: (help, handler, its own options); every command also takes
# --precision and --config
_COMMANDS = {
    "zeros": ("contracted zeros of L_n^(alpha)(n z)", cmd_zeros,
              ("n", "alpha", "tol", "out")),
    "curve": ("trace the level curve Gamma_r", cmd_curve, ("r", "nodes", "out")),
    "measure": ("discretize the balayage measure mu_r", cmd_measure,
                ("r", "nodes", "out")),
    "potential": ("logarithmic potential of mu_r", cmd_potential,
                  ("r", "nodes", "at", "out")),
    "verify": ("run a verification suite", cmd_verify,
               ("suite", "r", "nodes", "count", "grid")),
    "leja": ("weighted Leja points on Gamma_r", cmd_leja,
             ("r", "count", "grid", "out")),
    "experiment": ("figure reproductions and schedule runs", cmd_experiment,
                   ("fig", "schedule", "n", "c", "rate", "nodes", "out-dir")),
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
    for command, (help_text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*names, "precision", "config"):
            opt = _OPTIONS[name]
            default = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument(
                f"--{name}",
                help=opt.help + default,
                choices=opt.choices,
                action="append" if opt.repeat else "store",
            )
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
        conf = _load_config(ns.config) if ns.config else {}
        _, handler, names = _COMMANDS[ns.command]
        for name in (*names, "precision"):
            opt = _OPTIONS[name]
            dest = name.replace("-", "_")
            if getattr(ns, dest) is None:
                env = os.environ.get(ENV_PRECISION) if name == "precision" else None
                value = conf.get(name, env)
                value = opt.default if value is None else value
                setattr(ns, dest, [value] if opt.repeat else value)
        return handler(ns)
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
