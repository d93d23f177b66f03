"""szegolab benchmark: one command, one process, one caller.

    python3 perfbench/run.py --workload schedule-experiments --seed 1 \
        --seconds 25 --trace 0

Run from a source checkout; the program is imported from ``src/``.  Cases
run in a closed loop: each starts only after the previous one finished.
``--trace 0`` runs the seeded case list once, then keeps running its cases
in the same order while the next one is expected to end within
``--seconds``, and reports the end-to-end metrics from each case slot's
median time.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is one
JSON object; a full record goes to ``.perfbench_out/``.  Program failures
are counted in the result; only a fault of the harness exits nonzero.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

# Spans each workload must record in its traced pass.
EXPECTED_SPANS = {
    "schedule-experiments": (
        "cli.main",
        "cli.write_text_atomic",
        "rootfinding.contracted_zeros",
        "rootfinding.find_roots",
        "laguerre.monic_rescaled",
        "laguerre.evaluate",
        "laguerre.param_decomposition",
        "asymptotics.zero_distribution_report",
        "asymptotics.supnorm_extremality",
        "asymptotics.level_median",
        "asymptotics.ks_uniform_theta",
        "szego.trace_level_curve",
    ),
    "identity-suites": (
        "szego.trace_level_curve",
        "szego.real_crossings",
        "szego.locate",
        "measures.log_potential",
        "potential.pullback_density",
        "potential.harmonic_moments",
        "potential.verify_balayage",
        "cli.suite_laguerre",
        "laguerre.askey_check",
    ),
    "robin-energy": (
        "szego.trace_level_curve",
        "potential.discretize_mu_r",
        "potential.weighted_energy",
        "potential.weighted_leja",
    ),
}


class HarnessError(Exception):
    """A fault of the benchmark itself, not of the program it measures."""


def load_program():
    """Import szegolab from this checkout's src/, never from elsewhere."""
    package = SRC / "szegolab" / "__init__.py"
    if not package.is_file():
        raise HarnessError(f"no szegolab sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import szegolab

    if Path(szegolab.__file__).resolve() != package.resolve():
        raise HarnessError(f"imported szegolab from {szegolab.__file__}")


@dataclass
class CaseResult:
    name: str
    seconds: float
    checks: list
    digest: str | None = None
    error: str | None = None

    @property
    def unexpected_failure(self) -> bool:
        return self.error is not None or any(
            not c.passed and not c.known_defect for c in self.checks
        )


def run_one(case, casedir: Path, shared: dict, recorder=None) -> CaseResult:
    """Time one case, then check its output with the timer stopped."""
    import workloads

    casedir.mkdir(parents=True)
    if recorder is not None:
        recorder.case = case.name
    error = output = None
    t0 = time.perf_counter()
    try:
        output = workloads.run_case(case, casedir, shared)
    except Exception as exc:  # a program failure fails every check of the case
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if recorder is not None:
        recorder.case = None
    digest = None
    if error is None:
        try:
            checks = workloads.check_case(case, output, shared)
            if case.kind == "experiment" and checks[0].passed:
                digest = workloads.artifact_digest(case, casedir)
        except Exception as exc:  # output the checks cannot read
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        checks = workloads.failed_checks(case, error)
    shutil.rmtree(casedir)
    return CaseResult(case.name, seconds, checks, digest, error)


def run_pass(cases, workdir: Path, recorder=None) -> list:
    """Each case once, in order."""
    shared: dict = {}
    return [
        run_one(case, workdir / f"case{i}", shared, recorder) for i, case in enumerate(cases)
    ]


def run_timed(cases, workdir: Path, seconds: float) -> list:
    """One full pass, then further cases in pass order while each is expected
    (from its median so far) to end within ``seconds`` of the start.

    Returns one list of samples per case slot.
    """
    samples = [[] for _ in cases]
    shared: dict = {}
    t_start = time.perf_counter()
    for k in itertools.count():
        slot = k % len(cases)
        if k >= len(cases):
            expected = statistics.median(r.seconds for r in samples[slot])
            if time.perf_counter() - t_start + expected > seconds:
                break
        samples[slot].append(run_one(cases[slot], workdir / f"case{k}", shared))
    return samples


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start until a fresh process has its cases ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise HarnessError(f"setup probe exited {code}: {line}{rest}")
        samples.append(elapsed)
    return samples


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(seed: int, cases) -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(),
        "seed": seed,
        "cases": [c.name for c in cases],
    }


def check_metrics(results) -> dict:
    """failed_frac over all checks; tol_margin_digits over checks with a tolerance."""
    checks = [c for r in results for c in r.checks]
    margins = [c.margin_digits for c in checks if c.margin_digits is not None]
    return {
        "check.failed_frac": sum(not c.passed for c in checks) / len(checks),
        "check.tol_margin_digits": min(margins) if margins else 0.0,
    }


def layer_metrics(spans_, case_results, untraced) -> dict:
    """Per-layer metrics of a traced pass; ``untraced`` is the pass before it."""
    from spans import LAYERS, percentile, self_times, summarize

    stats = summarize(spans_)
    ncases = len(case_results)

    def get(name, key="self_s"):
        return stats.get(name, {}).get(key, 0)

    def per(name, key, unit_key, scale=1e6):
        count = get(name, unit_key)
        return get(name, key) / count * scale if count else 0.0

    out = {}
    own = self_times(spans_)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans_, own) if s.layer == layer)
    traced_wall = sum(r.seconds for r in case_results)
    top = sum(s.end - s.start for s in spans_ if s.parent is None)
    out["other.self_s"] = traced_wall - top
    fr = "rootfinding.find_roots"
    out.update(
        {
            f"{fr}.calls": get(fr, "calls"),
            f"{fr}.self_s": get(fr),
            f"{fr}.degree_sum": get(fr, "degree"),
            f"{fr}.bits_max": get(fr, "bits_max"),
            "rootfinding.residual_margin_bits": get(fr, "margin_bits_min"),
            "rootfinding.solves_per_case": get(fr, "calls") / ncases,
        }
    )
    for name in ("laguerre.monic_rescaled", "laguerre.askey_check", "szego.real_crossings"):
        out[f"{name}.self_s"] = get(name)
    for name in ("laguerre.evaluate", "szego.locate", "szego.winding_number"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name)
    out["laguerre.param_decomposition.calls"] = get("laguerre.param_decomposition", "calls")
    tr = "szego.trace_level_curve"
    out.update(
        {
            f"{tr}.calls": get(tr, "calls"),
            f"{tr}.self_s": get(tr),
            f"{tr}.nodes": get(tr, "nodes"),
            f"{tr}.us_per_node": per(tr, "self_s", "nodes"),
            "szego.traces_per_case": get(tr, "calls") / ncases,
        }
    )
    lp = "measures.log_potential"
    out.update(
        {
            f"{lp}.calls": get(lp, "calls"),
            f"{lp}.self_s": get(lp),
            f"{lp}.pairs": get(lp, "pairs"),
            f"{lp}.us_per_pair": per(lp, "self_s", "pairs"),
        }
    )
    we, wl = "potential.weighted_energy", "potential.weighted_leja"
    out.update(
        {
            f"{we}.self_s": get(we),
            f"{we}.pairs": get(we, "pairs"),
            f"{we}.us_per_pair": per(we, "self_s", "pairs"),
            f"{wl}.self_s": get(wl),
            f"{wl}.pair_updates": get(wl, "pair_updates"),
            f"{wl}.us_per_pair": per(wl, "self_s", "pair_updates"),
        }
    )
    for fn in ("discretize_mu_r", "verify_balayage", "harmonic_moments", "pullback_density"):
        out[f"potential.{fn}.self_s"] = get(f"potential.{fn}")
    for fn in (
        "zero_distribution_report",
        "supnorm_extremality",
        "level_median",
        "ks_uniform_theta",
    ):
        out[f"asymptotics.{fn}.self_s"] = get(f"asymptotics.{fn}")
    out["cli.bytes_written"] = get("cli.write_text_atomic", "bytes")
    out["case_p50_s"] = percentile([r.seconds for r in untraced], 50)
    out["trace.overhead_frac"] = traced_wall / sum(r.seconds for r in untraced) - 1
    out.update(check_metrics(case_results))
    return out


def declared_metrics() -> dict:
    """name -> unit for each metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    load_program()
    import workloads
    from spans import Recorder, percentile

    if args.workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}")
    cases = workloads.make_cases(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    units = declared_metrics()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        if args.trace:
            slots = [[r] for r in run_pass(cases, work / "untraced")]
            recorder = Recorder()
            installed = recorder.install()
            try:
                traced = run_pass(cases, work / "traced", recorder)
            finally:
                recorder.restore()
        else:
            slots = run_timed(cases, work, args.seconds)
    results = [r for samples in slots for r in samples]
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        untraced = [samples[0] for samples in slots]
        _check_traced(args, cases, untraced, traced, recorder, installed)
        metrics = layer_metrics(recorder.spans, traced, untraced)
        results += traced
        spans_json = json.dumps([asdict(s) for s in recorder.spans])
        (OUT / f"{tag}-spans.json").write_text(spans_json)
    else:
        slot_medians = [statistics.median(r.seconds for r in samples) for samples in slots]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(slot_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "case_p50_s": percentile(slot_medians, 50),
        }
        metrics.update(check_metrics(results))

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed, cases),
        "setup_samples_s": setup,
        "slot_samples": [len(samples) for samples in slots],
        "cases": [asdict(r) for r in results],
        "metrics": metrics,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} case samples over {len(cases)} slots")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    for r in results:
        status = "error" if r.error else ("FAIL" if r.unexpected_failure else "ok")
        print(f"case {r.name}: {r.seconds:.3f} s {status}")
        for c in r.checks:
            if not c.passed:
                label = "known defect" if c.known_defect else "FAIL"
                print(f"  {label} {r.name} / {c.name}: {c.detail}")
    counts = f" (from {len(results)} case samples)"
    for name, value in metrics.items():
        note = counts if name in ("wall_s", "case_p50_s") else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")

    failed = sum(r.unexpected_failure for r in results)
    reported = [n for n in units if (n in END_TO_END) != bool(args.trace)]
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in reported},
    }
    print(json.dumps(result))
    return 0


def _check_traced(args, cases, untraced, traced, recorder, installed) -> None:
    """Harness faults of a traced run: a case list or span that is not there.

    Artifacts that differ between the untraced and the traced pass are a
    program failure of that case, not a harness fault.
    """
    from workloads import Check

    if [r.name for r in traced] != [r.name for r in untraced]:
        raise HarnessError("traced case list differs from the untraced one")
    earlier = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if earlier.is_file():
        names = json.loads(earlier.read_text())["fingerprint"]["cases"]
        if names != [c.name for c in cases]:
            raise HarnessError(f"case list differs from the untraced run in {earlier.name}")
    seen = {s.name for s in recorder.spans}
    for name in EXPECTED_SPANS[args.workload]:
        if name not in installed:
            raise HarnessError(f"{name} is not a wrapped public function")
        if name not in seen:
            raise HarnessError(f"{name} recorded no span on {args.workload}")
    for a, b in zip(untraced, traced):
        if a.digest != b.digest:
            b.checks.append(Check("rerun-digest", False, "artifacts differ between passes"))


if __name__ == "__main__":
    raise SystemExit(main())
