"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import time
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Recorder, Span, percentile, self_times, summarize, union_length


# generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_cases(workload):
    assert workloads.make_cases(workload, 7) == workloads.make_cases(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_different_cases(workload):
    lists = [tuple(c.name for c in workloads.make_cases(workload, s)) for s in range(10)]
    assert len(set(lists)) == len(lists)


def test_sizes_do_not_depend_on_seed():
    for seed in range(10):
        cases = workloads.make_cases("identity-suites", seed)
        rows = [c.p for c in cases if c.kind == "lemma1"]
        assert sorted(p["M"] for p in rows) == sorted(workloads.IDENTITY_M)
        assert (rows[0]["r"], rows[0]["M"]) == ("0", 4096)
        assert all(0.02 <= float(p["r"]) <= 1.2 for p in rows[1:])
        schedule = workloads.make_cases("schedule-experiments", seed)
        assert [c.p.get("n") for c in schedule] == [None, None, 40, 40, 22]


# span arithmetic --------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(1, 3), (2, 5), (6, 7)]) == 5
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_times_subtract_union_of_children():
    spans = [
        Span("a.f", 0.0, 10.0, None, "c"),
        Span("b.g", 1.0, 3.0, 0, "c"),
        Span("b.h", 2.0, 5.0, 0, "c"),  # overlaps its sibling
        Span("c.k", 2.5, 3.5, 2, "c"),
        Span("b.g", 6.0, 7.0, 0, "c"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])


def test_summarize_sums_counters():
    spans = [
        Span("rootfinding.find_roots", 0, 2, None, "x", {"degree": 3, "bits": 128, "margin_bits": 9.0}),
        Span("rootfinding.find_roots", 2, 3, None, "x", {"degree": 5, "bits": 512, "margin_bits": 4.0}),
    ]
    entry = summarize(spans)["rootfinding.find_roots"]
    assert entry == {
        "calls": 2,
        "self_s": 3,
        "degree": 8,
        "bits_max": 512,
        "margin_bits_min": 4.0,
    }


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([5.0], 50) == 5.0
    assert percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_declared_per_layer_metrics_are_the_computed_ones():
    results = [run.CaseResult("c", 1.0, [workloads.Check("x", True)])]
    computed = run.layer_metrics([], results, results)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(computed)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


# tracing ----------------------------------------------------------------------


def test_recorder_rebinds_every_holder_and_restores():
    import szegolab
    from szegolab import asymptotics, cli, rootfinding, szego

    original = rootfinding.contracted_zeros
    recorder = Recorder()
    names = recorder.install()
    try:
        assert "rootfinding.contracted_zeros" in names
        assert not any(n.startswith("precision.") for n in names)
        wrapped = rootfinding.contracted_zeros
        assert wrapped is not original
        assert asymptotics.contracted_zeros is wrapped
        assert cli.contracted_zeros is wrapped
        assert szegolab.contracted_zeros is wrapped
        recorder.case = "probe"
        szego.trace_level_curve(1, 16, 64)
    finally:
        recorder.restore()
    assert rootfinding.contracted_zeros is original
    assert asymptotics.contracted_zeros is original
    by_name = {s.name: s for s in recorder.spans}
    curve, crossing = by_name["szego.trace_level_curve"], by_name["szego.real_crossings"]
    assert crossing.parent == recorder.spans.index(curve)
    assert curve.attrs == {"nodes": 16}
    assert {s.case for s in recorder.spans} == {"probe"}


# one-case smoke runs ------------------------------------------------------------


def _first_case(workload, kind, prefix=""):
    cases = workloads.make_cases(workload, 0)
    return next(c for c in cases if c.kind == kind and c.name.startswith(prefix))


def test_smoke_schedule_experiment_is_byte_identical(tmp_path):
    case = _first_case("schedule-experiments", "experiment", "generic")
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (result,) = run.run_pass([case], tmp_path / sub)
        assert not result.unexpected_failure, result
        assert [c.passed for c in result.checks] == [True] * 4
        digests.append(result.digest)
    assert digests[0] is not None and digests[0] == digests[1]


def test_smoke_identity_suites(tmp_path):
    case = _first_case("identity-suites", "askey")
    (result,) = run.run_pass([case], tmp_path)
    assert not result.unexpected_failure
    assert result.checks[0].margin_digits > 0


def test_smoke_robin_energy(tmp_path):
    case = _first_case("robin-energy", "energy")
    (result,) = run.run_pass([case], tmp_path)
    assert not result.unexpected_failure
    assert result.checks[0].name == "energy"


def test_exception_fails_every_check_of_its_case(tmp_path):
    case = workloads.Case("bad", "experiment", (("fig", 4),))
    (result,) = run.run_pass([case], tmp_path)
    assert result.error and result.unexpected_failure
    assert [c.passed for c in result.checks] == [False] * 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "robin-energy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_timed_takes_one_pass_then_fills_the_budget(tmp_path):
    case = _first_case("identity-suites", "laguerre")
    (only,) = run.run_timed([case], tmp_path / "a", 0)
    assert len(only) == 1
    t0 = time.perf_counter()
    (more,) = run.run_timed([case], tmp_path / "b", 0.5)
    assert len(more) >= 2
    assert time.perf_counter() - t0 < 0.5 + 2 * max(r.seconds for r in more)
