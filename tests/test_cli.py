"""Command-line interface: dispatch, option resolution, outputs, suites."""

import json
import math
import os
import sys

import pytest
from mpmath import mpf

from szegolab import rootfinding, szego
from szegolab.asymptotics import ConvergenceReport
from szegolab.cli import ENV_PRECISION, main, report_json, write_text_atomic


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_PRECISION, raising=False)


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["zeros", "--bogus", "1"]) == 2


def test_missing_required_option(capsys):
    assert main(["zeros", "--n", "6"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_zeros_file_output_and_determinism(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    argv = ["zeros", "--n", "6", "--alpha", "-6.5", "--precision", "192",
            "--out", str(out)]
    assert main(argv) == 0
    assert "wrote 6 zeros" in capsys.readouterr().out
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 7
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_zeros_stdout_and_degenerate_alpha(capsys):
    # degenerate alpha is legal input here: the factored origin zeros come
    # out exactly
    assert main(["zeros", "--n", "4", "--alpha", "-2", "--precision", "128"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("re,im,residual")
    assert out.count("0.0,0.0,0.0") == 2


NEAR_S8 = "-7." + "9" * 120  # alpha = -8 + 1e-120, not in S_8


def test_zeros_resolves_near_degenerate_alpha(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    assert main(["zeros", "--n", "8", "--alpha", NEAR_S8, "--out", str(out)]) == 0
    assert "origin multiplicity 0" in capsys.readouterr().out


def test_zeros_rejects_precision_that_rounds_alpha_onto_s_n(capsys):
    assert main(["zeros", "--n", "8", "--alpha", NEAR_S8, "--precision", "192"]) == 2
    assert "rounds onto S_8" in capsys.readouterr().err


def test_curve_rows(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--r", "1", "--nodes", "64", "--precision", "128",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 65
    assert lines[1].split(",")[0] == "0.0"


def test_curve_rejects_odd_nodes():
    assert main(["curve", "--r", "1", "--nodes", "65"]) == 2


def test_measure_point_mass_at_infinite_level(capsys):
    assert main(["measure", "--r", "inf", "--precision", "128"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re,im,weight"
    assert len(lines) == 2
    assert lines[1] == "0.0,0.0,1.0"


def test_potential_exterior_value(capsys):
    assert main(["potential", "--r", "1", "--at", "2", "--nodes", "256",
                 "--precision", "192"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re,im,potential"
    value = float(lines[1].split(",")[2])
    assert abs(value + math.log(2)) <= 1e-10


def test_verify_laguerre_identities(capsys):
    assert main(["verify", "--suite", "laguerre-identities",
                 "--precision", "256"]) == 0
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out
    assert "FAIL" not in out


def test_verify_lemma1_fails_honestly_at_the_corner(capsys):
    # even the corner-graded rule misses the moment tolerance at r = 0 with
    # only 64 nodes (error 5e-8 against 1e-10); verify must report that,
    # not hide it
    assert main(["verify", "--suite", "lemma1", "--r", "0", "--nodes", "64",
                 "--precision", "192"]) == 1
    out = capsys.readouterr().out
    assert "FAIL moments" in out
    assert "PASS mass" in out


def test_verify_lemma1_passes_away_from_the_corner(capsys):
    assert main(["verify", "--suite", "lemma1", "--r", "1", "--nodes", "256",
                 "--precision", "192"]) == 0
    assert "3/3 checks passed" in capsys.readouterr().out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_leja_stdout(capsys):
    assert main(["leja", "--r", "0", "--count", "8", "--grid", "128",
                 "--precision", "64"]) == 0
    assert "robin estimate" in capsys.readouterr().out


def test_env_precision_fallback(tmp_path, monkeypatch):
    low = tmp_path / "low.csv"
    high = tmp_path / "high.csv"
    monkeypatch.setenv(ENV_PRECISION, "64")
    assert main(["curve", "--r", "1", "--nodes", "16", "--out", str(low)]) == 0
    # an explicit flag beats the environment
    assert main(["curve", "--r", "1", "--nodes", "16", "--precision", "256",
                 "--out", str(high)]) == 0
    theta_low = low.read_text().splitlines()[2].split(",")[0]
    theta_high = high.read_text().splitlines()[2].split(",")[0]
    assert len(theta_high) > len(theta_low) + 40


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the curve runs\nr = 1\nnodes = 32\n")
    out = tmp_path / "a.csv"
    assert main(["curve", "--config", str(cfg), "--precision", "128",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 33
    assert main(["curve", "--config", str(cfg), "--nodes", "16",
                 "--precision", "128", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 17
    # neither flag nor config: the default of 512 nodes
    assert main(["curve", "--r", "1", "--precision", "64", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 513


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value pair\n")
    assert main(["curve", "--config", str(bad)]) == 2
    assert main(["curve", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_key_no_command_declares_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("r = 1\nnode = 32\nprecision = 64\n")
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key 'node'" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_settings_are_usage_errors(tmp_path, capsys):
    # each rule is the library's own; the CLI only maps its error to exit 2
    assert main(["curve", "--r", "1", "--precision", "32"]) == 2
    assert main(["curve", "--r", "1", "--nodes", "15"]) == 2
    assert main(["zeros", "--n", "4", "--alpha", "0.5", "--tol", "0"]) == 2
    assert main(["experiment", "--schedule", "generic", "--c", "0.25",
                 "--n", "8", "--nodes", "7", "--out-dir", str(tmp_path)]) == 2
    # --grid 0 is the caller's value, not a request for the default
    leja_out = str(tmp_path / "leja.csv")
    assert main(["leja", "--r", "1", "--count", "4", "--grid", "0",
                 "--out", leja_out]) == 2
    assert main(["verify", "--suite", "robin", "--nodes", "16", "--count", "2",
                 "--grid", "0"]) == 2
    assert capsys.readouterr().err.count("usage error") == 6
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["zeros", "--n", "4", "--alpha", "inf", "--precision", "128"],
    ["zeros", "--n", "4", "--alpha", "nan", "--precision", "128"],
    ["experiment", "--schedule", "exponential", "--rate", "inf", "--n", "8"],
    ["experiment", "--schedule", "exponential", "--rate", "nan", "--n", "8"],
    ["potential", "--r", "1", "--at", "nan", "--nodes", "16"],
    ["potential", "--r", "1", "--at", "inf", "--nodes", "16"],
    ["zeros", "--n", "4", "--alpha", "0.5", "--tol", "inf", "--precision", "128"],
    ["zeros", "--n", "4", "--alpha", "0.5", "--tol", "nan", "--precision", "128"],
], ids=["alpha-inf", "alpha-nan", "rate-inf", "rate-nan", "at-nan", "at-inf",
        "tol-inf", "tol-nan"])
def test_non_finite_inputs_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err
    assert os.listdir(tmp_path) == []


def test_experiment_requires_exactly_one_mode(tmp_path):
    assert main(["experiment"]) == 2
    assert main(["experiment", "--fig", "2", "--schedule", "generic",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["experiment", "--fig", "5", "--out-dir", str(tmp_path)]) == 2


def test_experiment_schedule_outputs(tmp_path, capsys):
    assert main(["experiment", "--schedule", "generic", "--c", "0.25",
                 "--n", "8", "--nodes", "64", "--precision", "192",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "r_eff =" in out
    assert "level median =" in out
    for suffix in ("zeros.csv", "curve.csv", "report.json"):
        path = tmp_path / f"generic_n8_{suffix}"
        assert path.exists()
    report = json.loads((tmp_path / "generic_n8_report.json").read_text())
    assert report["n"] == 8
    assert len(report["moment_gaps"]) == 5


def test_experiment_solves_and_traces_once(tmp_path, monkeypatch):
    calls = {"find_roots": 0, "trace_level_curve": 0}
    for name, original in (
        ("find_roots", rootfinding.find_roots),
        ("trace_level_curve", szego.trace_level_curve),
    ):
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("szegolab") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(["experiment", "--schedule", "generic", "--c", "0.25",
                 "--n", "8", "--nodes", "64", "--precision", "192",
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == {"find_roots": 1, "trace_level_curve": 1}


def test_write_text_atomic(tmp_path):
    target = tmp_path / "data.txt"
    write_text_atomic(target, "first\n")
    write_text_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["data.txt"]


def test_report_json_key_order():
    report = ConvergenceReport(
        n=3,
        alpha=mpf("-3.5"),
        r_eff=mpf("0.25"),
        level_deviation=mpf("0.01"),
        ks_theta=mpf("0.02"),
        moment_gaps=(mpf(0), mpf("0.001")),
        supnorm_gap=mpf("-0.03"),
        origin_gap=mpf("0.04"),
        zeros=None,
        curve=None,
    )
    payload = json.loads(report_json(report, 128))
    assert list(payload) == [
        "n",
        "alpha",
        "r_eff",
        "level_deviation",
        "ks_theta",
        "moment_gaps",
        "supnorm_gap",
        "origin_gap",
    ]
    assert payload["n"] == 3


# ---------------------------------------------------------------------------
# option sources: flag > config file > environment > default


def _curve_bytes(tmp_path, name, argv):
    out = tmp_path / name
    assert main(["curve", "--r", "1", "--nodes", "16", "--out", str(out)] + argv) == 0
    return out.read_bytes()


def test_config_precision_beats_env_and_flag_beats_both(tmp_path, monkeypatch):
    ref = {bits: _curve_bytes(tmp_path, f"ref{bits}.csv", ["--precision", str(bits)])
           for bits in (64, 128, 256)}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision = 128\n")
    monkeypatch.setenv(ENV_PRECISION, "64")
    assert _curve_bytes(tmp_path, "env.csv", []) == ref[64]
    assert _curve_bytes(tmp_path, "cfg.csv", ["--config", str(cfg)]) == ref[128]
    assert _curve_bytes(tmp_path, "flag.csv", ["--config", str(cfg),
                                               "--precision", "256"]) == ref[256]


def test_potential_config_at_and_flag_replacement(tmp_path, capsys):
    base = ["potential", "--r", "1", "--nodes", "32", "--precision", "128"]

    def run(*extra):
        assert main(base + list(extra)) == 0
        return capsys.readouterr().out

    at2, at3, at0 = run("--at", "2"), run("--at", "3"), run()
    assert len({at2, at3, at0}) == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("at = 2\n")
    assert run("--config", str(cfg)) == at2
    # --at replaces the config value, it does not add to it
    assert run("--config", str(cfg), "--at", "3") == at3


def test_config_keys_a_command_does_not_take_are_ignored(tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("r = 0.5\nnodes = 16\nprecision = 128\n"
                   "at = 2\ncount = 8\nsuite = robin\n")
    for command in ("curve", "measure"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 17


def test_verify_takes_suite_and_r_from_config(tmp_path, capsys):
    flags = ["--nodes", "64", "--precision", "192"]
    assert main(["verify", "--suite", "lemma1", "--r", "0"] + flags) == 1
    at_r0 = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = lemma1\nr = 0\n")
    assert main(["verify", "--config", str(cfg)] + flags) == 1
    assert capsys.readouterr().out == at_r0
    # argparse choices never see a config value; the suite runner rejects it
    cfg.write_text("suite = nonsense\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown suite 'nonsense'" in captured.err


FLAGS = {
    "zeros": "--n --alpha --tol --out",
    "curve": "--r --nodes --out",
    "measure": "--r --nodes --out",
    "potential": "--r --nodes --at --out",
    "verify": "--suite --r --nodes --count --grid",
    "leja": "--r --count --grid --out",
    "experiment": "--fig --schedule --n --c --rate --nodes --out-dir",
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_flag_set(command, capsys):
    assert main([command, "--help"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.lstrip().startswith("--")]
    assert listed == FLAGS[command].split() + ["--precision", "--config"]
