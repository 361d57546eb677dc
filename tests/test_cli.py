import csv
import io
import json
import math
import multiprocessing
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlab.cli import _EXPERIMENTS, _FLAG_KINDS, _flags_of, run

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_missing_seed_is_usage_error(capsys):
    assert run(["fact3"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate", "--seed", "1"]) == 2


def test_negative_seed_rejected():
    assert run(["fact3", "--seed", "-3"]) == 2


def test_bad_format_rejected():
    assert run(["fact3", "--seed", "1", "--format", "xml"]) == 2


@pytest.mark.parametrize("argv", [
    ["fact3", "--seed", "0", "--trials", "0"],
    ["fact3", "--seed", "0", "--n", "0"],
    ["lemma52-1", "--seed", "0", "--t", "150"],
    ["spectral", "--seed", "0", "--m", "0"],
    ["lemma71", "--seed", "0", "--c1", "0.0001"],
    ["coin-iter", "--seed", "0", "--iterations", "0"],
    ["fact3", "--seed", "0", "--workers", "0"],
    ["all", "--seed", "0", "--workers", "-2"],
    ["lemma52-1", "--seed", "0", "--n", "10000", "--t", "100"],  # 128 x 10^6 walk block
    ["agreement", "--seed", "0", "--direction", "0"],
    ["lemma52-1", "--seed", "0", "--t", "0", "--trials", "0"],
    ["lemma52-1", "--seed", "0", "--t", "0", "--trials", "-5"],
    ["lemma71", "--seed", "0", "--c1", "inf"],  # found by the argv fuzz test below
    ["spectral", "--seed", "0", "--trials", "5", "--n", "4", "--m", "2", "--epsilon", "1e308"],
    ["constants", "--seed", "0", "--epsilon", "1e308"],  # norm threshold overflows
    ["constants", "--seed", "0", "--m", "1" + "0" * 400],  # too large for a float
])
def test_rejected_parameters_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    if argv[0] == "coin-iter":
        assert "iterations must be >= 1" in err


def test_fact3_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["fact3", "--n", "6", "--trials", "4000", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    report = _load(out)
    assert report["subcommand"] == "fact3"
    assert report["config"]["n"] == 6
    assert report["config"]["seed"] == 1
    assert "workers" not in report["config"]
    summary = report["summary"]
    assert summary["fail"] == 0
    assert summary["pass"] >= 1
    # odd thresholds at even n are equality-tight, so straddles appear
    assert summary["inconclusive"] >= 1
    kinds = [row.get("kind") for row in report["results"]]
    assert "timing" in kinds
    exact_rows = [r for r in report["results"]
                  if r.get("claim_id") == "enumeration_matches_reflection_identity"]
    assert exact_rows and exact_rows[0]["verdict"] == "pass"


def test_exit_zero_despite_inconclusive(tmp_path):
    out = tmp_path / "r.json"
    assert run(["fact3", "--n", "4", "--trials", "2000", "--seed", "2",
                "--out", str(out)]) == 0
    assert _load(out)["summary"]["inconclusive"] >= 1


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed = 7\nn = 6\ntrials = 3000\n")
    out = tmp_path / "r.json"
    assert run(["fact3", "--config", str(cfg), "--trials", "2000",
                "--out", str(out)]) == 0
    report = _load(out)
    assert report["config"]["seed"] == 7
    assert report["config"]["n"] == 6
    assert report["config"]["trials"] == 2000  # flag wins over file


def test_config_file_alone_supplies_seed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    out = tmp_path / "r.json"
    assert run(["constants", "--config", str(cfg), "--out", str(out)]) == 0
    assert _load(out)["config"]["seed"] == 3


@pytest.mark.parametrize("subcommand, key", [
    ("constants", "wibble"),
    ("fact3", "iterations"),  # a flag of coin-iter and agreement only
    ("all", "n"),  # `all` takes only the common flags and --trials
], ids=["constants-wibble", "fact3-iterations", "all-n"])
def test_config_file_unknown_key(tmp_path, capsys, subcommand, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=3\n{key}=4\n")
    assert run([subcommand, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config keys: [{key!r}]")


def test_config_file_report_matches_argv(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nn = 6\ntrials = 2000\n")
    from_file, from_argv = tmp_path / "file.json", tmp_path / "argv.json"
    assert run(["fact3", "--config", str(cfg), "--out", str(from_file)]) == 0
    assert run(["fact3", "--seed", "1", "--n", "6", "--trials", "2000",
                "--out", str(from_argv)]) == 0
    reports = [_load(path) for path in (from_file, from_argv)]
    for report in reports:
        report["results"] = [r for r in report["results"] if r.get("kind") != "timing"]
    assert reports[0] == reports[1]


def test_config_file_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed 3\n")
    assert run(["constants", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["workers = two", "seed = x"])
def test_config_file_value_of_wrong_type(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    assert run(["constants", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split()[0] in err
    assert "Traceback" not in err


def test_missing_config_file():
    assert run(["constants", "--seed", "1", "--config", "/nonexistent.cfg"]) == 2


def test_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["constants", "--seed", "1", "--format", "csv",
                "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    ids = {row["claim_id"] for row in rows}
    assert "stopped_tail_below_e11" in ids
    assert all(row["verdict"] != "fail" for row in rows)
    # timing rows stay out of the CSV
    assert all(row["kind"] != "timing" for row in rows)


def test_constants_report_structure(tmp_path):
    out = tmp_path / "r.json"
    assert run(["constants", "--seed", "1", "--out", str(out)]) == 0
    report = _load(out)
    verdicts = {r.get("claim_id"): r.get("verdict") for r in report["results"]}
    assert verdicts["stopped_tail_below_e11"] == "pass"
    assert verdicts["margin_over_one_twentieth"] == "pass"
    assert verdicts["half_deviation_lower_bound"] == "pass"
    assert verdicts["resilience_product_window"] == "pass"
    notes = [r for r in report["results"] if r.get("kind") == "notes"]
    assert notes and notes[0]["notes"]


def test_lemma52_2_report_rows(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lemma52-2", "--n", "30", "--t", "1", "--trials", "1500",
                "--seed", "4", "--out", str(out)]) == 0
    report = _load(out)
    by_id = {r.get("claim_id"): r for r in report["results"]}
    assert by_id["two_phase_structural_decomposition"]["verdict"] == "pass"
    bench = by_id["first_segment_rate_vs_benchmark"]
    assert "verdict" not in bench
    assert bench["benchmark"] == 0.211


def test_coin_iter_rows(tmp_path):
    out = tmp_path / "r.json"
    assert run(["coin-iter", "--iterations", "200", "--seed", "4",
                "--out", str(out)]) == 0
    report = _load(out)
    by_id = {r.get("claim_id"): r for r in report["results"]}
    assert by_id["deviation_components_additive"]["verdict"] == "pass"
    assert by_id["good_event_invariant_to_behavioral_knobs"]["verdict"] == "pass"
    assert "verdict" not in by_id["good_event_frequency_vs_benchmark"]


def test_agreement_row(tmp_path):
    out = tmp_path / "r.json"
    assert run(["agreement", "--seed", "4", "--out", str(out)]) == 0
    report = _load(out)
    row = report["results"][0]
    assert row["agreed"] is True
    assert row["iterations_used"] >= 1


def test_stdout_when_no_out_file(capsys):
    assert run(["constants", "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["subcommand"] == "constants"


def test_iteration_flags_rejected_on_plain_experiments(capsys):
    # each subcommand takes only the flags its experiment reads
    for argv in (
        ["fact3", "--seed", "1", "--iterations", "5"],
        ["all", "--seed", "1", "--n", "8"],
        ["fact3", "--seed", "1", "--t", "100"],
        ["agreement", "--seed", "1", "--iterations", "9"],
        ["agreement", "--seed", "1", "--epsilon", "3"],
        ["coin-iter", "--seed", "1", "--max-iterations", "5"],
        ["constants", "--seed", "1", "--c1", "7"],
        ["coin-iter", "--seed", "1", "--trials", "5"],
        ["agreement", "--seed", "1", "--trials", "5"],
    ):
        assert run(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_all_draws_one_sample_per_stream_experiment(monkeypatch):
    import coinlab.matrices
    import coinlab.mc

    calls = []
    original = coinlab.mc.run_blocks

    def counting_run_blocks(counter, *args, **kwargs):
        calls.append(counter.func.__name__)
        return original(counter, *args, **kwargs)

    monkeypatch.setattr(coinlab.mc, "run_blocks", counting_run_blocks)
    monkeypatch.setattr(coinlab.matrices, "run_blocks", counting_run_blocks)
    with redirect_stdout(io.StringIO()):
        assert run(["all", "--seed", "0", "--trials", "200"]) == 0
    # fact3, lemma52-1, lemma52-2, lemma71, spectral
    assert len(calls) == 5, calls


def _counter_that_kills_its_worker(rng, count, start, **kwargs):
    # the worker process dies without a word, as an out-of-memory kill would
    if multiprocessing.parent_process() is None:
        raise AssertionError("ran outside a worker process")
    os._exit(1)


def test_dead_worker_is_an_error_row(monkeypatch, tmp_path):
    import coinlab.mc

    monkeypatch.setattr(coinlab.mc, "_tail_counter", _counter_that_kills_its_worker)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2 even on one CPU
    out = tmp_path / "r.json"
    # n = 1 makes blocks of 8192 walks, so 8193 trials are two blocks for two workers
    assert run(["fact3", "--seed", "0", "--n", "1", "--trials", "8193", "--workers", "2",
                "--out", str(out)]) == 1
    report = _load(out)
    error = report["results"][0]
    assert (error["kind"], error["verdict"]) == ("error", "fail")
    assert error["error"].startswith("BrokenProcessPool:")
    assert report["summary"]["fail"] == 1


def test_report_version_matches_pyproject(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"', pyproject.read_text(encoding="utf-8"), re.M)
    out = tmp_path / "r.json"
    assert run(["constants", "--seed", "1", "--out", str(out)]) == 0
    assert _load(out)["tool_version"] == version.group(1)


# Upper ends keep each run cheap; flags always passed keep any default of
# 10^6 trials, n = 200 or 1000 rounds out of the draw. At most three other
# flags are drawn, so most draws get past the first check and into an
# experiment.
_CAPS = {"n": 12, "trials": 50, "iterations": 5, "max_iterations": 5, "workers": 3}
_ALWAYS = ("seed", "trials", "n", "iterations", "max_iterations")
_FLOAT_EDGES = [math.inf, -math.inf, math.nan, 1e9, 0.0, -0.0]


def _flag_values(name, kind):
    if kind is int:
        return st.integers(-3, _CAPS.get(name, 12)).map(str)
    if kind is float:
        return (st.floats(-1.0, 3.0) | st.sampled_from(_FLOAT_EDGES)).map(repr)
    return st.sampled_from(["json", "csv", "xml"])  # --format


@st.composite
def _argv(draw, subcommand):
    kinds = {name: _FLAG_KINDS[name] for name in _flags_of(subcommand)}
    del kinds["out"], kinds["config"]  # paths, covered by the tests above
    optional = sorted(set(kinds) - set(_ALWAYS))
    chosen = [name for name in _ALWAYS if name in kinds]
    chosen += sorted(draw(st.sets(st.sampled_from(optional), max_size=3)))
    return [subcommand] + [f"--{name.replace('_', '-')}={draw(_flag_values(name, kinds[name]))}"
                           for name in chosen]


def _assert_clean_exit(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("subcommand", list(_EXPERIMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_small_argv_exits_cleanly(subcommand, data):
    _assert_clean_exit(data.draw(_argv(subcommand), label="argv"))


@settings(max_examples=10, deadline=None)  # `all` runs 1000 coin-iter rounds each time
@given(argv=_argv("all"))
def test_any_small_all_argv_exits_cleanly(argv):
    _assert_clean_exit(argv)


# Sampled tallies of small runs at --seed 0: every `successes` in each
# verdict row, in report order (for lemma52-1 the total, then the + and -
# directions; for lemma52-2 p_first, p_adversary_max, p_full; for lemma71
# the running max, then the endpoint).
_PINNED_VERSION = "0.2.1"
_PINNED_SUCCESSES = {
    "fact3 --n 8 --trials 4000": {
        f"max_tail_le_twice_sum_tail_n8_r{r}": [hits]
        for r, hits in enumerate((2898, 2037, 1214, 744, 292, 166, 31, 13), start=1)
    },
    "lemma52-1 --n 24 --t 3 --trials 4000": {"stopped_stream_deviation_tail": [1625, 795, 830]},
    "lemma52-2 --n 30 --t 1 --trials 1500": {
        "two_phase_structural_decomposition": [108, 116, 168],
    },
    "lemma71 --trials 3000": {
        "running_max_vs_endpoint@default_threshold": [1265, 612],
        "running_max_vs_endpoint@0.5sigma": [1577, 926],
        "running_max_vs_endpoint@1.0sigma": [784, 363],
        "running_max_vs_endpoint@2.0sigma": [111, 59],
    },
    "spectral --n 8 --m 8 --trials 64": {"iteration_sum_norm_exceedance": [0]},
}


def _successes(obj):
    if isinstance(obj, dict):
        found = [obj["successes"]] if "successes" in obj else []
        return found + [s for value in obj.values() for s in _successes(value)]
    if isinstance(obj, list):
        return [s for value in obj for s in _successes(value)]
    return []


@pytest.mark.parametrize("command", list(_PINNED_SUCCESSES))
def test_sampled_tallies_are_pinned(command):
    out = io.StringIO()
    with redirect_stdout(out):
        run(command.split() + ["--seed", "0"])
    report = json.loads(out.getvalue())
    tallies = {row["claim_id"]: _successes(row) for row in report["results"]
               if _successes(row)}
    assert (report["tool_version"], tallies) == (_PINNED_VERSION, _PINNED_SUCCESSES[command]), (
        "a sampled tally or the version moved: a change to reported numbers must bump "
        "the version in pyproject.toml, then re-pin _PINNED_VERSION and _PINNED_SUCCESSES"
    )
