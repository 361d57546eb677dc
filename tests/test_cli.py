import ast
import csv
import functools
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlab
from coinlab import matrices, mc
from coinlab.cli import _EXPERIMENTS, _FLAG_KINDS, _arguments, _flags_of, run

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
    # one round of 8192 x 8194 coins, just over the cap, is refused before any draw
    ["coin-iter", "--seed", "0", "--n", "8194", "--t", "2"],
    ["agreement", "--seed", "0", "--n", "8194", "--t", "2"],
    # one spectral trial of 8193 x 8193 coins, just over the cap, likewise
    ["spectral", "--seed", "0", "--n", "8193", "--t", "1", "--m", "1"],
    # only -1 stands for "t"; a lower value would run with t yet echo itself
    ["coin-iter", "--seed", "0", "--ambiguous", "-5"],
    ["coin-iter", "--seed", "0", "--direction", "0"],
    # past 2**53 trials a float64 tally no longer counts exactly
    ["fact3", "--seed", "1", "--trials", str(2**53 + 1)],
    ["fact3", "--seed", "1", "--trials", "1" + "0" * 20],
    # fact3's exact column holds O(n**2) bytes, so n past 2**14 is refused
    ["fact3", "--seed", "0", "--n", str(2**14 + 1), "--trials", "1"],
])
def test_rejected_parameters_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    if "--iterations" in argv:
        assert "iterations must be >= 1" in err
    for flag in ("ambiguous", "direction"):  # the message names the flag typed
        if f"--{flag}" in argv:
            assert err.startswith(f"error: {flag} must")
    if "8194" in argv or "8193" in argv:
        assert "over the limit" in err
    if argv[-2] == "--trials" and int(argv[-1]) > 2**53:
        assert "2**53" in err


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


def test_coin_iter_report_does_not_depend_on_block_size(monkeypatch):
    import coinlab.iteration

    argv = ["coin-iter", "--seed", "5", "--iterations", "450", "--t-stopped", "3"]
    whole = _untimed_report(argv)
    assert _untimed_report(argv + ["--workers", "2"]) == whole
    # blocks of 7 rounds split the 200-round invariance probe across 29 blocks
    monkeypatch.setattr(coinlab.iteration, "rounds_per_block", lambda config: 7)
    assert _untimed_report(argv) == whole
    assert _untimed_report(argv + ["--workers", "2"]) == whole


def _coin_iter_check(monkeypatch, corrupt):
    # coin-iter's component row with corrupt(walks, stop, value) in place of
    # each (stop, value) the rounds' apply_stop returns
    import coinlab.iteration

    stop_of = coinlab.iteration.apply_stop

    def corrupted_stop(sums, strategy):
        return corrupt(sums, *stop_of(sums, strategy))

    monkeypatch.setattr(coinlab.iteration, "apply_stop", corrupted_stop)
    _, report = _untimed_report(["coin-iter", "--seed", "1", "--iterations", "30"])
    return report["results"][0]


def test_coin_iter_check_counts_rounds_that_do_not_add_up(monkeypatch):
    def every_third_value_off_by_one(walks, stop, value):
        # the 30 rounds run as one block of one group, so row j is round j
        assert len(walks) == 30
        value = value.copy()
        value[::3, 0] += 1
        return stop, value

    row = _coin_iter_check(monkeypatch, every_third_value_off_by_one)
    assert (row["additive_failures"], row["stop_extreme_failures"], row["verdict"]) == (
        10, 0, "fail")


def test_coin_iter_check_counts_stops_off_the_extreme(monkeypatch):
    def stop_at_the_end(walks, stop, value):
        return np.full_like(stop, walks.shape[-1]), value

    row = _coin_iter_check(monkeypatch, stop_at_the_end)
    assert row["stop_extreme_failures"] > 0 and row["verdict"] == "fail"


def test_coin_iter_check_reads_a_stop_at_0_as_worth_0(monkeypatch):
    import coinlab.iteration

    checked, rounds_of = [], coinlab.iteration.run_rounds

    def recorded_rounds(config, start, count):
        checked.append(rounds_of(config, start, count))
        return checked[-1]

    monkeypatch.setattr(coinlab.iteration, "run_rounds", recorded_rounds)
    row = _coin_iter_check(monkeypatch, lambda walks, stop, value: (np.zeros_like(stop), value))
    # the invariance probe's variants run under other configs
    checked = [rounds for rounds in checked if rounds.config == checked[0].config]
    config = checked[0].config
    stopped = np.concatenate([rounds.streams[:, config.complete_count + config.t_excluded:]
                              for rounds in checked])
    walks = np.cumsum(stopped, axis=-1)
    extreme = walks.min(axis=-1) if config.direction > 0 else walks.max(axis=-1)
    stopped_sum = np.concatenate([rounds.stopped_sum for rounds in checked])
    assert stopped.shape[:2] == (30, config.t_stopped) and config.t_stopped > 0
    assert (row["additive_failures"], row["stop_extreme_failures"], row["verdict"]) == (
        np.count_nonzero(stopped_sum), np.count_nonzero((extreme != 0).any(axis=-1)), "fail")


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


def _untimed_report(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    if code == 2:
        return code, None
    report = json.loads(out.getvalue())
    report["results"] = [r for r in report["results"] if r.get("kind") != "timing"]
    return code, report


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_an_unwritable_out_path_is_a_usage_error(target, tmp_path, capsys, monkeypatch):
    # refused before the experiment runs
    def never_run(cfg):
        raise AssertionError("the experiment ran")

    _, defaults, flags = _EXPERIMENTS["constants"]
    monkeypatch.setitem(_EXPERIMENTS, "constants", (never_run, defaults, flags))
    assert run(["constants", "--seed", "0", "--out", str(tmp_path / target)]) == 2
    assert os.listdir(tmp_path) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the pipe's read end is closed before the program starts, so its first
    # write to stdout fails as `coinlab constants | true` does when the
    # reader exits first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "coinlab.cli", "constants", "--seed", "0"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_runs_in_one_process_match_fresh_runs():
    # the parser is built once per process and must carry nothing from one
    # run to the next, a refused one included
    from coinlab.cli import _build_parser

    sequence = [
        ["coin-iter", "--seed", "2", "--iterations", "40", "--t-stopped", "0"],
        ["fact3", "--seed", "2", "--n", "5", "--trials", "300", "--bogus", "1"],
        ["agreement", "--seed", "2", "--t", "3", "--t-stopped", "2"],
        ["coin-iter", "--seed", "2", "--iterations", "0"],
        ["fact3", "--seed", "2", "--n", "5", "--trials", "300"],
        ["coin-iter", "--seed", "2", "--iterations", "40", "--direction", "-1"],
        ["agreement", "--seed", "2"],
    ]
    in_one_process = [_untimed_report(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(_untimed_report(argv))
    assert [code for code, _ in in_one_process] == [0, 2, 0, 2, 0, 0, 0]
    assert in_one_process == fresh


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


def _counter_out_of_memory(rng, count, start, **kwargs):
    # the block asks for more memory than there is, as a huge array would
    if threading.current_thread() is threading.main_thread():
        raise AssertionError("ran on the main thread, not on a pool thread")
    raise MemoryError("Unable to allocate 64.0 GiB for an array")


def test_a_block_out_of_memory_is_an_error_row(monkeypatch, tmp_path):
    import coinlab.mc

    monkeypatch.setattr(coinlab.mc, "_tail_counter", _counter_out_of_memory)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2 even on one CPU
    out = tmp_path / "r.json"
    # n = 1 makes blocks of 8192 walks, so 8193 trials are two blocks for two workers
    assert run(["fact3", "--seed", "0", "--n", "1", "--trials", "8193", "--workers", "2",
                "--out", str(out)]) == 1
    report = _load(out)
    error = report["results"][0]
    assert (error["kind"], error["verdict"]) == ("error", "fail")
    assert error["error"].startswith("MemoryError:")
    assert report["summary"]["fail"] == 1


def test_report_version_matches_pyproject(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"', pyproject.read_text(encoding="utf-8"), re.M)
    out = tmp_path / "r.json"
    assert run(["constants", "--seed", "1", "--out", str(out)]) == 0
    assert _load(out)["tool_version"] == version.group(1)


# draw_steps is the reference draw: the engines read the same coins through
# coin_steps, substream_steps and walk_peaks, and the tests compare them
# against it. prob_sum_eq is the endpoint's point law: the engines read
# whole tails, and the tests check them against its sums.
_UNREFERENCED_EXPORTS = {"draw_steps", "prob_sum_eq"}


@functools.cache
def _referenced_names() -> frozenset:
    """Every name a source file of the package or the benchmark refers to: a
    name, an attribute or an imported name (the strings of __all__ do not
    count)."""
    root = Path(__file__).resolve().parents[1]
    names = set()
    for path in [*(root / "src" / "coinlab").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return frozenset(names)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(coinlab.__path__)])
def test_every_export_resolves(module):
    # a name left in __all__ after its definition was deleted fails here, and
    # so does an exported name that no source file refers to
    namespace = importlib.import_module(f"coinlab.{module}")
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []
    assert [name for name in namespace.__all__
            if name not in _referenced_names() | _UNREFERENCED_EXPORTS] == []


_COIN_FORMAT_NAMES = {"coin_bytes", "substream_bytes", "SeedSequence"}


def _coin_format_uses(tree) -> list:
    """Line numbers where ``tree`` names a raw coin draw or SeedSequence, or
    compares with 128, a coin's byte threshold."""
    lines = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        compared = (isinstance(node, ast.Compare)
                    and any(isinstance(operand, ast.Constant) and operand.value == 128
                            for operand in [node.left, *node.comparators]))
        if name in _COIN_FORMAT_NAMES or compared:
            lines.append(node.lineno)
    return lines


def test_only_walks_seeds_and_decodes_coins():
    # every other module takes a generator from walks.substream and +/-1
    # steps from walks.coin_steps or substream_steps, so changing the coin
    # format (8 coins a byte, say) touches walks alone
    source = Path(__file__).resolve().parents[1] / "src" / "coinlab"
    uses = {path.name: _coin_format_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(source.glob("*.py")) if path.name != "walks.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    # the guard sees each form it looks for
    assert len(_coin_format_uses(ast.parse(
        "from .walks import coin_bytes\nnp.random.SeedSequence(1)\nsubstream_bytes()\n"
        "heads = raw >= 128\n"))) == 4


def _dead_private_names(trees) -> tuple[int, list]:
    """The module-level private names (``_x``) the parsed modules define,
    and those of them no module names outside the statement that defines
    it: as a name, an attribute or an imported name."""
    defined = []
    for tree in trees:
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)])
            defined += [(name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def uses(node, skip):
        if node is skip:
            return
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name is not None:
            yield name
        for child in ast.iter_child_nodes(node):
            yield from uses(child, skip)

    dead = [name for name, node in defined
            if not any(name == used for tree in trees for used in uses(tree, node))]
    return len(defined), dead


def test_no_private_helper_is_left_unused():
    # a helper the package no longer calls, which only tests would keep
    # alive, fails here: every module-level _name is used in the package
    source = Path(__file__).resolve().parents[1] / "src" / "coinlab"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))]
    defined, dead = _dead_private_names(trees)
    assert defined > 50 and dead == []
    # the guard sees a helper that only calls itself, and one that is only assigned
    assert _dead_private_names([ast.parse(
        "def _loop(n):\n    return _loop(n - 1)\n_SET, _USED = 1, 2\nprint(_USED)\n")]) == (
        3, ["_loop", "_SET"])


class _Captured(Exception):
    pass


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    # a perfbench module loaded by its path, as the benchmark runs it
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_resolve():
    # the benchmark imports, calls and hooks these names of the package; a
    # change that removes one fails here rather than in a benchmark run
    imported = []
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coinlab"):
                module = importlib.import_module(node.module)
                imported += [(node.module, alias.name) for alias in node.names]
                assert [alias.name for alias in node.names
                        if not hasattr(module, alias.name)] == [], path.name
    assert ("coinlab.walks", "StoppingStrategy") in imported
    checks = _perfbench_module("checks")
    assert checks.check_build_g_norms({"n": 32, "t": 1, "m": 32, "epsilon": 0.1}, 0) == []
    from coinlab.walks import WalkTrace
    assert isinstance(WalkTrace.__dict__["from_steps"], classmethod)


@pytest.mark.parametrize("name, coins", [("fact3", 16), ("lemma52-1", 200), ("lemma52-2", 3420),
                                         ("lemma71", 40), ("spectral", 32 * 32**2)])
def test_benchmark_reads_coins_per_trial_off_each_counter(name, coins, monkeypatch):
    # perfbench's traced runs count mc.flips from the keywords each counter
    # is bound with, so a renamed keyword would count no flips at all
    tracing = _perfbench_module("tracing")
    counters = []

    def capture(counter, *args, **kwargs):
        counters.append(counter)
        raise _Captured

    monkeypatch.setattr(mc, "run_blocks", capture)
    monkeypatch.setattr(matrices, "run_blocks", capture)
    engine, defaults, _ = _EXPERIMENTS[name]
    with pytest.raises(_Captured):
        engine(**_arguments(engine, {**defaults, "seed": 0, "workers": 1}))
    assert tracing.flips_per_trial(counters[0]) == coins


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
_PINNED_VERSION = "0.2.3"
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
    "coin-iter --iterations 3000 --direction 1": {"good_event_frequency_vs_benchmark": [431]},
    "coin-iter --iterations 3000 --direction -1": {"good_event_frequency_vs_benchmark": [438]},
    "coin-iter --iterations 3000 --t-stopped 0": {"good_event_frequency_vs_benchmark": [458]},
}
# `iterations_used` of `agreement --t 3 --t-excluded 1 --t-stopped 2` at --seed 0..9
_PINNED_ITERATIONS_USED = [2, 4, 3, 27, 7, 10, 15, 14, 19, 11]
# The spectral summary of a run over three blocks (64, 64 and 2 trials) whose
# 7 x 7 coin matrices leave 3 bytes of padding per draw, and its oracle row;
# any change to the order the coins are read in moves the mean norms
_PINNED_SPECTRAL_COMMAND = "spectral --n 7 --t 2 --m 5 --trials 130"
_PINNED_SPECTRAL = {
    "half_threshold_exceedances": {"correction_sums": 0, "full_sums": 0,
                                   "half_threshold": 28.411969308726206},
    "mean_norms": {"correction_sums": 5.940945159768028, "full_sums": 9.354677589516415,
                   "stopped_sums": 9.171523274850188},
    "worst_relative_difference": 4.4011768330498395e-16,
}
_REPIN_MESSAGE = (
    "a sampled tally or the version moved: a change to reported numbers must bump "
    "the version in pyproject.toml, then re-pin _PINNED_VERSION, _PINNED_SUCCESSES, "
    "_PINNED_ITERATIONS_USED and _PINNED_SPECTRAL"
)


def _successes(obj):
    if isinstance(obj, dict):
        found = [obj["successes"]] if "successes" in obj else []
        return found + [s for value in obj.values() for s in _successes(value)]
    if isinstance(obj, list):
        return [s for value in obj for s in _successes(value)]
    return []


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        run(argv)
    return json.loads(out.getvalue())


@pytest.mark.parametrize("command", list(_PINNED_SUCCESSES))
def test_sampled_tallies_are_pinned(command):
    report = _report(command.split() + ["--seed", "0"])
    tallies = {row["claim_id"]: _successes(row) for row in report["results"]
               if _successes(row)}
    assert (report["tool_version"], tallies) == (_PINNED_VERSION, _PINNED_SUCCESSES[command]), (
        _REPIN_MESSAGE)


def test_agreement_rounds_are_pinned():
    reports = [_report(["agreement", "--t", "3", "--t-excluded", "1", "--t-stopped", "2",
                        "--seed", str(seed)]) for seed in range(len(_PINNED_ITERATIONS_USED))]
    used = [report["results"][0]["iterations_used"] for report in reports]
    versions = {report["tool_version"] for report in reports}
    assert (versions, used) == ({_PINNED_VERSION}, _PINNED_ITERATIONS_USED), _REPIN_MESSAGE


def test_spectral_norms_are_pinned():
    report = _report(_PINNED_SPECTRAL_COMMAND.split() + ["--seed", "0"])
    summary, oracle = report["results"][1:3]
    pinned = {key: summary[key] for key in ("half_threshold_exceedances", "mean_norms")}
    pinned["worst_relative_difference"] = oracle["worst_relative_difference"]
    assert (report["tool_version"], pinned) == (_PINNED_VERSION, _PINNED_SPECTRAL), _REPIN_MESSAGE


def _experiment_dicts_outside_timed_run() -> list[str]:
    """Each dict display in the package with an "experiment" key, as
    file:line, other than those in cli._timed_run."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "coinlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and path.name == "cli.py"
                   and function.name == "_timed_run"
                   for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Dict) and id(node) not in allowed
                  and any(isinstance(key, ast.Constant) and key.value == "experiment"
                          for key in node.keys)]
    return found


def test_only_timed_run_writes_the_experiment_key():
    # an experiment returns its rows without naming itself; the CLI names
    # every row, error and timing rows included, in one place
    assert _experiment_dicts_outside_timed_run() == []


# The keys of every distinct row shape of `all --seed 0 --trials 200`, per
# experiment in order of first appearance, a nested dict's keys in brackets.
# JSON and CSV reports keep this order, so a moved key is a changed report.
_ESTIMATE = "(successes trials p_hat ci_low ci_high confidence seed)"
_TIMING = "experiment kind wall_time_s"
_ROW_LAYOUTS = {
    "fact3": [
        "experiment claim_id kind thresholds_checked mismatches verdict",
        f"experiment claim_id empirical{_ESTIMATE} analytic_bound relation verdict "
        "details(walk_length threshold exact_probability ci_covers_exact)",
        _TIMING,
    ],
    "lemma52-1": [
        "experiment claim_id kind analytic_bound e_minus_11 below_e_minus_11",
        f"experiment claim_id empirical{_ESTIMATE} analytic_bound relation verdict "
        f"details(walk_length beta_quarter integer_threshold plus_direction{_ESTIMATE} "
        f"minus_direction{_ESTIMATE})",
        _TIMING,
    ],
    "lemma52-2": [
        "experiment claim_id verdict report(params(n t epsilon c1 m) direction trials seed "
        f"p_first{_ESTIMATE} p_adversary_max{_ESTIMATE} p_full{_ESTIMATE} "
        "structural_check(claim lhs rhs ci_slack passed) first_benchmark)",
        "experiment claim_id kind p_first benchmark",
        _TIMING,
    ],
    "lemma71": [
        f"experiment claim_id empirical{_ESTIMATE} analytic_bound relation verdict "
        f"details(walk_length threshold effective_integer_threshold "
        f"endpoint_estimate{_ESTIMATE} ci_slack)",
        "experiment claim_id kind reflection enumeration twice_endpoint_tail verdict",
        _TIMING,
    ],
    "coin-iter": [
        "experiment claim_id iterations additive_failures stop_extreme_failures verdict",
        "experiment claim_id paired_rounds verdict",
        f"experiment claim_id kind empirical{_ESTIMATE} benchmark",
        _TIMING,
    ],
    "agreement": [
        "experiment claim_id agreed iterations_used max_iterations verdict",
        _TIMING,
    ],
    "spectral": [
        f"experiment claim_id empirical{_ESTIMATE} analytic_bound relation verdict "
        "details(threshold)",
        "experiment claim_id kind threshold "
        "half_threshold_exceedances(full_sums correction_sums half_threshold) "
        "mean_norms(stopped_sums full_sums correction_sums) triangle_checked",
        "experiment claim_id matrices_checked worst_relative_difference tolerance verdict",
        _TIMING,
    ],
    "constants": [
        "experiment claim_id description lhs rhs relation verdict",
        "experiment kind notes",
        "experiment claim_id kind "
        "thresholds(alpha beta beta_quarter beta_half alpha_prime norm_threshold)",
        _TIMING,
    ],
}


def _layout(row: dict) -> str:
    return " ".join(f"{key}({_layout(value)})" if isinstance(value, dict) else key
                    for key, value in row.items())


def test_row_layouts_are_pinned():
    report = _report(["all", "--seed", "0", "--trials", "200", "--workers", "1"])
    layouts: dict[str, list[str]] = {}
    for row in report["results"]:
        shapes = layouts.setdefault(row["experiment"], [])
        if _layout(row) not in shapes:
            shapes.append(_layout(row))
    assert layouts == _ROW_LAYOUTS
    assert (len(report["results"]), sum(map(len, layouts.values()))) == (47, 26)
