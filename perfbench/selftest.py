#!/usr/bin/env python3
"""Self-tests of the benchmark's checks, kept apart from the project's test
suite because they run the program at full size (about two minutes).

    python3 perfbench/selftest.py

Shows that the checks pass honest reports and reject wrong answers, that
reports do not depend on --workers, that traced runs repeat their counts
exactly, and that the benchmark refuses to run without the program.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import coinlab.matrices  # noqa: E402
import coinlab.mc  # noqa: E402
from coinlab.cli import run as coinlab_run  # noqa: E402

import checks  # noqa: E402
import run as bench  # noqa: E402

SCRATCH = bench.OUT / "selftest"


def _report(argv: list[str], name: str) -> tuple[dict, int]:
    path = SCRATCH / f"{name}.json"
    code = coinlab_run(argv + ["--out", str(path)])
    return json.loads(path.read_text(encoding="utf-8")), code


def _biased(counter):
    """The counter with one extra hit per block in its first tally."""
    def biased(rng, count, start, **kw):
        tallies = list(counter(rng, count, start, **kw))
        tallies[0] += 1
        return tallies
    return biased


def test_honest_reports_pass():
    for argv in (["fact3"], ["lemma52-1"], ["spectral", "--trials", "200"]):
        report, code = _report(argv + ["--seed", "11"], "honest")
        errors = checks.check_reports([(report, code)], 11)
        assert not errors, errors


def test_counter_biased_by_one_hit_per_block_fails():
    # fact3's top thresholds and lemma52-1 expect fewer hits than there
    # are blocks, so one extra hit per block is far outside the region.
    for name, argv in (("_max_ge_counter", ["fact3"]),
                       ("_directional_hit_counter", ["lemma52-1"])):
        original = getattr(coinlab.mc, name)
        setattr(coinlab.mc, name, _biased(original))
        try:
            report, code = _report(argv + ["--seed", "11"], "biased")
        finally:
            setattr(coinlab.mc, name, original)
        errors = checks.check_reports([(report, code)], 11)
        assert any("acceptance region" in e for e in errors), (name, errors)


def test_wrong_spectral_answers_fail():
    report, code = _report(["spectral", "--seed", "12", "--trials", "200"], "spectral")
    summary = next(r for r in report["results"] if r.get("claim_id") == "norm_decomposition_summary")
    summary["mean_norms"]["stopped_sums"] *= 1.03  # resolution at 200 trials: ~2%
    errors = checks.check_reports([(report, code)], 12)
    assert any("spectral mean stopped_sums" in e for e in errors), errors

    original = coinlab.matrices.spectral_norm

    def off_by_a_thousandth(matrix, *args, **kwargs):
        est = original(matrix, *args, **kwargs)
        return type(est)(est.value * 1.001, est.relative_error_bound, est.iterations_used)

    coinlab.matrices.spectral_norm = off_by_a_thousandth
    try:
        errors = checks.check_build_g_norms(checks.DEFAULTS["spectral"], 12)
    finally:
        coinlab.matrices.spectral_norm = original
    assert errors, "a 0.1% norm error passed the SVD check"


def test_reports_do_not_depend_on_workers():
    for argv in (["all", "--trials", "1000"], ["fact3", "--trials", "30000"]):
        one, _ = _report(argv + ["--seed", "13", "--workers", "1"], "w1")
        two, _ = _report(argv + ["--seed", "13", "--workers", "2"], "w2")
        assert checks.strip_timing(one) == checks.strip_timing(two), argv


def test_traced_counts_repeat():
    for workload in ("rounds", "spectral"):
        metrics = []
        for index in (0, 1):
            result = bench.run_pass(workload, 14, 100 + index, trace=True)
            reports, _ = bench.load_reports(result)
            values = bench.layer_metrics(result, reports, result["wall_s"])
            metrics.append({k: v for k, v in values.items() if isinstance(v, int)})
        assert metrics[0] == metrics[1], (workload, metrics)
        assert metrics[0]["walks.apply_stop.calls"] > 0, metrics[0]


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "streams", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
