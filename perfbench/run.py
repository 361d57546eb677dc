#!/usr/bin/env python3
"""Benchmark of the coinlab CLI: four workloads, end-to-end metrics from
untraced runs, per-module metrics from a traced run, and every report
checked against values the benchmark computes itself.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/coinlab``. Each workload
pass runs in a fresh interpreter (``runner.py``) with one BLAS thread per
process; passes repeat until about ``--seconds`` have gone by. With
``--trace 1`` the run makes one untraced and one traced pass instead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from BENCHMARK.json. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

STREAMS = ("fact3", "lemma52-1", "lemma52-2", "lemma71")
COIN_ITER_ROUNDS = 20000
AGREEMENT_SEEDS = range(100)
AGREEMENT_KNOBS = ["--t", "3", "--t-excluded", "1", "--t-stopped", "2"]
SETUP_ONLY_SAMPLES = 1
OP_TIMEOUT_S = 170


def workload_commands(workload: str, seed: int) -> tuple[list[list[str]], int]:
    """The coinlab argument lists of one pass, and its --workers value."""
    s = str(seed)
    if workload == "streams":
        return [[name, "--seed", s, "--workers", "1"] for name in STREAMS], 1
    if workload == "spectral":
        return [["spectral", "--seed", s, "--workers", "1"]], 1
    if workload == "rounds":
        coin_iter = ["coin-iter", "--seed", s, "--iterations", str(COIN_ITER_ROUNDS), "--workers", "1"]
        agreement = [["agreement", "--seed", str(a), *AGREEMENT_KNOBS, "--workers", "1"]
                     for a in AGREEMENT_SEEDS]
        return [coin_iter, *agreement], 1
    if workload == "all-pooled":
        return [["all", "--seed", s, "--workers", "2"]], 2
    raise ValueError(f"unknown workload {workload!r}")


def report_flips(report: dict) -> int:
    """Coin flips a report's parameters call for, counted from the
    parameters: trials x walk length per estimate, m n^2 per spectral trial,
    (n - t) n per simulated round."""
    from checks import experiment_rows

    flips = 0
    for experiment, rows, cfg in experiment_rows(report):
        n, t, trials = cfg.get("n"), cfg.get("t"), cfg.get("trials")
        if experiment == "fact3":
            flips += n * trials * n  # one sample of n-step walks per threshold 1..n
        elif experiment == "lemma52-1":
            flips += trials * n * t
        elif experiment == "lemma52-2":
            flips += trials * n * (n - t)
        elif experiment == "lemma71":
            flips += 4 * trials * int(round(cfg["c1"] * cfg["m"] * n * t))
        elif experiment == "spectral":
            flips += trials * cfg["m"] * n * n
        elif experiment == "coin-iter":
            rounds = cfg["iterations"] + 3 * min(cfg["iterations"], 200)  # + invariance probes
            flips += rounds * (n - t) * n
        elif experiment == "agreement":
            flips += sum(r["iterations_used"] for r in rows if "iterations_used" in r) * (n - t) * n
    return flips


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(spec: dict) -> dict:
    """Start runner.py on `spec`; returns its JSON line plus setup_s and
    the child's lifetime."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    ended = time.monotonic()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"runner exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    result["lifetime_s"] = ended - started
    return result


def run_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    commands, workers = workload_commands(workload, seed)
    paths = [OUT / f"pass{index}_{i}.json" for i in range(len(commands))]
    spec = {
        "src": str(SRC),
        "commands": [argv + ["--out", str(path)] for argv, path in zip(commands, paths)],
        "trace": trace,
    }
    result = run_child(spec)
    result["workers"] = workers
    result["paths"] = paths
    return result


def load_reports(result: dict) -> tuple[list[tuple[dict, int]], int]:
    """The (report, exit code) pairs of a pass and how many invocations
    failed: crashed, refused their arguments or wrote no report."""
    reports, failed = [], 0
    for path, code in zip(result["paths"], result["exit_codes"]):
        if code not in (0, 1) or not path.is_file():
            failed += 1
            continue
        reports.append((json.loads(path.read_text(encoding="utf-8")), code))
    return reports, failed


def cli_timings(reports: list[tuple[dict, int]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for report, _ in reports:
        for row in report["results"]:
            if row.get("kind") == "timing":
                out[row["experiment"]] = out.get(row["experiment"], 0.0) + row["wall_time_s"]
    return out


def report_bytes(result: dict) -> int:
    """Bytes of the reports written, not counting the digits of their
    wall-time values, which differ from run to run."""
    total = 0
    for path in result["paths"]:
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            timing = [r["wall_time_s"] for r in json.loads(text)["results"] if r.get("kind") == "timing"]
            total += len(text.encode("utf-8")) - sum(len(json.dumps(v)) for v in timing)
    return total


def layer_metrics(traced: dict, reports: list[tuple[dict, int]], untraced_wall: float) -> dict[str, float]:
    tr = traced["trace"]
    calls, total, self_time = tr["calls"], tr["total"], tr["self"]
    counts, group = tr["counts"], tr["group"]
    run_blocks_s = total.get("mc.run_blocks", 0.0)
    flips = counts.get("mc.flips", 0)
    m = {
        "mc.run_blocks.calls": calls.get("mc.run_blocks", 0),
        "mc.run_blocks.self_s": self_time.get("mc.run_blocks", 0.0),
        "mc.blocks": counts.get("mc.blocks", 0),
        "mc.flips": flips,
        "mc.flips_per_s": flips / run_blocks_s if run_blocks_s > 0 else 0.0,
        "mc.clopper_pearson.calls": calls.get("mc.clopper_pearson", 0),
        "mc.clopper_pearson.s": total.get("mc.clopper_pearson", 0.0),
        "mc.pool_starts": counts.get("mc.pool_starts", 0),
        "mc.pool_start_s": tr["pool_start_s"],
        "walks.from_steps.calls": calls.get("walks.from_steps", 0),
        "walks.from_steps.s": total.get("walks.from_steps", 0.0),
        "walks.apply_stop.calls": calls.get("walks.apply_stop", 0),
        "walks.apply_stop.s": total.get("walks.apply_stop", 0.0),
        "matrices.build_G.calls": calls.get("matrices.build_G", 0),
        "matrices.build_G.self_s": self_time.get("matrices.build_G", 0.0),
        "matrices.build_H.calls": calls.get("matrices.build_H", 0),
        "matrices.build_H.self_s": self_time.get("matrices.build_H", 0.0),
        "matrices.spectral_norm.calls": calls.get("matrices.spectral_norm", 0),
        "matrices.spectral_norm.s": total.get("matrices.spectral_norm", 0.0),
        "matrices.power_iters": counts.get("matrices.power_iters", 0),
        "iteration.run_iteration.calls": calls.get("iteration.run_iteration", 0),
        "iteration.run_iteration.self_s": self_time.get("iteration.run_iteration", 0.0),
        "exact.calls": sum(v for k, v in calls.items() if k.startswith("exact.")),
        "exact.s": group.get("exact", 0.0),
        "bounds.derive.calls": calls.get("bounds.derive", 0),
        "bounds.s": group.get("bounds", 0.0),
        "cli.self_s": self_time.get("cli.run", 0.0),
        "cli.report_bytes": report_bytes(traced),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }
    timings = cli_timings(reports)
    for name in (*STREAMS, "coin-iter", "agreement", "spectral", "constants"):
        m[f"cli.{name}.s"] = timings.get(name, 0.0)
    return m


def end_to_end_metrics(passes: list[dict], setups: list[float], flips: int) -> dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in passes)
    rss_kb = statistics.median(
        p["maxrss_self_kb"] + p["workers"] * p["maxrss_children_kb"] for p in passes
    )
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "flips_per_s": flips / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("streams", "spectral", "rounds", "all-pooled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coinlab" / "cli.py").is_file():
        print(f"error: no coinlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks call build_G and spectral_norm
    metric_specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Byte-compile once so the first measured import does not pay for it.
    compileall.compile_dir(str(SRC), quiet=1)
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    seed = args.seed % 2**32

    passes = []
    if args.trace:
        passes.append(run_pass(args.workload, seed, 0, trace=False))
        passes.append(run_pass(args.workload, seed, 1, trace=True))
    else:
        began = time.monotonic()
        while True:
            passes.append(run_pass(args.workload, seed, len(passes), trace=False))
            # Stop when one more pass would end more than half a pass late.
            if time.monotonic() - began + 0.5 * passes[-1]["lifetime_s"] >= args.seconds:
                break
    setups = [p["setup_s"] for p in passes]
    if not args.trace:
        setups += [run_child({"src": str(SRC), "setup_only": True})["setup_s"]
                   for _ in range(SETUP_ONLY_SAMPLES)]

    from checks import check_reports, strip_timing

    attempted = failed = 0
    errors: list[str] = []
    first: list[dict] | None = None
    pass_reports = []
    for p in passes:
        reports, bad = load_reports(p)
        attempted += len(p["paths"])
        failed += bad
        pass_reports.append(reports)
        stripped = [strip_timing(r) for r, _ in reports]
        if first is None:
            first = stripped
            errors.extend(check_reports(reports, seed))
        elif stripped != first:
            errors.append("a repeated pass gave a different report")

    if args.trace:
        values = layer_metrics(passes[1], pass_reports[1], passes[0]["wall_s"])
        specs = metric_specs["per_layer"]
    else:
        flips = sum(report_flips(r) for r, _ in pass_reports[0])
        values = end_to_end_metrics(passes, setups, flips)
        specs = metric_specs["end_to_end"]
    print("pass walls (s): " + " ".join(f"{p['wall_s']:.3f}" for p in passes), file=sys.stderr)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
