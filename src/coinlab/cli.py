"""Command-line front end: seeded experiments, JSON/CSV reports, exit codes.

Every numeric field of a report is a pure function of (subcommand,
parameters, seed, trials); wall times are reported but excluded from that
guarantee. Exit status: 0 when no experiment fails (inconclusive CI
straddles are reported but non-blocking), 1 on any failure, including a
spectral norm whose certificate misses its tolerance, an experiment that
runs out of memory (``MemoryError``) and a reader that closes standard
output before the report is written, 2 on usage errors, including
parameters an experiment rejects and config-file values of the wrong type.

Each experiment is declared once, in ``_EXPERIMENTS``: its engine, its
defaults and the flags it reads beyond the common ones. The subparsers,
``all`` and the config-file checks are derived from that table, so a
config file accepts exactly the keys the subcommand accepts as flags. An
engine returns its experiment's report rows; ``_timed_run`` leads each row
with the experiment's name and adds the error and timing rows.
"""
from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import os
import sys
import time

from . import __version__
from .bounds import Params, check_claims
from .iteration import IterationConfig, verify_agreement, verify_coin_iter
from .matrices import ConvergenceError, SpectralCheckError, verify_norm_bound
from .mc import (
    DEFAULT_TRIALS_COMPOSITE,
    DEFAULT_TRIALS_SINGLE,
    verify_fact3_mc,
    verify_lemma52_part1,
    verify_lemma52_part2,
    verify_lemma71,
)

__all__ = ["run", "main"]


# --- the experiment table ---

# every flag and the type of its value
_FLAG_KINDS: dict[str, type] = {
    "seed": int, "workers": int, "trials": int, "out": str, "format": str, "config": str,
    "n": int, "t": int, "epsilon": float, "c1": float, "m": int,
    "t_excluded": int, "t_stopped": int, "ambiguous": int, "direction": int,
    "iterations": int, "max_iterations": int,
}
_COMMON_FLAGS = ("seed", "workers", "out", "format", "config")
_ROUND_FLAGS = ("n", "t", "t_excluded", "t_stopped", "ambiguous", "direction")

# name -> (engine, defaults, the flags beyond _COMMON_FLAGS that the engine
# reads): the subparsers, `all`, and config-file key checking and casting
# are all derived from it. The engine returns the experiment's report rows.
_EXPERIMENTS: dict[str, tuple] = {
    "fact3": (verify_fact3_mc, {"n": 16, "trials": DEFAULT_TRIALS_SINGLE}, ("trials", "n")),
    "lemma52-1": (verify_lemma52_part1, {"n": 200, "t": 1, "trials": DEFAULT_TRIALS_SINGLE},
                  ("trials", "n", "t")),
    "lemma52-2": (verify_lemma52_part2, {"n": 60, "t": 3, "trials": DEFAULT_TRIALS_COMPOSITE},
                  ("trials", "n", "t")),
    "lemma71": (verify_lemma71, {"n": 40, "t": 2, "m": 10, "c1": 0.05,
                                 "trials": DEFAULT_TRIALS_COMPOSITE},
                ("trials", "n", "t", "c1", "m")),
    "coin-iter": (verify_coin_iter, {"n": 60, "t": 3, "t_excluded": 1, "t_stopped": 2,
                                     "iterations": 1000}, _ROUND_FLAGS + ("iterations",)),
    "agreement": (verify_agreement, {"n": 60, "t": 0, "max_iterations": 1000},
                  _ROUND_FLAGS + ("max_iterations",)),
    "spectral": (verify_norm_bound, {"n": 32, "t": 1, "m": 32, "epsilon": 0.1, "trials": 1000},
                 ("trials", "n", "t", "epsilon", "m")),
    "constants": (check_claims, {"n": 1000, "t": 5}, ("n", "t", "epsilon", "m")),
}
# `all` has no engine or defaults of its own; its --trials reaches every
# experiment that samples
_ALL_FLAGS = ("trials",)


def _flags_of(subcommand: str) -> tuple[str, ...]:
    """Every flag the subcommand accepts, on argv and in a config file."""
    own = _EXPERIMENTS[subcommand][2] if subcommand in _EXPERIMENTS else _ALL_FLAGS
    return _COMMON_FLAGS + own


# --- configuration plumbing ---

def _params_from(cfg: dict) -> Params:
    return Params(**{k: cfg[k] for k in ("n", "t", "epsilon", "c1", "m") if k in cfg})


def _iteration_config(cfg: dict) -> IterationConfig:
    return IterationConfig(**{k: cfg[k] for k in _ROUND_FLAGS + ("seed",) if k in cfg})


def _arguments(engine, cfg: dict) -> dict:
    """The engine's arguments, by parameter name: ``params`` and ``config``
    are built from the flags, and any other name is the flag of that name."""
    built = {"params": _params_from, "config": _iteration_config}
    return {name: built[name](cfg) if name in built else cfg[name]
            for name in inspect.signature(engine).parameters}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


@functools.cache  # parsing leaves the parser as it was, so one per process serves every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinlab",
        description="verification experiments for adversarially stopped coinflip sums",
    )
    parser.add_argument("--version", action="version", version=f"coinlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_flags(p, flags):
        for name in flags:
            p.add_argument(f"--{name.replace('_', '-')}", type=_FLAG_KINDS[name], default=None)

    for name in _EXPERIMENTS:
        # no prefix matching, so `fact3 --t 1` is refused, not read as --trials
        add_flags(sub.add_parser(name, allow_abbrev=False), _flags_of(name))
    p_all = sub.add_parser("all", allow_abbrev=False,
                           help="run every experiment with its documented defaults")
    add_flags(p_all, _flags_of("all"))
    return parser


def _merged_config(subcommand: str, args: argparse.Namespace) -> dict:
    defaults = _EXPERIMENTS[subcommand][1] if subcommand in _EXPERIMENTS else {}
    kinds = {name: _FLAG_KINDS[name] for name in _flags_of(subcommand)}
    cfg = {"workers": 1, "format": "json", "out": None, **defaults}
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(kinds)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in file_values.items():
            try:
                cfg[key] = kinds[key](text)
            except ValueError:
                raise ValueError(f"{args.config}: {key} = {text!r} is not "
                                 f"a valid {kinds[key].__name__}") from None
    for name in kinds:
        value = getattr(args, name)
        if value is not None:
            cfg[name] = value
    if cfg.get("seed") is None:
        raise ValueError("--seed is required (no wall-clock seeding)")
    if cfg["seed"] < 0:
        raise ValueError("--seed must be non-negative")
    if cfg["workers"] < 1:
        raise ValueError("--workers must be >= 1")
    if cfg.get("format") not in ("json", "csv"):
        raise ValueError(f"--format must be json or csv, got {cfg.get('format')!r}")
    # refused before any experiment runs, so a long run is not lost to a
    # typo in the path; the file itself is opened only once the report is ready
    out = cfg["out"]
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ValueError(f"--out must name a file in an existing directory, got {out!r}")
    return cfg


# --- report assembly ---

def _execute(subcommand: str, cfg: dict) -> list[dict]:
    if subcommand == "all":
        return [row for name, (_, defaults, _) in _EXPERIMENTS.items()
                for row in _timed_run(name, {**defaults, **cfg})]
    return _timed_run(subcommand, cfg)


def _timed_run(name: str, cfg: dict) -> list[dict]:
    """The experiment's rows, then its wall time, each row led by the
    experiment's name; an engine that fails at run time gives one error row."""
    engine = _EXPERIMENTS[name][0]
    start = time.perf_counter()
    try:
        rows = engine(**_arguments(engine, cfg))
    except (ConvergenceError, SpectralCheckError, MemoryError) as exc:
        rows = [{"kind": "error", "error": f"{type(exc).__name__}: {exc}", "verdict": "fail"}]
    rows.append({"kind": "timing", "wall_time_s": time.perf_counter() - start})
    return [{"experiment": name, **row} for row in rows]


def _summarize(rows: list[dict]) -> dict:
    summary = {"pass": 0, "fail": 0, "inconclusive": 0}
    for row in rows:
        verdict = row.get("verdict")
        if verdict in summary:
            summary[verdict] += 1
    return summary


_CSV_COLUMNS = (
    "experiment", "claim_id", "kind", "verdict", "relation", "analytic_bound",
    "successes", "trials", "p_hat", "ci_low", "ci_high", "lhs", "rhs", "description",
)


def _to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        if row.get("kind") == "timing":
            continue  # wall time is outside the determinism contract
        flat = dict(row)
        empirical = flat.get("empirical")
        if isinstance(empirical, dict):
            for key in ("successes", "trials", "p_hat", "ci_low", "ci_high"):
                flat.setdefault(key, empirical.get(key))
        writer.writerow([
            "" if flat.get(col) is None else
            (repr(flat[col]) if isinstance(flat[col], float) else flat[col])
            for col in _CSV_COLUMNS
        ])
    return buffer.getvalue()


def _emit(report: dict, cfg: dict) -> bool:
    """Write the report to ``--out`` or stdout; False, with an error line,
    when the ``--out`` file cannot be written."""
    if cfg["format"] == "json":
        text = json.dumps(report, indent=2)
    else:
        text = _to_csv(report["results"])
    if cfg.get("out"):
        try:
            with open(cfg["out"], "w", encoding="utf-8") as handle:
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return False
    else:
        print(text)
    return True


def run(argv=None) -> int:
    """Parse arguments, run the experiments, emit the report; returns the
    process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merged_config(args.subcommand, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = _execute(args.subcommand, cfg)
    except (ValueError, OverflowError) as exc:  # parameters the experiments reject
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # workers/out/format/config steer execution, emission and where the
    # values came from, not the experiments, so they stay out of the echoed
    # config (which is determinism-covered).
    echoed = {k: v for k, v in sorted(cfg.items())
              if v is not None and k not in ("workers", "out", "format", "config")}
    report = {
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "config": echoed,
        "results": results,
        "summary": _summarize(results),
    }
    if not _emit(report, cfg):
        return 2
    return 1 if report["summary"]["fail"] > 0 else 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output before the report was written
        # (``coinlab ... | head -1``): exit 1 without a traceback, with stdout
        # pointed at devnull so the interpreter's last flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
