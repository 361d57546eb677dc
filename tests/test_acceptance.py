"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

These run the experiments at full scale with pinned seeds, so the suite is
slower than the unit tests but fully deterministic.
"""
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from coinlab.bounds import Params, check_claims, derive, lemma52_part1_bound
from coinlab.cli import run as cli_run
from coinlab.exact import (
    prob_max_ge_enumeration,
    prob_max_ge_reflection,
    prob_sum_ge,
)
from coinlab.iteration import IterationConfig, run_agreement, run_rounds
from coinlab.matrices import norm_2x2, spectral_norm, verify_norm_bound
from coinlab.mc import (
    verify_lemma52_part1,
    verify_lemma52_part2,
    verify_lemma71,
)


@pytest.fixture
def announce(capfd):
    def _announce(label, ok):
        with capfd.disabled():
            print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}", flush=True)
        return ok
    return _announce


def test_criterion_1a_reflection_identity_exact(announce):
    ok = all(
        prob_max_ge_enumeration(n, r) == prob_max_ge_reflection(n, r)
        for n in range(1, 17)
        for r in range(1, n + 1)
    )
    assert announce("1a reflection identity (exact, n <= 16)", ok)


def test_criterion_1b_strict_corollary(announce):
    # The claim as stated: whenever 2 Pr(S_n >= r) > 0, the running-max tail
    # is STRICTLY below it. Parity-tight pairs (n + r odd) are exact
    # equalities, so this fails by design and stays red.
    violations = [
        (n, r)
        for n in range(1, 17)
        for r in range(1, n + 1)
        if prob_sum_ge(n, r) > 0
        and not prob_max_ge_reflection(n, r) < 2 * prob_sum_ge(n, r)
    ]
    ok = not violations
    announce("1b strict inequality corollary (as stated)", ok)
    assert ok, (
        f"strict inequality fails on {len(violations)} parity-tight pairs, "
        f"first few: {violations[:4]}; equality holds there instead"
    )


def test_criterion_2_stopped_stream_tail(announce):
    bound = lemma52_part1_bound(Params(n=1000, t=5))
    below = bound <= math.exp(-11.0)
    verdict = verify_lemma52_part1(Params(n=200, t=1), trials=10**6, seed=0, workers=2)
    ok = below and verdict.verdict == "pass"
    assert announce("2 stopped-stream deviation tail (analytic + MC)", ok), (
        f"bound={bound}, mc verdict={verdict.verdict}, "
        f"successes={verdict.empirical.successes}"
    )


def test_criterion_3_two_phase_structure(announce):
    report = verify_lemma52_part2(Params(n=60, t=3), trials=10**5, seed=0, workers=2)
    ok = report.structural_check["passed"]
    announce("3 two-phase survival decomposition", ok)
    # the .211 benchmark is reported, never judged
    assert report.first_benchmark == 0.211
    assert ok, report.structural_check


def test_criterion_4_constant_chain(announce):
    report = check_claims(Params(n=1000, t=5))
    ok = all(c.passed for c in report.claims) and len(report.claims) == 4 and len(report.notes) >= 1
    assert announce("4 resilience constant chain", ok), asdict(report)


def test_criterion_5_running_max_tail(announce):
    params = Params(n=40, t=2, m=10, c1=0.05)
    results = verify_lemma71(params, trials=10**5, seed=0, workers=2)
    sweep_ok = len(results) == 4 and all(v.verdict == "pass" for v in results)
    exact_ok = (
        prob_max_ge_reflection(8, 2) == prob_max_ge_enumeration(8, 2)
        and prob_max_ge_reflection(8, 2) <= 2 * prob_sum_ge(8, 2)
    )
    ok = sweep_ok and exact_ok
    assert announce("5 running-max tail vs endpoint tail (sweep + exact)", ok), (
        [(v.details["threshold"], v.verdict) for v in results]
    )


def test_criterion_6_norm_concentration(announce):
    params = Params(n=32, t=1, m=32, epsilon=0.1)
    report = verify_norm_bound(params, trials=1000, seed=0, workers=2)
    bound_ok = report.exceedance.verdict == "pass"

    rng = np.random.default_rng(np.random.SeedSequence((0, 0xFACE)))
    worst = 0.0
    for _ in range(1000):
        matrix = rng.integers(-9, 10, size=(2, 2))
        if not np.any(matrix):
            matrix[0, 0] = 1
        expected = norm_2x2(matrix)
        worst = max(worst, abs(spectral_norm(matrix).value - expected) / expected)
    oracle_ok = worst <= 1e-6
    ok = bound_ok and oracle_ok
    assert announce("6 iteration-sum norm concentration + 2x2 oracle", ok), (
        f"exceedance={report.exceedance.verdict}, worst oracle diff={worst}"
    )


def test_criterion_7_iteration_bookkeeping(announce):
    config = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=0)
    k, stopped_from = config.complete_count, config.complete_count + config.t_excluded
    rounds = run_rounds(config, 0, 1000)
    additive_ok = True
    for streams, stops, total in zip(rounds.streams, rounds.stop_indices, rounds.total):
        core = int(streams[:k].sum())
        excluded = int(streams[k:stopped_from].sum())
        stopped = 0
        for row, stop in zip(streams[stopped_from:], stops):
            prefix = np.cumsum(row)
            stopped += int(prefix[stop - 1]) if stop >= 1 else 0
        rebuilt = core + excluded + stopped + rounds.ambiguous_term + config.bad_contribution
        if rebuilt != total:
            additive_ok = False
            break

    variants = [
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=0,
                        ambiguous=0),
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=0,
                        bad_contribution=-180),
    ]
    base_events = run_rounds(config, 0, 200).good_event
    invariance_ok = all(
        np.array_equal(run_rounds(v, 0, 200).good_event, base_events) for v in variants
    )

    clean = IterationConfig(n=60, t=0, seed=0)
    result = run_agreement(clean, 1000)
    i = result.iterations_used - 1
    events = run_rounds(clean, 0, i + 1).good_event
    equality_ok = result.agreed and events[i] and not events[:i].any()
    ok = additive_ok and invariance_ok and equality_ok
    assert announce("7 iteration bookkeeping (additive + invariant + t=0)", ok), (
        f"additive={additive_ok}, invariance={invariance_ok}, t0={equality_ok}"
    )


def _strip_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def test_criterion_8_deterministic_reports(announce, tmp_path):
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    code1 = cli_run(["all", "--seed", "0", "--workers", "1", "--out", str(out1)])
    code2 = cli_run(["all", "--seed", "0", "--workers", "2", "--out", str(out2)])
    with open(out1, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(out2, encoding="utf-8") as handle:
        b = json.load(handle)
    identical = json.dumps(_strip_wall_times(a), sort_keys=True) == json.dumps(
        _strip_wall_times(b), sort_keys=True
    )
    ok = code1 == 0 and code2 == 0 and identical and a["summary"]["fail"] == 0
    assert announce("8 worker-count-independent reports", ok), (
        f"exit codes ({code1}, {code2}), identical={identical}, "
        f"summary={a['summary']}"
    )
