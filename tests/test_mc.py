import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlab.mc
from coinlab.bounds import Params, derive, verdict
from coinlab.mc import (
    McEstimate,
    block_size_for,
    clopper_pearson,
    run_blocks,
    verdict_for,
    verify_fact3_mc,
    verify_lemma52_part1,
    verify_lemma52_part2,
    verify_lemma71,
)
from coinlab.exact import prob_max_ge_reflection
from coinlab.walks import StoppingStrategy, WalkTrace, apply_stop, draw_steps, walk_peaks


def _sum_counter(rng, count, start):
    return np.array([float(rng.integers(0, 2, size=count).sum()), count], dtype=np.float64)


def test_block_size_bounds():
    assert block_size_for(1) == 8192
    assert block_size_for(10**6) == 128
    assert 128 <= block_size_for(3420) <= 8192


def test_run_blocks_workers_do_not_change_result():
    serial = run_blocks(_sum_counter, 50_000, seed=9, block_size=1024, workers=1)
    par2 = run_blocks(_sum_counter, 50_000, seed=9, block_size=1024, workers=2)
    par4 = run_blocks(_sum_counter, 50_000, seed=9, block_size=1024, workers=4)
    assert np.array_equal(serial, par2)
    assert np.array_equal(serial, par4)
    assert serial[1] == 50_000


def test_run_blocks_seed_changes_result():
    a = run_blocks(_sum_counter, 20_000, seed=1, block_size=512)
    b = run_blocks(_sum_counter, 20_000, seed=2, block_size=512)
    assert a[0] != b[0]


def test_run_blocks_caps_pool_size(monkeypatch):
    # a stand-in pool that records its size and maps serially, so no
    # process is started whatever size is asked for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    monkeypatch.setattr(coinlab.mc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = run_blocks(_sum_counter, 1000, seed=3, block_size=100)
    pooled = run_blocks(_sum_counter, 1000, seed=3, block_size=100, workers=10**6)
    assert np.array_equal(pooled, serial)
    run_blocks(_sum_counter, 300, seed=3, block_size=100, workers=8)
    assert sizes == [4, 3]  # capped by the CPU count, then by the 3 blocks


def test_run_blocks_partial_last_block():
    out = run_blocks(_sum_counter, 1000, seed=3, block_size=512)
    assert out[1] == 1000  # 512 + 488


def test_clopper_pearson_edge_cases():
    low, high = clopper_pearson(0, 100, 0.95)
    assert low == 0.0
    # closed form for zero successes: 1 - (alpha/2)^(1/n)
    assert high == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-9)
    low, high = clopper_pearson(100, 100, 0.95)
    assert high == 1.0
    assert low == pytest.approx(0.025 ** (1 / 100), rel=1e-9)


def test_clopper_pearson_contains_p_hat():
    low, high = clopper_pearson(37, 250, 0.99)
    assert low < 37 / 250 < high


def test_clopper_pearson_coverage():
    # 100 repeated experiments at p = 1/2; the 99% interval should cover
    # essentially always (binomial tail: >=95 covers with prob ~1)
    rng = np.random.default_rng(77)
    covered = 0
    for _ in range(100):
        successes = int(rng.binomial(1000, 0.5))
        low, high = clopper_pearson(successes, 1000, 0.99)
        covered += low <= 0.5 <= high
    assert covered >= 95


def test_clopper_pearson_equals_beta_quantiles():
    # reports carry these floats, so the interval must match scipy.stats'
    # Beta quantiles bit for bit, at every edge count up to 10^6 trials
    from scipy.stats import beta

    for trials in sorted({1, 2, 3, 5, 7, *(int(10 ** (k / 4)) for k in range(4, 25))}):
        counts = {0, 1, 2, trials // 3, trials // 2, trials - 2, trials - 1, trials}
        for successes in sorted(c for c in counts if 0 <= c <= trials):
            for confidence in (0.95, 0.99, 0.999):
                tail = (1.0 - confidence) / 2.0
                low = 0.0 if successes == 0 else float(
                    beta.ppf(tail, successes, trials - successes + 1))
                high = 1.0 if successes == trials else float(
                    beta.ppf(1.0 - tail, successes + 1, trials - successes))
                assert clopper_pearson(successes, trials, confidence) == (low, high), (
                    successes, trials, confidence)


def _python_with_src(code, **env_vars):
    # stdout of `python -c code` with this checkout's src on the path; an
    # env var given as None is unset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars}
    env = {k: v for k, v in env.items() if v is not None}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_leaves_scipy_stats_out():
    code = "import sys, coinlab.cli; print('scipy.stats' in sys.modules)"
    assert _python_with_src(code) == "False"


def test_importing_coinlab_pins_blas_threads_unless_set():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, coinlab; print(*(os.environ.get(name) for name in {names}))"
    unset = dict.fromkeys(names)
    assert _python_with_src(code, **unset) == "1 1 1"
    assert _python_with_src(code, **{**unset, "OMP_NUM_THREADS": "3"}) == "1 3 1"


def test_verdict_three_ways():
    est = McEstimate.from_counts(10, 1000, seed=0)
    assert verdict_for("c", est, 0.5, "<=")["verdict"] == "pass"
    assert verdict_for("c", est, 0.001, "<=")["verdict"] == "fail"
    assert verdict_for("c", est, est.p_hat, "<=")["verdict"] == "inconclusive"
    assert verdict_for("c", est, 0.001, ">=")["verdict"] == "pass"
    assert verdict_for("c", est, 0.5, ">=")["verdict"] == "fail"
    with pytest.raises(ValueError):
        verdict_for("c", est, 0.5, "==")
    # a point (low == high) is never inconclusive: on the bound it passes
    for relation in ("<=", ">="):
        assert verdict(0.25, 0.25, 0.25, relation) == "pass"
    assert verdict(0.25, 0.25, 0.5, "<=") == verdict(0.25, 0.25, 0.125, ">=") == "pass"
    assert verdict(0.25, 0.25, 0.125, "<=") == verdict(0.25, 0.25, 0.5, ">=") == "fail"
    assert verdict_for("c", est, est.p_hat, "<=", at_point=True)["verdict"] == "pass"
    assert verdict_for("c", est, est.ci_low, "<=", at_point=True)["verdict"] == "fail"
    assert verdict_for("c", est, est.ci_high, ">=", at_point=True)["verdict"] == "fail"


def test_fact3_mc_matches_exact_probability():
    head, *verdicts = verify_fact3_mc(10, trials=40_000, seed=21)
    assert head["claim_id"] == "enumeration_matches_reflection_identity"
    assert [v["details"]["threshold"] for v in verdicts] == list(range(1, 11))
    verdict = verdicts[2]  # r = 3
    exact = float(prob_max_ge_reflection(10, 3))
    assert verdict["claim_id"] == "max_tail_le_twice_sum_tail_n10_r3"
    assert verdict["details"]["exact_probability"] == pytest.approx(exact, rel=1e-12)
    assert verdict["empirical"]["ci_low"] <= exact <= verdict["empirical"]["ci_high"]
    assert verdict["verdict"] in ("pass", "inconclusive")


def test_fact3_mc_deterministic():
    a = verify_fact3_mc(12, trials=10_000, seed=5)
    b = verify_fact3_mc(12, trials=10_000, seed=5, workers=3)
    assert [v["empirical"]["successes"] for v in a[1:]] == [
        v["empirical"]["successes"] for v in b[1:]]


def test_lemma52_part1_zero_adversary_short_circuits():
    verdict = verify_lemma52_part1(Params(n=50, t=0), trials=1000, seed=0)[-1]
    assert verdict["verdict"] == "pass"
    assert verdict["empirical"]["successes"] == 0
    assert verdict["details"]["walk_length"] == 0


def test_lemma52_part1_counts_both_directions():
    verdict = verify_lemma52_part1(Params(n=24, t=3), trials=4000, seed=13)[-1]
    plus = verdict["details"]["plus_direction"]
    minus = verdict["details"]["minus_direction"]
    assert plus["trials"] + minus["trials"] == 4000
    assert verdict["empirical"]["successes"] == plus["successes"] + minus["successes"]
    # threshold beta/4 ~ 8.6 on a 72-step stream: both directions hit often
    assert plus["successes"] > 0 and minus["successes"] > 0


def test_lemma52_part2_coupling_is_exact_at_point_estimates():
    report = verify_lemma52_part2(Params(n=40, t=2), trials=2000, seed=17)[0]["report"]
    check = report["structural_check"]
    # with per-trial coupling the inequality holds without needing slack
    assert check["lhs"] >= check["rhs"]
    assert check["passed"]
    assert report["p_full"]["trials"] == 2000


def test_lemma71_default_threshold_and_verdict():
    params = Params(n=40, t=2, m=10, c1=0.05)
    verdict = verify_lemma71(params, trials=20_000, seed=11)[0]
    assert verdict["claim_id"] == "running_max_vs_endpoint@default_threshold"
    assert verdict["details"]["walk_length"] == 40
    expected_tau = derive(params).beta / 6.0 * 0.05 * 10
    assert verdict["details"]["threshold"] == pytest.approx(expected_tau, rel=1e-9)
    assert verdict["verdict"] == "pass"


def test_lemma71_sigma_thresholds():
    *sweep, exact = verify_lemma71(Params(n=40, t=2, m=10, c1=0.05), trials=10_000, seed=11)
    assert [v["claim_id"] for v in sweep[1:]] == [
        f"running_max_vs_endpoint@{mult}sigma" for mult in (0.5, 1.0, 2.0)]
    assert [v["details"]["threshold"] for v in sweep[1:]] == [
        mult * math.sqrt(40) for mult in (0.5, 1.0, 2.0)]
    assert all(v["verdict"] == "pass" for v in sweep)
    assert exact["claim_id"] == "exact_small_case_length8" and exact["verdict"] == "pass"


def test_lemma71_rejects_empty_walk():
    with pytest.raises(ValueError):
        verify_lemma71(Params(n=4, t=1, m=1, c1=0.001), trials=100, seed=0)


def test_counter_agrees_with_walk_layer():
    # the vectorized counters must see exactly the walks the walk layer sees
    rng_a = np.random.default_rng(np.random.SeedSequence((42, 0)))
    _, ends, tops = walk_peaks(rng_a, 8, 25)
    rng_b = np.random.default_rng(np.random.SeedSequence((42, 0)))
    steps = rng_b.integers(0, 2, size=(8, 25), dtype=np.int8) * 2 - 1
    for i in range(8):
        trace = WalkTrace.from_steps(steps[i])
        assert trace.prefix_sums[-1] == ends[i]
        assert trace.run_max == max(0, tops[i])


def _block_sums(block, count, length):
    return np.cumsum(draw_steps(np.random.default_rng(block), (count, length)), axis=1)


@pytest.mark.parametrize("length, thresholds", [
    (25, (1, 2, 5, 25, 26)),
    (25, (-3, -0.5, 0.5, 2.7, 4.2)),
    (6, (-7, -6.5, 6.5, 7)),  # beyond +-length: every walk or none
])
def test_tail_counter_matches_direct_counts(length, thresholds):
    from coinlab.mc import _tail_counter

    block = np.random.SeedSequence((7, 3))
    sums = _block_sums(block, 500, length)
    tallies = _tail_counter(np.random.default_rng(block), 500, 0, length=length,
                            thresholds=thresholds)
    expected = [np.count_nonzero(sums.max(axis=1) >= tau) for tau in thresholds]
    expected += [np.count_nonzero(sums[:, -1] >= tau) for tau in thresholds]
    assert tallies.tolist() == expected


@given(length=st.integers(1, 40), count=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       thresholds=st.lists(st.integers(-45, 45) | st.floats(-45.0, 45.0)
                           | st.sampled_from([1e300, -1e300, 2**70, -(2**70)]), max_size=8),
       edges=st.lists(st.sampled_from(["max", "min"]), max_size=4),
       nudge=st.sampled_from([-0.5, 0, 0.5, 1]))
@settings(max_examples=200, deadline=None)
def test_tail_counter_matches_a_broadcast_comparison(length, count, seed, thresholds, edges,
                                                     nudge):
    # suffix sums of one bincount give, at each level, the count a comparison
    # against every walk gives; an integer reaches a float level at its ceiling
    from coinlab.mc import _tail_counter

    _, ends, tops = walk_peaks(np.random.default_rng(seed), count, length)
    # levels at, just above and just below the extremes of both statistics
    for edge in edges:
        for stat in (ends, tops):
            thresholds.append(getattr(stat, edge)() + nudge)
    tallies = _tail_counter(np.random.default_rng(seed), count, 0, length=length,
                            thresholds=thresholds)
    levels = np.asarray(thresholds, dtype=np.float64)[:, None]
    expected = np.concatenate([np.count_nonzero(tops >= levels, axis=1),
                               np.count_nonzero(ends >= levels, axis=1)])
    assert tallies.tolist() == expected.tolist()


@pytest.mark.parametrize("start", [0, 1])
def test_directional_hit_counter_matches_direct_counts(start):
    # even global indices target +, odd ones -, whichever walk a block starts on
    from coinlab.mc import _directional_hit_counter

    block = np.random.SeedSequence((3, 1))
    sums = _block_sums(block, 400, 30)
    plus = np.arange(start, start + 400) % 2 == 0
    expected = [np.count_nonzero(sums[plus].max(axis=1) >= 6),
                np.count_nonzero(sums[~plus].min(axis=1) <= -6),
                np.count_nonzero(plus), np.count_nonzero(~plus)]
    tallies = _directional_hit_counter(np.random.default_rng(block), 400, start, length=30,
                                       threshold=6)
    assert tallies == expected
    assert 0 < expected[0] < 200 and 0 < expected[1] < 200


@pytest.mark.parametrize("frame", [+1, -1])
@pytest.mark.parametrize("n, t", [(9, 1), (23, 5), (6, 0)])  # n_core 63, 299 and 36 = n_full
def test_two_phase_counter_matches_apply_stop(n, t, frame):
    # walks.apply_stop is the specification of the adversary's stop, stated
    # on the walks as drawn (frame +1) or on their mirror image (frame -1),
    # where the stop against the good direction is the mirror's maximum
    from coinlab.mc import _two_phase_counter

    n_core, n_full = n * (n - 2 * t), n * (n - t)
    levels = {"alpha": 0.5 * math.sqrt(n_core), "alpha_prime": 0.25 * math.sqrt(n_core),
              "beta_quarter": max(1.0, 0.5 * math.sqrt(n_full - n_core))}
    block = np.random.SeedSequence((5, 2))
    sums = frame * _block_sums(block, 400, n_full)
    core = frame * sums[:, n_core - 1]
    stop = StoppingStrategy.omniscient_extreme(-frame, (n_core, n_full))
    stopped = frame * apply_stop(sums, stop).value
    expected = [np.count_nonzero(core >= levels["alpha"]),
                np.count_nonzero(core - stopped >= levels["beta_quarter"]),
                np.count_nonzero(stopped >= levels["alpha_prime"])]
    tallies = _two_phase_counter(np.random.default_rng(block), 400, 0, n_core=n_core,
                                 n_full=n_full, **levels)
    assert tallies == expected
    assert 0 < expected[0] < 400 and 0 < expected[2] < 400
