import math
import os

import numpy as np
import pytest

import coinlab.mc
from coinlab.bounds import Params, derive
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
from coinlab.walks import StoppingStrategy, WalkTrace, apply_stop, draw_steps, segment_stats


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


def test_verdict_three_ways():
    est = McEstimate.from_counts(10, 1000, seed=0)
    assert verdict_for("c", est, 0.5, "<=").verdict == "pass"
    assert verdict_for("c", est, 0.001, "<=").verdict == "fail"
    assert verdict_for("c", est, est.p_hat, "<=").verdict == "inconclusive"
    assert verdict_for("c", est, 0.001, ">=").verdict == "pass"
    assert verdict_for("c", est, 0.5, ">=").verdict == "fail"
    with pytest.raises(ValueError):
        verdict_for("c", est, 0.5, "==")


def test_fact3_mc_matches_exact_probability():
    verdicts = verify_fact3_mc(10, trials=40_000, seed=21)
    assert [v.details["threshold"] for v in verdicts] == list(range(1, 11))
    verdict = verdicts[2]  # r = 3
    exact = float(prob_max_ge_reflection(10, 3))
    assert verdict.claim_id == "max_tail_le_twice_sum_tail_n10_r3"
    assert verdict.details["exact_probability"] == pytest.approx(exact, rel=1e-12)
    assert verdict.empirical.ci_low <= exact <= verdict.empirical.ci_high
    assert verdict.verdict in ("pass", "inconclusive")


def test_fact3_mc_deterministic():
    a = verify_fact3_mc(12, trials=10_000, seed=5)
    b = verify_fact3_mc(12, trials=10_000, seed=5, workers=3)
    assert [v.empirical.successes for v in a] == [v.empirical.successes for v in b]


def test_lemma52_part1_zero_adversary_short_circuits():
    verdict = verify_lemma52_part1(Params(n=50, t=0), trials=1000, seed=0)
    assert verdict.verdict == "pass"
    assert verdict.empirical.successes == 0
    assert verdict.details["walk_length"] == 0


def test_lemma52_part1_counts_both_directions():
    verdict = verify_lemma52_part1(Params(n=24, t=3), trials=4000, seed=13)
    plus = verdict.details["plus_direction"]
    minus = verdict.details["minus_direction"]
    assert plus["trials"] + minus["trials"] == 4000
    assert verdict.empirical.successes == plus["successes"] + minus["successes"]
    # threshold beta/4 ~ 8.6 on a 72-step stream: both directions hit often
    assert plus["successes"] > 0 and minus["successes"] > 0


def test_lemma52_part2_coupling_is_exact_at_point_estimates():
    report = verify_lemma52_part2(Params(n=40, t=2), trials=2000, seed=17)
    check = report.structural_check
    # with per-trial coupling the inequality holds without needing slack
    assert check["lhs"] >= check["rhs"]
    assert check["passed"]
    assert report.p_full.trials == 2000


def test_lemma52_part2_direction_symmetry_structural():
    up = verify_lemma52_part2(Params(n=30, t=1), trials=1500, seed=3, direction=+1)
    down = verify_lemma52_part2(Params(n=30, t=1), trials=1500, seed=3, direction=-1)
    assert up.structural_check["passed"] and down.structural_check["passed"]


def test_lemma71_default_threshold_and_verdict():
    params = Params(n=40, t=2, m=10, c1=0.05)
    verdict = verify_lemma71(params, trials=20_000, seed=11)[0]
    assert verdict.claim_id == "running_max_vs_endpoint@default_threshold"
    assert verdict.details["walk_length"] == 40
    expected_tau = derive(params).beta / 6.0 * 0.05 * 10
    assert verdict.details["threshold"] == pytest.approx(expected_tau, rel=1e-9)
    assert verdict.verdict == "pass"


def test_lemma71_sigma_thresholds():
    sweep = verify_lemma71(Params(n=40, t=2, m=10, c1=0.05), trials=10_000, seed=11)
    assert [v.claim_id for v in sweep[1:]] == [
        f"running_max_vs_endpoint@{mult}sigma" for mult in (0.5, 1.0, 2.0)]
    assert [v.details["threshold"] for v in sweep[1:]] == [
        mult * math.sqrt(40) for mult in (0.5, 1.0, 2.0)]
    assert all(v.verdict == "pass" for v in sweep)


def test_lemma71_rejects_empty_walk():
    with pytest.raises(ValueError):
        verify_lemma71(Params(n=4, t=1, m=1, c1=0.001), trials=100, seed=0)


def test_counter_agrees_with_walk_layer():
    # the vectorized counters must see exactly the walks the walk layer sees
    rng_a = np.random.default_rng(np.random.SeedSequence((42, 0)))
    ends, tops, _ = segment_stats(rng_a, 8, 25)
    rng_b = np.random.default_rng(np.random.SeedSequence((42, 0)))
    steps = rng_b.integers(0, 2, size=(8, 25), dtype=np.int8) * 2 - 1
    for i in range(8):
        trace = WalkTrace.from_steps(steps[i])
        assert trace.prefix_sums[-1] == ends[i, 0]
        assert trace.run_max == max(0, tops[i, 0])
        stopped = apply_stop(trace, StoppingStrategy.no_stop())
        assert stopped.value == ends[i, 0]


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


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("n, t", [(9, 1), (23, 5), (6, 0)])  # n_core 63, 299 and 36 = n_full
def test_two_phase_counter_matches_apply_stop(n, t, direction):
    # walks.apply_stop is the specification of the adversary's stop
    from coinlab.mc import _two_phase_counter

    n_core, n_full = n * (n - 2 * t), n * (n - t)
    levels = {"alpha": 0.5 * math.sqrt(n_core), "alpha_prime": 0.25 * math.sqrt(n_core),
              "beta_quarter": max(1.0, 0.5 * math.sqrt(n_full - n_core))}
    block = np.random.SeedSequence((5, 2))
    sums = direction * _block_sums(block, 400, n_full)
    core = sums[:, n_core - 1]
    stopped = apply_stop(sums, StoppingStrategy.omniscient_extreme(-1, (n_core, n_full))).value
    expected = [np.count_nonzero(core >= levels["alpha"]),
                np.count_nonzero(core - stopped >= levels["beta_quarter"]),
                np.count_nonzero(stopped >= levels["alpha_prime"])]
    tallies = _two_phase_counter(np.random.default_rng(block), 400, 0, n_core=n_core,
                                 n_full=n_full, direction=direction, **levels)
    assert tallies == expected
    assert 0 < expected[0] < 400 and 0 < expected[2] < 400
