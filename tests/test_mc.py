import math
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import asdict
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlab.mc
from coinlab.bounds import Params, derive, verdict
from coinlab.matrices import _norm_trial_counter
from coinlab.mc import (
    McEstimate,
    _at_least,
    _directional_hit_counter,
    _tail_counter,
    _two_phase_counter,
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


@pytest.fixture
def stand_in_pool(monkeypatch):
    """Puts in place of run_blocks' thread pool one that runs each task as
    it is submitted, so no thread is started whatever size is asked for.
    Returns its record: the pool sizes asked for, the blocks submitted, the
    blocks whose results were taken, and the blocks in flight at each
    submit."""
    record = {"sizes": [], "submitted": [], "taken": [], "in_flight": []}

    class Taken(Future):
        def result(self, timeout=None):
            record["taken"].append(self.index)
            return super().result(timeout)

    class StandInPool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def submit(self, fn, task):
            record["submitted"].append(task[2])
            record["in_flight"].append(len(record["submitted"]) - len(record["taken"]))
            future = Taken()
            future.index = task[2]
            future.set_result(fn(task))
            return future

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    monkeypatch.setattr(coinlab.mc, "ThreadPoolExecutor", StandInPool)
    return record


def test_run_blocks_caps_pool_size(monkeypatch, stand_in_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = run_blocks(_sum_counter, 1000, seed=3, block_size=100)
    pooled = run_blocks(_sum_counter, 1000, seed=3, block_size=100, workers=10**6)
    assert np.array_equal(pooled, serial)
    run_blocks(_sum_counter, 300, seed=3, block_size=100, workers=8)
    assert stand_in_pool["sizes"] == [4, 3]  # capped by the CPU count, then by the 3 blocks


def test_run_blocks_partial_last_block():
    out = run_blocks(_sum_counter, 1000, seed=3, block_size=512)
    assert out[1] == 1000  # 512 + 488


class _BlockZero(Exception):
    pass


def _fails_at_block_zero(rng, count, start):
    if start == 0:
        raise _BlockZero
    return np.zeros(2)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_blocks_makes_each_block_as_it_runs_it(workers, traced_peak):
    # 10**12 trials are 10**9 blocks: a list of every block's task, or a
    # pool handed all of them at once, would take gigabytes before block 0
    def call():
        with pytest.raises(_BlockZero):
            run_blocks(_fails_at_block_zero, 10**12, seed=0, block_size=1000, workers=workers)

    _, peak = traced_peak(call)
    assert peak < 2**20


def test_run_blocks_keeps_a_few_blocks_in_flight(monkeypatch, stand_in_pool):
    # the pool is handed at most 2 * workers blocks that the sum has not
    # taken yet, and the sum takes them in block order
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pooled = run_blocks(_sum_counter, 10_000, seed=3, block_size=100, workers=3)
    assert np.array_equal(pooled, run_blocks(_sum_counter, 10_000, seed=3, block_size=100))
    assert stand_in_pool["submitted"] == stand_in_pool["taken"] == list(range(100))
    assert max(stand_in_pool["in_flight"]) == 6


def test_run_blocks_refuses_more_trials_than_float64_counts():
    with pytest.raises(ValueError, match="2\\*\\*53"):
        run_blocks(_sum_counter, 2**53 + 1, seed=0, block_size=2**40)


def _thread_recording(counter, threads):
    def run(rng, count, start):
        threads.add(threading.get_ident())
        return counter(rng, count, start)
    return run


@pytest.mark.parametrize("counter, block_size, hits", [
    # bin 0 of a law counts the impossible value -length, so a law is read
    # by a tail sum
    (partial(_tail_counter, length=2000), 500, lambda laws: _at_least(laws[:4001], 60)),
    (partial(_directional_hit_counter, length=2000), 500,
     lambda laws: _at_least(laws[4001:], 60)),
    (partial(_two_phase_counter, length=2000, head=1500), 500,
     lambda laws: _at_least(laws[8002:], 12)),
    (partial(_norm_trial_counter, params_dict=asdict(Params(n=8, t=1, m=12)),
             adversary=StoppingStrategy.omniscient_extreme(-1), threshold=15.0), 8,
     lambda tallies: tallies[0]),
], ids=["tail", "directional", "two_phase", "norm"])
def test_pooled_blocks_tally_as_serial_ones(monkeypatch, counter, block_size, hits):
    # four threads draw blocks at once, each walk_peaks call into its
    # thread's scratch buffer; a buffer shared between threads, or a race,
    # would change a tally. Nine blocks, the last one short, and a short
    # switch interval so the threads interleave often.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    trials = 9 * block_size - block_size // 2
    serial = run_blocks(counter, trials, seed=4, block_size=block_size)
    threads = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = run_blocks(_thread_recording(counter, threads), trials, seed=4,
                            block_size=block_size, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() not in threads
    assert np.array_equal(pooled, serial)
    assert 0 < hits(serial) < trials


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


def _cp_root(x, n, tail, end, upper):
    # The p near the float ``end`` where Pr(X <= x) (upper) or Pr(X >= x)
    # (lower) equals ``tail``, X ~ Binomial(n, p): one Newton step from
    # ``end``, whose error is second order in a distance of a few ulps. The
    # tail is summed by the ratio recurrence away from x, exactly in
    # rationals up to 100 trials and to 32 digits with mpmath beyond.
    import mpmath

    exact = n <= 100
    with mpmath.workdps(32):
        p = Fraction(end) if exact else mpmath.mpf(end)
        q = 1 - p
        odds = q / p if upper else p / q
        term = series = 1
        small = 0 if exact else mpmath.mpf(10) ** -32  # the rest is then below 1e-28 of the sum
        for k in range(x, 0, -1) if upper else range(x, n):
            term = term * odds * (k if upper else n - k) / (n - k + 1 if upper else k + 1)
            series += term
            if term < small:
                break
        pmf = (math.comb(n, x) if exact else mpmath.binomial(n, x)) * p**x * q ** (n - x)
        slope = -pmf * (n - x) / q if upper else pmf * x / p
        return p - (pmf * series - Fraction(tail)) / slope


def test_clopper_pearson_ends_lie_within_two_ulps_of_the_exact_roots():
    # every end of every interval in the grid up to 10**6 trials, at three
    # confidences, and two ends where SciPy's betaincinv was far off
    cases = [(13, 10**9, 0.99), (505, 1000, 0.99)]
    for trials in sorted({1, 2, 3, 5, 7, *(int(10 ** (k / 4)) for k in range(4, 25))}):
        counts = {0, 1, 2, trials // 3, trials // 2, trials - 2, trials - 1, trials}
        cases += [(x, trials, c) for x in sorted(counts) if 0 <= x <= trials
                  for c in (0.95, 0.99, 0.999)]
    for x, n, confidence in cases:
        tail = (1.0 - confidence) / 2.0
        for end, upper in zip(clopper_pearson(x, n, confidence), (False, True)):
            if end in (0.0, 1.0):
                assert (end == 1.0) == upper and x == (n if upper else 0), (x, n, confidence)
                continue
            root = _cp_root(x, n, tail, end, upper)
            assert abs(end - root) <= 2 * math.ulp(float(root)), (x, n, confidence, upper)


def test_clopper_pearson_rejects_bad_arguments():
    for args in ((1, 0), (-1, 10), (11, 10), (1, 10, 0.0), (1, 10, 1.0)):
        with pytest.raises(ValueError):
            clopper_pearson(*args)


def test_clopper_pearson_ends_cover_their_rates():
    # Clopper-Pearson is conservative: each 99% interval misses its exact
    # rate with probability at most 1% (0.84% here, summed over all 101
    # counts). Over 800 independent seeds of fact3's r = 3 row, n = 10 and
    # 100 trials, a 1% rate gives 21 misses or more with probability 8e-5.
    rows = [verify_fact3_mc(10, trials=100, seed=seed)[3] for seed in range(800)]
    assert {row["details"]["threshold"] for row in rows} == {3}
    assert sum(not row["details"]["ci_covers_exact"] for row in rows) <= 20


def _python_with_src(code, args=(), **env_vars):
    # stdout of `python -c code args...` with this checkout's src on the
    # path; an env var given as None is unset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars}
    env = {k: v for k, v in env.items() if v is not None}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_or_running_all_loads_no_scipy():
    # nor multiprocessing: --workers runs blocks on threads
    code = ("import sys, coinlab.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
            "                  or m == 'multiprocessing')\n"
            "print(loaded())\n"
            "coinlab.cli.run(['all', '--seed', '0', '--trials', '300', '--out', sys.argv[1]])\n"
            "print(loaded())\n")
    with tempfile.TemporaryDirectory() as tmp:
        out = _python_with_src(code, args=[os.path.join(tmp, "report.json")])
    assert out.splitlines()[-2:] == ["[]", "[]"]


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


def _law(stat, length):
    # the law a counter returns for an integer statistic in [-length, length]
    return np.bincount(stat + length, minlength=2 * length + 1).tolist()


@pytest.mark.parametrize("length, thresholds", [
    (25, (1, 2, 5, 25, 26)),
    (25, (-3, -0.5, 0.5, 2.7, 4.2)),
    (6, (-7, -6.5, 6.5, 7)),  # beyond +-length: every walk or none
])
def test_tail_counter_matches_direct_counts(length, thresholds):
    block = np.random.SeedSequence((7, 3))
    sums = _block_sums(block, 500, length)
    tops, ends = sums.max(axis=1), sums[:, -1]
    laws = _tail_counter(np.random.default_rng(block), 500, 0, length=length)
    assert laws.tolist() == _law(tops, length) + _law(ends, length)
    for law, stat in zip(laws.reshape(2, -1), (tops, ends)):
        assert [_at_least(law, tau) for tau in thresholds] == \
            [np.count_nonzero(stat >= tau) for tau in thresholds]


@given(length=st.integers(1, 40), count=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       levels=st.lists(st.integers(-45, 45) | st.floats(-45.0, 45.0)
                       | st.sampled_from([1e300, -1e300, 2**70, -(2**70)]), max_size=8),
       edges=st.lists(st.sampled_from(["max", "min"]), max_size=4),
       nudge=st.sampled_from([-0.5, 0, 0.5, 1]))
@settings(max_examples=200, deadline=None)
def test_tail_counter_matches_a_broadcast_comparison(length, count, seed, levels, edges, nudge):
    # _at_least's tail sum of a law gives, at each level, the count a
    # comparison against every walk gives; an integer reaches a float level
    # at its ceiling
    _, ends, tops = walk_peaks(np.random.default_rng(seed), count, length)
    # levels at, just above and just below the extremes of both statistics
    for edge in edges:
        for stat in (ends, tops):
            levels.append(getattr(stat, edge)() + nudge)
    laws = _tail_counter(np.random.default_rng(seed), count, 0, length=length).reshape(2, -1)
    grid = np.asarray(levels, dtype=np.float64)[:, None]
    for law, stat in zip(laws, (tops, ends)):
        assert [_at_least(law, level) for level in levels] == \
            np.count_nonzero(stat >= grid, axis=1).tolist()


@pytest.mark.parametrize("start", [0, 1])
def test_directional_hit_counter_matches_direct_counts(start):
    # even global indices target +, odd ones -, whichever walk a block starts
    # on; an odd walk's law is that of its negated running min
    block = np.random.SeedSequence((3, 1))
    sums = _block_sums(block, 400, 30)
    plus = np.arange(start, start + 400) % 2 == 0
    laws = _directional_hit_counter(np.random.default_rng(block), 400, start, length=30)
    assert laws.tolist() == _law(sums[plus].max(axis=1), 30) + _law(-sums[~plus].min(axis=1), 30)
    assert all(0 < _at_least(law, 6) < 200 for law in laws.reshape(2, -1))


@pytest.mark.parametrize("frame", [+1, -1])
@pytest.mark.parametrize("n, t", [(9, 1), (23, 5), (6, 0)])  # n_core 63, 299 and 36 = n_full
def test_two_phase_counter_matches_apply_stop(n, t, frame):
    # walks.apply_stop is the specification of the adversary's stop, stated
    # on the walks as drawn (frame +1) or on their mirror image (frame -1),
    # where the stop against the good direction is the mirror's maximum; its
    # window of stop points n_core..n_full is a slice of the prefix sums
    n_core, n_full = n * (n - 2 * t), n * (n - t)
    alpha, alpha_prime = 0.5 * math.sqrt(n_core), 0.25 * math.sqrt(n_core)
    block = np.random.SeedSequence((5, 2))
    sums = frame * _block_sums(block, 400, n_full)
    core = frame * sums[:, n_core - 1]
    window = sums[:, n_core - 1 : n_full]
    stopped = frame * apply_stop(window, StoppingStrategy.omniscient_extreme(-frame))[1]
    laws = _two_phase_counter(np.random.default_rng(block), 400, 0, length=n_full, head=n_core)
    assert laws.tolist() == (_law(core, n_full) + _law(core - stopped, n_full)
                             + _law(stopped, n_full))
    core_law, _, stopped_law = laws.reshape(3, -1)
    assert 0 < _at_least(core_law, alpha) < 400 and 0 < _at_least(stopped_law, alpha_prime) < 400
    # For the full event the clairvoyant stop is no stronger than a causal
    # one: stopping at the first prefix in the window below alpha_prime, or
    # at the window's end if none is, gives the same indicator on every walk.
    good = frame * window
    below = good < alpha_prime
    first_hit = np.where(below.any(axis=1), below.argmax(axis=1), good.shape[1] - 1)
    causal_full = good[np.arange(len(good)), first_hit] >= alpha_prime
    assert np.array_equal(causal_full, stopped >= alpha_prime)
    assert np.count_nonzero(causal_full) == _at_least(stopped_law, alpha_prime)


@pytest.mark.parametrize("count, start", [(1, 0), (1, 1), (7, 3), (64, 0)])
@pytest.mark.parametrize("counter, laws", [
    (partial(_tail_counter, length=30), 2),
    (partial(_directional_hit_counter, length=30), 2),
    (partial(_two_phase_counter, length=30, head=20), 3),
], ids=["tail", "directional", "two_phase"])
def test_each_law_counts_every_walk_of_the_block_once(counter, laws, count, start):
    # the directional counter's two laws split the block by direction
    sums = counter(np.random.default_rng(count), count, start).reshape(laws, -1).sum(axis=1)
    even = np.count_nonzero(np.arange(start, start + count) % 2 == 0)
    expected = [even, count - even] if counter.func is _directional_hit_counter else [count] * laws
    assert sums.tolist() == expected


def test_the_laws_waiting_in_run_blocks_fit_a_budget(monkeypatch, traced_peak):
    # A block of _tail_counter returns two laws of 2L + 1 float64 bins, and
    # run_blocks holds at most 2 * workers + 1 of these: the blocks in flight
    # and the running total. Each running block also holds the bins of its
    # statistics and its walk_peaks draw. Sixteen blocks held at once would
    # be over the budget.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    length, block, workers = 2**16, 8, 2
    laws = 16 * (2 * length + 1)
    _, peak = traced_peak(lambda: run_blocks(partial(_tail_counter, length=length), 16 * block,
                                             seed=0, block_size=block, workers=workers))
    assert peak < (2 * workers + 1) * laws + workers * (2 * laws + 2**21)


def test_serial_run_blocks_holds_the_total_and_one_block_of_laws(traced_peak):
    # On one thread run_blocks holds the running total and the block's laws
    # it adds in, none of them while the next block runs, and _laws counts in
    # float64 with no int64 copy. Five blocks of 8 walks of 2**16 steps peak
    # at two blocks' laws (4.2 MB); keeping the last block's laws bound in
    # the loop and int64 bincounts beside their float64 copy took four.
    length, block = 2**16, 8
    laws = 16 * (2 * length + 1)  # a block's two float64 laws, in bytes
    counter = partial(_tail_counter, length=length)
    run_blocks(counter, block, seed=0, block_size=block)
    total, peak = traced_peak(lambda: run_blocks(counter, 5 * block, seed=0, block_size=block))
    assert total.sum() == 2 * 5 * block
    assert peak < 2.5 * laws
