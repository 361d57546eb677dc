"""Seeded defects that the lab's verdicts must catch.

Each case patches one defect into the engines and runs the experiment it
affects at a small seeded trial count through ``cli.run``. At least one
row must then turn to ``fail``, or report ``ci_covers_exact: false``. The
same runs without a defect catch nothing. A defect that no verdict can
catch yet is a known escape: a strict xfail with its reason, so a check
that starts catching it shows as XPASS.
"""
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import coinlab.iteration
import coinlab.matrices
import coinlab.walks
from coinlab import mc
from coinlab.cli import run
from reference import COIN_ITER_DEFAULTS, good_event_check

FACT3 = ["fact3", "--seed", "0", "--trials", "20000"]
COIN_ITER = ["coin-iter", "--seed", "0"]
LEMMA52_1 = ["lemma52-1", "--seed", "0", "--trials", "100000"]
LEMMA52_2 = ["lemma52-2", "--seed", "0", "--trials", "20000"]
SPECTRAL = ["spectral", "--seed", "0", "--trials", "200"]
AGREEMENT = ["agreement", "--seed", "5", "--t", "3", "--t-excluded", "1", "--t-stopped", "2"]


def _results(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        run(argv)
    return json.loads(out.getvalue())["results"]


def _caught(rows):
    # a verdict row by its claim id, an error row by its message
    return [row.get("claim_id", row.get("error")) for row in rows
            if row.get("verdict") == "fail"
            or (row.get("details") or {}).get("ci_covers_exact") is False]


def _biased_coin(monkeypatch, one_in=32):
    # P(+1) = 1/2 + 1/(2 * one_in): bit 7 of a byte, which makes a coin +1,
    # is ORed with a mask set at one byte in one_in
    words, mask = coinlab.walks._pcg64_words, np.random.default_rng(1)

    def biased(bit_generator, total):
        drawn = words(bit_generator, total)
        drawn.view(np.uint8)[mask.integers(0, one_in, size=4 * drawn.size) == 0] |= 0x80
        return drawn

    monkeypatch.setattr(coinlab.walks, "_pcg64_words", biased)


def _biased_round_coins(monkeypatch):
    # P(+1) = 1/2 + 1/16 in the rounds' coins: the draw run_rounds calls
    # sets one coin in 8 to +1, for a mean step of 1/8. A defect that no
    # longer reaches the rounds raises here, an error rather than an xfail.
    draw, mask = coinlab.iteration.round_steps, np.random.default_rng(1)

    def biased(seed, start, count, size):
        steps = draw(seed, start, count, size)
        steps[mask.integers(0, 8, size=steps.shape) == 0] = 1
        return steps

    monkeypatch.setattr(coinlab.iteration, "round_steps", biased)
    mean = coinlab.iteration.run_rounds(COIN_ITER_DEFAULTS, 0, 64).streams.mean()
    if abs(mean - 1 / 8) > 0.01:  # the mean of 218,880 steps: 5 standard errors
        raise RuntimeError(f"the round-coin defect leaves a mean step of {mean:.4f}, not 1/8")


def _adversary_never_stops(monkeypatch):
    # every stop keeps the whole stream, in the rounds and in the spectral
    # matrices, where each engine binds apply_stop
    def last_prefix(sums, strategy):
        sums = np.asarray(sums)
        return np.full(sums.shape[:-1], sums.shape[-1]), sums[..., -1].copy()

    for module in (coinlab.iteration, coinlab.matrices):
        monkeypatch.setattr(module, "apply_stop", last_prefix)


def _stop_one_early(monkeypatch):
    # the rounds' stop index one before the stop, with the right value
    stop = coinlab.iteration.apply_stop

    def early(sums, strategy):
        index, value = stop(sums, strategy)
        return index - 1, value

    monkeypatch.setattr(coinlab.iteration, "apply_stop", early)


def _norms_read_high(monkeypatch):
    # every norm solve 0.1% high
    solve = coinlab.matrices.spectral_norms

    def high(stack, *args, **kwargs):
        values, bounds = solve(stack, *args, **kwargs)
        return values * 1.001, bounds

    monkeypatch.setattr(coinlab.matrices, "spectral_norms", high)


def _shifted_solves_skipped(monkeypatch):
    # the norm solve's v is its start vector: both shifted solves return
    # their right-hand side
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b)


def _correction_on_wrong_columns(monkeypatch):
    # the correction sums solved on columns t..2t - 1, past the stopped ones
    def wrong(sums, t):
        stopped, full, correction = sums
        n = stopped.shape[-1]
        return stopped[..., :n - t], full[..., :n - t], correction[..., t:2 * t]

    monkeypatch.setattr(coinlab.matrices, "_nonzero_columns", wrong)


def _agreement_reads_the_flipped_coin(monkeypatch):
    # run_agreement reads each round's coin with its sign flipped
    rounds_of = coinlab.iteration.run_rounds

    def flipped(config, start, count):
        rounds = rounds_of(config, start, count)
        return replace(rounds, coin=-rounds.coin)

    monkeypatch.setattr(coinlab.iteration, "run_rounds", flipped)


def _lemma52_2_stops_at_the_end(monkeypatch):
    # the two-phase counter with the adversary's stop at S_end, not at the
    # window's minimum
    def counter(rng, count, start, *, length, head):
        at_head, ends, _ = coinlab.walks.walk_peaks(rng, count, length, head, -1)
        core, stopped = -at_head, -ends
        return mc._laws(length, core, core - stopped, stopped)

    monkeypatch.setattr(mc, "_two_phase_counter", counter)


def _lemma52_1_threshold_floor(monkeypatch):
    # the strict excess threshold floor(x) where floor(x) + 1 is meant
    monkeypatch.setattr(mc, "_strict_excess_threshold", lambda x: int(math.floor(x)))


_NO_EXACT_ROUND = ("no verdict reads the rounds' coin distribution: the good-event frequency "
                   "is an info row, and agreement needs only one agreeing round; ROADMAP "
                   "item 5's exact checks should catch it")


@pytest.mark.parametrize("argv", [FACT3, COIN_ITER, COIN_ITER + ["--workers", "2"],
                                  LEMMA52_1, LEMMA52_2, SPECTRAL, AGREEMENT], ids=" ".join)
def test_runs_without_a_defect_catch_nothing(argv):
    assert _caught(_results(argv)) == []


@pytest.mark.parametrize("defect, argv, caught_by", [
    pytest.param(_biased_coin, FACT3, "max_tail_le_twice_sum_tail", id="coin-bias-1/64"),
    # the rounds run as run_blocks blocks, on the calling thread or on a pool
    pytest.param(_adversary_never_stops, COIN_ITER, "deviation_components_additive",
                 id="never-stops-workers-1"),
    pytest.param(_adversary_never_stops, COIN_ITER + ["--workers", "2"],
                 "deviation_components_additive", id="never-stops-workers-2"),
    pytest.param(_stop_one_early, COIN_ITER, "deviation_components_additive",
                 id="stop-one-early-workers-1"),
    pytest.param(_stop_one_early, COIN_ITER + ["--workers", "2"],
                 "deviation_components_additive", id="stop-one-early-workers-2"),
    pytest.param(_norms_read_high, SPECTRAL, "power_iteration_matches_2x2_oracle",
                 id="norms-read-high"),
    pytest.param(_correction_on_wrong_columns, SPECTRAL, "SpectralCheckError: triangle",
                 id="correction-on-wrong-columns"),
    pytest.param(_shifted_solves_skipped, SPECTRAL, "", id="shifted-solves-skipped",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "every norm whose v misses its certificate is solved again by eigh, so "
                     "the report stays right and only slower; "
                     "test_default_spectral_norms_need_no_eigh catches it"))),
    pytest.param(partial(_biased_coin, one_in=4), LEMMA52_1, "stopped_stream_deviation_tail",
                 id="coin-bias-1/8"),
    pytest.param(_biased_round_coins, COIN_ITER, "", id="round-coin-bias-1/16-coin-iter",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NO_EXACT_ROUND)),
    pytest.param(_biased_round_coins, AGREEMENT, "", id="round-coin-bias-1/16-agreement",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NO_EXACT_ROUND)),
    pytest.param(_agreement_reads_the_flipped_coin, AGREEMENT, "", id="agreement-coin-flipped",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "agreement's one verdict asks only that some round agree within the "
                     "budget, and a flipped coin still agrees within a few rounds; ROADMAP "
                     "item 5's exact checks should catch it"))),
    pytest.param(_lemma52_2_stops_at_the_end, LEMMA52_2, "", id="lemma52-2-stop-at-end",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "lemma52-2's only verdict, p_full >= p_first - p_adversary_max, holds "
                     "whatever the stop: its right side is below 0 at n = 60, t = 3, and "
                     "p_full is not checked against its exact value"))),
    pytest.param(_lemma52_1_threshold_floor, LEMMA52_1, "", id="lemma52-1-threshold-floor",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "the tail at 70 (6.1e-7) and at 71 (3.9e-7) both sit far below the "
                     "bound 9.5e-6 and cannot be told apart at any affordable trial count, "
                     "and nothing recomputes the row's integer threshold"))),
])
def test_seeded_defect_is_caught(monkeypatch, defect, argv, caught_by):
    defect(monkeypatch)
    caught = _caught(_results(argv))
    assert caught
    assert all(claim.startswith(caught_by) for claim in caught)


def test_round_coin_bias_fails_the_exact_good_event_check(monkeypatch):
    # the exact check of the rounds' coins that no report row makes yet
    # (ROADMAP item 5) catches the bias the report-level cases above miss
    _biased_round_coins(monkeypatch)
    hits, (low, high), exact = good_event_check(0)
    assert not low <= exact <= high, (hits, low, high)
