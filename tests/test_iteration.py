from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlab.iteration
from coinlab.bounds import Params, derive
from coinlab.iteration import (
    IterationConfig,
    rounds_per_block,
    run_agreement,
    run_rounds,
    verify_coin_iter,
)
from coinlab.walks import apply_stop
from reference import good_event_check, round_coins

BASE = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=30)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, t_excluded=4)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, t_stopped=-1)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, ambiguous=4)
    with pytest.raises(ValueError):  # only -1 stands for t
        IterationConfig(n=60, t=3, ambiguous=-2)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, direction=0)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, bad_contribution=200)


def test_ambiguous_allowance_defaults_to_t():
    assert IterationConfig(n=60, t=3).ambiguous == 3
    assert IterationConfig(n=60, t=3, ambiguous=1).ambiguous == 1
    assert IterationConfig(n=60, t=0).ambiguous == 0


def _rebuilt_totals(rounds):
    return (rounds.core_sum + rounds.excluded_sum + rounds.stopped_sum
            + rounds.ambiguous_term + rounds.config.bad_contribution)


def _stopped_rows(rounds, j):
    """Round ``start + j``'s stopped streams, each with its stop index."""
    config = rounds.config
    return zip(rounds.streams[j, config.complete_count + config.t_excluded:],
               rounds.stop_indices[j].tolist())


def test_stream_layout_counts():
    rounds = run_rounds(BASE, 0, 1)
    assert BASE.complete_count == 54
    # 54 complete, then 1 excluded, then 2 stopped streams of 60 coins
    assert rounds.streams.shape == (1, 54 + 1 + 2, 60)
    assert rounds.stop_indices.shape == (1, 2)


def test_total_is_additive():
    rounds = run_rounds(BASE, 0, 50)
    assert np.array_equal(rounds.total, _rebuilt_totals(rounds))


def test_components_rederivable_from_streams():
    rounds = run_rounds(BASE, 7, 1)
    streams, k = rounds.streams[0], BASE.complete_count
    assert rounds.core_sum[0] == int(streams[:k].sum())
    assert rounds.excluded_sum[0] == int(streams[k : k + BASE.t_excluded].sum())
    stopped = 0
    for row, stop in _stopped_rows(rounds, 0):
        prefix = np.cumsum(row)
        stopped += int(prefix[stop - 1]) if stop >= 1 else 0
    assert rounds.stopped_sum[0] == stopped


def test_stopped_values_are_running_minima():
    # adversary direction +1: stops pick the running minimum of each stream
    rounds = run_rounds(BASE, 3, 1)
    for row, stop in _stopped_rows(rounds, 0):
        prefix = np.cumsum(row)
        value = int(prefix[stop - 1]) if stop >= 1 else 0
        assert value == int(prefix.min())


def test_ambiguous_term_opposes_adversary_direction():
    up = run_rounds(IterationConfig(n=60, t=3, seed=1), 0, 1)
    down = run_rounds(IterationConfig(n=60, t=3, direction=-1, seed=1), 0, 1)
    assert up.ambiguous_term == -3
    assert down.ambiguous_term == +3


def test_excluded_cap_semantics():
    # excluded streams enter the total raw, uncapped even past beta/4
    config = IterationConfig(n=16, t=5, t_excluded=5, seed=2)
    rounds = run_rounds(config, 0, 300)
    k = config.complete_count
    assert np.array_equal(rounds.excluded_sum,
                          rounds.streams[:, k : k + 5].sum(axis=(1, 2), dtype=np.int64))
    assert np.array_equal(rounds.total, _rebuilt_totals(rounds))
    # 5 streams of 16 coins exceed beta/4 ~ 6.7 sometimes
    assert (np.abs(rounds.excluded_sum) > derive(Params(n=16, t=5)).beta_quarter).any()


def test_coin_sign_convention():
    rounds = run_rounds(BASE, 0, 100)
    assert np.array_equal(rounds.coin, np.where(rounds.total >= 0, 1, -1))


def test_good_event_reads_only_the_core():
    thresholds = derive(Params(n=60, t=3))
    rounds = run_rounds(BASE, 0, 100)
    assert rounds.alpha_prime == pytest.approx(thresholds.alpha_prime)
    assert np.array_equal(rounds.good_event, rounds.core_sum >= thresholds.alpha_prime)


def test_good_event_direction_flip():
    rounds = run_rounds(IterationConfig(n=60, t=3, direction=-1, seed=9), 0, 100)
    assert np.array_equal(rounds.good_event, rounds.core_sum <= -rounds.alpha_prime)


def test_good_event_invariant_to_behavioral_knobs():
    variants = [
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        ambiguous=0),
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        bad_contribution=-180),
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        ambiguous=2, bad_contribution=90),
    ]
    base_events = run_rounds(BASE, 0, 120).good_event
    for variant in variants:
        assert np.array_equal(run_rounds(variant, 0, 120).good_event, base_events)


def test_iterations_are_independent_substreams():
    k = BASE.complete_count
    a = run_rounds(BASE, 0, 1)
    b = run_rounds(BASE, 1, 1)
    assert not np.array_equal(a.streams[0, :k], b.streams[0, :k])
    # and reproducible
    again = run_rounds(BASE, 0, 1)
    assert np.array_equal(a.streams[0, :k], again.streams[0, :k])
    assert a.total[0] == again.total[0]


def test_agreement_no_adversary_terminates_fast():
    result = run_agreement(IterationConfig(n=60, t=0, seed=5), 1000)
    assert result.agreed
    assert result.iterations_used <= 100


def test_agreement_success_iteration_matches_good_event():
    # with t=0 every deviation source is empty, so success on iteration i
    # is exactly the good event on iteration i
    config = IterationConfig(n=60, t=0, seed=11)
    result = run_agreement(config, 1000)
    i = result.iterations_used - 1
    events = run_rounds(config, 0, i + 1).good_event
    assert not events[:i].any()
    assert events[i]


def test_agreement_budget_exhaustion():
    # direction -1 with a huge positive bad contribution keeps the total
    # positive, so the coin never matches the adversary-opposing direction
    config = IterationConfig(n=9, t=4, direction=-1,
                             bad_contribution=36, seed=3)
    result = run_agreement(config, 5)
    assert result.iterations_used == 5
    rounds = run_rounds(config, 0, 5)
    agrees = (rounds.coin == -1) & (np.abs(rounds.total) >= rounds.alpha_prime)
    assert not agrees[:4].any()
    assert result.agreed == bool(agrees[4])


def _reference_round(config, i):
    """Round i by hand: its coins read bit by bit off the round stream,
    np.cumsum and Python min/max."""
    good = config.n - config.t
    streams = round_coins(config.seed, i, good * config.n).reshape(good, config.n)
    k, stopped_from = config.complete_count, config.complete_count + config.t_excluded
    thresholds = derive(Params(n=config.n, t=config.t))
    core = int(streams[:k].sum())
    excluded = int(streams[k:stopped_from].sum())
    stops, stopped = [], 0
    for row in streams[stopped_from:]:
        prefix = np.cumsum(row).tolist()
        # the adversary stops at the extreme against its own direction, first on ties
        extreme = min(prefix) if config.direction > 0 else max(prefix)
        stops.append(prefix.index(extreme) + 1)
        stopped += extreme
    ambiguous = -config.direction * config.ambiguous
    total = core + excluded + stopped + ambiguous + config.bad_contribution
    if config.direction > 0:
        good = core >= thresholds.alpha_prime
    else:
        good = core <= -thresholds.alpha_prime
    return {
        "streams": streams, "core_sum": core, "excluded_sum": excluded,
        "stopped_sum": stopped, "stop_indices": stops, "total": total,
        "coin": 1 if total >= 0 else -1, "good_event": good,
        "ambiguous_term": ambiguous,
        "agrees": (1 if total >= 0 else -1) == config.direction
                  and abs(total) >= thresholds.alpha_prime,
    }


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 14))
    t = draw(st.integers(0, (n - 1) // 2))
    t_excluded = draw(st.integers(0, t))
    t_stopped = draw(st.integers(0, min(t, n - t - t_excluded - 1)))
    return IterationConfig(
        n=n, t=t, t_excluded=t_excluded, t_stopped=t_stopped,
        ambiguous=draw(st.integers(-1, t)),
        direction=draw(st.sampled_from([1, -1])),
        bad_contribution=draw(st.integers(-t * n, t * n)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_rounds_match_reference(config, start, count):
    rounds = run_rounds(config, start, count)
    assert (rounds.start, len(rounds)) == (start, count)
    for j in range(count):
        want = _reference_round(config, start + j)
        assert np.array_equal(rounds.streams[j], want["streams"])
        got = {
            "core_sum": int(rounds.core_sum[j]),
            "excluded_sum": int(rounds.excluded_sum[j]),
            "stopped_sum": int(rounds.stopped_sum[j]),
            "stop_indices": rounds.stop_indices[j].tolist(),
            "total": int(rounds.total[j]),
            "coin": int(rounds.coin[j]),
            "good_event": bool(rounds.good_event[j]),
            "ambiguous_term": rounds.ambiguous_term,
        }
        assert got == {key: want[key] for key in got}, start + j
    # the reference's stops are read back whole and at the extreme
    assert not rounds.stops_unread.any() and not rounds.stops_off_extreme.any()


@settings(max_examples=150, deadline=None)
@given(config=_configs(), start=st.integers(0, 40), count=st.integers(1, 40))
def test_run_rounds_matches_a_plain_loop(config, start, count):
    _assert_rounds_match_reference(config, start, count)


@pytest.mark.parametrize("direction", [1, -1])
def test_run_rounds_across_a_round_index_of_2_to_the_32(direction):
    # rounds 2**32 - 2 .. 2**32 + 1 sit about 2**32 * W outputs into the
    # round stream, which one advance reaches
    config = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2,
                             direction=direction, seed=5)
    _assert_rounds_match_reference(config, 2**32 - 2, 4)


def test_round_draws_build_no_generator_per_round():
    # a run_rounds call seeds one SeedSequence and one PCG64, however many
    # rounds it draws, and no Generator; it reaches all of them through
    # np.random, so a return to per-round seeding shows here
    def counted(make):
        def build(*args, **kwargs):
            built.append(make.__name__)
            return make(*args, **kwargs)
        return build

    makers = (np.random.SeedSequence, np.random.PCG64, np.random.Generator, np.random.default_rng)
    for count in (1, 64):
        built = []
        want = run_rounds(BASE, 3, count)
        with mock.patch.multiple(np.random, **{make.__name__: counted(make) for make in makers}):
            rounds = run_rounds(BASE, 3, count)
        assert sorted(built) == ["PCG64", "SeedSequence"], count
        assert np.array_equal(rounds.streams, want.streams)


@settings(max_examples=100, deadline=None)
@given(config=_configs(), start=st.integers(0, 2**40), first=st.integers(1, 20),
       second=st.integers(1, 20))
def test_run_rounds_joins_up_across_calls(config, start, first, second):
    # rounds start .. start+first-1, then the next second rounds, are the
    # rounds of one call for all of them, field by field
    whole = run_rounds(config, start, first + second)
    parts = run_rounds(config, start, first), run_rounds(config, start + first, second)
    for field in fields(whole):
        want = getattr(whole, field.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(np.concatenate([getattr(p, field.name) for p in parts]),
                                  want), field.name
        elif field.name != "start":
            assert all(getattr(p, field.name) == want for p in parts), field.name


@settings(max_examples=40, deadline=None)
@given(config=_configs(), budget=st.integers(1, 200))
def test_run_agreement_does_not_depend_on_its_first_chunk(config, budget):
    # the chunk schedule moves only the number of run_rounds calls
    results = set()
    for first in (1, 8, 64):
        with mock.patch.object(coinlab.iteration, "_FIRST_CHUNK", first):
            results.add(run_agreement(config, budget))
    assert len(results) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_good_event_rate_covers_its_exact_value(seed):
    # 20,000 rounds at coin-iter's defaults: the good event's interval at
    # confidence 1 - 1e-6 covers its exact probability, 0.1419353
    hits, (low, high), exact = good_event_check(seed)
    assert exact == pytest.approx(0.1419353, abs=1e-7)
    assert low <= exact <= high, (hits, low, high)


@settings(max_examples=60, deadline=None)
@given(config=_configs(), budget=st.integers(1, 80), block=st.integers(1, 40))
def test_run_agreement_matches_a_plain_loop(config, budget, block):
    # blocks below the first chunk of 16 cap it, and larger ones let the
    # doubling chunks (16, 32, 64, ...) run into their cap or the budget
    with mock.patch.object(coinlab.iteration, "rounds_per_block", lambda config: block):
        result = run_agreement(config, budget)
    agrees = [_reference_round(config, i)["agrees"] for i in range(budget)]
    used = agrees.index(True) + 1 if any(agrees) else budget
    assert (result.agreed, result.iterations_used) == (any(agrees), used)
    assert run_rounds(config, 0, used).total.tolist() == [
        _reference_round(config, i)["total"] for i in range(used)]


def test_run_rounds_turns_coin_bytes_into_steps_in_place(traced_peak):
    # A wide block of rounds peaks at about its own int8 steps and the bits
    # they were unpacked from, 1/8 B a coin: the unpacked 0/1 bytes become
    # +/-1 in place, with no block-sized temporary.
    config = IterationConfig(n=400, t=20, t_stopped=1, seed=3)
    count = 40
    run_rounds(config, 0, 1)
    rounds, peak = traced_peak(lambda: run_rounds(config, 0, count))
    assert rounds.streams.dtype == np.int8
    assert peak < 1.125 * count * (config.n - config.t) * config.n + 2**20


def _check_counts(rounds):
    return (np.count_nonzero(rounds.stops_unread), np.count_nonzero(rounds.stops_off_extreme))


def test_a_default_coin_iter_block_fits_in_a_small_budget(traced_peak):
    # coin-iter's default round block, scored and checked in one pass, peaks
    # at about its own raw bytes: (n-t)*n coins a round, about 1 MB
    config = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=0)
    count = rounds_per_block(config)
    run_rounds(config, 0, 1)
    rounds, peak = traced_peak(lambda: run_rounds(config, 0, count))
    assert _check_counts(rounds) == (0, 0)
    assert peak < 2 * 2**20


@settings(max_examples=150, deadline=None)
@given(config=_configs(), start=st.integers(0, 40), count=st.integers(1, 30),
       streams_per_group=st.integers(1, 5), corrupt_seed=st.integers(0, 2**32 - 1))
def test_stopped_stream_groups_match_one_group(config, start, count, streams_per_group,
                                               corrupt_seed):
    # groups of 1-5 whole streams split rounds and their stopped streams
    # anywhere; every field, both check arrays among them, must equal one
    # group's, with the true stop and with one that moves each stop and its
    # value by a function of the walk alone
    def corrupted_stop(sums, strategy):
        stop, value = apply_stop(sums, strategy)
        key = (sums * np.arange(1, config.n + 1)).sum(axis=-1, dtype=np.int64) + corrupt_seed
        return key % (config.n + 1), value + (key // (config.n + 1)) % 2

    for stop in (apply_stop, corrupted_stop):
        with mock.patch.object(coinlab.iteration, "apply_stop", stop):
            whole = run_rounds(config, start, count)
            with mock.patch.object(coinlab.iteration, "_CHUNK_COINS",
                                   streams_per_group * config.n):
                grouped = run_rounds(config, start, count)
        for field in fields(whole):
            got, want = getattr(grouped, field.name), getattr(whole, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert got == want, field.name


def test_a_wide_round_holds_its_coins_and_a_chunk(traced_peak):
    # 2 rounds of 1100 streams of 2000 coins, 900 of them stopped: a byte per
    # coin plus int16 prefix sums of one group of stopped streams at a time
    config = IterationConfig(n=2000, t=900, t_stopped=900, seed=0)
    count = 2
    coins = count * (config.n - config.t) * config.n
    run_rounds(BASE, 0, 2)
    rounds, peak = traced_peak(lambda: run_rounds(config, 0, count))
    assert _check_counts(rounds) == (0, 0)
    assert peak < 1.5 * coins + 2 * 2**20


def test_coin_iter_takes_each_stopped_stream_prefix_sums_once(monkeypatch):
    # the check reads the stops run_rounds takes: one _stopped_walks pass a
    # run_rounds call, over the blocks and the invariance probe's variants
    calls = {"run_rounds": 0, "_stopped_walks": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(coinlab.iteration, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(coinlab.iteration, name, counted)
    verify_coin_iter(BASE, 2 * rounds_per_block(BASE) + 1)
    assert calls["run_rounds"] == 5 and calls["_stopped_walks"] == calls["run_rounds"]


@pytest.mark.parametrize("config", [
    # parts of 2**15 - 1 coins, the most int16 sums: the core (151 streams
    # of 217 coins) and the excluded streams (31 of 1057)
    IterationConfig(n=217, t=33, t_excluded=31, t_stopped=2),
    IterationConfig(n=1057, t=31, t_excluded=31, t_stopped=31),
    # parts of 2**15 coins, summed in int32: the core (128 of 256) and the
    # excluded streams (32 of 1024)
    IterationConfig(n=256, t=64, t_excluded=64),
    IterationConfig(n=1024, t=32, t_excluded=32, t_stopped=16),
    # about 40k coins: the core holds 194 streams of 200
    IterationConfig(n=200, t=3, t_stopped=3),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_narrow_sums_hold_at_the_int16_boundary(config, sign):
    # Rounds of all +1 or all -1 coins put every part's sum at its limit,
    # which random coins never come near; the adversary stops against the
    # coins' sign, at the stopped streams' far end. Every sum must equal a
    # plain int64 one, in run_rounds and in the check that reads the stops
    # back.
    config = replace(config, direction=-sign)
    count = 2

    def steps(seed, start, count, size):
        return np.full((count, size), sign, dtype=np.int8)

    with mock.patch.object(coinlab.iteration, "round_steps", steps):
        rounds = run_rounds(config, 0, count)
    k, stopped_from = config.complete_count, config.complete_count + config.t_excluded
    streams = rounds.streams.astype(np.int64)
    walks = np.cumsum(streams[:, stopped_from:], axis=-1)
    assert rounds.core_sum.tolist() == streams[:, :k].sum(axis=(1, 2)).tolist()
    assert rounds.excluded_sum.tolist() == streams[:, k:stopped_from].sum(axis=(1, 2)).tolist()
    assert rounds.stopped_sum.tolist() == walks[..., -1].sum(axis=-1).tolist()
    assert abs(rounds.core_sum[0]) == k * config.n
    assert _check_counts(rounds) == (0, 0)
