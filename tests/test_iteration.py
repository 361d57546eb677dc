from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlab.iteration
import coinlab.walks
from coinlab.bounds import Params, derive
from coinlab.iteration import (
    IterationConfig,
    _component_failures,
    rounds_per_block,
    run_agreement,
    run_rounds,
)
from coinlab.matrices import build_G
from coinlab.walks import StoppingStrategy, draw_steps

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
    """Round i by hand: its own generator, np.cumsum and Python min/max."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
    streams = draw_steps(rng, (config.n - config.t, config.n))
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


@settings(max_examples=150, deadline=None)
@given(config=_configs(), start=st.integers(0, 40), count=st.integers(1, 40))
def test_run_rounds_matches_a_plain_loop(config, start, count):
    _assert_rounds_match_reference(config, start, count)


@pytest.mark.parametrize("direction", [1, -1])
def test_run_rounds_across_a_round_index_of_2_to_the_32(direction):
    # round 2**32 is the first whose index SeedSequence splits into two words
    config = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2,
                             direction=direction, seed=5)
    _assert_rounds_match_reference(config, 2**32 - 2, 4)


def test_round_draws_build_no_generator_per_round():
    # run_rounds and build_G with an int seed derive every round's substream
    # without a SeedSequence or a Generator per round; both modules reach
    # these through np.random, so a return to per-round seeding raises here.
    def per_round_seeding(*args, **kwargs):
        raise AssertionError("a SeedSequence or a Generator was built for a round")

    params = Params(n=12, t=2, m=8)
    adversary = StoppingStrategy.omniscient_extreme(direction=-1)
    want_rounds, want_G = run_rounds(BASE, 0, 64), build_G(params, adversary, 4)
    with mock.patch.multiple(np.random, SeedSequence=per_round_seeding,
                             default_rng=per_round_seeding):
        assert coinlab.iteration.np.random.default_rng is per_round_seeding
        assert coinlab.walks.np.random.SeedSequence is per_round_seeding
        rounds, G = run_rounds(BASE, 0, 64), build_G(params, adversary, 4)
    assert np.array_equal(rounds.streams, want_rounds.streams)
    assert np.array_equal(G.stopped_sums, want_G.stopped_sums)


@settings(max_examples=60, deadline=None)
@given(config=_configs(), budget=st.integers(1, 30), block=st.integers(1, 5))
def test_run_agreement_matches_a_plain_loop(config, budget, block):
    # small blocks make the doubling chunks (1, 2, 4, ...) hit their cap
    with mock.patch.object(coinlab.iteration, "rounds_per_block", lambda config: block):
        result = run_agreement(config, budget)
    agrees = [_reference_round(config, i)["agrees"] for i in range(budget)]
    used = agrees.index(True) + 1 if any(agrees) else budget
    assert (result.agreed, result.iterations_used) == (any(agrees), used)
    assert run_rounds(config, 0, used).total.tolist() == [
        _reference_round(config, i)["total"] for i in range(used)]


def test_run_rounds_turns_coin_bytes_into_steps_in_place(traced_peak):
    # A wide block of rounds peaks at about its own int8 steps: the drawn
    # bytes become +/-1 in place, with no block-sized temporary.
    config = IterationConfig(n=400, t=20, t_stopped=1, seed=3)
    count = 40
    run_rounds(config, 0, 1)
    rounds, peak = traced_peak(lambda: run_rounds(config, 0, count))
    assert rounds.streams.dtype == np.int8
    assert peak < 1.5 * count * (config.n - config.t) * config.n + 2**20


def test_a_default_coin_iter_block_fits_in_a_small_budget(traced_peak):
    # coin-iter's default round block, scored and then checked by the CLI,
    # peaks at about its own raw bytes: (n-t)*n coins a round, about 1 MB
    config = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=0)
    count = rounds_per_block(config)
    _component_failures(run_rounds(config, 0, 1))
    failures, peak = traced_peak(lambda: _component_failures(run_rounds(config, 0, count)))
    assert failures == (0, 0)
    assert peak < 2 * 2**20


@settings(max_examples=150, deadline=None)
@given(config=_configs(), start=st.integers(0, 40), count=st.integers(1, 30),
       streams_per_group=st.integers(1, 5), corrupt_seed=st.integers(0, 2**32 - 1))
def test_stopped_stream_groups_match_one_group(config, start, count, streams_per_group,
                                               corrupt_seed):
    # groups of 1-5 whole streams split rounds and their stopped streams
    # anywhere; every field and both check counts must equal one group's
    whole = run_rounds(config, start, count)
    rng = np.random.default_rng(corrupt_seed)
    corrupted = replace(
        whole,
        stop_indices=rng.integers(0, config.n + 1, size=whole.stop_indices.shape),
        total=whole.total + rng.integers(0, 2, size=count))
    with mock.patch.object(coinlab.iteration, "_CHUNK_COINS", streams_per_group * config.n):
        grouped = run_rounds(config, start, count)
        checks = [_component_failures(rounds) for rounds in (grouped, corrupted)]
    for field in fields(whole):
        got, want = getattr(grouped, field.name), getattr(whole, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert got == want, field.name
    assert checks == [_component_failures(rounds) for rounds in (whole, corrupted)]


def test_a_wide_round_holds_its_coins_and_a_chunk(traced_peak):
    # 2 rounds of 1100 streams of 2000 coins, 900 of them stopped: a byte per
    # coin plus int32 prefix sums of one group of stopped streams at a time
    config = IterationConfig(n=2000, t=900, t_stopped=900, seed=0)
    count = 2
    coins = count * (config.n - config.t) * config.n
    _component_failures(run_rounds(BASE, 0, 2))
    failures, peak = traced_peak(lambda: _component_failures(run_rounds(config, 0, count)))
    assert failures == (0, 0)
    assert peak < 1.5 * coins + 2 * 2**20
