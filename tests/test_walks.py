import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinlab.walks import (
    MAX_STREAM_LENGTH,
    StoppingStrategy,
    WalkTrace,
    apply_stop,
    draw_steps,
    generate_walk,
    segment_stats,
)

step_lists = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=60)


def test_trace_prefix_structure():
    trace = WalkTrace.from_steps([1, 1, -1, 1, -1, -1, -1])
    assert list(trace.prefix_sums) == [0, 1, 2, 1, 2, 1, 0, -1]
    assert trace.run_max == 2
    assert trace.run_min == -1
    assert trace.argmax == 2  # smallest prefix attaining the max
    assert trace.argmin == 7
    assert len(trace) == 7


def test_trace_rejects_bad_steps():
    with pytest.raises(ValueError):
        WalkTrace.from_steps([1, 0, -1])
    with pytest.raises(ValueError):
        WalkTrace.from_steps([[1, -1]])


def test_empty_walk():
    trace = WalkTrace.from_steps([])
    assert list(trace.prefix_sums) == [0]
    assert trace.run_max == 0 and trace.run_min == 0


def test_generate_walk_deterministic():
    a = generate_walk(500, np.random.default_rng(123))
    b = generate_walk(500, np.random.default_rng(123))
    assert np.array_equal(a.steps, b.steps)
    assert set(np.unique(a.steps)) <= {-1, 1}


def test_generate_walk_rejects_bad_length():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_walk(-1, rng)
    with pytest.raises(ValueError):
        generate_walk(MAX_STREAM_LENGTH + 1, rng)


@given(step_lists)
def test_trace_extremes_match_prefixes(steps):
    trace = WalkTrace.from_steps(steps)
    prefixes = np.concatenate([[0], np.cumsum(steps)])
    assert trace.run_max == prefixes.max()
    assert trace.run_min == prefixes.min()


def test_no_stop_keeps_everything():
    trace = WalkTrace.from_steps([1, -1, 1, 1])
    stopped = apply_stop(trace, StoppingStrategy.no_stop())
    assert stopped.stop_index == 4
    assert stopped.value == 2


def test_fixed_length_truncates():
    trace = WalkTrace.from_steps([1, 1, 1, -1])
    stopped = apply_stop(trace, StoppingStrategy.fixed_length(2))
    assert stopped.stop_index == 2
    assert stopped.value == 2
    assert apply_stop(trace, StoppingStrategy.fixed_length(0)).value == 0
    with pytest.raises(ValueError):
        apply_stop(trace, StoppingStrategy.fixed_length(5))


def test_first_hit_stops_at_threshold():
    trace = WalkTrace.from_steps([1, 1, 1, -1, 1])
    strategy = StoppingStrategy.first_hit(2, direction=+1)
    stopped = apply_stop(trace, strategy)
    assert stopped.stop_index == 2
    assert stopped.value == 2


def test_first_hit_falls_back_to_window_end():
    trace = WalkTrace.from_steps([1, -1, 1, -1])
    strategy = StoppingStrategy.first_hit(3, direction=+1, window=(1, 3))
    stopped = apply_stop(trace, strategy)
    assert stopped.stop_index == 3
    assert stopped.value == 1


def test_first_hit_negative_direction():
    # prefixes 0, 1, 0, -1, -2: the first prefix at or below -2 is the last
    trace = WalkTrace.from_steps([1, -1, -1, -1])
    stopped = apply_stop(trace, StoppingStrategy.first_hit(2, direction=-1))
    assert stopped.stop_index == 4
    assert stopped.value == -2


def test_first_hit_requires_positive_threshold():
    with pytest.raises(ValueError):
        StoppingStrategy.first_hit(0)


def test_omniscient_extreme_picks_smallest_argmin():
    # both prefix 2 and prefix 6 sit at the minimum; adversary takes the first
    trace = WalkTrace.from_steps([-1, -1, 1, 1, -1, -1])
    stopped = apply_stop(trace, StoppingStrategy.omniscient_extreme(direction=-1))
    assert stopped.stop_index == 2
    assert stopped.value == -2


def test_window_validation():
    trace = WalkTrace.from_steps([1, 1])
    bad = StoppingStrategy.omniscient_extreme(direction=+1, window=(1, 5))
    with pytest.raises(ValueError):
        apply_stop(trace, bad)
    with pytest.raises(ValueError):
        StoppingStrategy.omniscient_extreme(direction=+1, window=(0, 2))


@given(step_lists, st.sampled_from([-1, 1]))
@settings(max_examples=200)
def test_omniscient_dominates_every_other_stop(steps, direction):
    # the omniscient stop is by definition the worst over all stop points
    trace = WalkTrace.from_steps(steps)
    n = len(steps)
    best = apply_stop(trace, StoppingStrategy.omniscient_extreme(direction=direction))
    for k in range(1, n + 1):
        other = apply_stop(trace, StoppingStrategy.fixed_length(k))
        assert direction * best.value >= direction * other.value


@given(step_lists)
def test_first_hit_value_is_exact_on_hit(steps):
    trace = WalkTrace.from_steps(steps)
    stopped = apply_stop(trace, StoppingStrategy.first_hit(1, direction=+1))
    if trace.run_max >= 1:
        assert stopped.value == 1  # +/-1 increments cannot overshoot
    else:
        assert stopped.stop_index == len(steps)


def test_describe_mentions_kind():
    assert "omniscient" in StoppingStrategy.omniscient_extreme(direction=+1).describe()
    assert "first_hit" in StoppingStrategy.first_hit(3).describe()


def _reference_stop(steps, strategy):
    # plain-Python statement of each rule, for the batched path to agree with
    prefix = [0]
    for step in steps:
        prefix.append(prefix[-1] + int(step))
    n = len(steps)
    if strategy.kind == "no_stop":
        stop = n
    elif strategy.kind == "fixed_length":
        stop = strategy.length
    else:
        lo, hi = strategy.window if strategy.window is not None else (1, n)
        d = strategy.direction
        if strategy.kind == "first_hit":
            hits = [k for k in range(lo, hi + 1) if d * prefix[k] >= strategy.threshold]
            stop = hits[0] if hits else hi
        else:
            stop = lo
            for k in range(lo + 1, hi + 1):
                if d * prefix[k] > d * prefix[stop]:
                    stop = k
    return stop, prefix[stop]


@st.composite
def batches_and_strategies(draw):
    rows = draw(st.integers(1, 5))
    length = draw(st.integers(1, 12))
    row = st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length)
    steps = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int8)
    direction = draw(st.sampled_from([-1, 1]))
    window = draw(st.none() | st.integers(1, length).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, length))))
    kind = draw(st.sampled_from(["no_stop", "fixed_length", "first_hit", "omniscient_extreme"]))
    if kind == "no_stop":
        strategy = StoppingStrategy.no_stop()
    elif kind == "fixed_length":
        strategy = StoppingStrategy.fixed_length(draw(st.integers(0, length)))
    elif kind == "first_hit":
        strategy = StoppingStrategy.first_hit(draw(st.integers(1, length + 1)), direction, window)
    else:
        strategy = StoppingStrategy.omniscient_extreme(direction, window)
    return steps, strategy


@given(batches_and_strategies())
@example((np.array([[1]], dtype=np.int8), StoppingStrategy.omniscient_extreme(-1)))
@example((np.array([[-1, 1, -1, 1], [1, -1, 1, -1]], dtype=np.int8),
          StoppingStrategy.omniscient_extreme(+1, window=(1, 4))))
@settings(max_examples=300)
def test_batched_stop_matches_reference_row_by_row(case):
    steps, strategy = case
    batched = apply_stop(np.cumsum(steps, axis=-1), strategy)
    assert batched.stop_index.shape == batched.value.shape == steps.shape[:1]
    for i, row in enumerate(steps):
        expected = _reference_stop(row, strategy)
        assert (int(batched.stop_index[i]), int(batched.value[i])) == expected
        scalar = apply_stop(WalkTrace.from_steps(row), strategy)
        assert (scalar.stop_index, scalar.value) == expected


def _assert_stats_match_cumsum(count, length, cuts, seed):
    ends, tops, bottoms = segment_stats(np.random.default_rng(seed), count, length, cuts)
    sums = np.cumsum(draw_steps(np.random.default_rng(seed), (count, length)), axis=1)
    bounds = [0, *cuts, length]
    assert ends.shape == tops.shape == bottoms.shape == (count, len(bounds) - 1)
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        end = sums[:, hi - 1] if hi else np.zeros(count, dtype=sums.dtype)
        inside = sums[:, lo:hi] if hi > lo else end[:, None]  # empty: the end value
        assert np.array_equal(ends[:, j], end)
        assert np.array_equal(tops[:, j], inside.max(axis=1))
        assert np.array_equal(bottoms[:, j], inside.min(axis=1))


@st.composite
def stats_cases(draw):
    count = draw(st.integers(1, 40))
    length = draw(st.integers(1, 70))
    cut = st.integers(0, length) | st.integers(0, length // 8).map(lambda k: 8 * k)
    cuts = sorted(draw(st.lists(cut, max_size=4)))
    return count, length, cuts, draw(st.integers(0, 2**32 - 1))


@given(stats_cases())
@example((3, 20, [8, 8, 13], 0))  # equal cuts: an empty segment
@example((2, 5, [0, 5], 1))  # empty first and last segments
@example((4, 70, [3, 64], 2))  # whole bytes plus up to seven odd coins
@settings(max_examples=200, deadline=None)
def test_segment_stats_match_cumsum_of_draw_steps(case):
    _assert_stats_match_cumsum(*case)


def test_segment_stats_long_walks_scan_wider():
    # past 2**15 steps a prefix sum may leave int16, so the scan widens
    _assert_stats_match_cumsum(2, 40_000, [12_345], 5)


def test_segment_stats_rejects_bad_cuts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        segment_stats(rng, 2, 10, [6, 4])
    with pytest.raises(ValueError):
        segment_stats(rng, 2, 10, [11])
    with pytest.raises(ValueError):
        segment_stats(rng, 0, 10)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 5), (7, 3), (13, 1), (8, 8), (57, 60)])
def test_int8_coins_are_bit_7_of_generator_bytes(shape):
    # segment_stats reads draw_steps' coins this way; if a NumPy release
    # changes how integers() draws, this fails instead of reports moving
    by_integers, by_bytes = np.random.default_rng(9), np.random.default_rng(9)
    coins = by_integers.integers(0, 2, size=shape, dtype=np.int8)
    total = shape[0] * shape[1]
    raw = np.frombuffer(by_bytes.bytes(-(-total // 4) * 4), dtype=np.uint8)[:total]
    assert np.array_equal(coins, (raw >> 7).reshape(shape))
    assert by_integers.integers(0, 2**63) == by_bytes.integers(0, 2**63)
