import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinlab.walks import (
    MAX_STREAM_LENGTH,
    StoppingStrategy,
    WalkTrace,
    apply_stop,
    generate_walk,
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
