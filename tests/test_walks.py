from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coinlab.walks
from coinlab import mc
from coinlab.walks import (
    ROUND_TAG,
    StoppingStrategy,
    WalkTrace,
    apply_stop,
    coin_bytes,
    coin_steps,
    draw_steps,
    round_steps,
    substream,
    walk_peaks,
)
from reference import round_coins

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


@given(step_lists)
def test_trace_extremes_match_prefixes(steps):
    trace = WalkTrace.from_steps(steps)
    prefixes = np.concatenate([[0], np.cumsum(steps)])
    assert trace.run_max == prefixes.max()
    assert trace.run_min == prefixes.min()


def test_omniscient_extreme_picks_smallest_argmin():
    # both prefix 2 and prefix 6 sit at the minimum; adversary takes the first
    sums = np.cumsum([[-1, -1, 1, 1, -1, -1]], axis=-1)
    stop, value = apply_stop(sums, StoppingStrategy.omniscient_extreme(direction=-1))
    assert stop.tolist() == [2] and value.tolist() == [-2]


def test_omniscient_extreme_refuses_other_directions():
    for direction in (0, 2, "+"):
        with pytest.raises(ValueError, match="direction"):
            StoppingStrategy.omniscient_extreme(direction)


@given(step_lists, st.sampled_from([-1, 1]))
@settings(max_examples=200)
def test_omniscient_dominates_every_other_stop(steps, direction):
    # the omniscient stop is by definition the worst over all stop points
    sums = np.cumsum([steps], axis=-1)
    stop, value = apply_stop(sums, StoppingStrategy.omniscient_extreme(direction=direction))
    assert value[0] == sums[0, stop[0] - 1]
    assert np.all(direction * value[0] >= direction * sums[0])


def _reference_stop(steps, direction, lo, hi):
    # plain-Python statement of the omniscient rule on stop points lo..hi,
    # for the batched path to agree with
    prefix = [0]
    for step in steps:
        prefix.append(prefix[-1] + int(step))
    stop = lo
    for k in range(lo + 1, hi + 1):
        if direction * prefix[k] > direction * prefix[stop]:
            stop = k
    return stop, prefix[stop]


@st.composite
def batches_and_windows(draw):
    rows = draw(st.integers(1, 5))
    length = draw(st.integers(1, 12))
    row = st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length)
    steps = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int8)
    lo = draw(st.integers(1, length))
    return steps, draw(st.sampled_from([-1, 1])), lo, draw(st.integers(lo, length))


@given(batches_and_windows())
@example((np.array([[1]], dtype=np.int8), -1, 1, 1))
@example((np.array([[-1, 1, -1, 1], [1, -1, 1, -1]], dtype=np.int8), +1, 1, 4))
@example((np.array([[1, 1, -1, -1, -1, 1]], dtype=np.int8), -1, 3, 5))
@settings(max_examples=300)
def test_batched_stop_matches_reference_row_by_row(case):
    # a window of stop points lo..hi is the slice of the sums that holds it
    steps, direction, lo, hi = case
    sums = np.cumsum(steps, axis=-1)
    stop, value = apply_stop(sums[..., lo - 1 : hi], StoppingStrategy.omniscient_extreme(direction))
    assert stop.shape == value.shape == steps.shape[:1]
    for i, row in enumerate(steps):
        expected = _reference_stop(row, direction, lo, hi)
        assert (int(stop[i]) + lo - 1, int(value[i])) == expected


def _assert_peaks_match_cumsum(count, length, head, seed, signs):
    rng = np.random.default_rng(seed)
    peaks = walk_peaks(rng, count, length, head, signs)
    reference = np.random.default_rng(seed)
    steps = np.asarray(signs)[..., None] * draw_steps(reference, (count, length))
    assert rng.bit_generator.state == reference.bit_generator.state
    _assert_peaks_of(steps, head, peaks)


def _assert_peaks_of(steps, head, peaks):
    # walk_peaks' three arrays against a plain int64 cumsum of the steps
    at_head, ends, tops = peaks
    count, length = steps.shape
    sums = np.zeros((count, length + 1), dtype=np.int64)  # column k holds S_k
    np.cumsum(steps, axis=1, out=sums[:, 1:])
    assert at_head.shape == ends.shape == tops.shape == (count,)
    assert np.array_equal(at_head, sums[:, head])
    assert np.array_equal(ends, sums[:, length])
    window = sums[:, head + 1 :] if head < length else sums[:, head : head + 1]
    assert np.array_equal(tops, window.max(axis=1))


_signs = st.sampled_from([-1, 1])


@st.composite
def peaks_cases(draw):
    count = draw(st.integers(1, 40))
    length = draw(st.integers(1, 70))
    head = draw(st.integers(0, length) | st.integers(0, length // 8).map(lambda k: 8 * k))
    signs = draw(_signs | st.lists(_signs, min_size=count, max_size=count).map(np.array))
    return count, length, head, draw(st.integers(0, 2**32 - 1)), signs


@given(peaks_cases())
@example((3, 20, 0, 0, 1))  # an empty head
@example((2, 5, 5, 1, -1))  # an empty window
@example((4, 70, 64, 2, np.array([1, -1, -1, 1])))  # a head on a byte boundary
@example((5, 23, 13, 3, np.array([-1, 1, 1, -1, 1])))  # an odd head, per-walk signs
@example((6, 16, 0, 4, 1))  # fact3 and lemma71: the tail counter
@example((6, 200, 0, 5, np.array([1, -1, 1, -1, 1, -1])))  # lemma52-1: directional hits
@example((5, 72, 63, 6, -1))  # lemma52-2: the two-phase counter
@example((2, 40_000, 12_345, 7, np.array([1, -1])))  # past 2**15 steps the scan is int32
@settings(max_examples=200, deadline=None)
def test_walk_peaks_match_cumsum_of_draw_steps(case):
    _assert_peaks_match_cumsum(*case)


def test_walk_peaks_long_walks_scan_wider():
    # past 2**15 steps a prefix sum may leave int16, so the scan widens; here
    # the head itself is past 2**15 and every walk is mirrored
    _assert_peaks_match_cumsum(3, 40_000, 33_000, 5, -1)


@pytest.mark.parametrize("head", [2**15 - 1, 2**15, 40_000])
@pytest.mark.parametrize("signs", [1, -1])
def test_walk_peaks_head_counts_hold_at_the_int16_boundary(head, signs):
    # a head's count of +1 coins is summed in int16 below 2**15 coins and in
    # int32 from there; heads of all +1 coins reach the count's limit, which
    # random coins never come near
    length = head + 21
    raw = np.random.default_rng(head).integers(0, 256, size=(4, length), dtype=np.uint8)
    raw[0], raw[1], raw[2, :head] = 255, 0, 255  # all +1, all -1, a head of +1
    flat, drawn = raw.reshape(-1), []

    def coin_bytes(rng, size, calls=1):
        first = sum(drawn)
        drawn.append(calls * size)
        return flat[first : first + calls * size].reshape(calls, size)

    with mock.patch.object(coinlab.walks, "coin_bytes", coin_bytes):
        peaks = walk_peaks(np.random.default_rng(0), len(raw), length, head, signs)
    assert sum(drawn) == raw.size
    _assert_peaks_of(signs * np.where(raw >= 128, 1, -1), head, peaks)


@st.composite
def chunked_peaks_cases(draw):
    # chunks of 8 to 64 coins: walks longer than a chunk, odd lengths (a chunk
    # then holds four walks, so its bytes end on a 4-byte word) and counts
    # that leave a partial last chunk
    chunk_coins = draw(st.integers(8, 64))
    length = draw(st.integers(1, 90))
    count = draw(st.integers(1, 30))
    head = draw(st.integers(0, length))
    signs = draw(_signs | st.lists(_signs, min_size=count, max_size=count).map(np.array))
    return chunk_coins, (count, length, head, draw(st.integers(0, 2**32 - 1)), signs)


@given(chunked_peaks_cases())
@example((8, (7, 9, 4, 0, 1)))  # odd walks longer than a chunk
@example((64, (30, 13, 13, 1, -1)))  # four walks a chunk, a partial last
@example((16, (5, 70, 3, 2, np.array([1, -1, -1, 1, 1]))))
@settings(max_examples=200, deadline=None)
def test_walk_peaks_chunks_match_one_shot_draw(case):
    # chunk by chunk, the draws must join up to the one-shot draw and leave
    # the generator where it does, which _assert_peaks_match_cumsum checks
    chunk_coins, peaks_case = case
    with mock.patch.object(coinlab.walks, "_CHUNK_COINS", chunk_coins):
        _assert_peaks_match_cumsum(*peaks_case)


@pytest.mark.parametrize("count, length, head, signs, budget", [
    # lemma52-2's block of 2452 two-phase walks (8.4 M coins): one chunk of
    # raw coins, a head count per walk and one bit per window coin
    (2452, 3420, 3240, -1, 2 * 2**20),
    # 12.8 M coins scanned whole: one bit and one int32 running sum per
    # eight coins, and the byte table read a chunk of rows at a time
    (128, 10**5, 0, 1, 12 * 2**20),
])
def test_walk_peaks_memory_is_a_chunk_not_a_block(count, length, head, signs, budget,
                                                  traced_peak):
    walk_peaks(np.random.default_rng(0), 8, length, head, signs)
    rng = np.random.default_rng(0)
    _, peak = traced_peak(lambda: walk_peaks(rng, count, length, head, signs))
    assert peak < budget


def test_walk_peaks_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    for count, head, signs, refusal in [
        (2, -1, 1, "head"), (2, 11, 1, "head"),  # a head outside [0, length]
        (0, 0, 1, "count"),
        (2, 4, np.array([1, 0]), "signs"), (2, 4, np.array([1, -1, 1]), "signs"),
        (2, 4, 0, "signs"), (2, 4, 1.5, "signs"),  # 1.5 is not read as +1
        (2, 4, np.array([True, True]), "signs"),
    ]:
        with pytest.raises(ValueError, match=refusal):
            walk_peaks(rng, count, 10, head, signs)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 5), (7, 3), (13, 1), (8, 8), (57, 60), (5, 5)])
def test_int8_coins_are_bit_7_of_generator_bytes(shape):
    # coin_bytes reads draw_steps' coins this way; if a NumPy release
    # changes how integers() draws, this fails instead of reports moving
    by_integers, by_bytes = np.random.default_rng(9), np.random.default_rng(9)
    coins = by_integers.integers(0, 2, size=shape, dtype=np.int8)
    total = shape[0] * shape[1]
    raw = np.frombuffer(by_bytes.bytes(-(-total // 4) * 4), dtype=np.uint8)[:total]
    assert np.array_equal(coins, (raw >> 7).reshape(shape))
    _assert_same_generators(by_integers, by_bytes)
    assert by_integers.integers(0, 2**63) == by_bytes.integers(0, 2**63)
    # successive draws each pad to whole words of 4 bytes: three draws of
    # (5, 5) coins read 3 x 28 bytes, and coin_bytes reads them the same way
    calls = 3
    by_integers, by_bytes, by_coin_bytes = (np.random.default_rng(9) for _ in range(3))
    coins = np.stack([by_integers.integers(0, 2, size=shape, dtype=np.int8) for _ in range(calls)])
    padded = -(-total // 4) * 4
    raw = np.frombuffer(by_bytes.bytes(calls * padded), dtype=np.uint8).reshape(calls, padded)
    assert np.array_equal(coins, (raw[:, :total] >> 7).reshape(calls, *shape))
    assert np.array_equal(coin_bytes(by_coin_bytes, total, calls), raw[:, :total])
    _assert_same_generators(by_integers, by_bytes, by_coin_bytes)
    ends = {rng.integers(0, 2**63) for rng in (by_integers, by_bytes, by_coin_bytes)}
    assert len(ends) == 1


def _assert_same_generators(*rngs):
    # A 64-bit draw cannot tell generators apart that differ only in the
    # buffered half of a uint32 word, so compare the whole state, then one
    # more draw of an odd number of words (3) from each.
    assert all(rng.bit_generator.state == rngs[0].bit_generator.state for rng in rngs)
    draws = [coin_bytes(rng, 9) for rng in rngs]
    assert all(np.array_equal(draw, draws[0]) for draw in draws)
    assert all(rng.bit_generator.state == rngs[0].bit_generator.state for rng in rngs)


def test_coin_bytes_rejects_empty_draws():
    # rng.bytes(0) and integers(size=0) leave different generator states
    with pytest.raises(ValueError):
        coin_bytes(np.random.default_rng(0), 0)
    with pytest.raises(ValueError):
        coin_bytes(np.random.default_rng(0), 4, calls=0)


def _integers_bytes(rng, size, calls):
    # coin_bytes' bytes as NumPy's bounded-integer path gives them
    words = -(-size // 4)
    drawn = rng.integers(0, 2**32, size=calls * words, dtype=np.uint32).astype("<u4", copy=False)
    return drawn.view(np.uint8).reshape(calls, 4 * words)[:, :size]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 3), size=st.integers(1, 70),
       calls=st.integers(1, 4))
@example(seed=0, before=1, size=1, calls=1)  # the buffered half-word is the whole draw
@example(seed=0, before=1, size=8, calls=1)  # it is word 0, and no half-word is left
def test_coin_bytes_matches_integers_words(seed, before, size, calls):
    # PCG64 words come from random_raw: same bytes and same buffered half-word
    by_raw, by_integers = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (by_raw, by_integers):
        rng.integers(0, 2**32, size=before, dtype=np.uint32)
    assert np.array_equal(coin_bytes(by_raw, size, calls), _integers_bytes(by_integers, size, calls))
    _assert_same_generators(by_raw, by_integers)
    # coin_steps reads those bytes as draw_steps' steps, call by call
    by_steps, by_draws = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (by_steps, by_draws):
        rng.integers(0, 2**32, size=before, dtype=np.uint32)
    steps = coin_steps(by_steps, size, calls)
    assert steps.dtype == np.int8
    assert np.array_equal(steps, np.stack([draw_steps(by_draws, size) for _ in range(calls)]))
    _assert_same_generators(by_steps, by_draws)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.SFC64,
                                           np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("before", [0, 1])
def test_coin_bytes_refuses_other_bit_generators(bit_generator, before):
    # every engine's generator comes from default_rng, whose bit generator is
    # PCG64; a refused draw leaves the generator, buffered half-word and all,
    # where its twin is
    refused, untouched = (np.random.Generator(bit_generator(11)) for _ in range(2))
    for rng in (refused, untouched):
        rng.integers(0, 2**32, size=before, dtype=np.uint32)
    with pytest.raises(ValueError, match=bit_generator.__name__):
        coin_bytes(refused, 8)
    assert np.array_equal(refused.integers(0, 2**32, size=3, dtype=np.uint32),
                          untouched.integers(0, 2**32, size=3, dtype=np.uint32))


def _words(k):
    # ints of exactly k uint32 words, as SeedSequence splits them
    return st.integers(2 ** (32 * (k - 1)) if k > 1 else 0, 2 ** (32 * k) - 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(1, 8).flatmap(_words),
       start=st.one_of(st.integers(0, 2**70),
                       st.builds(lambda edge, back: edge - back,
                                 st.sampled_from([2**32, 2**64]), st.integers(1, 5))),
       count=st.integers(1, 6), size=st.one_of(st.integers(1, 140), st.just(3420)),
       split=st.integers(0, 6))
@example(seed=0, start=0, count=1, size=1, split=0)
@example(seed=2**32 - 1, start=2**32 - 2, count=4, size=3420, split=2)
@example(seed=2**32, start=2**64 - 3, count=6, size=64, split=5)
@example(seed=2**96 + 5, start=2**32 - 1, count=2, size=65, split=1)
@example(seed=2**256 - 1, start=2**64 - 1, count=3, size=70, split=3)
def test_round_steps_match_a_shift_and_mask_reference(seed, start, count, size, split):
    # Row j is round start + j of the seed's round stream, read bit by bit
    # off a fresh PCG64 advanced to its first output; a NumPy release that
    # changes PCG64's seeding, advance or output fails here. The rounds join
    # up however a block is split.
    block = round_steps(seed, start, count, size)
    assert block.shape == (count, size) and block.dtype == np.int8
    for j in range(count):
        assert np.array_equal(block[j], round_coins(seed, start + j, size))
    split = min(split, count - 1)
    if split:
        parts = [round_steps(seed, start, split, size),
                 round_steps(seed, start + split, count - split, size)]
        assert np.array_equal(np.concatenate(parts), block)


@pytest.mark.parametrize("seed", [0, 5, 2**96 - 1, 2**96, 2**200])
def test_the_round_stream_is_no_block_generator(seed):
    # the spawn key keeps round i's coins apart from block i's generator
    # SeedSequence((seed, i)), which the stream experiments read; past 2**96
    # the two meet only at block ROUND_TAG, beyond any block index
    rounds = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ROUND_TAG,)))
    for i in (0, 1, 2**32, ROUND_TAG - 1):
        assert substream(seed, i).bit_generator.state != rounds.state
    if seed >= 2**96:  # four seed words or more: nothing pads them
        assert substream(seed, ROUND_TAG).bit_generator.state == rounds.state
    assert ROUND_TAG >= mc._MAX_TRIALS


def test_round_steps_rejects_bad_arguments():
    for args in ((-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0)):
        with pytest.raises(ValueError):
            round_steps(*args)
