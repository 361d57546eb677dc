"""Symmetric +/-1 walks and the adversary's stop.

A walk is a finite stream of fair coinflips. The adversary truncates the
stream clairvoyantly, at its most extreme prefix sum against the good
direction.

``draw_steps`` is the reference draw, whose coins every engine reads, and
``apply_stop`` makes the adversary's stop wherever prefix sums are held: on
whole rows of prefix sums, walks on the last axis, as
``np.cumsum(steps, axis=-1)`` gives. This module is the only one that seeds
a generator or reads a coin's format: ``substream(seed, i)`` is the
generator of substream (seed, i), and the engines read ``draw_steps``'
coins as raw bytes from ``coin_bytes``, which takes PCG64's 64-bit outputs
straight from ``random_raw``. ``coin_steps`` turns those bytes into the
+/-1 steps ``draw_steps`` gives, in place, and ``substream_steps`` does the
same for a block of per-round substreams (seed, i), deriving every round's
PCG64 state from one vectorised run of SeedSequence's hash instead of
building a generator per round. Both decode whole rows padded to PCG64's
words, a compare and two vectorised adds per byte, and slice the pad
off afterwards, so a block costs little more than its draw. The Monte
Carlo counters read each walk as a counted head and a scanned window past
it, the adversary's stopping range, from ``walk_peaks``: it draws a block
a cache-sized chunk of walks at a time, packs each chunk eight coins to a
byte, keeps the head's count of +1 coins and the window's packed bytes,
and scans the window for its end and its highest prefix sum, one popcount
and one byte-table lookup per eight coins. A lowest prefix sum is read off
the mirrored walk.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
# NumPy loads numpy.random on first use (about 10 ms); every experiment but
# constants draws coins, so it loads here, with the package, rather than
# inside the first experiment's run.
import numpy.random  # noqa: F401

__all__ = [
    "MAX_STREAM_LENGTH",
    "WalkTrace",
    "StoppingStrategy",
    "draw_steps",
    "coin_bytes",
    "coin_steps",
    "substream",
    "substream_steps",
    "walk_peaks",
    "apply_stop",
]

# Streams longer than this are outside the supported regime; prefix sums
# then always fit comfortably in int64.
MAX_STREAM_LENGTH = 2**31


@dataclass(frozen=True, eq=False)
class WalkTrace:
    """A fully realized walk: steps plus derived prefix statistics.

    ``prefix_sums[k]`` is the sum of the first ``k`` steps, so the array has
    one more entry than ``steps`` and starts at 0. Extremes are taken over
    all prefixes including the empty one; ``argmax``/``argmin`` report the
    smallest attaining prefix index. No engine builds one: it is a
    reference walk for tests, and the benchmark's tracer hooks
    ``from_steps``.
    """

    steps: np.ndarray
    prefix_sums: np.ndarray
    run_max: int
    run_min: int
    argmax: int
    argmin: int

    @classmethod
    def from_steps(cls, steps) -> "WalkTrace":
        steps = np.asarray(steps, dtype=np.int8)
        if steps.ndim != 1:
            raise ValueError("steps must be one-dimensional")
        if steps.size > MAX_STREAM_LENGTH:
            raise ValueError(f"stream length {steps.size} exceeds cap {MAX_STREAM_LENGTH}")
        if steps.size and not np.all(np.abs(steps) == 1):
            raise ValueError("steps must all be +1 or -1")
        prefix = np.zeros(steps.size + 1, dtype=np.int64)
        np.cumsum(steps, out=prefix[1:])
        amax = int(np.argmax(prefix))
        amin = int(np.argmin(prefix))
        return cls(
            steps=steps,
            prefix_sums=prefix,
            run_max=int(prefix[amax]),
            run_min=int(prefix[amin]),
            argmax=amax,
            argmin=amin,
        )

    def __len__(self) -> int:
        return int(self.steps.size)


def draw_steps(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw fair +/-1 steps (int8) of the given shape from ``rng``."""
    return rng.integers(0, 2, size=shape, dtype=np.int8) * 2 - 1


def coin_bytes(rng: np.random.Generator, size: int, calls: int = 1) -> np.ndarray:
    """The (calls, size) uint8 bytes behind ``calls`` successive ``draw_steps``
    draws of ``size`` coins, leaving ``rng`` in the same state; a coin is +1
    where its byte is >= 128. ``integers(0, 2, dtype=int8)`` reads bit 7 of
    consecutive bytes of ``rng.bytes``, padding each draw to whole 4-byte words,
    and ``rng.bytes`` is little-endian uint32 words of ``rng.integers``.

    ``rng`` must run on ``PCG64``, the bit generator of ``default_rng``,
    whose words come straight from ``random_raw``: its ``next_uint32``
    returns the low half of a 64-bit output and buffers the high half for
    the next word. A half-word buffered on entry is word 0, and the buffer
    is written back on exit, including the stale half-word NumPy keeps once
    it is used, so ``bit_generator.state`` ends as ``integers`` leaves it."""
    return _coin_rows(rng, size, calls)[:, :size]


def _coin_rows(rng: np.random.Generator, size: int, calls: int) -> np.ndarray:
    # coin_bytes' draws, each row padded to whole 4-byte words, as one
    # contiguous (calls, 4 * words) uint8 array
    if size < 1 or calls < 1:
        raise ValueError(f"need size >= 1 and calls >= 1, got {size} x {calls}")
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ValueError(f"coin_bytes reads PCG64 only, got {type(rng.bit_generator).__name__}")
    words = -(-size // 4)
    drawn = _pcg64_words(rng.bit_generator, calls * words)
    return drawn.view(np.uint8).reshape(calls, 4 * words)


def coin_steps(rng: np.random.Generator, size: int, calls: int = 1) -> np.ndarray:
    """The (calls, size) int8 steps of ``calls`` successive
    ``draw_steps(rng, size)`` draws, from the bytes ``coin_bytes`` reads,
    leaving ``rng`` in the same state. The padded rows are decoded whole,
    one contiguous pass, and then sliced to ``size``."""
    return _as_steps(_coin_rows(rng, size, calls))[:, :size]


def _as_steps(raw: np.ndarray) -> np.ndarray:
    # +1 where a byte is >= 128, else -1, in place, as an int8 view: a
    # block-sized temporary would double the round engine's peak memory.
    # NumPy vectorises neither 8-bit shift, so bit 7 is read by a compare
    # written as bools into the same bytes (over 205k bytes, 7.7 us against
    # 16.5 us for `>>= 7`), and doubled by adding it to itself (75 us for
    # `<<= 1` against 5 us for the add).
    np.greater_equal(raw, 128, out=raw.view(bool))
    np.add(raw, raw, raw)
    raw -= 1
    return raw.view(np.int8)


def substream(seed: int, i: int) -> np.random.Generator:
    """The generator of substream (seed, i): block i of a Monte Carlo
    experiment, or a side stream such as the spectral oracle's."""
    return np.random.default_rng(np.random.SeedSequence((seed, i)))


def _pcg64_words(bit_generator: np.random.PCG64, total: int) -> np.ndarray:
    # the next ``total`` words of next_uint32, as little-endian uint32
    state = bit_generator.state
    buffered = state["has_uint32"]
    need = total - buffered
    outputs = bit_generator.random_raw(-(-need // 2)).astype("<u8", copy=False)
    drawn = outputs.view("<u4")[:need]
    if buffered:
        drawn = np.concatenate([np.array([state["uinteger"]], dtype="<u4"), drawn])
    if outputs.size:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = need % 2, int(outputs[-1] >> 32)
    else:  # the buffered half-word was the whole draw
        state["has_uint32"] = 0
    bit_generator.state = state
    return drawn


# NumPy's SeedSequence hash, with its default pool of four uint32 words, and
# PCG64's seeding multiplier (numpy/random/bit_generator.pyx and pcg64.h).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rows seeded per hash, which bounds the hash's temporaries.
_SEED_CHUNK = 4096


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    # Hash call k XORs its value with c_k and multiplies it by c_(k+1),
    # where c_0 = init and c_(k+1) = mult * c_k mod 2**32: the constants do
    # not depend on the values, so one (calls, 1) column serves every row.
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


@functools.cache
def _mix_constants(words: int) -> tuple[np.ndarray, ...]:
    # The hash constants of mixing ``words`` entropy words into the pool:
    # (4, 1) columns for hashing the first four words (zeros past the end),
    # then a (steps, 4, 1) stack, one step per pool word mixed into the other
    # three, its own row unused, then one per word past the fourth.
    extra = max(words - _POOL, 0)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    stacks = np.zeros((2, _POOL + extra, _POOL, 1), dtype=np.uint32)
    k = _POOL
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        stacks[:, src, others] = xor[k : k + 3], mul[k : k + 3]
        k += 3
    stacks[:, _POOL:] = xor[k:].reshape(-1, _POOL, 1), mul[k:].reshape(-1, _POOL, 1)
    return xor[:_POOL], mul[:_POOL], *stacks


# generate_state(4, uint64) hashes the pool twice over into eight words
_GENERATE_XOR, _GENERATE_MUL = (c.reshape(2, _POOL, 1)
                                for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


# The hash runs once per block of rounds, so its fixed cost counts on small
# blocks: every ufunc below writes in place through a positional ``out``,
# which NumPy parses faster than an ``out=`` keyword or an augmented operator.
def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray, out: np.ndarray) -> None:
    np.bitwise_xor(values, xor, out)
    np.multiply(out, mul, out)
    np.bitwise_xor(out, np.right_shift(out, _XSHIFT), out)


def _int_words(value: int) -> list[int]:
    # SeedSequence's uint32 words of a non-negative int: little-endian, [0] for 0
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pooled_state(entropy: list, count: int) -> np.ndarray:
    # SeedSequence(entropy).generate_state(4, uint64) for ``count`` entropy
    # lists at once, as a (count, 4) array: each word of ``entropy`` is a
    # (1,) or (count,) uint32 array. The pool is (4, count), and each mixing
    # step updates all four rows at once.
    first_xor, first_mul, step_xor, step_mul = _mix_constants(len(entropy))
    pool = np.zeros((_POOL, count), dtype=np.uint32)
    for row, word in zip(pool, entropy[:_POOL]):
        row[:] = word
    _hashmix(pool, first_xor, first_mul, pool)
    hashed = np.empty_like(pool)
    for step, (xor, mul) in enumerate(zip(step_xor, step_mul)):
        # steps 0-3 mix pool word ``step`` into the other three, which it
        # leaves as it was; later steps mix in entropy word ``step``
        source = pool[step].copy() if step < _POOL else entropy[step]
        _hashmix(source, xor, mul, hashed)
        np.multiply(pool, _MIX_MULT_L, pool)
        np.multiply(hashed, _MIX_MULT_R, hashed)
        np.subtract(pool, hashed, pool)
        np.bitwise_xor(pool, np.right_shift(pool, _XSHIFT), pool)
        if step < _POOL:
            pool[step] = source
    # the eight words as (count, 8) little-endian uint32, read as uint64 pairs
    state = np.empty((2, _POOL, count), dtype=np.uint32)
    _hashmix(pool, _GENERATE_XOR, _GENERATE_MUL, state)
    return np.ascontiguousarray(state.reshape(2 * _POOL, count).T, dtype="<u4").view("<u8")


def _substream_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for
    ``i = start .. start+count-1``, as a (count, 4) uint64 array.

    The entropy of (seed, i) is the uint32 words of ``seed``, then those of
    ``i``. Between multiples of 2**32 only the low word of ``i`` changes, so
    each such piece is hashed as one array."""
    head = [np.array([word], dtype=np.uint32) for word in _int_words(seed)]
    pieces, first, end = [], start, start + count
    while first < end:
        high = first >> 32
        last = min(end, high + 1 << 32)
        low = np.arange(first - (high << 32), last - (high << 32), dtype=np.uint32)
        tail = [np.array([word], dtype=np.uint32) for word in _int_words(high)] if high else []
        pieces.append(_pooled_state(head + [low] + tail, last - first))
        first = last
    return np.concatenate(pieces)


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> dict:
    # PCG64's state once seeded with the words generate_state(4, uint64)
    # gives: pcg_setseq_128_srandom_r with initstate w0:w1 and initseq w2:w3,
    # in 128-bit arithmetic
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": ((w0 << 64 | w1) + inc) * _PCG64_MULT + inc & _MASK128, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_SEEDING = threading.local()


def _seeding_generator() -> np.random.PCG64:
    # One PCG64 per thread, kept between calls: building one takes ~10 us,
    # about a sixth of a one-round call, and run_agreement makes many of
    # those. substream_steps sets the whole state before every row, so
    # nothing carries from one call to the next.
    if not hasattr(_SEEDING, "pcg64"):
        _SEEDING.pcg64 = np.random.PCG64(0)
    return _SEEDING.pcg64


def substream_steps(seed: int, start: int, count: int, size: int) -> np.ndarray:
    """The (count, size) int8 block whose row ``j`` is
    ``coin_steps(substream(seed, i), size)[0]`` for ``i = start + j``,
    without a ``SeedSequence`` or a ``Generator`` per row.

    The rows' seeds come from one vectorised run of SeedSequence's hash per
    chunk of rows, and each row's PCG64 state from Python-int arithmetic; one
    ``PCG64`` per thread takes each state in turn and writes ``ceil(size / 8)``
    outputs of ``random_raw`` into the row. A freshly seeded generator
    buffers no half-word, so these are the words ``coin_bytes`` reads. The
    whole 8-byte rows become steps in place, one contiguous pass, and the
    block is then sliced to ``size``: a writable view of whole 8-byte rows.
    Any non-negative ``seed`` and ``start`` take this one route."""
    if seed < 0 or start < 0:
        raise ValueError(f"need seed >= 0 and start >= 0, got {seed} and {start}")
    if count < 1 or size < 1:
        raise ValueError(f"need count >= 1 and size >= 1, got {count} x {size}")
    outputs = -(-size // 8)
    block = np.empty((count, outputs), dtype="<u8")
    bit_generator = _seeding_generator()
    for first in range(0, count, _SEED_CHUNK):
        rows = block[first : first + _SEED_CHUNK]
        for row, words in zip(rows, _substream_seeds(seed, start + first, len(rows)).tolist()):
            bit_generator.state = _pcg64_state(*words)
            row[:] = bit_generator.random_raw(outputs)
    return _as_steps(block.view(np.uint8))[:, :size]


def _byte_top() -> np.ndarray:
    # Byte b holds eight coins, coin i in bit i: its highest prefix sum,
    # measured from its end.
    walks = np.cumsum(((np.arange(256)[:, None] >> np.arange(8)) & 1) * 2 - 1, axis=1)
    return (walks.max(axis=1) - walks[:, -1]).astype(np.int16)


_BYTE_TOP = _byte_top()
# Coins drawn and packed at a time, unless a few walks hold more: a chunk's
# raw bytes and bit mask, 512 KB, stay in L2. Every engine sizes its working
# memory from it: the spectral counter draws its coins and solves its norms
# in chunks of about this size, the round engine takes stopped streams'
# prefix sums, and exact enumeration its walks, a chunk at a time.
_CHUNK_COINS = 2**18


def _sum_dtype(bound: int) -> np.dtype:
    # The narrower of int16 and int32 that holds every integer of magnitude
    # up to ``bound``, for exact sums of steps or counts of coins: NumPy
    # sums int8 or uint8 into int16 about four times as fast as into int64,
    # and the 2**26-coin cap keeps every bound inside int32.
    return np.dtype(np.int16 if bound < 2**15 else np.int32)


def walk_peaks(rng: np.random.Generator, count: int, length: int, head: int = 0, signs=1):
    """Draw ``count`` walks of ``length`` steps; per walk, return its sum
    after ``head`` steps, its end and its highest prefix sum past the head.

    The coins are those ``draw_steps(rng, (count, length))`` draws, read by
    ``coin_bytes``, and ``rng`` ends in the same state. ``signs`` (+1 or -1,
    one for all walks or one per walk) mirrors a walk: walk ``i`` is read as
    ``signs[i]`` times the drawn one, so a lowest prefix sum is the negated
    highest one of the walk read with ``signs = -1``. Returns three int64
    arrays of shape ``(count,)``: ``S_head``, ``S_length`` and the highest of
    ``S_(head+1) .. S_length`` (``S_head`` when ``head == length``).

    The walks are drawn a chunk of whole walks at a time, about
    ``_CHUNK_COINS`` coins, each chunk a whole number of 4-byte words so that
    the chunks' bytes are the one-shot draw's. While a chunk is in cache, the
    head's coins and the window's (the coins past the head) are each packed
    eight to a byte, and a byte's step sum is 2 * popcount - 8. The head
    keeps only each walk's count of +1 coins, ``np.bitwise_count`` of its
    packed bytes summed in int16 (int32 from 2**15 coins). The window's
    packed bytes go into a (bytes, walks) array for the whole block, so the
    block holds one bit per window coin, and a running sum of byte sums
    runs over its rows once all chunks are in: the highest prefix sum is
    the max over bytes of (sum before the byte + the byte's highest
    prefix), and the end is the last row. A mirrored walk is read by
    flipping its packed bits. The zero bits that pad the window's
    last byte are -1 steps past its end, which cannot raise a highest prefix
    and are added back to the end. The chunk's bit mask, the packed bytes and
    the running sums are plain arrays made per call: ``coinlab`` fixes
    glibc's malloc thresholds at import, so they land on reused heap pages.
    """
    if count < 1 or length < 1:
        raise ValueError(f"need count >= 1 and length >= 1, got {count} x {length}")
    if not 0 <= head <= length:
        raise ValueError(f"head {head} must lie in [0, {length}]")
    signs = np.asarray(signs)
    # checked before the cast, which would read 1.5 or True as +1
    if (signs.dtype == bool or signs.shape not in ((), (count,))
            or not np.all((signs == 1) | (signs == -1))):
        raise ValueError("signs must be +1 or -1, once or once per walk")
    signs = signs.astype(np.int64)
    width = length - head
    align = 4 // math.gcd(length, 4)  # fewest walks that fill whole 4-byte words
    rows = max(align, _CHUNK_COINS // length // align * align)
    # A chunk's bit mask gives the head's coins and the window's whole bytes,
    # coin i of a byte in bit i; the pad bits are zeroed here and never
    # written, so one flat pack per chunk keeps the walks and the two parts
    # apart. The window's packed bytes hold walks on axis 1.
    split, size = -(-head // 8), -(-width // 8)
    bits = np.empty((min(rows, count), 8 * (split + size)), dtype=bool)
    bits[:, head : 8 * split] = False
    bits[:, 8 * split + width :] = False
    window = np.empty((size, count), dtype=np.uint8)
    heads = np.zeros(count, dtype=np.int64)
    head_sum = _sum_dtype(head)  # a head's count of +1 coins
    for first in range(0, count, rows):
        raw = coin_bytes(rng, min(rows, count - first) * length).reshape(-1, length)
        last = first + len(raw)
        chunk = bits[: len(raw)]
        np.greater_equal(raw[:, :head], 128, out=chunk[:, :head])
        np.greater_equal(raw[:, head:], 128, out=chunk[:, 8 * split : 8 * split + width])
        packed = np.packbits(chunk, bitorder="little").reshape(len(raw), -1)
        if head:
            heads[first:last] = np.bitwise_count(packed[:, :split]).sum(axis=1, dtype=head_sum)
        window[:, first:last] = packed[:, split:].T
    at_head = signs * (2 * heads - head)
    if not width:  # the window holds no prefix sum
        return at_head, at_head.copy(), at_head.copy()
    if np.any(signs < 0):
        real = np.full(size, 0xFF, dtype=np.uint8)
        real[-1] >>= -width % 8  # the pad bits stay 0, -1 steps
        window ^= real[:, None] * (signs < 0)
    # scan the window one row of bytes per eight coins, each column a walk,
    # in running sums wide enough for its pad steps too
    run = np.empty(window.shape, dtype=_sum_dtype(width + 8))
    np.bitwise_count(window, out=run)
    run += run  # faster than a left shift, which NumPy does not vectorise
    run -= 8  # a byte's step sum is 2 * popcount - 8
    # np.cumsum would run one scalar chain per walk, while adding whole
    # rows vectorises over walks
    for k in range(1, size):
        run[k] += run[k - 1]
    ends = at_head + (run[-1] + -width % 8)  # less the -1 pad steps
    # take() reads its indices as intp, 8 bytes per packed byte, so the
    # table is read a chunk's worth of rows at a time
    group = max(1, _CHUNK_COINS // 8 // count)
    for k in range(0, size, group):
        run[k : k + group] += np.take(_BYTE_TOP, window[k : k + group])
    return at_head, ends, at_head + run.max(axis=0)


@dataclass(frozen=True)
class StoppingStrategy:
    """The adversary's stop: the clairvoyant stop at the most extreme prefix
    sum, the highest for ``direction`` +1 and the lowest for -1. Build it
    with ``omniscient_extreme``, which checks the direction."""

    direction: int

    @classmethod
    def omniscient_extreme(cls, direction=+1) -> "StoppingStrategy":
        if direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction!r}")
        return cls(int(direction))


def apply_stop(sums, strategy: StoppingStrategy) -> tuple[np.ndarray, np.ndarray]:
    """The adversary's stop on prefix sums with walks on the last axis
    (``sums[..., k-1]`` is the k-th prefix sum): the ``(stop_index, value)``
    arrays of the stop point k, which keeps the first k steps, at the most
    extreme prefix sum in ``strategy.direction``, smallest k on ties, and
    the sum there. To stop only at points ``lo..hi``, pass the slice
    ``sums[..., lo-1:hi]`` and add ``lo - 1`` to its stop.
    """
    sums = np.asarray(sums)
    offset = sums.argmax(axis=-1) if strategy.direction > 0 else sums.argmin(axis=-1)
    value = np.take_along_axis(sums, offset[..., None], axis=-1)[..., 0]
    return offset + 1, value
