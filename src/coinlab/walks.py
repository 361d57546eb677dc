"""Symmetric +/-1 walks and adversarial stopping rules.

A walk is a finite stream of fair coinflips. An adversary may truncate the
stream at a point of its choosing; the rules here range from "never stop"
to a clairvoyant stop at the most extreme prefix sum inside a window.

Every module draws its coins with ``draw_steps`` and lets ``apply_stop``
choose the stop. ``apply_stop`` takes a ``WalkTrace`` or a batch of prefix
sums with walks on the last axis, as ``np.cumsum(steps, axis=-1)`` gives.
The Monte Carlo counters, which need only a few statistics per walk, read
them from ``segment_stats``: it scans the same coins as ``draw_steps`` eight
at a time, one byte-table lookup per eight coins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_STREAM_LENGTH",
    "WalkTrace",
    "StoppingStrategy",
    "StoppedStream",
    "draw_steps",
    "segment_stats",
    "generate_walk",
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
    smallest attaining prefix index.
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


def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Byte b holds eight coins, coin i in bit i. Per byte: the sum of its
    # steps, and its highest and lowest prefix sum measured from its end.
    walks = np.cumsum(((np.arange(256)[:, None] >> np.arange(8)) & 1) * 2 - 1, axis=1)
    total = walks[:, -1]
    return (total.astype(np.int16), (walks.max(axis=1) - total).astype(np.int16),
            (walks.min(axis=1) - total).astype(np.int16))


_BYTE_SUM, _BYTE_TOP, _BYTE_BOTTOM = _byte_tables()


def segment_stats(rng: np.random.Generator, count: int, length: int, cuts=()):
    """Draw ``count`` walks of ``length`` steps and summarise each segment.

    The coins are those ``draw_steps(rng, (count, length))`` draws, and
    ``rng`` ends in the same state: ``integers(0, 2, dtype=int8)`` reads bit
    7 of consecutive bytes of ``rng.bytes``, in blocks of four. ``cuts`` are
    prefix indices ``0 <= c_1 <= ... <= length``; segment ``j`` holds the
    prefix sums ``S_k`` for ``c_j < k <= c_{j+1}``, with ``c_0 = 0`` and a
    last bound of ``length``. Returns three int64 arrays of shape
    ``(count, len(cuts) + 1)``: the prefix sum at each segment's right end,
    and the max and min over the prefix sums inside it (both equal to the
    end value for an empty segment).

    A segment is scanned one byte of eight coins at a time. Its highest
    prefix sum is the max over bytes of (sum before the byte + the byte's
    highest prefix), so the running sum only runs over length / 8 columns;
    the at most seven coins past the segment's last whole byte are added
    one column at a time.
    """
    if count < 1 or length < 1:
        raise ValueError(f"need count >= 1 and length >= 1, got {count} x {length}")
    bounds = [0, *(int(c) for c in cuts), length]
    if any(lo > hi for lo, hi in zip(bounds, bounds[1:])):
        raise ValueError(f"cuts {tuple(cuts)} must be sorted within [0, {length}]")
    entries = count * length
    raw = np.frombuffer(rng.bytes(-(-entries // 4) * 4), dtype=np.uint8)[:entries]
    raw = raw.reshape(count, length)
    # |every prefix sum| <= length, so a short walk is scanned in int16
    scan = np.int16 if length < 2**15 else np.int32
    value = np.zeros(count, dtype=np.int64)
    ends, tops, bottoms = (np.empty((count, len(bounds) - 1), dtype=np.int64) for _ in range(3))
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        highs, lows = [], []
        whole = lo + (hi - lo) // 8 * 8
        if whole > lo:
            # the width is a multiple of 8, so packing flat keeps walks apart
            packed = np.packbits(raw[:, lo:whole] >= 128, bitorder="little")
            packed = packed.reshape(count, -1).T
            run = np.take(_BYTE_SUM, packed).astype(scan, copy=False)
            # rows are bytes, columns walks: np.cumsum would run one scalar
            # chain per walk, while adding whole rows vectorises over walks
            for k in range(1, run.shape[0]):
                run[k] += run[k - 1]
            highs.append(value + (run + np.take(_BYTE_TOP, packed)).max(axis=0))
            lows.append(value + (run + np.take(_BYTE_BOTTOM, packed)).min(axis=0))
            value = value + run[-1]
        for k in range(whole, hi):
            value = value + np.where(raw[:, k] >= 128, 1, -1)
            highs.append(value)
            lows.append(value)
        ends[:, j] = value
        # an empty segment holds no prefix sum and reports its end instead
        tops[:, j] = np.max(highs, axis=0) if highs else value
        bottoms[:, j] = np.min(lows, axis=0) if lows else value
    return ends, tops, bottoms


def generate_walk(length: int, rng: np.random.Generator) -> WalkTrace:
    """Draw a fair +/-1 walk of the given length from ``rng``.

    The same generator state always reproduces the same trace bit for bit.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > MAX_STREAM_LENGTH:
        raise ValueError(f"stream length {length} exceeds cap {MAX_STREAM_LENGTH}")
    return WalkTrace.from_steps(draw_steps(rng, length))


def _as_direction(direction) -> int:
    if direction in (+1, -1):
        return int(direction)
    if direction == "+":
        return +1
    if direction == "-":
        return -1
    raise ValueError(f"direction must be +1/-1 (or '+'/'-'), got {direction!r}")


def _checked_window(window) -> tuple[int, int] | None:
    if window is None:
        return None
    lo, hi = int(window[0]), int(window[1])
    if not 1 <= lo <= hi:
        raise ValueError(f"window must satisfy 1 <= lo <= hi, got ({lo},{hi})")
    return lo, hi


@dataclass(frozen=True)
class StoppingStrategy:
    """An adversary's rule for truncating a stream.

    Use the classmethod constructors; ``kind`` is one of ``no_stop``,
    ``fixed_length``, ``first_hit``, ``omniscient_extreme``. Windows are
    inclusive prefix-index ranges ``(lo, hi)`` with ``1 <= lo <= hi <= len``;
    ``None`` means the full stream.
    """

    kind: str
    length: int | None = None
    threshold: int | None = None
    direction: int = +1
    window: tuple[int, int] | None = None

    @classmethod
    def no_stop(cls) -> "StoppingStrategy":
        return cls(kind="no_stop")

    @classmethod
    def fixed_length(cls, k: int) -> "StoppingStrategy":
        if k < 0:
            raise ValueError("fixed stop point must be >= 0")
        return cls(kind="fixed_length", length=int(k))

    @classmethod
    def first_hit(cls, threshold: int, direction=+1, window=None) -> "StoppingStrategy":
        if threshold < 1:
            raise ValueError("first-hit threshold must be >= 1")
        return cls(
            kind="first_hit",
            threshold=int(threshold),
            direction=_as_direction(direction),
            window=_checked_window(window),
        )

    @classmethod
    def omniscient_extreme(cls, direction=+1, window=None) -> "StoppingStrategy":
        return cls(
            kind="omniscient_extreme",
            direction=_as_direction(direction),
            window=_checked_window(window),
        )

    def describe(self) -> str:
        if self.kind == "no_stop":
            return "no_stop"
        if self.kind == "fixed_length":
            return f"fixed_length({self.length})"
        sign = "+" if self.direction > 0 else "-"
        if self.kind == "first_hit":
            return f"first_hit({self.threshold},{sign},window={self.window})"
        return f"omniscient_extreme({sign},window={self.window})"


@dataclass(frozen=True)
class StoppedStream:
    """Outcome of a stopping rule: where it stopped and the value there (arrays for a batch)."""

    stop_index: int | np.ndarray
    value: int | np.ndarray


def _resolve_window(strategy: StoppingStrategy, length: int) -> tuple[int, int]:
    lo, hi = strategy.window if strategy.window is not None else (1, length)
    if not (1 <= lo <= hi <= length):
        raise ValueError(f"window ({lo},{hi}) invalid for stream of length {length}")
    return lo, hi


def apply_stop(walk, strategy: StoppingStrategy) -> StoppedStream:
    """Apply ``strategy`` to ``walk`` and report the stop point and stopped value.

    ``walk`` is a ``WalkTrace`` or prefix sums with walks on the last axis
    (``sums[..., k-1]`` is the k-th prefix sum). Stop point k keeps the
    first k steps; a stop at 0 has value 0. ``first_hit`` stops at the first
    prefix inside the window whose sum reaches the threshold in the targeted
    direction, and at the window's upper bound if that never happens.
    ``omniscient_extreme`` stops at the most extreme prefix sum in the
    window, smallest index on ties.
    """
    scalar = isinstance(walk, WalkTrace)
    sums = walk.prefix_sums[1:] if scalar else np.asarray(walk)
    n, batch = sums.shape[-1], sums.shape[:-1]
    if strategy.kind in ("no_stop", "fixed_length"):
        stop = n if strategy.kind == "no_stop" else strategy.length
        if not (0 <= stop <= n):
            raise ValueError(f"fixed stop point {stop} outside [0, {n}]")
        value = sums[..., stop - 1] if stop else np.zeros(batch, dtype=sums.dtype)
        stop = np.full(batch, stop)
    elif strategy.kind in ("first_hit", "omniscient_extreme"):
        lo, hi = _resolve_window(strategy, n)
        segment = sums[..., lo - 1 : hi]
        up = strategy.direction > 0
        if strategy.kind == "first_hit":
            hit = segment >= strategy.threshold if up else segment <= -strategy.threshold
            offset = np.where(hit.any(axis=-1), hit.argmax(axis=-1), hi - lo)
        else:
            offset = segment.argmax(axis=-1) if up else segment.argmin(axis=-1)
        value = np.take_along_axis(segment, offset[..., None], axis=-1)[..., 0]
        stop = lo + offset
    else:
        raise ValueError(f"unknown stopping rule {strategy.kind!r}")
    if scalar:
        stop, value = int(stop), int(value)
    return StoppedStream(stop_index=stop, value=value)
