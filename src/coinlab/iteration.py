"""One-round global-coin simulation under adversarial stream manipulation.

Each round, every good processor flips a stream of n coins and the round's
coin is the sign of the summed deviation. The adversary degrades the sum
three ways: good streams whose contribution is excluded from detection
(summed raw, whatever their size), good streams it stops early at the
worst moment, and an ambiguity allowance it always sets to the extreme
opposing value. The "core" is the complete, untouched good streams; the
round is useful when the core alone deviates past alpha_prime in the good
direction.

``run_rounds`` draws a block of rounds with one ``walks.substream_steps``
call: round i's +/-1 steps are those ``walks.draw_steps`` would draw from
substream (seed, i), with no generator built per round. It scores the
block with array operations, reading each stop back off its walk for
coin-iter's check as it goes. ``verify_coin_iter`` and
``verify_agreement`` are the coin-iter and agreement experiments: each
returns its report rows. Coin-iter runs on ``mc.run_blocks``, as every
sampled experiment does; agreement stops at its first useful round, so it
runs on one thread.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .bounds import Params, check, derive
from .mc import McEstimate, _check_coin_cap, block_size_for, run_blocks
from .walks import _CHUNK_COINS, StoppingStrategy, _sum_dtype, apply_stop, substream_steps

# Coins per block of rounds: a block holds about a byte per coin, so about
# 1 MB. Each run_rounds call costs about 100 us however small, so smaller
# blocks pay that more often: with 2**18, 20000 coin-iter rounds and 30
# agreement runs at n=60, t=3 took about a fifth longer (2-vCPU Xeon).
_ROUND_BUDGET = 2**20
# Rounds in run_agreement's first chunk, which then doubles up to a block.
# Most runs agree within a few rounds, so the per-call cost, not the coins,
# sets their time: 100 agreement runs at n=60, t=3 (one stream excluded, two
# stopped) took 81 ms starting from one round and 45 ms from eight; sixteen
# was as fast and 32 slower (2-vCPU Xeon).
_FIRST_CHUNK = 8

__all__ = [
    "IterationConfig",
    "Rounds",
    "AgreementResult",
    "rounds_per_block",
    "run_rounds",
    "run_agreement",
    "verify_coin_iter",
    "verify_agreement",
]


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for one simulated round.

    direction is the direction of good deviation the adversary plays
    against (stops and the ambiguity term push the other way). ambiguous,
    the ambiguity allowance, is t when -1 (the default). bad_contribution
    is an optional extra additive term for exploration, off (0) by default,
    clamped to |.| <= t*n by validation. A field a CLI flag sets carries the
    flag's name, so a refused value names the flag.
    """

    n: int
    t: int
    t_excluded: int = 0
    t_stopped: int = 0
    ambiguous: int = -1
    direction: int = +1
    bad_contribution: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        Params(n=self.n, t=self.t)  # refuses n < 1, t < 0 and 2t >= n
        if not 0 <= self.t_excluded <= self.t:
            raise ValueError(f"t_excluded must lie in [0, t], got {self.t_excluded}")
        if not 0 <= self.t_stopped <= self.t:
            raise ValueError(f"t_stopped must lie in [0, t], got {self.t_stopped}")
        if self.n - self.t - self.t_excluded - self.t_stopped < 1:
            raise ValueError("no complete good streams left under these knobs")
        if not -1 <= self.ambiguous <= self.t:
            raise ValueError(f"ambiguous must lie in [-1, t], got {self.ambiguous}")
        if self.ambiguous == -1:
            object.__setattr__(self, "ambiguous", self.t)
        if self.direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        if abs(self.bad_contribution) > self.t * self.n:
            raise ValueError(f"|bad_contribution| must be <= t*n = {self.t * self.n}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def complete_count(self) -> int:
        return self.n - self.t - self.t_excluded - self.t_stopped


@dataclass(frozen=True, eq=False)
class Rounds:
    """Rounds ``start .. start+count-1`` of one config, one entry per round.

    ``streams[j]`` holds round ``start + j``'s n-t good streams, complete
    first, then excluded, then stopped, the coins ``draw_steps`` would draw.
    The per-round fields are arrays of length count (``stop_indices`` has one
    column per stopped stream); the fields every round shares are scalars.
    ``stops_unread`` and ``stops_off_extreme`` mark the rounds whose stops,
    read back off their walks, miss ``stopped_sum`` or the walk's extreme.

    total = core_sum + excluded_sum + stopped_sum + ambiguous_term
    (+ the config's bad_contribution when enabled); excluded_sum is the raw
    physical contribution, uncapped.
    """

    config: IterationConfig
    start: int
    streams: np.ndarray
    core_sum: np.ndarray
    excluded_sum: np.ndarray
    stopped_sum: np.ndarray
    stop_indices: np.ndarray
    total: np.ndarray
    coin: np.ndarray
    good_event: np.ndarray
    stops_unread: np.ndarray
    stops_off_extreme: np.ndarray
    ambiguous_term: int
    alpha_prime: float

    def __len__(self) -> int:
        return len(self.total)


def rounds_per_block(config: IterationConfig) -> int:
    """Rounds per ``run_rounds`` block: about ``_ROUND_BUDGET`` coins of
    (n-t)*n per round, with ``mc.block_size_for``'s cap, down to one round.
    Round i draws from substream (seed, i) in any block, so the block size
    moves no result, only memory and per-call overhead."""
    return block_size_for((config.n - config.t) * config.n, minimum=1, budget=_ROUND_BUDGET)


def _part_sums(streams: np.ndarray, first: int, end: int) -> np.ndarray:
    """Per-round int64 sums of the streams ``streams[:, first:end]`` of a
    (rounds, streams, n) int8 block, summed in int16 while the part holds
    fewer than 2**15 coins and in int32 up to the coin cap, both exact."""
    part = streams[:, first:end]
    return part.sum(axis=(1, 2), dtype=_sum_dtype(part[0].size)).astype(np.int64)


def _stopped_walks(streams: np.ndarray, first: int):
    """Yield ``(rows, cols, walks)`` over the stopped streams
    ``streams[:, first:]`` of a (rounds, streams, n) int8 block, a group of
    whole streams at a time: ``walks`` is the prefix sums of
    ``streams[rows, first:][:, cols]``, in int16, which holds every sum of
    n < 2**15 steps, as the coin cap keeps n. A group holds about
    ``_CHUNK_COINS`` coins, whole rounds where they fit and else part of one
    round's streams, so the prefix sums stay a chunk however wide a round
    is."""
    count, good, n = streams.shape
    stopped = good - first
    per_group = max(1, _CHUNK_COINS // n)
    rows_step, cols_step = max(1, per_group // max(stopped, 1)), max(1, min(stopped, per_group))
    prefix = _sum_dtype(n)
    for r in range(0, count, rows_step):
        for c in range(0, stopped, cols_step):
            rows, cols = slice(r, r + rows_step), slice(c, c + cols_step)
            walks = streams[rows, first + c : first + c + cols_step].astype(prefix)
            # in place: a cast inside cumsum would copy
            np.cumsum(walks, axis=-1, dtype=prefix, out=walks)
            yield rows, cols, walks


def run_rounds(config: IterationConfig, start: int, count: int) -> Rounds:
    """Simulate rounds ``start .. start+count-1``; round i always draws its
    n-t good streams as one matrix from substream (seed, i).

    The stream layout is fixed, complete streams first, then excluded, then
    stopped, so the core does not depend on the adversary's behavioral
    choices. The block holds one byte per coin, as int8 steps. The core and
    excluded sums run in int16 or int32 (``_part_sums``); the stopped
    streams' int16 prefix sums, their stop and its read-back are taken a
    group of whole streams at a time (``_stopped_walks``). A round is drawn
    whole, so one of more than ``_MAX_BLOCK_ENTRIES`` coins is refused
    before any draw; ``substream_steps`` refuses a negative ``start`` or an
    empty block.
    """
    n, good = config.n, config.n - config.t
    _check_coin_cap(good * n, f"a round of {good} streams of {n} coins")
    streams = substream_steps(config.seed, start, count, good * n).reshape(count, good, n)
    k = config.complete_count
    stopped_from = k + config.t_excluded

    thresholds = derive(Params(n=config.n, t=config.t))
    direction = config.direction

    core_sum = _part_sums(streams, 0, k)
    excluded_sum = _part_sums(streams, k, stopped_from)

    # Stopped streams are truncated at the opposing extreme over the whole
    # round. Each stop is read back off its walk for coin-iter's check:
    # walks[..., j - 1] is the sum of the first j coins; a stop at 0 is worth 0.
    strategy = StoppingStrategy.omniscient_extreme(direction=-direction)
    stop_indices = np.empty((count, config.t_stopped), dtype=np.intp)
    stopped_sum = np.zeros(count, dtype=np.int64)
    read_sum = np.zeros(count, dtype=np.int64)
    off_extreme = np.zeros(count, dtype=bool)
    for rows, cols, walks in _stopped_walks(streams, stopped_from):
        stop, value = apply_stop(walks, strategy)
        stop_indices[rows, cols] = stop
        at_stop = np.take_along_axis(walks, stop[..., None] - 1, axis=-1)[..., 0]
        read = np.where(stop > 0, at_stop, 0)
        extreme = walks.min(axis=-1) if direction > 0 else walks.max(axis=-1)
        stopped_sum[rows] += value.sum(axis=-1, dtype=np.int64)
        read_sum[rows] += read.sum(axis=-1, dtype=np.int64)
        off_extreme[rows] |= (read != extreme).any(axis=-1)

    ambiguous_term = -direction * config.ambiguous
    total = core_sum + excluded_sum + stopped_sum + ambiguous_term + config.bad_contribution
    coin = np.where(total >= 0, 1, -1)  # ties resolve to +
    good_event = direction * core_sum >= thresholds.alpha_prime

    return Rounds(
        config=config,
        start=start,
        streams=streams,
        core_sum=core_sum,
        excluded_sum=excluded_sum,
        stopped_sum=stopped_sum,
        stop_indices=stop_indices,
        total=total,
        coin=coin,
        good_event=good_event,
        stops_unread=read_sum != stopped_sum,
        stops_off_extreme=off_extreme,
        ambiguous_term=ambiguous_term,
        alpha_prime=thresholds.alpha_prime,
    )


@dataclass(frozen=True)
class AgreementResult:
    """Outcome of iterating rounds until the coin lands usefully."""

    agreed: bool
    iterations_used: int


def run_agreement(config: IterationConfig, max_iterations: int) -> AgreementResult:
    """Iterate rounds until the coin matches the good direction with total
    deviation at least alpha_prime, or the round budget runs out.

    Rounds are drawn in chunks that double from ``_FIRST_CHUNK`` rounds up
    to a block, so at most about twice the rounds used, or the first chunk,
    are drawn. Round i is substream (seed, i) in any chunk, so the schedule
    moves no result, only the number of ``run_rounds`` calls.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    block = rounds_per_block(config)
    start, size = 0, min(_FIRST_CHUNK, block)
    while start < max_iterations:
        rounds = run_rounds(config, start, min(size, max_iterations - start))
        hits = np.flatnonzero((rounds.coin == config.direction)
                              & (np.abs(rounds.total) >= rounds.alpha_prime))
        if hits.size:
            return AgreementResult(agreed=True, iterations_used=start + int(hits[0]) + 1)
        start, size = start + len(rounds), min(2 * size, block)
    return AgreementResult(agreed=False, iterations_used=max_iterations)


def _coin_iter_counter(rng, count, start, *, config, probe) -> list:
    # good-event hits, the rounds whose stops read back off their walks do
    # not add up to the stopped sum or sit off the extreme, and the rounds
    # below probe whose good event moves with the adversary's behavioral
    # knobs; rng goes unused, as round i draws from substream (seed, i)
    rounds = run_rounds(config, start, count)
    moved = 0
    if start < probe:
        base = rounds.good_event[: probe - start]
        variants = (replace(config, ambiguous=0),
                    replace(config, bad_contribution=-config.direction * config.t * config.n))
        moved = np.count_nonzero(np.logical_or.reduce(
            [run_rounds(v, start, len(base)).good_event != base for v in variants]))
    return [np.count_nonzero(rounds.good_event), np.count_nonzero(rounds.stops_unread),
            np.count_nonzero(rounds.stops_off_extreme), moved]


def verify_coin_iter(config: IterationConfig, iterations: int, workers: int = 1) -> list[dict]:
    """Report rows for ``iterations`` rounds: that every round's stops, read
    back off its stopped walks, add up to the stopped sum its total used,
    each at the extreme; that the good event does not move when the
    adversary's behavioral knobs do; and the good event's frequency next to
    1/20. The rounds run in ``run_blocks`` blocks of
    ``rounds_per_block(config)`` on ``workers`` threads, neither of which
    moves a result."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Paired-seed invariance probe: the good event reads only the core, so
    # changing the adversary's behavioral knobs must not move it.
    probe = min(iterations, 200)
    counter = partial(_coin_iter_counter, config=config, probe=probe)
    tallies = run_blocks(counter, iterations, config.seed, rounds_per_block(config), workers)
    good_hits, additive_failures, extreme_failures, moved = (int(v) for v in tallies)
    frequency = McEstimate.from_counts(good_hits, iterations, config.seed)
    return [
        check("deviation_components_additive",
              additive_failures == 0 and extreme_failures == 0, iterations=iterations,
              additive_failures=additive_failures, stop_extreme_failures=extreme_failures),
        check("good_event_invariant_to_behavioral_knobs", moved == 0, paired_rounds=probe),
        {
            "claim_id": "good_event_frequency_vs_benchmark",
            "kind": "info",
            "empirical": asdict(frequency),
            "benchmark": 1.0 / 20.0,
        },
    ]


def verify_agreement(config: IterationConfig, max_iterations: int) -> list[dict]:
    """The report row of ``run_agreement``: whether agreement came within
    the budget."""
    result = run_agreement(config, max_iterations)
    return [check("agreement_reached_within_budget", result.agreed, agreed=result.agreed,
                  iterations_used=result.iterations_used, max_iterations=max_iterations)]
