"""One-round global-coin simulation under adversarial stream manipulation.

Each round, every good processor flips a stream of n coins and the round's
coin is the sign of the summed deviation. The adversary degrades the sum
three ways: good streams whose reported contribution is excluded from
detection (summed raw, reported capped), good streams it stops early at the
worst moment, and an ambiguity allowance it always sets to the extreme
opposing value. The "core" is the complete, untouched good streams; the
round is useful when the core alone deviates past alpha_prime in the good
direction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Params, derive
from .walks import StoppingStrategy, apply_stop, draw_steps

__all__ = [
    "IterationConfig",
    "IterationRecord",
    "AgreementResult",
    "run_iteration",
    "run_agreement",
]


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for one simulated round.

    adversary_direction is the direction of good deviation the adversary
    plays against (stops and the ambiguity term push the other way).
    ambiguous_allowance defaults to t when negative. bad_contribution is an
    optional extra additive term for exploration, off (0) by default,
    clamped to |.| <= t*n by validation.
    """

    n: int
    t: int
    t_excluded: int = 0
    t_stopped: int = 0
    ambiguous_allowance: int = -1
    adversary_direction: int = +1
    bad_contribution: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if 2 * self.t >= self.n:
            raise ValueError(f"need 2t < n, got n={self.n}, t={self.t}")
        if not 0 <= self.t_excluded <= self.t:
            raise ValueError(f"t_excluded must lie in [0, t], got {self.t_excluded}")
        if not 0 <= self.t_stopped <= self.t:
            raise ValueError(f"t_stopped must lie in [0, t], got {self.t_stopped}")
        if self.n - self.t - self.t_excluded - self.t_stopped < 1:
            raise ValueError("no complete good streams left under these knobs")
        if self.ambiguous_allowance < 0:
            object.__setattr__(self, "ambiguous_allowance", self.t)
        elif self.ambiguous_allowance > self.t:
            raise ValueError(f"ambiguous_allowance must be <= t, got {self.ambiguous_allowance}")
        if self.adversary_direction not in (+1, -1):
            raise ValueError("adversary_direction must be +1 or -1")
        if abs(self.bad_contribution) > self.t * self.n:
            raise ValueError(f"|bad_contribution| must be <= t*n = {self.t * self.n}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def complete_count(self) -> int:
        return self.n - self.t - self.t_excluded - self.t_stopped


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """Everything observable about one simulated round.

    total = core_sum + excluded_sum + stopped_sum + ambiguous_term
    (+ bad_contribution when enabled); excluded_sum is the raw physical
    contribution, while excluded_capped is the analysis view with magnitude
    capped at beta_quarter. The raw streams are kept so every component can
    be re-derived.
    """

    config: IterationConfig
    iteration_index: int
    core_sum: int
    excluded_sum: int
    excluded_capped: float
    excluded_cap_binds: bool
    stopped_sum: int
    ambiguous_term: int
    bad_contribution: int
    total: int
    coin: int
    good_event: bool
    alpha_prime: float
    beta_quarter: float
    complete_streams: np.ndarray
    excluded_streams: np.ndarray
    stopped_streams: np.ndarray
    stop_indices: tuple[int, ...]


def run_iteration(config: IterationConfig, iteration_index: int = 0) -> IterationRecord:
    """Simulate one round; round i always draws from substream (seed, i).

    Stream layout is fixed: the n-t good streams are drawn as one matrix,
    complete streams first, then excluded, then stopped, so the core does
    not depend on the adversary's behavioral choices.
    """
    if iteration_index < 0:
        raise ValueError("iteration_index must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, iteration_index)))
    n, good = config.n, config.n - config.t
    streams = draw_steps(rng, (good, n))
    k = config.complete_count
    complete = streams[:k]
    excluded = streams[k : k + config.t_excluded]
    stopped = streams[k + config.t_excluded :]

    thresholds = derive(Params(n=config.n, t=config.t))
    direction = config.adversary_direction

    core_sum = int(complete.sum())
    excluded_sum = int(excluded.sum())
    cap = thresholds.beta_quarter
    if abs(excluded_sum) > cap:
        excluded_capped = float(np.sign(excluded_sum)) * cap
        cap_binds = True
    else:
        excluded_capped = float(excluded_sum)
        cap_binds = False

    # Stopped streams are truncated at the opposing extreme over the whole round.
    strategy = StoppingStrategy.omniscient_extreme(direction=-direction, window=(1, n))
    result = apply_stop(np.cumsum(stopped, axis=-1, dtype=np.int64), strategy)
    stopped_sum = int(result.value.sum())

    ambiguous_term = -direction * config.ambiguous_allowance
    total = core_sum + excluded_sum + stopped_sum + ambiguous_term + config.bad_contribution
    coin = +1 if total >= 0 else -1  # ties resolve to +
    if direction > 0:
        good_event = core_sum >= thresholds.alpha_prime
    else:
        good_event = core_sum <= -thresholds.alpha_prime

    return IterationRecord(
        config=config,
        iteration_index=iteration_index,
        core_sum=core_sum,
        excluded_sum=excluded_sum,
        excluded_capped=excluded_capped,
        excluded_cap_binds=cap_binds,
        stopped_sum=stopped_sum,
        ambiguous_term=ambiguous_term,
        bad_contribution=config.bad_contribution,
        total=int(total),
        coin=coin,
        good_event=bool(good_event),
        alpha_prime=thresholds.alpha_prime,
        beta_quarter=thresholds.beta_quarter,
        complete_streams=complete,
        excluded_streams=excluded,
        stopped_streams=stopped,
        stop_indices=tuple(result.stop_index.tolist()),
    )


@dataclass(frozen=True, eq=False)
class AgreementResult:
    """Outcome of iterating rounds until the coin lands usefully."""

    agreed: bool
    iterations_used: int
    records: tuple[IterationRecord, ...]


def run_agreement(config: IterationConfig, max_iterations: int,
                  keep_records: bool = True) -> AgreementResult:
    """Iterate rounds until the coin matches the good direction with total
    deviation at least alpha_prime, or the round budget runs out."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    records: list[IterationRecord] = []
    for i in range(max_iterations):
        record = run_iteration(config, i)
        if keep_records:
            records.append(record)
        if record.coin == config.adversary_direction and abs(record.total) >= record.alpha_prime:
            return AgreementResult(agreed=True, iterations_used=i + 1, records=tuple(records))
    return AgreementResult(agreed=False, iterations_used=max_iterations, records=tuple(records))
