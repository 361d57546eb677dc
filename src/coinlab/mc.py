"""Seeded Monte Carlo lab: deterministic trial streams, exact-tail confidence
intervals, and CI-aware verdicts for the walk-deviation claims. Each
``verify_*`` experiment returns its report rows; ``verdict_for`` builds the
row of a sampled rate checked against a bound.

Determinism contract: trials are split into fixed-size consecutive blocks
and block ``i`` draws from ``SeedSequence((seed, i))``. Results are
aggregated in block order, so the outcome depends only on (seed, trials,
block size) and never on the worker count. Block size is itself a fixed
function of the walk length, so a given experiment is reproducible byte for
byte. Each experiment makes one ``run_blocks`` call; fact3 and lemma71 read
every threshold of their sweep from that one sample.

The block counters never hold a walk's prefix sums. They ask
``walks.walk_peaks`` for each walk's sum after a head, its end and its
highest prefix sum past the head, of walks mirrored where a direction or a
lowest prefix calls for it. It reads these off the same coins
``walks.draw_steps`` draws, taken from the generator's raw 64-bit outputs
and scanned eight per byte, so every tally equals the one a full
``np.cumsum`` of those coins gives.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.special import betaincinv

from .bounds import Params, check, derive, lemma52_part1_bound, verdict
from .exact import (count_max_ge_reflection, count_sum_ge, prob_max_ge_enumeration,
                    prob_max_ge_reflection, prob_sum_ge)
from .walks import substream, walk_peaks

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_TRIALS_SINGLE",
    "DEFAULT_TRIALS_COMPOSITE",
    "McEstimate",
    "clopper_pearson",
    "block_size_for",
    "run_blocks",
    "verdict_for",
    "verify_fact3_mc",
    "verify_lemma52_part1",
    "verify_lemma52_part2",
    "verify_lemma71",
]

DEFAULT_CONFIDENCE = 0.99
DEFAULT_TRIALS_SINGLE = 10**6   # single-walk tail events
DEFAULT_TRIALS_COMPOSITE = 10**5  # multi-phase / multi-stream experiments

_ENUM_ROW_LIMIT = 20  # fact3's identity row enumerates all 2**n walks; keep it snappy

_MAX_BLOCK = 8192
_BLOCK_BUDGET = 2**23  # approx entries of walk data per block
# Cap on one block's walk matrix, in entries (coins). It caps a block's
# work, and the parts of its memory that grow with the block; every other
# buffer is a chunk of about walks._CHUNK_COINS entries. walk_peaks keeps,
# for the whole block, one bit per coin of the window it scans past the
# head plus the window's int16 running-sum rows (int32 past 2**15 steps).
# Traced peaks (tracemalloc), in bytes per entry: 0.11 for lemma52-2's
# block of 2452 walks of 3420 coins, 0.80 for lemma52-1's 8192 walks of
# 200, 5.0 for fact3's 8192 walks of 16 (its per-walk arrays outweigh its
# 131k coins), and 0.67 for 128 walks of 10^5 coins scanned whole for
# their max. A block of rounds (iteration.run_rounds) is drawn
# whole, one byte per coin, while its stopped streams' int16 prefix sums
# are taken a chunk at a time: 1.12 at coin-iter's defaults, 1.5 for two
# rounds of n = 2000 with 900 of 1100 streams stopped (the block plus one
# round's raw PCG64 outputs); a round over the cap is refused, and
# rounds_per_block keeps blocks near 2**20 coins. The cap keeps a round's
# sums inside int32 and its n below 2**15, so inside int16 for a stream.
_MAX_BLOCK_ENTRIES = 2**26


def block_size_for(walk_length: int, minimum: int = 128, budget: int = _BLOCK_BUDGET) -> int:
    """Trials per block: about ``budget`` entries of walk data, at most
    ``_MAX_BLOCK`` trials and at least ``minimum``. Block i of a walk
    experiment draws from ``SeedSequence((seed, i))``, so its size is part
    of every tally and its budget stays; ``walk_peaks`` draws a block a
    chunk at a time, so that budget no longer sets the block's memory."""
    return max(minimum, min(_MAX_BLOCK, budget // max(walk_length, 1)))


def _check_coin_cap(coins: int, what: str) -> None:
    """Refuse ``what``, a draw of ``coins`` coins, when it is over
    ``_MAX_BLOCK_ENTRIES``; every engine calls this before it draws."""
    if coins > _MAX_BLOCK_ENTRIES:
        raise ValueError(f"{what} holds {coins} coins, over the limit of {_MAX_BLOCK_ENTRIES}")


def _bounded_block_size(walk_length: int, trials: int) -> int:
    """``block_size_for(walk_length)``, refusing a block whose walk matrix
    would hold more than ``_MAX_BLOCK_ENTRIES`` entries."""
    size = block_size_for(walk_length)
    walks = min(size, trials)
    _check_coin_cap(walks * walk_length, f"a block of {walks} walks of length {walk_length}")
    return size


def _eval_block(task) -> np.ndarray:
    counter, seed, index, start, count = task
    return np.asarray(counter(substream(seed, index), count, start), dtype=np.float64)


def run_blocks(counter, trials: int, seed: int, block_size: int, workers: int = 1) -> np.ndarray:
    """Sum ``counter(rng, count, start)`` over deterministic trial blocks.

    ``counter`` returns a fixed-length vector of tallies for its block of
    trials, whose global indices are ``start .. start+count-1``. With
    ``workers > 1`` the blocks run on a pool of threads, capped at the CPU
    count and the number of blocks: the kernels are NumPy and LAPACK calls
    that release the GIL, and ``walks`` keeps its scratch buffer and seeding
    generator per thread, so a counter shares no state with another block.
    The tallies are summed in block order either way.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    tasks = []
    index = 0
    for start in range(0, trials, block_size):
        count = min(block_size, trials - start)
        tasks.append((counter, seed, index, start, count))
        index += 1
    workers = min(int(workers), os.cpu_count() or 1, len(tasks))
    total: np.ndarray | None = None
    if workers == 1:
        results = map(_eval_block, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_eval_block, tasks))
    for res in results:
        total = res.copy() if total is None else total + res
    assert total is not None
    return total


def clopper_pearson(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Exact-tail (Beta-inversion) two-sided confidence interval for a
    binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    tail = (1.0 - confidence) / 2.0
    # the Beta(a, b) quantile at q is betaincinv(a, b, q); scipy.special
    # spares importing scipy.stats
    low = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, tail))
    high = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return low, high


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo proportion with its exact-tail confidence interval."""

    successes: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "McEstimate":
        low, high = clopper_pearson(successes, trials)
        return cls(
            successes=int(successes),
            trials=int(trials),
            p_hat=successes / trials,
            ci_low=low,
            ci_high=high,
            confidence=DEFAULT_CONFIDENCE,
            seed=int(seed),
        )


def verdict_for(claim_id: str, empirical: McEstimate, bound: float, relation: str,
                details: dict | None = None, *, at_point: bool = False) -> dict:
    """The report row checking ``empirical`` against ``bound``: its verdict
    is ``bounds.verdict`` of the confidence interval, or of the point
    estimate alone when ``at_point``."""
    low, high = ((empirical.p_hat, empirical.p_hat) if at_point
                 else (empirical.ci_low, empirical.ci_high))
    return {"claim_id": claim_id, "empirical": asdict(empirical), "analytic_bound": float(bound),
            "relation": relation, "verdict": verdict(low, high, float(bound), relation),
            "details": details}


# --- block counters ---

def _count_at_least(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # how many of the integer ``values`` reach each level, read off the
    # suffix sums of one bincount over [min, max]: an integer reaches a
    # float level when it reaches its ceiling
    low = values.min()
    at_least = np.zeros(values.max() - low + 2, dtype=np.int64)
    at_least[:-1] = np.cumsum(np.bincount(values - low)[::-1])[::-1]
    index = np.clip(np.ceil(levels) - low, 0, len(at_least) - 1)
    return at_least[index.astype(np.int64)]


def _tail_counter(rng, count, start, *, length, thresholds):
    # hits of the running max at each threshold, then of the endpoint
    _, ends, tops = walk_peaks(rng, count, length)
    levels = np.asarray(thresholds, dtype=np.float64)
    return np.concatenate([_count_at_least(tops, levels), _count_at_least(ends, levels)])


def _directional_hit_counter(rng, count, start, *, length, threshold):
    # Trials alternate target direction by global index: even -> +, odd -> -.
    # An odd walk is read mirrored, so its running min <= -threshold is its
    # mirror's running max >= threshold.
    plus = (np.arange(start, start + count) % 2) == 0
    tops = walk_peaks(rng, count, length, 0, np.where(plus, 1, -1))[2]
    plus_hits = int(np.count_nonzero(tops[plus] >= threshold))
    minus_hits = int(np.count_nonzero(tops[~plus] >= threshold))
    return [plus_hits, minus_hits, int(plus.sum()), int(count - plus.sum())]


def _two_phase_counter(rng, count, start, *, n_core, n_full, alpha, beta_quarter,
                       alpha_prime):
    # The good direction is +1. The adversary's most damaging stop in the
    # window n_core..n_full is the window's minimum; walks.apply_stop with
    # omniscient_extreme(-1, (n_core, n_full)) on the prefix sums states the
    # same stop. The walks are read mirrored, so the window's minimum is the
    # negated highest prefix past the head.
    at_head, _, top = walk_peaks(rng, count, n_full, n_core, -1)
    core = -at_head
    stopped = -np.maximum(at_head, top)
    first = core >= alpha
    adversary = core - stopped >= beta_quarter
    full = stopped >= alpha_prime
    return [
        int(np.count_nonzero(first)),
        int(np.count_nonzero(adversary)),
        int(np.count_nonzero(full)),
    ]


# --- experiments ---

def verify_fact3_mc(n: int, trials: int = DEFAULT_TRIALS_SINGLE, seed: int = 0,
                    workers: int = 1) -> list[dict]:
    """For each r = 1..n, estimate Pr(running max of an n-step walk reaches
    r) and compare it against the exact bound 2 Pr(S_n >= r). All n
    thresholds are read off one sample of walks. The rows follow one that
    checks the reflection identity against enumerating all 2**n walks, or
    notes that enumeration was skipped when n > ``_ENUM_ROW_LIMIT``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    block_size = _bounded_block_size(n, trials)
    counter = partial(_tail_counter, length=n, thresholds=range(1, n + 1))
    hits = run_blocks(counter, trials, seed, block_size, workers)
    if n <= _ENUM_ROW_LIMIT:
        mismatches = [
            r for r in range(1, n + 1)
            if prob_max_ge_enumeration(n, r) != prob_max_ge_reflection(n, r)
        ]
        rows = [check("enumeration_matches_reflection_identity", not mismatches, kind="exact",
                      thresholds_checked=n, mismatches=mismatches)]
    else:
        rows = [{"kind": "note",
                 "note": f"exact enumeration skipped for n={n} > {_ENUM_ROW_LIMIT}"}]
    # Each exact value is a count of walks over 2**n. Python's int true
    # division is correctly rounded, and so is float(Fraction), so this
    # gives the Fraction's float without the gcd that reducing a Fraction
    # of n-bit integers takes at every threshold.
    walks = 2**n
    for r in range(1, n + 1):
        est = McEstimate.from_counts(int(hits[r - 1]), trials, seed)
        exact = count_max_ge_reflection(n, r) / walks
        rows.append(verdict_for(
            claim_id=f"max_tail_le_twice_sum_tail_n{n}_r{r}",
            empirical=est,
            bound=2 * count_sum_ge(n, r) / walks,
            relation="<=",
            details={
                "walk_length": n,
                "threshold": r,
                "exact_probability": exact,
                "ci_covers_exact": bool(est.ci_low <= exact <= est.ci_high),
            },
        ))
    return rows


def _strict_excess_threshold(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def verify_lemma52_part1(params: Params, trials: int = DEFAULT_TRIALS_SINGLE, seed: int = 0,
                         workers: int = 1) -> list[dict]:
    """Adversarially stopped stream of nt coins: estimate the chance the
    running extreme strictly exceeds beta_quarter and compare against the
    analytic tail bound, after a row giving the bound's value. Trials
    alternate the targeted direction; both one-sided rates are reported."""
    n, t = params.n, params.t
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bound = lemma52_part1_bound(params)
    rows = [{
        "claim_id": "analytic_tail_bound_value",
        "kind": "info",
        "analytic_bound": bound,
        "e_minus_11": math.exp(-11.0),
        "below_e_minus_11": bool(bound <= math.exp(-11.0)),
    }]
    thresholds = derive(params)
    if t == 0:
        # No adversarial stream at all: the event is impossible by
        # construction, so no sampling is performed.
        est = McEstimate(successes=0, trials=trials, p_hat=0.0, ci_low=0.0, ci_high=0.0,
                         confidence=DEFAULT_CONFIDENCE, seed=seed)
        rows.append(verdict_for("stopped_stream_deviation_tail", est, bound, "<=",
                                {"walk_length": 0, "note": "t=0: empty adversarial stream"}))
        return rows
    length = n * t
    threshold = _strict_excess_threshold(thresholds.beta_quarter)
    counter = partial(_directional_hit_counter, length=length, threshold=threshold)
    tallies = run_blocks(counter, trials, seed, _bounded_block_size(length, trials), workers)
    plus_hits, minus_hits, plus_trials, minus_trials = (int(v) for v in tallies)
    est = McEstimate.from_counts(plus_hits + minus_hits, trials, seed)
    rows.append(verdict_for(
        claim_id="stopped_stream_deviation_tail",
        empirical=est,
        bound=bound,
        relation="<=",
        details={
            "walk_length": length,
            "beta_quarter": thresholds.beta_quarter,
            "integer_threshold": threshold,
            "plus_direction": asdict(McEstimate.from_counts(plus_hits, plus_trials, seed)),
            "minus_direction": asdict(McEstimate.from_counts(minus_hits, minus_trials, seed)),
        },
    ))
    return rows


def verify_lemma52_part2(params: Params, trials: int = DEFAULT_TRIALS_COMPOSITE, seed: int = 0,
                         workers: int = 1) -> list[dict]:
    """Run the two-phase experiment on streams of n(n-t) coins, with +1 the
    good direction: first-segment deviation, worst opposing excursion in the
    adversary's stopping window, and the surviving deviation at the
    adversary's best stop.

    Phase one is the first n(n-2t) coins; the adversary may stop anywhere
    in the remaining window and plays the clairvoyant opposing stop. The
    structural check is p_full >= p_first - p_adversary_max up to CI slack
    (the three events are measured on the same walks, so it holds exactly
    at the point estimates as well). The second row reports p_first next to
    the benchmark constant .211, for reference only: the constant comes
    from an analysis whose deviation convention is not reproducible from
    the material this lab implements, so it carries no verdict.
    """
    n, t = params.n, params.t
    thresholds = derive(params)
    n_core = n * (n - 2 * t)
    n_full = n * (n - t)
    counter = partial(
        _two_phase_counter,
        n_core=n_core,
        n_full=n_full,
        alpha=thresholds.alpha,
        beta_quarter=thresholds.beta_quarter,
        alpha_prime=thresholds.alpha_prime,
    )
    tallies = run_blocks(counter, trials, seed, _bounded_block_size(n_full, trials), workers)
    p_first, p_adv, p_full = (McEstimate.from_counts(int(v), trials, seed) for v in tallies)
    slack = (p_first.p_hat - p_first.ci_low) + (p_adv.ci_high - p_adv.p_hat) \
        + (p_full.ci_high - p_full.p_hat)
    lhs = p_full.p_hat
    rhs = p_first.p_hat - p_adv.p_hat
    structural = verdict(lhs, lhs, rhs - slack, ">=")
    benchmark = 0.211
    return [
        {
            "claim_id": "two_phase_structural_decomposition",
            "verdict": structural,
            "report": {
                "params": asdict(params),
                "direction": +1,
                "trials": trials,
                "seed": seed,
                "p_first": asdict(p_first),
                "p_adversary_max": asdict(p_adv),
                "p_full": asdict(p_full),
                "structural_check": {
                    "claim": "p_full >= p_first - p_adversary_max",
                    "lhs": lhs,
                    "rhs": rhs,
                    "ci_slack": slack,
                    "passed": structural == "pass",
                },
                "first_benchmark": benchmark,
            },
        },
        {
            "claim_id": "first_segment_rate_vs_benchmark",
            "kind": "info",
            "p_first": p_first.p_hat,
            "benchmark": benchmark,
        },
    ]


def verify_lemma71(params: Params, trials: int = DEFAULT_TRIALS_COMPOSITE, seed: int = 0,
                   workers: int = 1) -> list[dict]:
    """Running max X of a c1*m*n*t-step walk versus endpoint sum Y of an
    equal-length walk: check Pr(X >= tau) <= 2 Pr(Y >= tau) up to CI slack,
    at tau = (beta/6) * c1 * m and at 0.5, 1 and 2 sigma = sqrt(length),
    then the same claim exactly at length 8, threshold 2.

    Both indicators, at all four thresholds, are read off one sample of
    walks (the coupling does not bias either marginal).
    """
    n, t, m, c1 = params.n, params.t, params.m, params.c1
    raw_length = c1 * m * n * t
    length = int(round(raw_length))
    if length < 1:
        raise ValueError(f"walk length c1*m*n*t = {raw_length} must round to >= 1")
    sigma = math.sqrt(length)
    sweep = {"default_threshold": (derive(params).beta / 6.0) * c1 * m,
             **{f"{mult}sigma": mult * sigma for mult in (0.5, 1.0, 2.0)}}
    counter = partial(_tail_counter, length=length, thresholds=tuple(sweep.values()))
    maxima, endpoints = run_blocks(counter, trials, seed, _bounded_block_size(length, trials),
                                   workers).reshape(2, -1)
    rows = []
    for (label, tau), x_hits, y_hits in zip(sweep.items(), maxima, endpoints):
        est_x = McEstimate.from_counts(int(x_hits), trials, seed)
        est_y = McEstimate.from_counts(int(y_hits), trials, seed)
        slack = (est_x.ci_high - est_x.p_hat) + 2.0 * (est_y.p_hat - est_y.ci_low)
        rows.append(verdict_for(
            claim_id=f"running_max_vs_endpoint@{label}",
            empirical=est_x,
            bound=2.0 * est_y.p_hat + slack,
            relation="<=",
            details={
                "walk_length": length,
                "threshold": tau,
                # tau > 0 (beta > n - 2t > 0 as 2t < n), and an integer
                # reaches tau when it reaches ceil(tau)
                "effective_integer_threshold": math.ceil(tau),
                "endpoint_estimate": asdict(est_y),
                "ci_slack": slack,
            },
            at_point=True,
        ))
    refl = prob_max_ge_reflection(8, 2)
    enum = prob_max_ge_enumeration(8, 2)
    twice = 2 * prob_sum_ge(8, 2)
    rows.append(check("exact_small_case_length8", refl == enum and refl <= twice, kind="exact",
                      reflection=str(refl), enumeration=str(enum),
                      twice_endpoint_tail=str(twice)))
    return rows
