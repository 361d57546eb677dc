"""Seeded Monte Carlo lab: deterministic trial streams, exact-tail confidence
intervals, and CI-aware verdicts for the walk-deviation claims.

Determinism contract: trials are split into fixed-size consecutive blocks
and block ``i`` draws from ``SeedSequence((seed, i))``. Results are
aggregated in block order, so the outcome depends only on (seed, trials,
block size) and never on the worker count. Block size is itself a fixed
function of the walk length, so a given experiment is reproducible byte for
byte. Each experiment makes one ``run_blocks`` call; fact3 and lemma71 read
every threshold of their sweep from that one sample.

The block counters never hold a walk's prefix sums. They ask
``walks.segment_stats`` for the endpoint and the running max and min of each
segment, which it reads off the same coins ``walks.draw_steps`` draws, eight
per byte-table lookup, so every tally equals the one a full ``np.cumsum``
of those coins gives.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.stats import beta as _beta_dist

from .bounds import Params, derive, lemma52_part1_bound
from .exact import prob_max_ge_reflection, prob_sum_ge
from .walks import segment_stats

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_TRIALS_SINGLE",
    "DEFAULT_TRIALS_COMPOSITE",
    "McEstimate",
    "VerificationVerdict",
    "Lemma52Part2Report",
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

_MAX_BLOCK = 8192
_BLOCK_BUDGET = 2**23  # approx entries of walk data per block
# Hard cap on one block's walk matrix, since walks are drawn whole, not in
# chunks. A block holds one raw byte per entry; the bit mask and byte-table
# rows of the segment being scanned bring the peak to about 2.5 bytes.
_MAX_BLOCK_ENTRIES = 2**26


def block_size_for(walk_length: int) -> int:
    """Trials per block, sized to keep a block's walk matrix modest."""
    return max(128, min(_MAX_BLOCK, _BLOCK_BUDGET // max(walk_length, 1)))


def _bounded_block_size(walk_length: int, trials: int) -> int:
    """``block_size_for(walk_length)``, refusing a block whose walk matrix
    would hold more than ``_MAX_BLOCK_ENTRIES`` entries."""
    size = block_size_for(walk_length)
    entries = min(size, trials) * walk_length
    if entries > _MAX_BLOCK_ENTRIES:
        raise ValueError(f"a block of {min(size, trials)} walks of length {walk_length} holds "
                         f"{entries} entries, over the limit of {_MAX_BLOCK_ENTRIES}")
    return size


def _eval_block(task) -> np.ndarray:
    counter, seed, index, start, count = task
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    return np.asarray(counter(rng, count, start), dtype=np.float64)


def run_blocks(counter, trials: int, seed: int, block_size: int, workers: int = 1) -> np.ndarray:
    """Sum ``counter(rng, count, start)`` over deterministic trial blocks.

    ``counter`` must be picklable (module-level function or partial of one)
    and return a fixed-length vector of tallies for its block of trials,
    whose global indices are ``start .. start+count-1``. The pool is capped
    at the CPU count and the number of blocks.
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
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(
                executor.map(_eval_block, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
            )
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
    low = 0.0 if successes == 0 else float(_beta_dist.ppf(tail, successes, trials - successes + 1))
    high = 1.0 if successes == trials else float(_beta_dist.ppf(1.0 - tail, successes + 1, trials - successes))
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
    def from_counts(cls, successes: int, trials: int, seed: int,
                    confidence: float = DEFAULT_CONFIDENCE) -> "McEstimate":
        low, high = clopper_pearson(successes, trials, confidence)
        return cls(
            successes=int(successes),
            trials=int(trials),
            p_hat=successes / trials,
            ci_low=low,
            ci_high=high,
            confidence=confidence,
            seed=int(seed),
        )


@dataclass(frozen=True)
class VerificationVerdict:
    """Outcome of checking an empirical rate against an analytic bound.

    verdict is "pass" when the whole interval sits on the claimed side,
    "fail" when the whole interval violates the claim, and "inconclusive"
    when the interval straddles the bound (unavoidable for equality-tight
    claims, so callers treat it as non-blocking).
    """

    claim_id: str
    empirical: McEstimate | None
    analytic_bound: float
    relation: str
    verdict: str
    details: dict | None = None


def verdict_for(claim_id: str, empirical: McEstimate, bound: float, relation: str,
                details: dict | None = None) -> VerificationVerdict:
    if relation == "<=":
        if empirical.ci_high <= bound:
            verdict = "pass"
        elif empirical.ci_low > bound:
            verdict = "fail"
        else:
            verdict = "inconclusive"
    elif relation == ">=":
        if empirical.ci_low >= bound:
            verdict = "pass"
        elif empirical.ci_high < bound:
            verdict = "fail"
        else:
            verdict = "inconclusive"
    else:
        raise ValueError(f"relation must be '<=' or '>=', got {relation!r}")
    return VerificationVerdict(
        claim_id=claim_id,
        empirical=empirical,
        analytic_bound=float(bound),
        relation=relation,
        verdict=verdict,
        details=details,
    )


# --- block counters (module level so worker processes can unpickle them) ---

def _tail_counter(rng, count, start, *, length, thresholds):
    # hits of the running max at each threshold, then of the endpoint
    ends, tops, _ = segment_stats(rng, count, length)
    levels = np.asarray(thresholds)[:, None]
    return np.concatenate([np.count_nonzero(tops[:, 0] >= levels, axis=1),
                           np.count_nonzero(ends[:, 0] >= levels, axis=1)])


def _directional_hit_counter(rng, count, start, *, length, threshold):
    # Trials alternate target direction by global index: even -> +, odd -> -.
    _, tops, bottoms = segment_stats(rng, count, length)
    plus = (np.arange(start, start + count) % 2) == 0
    plus_hits = int(np.count_nonzero(tops[plus, 0] >= threshold))
    minus_hits = int(np.count_nonzero(bottoms[~plus, 0] <= -threshold))
    return [plus_hits, minus_hits, int(plus.sum()), int(count - plus.sum())]


def _two_phase_counter(rng, count, start, *, n_core, n_full, direction,
                       alpha, beta_quarter, alpha_prime):
    ends, tops, bottoms = segment_stats(rng, count, n_full, (n_core,))
    core = ends[:, 0]
    # The adversary's most damaging stop in the window n_core..n_full is
    # the window's extreme against the direction (analysed in the + frame
    # by mirror symmetry); walks.apply_stop with omniscient_extreme(-1,
    # (n_core, n_full)) on the prefix sums states the same stop.
    if direction < 0:
        core, stopped = -core, -np.maximum(core, tops[:, 1])
    else:
        stopped = np.minimum(core, bottoms[:, 1])
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
                    workers: int = 1) -> list[VerificationVerdict]:
    """For each r = 1..n, estimate Pr(running max of an n-step walk reaches
    r) and compare it against the exact bound 2 Pr(S_n >= r). All n
    thresholds are read off one sample of walks."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    block_size = _bounded_block_size(n, trials)
    counter = partial(_tail_counter, length=n, thresholds=range(1, n + 1))
    hits = run_blocks(counter, trials, seed, block_size, workers)
    verdicts = []
    for r in range(1, n + 1):
        est = McEstimate.from_counts(int(hits[r - 1]), trials, seed)
        exact = float(prob_max_ge_reflection(n, r))
        verdicts.append(verdict_for(
            claim_id=f"max_tail_le_twice_sum_tail_n{n}_r{r}",
            empirical=est,
            bound=float(2 * prob_sum_ge(n, r)),
            relation="<=",
            details={
                "walk_length": n,
                "threshold": r,
                "exact_probability": exact,
                "ci_covers_exact": bool(est.ci_low <= exact <= est.ci_high),
            },
        ))
    return verdicts


def _strict_excess_threshold(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def verify_lemma52_part1(params: Params, trials: int = DEFAULT_TRIALS_SINGLE, seed: int = 0,
                         workers: int = 1) -> VerificationVerdict:
    """Adversarially stopped stream of nt coins: estimate the chance the
    running extreme strictly exceeds beta_quarter and compare against the
    analytic tail bound. Trials alternate the targeted direction; both
    one-sided rates are reported."""
    n, t = params.n, params.t
    if trials < 1:
        raise ValueError("trials must be >= 1")
    thresholds = derive(params)
    bound = lemma52_part1_bound(params)
    if t == 0:
        # No adversarial stream at all: the event is impossible by
        # construction, so no sampling is performed.
        est = McEstimate(successes=0, trials=trials, p_hat=0.0, ci_low=0.0, ci_high=0.0,
                         confidence=DEFAULT_CONFIDENCE, seed=seed)
        return verdict_for("stopped_stream_deviation_tail", est, bound, "<=",
                           {"walk_length": 0, "note": "t=0: empty adversarial stream"})
    length = n * t
    threshold = _strict_excess_threshold(thresholds.beta_quarter)
    counter = partial(_directional_hit_counter, length=length, threshold=threshold)
    tallies = run_blocks(counter, trials, seed, _bounded_block_size(length, trials), workers)
    plus_hits, minus_hits, plus_trials, minus_trials = (int(v) for v in tallies)
    est = McEstimate.from_counts(plus_hits + minus_hits, trials, seed)
    return verdict_for(
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
    )


@dataclass(frozen=True)
class Lemma52Part2Report:
    """Two-phase stream experiment: first-segment deviation, worst opposing
    excursion in the adversary's stopping window, and the surviving
    deviation at the adversary's best stop.

    first_benchmark is reported for reference only; the constant comes from
    an analysis whose deviation convention is not reproducible from the
    material this lab implements, so no verdict is attached to it.
    """

    params: Params
    direction: int
    trials: int
    seed: int
    p_first: McEstimate
    p_adversary_max: McEstimate
    p_full: McEstimate
    structural_check: dict
    first_benchmark: float = 0.211


def verify_lemma52_part2(params: Params, trials: int = DEFAULT_TRIALS_COMPOSITE, seed: int = 0,
                         workers: int = 1, direction: int = +1) -> Lemma52Part2Report:
    """Run the two-phase experiment on streams of n(n-t) coins.

    Phase one is the first n(n-2t) coins; the adversary may stop anywhere
    in the remaining window and plays the clairvoyant opposing stop. The
    structural check is p_full >= p_first - p_adversary_max up to CI slack
    (the three events are measured on the same walks, so it holds exactly
    at the point estimates as well).
    """
    n, t = params.n, params.t
    thresholds = derive(params)
    n_core = n * (n - 2 * t)
    n_full = n * (n - t)
    counter = partial(
        _two_phase_counter,
        n_core=n_core,
        n_full=n_full,
        direction=+1 if direction >= 0 else -1,
        alpha=thresholds.alpha,
        beta_quarter=thresholds.beta_quarter,
        alpha_prime=thresholds.alpha_prime,
    )
    tallies = run_blocks(counter, trials, seed, _bounded_block_size(n_full, trials), workers)
    first, adversary, full = (int(v) for v in tallies)
    p_first = McEstimate.from_counts(first, trials, seed)
    p_adv = McEstimate.from_counts(adversary, trials, seed)
    p_full = McEstimate.from_counts(full, trials, seed)
    slack = (p_first.p_hat - p_first.ci_low) + (p_adv.ci_high - p_adv.p_hat) \
        + (p_full.ci_high - p_full.p_hat)
    lhs = p_full.p_hat
    rhs = p_first.p_hat - p_adv.p_hat
    structural = {
        "claim": "p_full >= p_first - p_adversary_max",
        "lhs": lhs,
        "rhs": rhs,
        "ci_slack": slack,
        "passed": bool(lhs >= rhs - slack),
    }
    return Lemma52Part2Report(
        params=params,
        direction=+1 if direction >= 0 else -1,
        trials=trials,
        seed=seed,
        p_first=p_first,
        p_adversary_max=p_adv,
        p_full=p_full,
        structural_check=structural,
    )


def verify_lemma71(params: Params, trials: int = DEFAULT_TRIALS_COMPOSITE, seed: int = 0,
                   workers: int = 1) -> list[VerificationVerdict]:
    """Running max X of a c1*m*n*t-step walk versus endpoint sum Y of an
    equal-length walk: check Pr(X >= tau) <= 2 Pr(Y >= tau) up to CI slack,
    at tau = (beta/6) * c1 * m and at 0.5, 1 and 2 sigma = sqrt(length).

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
    verdicts = []
    for (label, tau), x_hits, y_hits in zip(sweep.items(), maxima, endpoints):
        est_x = McEstimate.from_counts(int(x_hits), trials, seed)
        est_y = McEstimate.from_counts(int(y_hits), trials, seed)
        slack = (est_x.ci_high - est_x.p_hat) + 2.0 * (est_y.p_hat - est_y.ci_low)
        bound = 2.0 * est_y.p_hat + slack
        verdicts.append(VerificationVerdict(
            claim_id=f"running_max_vs_endpoint@{label}",
            empirical=est_x,
            analytic_bound=bound,
            relation="<=",
            verdict="pass" if est_x.p_hat <= bound else "fail",
            details={
                "walk_length": length,
                "threshold": tau,
                "effective_integer_threshold": math.ceil(tau) if tau > 0 else math.floor(tau),
                "endpoint_estimate": asdict(est_y),
                "ci_slack": slack,
            },
        ))
    return verdicts
