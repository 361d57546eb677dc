"""Seeded Monte Carlo lab: deterministic trial streams, exact-tail confidence
intervals, and CI-aware verdicts for the walk-deviation claims. Each
``verify_*`` experiment returns its report rows; ``verdict_for`` builds the
row of a sampled rate checked against a bound.

``clopper_pearson`` inverts the binomial tails on ``math`` and NumPy alone:
safeguarded Newton steps in log(p/(1-p)) on the log of the tail, which is
the pmf at x (Loader's saddle-point form, or a plain product for few
successes) times a cumulative product of term ratios summed away from x.
Each end lies within 2 ulps of the exact root; the ends at x = 0 and x = n,
and the lower end at x = 1, are closed forms.

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

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
# fact3's exact column reads a cached row of n + 1 big integers
# (exact._tail_counts), about 0.11 * n**2 bytes: 29 MB at this n.
_FACT3_MAX_N = 2**14

_MAX_BLOCK = 8192
# Trials per call at most: float64 tallies count exactly up to here.
_MAX_TRIALS = 2**53
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
    that release the GIL, and ``walks`` keeps its seeding generator per
    thread, so a counter shares no state with another block. The blocks
    are made one at a time as they are run, with at most 2 * workers of
    them in flight, so memory does not grow with the trial count, and the
    tallies are summed in block order either way. Over ``_MAX_TRIALS``
    trials is refused: float64 tallies count exactly only up to 2**53.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be <= 2**53 = {_MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    tasks = ((counter, seed, index, start, min(block_size, trials - start))
             for index, start in enumerate(range(0, trials, block_size)))
    workers = min(int(workers), os.cpu_count() or 1, -(-trials // block_size))
    results = map(_eval_block, tasks) if workers == 1 else _pooled(tasks, workers)
    total = next(results).copy()
    for res in results:
        total += res
    return total


def _pooled(tasks, workers: int):
    """``_eval_block`` of each task, in order, on ``workers`` threads, with
    at most 2 * workers tasks submitted and not yet taken."""
    with ThreadPoolExecutor(max_workers=workers) as executor:
        pending: deque = deque()
        for task in tasks:
            pending.append(executor.submit(_eval_block, task))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)**k), Stirling's error, for
# k < 16 (k = 0 is never read); from 16 on, the series in _stirlerr is exact
# to double precision (its first omitted term is below 3e-20).
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
# A lower endpoint at x <= this many successes takes the pmf as the plain
# product comb(n, x) p**x (1-p)**(n-x). Its slope in log p is about x, so
# Loader's form, whose log-scale terms carry an error of a few ulps of
# x log(x / np), moved these endpoints by up to 6 ulps; the product's error
# grows with np < x instead, which Loader's form beats from about here on.
_PRODUCT_PMF_MAX = 16
# Terms of a tail sum held at once: 256 KB, however many trials.
_CP_CHUNK = 2**15


def _stirlerr(k: int) -> float:
    if k < len(_STIRLERR):
        return _STIRLERR[k]
    s = 1.0 / (k * k)
    return (1 / 12 - s * (1 / 360 - s * (1 / 1260 - s * (1 / 1680 - s * (
        1 / 1188 - s * (691 / 360360 - s / 156)))))) / k


def _bd0(k: int, mean: float, d: float) -> float:
    """k log(k / mean) + mean - k, given d = k - mean: the deviance term of
    Loader's binomial pmf. Near the mean it is summed as the series in
    v = d / (k + mean), which has no cancellation."""
    v = d / (k + mean)
    if abs(v) >= 0.5:
        return k * math.log(k / mean) - d
    # k log(k / mean) = 2k atanh(v) and d = v (k + mean), so the deviance is
    # d v + 2 k v sum_{j>=1} v^(2j) / (2j+1); the series gets its own
    # accumulator, so its many small terms round at their own scale
    v2 = v * v
    power, series, j = v2, 0.0, 3
    while (nxt := series + power / j) != series:
        series, power, j = nxt, power * v2, j + 2
    return d * v + 2 * k * v * series


def _cp_endpoint(x: int, n: int, tail: float, upper: bool, start: float) -> float:
    """For X ~ Binomial(n, p) and 0 < x < n: the p in (x/n, 1) with
    Pr(X <= x) = tail when ``upper``, else the p in (0, x/n) with
    Pr(X >= x) = tail. Newton steps in lam = log(p / (1-p)) from ``start``,
    kept inside a bracket in p that each evaluation narrows (bisection in
    lam when a step leaves it)."""
    product_pmf = not upper and x <= _PRODUCT_PMF_MAX
    if product_pmf:
        scale = 1  # comb(n, x), as an exact product of at most 16 steps
        for i in range(x):
            scale = scale * (n - i) // (i + 1)
        scale = float(scale)
    else:
        scale = math.exp(_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)) \
            * math.sqrt(n / (2 * math.pi * x * (n - x)))
    # The tail is pmf(x) times 1 + r_0 + r_0 r_1 + ..., the ratios of
    # successive pmf terms stepping away from x, each a p-free factor times
    # p/(1-p) (or its inverse). Inside the bracket r_0 < 1 and the ratios
    # fall, so once r = the last ratio summed, the rest is at most the last
    # term times r / (1 - r), and the sum stops when that is negligible. It
    # runs over chunks of at most _CP_CHUNK terms; the first, about ten
    # standard deviations long, is kept for every step.
    count = x if upper else n - x
    head = _ratio_factors(x, n, upper, 0, min(count, _CP_CHUNK, 16 + int(10 * math.sqrt(x * (n - x) / n))))
    p_low, p_high = (x / n, 1.0) if upper else (0.0, x / n)
    p, last = min(max(start, p_low), p_high), None
    if not 0 < p < 1:
        p = x / n
    for _ in range(100):
        q = 1.0 - p
        odds = q / p if upper else p / q
        factors, done, carry, series = head, 0, 1.0, 1.0
        while True:
            terms = np.multiply.accumulate(factors * odds)
            if done:
                terms *= carry
            series += float(np.add.reduce(terms))
            done += len(factors)
            ratio = float(factors[-1]) * odds
            if done == count or (ratio < 1 and terms[-1] * ratio <= 2**-60 * series * (1 - ratio)):
                break
            carry = float(terms[-1])
            factors = _ratio_factors(x, n, upper, done, min(count - done, _CP_CHUNK))
        if product_pmf:
            pmf = scale * p**x * math.exp((n - x) * math.log1p(-p))
        else:
            num, den = p.as_integer_ratio()
            d = (x * den - n * num) / den  # x - np, correctly rounded
            pmf = scale * math.exp(-_bd0(x, n * p, d) - _bd0(n - x, n * q, -d))
        value = pmf * series
        f = math.log(value / tail) if value > 0 else -math.inf
        if f == 0:
            return p
        # f rises with p for the lower end (Pr(X >= x) grows with p) and
        # falls for the upper end
        if (f < 0) != upper:
            p_low = p
        else:
            p_high = p
        # d log Pr(X >= x) / d lam = x (1-p) pmf / Pr(X >= x), and
        # d log Pr(X <= x) / d lam = -(n-x) p pmf / Pr(X <= x)
        step = -f * series / (-(n - x) * p if upper else x * q)
        # dp / dlam = p (1-p): to first order, exact to 2**-53 for small steps
        new = p + p * q * step if abs(step) < 2**-26 else _expit(math.log(p / q) + step)
        # Stop when p moves by under 2**-50 of itself; or when Newton's
        # error after this step, about C step**2 with C about step / last**2,
        # is below 2**-54; or when tiny steps stop shrinking, the noise floor
        # of f.
        moved = abs(q * step)
        if moved < 2**-50 or last is not None and (
                abs(step) < 2**-26 and abs(step)**3 <= 2**-54 * last**2
                or moved < 2**-40 and abs(step) > abs(last) / 4):
            return new
        last = step
        if not p_low < new < p_high:
            ends = (p_low, p_high)
            new = (_expit(sum(math.log(e / (1.0 - e)) for e in ends) / 2) if 0 < p_low and p_high < 1
                   else sum(ends) / 2)
        p = new
    return p  # not reached in practice: 20,000 random cases took at most 4 steps


def _ratio_factors(x: int, n: int, upper: bool, start: int, size: int) -> np.ndarray:
    # the p-free parts of the ratios pmf(k+1)/pmf(k) = (n-k)/(k+1) p/(1-p)
    # for k = x + start, ... (lower end), or pmf(k-1)/pmf(k) = k/(n-k+1)
    # (1-p)/p for k = x - start, ... (upper end)
    if upper:
        k = (x - start) - np.arange(size, dtype=np.float64)
        return k / (n - k + 1)
    k = (x + start) + np.arange(size, dtype=np.float64)
    return (n - k) / (k + 1)


def _expit(lam: float) -> float:
    if lam >= 0:
        return 1.0 / (1.0 + math.exp(-lam))
    e = math.exp(lam)
    return e / (1.0 + e)


def _normal_quantile(upper_tail: float) -> float:
    # z with Pr(Z > z) = upper_tail, to about 4.5e-4 (Abramowitz and Stegun
    # 26.2.23): only a starting point for _cp_endpoint
    t = math.sqrt(-2.0 * math.log(upper_tail))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def _beta_quantile(a: int, b: int, z: float) -> float:
    # Abramowitz and Stegun 26.5.22: the Beta(a, b) quantile whose upper
    # tail is Pr(Z > z), for a, b >= 1; a starting point for _cp_endpoint
    lam = (z * z - 3) / 6
    h = 2 / (1 / (2 * a - 1) + 1 / (2 * b - 1))
    w = z * math.sqrt(h + lam) / h - (1 / (2 * b - 1) - 1 / (2 * a - 1)) * (lam + 5 / 6 - 2 / (3 * h))
    return a / (a + b * math.exp(2 * w))


def clopper_pearson(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Exact-tail (Clopper-Pearson) two-sided confidence interval for a
    binomial proportion: the lower end solves Pr(X >= x) = (1 - confidence)/2
    and the upper end Pr(X <= x) = (1 - confidence)/2, X ~ Binomial(trials, p).

    The ends at x = 0 and x = trials are 0 and 1, and the other end there, as
    well as the lower end at x = 1, has a closed form. Elsewhere each end is
    the root of the log of that tail, found by safeguarded Newton steps in
    log(p / (1-p)) from a normal approximation to the Beta quantile (2 to 4
    tail evaluations over 20,000 random cases). The tail is the pmf at x
    times a vectorised cumulative product of the ratios of successive terms,
    summed away from x. The pmf is Loader's saddle-point form, stirlerr and
    bd0 as in R's dbinom, or the plain product at lower ends with few
    successes. Every end lies within 2 ulps of the exact root of its tail
    equation (a tier-1 test checks a grid of counts up to 10**6 trials
    against rational and 32-digit sums).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    x, n = int(successes), int(trials)
    tail = (1.0 - confidence) / 2.0
    if x == 0:
        return 0.0, -math.expm1(math.log(tail) / n)  # (1-p)**n = tail
    if x == n:
        return tail ** (1.0 / n), 1.0  # p**n = tail
    z = _normal_quantile(tail)
    if x == 1:
        low = -math.expm1(math.log1p(-tail) / n)  # 1 - (1-p)**n = tail
    else:
        low = _cp_endpoint(x, n, tail, False, _beta_quantile(x, n - x + 1, z))
    return low, _cp_endpoint(x, n, tail, True, _beta_quantile(x + 1, n - x, -z))


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
    # omniscient_extreme(-1) on the slice sums[..., n_core-1:n_full] of the
    # prefix sums states the same stop. The walks are read mirrored, so the
    # window's minimum is the negated highest prefix past the head.
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
    notes that enumeration was skipped when n > ``_ENUM_ROW_LIMIT``. An n
    over ``_FACT3_MAX_N`` is refused before any draw."""
    if not 1 <= n <= _FACT3_MAX_N:
        raise ValueError(f"n must lie in [1, {_FACT3_MAX_N}], got {n}")
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
