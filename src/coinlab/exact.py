"""Exact rational probabilities for fair-coinflip walks.

Everything here is big-integer arithmetic: probabilities are
``fractions.Fraction`` values in lowest terms (the denominator of any
walk-event probability divides 2**n, so it stays a power of two after
reduction). Two independent routes to the running-maximum distribution are
provided: the closed-form reflection identity, and brute-force enumeration
of all 2**n walks, so each can certify the other on small lengths. The
endpoint and reflection counts are public too, as integers out of 2**n,
for a caller that wants a float without reducing a Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .walks import _CHUNK_COINS

__all__ = [
    "MAX_ENUM_LENGTH",
    "count_sum_ge",
    "count_max_ge_reflection",
    "prob_sum_eq",
    "prob_sum_ge",
    "prob_max_ge_reflection",
    "prob_max_ge_enumeration",
]

# Enumeration touches all 2**n walks; beyond this it is not worth the wait.
MAX_ENUM_LENGTH = 24


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"walk length must be >= 1, got {n}")


@lru_cache(maxsize=1)
def _tail_counts(n: int) -> tuple[int, ...]:
    # entry k is the number of n-step walks with at least k +1-steps, the sum
    # of C(n, j) over j >= k: the row comes from its multiplicative
    # recurrence and is summed once, so fact3's sweep over every threshold
    # of one length does O(n) big-integer additions, not O(n**2), and no
    # math.comb call. Only the last row is kept: fact3 and lemma71 each read
    # one length at a time, and a row near n = 2**14 holds about 29 MB.
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(accumulate(reversed(row)))[::-1]


def count_sum_ge(n: int, r: int) -> int:
    """The number of the 2**n walks of n steps whose endpoint sum is >= r."""
    _check_n(n)
    # those with k +1-steps where 2k - n >= r, i.e. k >= ceil((n + r) / 2)
    if r > n:
        return 0
    if r <= -n:
        return 2**n
    return _tail_counts(n)[-((n + r) // -2)]


def prob_sum_eq(n: int, r: int) -> Fraction:
    """Pr(endpoint sum of an n-step walk equals r), exactly, as
    Pr(S_n >= r) - Pr(S_n >= r + 1)."""
    return Fraction(count_sum_ge(n, r) - count_sum_ge(n, r + 1), 2**n)


def count_max_ge_reflection(n: int, r: int) -> int:
    """The number of the 2**n walks of n steps whose running max over
    prefixes 1..n reaches r, via the reflection identity.

    Valid for r >= 1: the walks ending at r, plus twice those ending above
    r, which is #{S_n >= r} + #{S_n >= r + 1}.
    """
    _check_n(n)
    if r < 1:
        raise ValueError(f"reflection identity requires r >= 1, got {r}")
    return count_sum_ge(n, r) + count_sum_ge(n, r + 1)


def prob_sum_ge(n: int, r: int) -> Fraction:
    """Pr(endpoint sum >= r), exactly."""
    return Fraction(count_sum_ge(n, r), 2**n)


def prob_max_ge_reflection(n: int, r: int) -> Fraction:
    """Pr(running max over prefixes 1..n reaches r), via the reflection
    identity: ``count_max_ge_reflection`` over 2**n, for r >= 1."""
    return Fraction(count_max_ge_reflection(n, r), 2**n)


def _prefix_peaks(steps: int, floor: int) -> tuple[np.ndarray, np.ndarray]:
    # For each of the 2**steps walks of ``steps`` steps, walk w stepping +1
    # at step k + 1 where bit k of w is set: its highest prefix sum, never
    # below ``floor``, and its end. A walk of one more step is a shorter
    # walk plus a top bit, so the arrays double once per step.
    peak = np.full(1, floor, dtype=np.int64)
    end = np.zeros(1, dtype=np.int64)
    for _ in range(steps):
        end = np.concatenate([end - 1, end + 1])
        peak = np.maximum(np.concatenate([peak, peak]), end)
    return peak, end


@lru_cache(maxsize=None)
def _running_max_tally(n: int) -> tuple[int, ...]:
    # tally[v + 1] = number of length-n walks whose running max over
    # prefixes 1..n equals v; v ranges over -1..n.
    #
    # The walks are enumerated a chunk at a time, each chunk about
    # _CHUNK_COINS coins of walks that share their last n - low steps. The
    # first ``low`` steps are scanned once: per head, the highest of the
    # prefix sums 1..low (S_1 >= -1, so a floor of -1 changes none) and the
    # end. A walk's max is then max(head peak, head end + the highest of
    # its tail's prefix sums 0..n-low), with the tail fixed per chunk.
    low = min(n, max(1, (_CHUNK_COINS // n).bit_length() - 1))
    head_peak, head_end = _prefix_peaks(low, -1)
    tail_peak, _ = _prefix_peaks(n - low, 0)
    tally = np.zeros(n + 2, dtype=np.int64)
    for top in tail_peak.tolist():
        tally += np.bincount(np.maximum(head_peak, head_end + top) + 1, minlength=n + 2)
    return tuple(int(c) for c in tally)


def prob_max_ge_enumeration(n: int, r: int) -> Fraction:
    """Pr(running max over prefixes 1..n reaches r), by enumerating all 2**n walks.

    Independent of the reflection route; limited to n <= MAX_ENUM_LENGTH.
    """
    _check_n(n)
    if n > MAX_ENUM_LENGTH:
        raise ValueError(f"enumeration limited to n <= {MAX_ENUM_LENGTH}, got {n}")
    tally = _running_max_tally(n)
    if r > n:
        return Fraction(0)
    count = sum(tally[v + 1] for v in range(max(r, -1), n + 1))
    return Fraction(count, 2**n)

