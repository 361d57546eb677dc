"""Exact rational probabilities for fair-coinflip walks.

Everything here is big-integer arithmetic: probabilities are
``fractions.Fraction`` values in lowest terms (the denominator of any
walk-event probability divides 2**n, so it stays a power of two after
reduction). Two independent routes to the running-maximum distribution are
provided: the closed-form reflection identity, and brute-force enumeration
of all 2**n walks, so each can certify the other on small lengths.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_ENUM_LENGTH",
    "prob_sum_eq",
    "prob_sum_ge",
    "prob_max_ge_reflection",
    "prob_max_ge_enumeration",
    "chernoff_tail",
]

# Enumeration touches all 2**n walks; beyond this it is not worth the wait.
MAX_ENUM_LENGTH = 24


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"walk length must be >= 1, got {n}")


def prob_sum_eq(n: int, r: int) -> Fraction:
    """Pr(endpoint sum of an n-step walk equals r), exactly."""
    _check_n(n)
    if (n + r) % 2 != 0 or abs(r) > n:
        return Fraction(0)
    return Fraction(math.comb(n, (n + r) // 2), 2**n)


def prob_sum_ge(n: int, r: int) -> Fraction:
    """Pr(endpoint sum >= r), exactly.

    Counts +1-steps k with 2k - n >= r, i.e. k >= ceil((n + r) / 2).
    """
    _check_n(n)
    if r > n:
        return Fraction(0)
    if r <= -n:
        return Fraction(1)
    k_min = -((n + r) // -2)  # ceil division
    total = sum(math.comb(n, k) for k in range(k_min, n + 1))
    return Fraction(total, 2**n)


def prob_max_ge_reflection(n: int, r: int) -> Fraction:
    """Pr(running max over prefixes 1..n reaches r), via the reflection identity.

    Valid for r >= 1: the probability equals
    Pr(S_n = r) + 2 Pr(S_n > r).
    """
    _check_n(n)
    if r < 1:
        raise ValueError(f"reflection identity requires r >= 1, got {r}")
    return prob_sum_eq(n, r) + 2 * prob_sum_ge(n, r + 1)


@lru_cache(maxsize=None)
def _running_max_tally(n: int) -> tuple[int, ...]:
    # tally[v + 1] = number of length-n walks whose running max over
    # prefixes 1..n equals v; v ranges over -1..n.
    tally = np.zeros(n + 2, dtype=np.int64)
    chunk = 1 << min(n, 20)
    offsets = np.arange(n, dtype=np.uint32)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint32)
        steps = (((codes[:, None] >> offsets) & 1) * 2 - 1).astype(np.int8)
        sums = np.cumsum(steps, axis=1, dtype=np.int32)
        maxima = sums.max(axis=1)
        tally += np.bincount(maxima + 1, minlength=n + 2)
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


def chernoff_tail(n: int, r: float) -> float:
    """The sub-gaussian tail bound exp(-r^2 / (2n)) for an n-step walk.

    Floating point; Pr(S_n >= r) never exceeds it for r >= 0.
    """
    _check_n(n)
    return math.exp(-(float(r) ** 2) / (2.0 * n))
