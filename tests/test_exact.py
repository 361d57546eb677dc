import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlab import exact
from coinlab.exact import (
    MAX_ENUM_LENGTH,
    prob_max_ge_enumeration,
    prob_max_ge_reflection,
    prob_sum_eq,
    prob_sum_ge,
)
from coinlab.mc import verify_fact3_mc


def test_prob_sum_eq_small_cases():
    assert prob_sum_eq(2, 0) == Fraction(1, 2)
    assert prob_sum_eq(2, 2) == Fraction(1, 4)
    assert prob_sum_eq(2, 1) == 0  # parity
    assert prob_sum_eq(3, 5) == 0  # out of range
    assert prob_sum_eq(4, -2) == Fraction(1, 4)


def test_prob_sum_ge_small_cases():
    assert prob_sum_ge(2, 1) == Fraction(1, 4)
    assert prob_sum_ge(2, 2) == Fraction(1, 4)
    assert prob_sum_ge(2, 0) == Fraction(3, 4)
    assert prob_sum_ge(2, -2) == 1
    assert prob_sum_ge(2, 3) == 0
    assert prob_sum_ge(2, -3) == 1


@given(st.integers(1, 40))
def test_prob_sum_ge_telescopes(n):
    total = sum(prob_sum_eq(n, r) for r in range(-n, n + 1))
    assert total == 1
    assert prob_sum_ge(n, -n) == 1


@given(st.integers(1, 30), st.integers(-30, 30))
def test_prob_sum_ge_matches_direct_sum(n, r):
    direct = sum(prob_sum_eq(n, k) for k in range(r, n + 1))
    assert prob_sum_ge(n, r) == direct


def test_reflection_small_cases():
    # M_2 >= 1: paths UU and UD only (DU peaks at 0)
    assert prob_max_ge_reflection(2, 1) == Fraction(1, 2)
    assert prob_max_ge_reflection(2, 2) == Fraction(1, 4)
    assert prob_max_ge_reflection(1, 1) == Fraction(1, 2)
    assert prob_max_ge_reflection(8, 2) == Fraction(65, 128)


def test_reflection_requires_positive_threshold():
    with pytest.raises(ValueError):
        prob_max_ge_reflection(4, 0)


@given(st.integers(1, 14), st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_reflection(n, r):
    assert prob_max_ge_enumeration(n, r) == prob_max_ge_reflection(n, r)


def test_enumeration_budget():
    with pytest.raises(ValueError):
        prob_max_ge_enumeration(MAX_ENUM_LENGTH + 1, 1)


@given(st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_reflection_corollary_le_twice_endpoint(n, r):
    # Pr(max >= r) <= 2 Pr(sum >= r), with equality exactly when n+r is odd
    lhs = prob_max_ge_reflection(n, r)
    rhs = 2 * prob_sum_ge(n, r)
    assert lhs <= rhs
    if (n + r) % 2 == 1 and r <= n:
        assert lhs == rhs
    elif r <= n:
        assert lhs < rhs


def test_equality_tight_pairs_exist():
    # strictness genuinely fails on parity-mismatched pairs
    assert prob_max_ge_reflection(2, 1) == 2 * prob_sum_ge(2, 1) == Fraction(1, 2)
    assert prob_max_ge_reflection(3, 2) == 2 * prob_sum_ge(3, 2) == Fraction(1, 4)


@given(st.integers(1, 200), st.integers(1, 200))
def test_chernoff_dominates_exact_tail(n, r):
    # the sub-gaussian tail bound exp(-r^2 / (2n))
    assert float(prob_sum_ge(n, r)) <= math.exp(-r * r / (2 * n)) + 1e-12


def _reflection_tally(n):
    # walks of length n by running max v = -1..n, from the reflection identity:
    # the max is -1 when the first step is -1 and the other n - 1 steps,
    # started at 0, never climb above 0
    at_least = [2**n * prob_max_ge_reflection(n, r) for r in range(1, n + 1)] + [0]
    below = 2 ** (n - 1) * (1 - prob_max_ge_reflection(n - 1, 1)) if n > 1 else 1
    counts = [below, 2**n - below - at_least[0]]
    counts += [hi - lo for hi, lo in zip(at_least, at_least[1:])]
    return tuple(int(c) for c in counts)


@pytest.mark.parametrize("chunk_coins", [1, 8, 100, 2**18])
def test_enumeration_chunks_match_reflection(chunk_coins):
    # any chunk of walks, down to two walks a chunk, tallies every walk once
    with mock.patch.object(exact, "_CHUNK_COINS", chunk_coins):
        for n in range(1, 15):
            assert exact._running_max_tally.__wrapped__(n) == _reflection_tally(n), n


def test_enumeration_memory_is_a_chunk(traced_peak):
    # 2**18 walks of 18 steps; one chunk of 2**13 walks at a time
    _, peak = traced_peak(lambda: exact._running_max_tally.__wrapped__(18))
    assert peak < 2 * 2**20


def test_fact3_exact_column_sums_each_row_once():
    # fact3 reads prob_max_ge_reflection and prob_sum_ge at every r = 1..n;
    # re-summing the binomial tail for each r took about n**2 / 2 math.comb
    # calls, cubic time in n with the big integers' sizes
    n = 300
    with mock.patch("math.comb", wraps=math.comb) as comb:
        column = [(prob_max_ge_reflection(n, r), prob_sum_ge(n, r)) for r in range(1, n + 1)]
    assert comb.call_count <= n
    for r in (1, 2, 17, 150, 299, 300):
        k_min = -((n + r) // -2)
        tail = Fraction(sum(math.comb(n, k) for k in range(k_min, n + 1)), 2**n)
        at = Fraction(math.comb(n, (n + r) // 2), 2**n) if (n + r) % 2 == 0 else 0
        assert column[r - 1] == (at + 2 * (tail - at), tail), r


def test_tail_counts_keep_one_row(traced_peak):
    # after reads at several lengths near 4000, about one row of binomial
    # tails is still held, not one row per length
    lengths = range(4000, 3940, -10)

    def read_each_length():
        exact._tail_counts.cache_clear()
        for n in lengths:
            exact.count_sum_ge(n, 2)
        return tracemalloc.get_traced_memory()[0]

    held, _ = traced_peak(read_each_length)
    row = exact._tail_counts(lengths[-1])
    row_bytes = sys.getsizeof(row) + sum(sys.getsizeof(count) for count in row)
    assert row_bytes < held < 1.5 * row_bytes


def test_fact3_makes_no_math_comb_call():
    # fact3's exact values are counts read off _tail_counts' one row of
    # binomial tails, or off the enumeration tally
    with mock.patch("math.comb", wraps=math.comb) as comb:
        rows = verify_fact3_mc(16, trials=200, seed=0)
    assert comb.call_count == 0
    assert rows[0]["verdict"] == "pass" and len(rows) == 17


def test_fact3_floats_need_no_fraction():
    # fact3's floats are counts of walks over 2**n, one correctly rounded
    # int division each, as float(Fraction) is; reducing a Fraction of
    # n-bit integers at every threshold took most of fact3's time at large n
    n = 100
    with mock.patch("fractions.math", wraps=math) as spy:
        assert float(Fraction(6, 4)) == 1.5  # the spy sees a Fraction's gcd
        seen = spy.gcd.call_count
        rows = verify_fact3_mc(n, trials=200, seed=0)
    assert seen == 1 and spy.gcd.call_count == seen
    for r, row in enumerate(rows[1:], start=1):
        assert row["details"]["exact_probability"] == float(prob_max_ge_reflection(n, r))
        assert row["analytic_bound"] == float(2 * prob_sum_ge(n, r))
