import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinlab.bounds import Params, check_claims, derive, lemma52_part1_bound


def test_params_validation():
    with pytest.raises(ValueError):
        Params(n=0, t=0)
    with pytest.raises(ValueError):
        Params(n=10, t=5)  # needs 2t < n
    with pytest.raises(ValueError):
        Params(n=10, t=-1)
    with pytest.raises(ValueError):
        Params(n=10, t=1, epsilon=0.0)
    with pytest.raises(ValueError):
        Params(n=10, t=1, m=0)


def test_thresholds_at_200_1():
    th = derive(Params(n=200, t=1))
    assert th.alpha == pytest.approx(281.42494558940575, rel=1e-12)
    assert th.beta == pytest.approx(280.1347195933177, rel=1e-12)
    assert th.beta_quarter == pytest.approx(70.03367989832942, rel=1e-12)
    assert th.beta_half == pytest.approx(140.06735979665885, rel=1e-12)
    assert th.alpha_prime == pytest.approx(211.39126569107634, rel=1e-12)


def test_thresholds_at_no_adversary():
    th = derive(Params(n=60, t=0))
    # with t=0 everything collapses onto sqrt(2) n
    assert th.alpha == pytest.approx(60 * math.sqrt(2.0), rel=1e-12)
    assert th.beta == pytest.approx(60 * math.sqrt(2.0), rel=1e-12)
    assert th.alpha_prime == pytest.approx(63.63961030678928, rel=1e-12)


def test_norm_threshold():
    th = derive(Params(n=32, t=1, m=32, epsilon=0.1))
    assert th.norm_threshold == pytest.approx((6 + 0.2) * math.sqrt(32 * 64), rel=1e-12)


@given(st.integers(3, 5000), st.floats(0.0, 0.49))
def test_alpha_splits_into_prime_and_quarter(n, frac):
    t = int(frac * n)
    if 2 * t >= n:
        return
    th = derive(Params(n=n, t=t))
    assert th.alpha_prime + th.beta_quarter == pytest.approx(th.alpha, rel=1e-9)
    assert th.beta <= th.alpha
    assert th.beta_half == pytest.approx(2 * th.beta_quarter, rel=1e-9, abs=1e-9)
    radical = math.sqrt(2 * n * (n - t))
    assert th.beta_quarter == pytest.approx(radical / 4 - t / 2, rel=1e-9, abs=1e-9)
    assert th.beta_half == pytest.approx(radical / 2 - t, rel=1e-9, abs=1e-9)


def test_tail_bound_frozen_value():
    bound = lemma52_part1_bound(Params(n=1000, t=5))
    assert bound == pytest.approx(9.45805669187928e-06, rel=1e-12)
    assert bound <= math.exp(-11.0)


def test_tail_bound_zero_adversary():
    assert lemma52_part1_bound(Params(n=100, t=0)) == 0.0


def test_tail_bound_shrinks_with_n():
    # at the t = .005 n ratio the exponent is n-free, so values coincide
    a = lemma52_part1_bound(Params(n=1000, t=5))
    b = lemma52_part1_bound(Params(n=2000, t=10))
    assert a == pytest.approx(b, rel=1e-9)


def _claims(params):
    return [row for row in check_claims(params) if "verdict" in row]


def test_check_claims_all_pass():
    claims = _claims(Params(n=1000, t=5))
    assert all(c["verdict"] == "pass" for c in claims)
    by_id = {c["claim_id"]: c for c in claims}
    assert by_id["stopped_tail_below_e11"]["lhs"] == pytest.approx(9.45805669187928e-06, rel=1e-9)
    assert by_id["margin_over_one_twentieth"]["lhs"] == pytest.approx(0.211 - math.exp(-11),
                                                                      rel=1e-12)
    assert by_id["half_deviation_lower_bound"]["lhs"] == pytest.approx(0.49999808573127864,
                                                                       rel=1e-9)
    assert by_id["resilience_product_window"]["lhs"] == pytest.approx(1.1390360698433877e-09,
                                                                      rel=1e-12)
    assert 1.13e-9 <= by_id["resilience_product_window"]["lhs"] <= 1.15e-9


def test_check_claims_scale_free():
    a = _claims(Params(n=1000, t=5))
    b = _claims(Params(n=10**6, t=5))
    for ca, cb in zip(a, b):
        assert ca["lhs"] == pytest.approx(cb["lhs"], rel=1e-6)


def test_notes_surface_the_coefficient_discrepancy():
    notes = next(row["notes"] for row in check_claims(Params(n=1000, t=5))
                 if row.get("kind") == "notes")
    assert any(".0183" in note and ".183" in note for note in notes)
