"""Threshold arithmetic for the global-coin analysis.

Derives the detection and deviation thresholds used throughout the lab from
the population size ``n`` and corruption budget ``t``, evaluates the tail
bound for adversarially stopped streams, and checks the fixed numeric
claims that the end-to-end resilience argument chains together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Params",
    "DerivedThresholds",
    "ClaimCheck",
    "ClaimReport",
    "derive",
    "lemma52_part1_bound",
    "check_claims",
]


@dataclass(frozen=True)
class Params:
    """Analysis parameters.

    n: number of processors (and coins per stream)
    t: corruption budget, requires 2t < n
    epsilon: slack in the norm threshold
    c1: per-iteration stream-budget coefficient
    m: number of iterations / rows of the iteration-sum matrix
    """

    n: int
    t: int
    epsilon: float = 0.1
    c1: float = 0.001
    m: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if 2 * self.t >= self.n:
            raise ValueError(f"need 2t < n, got n={self.n}, t={self.t}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.c1 < math.inf:
            raise ValueError("c1 must be positive and finite")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


# Real-valued threshold formulas, shared with the claim checks below where t
# is a prescribed fraction of n rather than an integer.

def _alpha(n: float, t: float) -> float:
    return math.sqrt(2.0 * n * (n - 2.0 * t))


def _beta(n: float, t: float) -> float:
    return math.sqrt(2.0 * n * (n - t)) - 2.0 * t


def _beta_quarter(n: float, t: float) -> float:
    return math.sqrt(2.0 * n * (n - t)) / 4.0 - t / 2.0


def _beta_half(n: float, t: float) -> float:
    return math.sqrt(2.0 * n * (n - t)) / 2.0 - t


@dataclass(frozen=True)
class DerivedThresholds:
    """Thresholds derived from (n, t) plus the norm threshold from (n, m, epsilon).

    alpha is the full-deviation detection threshold, alpha_prime the reduced
    threshold that survives an adversarial excursion of beta_quarter, and
    always alpha_prime + beta_quarter == alpha.
    """

    alpha: float
    beta: float
    beta_quarter: float
    beta_half: float
    alpha_prime: float
    norm_threshold: float


def derive(params: Params) -> DerivedThresholds:
    """Compute all derived thresholds for ``params``."""
    n, t = params.n, params.t
    bq = _beta_quarter(n, t)
    a = _alpha(n, t)
    norm_threshold = (6.0 + 2.0 * params.epsilon) * math.sqrt(n * (params.m + n))
    if not math.isfinite(norm_threshold):
        raise ValueError(f"norm threshold (6 + 2 epsilon) sqrt(n (m + n)) overflows at "
                         f"n={n}, m={params.m}, epsilon={params.epsilon}")
    return DerivedThresholds(
        alpha=a,
        beta=_beta(n, t),
        beta_quarter=bq,
        beta_half=_beta_half(n, t),
        alpha_prime=a - bq,
        norm_threshold=norm_threshold,
    )


def lemma52_part1_bound(params: Params) -> float:
    """Tail bound 2 exp(-(beta/4)^2 / (2tn)) on an adversarially stopped
    stream of nt coins deviating past beta_quarter; 0 when t == 0."""
    n, t = params.n, params.t
    if t == 0:
        return 0.0
    bq = _beta_quarter(n, t)
    return 2.0 * math.exp(-(bq * bq) / (2.0 * t * n))


@dataclass(frozen=True)
class ClaimCheck:
    """One numeric claim: lhs RELATION rhs, with the computed sides kept."""

    claim_id: str
    description: str
    lhs: float
    rhs: float
    relation: str
    passed: bool


@dataclass(frozen=True)
class ClaimReport:
    """Result of check_claims: the four chained numeric claims plus notes."""

    params: Params
    claims: tuple[ClaimCheck, ...]
    notes: tuple[str, ...] = field(default=())


_NOTES = (
    "resilience_product_window uses the numeric coefficient .0183; the general "
    "form it abbreviates carries .183, a factor-10 discrepancy (100x once squared). "
    "The numeric chain is what the final resilience constant follows from, so "
    "it is checked here and the discrepancy is surfaced rather than resolved.",
    "The stream-budget restriction is read as t < n/72 (the bare '1/72' in the "
    "source of these constants omits the factor of n).",
    "The end-to-end resilience replacement (t < 4.25e-7 n becoming "
    "t < 3.3e-8 n) is reported for context; it is not checkable at desk scale.",
)


def check_claims(params: Params) -> ClaimReport:
    """Check the fixed numeric claims of the resilience chain at ``params.n``.

    Each claim pins its own corruption fraction (t = .005n or t = 1e-6 n),
    evaluated real-valued; all four are scale-free in n apart from claim (a)'s
    explicit exponent, which is n-independent as well.
    """
    n = float(params.n)

    # (a) at t = .005 n the stopped-stream tail bound is below e^-11
    t_a = 0.005 * n
    bq = _beta_quarter(n, t_a)
    bound_a = 2.0 * math.exp(-(bq * bq) / (2.0 * t_a * n))
    claim_a = ClaimCheck(
        claim_id="stopped_tail_below_e11",
        description="at t=.005n the stopped-stream deviation bound is at most e^-11",
        lhs=bound_a,
        rhs=math.exp(-11.0),
        relation="<=",
        passed=bound_a <= math.exp(-11.0),
    )

    # (b) the first-segment success margin survives subtracting e^-11
    margin = 0.211 - math.exp(-11.0)
    claim_b = ClaimCheck(
        claim_id="margin_over_one_twentieth",
        description=".211 - e^-11 exceeds 1/20",
        lhs=margin,
        rhs=1.0 / 20.0,
        relation=">",
        passed=margin > 1.0 / 20.0,
    )

    # (c) at t = 1e-6 n the half-deviation squared clears .49999 n^2
    t_c = 1e-6 * n
    bh = _beta_half(n, t_c)
    ratio = (bh / n) ** 2
    claim_c = ClaimCheck(
        claim_id="half_deviation_lower_bound",
        description="at t=1e-6 n, (beta/2)^2 exceeds .49999 n^2",
        lhs=ratio,
        rhs=0.49999,
        relation=">",
        passed=ratio > 0.49999,
    )

    # (d) the resilience product chain lands in the published window (epsilon -> 0)
    product = (2.0 / 3.0) * 0.001 * (0.0183**2) * (0.49999**2) * (7.0**-2)
    claim_d = ClaimCheck(
        claim_id="resilience_product_window",
        description="(2/3)(.001)(.0183)^2(.49999)^2 (7+2e)^-2 at e->0 lies in [1.13e-9, 1.15e-9]",
        lhs=product,
        rhs=1.15e-9,
        relation="in [1.13e-9, 1.15e-9]",
        passed=1.13e-9 <= product <= 1.15e-9,
    )

    return ClaimReport(
        params=params,
        claims=(claim_a, claim_b, claim_c, claim_d),
        notes=_NOTES,
    )
