"""Stopped-column coin matrices and spectral-norm concentration checks.

A round's coin matrix holds each processor's stream as a column; the
adversary may truncate some columns, which splits the matrix into an
unstopped +/-1 matrix plus a correction supported on the truncated
suffixes. Summing columns across rounds gives the iteration-sum matrix
whose operator norm the concentration claim controls. ``build_G`` and the
norm experiment's block counter share one round-sum routine over the raw
coin bytes of ``walks.coin_bytes``; the counter reads a chunk of trials in
one draw and solves their norms a group of trials at a time. Norms come
from one batched symmetric eigensolve of a stack of Gram matrices, each
certified by the residual of its top eigenvector.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .bounds import Params, derive
from .mc import McEstimate, VerificationVerdict, _check_coin_cap, run_blocks, verdict_for
from .walks import _CHUNK_COINS, StoppingStrategy, apply_stop, coin_bytes, substream_bytes

__all__ = [
    "IterationSumMatrices",
    "NormEstimate",
    "NormBoundReport",
    "ConvergenceError",
    "SpectralCheckError",
    "build_G",
    "spectral_norm",
    "spectral_norms",
    "norm_2x2",
    "verify_norm_bound",
]

# Matrices stay small (hundreds of rows/columns); dense numpy throughout.
_NORM_TRIAL_BLOCK = 64
# The relative error every norm certificate must reach.
_REL_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """A spectral-norm certificate exceeded its tolerance; carries the estimate."""

    def __init__(self, message: str, best: "NormEstimate"):
        super().__init__(message)
        self.best = best


class SpectralCheckError(RuntimeError):
    """A structural identity on computed norms failed beyond tolerance."""


@dataclass(frozen=True, eq=False)
class IterationSumMatrices:
    """Column sums of m rounds' coin matrices (rows = rounds).

    stopped_sums = full_sums + correction_sums, with the bad columns (the
    last t) zeroed in all three.
    """

    stopped_sums: np.ndarray
    full_sums: np.ndarray
    correction_sums: np.ndarray


def _iteration_sums(heads: np.ndarray, t: int, adversary: StoppingStrategy):
    """Stopped, full and correction column sums, each (..., m, n), of the coin
    matrices ``heads`` (..., m, n, n), True for +1, whose first t columns the
    adversary stops and whose last t are the bad processors, zero in all
    three: a stopped column's correction is its value minus its sum."""
    n = heads.shape[-1]
    full = 2 * heads.sum(axis=-2) - n
    full[..., n - t:] = 0
    sums = np.cumsum(np.where(np.swapaxes(heads[..., :t], -1, -2), 1, -1), axis=-1)
    correction = np.zeros_like(full)
    correction[..., :t] = apply_stop(sums, adversary).value - sums[..., -1]
    return full + correction, full, correction


def build_G(params: Params, adversary: StoppingStrategy, seed) -> IterationSumMatrices:
    """Build the m x n iteration-sum matrices for ``params``.

    Round i draws from substream (seed, i) when ``seed`` is an int, or
    sequentially when it is a Generator. The adversary truncates the first
    t columns each round; the last t columns are the bad processors, zeroed
    in the sums (2t < n keeps the two sets apart).
    """
    n, t, m = params.n, params.t, params.m
    if isinstance(seed, np.random.Generator):
        raw = coin_bytes(seed, n * n, m)
    else:
        raw = substream_bytes(int(seed), 0, m, n * n)
    heads = raw.reshape(m, n, n) >= 128
    return IterationSumMatrices(*_iteration_sums(heads, t, adversary))


@dataclass(frozen=True)
class NormEstimate:
    """A spectral-norm value with a certified relative error bound
    (``iterations_used`` is 1: each norm is one direct solve)."""

    value: float
    relative_error_bound: float
    iterations_used: int


def spectral_norms(stack, rel_tol: float = _REL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular values of a (k, r, c) stack of matrices, with their
    certified relative error bounds, from one batched eigensolve.

    Each matrix's smaller Gram matrix G is solved by ``np.linalg.eigh``; the
    value is sqrt(theta) with theta = v^T G v for the top eigenvector v, and
    the bound is ||Gv - theta v|| / theta / 2. An all-zero matrix gets value
    0 and bound 0. Raises ConvergenceError, carrying the first estimate
    whose bound exceeds ``rel_tol``, if any does.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.size == 0:
        raise ValueError("stack must be three-dimensional and non-empty")
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    if a.shape[1] > a.shape[2]:
        a = np.swapaxes(a, 1, 2)
    gram = a @ np.swapaxes(a, 1, 2)
    v = np.linalg.eigh(gram)[1][..., -1]
    w = (gram @ v[..., None])[..., 0]
    theta = np.einsum("ij,ij->i", v, w)
    residual = np.linalg.norm(w - theta[:, None] * v, axis=1)
    nonzero = a.any(axis=(1, 2))
    values = np.where(nonzero, np.sqrt(np.maximum(theta, 0.0)), 0.0)
    # The Gram matrix is symmetric PSD, so the Rayleigh residual bounds the
    # distance from theta to the top eigenvalue; to first order the relative
    # error in sigma is half the relative error in theta.
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.where(nonzero, residual / (2.0 * theta), 0.0)
    missed = np.flatnonzero(~(bounds <= rel_tol))  # a NaN bound misses too
    if missed.size:
        i = missed[0]
        raise ConvergenceError(
            f"spectral norm certificate {bounds[i]:.3g} exceeds rel_tol {rel_tol:.3g}",
            NormEstimate(float(values[i]), float(bounds[i]), 1))
    return values, bounds


def spectral_norm(matrix, rel_tol: float = _REL_TOL) -> NormEstimate:
    """Largest singular value of one matrix, by ``spectral_norms``."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be two-dimensional and non-empty")
    if not np.any(a):
        raise ValueError("matrix is identically zero; the norm estimate would be degenerate")
    values, bounds = spectral_norms(a[None], rel_tol)
    return NormEstimate(value=float(values[0]), relative_error_bound=float(bounds[0]),
                        iterations_used=1)


def norm_2x2(matrix) -> float:
    """Closed-form largest singular value of a 2x2 matrix (test oracle).

    With [[a, b], [c, d]], sigma_max = (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2;
    unlike sqrt(trace/2 + sqrt(trace^2/4 - det^2)) it loses no digits when the
    two singular values coincide.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (2, 2):
        raise ValueError("norm_2x2 requires a 2x2 matrix")
    (a, b), (c, d) = m.tolist()
    return (math.hypot(a + d, b - c) + math.hypot(a - d, b + c)) / 2.0


def _norm_trial_counter(rng, count, start, *, params_dict, adversary, threshold) -> list:
    # the coins build_G(params, adversary, rng) would draw trial after trial,
    # read a chunk of trials at a time. Norms are solved a group of trials
    # at a time, whose three float stacks hold about _CHUNK_COINS entries, so
    # memory does not grow with the block's m * n; a default block (64
    # trials of 32 x 32) is one group. Each trial's norm is the same in any
    # group, and the block's values are summed in trial order, so the sums
    # are those of one solve.
    params = Params(**params_dict)
    n, t, m = params.n, params.t, params.m
    chunk = max(1, _CHUNK_COINS // (m * n * n))
    group = max(1, _CHUNK_COINS // (3 * m * n))
    norms = np.empty((3, count))
    missed = [None, None, None]
    for lo in range(0, count, group):
        size = min(group, count - lo)
        sums = np.empty((3, size, m, n))
        for first in range(0, size, chunk):
            part = min(chunk, size - first)
            heads = coin_bytes(rng, n * n, part * m).reshape(part, m, n, n) >= 128
            sums[:, first:first + part] = _iteration_sums(heads, t, adversary)
        for k, stack in enumerate(sums):
            try:
                norms[k, lo:lo + size] = spectral_norms(stack, _REL_TOL)[0]
            except ConvergenceError as exc:
                missed[k] = missed[k] or exc
    # raised as one solve of the whole block would: the first trial that
    # misses, in the first stack that has one
    for exc in missed:
        if exc is not None:
            raise exc
    g_norm, r_norm, z_norm = norms
    allowance = 10.0 * _REL_TOL * (r_norm + z_norm) + 1e-9
    violated = np.flatnonzero(g_norm > r_norm + z_norm + allowance)
    if violated.size:
        i = violated[0]
        raise SpectralCheckError(
            f"triangle inequality violated: |G|={g_norm[i]} > |R|+|Z|={r_norm[i] + z_norm[i]}"
        )
    half = threshold / 2.0
    return [
        int(np.count_nonzero(g_norm > threshold)),
        int(np.count_nonzero(r_norm > half)),
        int(np.count_nonzero(z_norm > half)),
        float(g_norm.sum()),
        float(r_norm.sum()),
        float(z_norm.sum()),
    ]


@dataclass(frozen=True)
class NormBoundReport:
    """Exceedance rates of the iteration-sum norms against the threshold."""

    params: Params
    trials: int
    seed: int
    threshold: float
    probability_bound: float
    exceedance: VerificationVerdict
    half_threshold_exceedances: dict
    mean_norms: dict
    triangle_checked: bool


def verify_norm_bound(params: Params, trials: int = 1000, seed: int = 0,
                      workers: int = 1) -> NormBoundReport:
    """Sample iteration-sum matrices and check the norm threshold claim.

    The adversary stops each of the first t columns at its minimum, the
    clairvoyant stop against the good direction. Verifies
    Pr(|G| > (6+2eps) sqrt(n(m+n))) against the 2/(m+n) bound,
    reports the unstopped and correction norms against the half threshold
    (the union-bound split), and hard-fails on any triangle-inequality
    violation between the three computed norms. A trial of more than
    ``_MAX_BLOCK_ENTRIES`` coins (m * n * n) is refused before any draw.
    """
    _check_coin_cap(params.m * params.n**2,
                    f"a trial of {params.m} rounds of {params.n} x {params.n} coins")
    thresholds = derive(params)
    threshold = thresholds.norm_threshold
    counter = partial(
        _norm_trial_counter,
        params_dict=asdict(params),
        adversary=StoppingStrategy.omniscient_extreme(direction=-1),
        threshold=threshold,
    )
    tallies = run_blocks(counter, trials, seed, _NORM_TRIAL_BLOCK, workers)
    g_exc, r_exc, z_exc = (int(v) for v in tallies[:3])
    sum_g, sum_r, sum_z = (float(v) for v in tallies[3:])
    bound = 2.0 / (params.m + params.n)
    est = McEstimate.from_counts(g_exc, trials, seed)
    exceedance = verdict_for(
        claim_id="iteration_sum_norm_exceedance",
        empirical=est,
        bound=bound,
        relation="<=",
        details={"threshold": threshold},
    )
    return NormBoundReport(
        params=params,
        trials=trials,
        seed=seed,
        threshold=threshold,
        probability_bound=bound,
        exceedance=exceedance,
        half_threshold_exceedances={
            "full_sums": r_exc,
            "correction_sums": z_exc,
            "half_threshold": threshold / 2.0,
        },
        mean_norms={
            "stopped_sums": sum_g / trials,
            "full_sums": sum_r / trials,
            "correction_sums": sum_z / trials,
        },
        triangle_checked=True,
    )
