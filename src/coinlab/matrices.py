"""Stopped-column coin matrices and spectral-norm concentration checks.

A round's coin matrix holds each processor's stream as a column; the
adversary may truncate some columns, which splits the matrix into an
unstopped +/-1 matrix plus a correction supported on the truncated
suffixes. Summing columns across rounds gives the iteration-sum matrix
whose operator norm the concentration claim controls. ``build_G`` and the
norm experiment's block counter share one round-sum routine over the +/-1
steps of ``walks.coin_steps``, drawn one trial after another from one
generator; the counter draws a chunk of trials at a time and solves their
norms before it draws the next, each stack on its columns that can be
nonzero. Norms come from a stack of Gram matrices: the top eigenvalues from
one batched ``eigvalsh``, the top eigenvectors from two batched shifted
solves, each norm certified by its vector's residual and its distance from
the top eigenvalue, and any that misses solved again by ``eigh``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .bounds import Params, check, derive
from .mc import McEstimate, _check_coin_cap, run_blocks, verdict_for
from .walks import (_CHUNK_COINS, StoppingStrategy, _sum_dtype, apply_stop, coin_steps,
                    substream)

__all__ = [
    "IterationSumMatrices",
    "NormEstimate",
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


def _iteration_sums(steps: np.ndarray, t: int, adversary: StoppingStrategy):
    """Stopped, full and correction column sums, each (..., m, n), of the +/-1
    coin matrices ``steps`` (..., m, n, n), whose first t columns the
    adversary stops and whose last t are the bad processors, zero in all
    three: a stopped column's correction is its value minus its sum."""
    n = steps.shape[-1]
    full = steps.sum(axis=-2, dtype=_sum_dtype(n))
    full[..., n - t:] = 0
    sums = np.cumsum(np.swapaxes(steps[..., :t], -1, -2), axis=-1)
    correction = np.zeros_like(full)
    correction[..., :t] = apply_stop(sums, adversary)[1] - sums[..., -1]
    return full + correction, full, correction


def _nonzero_columns(sums, t: int):
    """The stopped, full and correction sums (..., m, n) of
    ``_iteration_sums`` cut to the columns that can be nonzero: the n - t
    good ones for the first two, the t stopped ones for the correction (one
    zero column when t = 0). Zero columns leave the singular values as they
    are, and the norm solve is cheaper without them."""
    stopped, full, correction = sums
    n = stopped.shape[-1]
    return stopped[..., :n - t], full[..., :n - t], correction[..., :max(t, 1)]


def build_G(params: Params, adversary: StoppingStrategy, seed) -> IterationSumMatrices:
    """Build the m x n iteration-sum matrices for ``params`` from m rounds
    drawn in turn from ``seed``, a Generator, or an int for the generator
    ``substream(seed, 0)``: trial 0 of ``spectral --seed seed``. The
    adversary truncates the first t columns each round; the last t columns
    are the bad processors, zeroed in the sums (2t < n keeps the two sets
    apart).
    """
    n, t, m = params.n, params.t, params.m
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), 0)
    steps = coin_steps(rng, n * n, m)
    return IterationSumMatrices(*_iteration_sums(steps.reshape(m, n, n), t, adversary))


@dataclass(frozen=True)
class NormEstimate:
    """A spectral-norm value with a certified relative error bound
    (``iterations_used`` is 1: each norm is one direct solve)."""

    value: float
    relative_error_bound: float
    iterations_used: int


def _rayleigh(unit, v, top=1.0):
    # theta = v^T G v for v normalised, on G scaled so that ``top`` is its
    # top eigenvalue, and the bound on sigma = sqrt(theta). G is symmetric
    # PSD, so the residual ||Gv - theta v|| bounds the distance from theta
    # to some eigenvalue and |theta - top| ties theta to the top one,
    # whichever vector v is; to first order sigma's relative error is half
    # theta's.
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    w = (unit @ v[..., None])[..., 0]
    theta = np.einsum("ij,ij->i", v, w)
    residual = np.linalg.norm(w - theta[:, None] * v, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return theta, (residual + np.abs(theta - top)) / (2.0 * theta)


def spectral_norms(stack, rel_tol: float = _REL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular values of a (k, r, c) stack of matrices, with their
    certified relative error bounds.

    Each matrix's smaller Gram matrix G gets its top eigenvalue lambda from
    ``np.linalg.eigvalsh`` and its top eigenvector v from two batched
    ``np.linalg.solve`` steps on G - lambda (1 + 2^-30) I from a fixed
    start. The value is sqrt(theta) with theta = v^T G v for unit v, and
    the bound is (||Gv - theta v|| + |theta - lambda|) / theta / 2, so a v
    that misses the top eigenvector misses its certificate instead of
    reading low. A matrix whose bound exceeds ``rel_tol`` is solved again
    by ``np.linalg.eigh``. Each matrix's value and bound depend on it
    alone. An all-zero matrix gets value 0 and bound 0. Raises
    ConvergenceError, carrying the first estimate whose bound still exceeds
    ``rel_tol``, if any does.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.size == 0:
        raise ValueError("stack must be three-dimensional and non-empty")
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    if a.shape[1] > a.shape[2]:
        a = np.swapaxes(a, 1, 2)
    gram = a @ np.swapaxes(a, 1, 2)
    top = np.linalg.eigvalsh(gram)[:, -1]
    # G / lambda: the shift is relative, so a uniformly tiny or huge G is
    # solved as a unit one, and no square in the certificate overflows
    scale = np.where(top > 0, top, 1.0)
    unit = gram / scale[:, None, None]
    # each solve grows the top direction by about 2^30 against the rest;
    # after one, certificates at the defaults reached 5e-6, past _REL_TOL
    size = unit.shape[-1]
    v = np.ones((len(unit), size, 1))
    shifted = unit - (1.0 + 2.0**-30) * np.eye(size)
    for _ in range(2):
        v = np.linalg.solve(shifted, v)
    theta, bounds = _rayleigh(unit, v[..., 0])
    nonzero = a.any(axis=(1, 2))
    bounds[~nonzero] = 0.0
    missed = np.flatnonzero(~(bounds <= rel_tol))  # a NaN bound misses too
    if missed.size:
        eigenvalues, vectors = np.linalg.eigh(unit[missed])
        theta[missed], bounds[missed] = _rayleigh(unit[missed], vectors[..., -1],
                                                  eigenvalues[:, -1])
        missed = missed[~(bounds[missed] <= rel_tol)]
    values = np.sqrt(np.maximum(scale * theta, 0.0))  # 0 for an all-zero matrix
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
    # drawn and solved a chunk of trials at a time: a chunk's coins, and its
    # three stacks of sums, each hold at most about _CHUNK_COINS entries, so
    # memory does not grow with the block's m * n. Each trial's norm is the
    # same in any chunk, and the block's values are summed in trial order, so
    # the sums are those of one solve.
    params = Params(**params_dict)
    n, t, m = params.n, params.t, params.m
    chunk = max(1, _CHUNK_COINS // (m * n * max(n, 3)))
    norms = np.empty((3, count))
    missed = {}
    for lo in range(0, count, chunk):
        size = min(chunk, count - lo)
        steps = coin_steps(rng, n * n, size * m).reshape(size, m, n, n)
        for k, stack in enumerate(_nonzero_columns(_iteration_sums(steps, t, adversary), t)):
            try:
                norms[k, lo:lo + size] = spectral_norms(stack, _REL_TOL)[0]
            except ConvergenceError as exc:
                missed.setdefault(k, exc)
    # raised as one solve of the whole block would: the first trial that
    # misses, in the first stack that has one
    if missed:
        raise missed[min(missed)]
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


def verify_norm_bound(params: Params, trials: int = 1000, seed: int = 0,
                      workers: int = 1) -> list[dict]:
    """Sample iteration-sum matrices and check the norm threshold claim.

    The adversary stops each of the first t columns at its minimum, the
    clairvoyant stop against the good direction. Verifies
    Pr(|G| > (6+2eps) sqrt(n(m+n))) against the 2/(m+n) bound,
    reports the unstopped and correction norms against the half threshold
    (the union-bound split), and hard-fails on any triangle-inequality
    violation between the three computed norms. A last row checks the
    batched solve against ``norm_2x2`` on 1000 random 2x2 integer matrices.
    A trial of more than ``_MAX_BLOCK_ENTRIES`` coins (m * n * n) is refused
    before any draw.
    """
    _check_coin_cap(params.m * params.n**2,
                    f"a trial of {params.m} rounds of {params.n} x {params.n} coins")
    threshold = derive(params).norm_threshold
    counter = partial(
        _norm_trial_counter,
        params_dict=asdict(params),
        adversary=StoppingStrategy.omniscient_extreme(direction=-1),
        threshold=threshold,
    )
    tallies = run_blocks(counter, trials, seed, _NORM_TRIAL_BLOCK, workers)
    g_exc, r_exc, z_exc = (int(v) for v in tallies[:3])
    sum_g, sum_r, sum_z = (float(v) for v in tallies[3:])
    rows = [
        verdict_for(
            claim_id="iteration_sum_norm_exceedance",
            empirical=McEstimate.from_counts(g_exc, trials, seed),
            bound=2.0 / (params.m + params.n),
            relation="<=",
            details={"threshold": threshold},
        ),
        {
            "claim_id": "norm_decomposition_summary",
            "kind": "info",
            "threshold": threshold,
            "half_threshold_exceedances": {
                "full_sums": r_exc,
                "correction_sums": z_exc,
                "half_threshold": threshold / 2.0,
            },
            "mean_norms": {
                "stopped_sums": sum_g / trials,
                "full_sums": sum_r / trials,
                "correction_sums": sum_z / trials,
            },
            "triangle_checked": True,
        },
    ]
    rng = substream(seed, 0xFACE)
    checked = 1000
    matrices = rng.integers(-9, 10, size=(checked, 2, 2))
    matrices[~matrices.any(axis=(1, 2)), 0, 0] = 1
    expected = np.array([norm_2x2(matrix) for matrix in matrices])
    worst = float(np.max(np.abs(spectral_norms(matrices)[0] - expected) / expected))
    rows.append(check("power_iteration_matches_2x2_oracle", worst <= 1e-6,
                      matrices_checked=checked, worst_relative_difference=worst,
                      tolerance=1e-6))
    return rows
