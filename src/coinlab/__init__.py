"""coinlab: a verification lab for adversarially stopped coinflip sums.

Exact combinatorics and Monte Carlo experiments for the deviation behavior
of summed coin streams under adversarial stopping, a one-round global-coin
simulator, and spectral-norm concentration checks for iteration-sum
matrices.
"""
import os

# One BLAS thread per process: the lab runs in parallel with processes
# (--workers), and a cold multi-threaded OpenBLAS can stall its first
# eigh call for about a second. This only takes effect if NumPy is not
# loaded yet, and a value the caller set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .bounds import ClaimReport, DerivedThresholds, Params, check_claims, derive, lemma52_part1_bound
from .exact import (
    chernoff_tail,
    prob_max_ge_enumeration,
    prob_max_ge_reflection,
    prob_sum_eq,
    prob_sum_ge,
)
from .iteration import (
    AgreementResult,
    IterationConfig,
    IterationRecord,
    Rounds,
    run_agreement,
    run_iteration,
    run_rounds,
)
from .matrices import (
    ConvergenceError,
    IterationSumMatrices,
    NormBoundReport,
    NormEstimate,
    SpectralCheckError,
    StoppedCoinMatrix,
    build_G,
    build_H,
    norm_2x2,
    spectral_norm,
    spectral_norms,
    verify_norm_bound,
)
from .mc import (
    Lemma52Part2Report,
    McEstimate,
    VerificationVerdict,
    clopper_pearson,
    verify_fact3_mc,
    verify_lemma52_part1,
    verify_lemma52_part2,
    verify_lemma71,
)
from .walks import StoppedStream, StoppingStrategy, WalkTrace, apply_stop, draw_steps, generate_walk

__version__ = "0.2.1"
