"""coinlab: a verification lab for adversarially stopped coinflip sums.

Exact combinatorics and Monte Carlo experiments for the deviation behavior
of summed coin streams under adversarial stopping, a one-round global-coin
simulator, and spectral-norm concentration checks for iteration-sum
matrices.
"""
import os

# One BLAS thread per calling thread: the lab runs in parallel with
# threads (--workers), each making its own BLAS calls, and a cold
# multi-threaded OpenBLAS can stall its first eigh call for about a
# second. This only takes effect if NumPy is not loaded yet, and a value
# the caller set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.2.2"
