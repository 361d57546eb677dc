"""coinlab: a verification lab for adversarially stopped coinflip sums.

Exact combinatorics and Monte Carlo experiments for the deviation behavior
of summed coin streams under adversarial stopping, a one-round global-coin
simulator, and spectral-norm concentration checks for iteration-sum
matrices.
"""
import ctypes
import os

# One BLAS thread per calling thread: the lab runs in parallel with
# threads (--workers), each making its own BLAS calls, and a cold
# multi-threaded OpenBLAS can stall its first eigensolve for about a
# second. This only takes effect if NumPy is not loaded yet, and a value
# the caller set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name


def _keep_freed_heap() -> None:
    # glibc gives the kernel back every freed array of M_MMAP_THRESHOLD
    # bytes or more, and a freed heap top past M_TRIM_THRESHOLD (both start
    # at 128 KB and only grow when a large mmapped block is freed). A Monte
    # Carlo block's few-hundred-KB temporaries, such as a chunk's raw PCG64
    # words and take()'s intp indices, then land on fresh pages block after
    # block: one streams pass (fact3, lemma52-1, lemma52-2, lemma71) took
    # 16,500 minor page faults, against 500 while importing SciPy (no longer
    # a dependency) had raised both. Fixed thresholds keep such arrays on
    # reused pages; set at import, they hold for every engine call, through
    # the CLI or not.
    # Nothing is done without glibc, whose mallopt codes these are.
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

__version__ = "0.2.3"
