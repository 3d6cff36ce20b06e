"""Numerical laboratory for time-homogeneous Ito SDEs with rough coefficients.

Subpackages by concern:

- :mod:`sdelab.expr` -- closed coefficient expression language (parse,
  differentiate, evaluate)
- :mod:`sdelab.calculus` -- coefficient sets, drift decomposition, generators,
  diffusion square roots, quadrature
- :mod:`sdelab.density` -- invariant-density solves on exhausting boxes
- :mod:`sdelab.criteria` -- sampled-grid sufficient-condition checks
- :mod:`sdelab.montecarlo` -- Euler-Maruyama ensembles and estimators
- :mod:`sdelab.cli` -- scenario runner and report writer

Importing sdelab tunes the C allocator once.  Where the C library is glibc,
it calls ``mallopt`` to raise the mmap threshold to 32 MiB (the largest value
glibc takes on 64-bit) and the heap trim threshold to 64 MiB.  At glibc's
defaults every block of 128 KiB or more is a fresh ``mmap``, unmapped again
on ``free``, and every column of a 2^16-node quadrature rule is 512 KiB, so
each numpy temporary of the bump residuals, the criterion grids and the noise
chunks would touch fresh pages: a repeated invariance check of ``ou_2d``'s
density would take about 22,000 minor page faults.  With the thresholds
raised, freed buffers stay in the heap and the next one reuses them, and the
same check takes at most a few.  The setting is process-wide, so it holds for
every library in the process, and glibc-only: on any other C library import
does nothing.  Freed memory below the trim threshold stays with the process.
No arithmetic and no output byte depends on it.
"""

import ctypes
import os

__version__ = "0.1.0"

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory(libc) -> bool:
    """Raise the mmap and trim thresholds through ``libc.mallopt``; true when
    both settings applied.  A handle without ``mallopt``, or whose ``mallopt``
    refuses a setting (returns 0), gives false and raises nothing."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = [mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20)]
    return all(applied)


def _libc_is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr (Windows), or no such name (macOS, musl)
        return False


if _libc_is_glibc():
    _keep_freed_memory(ctypes.CDLL(None))
