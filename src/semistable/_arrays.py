"""The scalar-or-array calling convention, and the working-set and
work-bound rules shared by the public functions.

The working-set rule: every array kernel (sampling, inversion, KS) works
in pieces whose temporaries hold at most _CHUNK doubles (256 KiB, within a
core's L2 cache), whatever the input size, so the memory a call needs does
not grow with its work.  Each sampler kernel draws a block into one such
buffer through one fill (sampling._open01) and maps it with the tail
model's inverse.  The matrix products of the inversion follow it
too: each does at most _CHUNK complex multiply-adds (see
charfn._bulk_phase_sums), below the size from which OpenBLAS hands a
product to a second thread; on a busy host such a hand-off can stall every
product of a process about 100x.

The work-bound rule: a call prices work that has no natural limit
before it draws or integrates, and _check_budget alone refuses it.
"""

import math
import sys

import numpy as np

_CHUNK = 1 << 15  # doubles per kernel temporary; complex multiply-adds per product


class ResourceLimitError(RuntimeError):
    """A call would pass a work bound (_check_budget); the CLI exits 4."""


def _check_budget(need, budget, what):
    """ResourceLimitError "would need N <what>, over the budget of B" if need
    passes budget or is NaN (callers check before they draw or integrate);
    N and B print in %.10g, with more digits where that prints them alike."""
    if not need <= budget:
        need = math.inf if need > sys.float_info.max else need  # an int past float64
        d = next((d for d in range(10, 17) if "%.*g" % (d, need) != "%.*g" % (d, budget)), 17)
        raise ResourceLimitError("would need %.*g %s, over the budget of %.*g"
                                 % (d, need, what, d, budget))


def elementwise(fn, x, cast=float, cdf_from=None):
    """fn over x as a flat float array, returned in the shape of x.

    A scalar x (or 0-d array) gives cast of the single value.  With cdf_from
    set, fn is a distribution function supported on (cdf_from, inf]: NaN
    raises ValueError, x <= cdf_from gives 0 and x = +inf gives 1, and fn
    sees only the points in between.
    """
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    if cdf_from is None:
        out = fn(flat)
    else:
        if np.isnan(flat).any():
            raise ValueError("a CDF argument must not be NaN")
        out = (flat == np.inf).astype(float)
        inside = (flat > cdf_from) & (flat < np.inf)
        out[inside] = fn(flat[inside])
    return cast(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)
