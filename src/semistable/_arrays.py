"""The scalar-or-array calling convention, and the working-set, work-bound
and count rules shared by the public functions.

The working-set rule: every array kernel (sampling, inversion, KS) works
in pieces whose temporaries hold at most _CHUNK doubles (256 KiB, within a
core's L2 cache), whatever the input size, so the memory a call needs does
not grow with its work.  Each sampler kernel draws a block into one such
buffer through one fill (sampling._open01), maps it in place through the
tail model's inverse (TailModel._quantile_formula) and signs it in place
(sampling._signed).  The matrix products of the inversion follow it too:
each does at most _CHUNK complex multiply-adds (see charfn._bulk_phase_sums),
below the size from which OpenBLAS hands a product to a second thread; on a
busy host such a hand-off can stall every product of a process about 100x.

The work-bound rule: a call prices work that has no natural limit
before it draws or integrates, and _check_budget alone refuses it.

The count rule: every integer parameter (n, reps, k, p, n_terms, q, a
seed or stream id) passes _check_count at the public boundary, which alone
decides integrality: the call then uses the int it returns, so no count is
truncated or used as a float.
"""

import math
import sys

import numpy as np

_CHUNK = 1 << 15  # doubles per kernel temporary; complex multiply-adds per product


class ResourceLimitError(RuntimeError):
    """A call would pass a work bound (_check_budget); the CLI exits 4."""


def _printed(x, near):
    """x in %.10g, with more digits (up to 17) where that prints it as near;
    an int past float64 prints as inf."""
    x, near = (math.inf if v > sys.float_info.max else v for v in (x, near))
    d = next((d for d in range(10, 17) if "%.*g" % (d, x) != "%.*g" % (d, near)), 17)
    return "%.*g" % (d, x)


def _check_budget(need, budget, what):
    """ResourceLimitError "would need N <what>, over the budget of B" if need
    passes budget or is NaN (callers check before they draw or integrate);
    N and B print in %.10g, with more digits where that prints them alike."""
    if not need <= budget:
        raise ResourceLimitError("would need %s %s, over the budget of %s"
                                 % (_printed(need, budget), what, _printed(budget, need)))


def _check_count(value, name, least=None, most=None):
    """int(value) for an int, numpy integer or integral float in [least, most]
    (most comes with least); else ValueError "<name> must be an integer >=
    least and <= most, got V", V exact up to 17 digits and beyond as
    _check_budget prints N against the bound it passes."""
    real = isinstance(value, (float, np.floating))
    if isinstance(value, (int, np.integer)) or real and float(value).is_integer():
        n = int(value)
        if (least is None or n >= least) and (most is None or n <= most):
            return n
        shown = "%d" % n if abs(n) < 10 ** 17 else _printed(n, most if n > 0 else least)
    else:  # a fraction, NaN or an infinity in full, anything else as its repr
        shown = repr(float(value) if real else value)
    rule = "" if least is None else " >= %d" % least
    rule += "" if most is None else " and <= %d" % most
    raise ValueError("%s must be an integer%s, got %s" % (name, rule, shown))


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
