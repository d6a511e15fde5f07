"""The scalar-or-array calling convention, and the working-set, work-bound,
count, real and overflow rules shared by the public functions.

The working-set rule: every array kernel (sampling, inversion, KS) works
in pieces whose temporaries hold at most _CHUNK doubles (256 KiB, within a
core's L2 cache), whatever the input size, so the memory a call needs does
not grow with its work.  Each sampler kernel draws a block into one such
buffer, a tile at a time (sampling._open01), maps it in place through the
tail model's inverse and signs it in place, a piece of sign bits at a time
(sampling._signed).  The matrix products of the inversion follow it too:
each does at most _CHUNK complex multiply-adds (see charfn._bulk_phase_sums),
below the size from which OpenBLAS hands a product to a second thread; on a
busy host such a hand-off can stall every product of a process about 100x.
An experiment holds only the batches a later statistic reads, each released
before the next phase draws and sorted in place for its KS, whose steps hold
_CHUNK doubles in all; a quadrature rule is a constant (_GL12), not a solve.

The work-bound rule: a call prices work that has no natural limit
before it draws or integrates, and _check_budget alone refuses it.

The count rule: every integer parameter (n, reps, k, p, n_terms, q, a
seed or stream id) passes _check_count at the public boundary, which alone
decides integrality: the call then uses the int it returns, so no count is
truncated or used as a float.

The real rule: every real parameter (a tolerance, an exponent, a scale, a
bound, an inverse map's argument) passes _check_real, which alone decides its
interval and refuses NaN, an infinity past an open end, a non-number or an
array where a scalar is due by name: the call then uses the float it returns.
Only the elementwise arguments (array=True) take an array.

The overflow rule: a result that can pass float64 from finite inputs (a draw,
a sum, a quantile, a tail mass or moment, a truncation point) is formed under
_quiet, with no numpy warning, from parts that pass float64 only where it does
(x**2 T(x) as a power of x where T(x) alone leaves the range, a geometric sum
from its largest term), and passes _check_finite, which alone raises
OverflowError, naming what overflowed and alpha.
"""

import functools
import math
import sys

import numpy as np

_CHUNK = 1 << 15  # doubles per kernel temporary; complex multiply-adds per product

# the 12-node Gauss-Legendre rule (nodes, weights) on [-1, 1] of the inversion's
# panels and the tail integrals (Golub & Welsch 1969): the upper half, mirrored
# odd and even, is numpy.polynomial.legendre.leggauss(12) bit for bit
_GL12 = (np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                   0.7699026741943047, 0.9041172563704748, 0.9815606342467192]),
         np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                   0.16007832854334642, 0.10693932599531907, 0.04717533638651141]))
_GL12 = tuple(np.concatenate((s * v[::-1], v)) for s, v in zip((-1.0, 1.0), _GL12))


# the errstate a result is formed under before _check_finite sees it (per thread)
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")


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


def _check_finite(value, what, alpha):
    """value, or OverflowError "at alpha = A <what> overflows float64 (max M)"
    if any of it is inf or NaN."""
    if not np.isfinite(value).all():
        raise OverflowError("at alpha = %s %s overflows float64 (max %.3g)"
                            % (_shortest(alpha), what, sys.float_info.max))
    return value


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


def _inside(v, lo, hi, ends):  # elementwise on an array
    return (lo < v if ends[0] == "(" else lo <= v) & (v < hi if ends[1] == ")" else v <= hi)


def _shortest(v):  # v in its shortest round-trip digits, 2 for 2.0
    return repr(float(v)).removesuffix(".0")


def _array_or_none(value):  # None for a ragged sequence, which numpy refuses unnamed
    try:
        return np.asarray(value)
    except ValueError:
        return None


def _check_real(value, name, lo=-math.inf, hi=math.inf, ends="()", array=False):
    """float(value) for a real in lo..hi, open or closed at each end as ends
    says ("(]" holds hi, not lo), a numpy scalar or 0-d array included; with
    array set, also a float array of them (value itself if it is one).  Else
    ValueError "<name> must lie in (lo, hi], got V", V the first value outside
    (NaN is) in shortest digits, a non-number's repr, "a ragged sequence" or,
    where a scalar is due, "an array of shape S"."""
    if isinstance(value, (int, float, np.integer, np.floating)):
        big = isinstance(value, int) and abs(value) > sys.float_info.max  # past float64
        x = (math.inf if value > 0 else -math.inf) if big else float(value)
        if _inside(x, lo, hi, ends):
            return x
        shown = _shortest(x)
    elif (a := _array_or_none(value)) is None:
        shown = "a ragged sequence"
    elif (array or a.ndim == 0) and a.dtype.kind in "iuf":
        x = np.asarray(a, dtype=float)
        if not x.size or _inside(x.min(), lo, hi, ends) and _inside(x.max(), lo, hi, ends):
            return x if array else float(x)
        shown = _shortest(x.flat[np.argmin(_inside(x, lo, hi, ends))])
    else:
        shown = "an array of shape %s" % (a.shape,) if a.ndim else repr(value)
    raise ValueError("%s must lie in %s%s, %s%s, got %s" % (
        name, ends[0], _shortest(lo), _shortest(hi), ends[1], shown))


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
