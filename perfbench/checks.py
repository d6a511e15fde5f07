"""Correctness checks for benchmark operations.

Each helper returns None when the result passes and a one-line reason when
it fails.  The checks are written against numpy/scipy directly, not against
the package's own KS or closed-form helpers, so a defect in the package
cannot hide itself from the benchmark.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

# KS tolerances have the form c / sqrt(reps).  For a correct sampler the
# one-sample statistic satisfies P(sqrt(n) D > c) <= 2 exp(-2 c^2), which is
# 7.5e-6 at c = 2.5; the two-sample statistic of two size-n samples has the
# same law as the one-sample one at n / 2, hence the sqrt(2) factor.  Both
# hold whatever stream layout produced the draws, so re-keying the streams
# cannot flip a verdict by more than that chance.
KS_C_ONE = 2.5
KS_C_TWO = 2.5 * math.sqrt(2.0)


def ks_tolerance(c: float, reps: int) -> float:
    return c / math.sqrt(reps)


def ks_one_sample(sample, cdf) -> float:
    """sup |F_hat - F| for a continuous F, over the jump points of the ECDF."""
    v = np.sort(np.asarray(sample, dtype=float))
    n = v.size
    f = np.asarray(cdf(v), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def levy_cdf(x):
    """Positive 1/2-stable CDF erfc(sqrt(pi / (4x))), the Poisson/LePage limit."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0.0
    out[pos] = erfc(np.sqrt(math.pi / (4.0 * x[pos])))
    return out


def check_ks(sample, cdf, c: float = KS_C_ONE):
    n = np.size(sample)
    if n == 0 or not np.all(np.isfinite(sample)):
        return "sample is empty or not finite"
    d, tol = ks_one_sample(sample, cdf), ks_tolerance(c, n)
    return None if d <= tol else "KS %.4g > %.4g (n=%d)" % (d, tol, n)


def check_ks_two(a, b, c: float = KS_C_TWO):
    n = min(np.size(a), np.size(b))
    if n == 0 or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return "samples are empty or not finite"
    d, tol = ks_two_sample(a, b), ks_tolerance(c, n)
    return None if d <= tol else "two-sample KS %.4g > %.4g (n=%d)" % (d, tol, n)


def check_cdf_values(f, expected_size: int | None = None):
    """A CDF evaluated on an increasing grid: finite, inside [0, 1], monotone."""
    f = np.asarray(f, dtype=float)
    if expected_size is not None and f.size != expected_size:
        return "expected %d values, got %d" % (expected_size, f.size)
    if f.size == 0 or not np.all(np.isfinite(f)):
        return "values are empty or not finite"
    if f.min() < 0.0 or f.max() > 1.0:
        return "values leave [0, 1]: [%.3g, %.3g]" % (f.min(), f.max())
    if np.any(np.diff(f) < 0.0):
        return "not monotone: largest drop %.3g" % float(-np.min(np.diff(f)))
    return None


def check_close(f, reference, tol: float, what: str):
    f = np.asarray(f, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if f.shape != reference.shape:
        return "%s: shape %s != %s" % (what, f.shape, reference.shape)
    err = float(np.max(np.abs(f - reference)))
    return None if err <= tol else "%s: max error %.3g > %.3g" % (what, err, tol)


def dyadic_levy_tail(gamma: float, x: float) -> float:
    """Levy-measure mass of the merging-family law at gamma above x.

    The atoms sit at 2^l / gamma with mass gamma 2^-l for l >= 1, so the mass
    above x is gamma 2^(1 - l0) with l0 the first level past x.
    """
    l0 = max(1, math.floor(math.log2(gamma * x)) + 1)
    while 2.0 ** l0 / gamma <= x:
        l0 += 1
    return gamma * 2.0 ** (1 - l0)


def check_far_tail(xs, f, gamma: float, lo: float = 0.8, hi: float = 1.25):
    """Far right tail: 1 - F(x) must track the Levy tail of the law.

    For x beyond a few dozen the law's tail equals the Levy-measure tail to
    within ~10% at the query points used here (a single big jump dominates),
    so the ratio must lie in [lo, hi]."""
    bad = check_cdf_values(f)
    if bad:
        return bad
    for x, v in zip(xs, f):
        ratio = (1.0 - float(v)) / dyadic_levy_tail(gamma, float(x))
        if not lo <= ratio <= hi:
            return "tail ratio %.3g at x=%.4g outside [%.2g, %.2g]" % (ratio, x, lo, hi)
    return None
