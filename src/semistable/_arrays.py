"""The scalar-or-array calling convention shared by the public functions."""

import numpy as np


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
