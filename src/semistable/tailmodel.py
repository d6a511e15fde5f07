"""Heavy-tail models T(x) = c * x**(-alpha) * psi(log_q x) with log-periodic psi.

A TailModel describes a positive random variable through its upper tail
T(x) = P(X > x) for x >= x0 (right-continuous convention).  The same
formula, read on all of (0, inf), doubles as the tail of a Levy/Poisson
intensity measure; the ``intensity_*`` functions expose that reading.
Two-sided symmetric variables are handled by sign-randomizing a one-sided
model at sampling time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._arrays import _GL12, _check_count, _check_finite, _check_real, _quiet, _shortest, elementwise

__all__ = [
    "TailModel",
    "make_petersburg",
    "make_pareto",
    "tail_eval",
    "tail_quantile",
    "intensity_tail",
    "intensity_quantile",
    "gaussian_criterion_ratio",
    "tail_first_moment",
    "model_to_json",
    "model_from_json",
]

_PSI_KINDS = ("const", "petersburg", "grid")
_MIN_GRID = 64


@dataclass(frozen=True)
class TailModel:
    """Tail function T(x) = c * x**(-alpha) * psi(log_q x), nonincreasing on [x0, inf).

    psi is periodic with period 1/alpha and is one of:
      - "const": psi == 1,
      - "petersburg": psi(u) = 2**frac(u) (requires alpha == 1, q == 2),
      - "grid": m >= 64 samples v[j] over one period, linear interpolation,
        wraparound; T is nonincreasing iff m (v[j+1] - v[j]) <= ln(q) v[j] on
        every cell j (v[m] = v[0]), which the constructor checks.

    x0 >= 0 is the lower support bound; T(x0) is the total mass above x0
    (it need not be 1, samplers renormalize), kept as _mass (0.0 at x0 = 0).
    """

    alpha: float
    q: int
    c: float
    x0: float
    psi_kind: str = "const"
    psi_values: tuple = ()

    def __post_init__(self):
        for name, ends in (("alpha", "()"), ("c", "()"), ("x0", "[)")):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, 0.0, ends=ends))
        object.__setattr__(self, "q", _check_count(self.q, "q", 2))
        if self.psi_kind not in _PSI_KINDS:
            raise ValueError("unknown psi kind %r" % (self.psi_kind,))
        if self.psi_kind == "petersburg" and not (self.alpha == 1.0 and self.q == 2):
            raise ValueError("petersburg psi requires alpha = 1, q = 2")
        if self.psi_kind == "grid":
            vals = np.asarray(_check_real(self.psi_values, "psi", 0.0, array=True))
            if vals.ndim != 1 or vals.size < _MIN_GRID:
                raise ValueError("grid psi needs >= %d samples over one period" % _MIN_GRID)
            # on cell j, d log T / du = psi'/psi - alpha ln q, psi' = alpha m (v[j+1] - v[j])
            rising = vals.size * np.diff(vals, append=vals[0]) > math.log(self.q) * vals
            if rising.any():
                raise ValueError("tail is not nonincreasing: psi grid cell j = %d has "
                                 "m (v[j+1] - v[j]) > ln(q) v[j]" % np.argmax(rising))
            object.__setattr__(self, "psi_values", tuple(float(v) for v in vals))
            # v[0], ..., v[m-1], v[0] once, for _psi: cell j runs from ring[j] to ring[j + 1]
            object.__setattr__(self, "_ring", np.append(vals, vals[0]))
        else:
            object.__setattr__(self, "psi_values", ())
        with _quiet():  # T(x0) (0.0 at x0 = 0), evaluated once and kept; an overflow is refused
            object.__setattr__(self, "_mass", self.x0 and float(self._tail_formula(self.x0)))
            if self.x0 > 0.0 and not 0.0 < self._mass < math.inf:
                raise ValueError("x0 must leave a finite positive mass T(x0)")

    # -- psi and tail formula (intensity reading, any x > 0) ---------------

    def _psi(self, u):
        """Grid psi evaluated at u = log_q x; periodic with period 1/alpha."""
        ring = self._ring
        m = ring.size - 1
        # position within the period, in grid units
        w = np.asarray(u, dtype=float) * self.alpha
        w = (w - np.floor(w)) * m
        j = np.minimum(w.astype(int), m - 1)
        frac = w - j
        return ring[j] * (1.0 - frac) + ring[j + 1] * frac

    def _tail_formula(self, x, k=0):
        """x**k T(x), k = 0, 1 or 2, on (0, inf] with no x0 restriction; 0 at x = inf.

        T(x) = c x**(-alpha) psi, psi read at log_q x (log2 x at q = 2;
        petersburg: the exact steps c 2**(1 - e), x = m 2**e, so psi = 2m),
        and x**k T(x) = x**(k - 1) (x T(x)).  Where T(x) alone leaves float64's
        normal range (inf near 0, 0 or subnormal far out) it is the power
        c x**(k - alpha) psi instead, and where that leaves it too but the
        value does not, (c psi h) h, h = x**((k - alpha)/2), so a value in
        range never passes through an infinite or a lost part.  Callers hold
        _quiet: a value past float64 is theirs to refuse.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0.0):
            raise ValueError("tail formula needs x > 0")
        top = x == math.inf
        if top.any():  # the formulas below see x = 1 there
            x = np.where(top, 1.0, x)
        if self.psi_kind == "petersburg":
            m, e = np.frexp(x)
            t, psi = np.ldexp(self.c, 1 - e), 2.0 * m
        else:
            psi = (1.0 if self.psi_kind == "const" else
                   self._psi(np.log2(x) if self.q == 2 else np.log(x) / math.log(self.q)))
            t = self.c * x ** (-self.alpha) * psi
        out = t if k == 0 else x ** (k - 1.0) * (x * t)
        # the steps are exact; least and greatest T, cheaper than a mask, spot one out of range
        if (k or self.psi_kind != "petersburg") and not (
                np.minimum.reduce(t, None, initial=math.inf) >= sys.float_info.min
                and np.maximum.reduce(t, None, initial=0.0) < math.inf):
            off = (t < sys.float_info.min) | (t == math.inf)
            h = x ** (0.5 * (k - self.alpha))
            power, halves = self.c * x ** (k - self.alpha) * psi, self.c * psi * h * h
            lost = (power < sys.float_info.min) | (power == math.inf)
            good = (halves >= sys.float_info.min) & (halves < math.inf)
            out = np.where(off, np.where(lost & good, halves, power), out)
        return np.where(top, 0.0, out) if top.any() else out

    def _quantile_formula(self, u, out=None, strict=False):
        """inf{x > 0 : T(x) <= u} on the full intensity domain, for u > 0;
        strict gives inf{x > 0 : T(x) < u}, one atom higher at a petersburg
        step u = c 2^-k (const and grid tails ignore it).  The const and
        petersburg formulas write into out (which may be u) when given; use
        the returned array."""
        u = np.asarray(u, dtype=float)
        if self.psi_kind == "petersburg":  # 2^k, k least with u 2^k >= c (> c if strict)
            (m, e), (mc, ec) = np.frexp(u, out=(out, np.empty_like(u, np.intc))), math.frexp(self.c)
            b = (np.less_equal if strict else np.less)(m, mc, out=out)  # 2^(ec - e + b)
            return np.ldexp(np.add(b, 1.0, out=out), np.subtract(ec, e, out=e), out=out)
        if self.psi_kind == "const":
            x = np.divide(self.c, u, out=out)
            x **= 1.0 / self.alpha
            return x
        return elementwise(self._quantile_grid, u)

    def _quantile(self, u, out=None, strict=False):
        """inf{x >= x0 : T(x) <= u} for an array u in (0, T(x0)], unchecked;
        out and strict as in _quantile_formula."""
        x = self._quantile_formula(u, out, strict)
        return np.maximum(x, self.x0, out=x)

    def _quantile_grid(self, u):
        """Grid-psi quantiles: one bisection over all points, each inside its block.

        The period block [r0 rho^(j-1), r0 rho^j], rho = q^(1/alpha), has
        tail ratio exactly q, so j = ceil(log_q(T(r0)/u)) brackets the
        quantile; a point the rounded logarithm puts one block off is moved
        back, so T(hi) <= u < T(lo) holds from the start.  Each point stops
        once hi - lo <= 1e-12 hi.  An edge past float64's max is inf (rho
        itself is, at alpha below ln(q)/709), and so is the quantile of a
        point whose block it bounds, unless T(max) <= u: that block is cut at
        the max and bisected in log x, at the geometric mean of its ends.
        """
        r0 = self.x0 if self.x0 > 0.0 else 1.0
        t0 = float(self._tail_formula(r0))
        with _quiet():
            rho = float(np.float64(self.q) ** (1.0 / self.alpha))  # inf past float64
        log_rho, log_max = math.log(rho), math.log(sys.float_info.max)

        def edge(j):
            # r0 * rho**k once per distinct block index k, in logs where
            # rho**k alone would leave the float range: inf past its max, and
            # below its least positive value that value, where T is defined
            ks, where = np.unique(j, return_inverse=True)
            return np.maximum(np.array([
                r0 * rho ** int(k) if not k or abs(k) * log_rho < 700.0
                else math.exp(a) if (a := math.log(r0) + k * log_rho) <= log_max
                else math.inf for k in ks])[where], math.ulp(0.0))

        j = np.ceil((math.log(t0) - np.log(u)) / math.log(self.q))
        lo, hi = edge(j - 1), edge(j)
        shift = (self._tail_formula(hi) > u).astype(int) - (self._tail_formula(lo) <= u)
        if shift.any():
            j += shift
            lo, hi = edge(j - 1), edge(j)
        far = np.isinf(hi) & np.isfinite(lo)
        if far.any():
            far &= self._tail_formula(sys.float_info.max) <= u
            hi[far] = sys.float_info.max
        idx, bent = np.flatnonzero(hi < math.inf), far.any()
        for _ in range(200):
            if idx.size == 0:
                break
            a, b = lo[idx], hi[idx]
            mid = 0.5 * (a + b)
            if bent:
                mid = np.where(far[idx], np.sqrt(a) * np.sqrt(b), mid)
            below = self._tail_formula(mid) <= u[idx]
            b = np.where(below, mid, b)
            a = np.where(below, a, mid)
            lo[idx], hi[idx] = a, b
            idx = idx[b - a > 1e-12 * b]
        return hi


# -- constructors ----------------------------------------------------------


def make_petersburg(x0: float = 2.0) -> TailModel:
    """Exact St. Petersburg tail T(x) = 2**(-floor(log2 x)).

    With the default x0 = 2, T(x0) = 0.5 is the mass above the smallest
    atom.  x0 = 1 gives the unit-total-mass version (T(1) = 1) whose
    renormalized sampler reproduces the full winnings distribution.
    """
    return TailModel(alpha=1.0, q=2, c=1.0, x0=x0, psi_kind="petersburg")


def make_pareto(alpha: float, c: float = 1.0, x0: float | None = None) -> TailModel:
    """Pure power tail T(x) = c * x**(-alpha) (psi == 1).

    x0 defaults to c**(1/alpha) so that T(x0) = 1 (unit total mass).
    """
    if x0 is None:  # c and alpha are checked before they make it
        c, alpha = _check_real(c, "c", 0.0), _check_real(alpha, "alpha", 0.0)
        with _quiet():
            x0 = float(_check_finite(np.float64(c) ** (1.0 / alpha),
                                     "the default x0 = c**(1/alpha)", alpha))
    return TailModel(alpha=alpha, q=2, c=c, x0=x0, psi_kind="const")


# -- probability-tail operations (domain [x0, inf)) ------------------------


def tail_eval(model: TailModel, x):
    """T(x) = P(X > x) for x in [x0, inf] (x > 0 at x0 = 0, where a mass past
    float64's range, x near 0, raises OverflowError)."""
    x = _check_real(x, "x", model.x0, ends="[]" if model.x0 > 0.0 else "(]", array=True)
    with _quiet():
        return _check_finite(elementwise(model._tail_formula, x), "T(x)", model.alpha)


def tail_quantile(model: TailModel, u):
    """Generalized inverse inf{x >= x0 : T(x) <= u} for 0 < u <= T(x0).

    For the petersburg tail this is exactly 2**k, k the least integer with
    c 2**-k <= u; for const psi the closed form (c/u)**(1/alpha); grid psi
    uses per-period-block bisection to relative precision 1e-12.  A
    quantile past float64's range (alpha near 0) raises OverflowError.
    """
    if model.x0 <= 0.0:
        raise ValueError("tail_quantile needs x0 > 0 (finite total mass)")
    ua = _check_real(u, "u", 0.0, model._mass, "(]", array=True)
    with _quiet():
        return _check_finite(elementwise(model._quantile, ua), "a quantile", model.alpha)


# -- intensity-measure reading on (0, inf) ---------------------------------


def intensity_tail(model: TailModel, x):
    """Tail mass of the intensity measure: same formula as T, any x in (0, inf];
    a mass past float64's range (x near 0) raises OverflowError."""
    x = _check_real(x, "x", 0.0, ends="(]", array=True)
    with _quiet():
        return _check_finite(elementwise(model._tail_formula, x), "T(x)", model.alpha)


def intensity_quantile(model: TailModel, u):
    """inf{x > 0 : T(x) <= u} with no x0 cap; inverse-measure point mapping.

    A quantile past float64's range (alpha near 0) raises OverflowError."""
    u = _check_real(u, "u", 0.0, array=True)
    with _quiet():
        return _check_finite(elementwise(model._quantile_formula, u), "a quantile", model.alpha)


# -- tail integrals --------------------------------------------------------


def _integrate_tail(model, a, b, k):
    """integral_a^b u**(k - 1) T(u) du, a < b, k = 1 or 2, by Gauss-Legendre in s = log u.

    In s the integrand e^{k s} T(e^s), k = 1 or 2, is an exponential times a
    linear function between the kinks and jumps of psi (grid cells, dyadic
    steps); on the pieces of one lattice through them, at most 1/4 long
    (shorter at large alpha), 12 points integrate it to rounding.  It scales
    by r = q^(k/alpha - 1) per period log(q)/alpha, so a run of whole
    periods is the integral of the period that dominates it (the last one
    for r > 1) times a geometric sum of powers of min(r, 1/r): n periods, or
    all of them down to a = 0 (needs k > alpha) or up to b = inf (needs
    k < alpha).  The integrand is u**k T(u) (TailModel._tail_formula), so inf
    or nan comes only from a piece past float64, for the caller to refuse.
    """
    lo, hi = math.log(a) if a else -math.inf, math.log(b)
    period = math.log(model.q) / model.alpha
    h = period / (len(model.psi_values) if model.psi_kind == "grid" else 1)
    h /= math.ceil(h * max(4.0, abs(k - model.alpha) / 8.0))
    x, w = _GL12
    log_r = (k / model.alpha - 1.0) * math.log(model.q)

    def pieces(s0, s1):
        edges = np.concatenate(
            ([s0], h * np.arange(math.floor(s0 / h) + 1, math.ceil(s1 / h)), [s1]))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        with _quiet():
            u = np.exp(mid[:, None] + half[:, None] * x)
            return float(np.sum(half[:, None] * w * model._tail_formula(u, k)))

    if math.isinf(hi - lo):  # down to 0 or up to inf: r^-1 or r per period
        s = hi - period if lo == -math.inf else lo
        return pieces(s, s + period) / -math.expm1(-abs(log_r))
    n = math.floor((hi - lo) / period)
    total = pieces(min(lo + n * period, hi), hi)
    if n:  # the first period for r <= 1, else the last, times a sum of r^-j
        s = lo + (n - 1) * period if log_r > 0.0 else lo
        total += pieces(s, s + period) * (
            math.expm1(-n * abs(log_r)) / math.expm1(-abs(log_r)) if log_r else n)
    return total


def tail_first_moment(model: TailModel, lo: float, hi: float | None = None) -> float:
    """integral of x over the intensity measure on (lo, hi], lo < hi; None means inf.

    Computed from the tail by parts, lo*T(lo) - hi*T(hi) + int_lo^hi T(u) du;
    hi = inf (needs alpha > 1) drops hi*T(hi), and _integrate_tail sums the
    improper integral's periods exactly.  A moment past float64's range
    raises OverflowError.
    """
    lo = _check_real(lo, "lo", 0.0)
    hi = None if hi is None else _check_real(hi, "hi", lo)
    if hi is None and model.alpha <= 1.0:
        raise ValueError("mean above a cutoff is infinite for alpha <= 1")
    with _quiet():
        top = 0.0 if hi is None else float(model._tail_formula(hi, 1))
        mean = (float(model._tail_formula(lo, 1)) - top
                + _integrate_tail(model, lo, math.inf if hi is None else hi, 1))
    return _check_finite(mean, "the first moment above lo = %s" % _shortest(lo), model.alpha)


def gaussian_criterion_ratio(model: TailModel, x: float) -> float:
    """x**2 T(x) / E[X**2; X <= x], the Gaussian domain-of-attraction diagnostic.

    The truncated second moment is obtained from the tail by parts:
    m2(x) = -x**2 T(x) + x0**2 T(x0) + 2 * int_{x0}^{x} u T(u) du, the
    integral exact to rounding on the cells of psi (_integrate_tail).  With
    x0 = 0 (pure intensity reading, needs alpha < 2) the boundary term
    vanishes and _integrate_tail sums the periods down to 0 exactly; for
    psi == 1 the ratio is then (2 - alpha)/alpha at every x.  There a whole
    number of periods, x -> x q**(j/alpha), leaves the ratio as it is, so it
    is taken at the shifted x nearest 1, in range wherever x is.  A
    vanishing limit signals a Gaussian domain.  x must lie in (x0, inf)
    (ValueError).  OverflowError if x**2 T(x) or m2(x) passes float64's max;
    ValueError naming x if m2(x), or x**2 T(x) with m2(x) < 1, lies below
    its normal range, where the ratio would lose its bits, or if the sum's
    rounding, about eps (x**2 T(x) + x0**2 T(x0) + 2 int u T(u) du) / m2(x),
    passes 1e-8 of m2(x): just above x0 the three terms cancel down to a
    difference of size x - x0 (make_pareto(1.5) at 1 + 2**-52 gave 2**51,
    25 % under the ratio).  At x0 = 0, m2 = 2 (I - x**2 T(x) / 2) is about
    x**2 T(x) alpha / (2 - alpha), so the integral's own rounding grows like
    1/alpha, so for psi == 1 m2 takes that closed form, which does not cancel.
    """
    x = _check_real(x, "x", model.x0)
    at = "at x = %s" % _shortest(x)
    if model.x0 == 0.0:
        if model.alpha >= 2.0:
            return 0.0  # m2 diverges at the origin
        j = round(-model.alpha * math.log(x) / math.log(model.q))
        with _quiet():  # q**(j/alpha) in two halves, each in range; exact at q**(1/alpha) = 2
            y = float(x * np.float64(model.q) ** (j // 2 / model.alpha)
                      * np.float64(model.q) ** ((j - j // 2) / model.alpha))
        x = y if 0.0 < y < math.inf else x
    with _quiet():  # the integral less top / 2 passes float64 only after m2 does
        top = float(model._tail_formula(x, 2))
        boundary = float(model._tail_formula(model.x0, 2)) if model.x0 > 0.0 else 0.0
        closed = model.x0 == 0.0 and model.psi_kind == "const"  # nothing cancels
        integral = 0.0 if closed else _integrate_tail(model, model.x0, x, 2)
        m2 = (top * model.alpha / (2.0 - model.alpha) if closed
              else 2.0 * (integral - 0.5 * top) + boundary)
    _check_finite(top, "x**2 T(x) " + at, model.alpha)
    _check_finite(m2, "the truncated second moment " + at, model.alpha)
    if not (m2 >= sys.float_info.min and (top >= sys.float_info.min or m2 >= 1.0)):
        raise ValueError("%s x**2 T(x) = %.3g over a truncated second moment of %.3g: "
                         "below float64's normal range (min %.3g) their ratio loses its bits"
                         % (at, top, m2, sys.float_info.min))
    rounding = sys.float_info.epsilon * (
        1.0 if closed else top / m2 + boundary / m2 + 2.0 * (integral / m2))
    if not rounding <= 1e-8:
        raise ValueError("%s the truncated second moment %.3g carries a rounding error "
                         "of about %.3g of itself, over 1e-8" % (at, m2, rounding))
    return top / m2


# -- JSON ------------------------------------------------------------------


def model_to_json(model: TailModel) -> str:
    """Serialize to the canonical JSON document."""
    doc = {
        "alpha": model.alpha,
        "q": model.q,
        "c": model.c,
        "x0": model.x0,
        "psi": {"kind": model.psi_kind, "values": list(model.psi_values)},
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> TailModel:
    """Parse the canonical JSON document; ValueError names what is malformed."""
    try:
        doc = json.loads(text)
        psi = doc.get("psi", {"kind": "const"})
        return TailModel(alpha=float(doc["alpha"]), q=doc["q"], c=float(doc["c"]),
                         x0=float(doc["x0"]), psi_kind=psi.get("kind", "const"),
                         psi_values=tuple(psi.get("values", ()) or ()))
    # not JSON, not an object, no key, null
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        raise ValueError("malformed model document (%s: %s)"
                         % (type(exc).__name__, exc)) from None
