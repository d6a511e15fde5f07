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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._arrays import elementwise

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
    (it need not be 1, samplers renormalize).
    """

    alpha: float
    q: int
    c: float
    x0: float
    psi_kind: str = "const"
    psi_values: tuple = ()

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("q must be an integer >= 2")
        object.__setattr__(self, "q", int(self.q))
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError("c must be positive")
        if not (self.x0 >= 0.0 and math.isfinite(self.x0)):
            raise ValueError("x0 must be finite and >= 0")
        if self.psi_kind not in _PSI_KINDS:
            raise ValueError("unknown psi kind %r" % (self.psi_kind,))
        if self.psi_kind == "petersburg" and not (self.alpha == 1.0 and self.q == 2):
            raise ValueError("petersburg psi requires alpha = 1, q = 2")
        if self.psi_kind == "grid":
            vals = np.asarray(self.psi_values, dtype=float)
            if vals.ndim != 1 or vals.size < _MIN_GRID:
                raise ValueError("grid psi needs >= %d samples over one period" % _MIN_GRID)
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
                raise ValueError("psi must be finite and strictly positive")
            # on cell j, d log T / du = psi'/psi - alpha ln q, psi' = alpha m (v[j+1] - v[j])
            rising = vals.size * np.diff(vals, append=vals[0]) > math.log(self.q) * vals
            if rising.any():
                raise ValueError("tail is not nonincreasing: psi grid cell j = %d has "
                                 "m (v[j+1] - v[j]) > ln(q) v[j]" % np.argmax(rising))
            object.__setattr__(self, "psi_values", tuple(float(v) for v in vals))
        else:
            object.__setattr__(self, "psi_values", ())
        with np.errstate(over="ignore"):  # an overflowing T(x0) is refused here
            if self.x0 > 0.0 and not 0.0 < float(self._tail_formula(self.x0)) < math.inf:
                raise ValueError("x0 must leave a finite positive mass T(x0)")

    # -- psi and tail formula (intensity reading, any x > 0) ---------------

    def _psi(self, u):
        """Grid psi evaluated at u = log_q x; periodic with period 1/alpha."""
        vals = np.asarray(self.psi_values)
        m = vals.size
        # position within the period, in grid units
        w = np.asarray(u, dtype=float) * self.alpha
        w = (w - np.floor(w)) * m
        j = np.minimum(w.astype(int), m - 1)
        frac = w - j
        nxt = np.where(j + 1 < m, vals[np.minimum(j + 1, m - 1)], vals[0])
        return vals[j] * (1.0 - frac) + nxt * frac

    def _tail_formula(self, x):
        """T(x) on (0, inf] with no x0 restriction; T(inf) = 0."""
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0.0):
            raise ValueError("tail formula needs x > 0")
        top = x == math.inf
        if top.any():  # the formulas below see x = 1 there
            return np.where(top, 0.0, self._tail_formula(np.where(top, 1.0, x)))
        if self.psi_kind == "petersburg":
            # exact dyadic steps: T(x) = c * 2**(-floor(log2 x))
            _, e = np.frexp(x)
            return self.c * np.ldexp(1.0, 1 - e)
        if self.psi_kind == "const":
            return self.c * x ** (-self.alpha)
        logq = np.log(x) / math.log(self.q) if self.q != 2 else np.log2(x)
        return self.c * x ** (-self.alpha) * self._psi(logq)

    def _quantile_formula(self, u, out=None):
        """inf{x > 0 : T(x) <= u} on the full intensity domain, for u > 0.
        The const formula writes into out (which may be u) when given; use
        the returned array."""
        u = np.asarray(u, dtype=float)
        if self.psi_kind == "petersburg":  # 2^k, k least with u 2^k >= c exactly
            (m, e), (mc, ec) = np.frexp(u), math.frexp(self.c)  # mantissas in [1/2, 1)
            return np.ldexp(1.0, ec - e + (m < mc))
        if self.psi_kind == "const":
            x = np.divide(self.c, u, out=out)
            x **= 1.0 / self.alpha
            return x
        try:
            return elementwise(self._quantile_grid, u)
        except OverflowError:  # a block edge past float64's max (math.exp, rho)
            return _finite(math.inf, self.alpha)  # raises, naming alpha

    def _quantile(self, u, out=None):
        """inf{x >= x0 : T(x) <= u} for an array u in (0, T(x0)], unchecked;
        out as in _quantile_formula."""
        x = self._quantile_formula(u, out)
        return np.maximum(x, self.x0, out=x)

    def _quantile_grid(self, u):
        """Grid-psi quantiles: one bisection over all points, each inside its block.

        The period block [r0 rho^(j-1), r0 rho^j], rho = q^(1/alpha), has
        tail ratio exactly q, so j = ceil(log_q(T(r0)/u)) brackets the
        quantile; a point the rounded logarithm puts one block off is moved
        back, so T(hi) <= u < T(lo) holds from the start.  Each point stops
        once hi - lo <= 1e-12 hi.
        """
        r0 = self.x0 if self.x0 > 0.0 else 1.0
        t0 = float(self._tail_formula(r0))
        rho = self.q ** (1.0 / self.alpha)

        def edge(j):
            # r0 * rho**k once per distinct block index k, in logs where
            # rho**k alone would leave the float range
            ks, where = np.unique(j, return_inverse=True)
            return np.array([
                r0 * rho ** int(k) if abs(k) * math.log(rho) < 700.0
                else math.exp(math.log(r0) + k * math.log(rho)) for k in ks])[where]

        j = np.ceil((math.log(t0) - np.log(u)) / math.log(self.q))
        lo, hi = edge(j - 1), edge(j)
        shift = (self._tail_formula(hi) > u).astype(int) - (self._tail_formula(lo) <= u)
        if shift.any():
            j += shift
            lo, hi = edge(j - 1), edge(j)
        idx = np.arange(u.size)
        for _ in range(200):
            if idx.size == 0:
                break
            a, b = lo[idx], hi[idx]
            mid = 0.5 * (a + b)
            below = self._tail_formula(mid) <= u[idx]
            b = np.where(below, mid, b)
            a = np.where(below, a, mid)
            lo[idx], hi[idx] = a, b
            idx = idx[b - a > 1e-12 * b]
        return hi


def _finite(out, alpha):
    """out, or OverflowError if a term left the float range (tiny alpha)."""
    if not np.isfinite(out).all():
        raise OverflowError("at alpha = %g a term overflows float64 (max %.3g), "
                            "so the output is not finite" % (alpha, np.finfo(float).max))
    return out


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
    if x0 is None:
        x0 = c ** (1.0 / alpha)
    return TailModel(alpha=float(alpha), q=2, c=float(c), x0=float(x0), psi_kind="const")


# -- probability-tail operations (domain [x0, inf)) ------------------------


def tail_eval(model: TailModel, x):
    """T(x) = P(X > x) for x >= x0."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= model.x0) & (xa > 0.0)):
        raise ValueError("tail_eval requires x >= x0 (and x > 0)")
    return elementwise(model._tail_formula, xa)


def tail_quantile(model: TailModel, u):
    """Generalized inverse inf{x >= x0 : T(x) <= u} for 0 < u <= T(x0).

    For the petersburg tail this is exactly 2**k, k the least integer with
    c 2**-k <= u; for const psi the closed form (c/u)**(1/alpha); grid psi
    uses per-period-block bisection to relative precision 1e-12.  A
    quantile past float64's range (alpha near 0) raises OverflowError.
    """
    if model.x0 <= 0.0:
        raise ValueError("tail_quantile needs x0 > 0 (finite total mass)")
    ua = np.asarray(u, dtype=float)
    cap = float(model._tail_formula(model.x0))
    if not np.all((ua > 0.0) & (ua <= cap)):
        raise ValueError("quantile argument must lie in (0, T(x0)]")
    with np.errstate(over="ignore"):  # refused by _finite, naming alpha
        return _finite(elementwise(model._quantile, ua), model.alpha)


# -- intensity-measure reading on (0, inf) ---------------------------------


def intensity_tail(model: TailModel, x):
    """Tail mass of the intensity measure: same formula as T, any x > 0."""
    return elementwise(model._tail_formula, x)


def intensity_quantile(model: TailModel, u):
    """inf{x > 0 : T(x) <= u} with no x0 cap; inverse-measure point mapping.

    A quantile past float64's range (alpha near 0) raises OverflowError."""
    if not np.all(np.asarray(u, dtype=float) > 0.0):
        raise ValueError("quantile argument must be positive")
    with np.errstate(over="ignore"):  # refused by _finite, naming alpha
        return _finite(elementwise(model._quantile_formula, u), model.alpha)


# -- tail integrals --------------------------------------------------------


def _integrate_tail(model, a, b, weight=None):
    """integral_a^b w(u) T(u) du, w = 1 or u, by Gauss-Legendre in s = log u.

    In s the integrand e^{k s} T(e^s), k = 1 or 2, is an exponential times a
    linear function between the kinks and jumps of psi (grid cells, dyadic
    steps); on the pieces of one lattice through them, at most 1/4 long
    (shorter at large alpha), 12 points integrate it to rounding.  It scales
    by r = q^(k/alpha - 1) per period log(q)/alpha, so a run of whole
    periods is one period's integral times a geometric sum: n periods, or
    all of them down to a = 0 (needs k > alpha) or up to b = inf (needs
    k < alpha).  Overflowing pieces give inf or nan, for the caller to refuse.
    """
    k = 2.0 if weight == "u" else 1.0
    lo, hi = sorted((math.log(a) if a else -math.inf, math.log(b)))
    period = math.log(model.q) / model.alpha
    h = period / (len(model.psi_values) if model.psi_kind == "grid" else 1)
    h /= math.ceil(h * max(4.0, abs(k - model.alpha) / 8.0))
    x, w = leggauss(12)
    log_r = (k / model.alpha - 1.0) * math.log(model.q)

    def pieces(s0, s1):
        edges = np.concatenate(
            ([s0], h * np.arange(math.floor(s0 / h) + 1, math.ceil(s1 / h)), [s1]))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.exp(mid[:, None] + half[:, None] * x)
            g = u ** (k - 1.0) * (u * model._tail_formula(u))  # u**2 alone overflows sooner
            return float(np.sum(half[:, None] * w * g))

    if math.isinf(hi - lo):  # down to 0 or up to inf: r^-1 or r per period
        s = hi - period if lo == -math.inf else lo
        return pieces(s, s + period) / -math.expm1(-abs(log_r))
    n = math.floor((hi - lo) / period)
    total = pieces(min(lo + n * period, hi), hi)
    if n:
        total += pieces(lo, lo + period) * (
            math.expm1(n * log_r) / math.expm1(log_r) if log_r else n)
    return total if a <= b else -total


def tail_first_moment(model: TailModel, lo: float, hi: float | None = None) -> float:
    """integral of x over the intensity measure on (lo, hi]; hi = None means inf.

    Computed from the tail by parts, lo*T(lo) - hi*T(hi) + int_lo^hi T(u) du;
    hi = inf (needs alpha > 1) drops hi*T(hi), and _integrate_tail sums the
    improper integral's periods exactly.
    """
    if lo <= 0.0:
        raise ValueError("lo must be positive")
    if hi is None and model.alpha <= 1.0:
        raise ValueError("mean above a cutoff is infinite for alpha <= 1")
    top = 0.0 if hi is None else hi * float(model._tail_formula(hi))
    return (lo * float(model._tail_formula(lo)) - top
            + _integrate_tail(model, lo, math.inf if hi is None else hi))


def gaussian_criterion_ratio(model: TailModel, x: float) -> float:
    """x**2 T(x) / E[X**2; X <= x], the Gaussian domain-of-attraction diagnostic.

    The truncated second moment is obtained from the tail by parts:
    m2(x) = -x**2 T(x) + x0**2 T(x0) + 2 * int_{x0}^{x} u T(u) du, the
    integral exact to rounding on the cells of psi (_integrate_tail).  With
    x0 = 0 (pure intensity reading, needs alpha < 2) the boundary term
    vanishes and _integrate_tail sums the periods down to 0 exactly; for
    psi == 1 the ratio is then (2 - alpha)/alpha at every x.  A vanishing
    limit signals a Gaussian domain.  OverflowError if m2(x) leaves the
    float range.
    """
    if x <= model.x0 or x <= 0.0:
        raise ValueError("x must exceed x0 (and be positive)")
    t_x = float(model._tail_formula(x))
    if t_x == 0.0 or (model.x0 == 0.0 and model.alpha >= 2.0):
        return 0.0  # at x0 = 0 and alpha >= 2 m2 diverges at the origin
    top = x * (x * t_x)  # x * x alone overflows sooner
    boundary = (model.x0 * (model.x0 * float(model._tail_formula(model.x0)))
                if model.x0 > 0.0 else 0.0)
    try:
        m2 = -top + boundary + 2.0 * _integrate_tail(model, model.x0, x, weight="u")
    except OverflowError:  # from the geometric sum of whole periods
        m2 = math.inf
    if not math.isfinite(m2):
        raise OverflowError("the truncated second moment at x = %g overflows float64 "
                            "(alpha = %g)" % (x, model.alpha))
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
    doc = json.loads(text)
    try:
        psi = doc.get("psi", {"kind": "const"})
        return TailModel(alpha=float(doc["alpha"]), q=doc["q"], c=float(doc["c"]),
                         x0=float(doc["x0"]), psi_kind=psi.get("kind", "const"),
                         psi_values=tuple(psi.get("values", ()) or ()))
    except (AttributeError, KeyError, TypeError) as exc:  # not an object, no key, null
        raise ValueError("malformed model document (%s: %s)"
                         % (type(exc).__name__, exc)) from None
