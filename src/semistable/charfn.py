"""Characteristic functions in exponent form, convolution powers and CDF inversion.

Laws are represented as phi(t) = exp(h(t)) with h complex-valued and
h(0) = 0, Re h <= 0.  The exponent form makes fractional convolution
powers branch-free (k * h) and keeps the Gil-Pelaez inversion integrand
well conditioned.  The St. Petersburg limit exponent and its dyadic
merging family live here, together with the closed-form reference
distributions the test suite uses as oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._arrays import elementwise

__all__ = [
    "CfExponent",
    "InversionError",
    "g_exponent",
    "g_gamma_exponent",
    "petersburg_law",
    "g_gamma_law",
    "cauchy_law",
    "gaussian_law",
    "one_sided_stable_exponent",
    "convolution_power",
    "cdf_from_cf",
    "TabulatedCdf",
    "tabulate_cdf",
    "erlang_cdf",
    "levy_cdf",
]


class InversionError(RuntimeError):
    """The characteristic function does not decay; no usable cutoff exists."""


@dataclass(frozen=True)
class CfExponent:
    """Exponent h of a characteristic function phi = exp(h).

    fn must accept a float ndarray of t values and return complex h(t)
    elementwise.

    split, when given, maps a cut to (reduced exponent, removed mass): the
    exponent without the Levy jumps above cut, and the total mass of those
    jumps.  Laws with lacunary jump atoms (the dyadic limit family) have a
    merely continuous, non-differentiable exponent, which defeats panel
    quadrature; the inversion splits the jumps beyond the query range off
    as an exact compound-Poisson factor, leaving an entire exponent to
    integrate.  Closed-form laws have no split.
    """

    fn: Callable
    split: Callable | None = None

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


# -- the St. Petersburg limit exponent --------------------------------------


# 1 / (j! (1 - 2^(1-j))) for j = 19..2: the small-jump levels l <= l0 sum to
# 2^-l0 sum_{j>=2} z^j / (j! (1 - 2^(1-j))), z = i t 2^l0 (expand e^{iu} - 1 - iu
# and sum the geometric series over l); past j = 19 at |z| < 1/4 is below 1e-24
_SMALL_C = [1.0 / (math.factorial(j) * (1.0 - 2.0 ** (1 - j))) for j in range(19, 1, -1)]


def _top_level(tol: float, max_jump=None) -> int:
    """Last upper level L of the series: 2^-L < tol/8, and 2^L <= max_jump."""
    L = max(1, math.ceil(math.log2(8.0 / tol)))
    if max_jump is not None and math.isfinite(max_jump):
        L = min(L, max(0, math.frexp(max_jump)[1] - 1))
    return L


def g_exponent(t, tol: float = 1e-12, max_jump=None):
    """Exponent of the St. Petersburg limit law, a doubly infinite dyadic series.

    g(t) = sum_{l<=0} (e^{i t 2^l} - 1 - i t 2^l) 2^{-l}
         + sum_{l>=1} (e^{i t 2^l} - 1) 2^{-l}.
    Per point, the small-jump levels l <= l0 with |t 2^l0| < 1/4 are summed
    in closed form (no lower truncation); the levels l > l0 one by one, from
    one exponential e^{i t 2^(l0+1)} squared once per level.
    The upper sum stops at the first level L with 2^{-L} < tol/8, which
    bounds the discarded mass 2 * 2^{-L} by tol/4.  With max_jump it also
    stops below the jumps 2^l > max_jump, whose total mass is exactly
    2^{-L}; the inversion splits those off (see CfExponent).  Terms are
    accumulated with Kahan compensation.  t must be finite.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_jump is not None and not max_jump > 0.0:
        raise ValueError("max_jump must be positive")

    def chunk(tt):
        # l0 = -(e + 2) for |t| = m 2^e, m in [0.5, 1), so |t 2^l0| < 1/4
        l0 = np.minimum(0, -np.frexp(tt)[1] - 2)
        z = 1j * np.ldexp(tt, l0)
        total = np.zeros(tt.shape, dtype=complex)
        for c in _SMALL_C:
            total = total * z + c
        total = total * z * z * np.ldexp(1.0, -l0)
        comp = np.zeros(tt.shape, dtype=complex)
        # one exponential per point, at its first level l0 + 1; each later level
        # squares it, so its rounding error grows like 2^(l - l0), which the
        # weight 2^-l cancels: every term stays within about |t| ulp
        e = e1 = np.exp(1j * np.ldexp(tt, l0 + 1))
        for l in range(int(l0.min(initial=0)) + 1, _top_level(tol, max_jump) + 1):
            e = e * e if l > 1 else np.where(l > l0 + 1, e * e, e1)
            term = e - 1.0
            if l <= 0:
                term = np.where(l > l0, term - 1j * np.ldexp(tt, l), 0.0)
            y = term * 2.0 ** float(-l) - comp
            s = total + y
            comp = (s - total) - y
            total = s
        return total

    def series(tt):
        if not np.all(np.isfinite(tt)):
            raise ValueError("t must be finite")
        # 8,192 points at a time, so the level loop's temporaries stay in cache
        return np.concatenate([chunk(c) for c in np.split(tt, range(8192, tt.size, 8192))])

    return elementwise(series, t, complex)


def g_gamma_exponent(t, gamma: float, tol: float = 1e-12, max_jump=None):
    """Exponent of the dyadic merging family: gamma * g(t/gamma) - i t log2(gamma).

    gamma ranges over [1, 2]; the two endpoints give the same law (the
    telescoping identity g(t) = 2 g(t/2) - i t closes the family).  Its
    jumps sit at 2^l / gamma with mass gamma 2^-l; max_jump drops those
    above it, as in g_exponent.
    """
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")
    ta = np.asarray(t, dtype=float)
    mj = None if max_jump is None else max_jump * gamma
    return gamma * g_exponent(ta / gamma, tol / gamma, mj) - 1j * ta * math.log2(gamma)


def _dyadic_law(gamma: float, tol: float) -> CfExponent:
    def split(cut):
        removed = gamma * 2.0 ** -_top_level(tol / gamma, cut * gamma)
        return (lambda t: g_gamma_exponent(t, gamma, tol, cut)), removed

    return CfExponent(fn=lambda t: g_gamma_exponent(t, gamma, tol), split=split)


def petersburg_law(tol: float = 1e-12) -> CfExponent:
    """The St. Petersburg limit law as a CfExponent."""
    return _dyadic_law(1.0, tol)


def g_gamma_law(gamma: float, tol: float = 1e-12) -> CfExponent:
    """Member of the merging family at position gamma in [1, 2]."""
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")
    return _dyadic_law(gamma, tol)


# -- closed-form reference exponents ----------------------------------------


def cauchy_law(scale: float = 1.0) -> CfExponent:
    """Cauchy exponent -scale*|t|; CDF 1/2 + arctan(x/scale)/pi."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return CfExponent(fn=lambda t: -scale * np.abs(t) + 0j)


def gaussian_law() -> CfExponent:
    """Standard normal exponent -t**2/2."""
    return CfExponent(fn=lambda t: -0.5 * t * t + 0j)


def one_sided_stable_exponent(alpha: float, c: float = 1.0) -> CfExponent:
    """Positive stable law with tail constant c: h(t) = -c Gamma(1-alpha) (-it)**alpha.

    alpha must lie in (0, 1).  Principal branch:
    h(t) = -c Gamma(1-alpha) |t|**alpha exp(-i sign(t) pi alpha / 2), which is
    the analytic continuation of the Laplace exponent c Gamma(1-alpha) s**alpha
    of the sum of Poisson points with intensity tails c x**(-alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if c <= 0.0:
        raise ValueError("c must be positive")
    scale = c * math.gamma(1.0 - alpha)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return -scale * np.abs(t) ** alpha * np.exp(-0.5j * math.pi * alpha * np.sign(t))

    return CfExponent(fn=fn)


def convolution_power(h: CfExponent, k: float) -> CfExponent:
    """The law with characteristic function phi**k, exact in exponent form."""
    if not k > 0.0:
        raise ValueError("power must be positive")
    k, base, base_split = float(k), h.fn, h.split
    split = None
    if base_split is not None:
        def split(cut):
            fn, removed = base_split(cut)
            return (lambda t: k * fn(t)), k * removed
    return CfExponent(fn=lambda t: k * base(np.asarray(t, dtype=float)), split=split)


# -- Gil-Pelaez inversion ----------------------------------------------------

_gl_rule = functools.cache(leggauss)


def _gl_panels(a, b, n):
    """n-point Gauss-Legendre nodes and weights on the panels [a_i, b_i], in order."""
    x, w = _gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _decay_cutoff(h, tol):
    """Smallest dyadic cutoff T with exp(Re h)/t safely below tol at and past T."""
    target = tol * 1e-3
    T = 8.0
    while True:
        probes = T * np.array([1.0, 1.25, 1.6])
        with np.errstate(under="ignore"):
            vals = np.exp(np.real(h(probes))) / probes
        if np.all(vals < target):
            return T
        T *= 2.0
        if T > 1e6:
            raise InversionError(
                "characteristic function does not decay (cutoff search passed 1e6)")


def _phase_slope(h, t_lo, t_hi):
    """Crude bound on |d Im h / dt| over [t_lo, t_hi] from finite differences."""
    probes = np.unique(np.concatenate([
        np.geomspace(t_lo, min(1.0, t_hi), 64),
        np.linspace(min(1.0, t_hi), t_hi, 192),
    ]))
    im = np.imag(h(probes))
    slope = float(np.max(np.abs(np.diff(im) / np.diff(probes)), initial=0.0))
    if not math.isfinite(slope):
        raise InversionError("the phase of the exponent has a non-finite slope")
    return slope


_DYADIC_LEVELS = 150
_NODE_BUDGET = 1 << 22  # about |x| <= 6e4 on the dyadic family (1e4 takes 1.0e6)
_WORK_BUDGET = 1 << 29  # point x node products per cdf_from_cf call; 0.5-0.9 s
                        # on a 2-core x86 host (1e5 points with |x| <= 32, or
                        # 132 near |x| = 6e4 on 4e6 nodes, where the exponent
                        # and the bulk products share the time), 50x the
                        # largest call the tests and the benchmark make


def _node_count(T, omega):
    """(K, node count) of _build_nodes(T, omega): K = ceil((T - t0)/delta)
    panels of 12 nodes above the 150-level cascade.  Floats that grow with
    omega; np.ceil keeps an overflowing T omega at inf, not OverflowError."""
    K = np.ceil(T * omega / math.pi - 0.5)  # (T - t0)/delta, t0 = delta/2
    return K, 16 * _DYADIC_LEVELS + 12.0 * K


def _check_budget(need, budget, what):
    """InversionError naming the work, if need passes budget (or is not finite)."""
    if not need <= budget:
        raise InversionError("inversion would need about %.3g %s, over the budget of %.3g"
                             % (need, what, budget))


def _build_nodes(T, omega):
    """Quadrature nodes/weights on (0, T], as a head and a bulk.

    With delta = pi/omega half an oscillation of e^{-itx} phi(t) and
    t0 = delta/2, the head covers (0, t0] with 150 dyadically shrinking
    16-point Gauss-Legendre panels [t0 2^-(l+1), t0 2^-l], which resolve
    the integrable t**(alpha-1) / log(1/t) behavior of the integrand near
    t = 0.  The bulk is the K = ceil((T - t0)/delta) equal panels
    [t0 + k delta, t0 + (k+1) delta] with the 12-point rule (see
    _bulk_nodes); the last may end past T, where the integrand is already
    below the cutoff's bound.  Returns (t_head, w_head, t0, delta, K).
    """
    K = int(_node_count(T, omega)[0])
    delta = math.pi / omega
    t0 = 0.5 * delta
    a = t0 * 0.5 ** np.arange(_DYADIC_LEVELS)
    t, w = _gl_panels(0.5 * a, a, 16)
    return t, w, t0, delta, K


def _bulk_nodes(t0, delta, K):
    """(K, 12) nodes t0 + k delta + s_j and weights of the equal panels."""
    x, w = _gl_rule(12)
    s = 0.5 * delta * (1.0 + x)
    t = t0 + (delta * np.arange(K))[:, None] + s
    return t, np.broadcast_to(0.5 * delta * w, t.shape)


def _phase_sums(xs, t, cw):
    """Im sum_i cw_i e^{-i t_i x} for each x; _invert runs it on the head nodes.
    On the deep nodes, |t| max|x| < 2^-27, cos(tx) rounds to 1 and sin(tx)
    to tx, so they add sum cw_im - x sum cw_re t: two dot products in all.
    The rest cost a cosine and a sine per node and point, in chunks."""
    cw_re, cw_im = np.real(cw), np.imag(cw)
    deep = np.abs(t) * np.max(np.abs(xs), initial=0.0) < 2.0 ** -27
    out = np.sum(cw_im[deep]) - xs * np.dot(cw_re[deep], t[deep])
    t, cw_re, cw_im = t[~deep], cw_re[~deep], cw_im[~deep]
    xblock = 64
    tblock = 1 << 17
    for i in range(0, xs.size, xblock):
        xb = xs[i:i + xblock, None]
        acc = np.zeros(xb.size)
        for j in range(0, t.size, tblock):
            ph = xb * t[None, j:j + tblock]
            acc += np.cos(ph) @ cw_im[j:j + tblock] - np.sin(ph) @ cw_re[j:j + tblock]
        out[i:i + xblock] += acc
    return out


def _bulk_phase_sums(xs, t0, delta, cw):
    """_phase_sums over the (K, 12) bulk weights cw of _bulk_nodes(t0, delta, K).

    With panel k = a B + b, B about sqrt(K/12), a node is
    t = t0 + a B delta + (b delta + s_j), so
    sum cw e^{-itx} = e^{-i t0 x} sum_a V[x, a] (U @ C^T)[x, a], where
    U[x, (b, j)] = e^{-i b delta x} e^{-i s_j x}, V[x, a] = e^{-i a B delta x}
    and C is cw zero-padded to A B panels and reshaped to (A, 12 B).  U is
    an outer product, so per point that is B + 12 + A complex exponentials,
    about sqrt(12 K), instead of 12 K cosines and sines; the multiply-adds
    go to one matrix product per block of 64 points.
    """
    K = cw.shape[0]
    B = max(1, round(math.sqrt(K / 12.0)))
    A = -(-K // B)
    C = np.zeros((A * B, 12), dtype=complex)
    C[:K] = cw
    C = C.reshape(A, 12 * B)
    offsets = _bulk_nodes(0.0, delta, 1)[0][0]
    steps = delta * np.arange(B)
    outer = (B * delta) * np.arange(A)
    out = np.empty(xs.size)
    xblock = 64
    for i in range(0, xs.size, xblock):
        xb = xs[i:i + xblock, None]
        u = (np.exp(-1j * (xb * steps))[:, :, None]
             * np.exp(-1j * (xb * offsets))[:, None, :]).reshape(xb.size, 12 * B)
        s = np.einsum("ij,ij->i", np.exp(-1j * (xb * outer)), u @ C.T)
        out[i:i + xblock] = np.imag(np.exp(-1j * t0 * xb[:, 0]) * s)
    return out


_ATOM_MARGIN = 64.0  # left-support clearance; the laws here have doubly
                     # exponentially thin lower tails, so jumps this far
                     # above the query range cannot land below it


def cdf_from_cf(h: CfExponent, x, tol: float = 1e-8):
    """CDF by Gil-Pelaez inversion: F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} phi)/t dt.

    The cutoff T is chosen so exp(Re h(T))/T sits three decades below tol
    (raises InversionError if the search passes 1e6); panel density is
    matched to the oscillation frequency |x| plus the phase slope of phi
    (InversionError if not finite); the t -> 0 neighborhood is integrated on
    dyadically refined panels, and Levy jumps beyond the query range are an
    exact compound-Poisson factor rather than quadrature (CfExponent.split).
    Absolute error target tol (tol >= 1e-10).  Accepts scalar or array x,
    which must be finite.  Each magnitude group |x| <= 32 2^k gets its own
    node set, priced exactly at its omega; before any quadrature, raises
    InversionError if one would pass _NODE_BUDGET nodes or the whole call
    _WORK_BUDGET point x node products.
    """
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    return elementwise(lambda xs: _invert(h, xs, tol), x)


def _invert(h, xs, tol):
    """cdf_from_cf over the flat float array xs."""
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    out = np.empty(xs.size)
    if not xs.size:
        return out
    T = _decay_cutoff(h, tol)
    # group query points by magnitude, |x| <= b = 32 2^k, so panel counts
    # track each group's |x|
    m, e = np.frexp(np.abs(xs) / 32.0)
    ks = np.maximum(e - (m == 0.5), 0)
    # each omega exceeds its b (inf past |x| = 2^1023): refuse before any slope probe
    _check_budget(_node_count(T, 32.0 * 2.0 ** int(ks.max()))[1], _NODE_BUDGET,
                  "quadrature nodes")
    plan = []
    for k in np.unique(ks).tolist():
        b = 32.0 * 2.0 ** k
        # F(x) = exp(-M) F_reduced(x) exactly for x < cut - margin: a removed
        # jump exceeds the query by more than the law's lower-tail reach
        hr, removed_mass = h.split(b + _ATOM_MARGIN) if h.split else (h, 0.0)
        slope = _phase_slope(hr, min(1e-3, T / 100.0), T)
        omega = b + max(4.0, 1.3 * slope)
        slope = _phase_slope(hr, math.pi / (2.0 * omega), T)
        omega = b + max(4.0, 1.3 * slope)
        plan.append((ks == k, hr, removed_mass, omega, _node_count(T, omega)[1]))
    _check_budget(max(need for *_, need in plan), _NODE_BUDGET, "quadrature nodes")
    _check_budget(sum(np.count_nonzero(mask) * need for mask, *_, need in plan),
                  _WORK_BUDGET, "point x node products")
    for mask, hr, removed_mass, omega, _ in plan:
        t, w, t0, delta, K = _build_nodes(T, omega)
        tb, wb = _bulk_nodes(t0, delta, K)
        with np.errstate(under="ignore"):
            cw, cwb = np.exp(hr(t)) * (w / t), np.exp(hr(tb)) * (wb / tb)
        vals = (_phase_sums(xs[mask], t, cw)
                + _bulk_phase_sums(xs[mask], t0, delta, cwb))
        out[mask] = math.exp(-removed_mass) * (0.5 - vals / math.pi)
    return np.clip(out, 0.0, 1.0)


class TabulatedCdf:
    """Monotone cubic (PCHIP) interpolant of a CDF table, clamped outside it.

    Callable on scalars or arrays.  Finite evaluations outside
    [x[0], x[-1]] return F(x[0]) / F(x[-1]); choose the table span so the
    clamped tail mass is below the accuracy you need.  x = -inf / +inf give
    0 / 1, and NaN raises ValueError.
    """

    def __init__(self, x, f):
        x = np.asarray(x, dtype=float)
        f = np.maximum.accumulate(np.asarray(f, dtype=float))
        if not (x.ndim == 1 and x.shape == f.shape and x.size > 1 and np.all(np.diff(x) > 0)):
            raise ValueError("a CDF table needs >= 2 increasing x, one F each")
        self.x_lo, self.x_hi = float(x[0]), float(x[-1])
        self.f_lo, self.f_hi = float(f[0]), float(f[-1])
        # the slopes of scipy's PchipInterpolator (Fritsch-Butland); with f
        # nondecreasing its sign tests reduce to these two rules
        h = np.diff(x)
        m = np.diff(f) / h
        d = np.full(x.size, m[0])  # two points: the line through them
        if x.size > 2:
            # interior: weighted harmonic mean of the secants, 0 beside a flat cell
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            with np.errstate(divide="ignore"):
                d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            # ends: the three-point estimate, clipped at 0
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            d[[0, -1]] = np.maximum(0.0, ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._x = x
        self._coef = (f[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def __call__(self, x):
        def interp(v):
            v = np.clip(v, self.x_lo, self.x_hi)
            i = np.searchsorted(self._x[1:-1], v, side="right")  # x_hi: the last cell
            s = v - self._x[i]
            c0, c1, c2, c3 = (c[i] for c in self._coef)
            s2 = s * s  # summed in scipy's order, which this matches bit for bit
            return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

        return elementwise(interp, x, cdf_from=-np.inf)


_TABLE_POINTS = 385  # initial grid points up to min(x_hi, _BODY_HI)
_TABLE_MAX_GAP = 0.005
_BODY_HI = 48.0  # table points above it are evaluated at _TAIL_TOL
_TAIL_TOL = 1e-5


def tabulate_cdf(h: CfExponent, x_lo: float, x_hi: float,
                 tol: float = 1e-7) -> TabulatedCdf:
    """Adaptive CDF table: refine wherever a cell steps more than 0.005 in F.

    Points beyond _BODY_HI are evaluated at the looser _TAIL_TOL; far-tail
    oscillatory quadrature is expensive and KS-style consumers only need
    absolute accuracy well below their distance tolerance out there.  For
    g_gamma_law on [-8, 1024] at tol=1e-7 the table is within 1.4e-5 of
    cdf_from_cf up to x = 48, and 1.2e-3 between its geometric tail nodes
    (near jumps 2^k/gamma) though the nodes are exact to 7e-12.  The span
    must be finite with x_lo < x_hi, or ValueError."""
    if not -math.inf < x_lo < x_hi < math.inf:
        raise ValueError("a CDF table needs finite x_lo < x_hi, got %s and %s"
                         % (x_lo, x_hi))

    def evaluate(xs):
        out = np.empty(xs.size)
        body = xs <= _BODY_HI
        if np.any(body):
            out[body] = cdf_from_cf(h, xs[body], tol)
        if np.any(~body):
            out[~body] = cdf_from_cf(h, xs[~body], max(tol, _TAIL_TOL))
        return out

    top = min(x_hi, _BODY_HI)
    grid = np.linspace(x_lo, top, _TABLE_POINTS)
    if x_hi > top:
        grid = np.concatenate([grid, np.geomspace(top + 1.0, x_hi, 48)])
    grid = np.unique(grid)
    f = evaluate(grid)
    for _ in range(6):
        gaps = np.abs(np.diff(f))
        coarse = np.nonzero(gaps > _TABLE_MAX_GAP)[0]
        if coarse.size == 0:
            break
        mids = 0.5 * (grid[coarse] + grid[coarse + 1])
        fm = evaluate(mids)
        grid = np.concatenate([grid, mids])
        f = np.concatenate([f, fm])
        order = np.argsort(grid)
        grid, f = grid[order], f[order]
    return TabulatedCdf(grid, f)


# -- closed-form reference CDFs ---------------------------------------------


def erlang_cdf(p: int, x):
    """Gamma(p, 1) CDF for integer shape p: 1 - e^{-x} sum_{j<p} x^j/j!.

    x = +inf gives 1; NaN raises ValueError."""
    if int(p) != p or p < 1:
        raise ValueError("p must be an integer >= 1")
    p = int(p)

    def cdf(v):
        s = term = np.ones_like(v)
        for j in range(1, p):
            term = term * v / j
            s = s + term
        return -np.expm1(np.log(s) - v)

    return elementwise(cdf, x, cdf_from=0.0)


def levy_cdf(x):
    """CDF of the positive 1/2-stable law with Laplace exponent sqrt(pi s).

    F(x) = erfc(sqrt(pi/(4x))); this is the limit of the sums built on the
    intensity tail T(x) = x**(-1/2) and the LePage series at alpha = 1/2.
    NaN raises ValueError.
    """
    from scipy.special import erfc  # loaded on first use, not with the package

    return elementwise(lambda v: erfc(np.sqrt(math.pi / (4.0 * v))), x, cdf_from=0.0)
