"""Characteristic functions in exponent form, convolution powers and CDF inversion.

Laws are represented as phi(t) = exp(h(t)) with h complex-valued and
h(0) = 0, Re h <= 0.  The exponent form makes fractional convolution
powers branch-free (k * h) and keeps the Gil-Pelaez inversion integrand
well conditioned.  The St. Petersburg limit exponent and its dyadic
merging family live here, together with the closed-form reference
distributions the test suite uses as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc, gammaln

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

    atoms lists isolated Levy-measure atoms (position, mass) with positions
    above 1.  Laws with lacunary jump atoms (the dyadic limit family) have a
    merely continuous, non-differentiable exponent, which defeats panel
    quadrature; the inversion splits atoms beyond the query range off as a
    compound-Poisson factor, leaving an entire exponent to integrate.
    """

    fn: Callable
    atoms: tuple = ()

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


# -- the St. Petersburg limit exponent --------------------------------------


def _e_iu_m1(u):
    """exp(iu) - 1; no cancellation issue (imag part is sin u)."""
    return np.exp(1j * u) - 1.0


def _e_iu_m1_miu(u):
    """exp(iu) - 1 - iu, series-evaluated for small |u| to avoid cancellation."""
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape, dtype=complex)
    small = np.abs(u) < 0.25
    if np.any(small):
        z = 1j * u[small]
        term = z * z / 2.0
        acc = term.copy()
        for k in range(3, 19):
            term = term * (z / k)
            acc = acc + term
        out[small] = acc
    big = ~small
    if np.any(big):
        ub = u[big]
        out[big] = np.exp(1j * ub) - 1.0 - 1j * ub
    return out


def g_exponent(t, tol: float = 1e-12):
    """Exponent of the St. Petersburg limit law, a doubly infinite dyadic series.

    g(t) = sum_{l<=0} (e^{i t 2^l} - 1 - i t 2^l) 2^{-l}
         + sum_{l>=1} (e^{i t 2^l} - 1) 2^{-l},
    truncated so the discarded mass is below tol:
    the lower sum at l = -M with t^2 2^{-M} < tol/2 (term bound
    |e^{iu} - 1 - iu| <= u^2/2), the upper at l = L with 2*2^{-(L-1)} < tol/2.
    Terms are accumulated with Kahan compensation.  t must be finite.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ta = np.asarray(t, dtype=float)
    tt = np.atleast_1d(ta).astype(float)
    if not np.all(np.isfinite(tt)):
        raise ValueError("t must be finite")
    tmax = max(float(np.max(np.abs(tt))) if tt.size else 0.0, 1.0)
    M = max(1, math.ceil(math.log2(2.0 * tmax * tmax / tol)))
    L = max(1, math.ceil(math.log2(8.0 / tol)))
    total = np.zeros(tt.shape, dtype=complex)
    comp = np.zeros(tt.shape, dtype=complex)
    for l in range(-M, L + 1):
        u = np.ldexp(tt, l)
        w = 2.0 ** float(-l)
        if l <= 0:
            term = _e_iu_m1_miu(u) * w
        else:
            term = _e_iu_m1(u) * w
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    if np.shape(ta) == ():
        return complex(total[0])
    return total.reshape(ta.shape)


def g_gamma_exponent(t, gamma: float, tol: float = 1e-12):
    """Exponent of the dyadic merging family: gamma * g(t/gamma) - i t log2(gamma).

    gamma ranges over [1, 2]; the two endpoints give the same law (the
    telescoping identity g(t) = 2 g(t/2) - i t closes the family).
    """
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")
    ta = np.asarray(t, dtype=float)
    return gamma * g_exponent(ta / gamma, tol / gamma) - 1j * ta * math.log2(gamma)


def _dyadic_atoms(gamma: float = 1.0, levels: int = 60) -> tuple:
    # large-jump atoms of gamma*g(t/gamma): position 2^l/gamma, mass gamma*2^-l
    return tuple((2.0 ** l / gamma, gamma * 2.0 ** (-l))
                 for l in range(1, levels + 1))


def petersburg_law(tol: float = 1e-12) -> CfExponent:
    """The St. Petersburg limit law as a CfExponent."""
    return CfExponent(fn=lambda t: g_exponent(t, tol), atoms=_dyadic_atoms(1.0))


def g_gamma_law(gamma: float, tol: float = 1e-12) -> CfExponent:
    """Member of the merging family at position gamma in [1, 2]."""
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")
    return CfExponent(fn=lambda t: g_gamma_exponent(t, gamma, tol),
                      atoms=_dyadic_atoms(gamma))


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
    scale = c * math.exp(gammaln(1.0 - alpha))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return -scale * np.abs(t) ** alpha * np.exp(-0.5j * math.pi * alpha * np.sign(t))

    return CfExponent(fn=fn)


def convolution_power(h: CfExponent, k: float) -> CfExponent:
    """The law with characteristic function phi**k, exact in exponent form."""
    if not k > 0.0:
        raise ValueError("power must be positive")
    base = h.fn
    return CfExponent(fn=lambda t: float(k) * base(np.asarray(t, dtype=float)),
                      atoms=tuple((a, float(k) * m) for a, m in h.atoms))


# -- Gil-Pelaez inversion ----------------------------------------------------

_GL_CACHE: dict = {}


def _gl_rule(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def _gl_panel(a, b, n):
    x, w = _gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


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
    d = np.abs(np.diff(im) / np.diff(probes))
    return float(np.max(d)) if d.size else 0.0


_DYADIC_LEVELS = 150


def _build_nodes(T, omega):
    """Quadrature nodes/weights on (0, T].

    The singular neighborhood (0, t_start] is covered by dyadically
    shrinking Gauss-Legendre panels, which resolve the integrable
    t**(alpha-1) / log(1/t) behavior of the integrand near t = 0.  Above
    t_start the panel width ramps up geometrically, capped at half an
    oscillation pi/omega of e^{-itx} phi(t); the width <= t/2 cap keeps the
    1/t curvature of the integrand resolved near the transition.
    """
    t_start = min(0.5, math.pi / (2.0 * omega), T / 8.0)
    nodes = []
    weights = []
    a = t_start
    for _ in range(_DYADIC_LEVELS):
        x, w = _gl_panel(0.5 * a, a, 16)
        nodes.append(x)
        weights.append(w)
        a *= 0.5
    edges = [t_start]
    t = t_start
    while t < T:
        t = min(T, t + min(0.5 * t, math.pi / omega))
        edges.append(t)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _gl_panel(a, b, 12)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _phase_sums(xs, t, cw_re, cw_im):
    """sum_i [cw_im_i cos(t_i x) - cw_re_i sin(t_i x)] for each x, chunked."""
    out = np.zeros(xs.size)
    xblock = 64
    tblock = 1 << 17
    for i in range(0, xs.size, xblock):
        xb = xs[i:i + xblock, None]
        acc = np.zeros(xb.size)
        for j in range(0, t.size, tblock):
            ph = xb * t[None, j:j + tblock]
            acc += np.cos(ph) @ cw_im[j:j + tblock] - np.sin(ph) @ cw_re[j:j + tblock]
        out[i:i + xblock] = acc
    return out


_ATOM_MARGIN = 64.0  # left-support clearance; the laws here have doubly
                     # exponentially thin lower tails, so jumps this far
                     # above the query range cannot land below it


def _reduce_atoms(h, cut):
    """Split off Levy atoms at positions > cut as a compound-Poisson factor.

    Returns (reduced exponent callable, removed mass M).  For every query
    x < cut - margin, F(x) = exp(-M) * F_reduced(x) exactly: a removed jump
    exceeds the query by more than the law's lower-tail reach.
    """
    removed = [(a, m) for a, m in h.atoms if a > cut]
    if not removed:
        return h, 0.0
    pos = np.array([a for a, _ in removed])
    mass = np.array([m for _, m in removed])

    def reduced(t):
        t = np.asarray(t, dtype=float)
        corr = (mass * (np.exp(1j * np.multiply.outer(t, pos)) - 1.0)).sum(axis=-1)
        return h(t) - corr

    return reduced, float(mass.sum())


def cdf_from_cf(h: CfExponent, x, tol: float = 1e-8):
    """CDF by Gil-Pelaez inversion: F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} phi)/t dt.

    The cutoff T is chosen so exp(Re h(T))/T sits three decades below tol
    (raises InversionError if the search passes 1e6); panel density is
    matched to the oscillation frequency |x| plus the phase slope of phi,
    and the t -> 0 neighborhood is integrated on dyadically refined panels.
    Declared Levy atoms beyond the query range are handled as an exact
    compound-Poisson factor rather than by quadrature (see CfExponent).
    Absolute error target tol (tol >= 1e-10).  Accepts scalar or array x,
    which must be finite.
    """
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    xa = np.asarray(x, dtype=float)
    xs = np.atleast_1d(xa).astype(float).ravel()
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    out = np.empty(xs.size)
    T = _decay_cutoff(h, tol)
    # group query points by magnitude so panel counts track each group's |x|
    absx = np.abs(xs)
    bounds = [32.0]
    while bounds[-1] < max(1.0, absx.max()):
        bounds.append(bounds[-1] * 2.0)
    prev = -1.0
    for b in bounds:
        mask = (absx > prev) & (absx <= b)
        prev = b
        if not np.any(mask):
            continue
        hr, removed_mass = _reduce_atoms(h, b + _ATOM_MARGIN)
        slope = _phase_slope(hr, min(1e-3, T / 100.0), T)
        omega = b + max(4.0, 1.3 * slope)
        t_start = min(0.5, math.pi / (2.0 * omega), T / 8.0)
        slope = _phase_slope(hr, t_start, T)
        omega = b + max(4.0, 1.3 * slope)
        t, w = _build_nodes(T, omega)
        with np.errstate(under="ignore"):
            cw = np.exp(hr(t)) * (w / t)
        vals = _phase_sums(xs[mask], t, np.real(cw), np.imag(cw))
        out[mask] = math.exp(-removed_mass) * (0.5 - vals / math.pi)
    out = np.clip(out, 0.0, 1.0)
    if np.shape(xa) == ():
        return float(out[0])
    return out.reshape(xa.shape)


class TabulatedCdf:
    """Monotone interpolant of a CDF table, clamped to the end values outside.

    Callable on scalars or arrays.  Evaluations outside [x[0], x[-1]] return
    F(x[0]) / F(x[-1]); choose the table span so the clamped tail mass is
    below the accuracy you need.
    """

    def __init__(self, x, f):
        x = np.asarray(x, dtype=float)
        f = np.maximum.accumulate(np.asarray(f, dtype=float))
        self.x_lo = float(x[0])
        self.x_hi = float(x[-1])
        self.f_lo = float(f[0])
        self.f_hi = float(f[-1])
        self._interp = PchipInterpolator(x, f, extrapolate=False)

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        out = self._interp(np.clip(xa, self.x_lo, self.x_hi))
        if np.shape(xa) == ():
            return float(out)
        return out


def tabulate_cdf(h: CfExponent, x_lo: float, x_hi: float, tol: float = 1e-7,
                 max_gap: float = 0.005, init_points: int = 385,
                 body_hi: float = 48.0, tail_tol: float = 1e-5) -> TabulatedCdf:
    """Adaptive CDF table: refine wherever a cell steps more than max_gap in F.

    Points beyond body_hi are evaluated at the looser tail_tol; far-tail
    oscillatory quadrature is expensive and KS-style consumers only need
    absolute accuracy well below their distance tolerance out there.
    """

    def evaluate(xs):
        out = np.empty(xs.size)
        body = xs <= body_hi
        if np.any(body):
            out[body] = cdf_from_cf(h, xs[body], tol)
        if np.any(~body):
            out[~body] = cdf_from_cf(h, xs[~body], max(tol, tail_tol))
        return out

    top = min(x_hi, body_hi)
    grid = np.linspace(x_lo, top, init_points)
    if x_hi > top:
        grid = np.concatenate([grid, np.geomspace(top + 1.0, x_hi, 48)])
    grid = np.unique(grid)
    f = evaluate(grid)
    for _ in range(6):
        gaps = np.abs(np.diff(f))
        coarse = np.nonzero(gaps > max_gap)[0]
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
    """Gamma(p, 1) CDF for integer shape p: 1 - e^{-x} sum_{j<p} x^j/j!."""
    if int(p) != p or p < 1:
        raise ValueError("p must be an integer >= 1")
    p = int(p)
    xa = np.asarray(x, dtype=float)
    out = np.zeros(xa.shape if xa.shape else (1,))
    flat = np.atleast_1d(xa).astype(float)
    pos = flat > 0.0
    xp = flat[pos]
    s = np.ones_like(xp)
    term = np.ones_like(xp)
    for j in range(1, p):
        term = term * xp / j
        s = s + term
    vals = -np.expm1(np.log(s) - xp)
    out = np.zeros(flat.shape)
    out[pos] = vals
    if np.shape(xa) == ():
        return float(out[0])
    return out.reshape(xa.shape)


def levy_cdf(x):
    """CDF of the positive 1/2-stable law with Laplace exponent sqrt(pi s).

    F(x) = erfc(sqrt(pi/(4x))); this is the limit of the sums built on the
    intensity tail T(x) = x**(-1/2) and the LePage series at alpha = 1/2.
    """
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).astype(float)
    out = np.zeros(flat.shape)
    pos = flat > 0.0
    out[pos] = erfc(np.sqrt(math.pi / (4.0 * flat[pos])))
    if np.shape(xa) == ():
        return float(out[0])
    return out.reshape(xa.shape)
