"""Characteristic functions in exponent form, convolution powers and CDF inversion.

Laws are represented as phi(t) = exp(h(t)) with h complex-valued and
h(0) = 0, Re h <= 0.  The exponent form makes fractional convolution
powers branch-free (k * h) and keeps the Gil-Pelaez inversion integrand
well conditioned.  The St. Petersburg limit exponent and its dyadic
merging family live here, together with the closed-form reference
distributions the test suite uses as oracles.

The inversion follows the package's working-set rule (_arrays): it builds
its quadrature weights a slab of nodes at a time and sums phases over
blocks of 64 points, so no temporary holds more than _CHUNK doubles and no
matrix product does more than _CHUNK complex multiply-adds (_slab_plan),
even on the largest node set the budget admits (4e6 nodes).  A law that
states its band (CfExponent) gets panels three times as wide past the first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._arrays import _CHUNK, _check_budget, _check_count, elementwise

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
    """The characteristic function does not decay (no usable cutoff), or its
    phase has a non-finite slope; a work bound raises ResourceLimitError."""


@dataclass(frozen=True)
class CfExponent:
    """Exponent h of a characteristic function phi = exp(h).

    fn must accept a float ndarray of t values and return complex h(t)
    elementwise.

    split, when given, maps a cut to (reduced law, a, Lambda): the law
    without the Levy jumps above cut, as a CfExponent with log_mgf, and the
    removed jumps, which sit at a 2^j (j >= 0) with rates (Lambda/2) 2^-j.
    They form a compound-Poisson variable B on the lattice a N, so
    F(x) = sum_m P(B = m) F_reduced(x - m a) exactly.  Laws with lacunary
    jump atoms (the dyadic limit family) have a merely continuous,
    non-differentiable exponent, which defeats panel quadrature; the
    reduced exponent is entire, and so is its real log-MGF
    log_mgf(s) = log E e^{sY}, whose Chernoff bounds give the reach of the
    reduced law.  Closed-form laws have no split.  band, when given, is the
    largest frequency among the exponent's oscillating terms, the largest
    atom its Levy measure keeps (0 for the closed-form laws); the inversion
    prices its panels from it (_node_count); None, from the phase alone.
    """

    fn: Callable
    split: Callable | None = None
    log_mgf: Callable | None = None
    band: float | None = None

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


# -- the St. Petersburg limit exponent --------------------------------------


# 1 / (j! (1 - 2^(1-j))) for j = 19..2: the small-jump levels l <= l0 sum to
# 2^-l0 sum_{j>=2} z^j / (j! (1 - 2^(1-j))), z = i t 2^l0 (expand e^{iu} - 1 - iu
# and sum the geometric series over l); past j = 19 at |z| < 1/4 is below 1e-24
_SMALL_C = [1.0 / (math.factorial(j) * (1.0 - 2.0 ** (1 - j))) for j in range(19, 1, -1)]
_LAW_TOL = 1e-12  # the family's series tol; the split's cut ends the series first


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
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %s" % tol)
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
        # _CHUNK / 4 points at a time: complex temporaries of _CHUNK / 2
        # doubles, so the level loop stays in cache
        step = _CHUNK // 4
        return np.concatenate([chunk(c) for c in np.split(tt, range(step, tt.size, step))])

    return elementwise(series, t, complex)


def g_gamma_exponent(t, gamma: float, max_jump=None):
    """Exponent of the dyadic merging family: gamma * g(t/gamma) - i t log2(gamma).

    gamma ranges over [1, 2]; the two endpoints give the same law (the
    telescoping identity g(t) = 2 g(t/2) - i t closes the family).  The
    series runs at tol _LAW_TOL.  Its jumps sit at 2^l / gamma with mass
    gamma 2^-l; max_jump drops those above it, as in g_exponent.
    """
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")
    ta = np.asarray(t, dtype=float)
    mj = None if max_jump is None else max_jump * gamma
    return gamma * g_exponent(ta / gamma, _LAW_TOL / gamma, mj) - 1j * ta * math.log2(gamma)


def _dyadic_log_mgf(s, gamma: float, L: int):
    """log E e^{sY}, s real, of the merging-family law with only its jumps
    2^l / gamma, l <= L: the exponent at t = -is, summed level by level down
    to l = -100, below which the levels add under (s/gamma)^2 2^-101."""
    s = np.asarray(s, dtype=float)
    levels = np.arange(-100, L + 1)
    u = np.multiply.outer(s, np.ldexp(1.0 / gamma, levels))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (np.expm1(u) - np.where(levels <= 0, u, 0.0)) * np.ldexp(gamma, -levels)
    return terms.sum(axis=-1) - s * math.log2(gamma)


def petersburg_law() -> CfExponent:
    """The St. Petersburg limit law as a CfExponent."""
    return g_gamma_law(1.0)


def g_gamma_law(gamma: float) -> CfExponent:
    """Member of the merging family at position gamma in [1, 2]."""
    if not (1.0 <= gamma <= 2.0):
        raise ValueError("gamma must lie in [1, 2]")

    def split(cut):
        # the reduced series stops at level L; the jumps 2^l / gamma, l > L,
        # are a 2^j with a = 2^(L+1) / gamma and rates (Lambda/2) 2^-j
        L = _top_level(_LAW_TOL / gamma, cut * gamma)
        reduced = CfExponent(fn=lambda t: g_gamma_exponent(t, gamma, cut),
                             log_mgf=lambda s: _dyadic_log_mgf(s, gamma, L),
                             band=2.0 ** L / gamma)
        return reduced, 2.0 ** (L + 1) / gamma, gamma * 2.0 ** -L

    return CfExponent(fn=lambda t: g_gamma_exponent(t, gamma), split=split)


# -- closed-form reference exponents ----------------------------------------


def cauchy_law(scale: float = 1.0) -> CfExponent:
    """Cauchy exponent -scale*|t|; CDF 1/2 + arctan(x/scale)/pi."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite, got %s" % scale)
    return CfExponent(fn=lambda t: -scale * np.abs(t) + 0j, band=0.0)


def gaussian_law() -> CfExponent:
    """Standard normal exponent -t**2/2."""
    return CfExponent(fn=lambda t: -0.5 * t * t + 0j, band=0.0)


def one_sided_stable_exponent(alpha: float, c: float = 1.0) -> CfExponent:
    """Positive stable law with tail constant c: h(t) = -c Gamma(1-alpha) (-it)**alpha.

    alpha must lie in (0, 1).  Principal branch:
    h(t) = -c Gamma(1-alpha) |t|**alpha exp(-i sign(t) pi alpha / 2), which is
    the analytic continuation of the Laplace exponent c Gamma(1-alpha) s**alpha
    of the sum of Poisson points with intensity tails c x**(-alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < c < math.inf:
        raise ValueError("c must be positive and finite, got %s" % c)
    scale = c * math.gamma(1.0 - alpha)
    # exp(-i sign(t) pi alpha / 2) for sign(t) = -1, 0, 1, picked per node
    phases = np.exp(-0.5j * math.pi * alpha * np.array([-1.0, 0.0, 1.0]))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return -scale * np.abs(t) ** alpha * phases[np.sign(t).astype(int) + 1]

    return CfExponent(fn=fn, band=0.0)


def convolution_power(h: CfExponent, k: float) -> CfExponent:
    """The law with characteristic function phi**k, exact in exponent form.

    Its split keeps the lattice spacing and scales the removed rate by k;
    its band is the base law's."""
    if not 0.0 < k < math.inf:
        raise ValueError("power k must be positive and finite, got %s" % k)
    k, base, base_split, base_mgf = float(k), h.fn, h.split, h.log_mgf
    split = log_mgf = None
    if base_split is not None:
        def split(cut):
            reduced, spacing, rate = base_split(cut)
            return convolution_power(reduced, k), spacing, k * rate
    if base_mgf is not None:
        def log_mgf(s):
            return k * base_mgf(s)
    return CfExponent(fn=lambda t: k * base(np.asarray(t, dtype=float)), split=split,
                      log_mgf=log_mgf, band=h.band)


# -- Gil-Pelaez inversion ----------------------------------------------------

def _tanh_sinh_rule():
    """The 55-node tanh-sinh rule on (0, 1] (Takahasi & Mori 1974): nodes
    1/(1 + e^(-2u)), u = (pi/2) sinh(k/6), k = -27..27, and weights
    (pi/24) cosh(k/6) / cosh(u)^2.  It integrates an analytic integrand and
    a t**(alpha-1) or log(1/t) end at 0 alike to rounding.  The node nearest
    0 is about 5e-62; as (1 + tanh u)/2 it would round to 0."""
    s = np.arange(-27, 28) / 6.0
    u = 0.5 * math.pi * np.sinh(s)
    return 1.0 / (1.0 + np.exp(-2.0 * u)), math.pi / 24.0 * np.cosh(s) / np.cosh(u) ** 2


_HEAD_T, _HEAD_W = _tanh_sinh_rule()
_gl_rule = functools.cache(leggauss)  # on first use: its eigensolver loads LAPACK


def _decay_cutoff(h, tol):
    """Smallest dyadic cutoff T = 8 2^j <= 1e6 with exp(Re h)/t safely below
    tol at T, 1.25 T and 1.6 T; every T's probes go in one exponent call."""
    probes = np.ldexp(8.0, np.arange(17))[:, None] * np.array([1.0, 1.25, 1.6])
    with np.errstate(under="ignore"):
        ok = np.all(np.exp(np.real(h(probes.ravel()))).reshape(probes.shape) / probes
                    < tol * 1e-3, axis=1)
    if not ok.any():
        raise InversionError(
            "characteristic function does not decay (cutoff search passed 1e6)")
    return float(probes[ok.argmax(), 0])


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


_LATTICE_BUDGET = 1 << 20  # lattice pmf points per cdf_from_cf call; the far
                           # pmf reaches |x| / a, a in (2, 4], so |x| <= 2e6 at
                           # every gamma (1e6 takes 3.8e5 at gamma 1.5, 36 ms)
_NODE_BUDGET = 1 << 22  # nodes in one node set: the dyadic family's far points
                        # share one small set at any |x|; a closed-form law's, of
                        # band 0, grows like 4 T |x| / pi (Cauchy, T = 32: |x| <= 6.5e4)
_WORK_BUDGET = 1 << 29  # reduced point x node products per call; 2-core x86, one
                        # thread per product: 0.35 s for 1e5 points, |x| <= 32, on
                        # 2,656 nodes, 0.2 s for 120 Cauchy points near 3e4 on 1.3e6,
                        # 50x the largest call the tests and the benchmark make


def _node_count(T, omega, band=None):
    """(K, node count, span) of _build_nodes(T, omega, band): K 12-node panels
    above the 55-node head on span = ceil((T - t0)/delta) half-oscillations
    delta = pi/omega past t0 = delta/2, the first [t0, 3 t0], the rest at
    most 3 pi/(omega + band) and at least delta wide (K = span without a
    band).  Floats; np.ceil keeps an overflowing T omega at inf."""
    span = np.ceil(T * omega / math.pi - 0.5)
    f = 1.0 if band is None else min(1.0, (1.0 + band / omega) / 3.0)
    K = 1.0 + np.ceil((span - 1.0) * f)
    return K, _HEAD_T.size + 12.0 * K, span


def _build_nodes(T, omega, band=None):
    """Quadrature nodes/weights of the inversion on (0, T], as a head and a bulk.

    With delta = pi/omega half an oscillation of e^{-itx} phi(t) and
    t0 = delta/2, the head covers (0, t0] with the 55-node tanh-sinh rule,
    the same for every law: it resolves an integrand that is analytic at
    t = 0 and one that behaves like t**(alpha-1) or log(1/t) there.  The
    bulk is the K 12-point Gauss-Legendre panels of _node_count on
    [t0, t0 + span delta]: [t0, 3 t0], then equal panels over at most three
    half-oscillations of the top frequency omega + band, on which one errs
    by about 2e-15 of its length.  Returns (t_head, w_head, (start, width,
    panels)): the head nodes, with the first panel's where the rest are
    wider, and the equal panels, which _bulk_phase_sums builds a slab at a
    time (_bulk_nodes); the last ends past T, below the cutoff's bound.
    """
    K, _, span = (int(v) for v in _node_count(T, omega, band))
    delta = math.pi / omega
    t0 = 0.5 * delta
    if K == span:
        return t0 * _HEAD_T, t0 * _HEAD_W, (t0, delta, K)
    t, w = _bulk_nodes(t0, delta, 1)
    return (np.concatenate([t0 * _HEAD_T, t[0]]), np.concatenate([t0 * _HEAD_W, w[0]]),
            (3.0 * t0, delta * (span - 1) / (K - 1), K - 1))


def _bulk_nodes(t0, delta, stop, start=0):
    """(stop - start, 12) nodes t0 + k delta + s_j and weights of the equal
    panels k = start .. stop - 1."""
    x, w = _gl_rule(12)
    s = 0.5 * delta * (1.0 + x)
    t = t0 + (delta * np.arange(start, stop))[:, None] + s
    return t, np.broadcast_to(0.5 * delta * w, t.shape)


_XBLOCK = 64  # points per block of the phase sums


def _phase_sums(xs, t, cw):
    """Im sum_i cw_i e^{-i t_i x} for each x, a cosine and a sine per node
    and point; _invert runs it on the head nodes, _XBLOCK points at a time."""
    cw_re, cw_im = np.real(cw), np.imag(cw)
    out = np.empty(xs.size)
    for i in range(0, xs.size, _XBLOCK):
        ph = np.multiply.outer(xs[i:i + _XBLOCK], t)
        out[i:i + _XBLOCK] = np.cos(ph) @ cw_im - np.sin(ph, out=ph) @ cw_re
    return out


def _slab_plan(K):
    """(B, rows, tile) for _bulk_phase_sums over K panels.

    C has rows of B panels (12 B nodes); a slab is at most `rows` rows and
    a product `tile` rows.  A product of a block's U (64 x 12 B) by a tile
    does 64 x 12 B x tile <= _CHUNK complex multiply-adds, and the tile is
    a multiple of 4 rows (such tiles ran 1.3-2.3x faster per multiply-add
    than tiles of 2, 7 or 10 rows, OpenBLAS 0.3.31 on a 2-CPU x86 host), so
    B, about sqrt(K/12), is at most 10.
    A slab's weights C and a block's U, V and U @ C^T hold at most
    _CHUNK / 2 complex values each.  A one-point block multiplies as a
    matrix-vector product of 12 B x tile <= _CHUNK / 64 elements."""
    half = _CHUNK // 2
    B = max(1, min(round(math.sqrt(K / 12.0)), _CHUNK // (_XBLOCK * 12 * 4)))
    tile = _CHUNK // (_XBLOCK * 12 * B) // 4 * 4
    rows = min(half // (12 * B), half // _XBLOCK) // tile * tile
    return B, rows, tile


def _row_factors(xb, step, a0, n):
    """V[x, a] = e^{-i (a0 + a) step x}, a < n, for the column of points xb:
    an exponential every eighth row, times the powers z^r (r < 8) of
    z = e^{-i step x}, so each factor takes at most 7 products."""
    z = np.repeat(np.exp(-1j * step * xb), 8, axis=1)
    z[:, 0] = 1.0
    anchors = np.exp(-1j * (xb * (step * np.arange(a0, a0 + n, 8))))
    return (anchors[:, :, None] * np.cumprod(z, axis=1)[:, None, :]).reshape(xb.size, -1)[:, :n]


def _bulk_phase_sums(xs, law, t0, delta, K):
    """_phase_sums over the K bulk panels of _bulk_nodes(t0, delta, K), with
    weights exp(law(t)) w / t.

    With panel k = a B + b (_slab_plan), a node is
    t = t0 + a B delta + (b delta + s_j), so
    sum cw e^{-itx} = e^{-i t0 x} sum_a V[x, a] (U @ C^T)[x, a], where
    U[x, (b, j)] = e^{-i b delta x} e^{-i s_j x}, V[x, a] = e^{-i a B delta x}
    and C[a, (b, j)] is the weight of node t, zero past panel K.  U is an
    outer product, so per point and slab that is B + 12 complex
    exponentials, plus one per eight rows of C (_row_factors), instead of
    12 K cosines and sines.
    C is built one slab of rows at a time, the law evaluated on that slab's
    nodes alone; for each block of 64 points U @ C^T is one stacked matmul
    over the slab's tiles, a BLAS product per tile (_slab_plan bounds each),
    and its sum with V is added into the block's total.
    """
    B, rows, tile = _slab_plan(K)
    A = -(-K // B)
    offsets = _bulk_nodes(0.0, delta, 1)[0][0]
    steps = delta * np.arange(B)
    s = np.zeros(xs.size, dtype=complex)
    for a0 in range(0, A, rows):
        n_rows = -(-min(rows, A - a0) // tile) * tile  # whole tiles
        t, w = _bulk_nodes(t0, delta, min((a0 + n_rows) * B, K), a0 * B)
        C = np.zeros((n_rows * B, 12), dtype=complex)
        with np.errstate(under="ignore"):
            C[:t.shape[0]] = np.exp(law(t)) * (w / t)
        C = C.reshape(-1, tile, 12 * B).transpose(0, 2, 1)  # tiles of C^T
        for i in range(0, xs.size, _XBLOCK):
            xb = xs[i:i + _XBLOCK, None]
            u = (np.exp(-1j * (xb * steps))[:, :, None]
                 * np.exp(-1j * (xb * offsets))[:, None, :]).reshape(xb.size, 12 * B)
            v = _row_factors(xb, B * delta, a0, n_rows).reshape(xb.size, -1, tile)
            s[i:i + _XBLOCK] += np.einsum("itk,tik->i", v, u @ C)
    return np.imag(np.exp(-1j * t0 * xs) * s)


_ATOM_MARGIN = 64.0  # near groups (b <= 64) cut at b + 64: every removed jump
                     # then lies past the query range plus the reduced law's
                     # reach below 0, so only m = 0 of the lattice sum is left
_FAR_CUT = 2.0  # far groups (b > 64) cut here, doubled until the removed
                # rate is at most 1; their reduced points all lie in |y| <= 32
_REACH_TOL = 0.1  # relative to tol: the mass the reach may drop on each side
_CHERNOFF_S = 2.0 ** (np.arange(-40, 81) / 4.0)  # 2^-10 .. 2^20


def _reach(law, eps):
    """(lo, hi) with F(-lo) <= eps and 1 - F(hi) <= eps by Chernoff bounds,
    P(Y >= y) <= e^{-s y} E e^{sY}, on a geometric grid of s > 0; laws with
    no log_mgf reach (inf, inf)."""
    if law.log_mgf is None:
        return math.inf, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = [np.nanmin((law.log_mgf(side * _CHERNOFF_S) - math.log(eps)) / _CHERNOFF_S)
                  for side in (-1.0, 1.0)]
    return float(bounds[0]), float(bounds[1])


def _lattice_pmf(rate, M):
    """P(B = m), m = 0..M, for the compound-Poisson B with jumps 2^j
    (j >= 0) at rates (rate/2) 2^-j: the pmf of Panjer's recursion
    p_0 = e^-rate, p_m = (rate/2m) sum_{2^j <= m} p_{m-2^j}.

    B = N + 2 B' with N ~ Poisson(rate/2) and B' the same variable at half
    the rate, independent.  So from the level where M >> i = 0 down, each
    halving level is one convolution of the upsampled pmf with a Poisson
    pmf, cut 32 + 12 sqrt(mu) terms past its mean mu: log2 M array
    operations in all."""
    levels = M.bit_length()
    p = np.array([math.exp(-rate * 2.0 ** -levels)])
    for i in range(levels - 1, -1, -1):
        mu = rate * 2.0 ** -(i + 1)
        n = 32 + math.ceil(mu + 12.0 * math.sqrt(mu))
        poisson = math.exp(-mu) * np.cumprod(np.concatenate([[1.0], mu / np.arange(1.0, n)]))
        up = np.zeros((M >> i) + 1)
        up[::2] = p
        p = np.convolve(up, poisson)[:up.size]
    return p


def _lattice_terms(xs, spacing, rate, lo, hi):
    """F(x) = P(B a < x - hi) + sum_m p_m F_reduced(x - m a) over the m with
    x - m a in [-lo, hi], for a = spacing.  Returns the reduced points y, the
    index of the x each belongs to, their weights p_m, and P(B a < x - hi)
    per x."""
    m_lo = np.maximum(np.ceil((xs - hi) / spacing), 0.0).astype(np.int64)
    m_hi = np.maximum(np.floor((xs + lo) / spacing), -1.0).astype(np.int64)
    count = np.maximum(m_hi - m_lo + 1, 0)
    owner = np.repeat(np.arange(xs.size), count)
    m = m_lo[owner] + (np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count))
    pmf = _lattice_pmf(rate, int(m_hi.max(initial=0)))
    below = np.concatenate([[0.0], np.cumsum(pmf)])  # m_lo <= m_hi + 1, as lo + hi > 0
    return xs[owner] - m * spacing, owner, pmf[m], below[m_lo]


def cdf_from_cf(h: CfExponent, x, tol: float = 1e-8):
    """CDF by Gil-Pelaez inversion: F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} phi)/t dt.

    The cutoff T is chosen so exp(Re h(T))/T sits three decades below tol
    (raises InversionError if the search passes 1e6); panel density is
    matched to the oscillation frequency |x| plus the phase slope of phi
    (InversionError if not finite), and for a law with a band, panels past
    the first span three half-oscillations of that plus the band; the t -> 0
    neighborhood is one 55-node tanh-sinh rule for every law, which resolves
    an analytic integrand and a t**(alpha-1) or log(1/t) one alike
    (_build_nodes).  Absolute error
    target tol, finite and >= 1e-10 (else ValueError), for a law whose
    exponent is smooth away from 0 or that has a split: an unsplit
    lacunary exponent, such as CfExponent(fn=g_exponent), defeats the panel
    rule and misses its law by about 2.5e-4, with no error.  Accepts scalar
    or array x, which must be finite.

    Query points are grouped by magnitude, |x| <= b = 32 2^k.  A law with a
    split (the dyadic family) is inverted as the lattice mixture
    F(x) = P(B a < x - hi) + sum_m p_m F_red(x - m a) of CfExponent.split,
    over the m with x - m a in the reduced law's Chernoff reach [-lo, hi],
    which drops at most tol/10 on each side.  Groups with b <= 64 cut at
    b + 64, which leaves m = 0 alone; all farther points share one small
    cut, so their reduced points lie in |y| <= 32 and one reduced-law node
    set serves them at any |x|: x = 1e5 costs about what x = 1e2 does, and
    the lattice pmf adds about 30 ms at 1e6.
    Before any quadrature, raises ResourceLimitError if the lattice pmfs
    would pass _LATTICE_BUDGET points, one node set _NODE_BUDGET nodes, or
    the whole call _WORK_BUDGET point x node products.
    """
    if not 1e-10 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 1e-10, got %s" % tol)
    return elementwise(lambda xs: _invert(h, xs, tol), x)


def _magnitudes(xs):
    """k with |x| <= 32 2^k, per point (k >= 0)."""
    m, e = np.frexp(np.abs(xs) / 32.0)
    return np.maximum(e - (m == 0.5), 0)


def _reduced_laws(h, ks):
    """(points, reduced law, spacing, rate) for each reduced law that serves
    the points of magnitude ks; a law without split serves them all itself."""
    if h.split is None:
        return [(np.ones(ks.size, bool), h, math.inf, 0.0)]
    jobs = [(ks == k, *h.split(32.0 * 2.0 ** k + _ATOM_MARGIN))
            for k in np.unique(ks[ks <= 1]).tolist()]
    if np.any(ks > 1):
        cut = _FAR_CUT
        while (split := h.split(cut))[2] > 1.0:
            cut *= 2.0
        jobs.append((ks > 1, *split))
    return jobs


def _node_plan(law, ys, tol):
    """(points, T, omega, node count) per magnitude group of ys; refuses a
    group past _NODE_BUDGET before any slope probe.  omega = b + max(4, 1.3
    slope), the phase slope probed on [min(1e-3, T/100), T].  A law without
    log_mgf probes again per group, from its head at pi/(2 omega) on: a phase
    singular at 0, like the stable laws', is steepest there, where the head
    rule covers it, so the first probe overprices its bulk (alone it puts
    one_sided_stable_exponent(0.3) at 4,876,207 nodes, over the budget).  An
    entire law's phase is smooth at 0, so one probe serves all its groups; a
    re-probe would add about 0.5 ms per group to calls of a few ms."""
    if not ys.size:
        return []
    T = _decay_cutoff(law, tol)
    ks = _magnitudes(ys)
    # each omega exceeds its b (inf past |x| = 2^1023)
    _check_budget(_node_count(T, 32.0 * 2.0 ** int(ks.max()), law.band)[1], _NODE_BUDGET,
                  "quadrature nodes")
    plan = []
    slope = _phase_slope(law, min(1e-3, T / 100.0), T)
    for k in np.unique(ks).tolist():
        b = 32.0 * 2.0 ** k
        omega = b + max(4.0, 1.3 * slope)
        if law.log_mgf is None:
            omega = b + max(4.0, 1.3 * _phase_slope(law, math.pi / (2.0 * omega), T))
        plan.append((ks == k, T, omega, _node_count(T, omega, law.band)[1]))
    return plan


def _invert(h, xs, tol):
    """cdf_from_cf over the flat float array xs."""
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    out = np.zeros(xs.size)
    if not xs.size:
        return out
    jobs = _reduced_laws(h, _magnitudes(xs))
    reach = [_reach(law, tol * _REACH_TOL) for _, law, *_ in jobs]
    _check_budget(sum(max(0.0, (float(xs[mask].max()) + lo) / spacing) + 1.0
                      for (mask, _, spacing, rate), (lo, _) in zip(jobs, reach) if rate),
                  _LATTICE_BUDGET, "lattice points")
    plan = []
    for (mask, law, spacing, rate), (lo, hi) in zip(jobs, reach):
        idx = np.nonzero(mask)[0]
        if rate:
            ys, owner, weight, below = _lattice_terms(xs[idx], spacing, rate, lo, hi)
            out[idx] = below
        else:
            ys, owner, weight = xs[idx], np.arange(idx.size), np.ones(idx.size)
        plan += [(law, ys[sel], idx[owner[sel]], weight[sel], *group)
                 for sel, *group in _node_plan(law, ys, tol)]
    _check_budget(max((need for *_, need in plan), default=0.0), _NODE_BUDGET,
                  "quadrature nodes")
    _check_budget(sum(ys.size * need for _, ys, *_, need in plan),
                  _WORK_BUDGET, "point x node products")
    for law, ys, owner, weight, T, omega, _ in plan:
        t, w, bulk = _build_nodes(T, omega, law.band)
        with np.errstate(under="ignore"):
            cw = np.exp(law(t)) * (w / t)
        vals = _phase_sums(ys, t, cw) + _bulk_phase_sums(ys, law, *bulk)
        out += np.bincount(owner, weight * (0.5 - vals / math.pi), minlength=out.size)
    return np.clip(out, 0.0, 1.0)


class TabulatedCdf:
    """Monotone cubic (PCHIP) interpolant of a CDF table, clamped outside it.

    Callable on scalars or arrays.  Finite evaluations outside
    [x[0], x[-1]] return F(x[0]) / F(x[-1]); choose the table span so the
    clamped tail mass is below the accuracy you need.  x = -inf / +inf give
    0 / 1, and NaN raises ValueError.  The F column must lie in [0, 1]
    (ValueError), and is made nondecreasing.
    """

    def __init__(self, x, f):
        x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
        if not (x.ndim == 1 and x.shape == f.shape and x.size > 1 and np.all(np.diff(x) > 0)
                and np.all((f >= 0.0) & (f <= 1.0))):
            raise ValueError("a CDF table needs >= 2 increasing x, one F in [0, 1] each")
        f = np.maximum.accumulate(f)
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


_BODY_HI = 48.0  # the table's knee: steps of 1/16 below it, 48 geometric points above
_TABLE_BUDGET = 1 << 20  # table points, refused before the grid is allocated


def tabulate_cdf(h: CfExponent, x_lo: float, x_hi: float,
                 tol: float = 1e-7) -> TabulatedCdf:
    """CDF table on [x_lo, x_hi] from one cdf_from_cf call at tol.

    The grid steps by 1/16 from x_lo up to min(x_hi, _BODY_HI), then takes
    48 geometric points up to x_hi.  For g_gamma_law on [-8, 1024] at
    tol=1e-7 the table is within 6e-7 of the law up to x = 48; above, PCHIP
    between the geometric nodes misses the law's bumps near 2^k/gamma by up
    to 1.3e-3, though the nodes are exact to tol.  The mass it clamps above,
    1 - F(1024), is 1.75e-3 at gamma 1 and 2 and 1.47e-3 at 1.5.  The span
    must be finite with x_lo < x_hi, or ValueError; more than _TABLE_BUDGET
    points raise ResourceLimitError."""
    if not -math.inf < x_lo < x_hi < math.inf:
        raise ValueError("a CDF table needs finite x_lo < x_hi, got %s and %s"
                         % (x_lo, x_hi))
    knee = min(x_hi, max(x_lo, _BODY_HI))
    _check_budget(16.0 * (knee - x_lo) + 1.0, _TABLE_BUDGET, "table points")
    steps = math.floor(16.0 * (knee - x_lo))
    grid = [x_lo + np.arange(steps + 1) / 16.0, [knee]]
    if x_hi > knee:
        grid.append(np.geomspace(knee + 1.0, x_hi, 48) if x_hi > knee + 1.0 else [x_hi])
    grid = np.unique(np.concatenate(grid))
    return TabulatedCdf(grid, cdf_from_cf(h, grid, tol))


# -- closed-form reference CDFs ---------------------------------------------


def erlang_cdf(p: int, x):
    """Gamma(p, 1) CDF for integer shape p: 1 - e^{-x} sum_{j<p} x^j/j!.

    x = +inf gives 1; NaN raises ValueError."""
    p = _check_count(p, "p", 1)

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
