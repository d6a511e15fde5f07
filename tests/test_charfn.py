import cmath
import hashlib
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, ndtr

from semistable._arrays import _CHUNK, _GL12, ResourceLimitError
from semistable.charfn import (_LONG_CHAIN, _NODE_BUDGET, _RENORM, _SMALL_C, _XBLOCK,
                               CfExponent, InversionError,
                               TabulatedCdf, _build_nodes, _bulk_nodes, _decay_cutoff,
                               _bulk_phase_sums, _node_count, _node_plan, _phase_sums, _reach,
                               _row_factors, _slab_plan, _top_level, cauchy_law,
                               cdf_from_cf, convolution_power, erlang_cdf,
                               g_exponent, g_gamma_exponent, g_gamma_law,
                               gaussian_law, levy_cdf,
                               one_sided_stable_exponent, petersburg_law,
                               tabulate_cdf)

# Frozen reference values for the dyadic series exponent, computed with a
# 60-digit mpmath evaluation of 400 terms on each side (see oracle below).
G_REFERENCE = {
    0.5: complex(-1.188514711792948321542, 0.5952564149600580634888),
    1.0: complex(-2.377029423585896643083, 0.1905128299201161269777),
    2.0: complex(-4.754058847171793286167, -1.618974340159767746045),
    5.0: complex(-11.54600980517888981104, -11.41627384539015191235),
    10.0: complex(-23.09201961035777962208, -32.83254769078030382469),
}


def g_series_oracle(t, dps=50, terms=400):
    """Brute-force high-precision evaluation of the dyadic series."""
    import mpmath as mp
    with mp.workdps(dps):
        t = mp.mpf(t)
        s = mp.mpc(0)
        for l in range(0, -terms - 1, -1):
            u = t * mp.mpf(2) ** l
            s += (mp.e ** (1j * u) - 1 - 1j * u) * mp.mpf(2) ** (-l)
        for l in range(1, terms + 1):
            u = t * mp.mpf(2) ** l
            s += (mp.e ** (1j * u) - 1) * mp.mpf(2) ** (-l)
        return complex(s)


def test_frozen_values_match_oracle():
    # regenerate the frozen constants from the independent series oracle
    for t, ref in G_REFERENCE.items():
        assert abs(g_series_oracle(t) - ref) < 1e-18


def test_g_matches_oracle():
    for t, ref in G_REFERENCE.items():
        assert abs(g_exponent(t) - ref) < 1e-12


def test_g_basic_identities():
    assert g_exponent(0.0) == 0
    assert g_exponent(-3.0) == np.conj(g_exponent(3.0))
    ts = np.linspace(-50.0, 50.0, 1001)
    ts = ts[ts != 0.0]
    err = np.abs(g_exponent(ts) - (2.0 * g_exponent(ts / 2.0) - 1j * ts))
    assert err.max() < 1e-10
    assert np.all(np.real(g_exponent(ts)) <= 0.0)


def test_g_gamma_family():
    ts = np.linspace(-20.0, 20.0, 101)
    assert np.allclose(g_gamma_exponent(ts, 1.0), g_exponent(ts), atol=1e-14)
    # family closes: the endpoint laws coincide
    assert np.max(np.abs(g_gamma_exponent(ts, 2.0) - g_exponent(ts))) < 1e-10
    rng = np.random.default_rng(3)
    t = rng.uniform(-40, 40, 100)
    mod = np.abs(np.exp(g_gamma_exponent(t, 1.375)))
    assert np.all(mod <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        g_gamma_exponent(1.0, 0.99)
    with pytest.raises(ValueError):
        g_gamma_exponent(1.0, 2.01)


def test_exponent_invariants_builtin_laws():
    rng = np.random.default_rng(11)
    t = rng.uniform(-30, 30, 200)
    for law in (petersburg_law(), g_gamma_law(1.5), cauchy_law(), gaussian_law(),
                one_sided_stable_exponent(0.5)):
        h = law(t)
        assert np.all(np.real(h) <= 1e-15)
        assert abs(complex(law(np.array([0.0]))[0])) == 0.0
        assert np.allclose(law(-t), np.conj(h), atol=1e-12)


def test_small_t_and_level_boundaries_match_oracle():
    # l0 steps where |t| crosses a power of two; the lower levels below it
    # are summed in closed form, the ones above it term by term
    ts = [1e-9, 1e-3] + [2.0 ** m * f for m in range(-3, 6)
                         for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    for t in ts:
        assert abs(g_exponent(t) - g_series_oracle(t)) < 1e-12
    # per point, so a value does not depend on the batch it is evaluated in
    assert np.array_equal(g_exponent(np.array(ts)), [g_exponent(t) for t in ts])


def _g_exponent_out_of_place(tt, tol=1e-12, max_jump=None, renorm=True):
    """g_exponent's series on a float array, each step in a new array: the
    reference the in-place accumulation must equal bit for bit (without
    renorm, the plain squaring chain)."""
    l0 = np.minimum(0, -np.frexp(tt)[1] - 2)
    z = 1j * np.ldexp(tt, l0)
    total = np.zeros(tt.shape, dtype=complex)
    for c in _SMALL_C:
        total = total * z + c
    total = total * z * z * np.ldexp(1.0, -l0)
    comp = np.zeros(tt.shape, dtype=complex)
    e = e1 = np.exp(1j * np.ldexp(tt, l0 + 1))
    top = _top_level(tol, max_jump)
    for l in range(int(l0.min(initial=0)) + 1, top + 1):
        e = e * e if l > 1 else np.where(l > l0 + 1, e * e, e1)
        # a chain of more than _LONG_CHAIN levels is renormed every _RENORM
        if renorm:
            e = np.where((top - l0 > _LONG_CHAIN) & (l > l0 + 1) & (l % _RENORM == 0),
                         e / np.abs(e), e)
        term = e - 1.0
        if l <= 0:
            term = np.where(l > l0, term - 1j * np.ldexp(tt, l), 0.0)
        y = term * 2.0 ** float(-l) - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


@pytest.mark.parametrize("tol, max_jump", [(1e-12, None), (1e-8, None), (1e-12, 34.0),
                                           (1e-12, 2.0 ** 40), (1e-3, 4.0)])
def test_g_exponent_in_place_keeps_every_bit(tol, max_jump):
    # the decay probes (both signs), two node sets of the inversion and single
    # points: numpy rounds a complex product in place on one point otherwise
    probes = (np.ldexp(8.0, np.arange(17))[:, None] * np.array([1.0, 1.25, 1.6])).ravel()
    grids = [probes, -probes, _all_nodes(16.0, 40.0)[0], _all_nodes(32.0, 100.0, 8.0)[0],
             np.geomspace(1e-12, 1e3, _CHUNK // 4 + 1)]  # one chunk, then one point
    for ts in grids + [np.array([t]) for t in probes[::5]]:
        want = _g_exponent_out_of_place(ts, tol, max_jump)
        assert g_exponent(ts, tol, max_jump).tobytes() == want.tobytes()


LARGE_T = [16.0, 31.9, 100.0, -700.3, 1000.0]


@pytest.mark.parametrize("t", LARGE_T)
def test_g_matches_oracle_at_large_t(t):
    # one exponential at level l0 + 1 ~ -log2|t|, squared up to level 43:
    # the longest squaring chains; the bound adds one ulp of |g| (up to 1e4)
    want = g_series_oracle(t)
    assert abs(g_exponent(t) - want) < 1e-12 + 2e-16 * abs(want)


@pytest.mark.parametrize("cut", [96.0, 1088.0])
def test_reduced_exponent_matches_oracle_at_large_t(cut):
    gamma = 1.5
    reduced, *_ = g_gamma_law(gamma).split(cut)
    for t in LARGE_T:
        tg = t / gamma
        atoms = sum(2.0 ** -l * (cmath.exp(1j * math.ldexp(tg, l)) - 1.0)
                    for l in range(1, 80) if 2.0 ** l > cut * gamma)
        want = gamma * (g_series_oracle(tg) - atoms) - 1j * t * math.log2(gamma)
        assert abs(reduced(t) - want) < 1e-12 + 2e-16 * abs(want)


def _g_per_level(tt, tol=1e-12):
    """g_exponent's series with a fresh exponential at every level: the
    reference for the squaring chains, in plain sums."""
    l0 = np.minimum(0, -np.frexp(tt)[1] - 2)
    z = 1j * np.ldexp(tt, l0)
    total = np.zeros(tt.shape, dtype=complex)
    for c in _SMALL_C:
        total = total * z + c
    total = total * z * z * np.ldexp(1.0, -l0)
    for l in range(int(l0.min(initial=0)) + 1, _top_level(tol) + 1):
        x = np.ldexp(tt, l)
        term = np.expm1(1j * x) - (1j * x if l <= 0 else 0.0)
        total += np.where(l > l0, term, 0.0) * 2.0 ** -l
    return total


def test_g_exponent_is_right_at_every_t():
    # the squaring chain from level l0 + 1 to 43 compounded |e|'s rounding:
    # g(1e6) read 8.3e122 - 6.4e122j, Re g turned positive from t = 3.9e4 and
    # g(1e8) was NaN after overflow warnings; a chain of more than
    # _LONG_CHAIN levels now has its modulus reset every _RENORM levels, and
    # every term keeps its rounding
    t = np.geomspace(1e-3, 1e6, 4001)
    t = np.concatenate([t, -t])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {"g": g_exponent(t), "far": g_exponent(np.array([1e8, -3e9, 1e12]))}
        for gamma in (1.0, 1.37, 1.5, 2.0):
            want = gamma * _g_per_level(t / gamma, 1e-12 / gamma) - 1j * t * math.log2(gamma)
            for h in (g_gamma_exponent(t, gamma), g_gamma_law(gamma).fn(t)):
                assert np.all(np.abs(h - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    want = _g_per_level(t)
    assert np.all(np.abs(got["g"] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert np.all(got["g"].real <= 0.0) and np.all(got["far"].real < 0.0)
    assert g_exponent(1e6) == pytest.approx(-2.3593889349e6 - 1.9750631959e7j, rel=1e-10)


@pytest.mark.parametrize("t", [3.9e4, 1e5, -7.77e5, 1e6])
def test_g_exponent_far_values_match_mpmath(t):
    # the same series (levels up to 43 at tol 1e-12) at 40 digits
    import mpmath as mp
    with mp.workdps(40):
        want = mp.mpc(0)
        for l in range(-200, _top_level(1e-12) + 1):
            x = mp.mpf(t) * mp.mpf(2) ** l
            want += (mp.expj(x) - 1 - (1j * x if l <= 0 else 0)) * mp.mpf(2) ** -l
    assert abs(g_exponent(t) - complex(want)) <= 1e-13 * abs(complex(want))


def test_short_chains_take_no_renorm(monkeypatch):
    # the inversion's reduced laws stop their series at the cut (chains of at
    # most 14 levels), and every |t| < 512 at tol 1e-12 has a chain of at most
    # _LONG_CHAIN levels: neither takes a modulus, and both keep the bits of
    # the plain squaring chain
    taken = []
    monkeypatch.setattr(np, "abs", lambda x, *a, **k: taken.append(x.size) or np.absolute(x))
    probes = (np.ldexp(8.0, np.arange(17))[:, None] * np.array([1.0, 1.25, 1.6])).ravel()
    for gamma in (1.0, 1.5):
        for cut in (34.0, 96.0, 1088.0, 2.0 ** 14):
            g_gamma_law(gamma).split(cut)[0](probes)
    short = np.geomspace(1e-9, 511.0, 1001)
    got = g_exponent(short)
    assert taken == []
    assert got.tobytes() == _g_exponent_out_of_place(short, renorm=False).tobytes()
    g_exponent(512.0)
    assert taken == [1, 1]  # at levels 0 and 24


def test_exponent_chunks_match_per_point_calls():
    # more points than one pass of the level loop takes, with magnitudes (so
    # first levels) mixed inside each pass
    rng = np.random.default_rng(16)
    t = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-6.0, 3.0, 20000)
    t[[0, 8191, 8192, 12345]] = 0.0, 1e3, -1e-9, 64.0
    got = g_exponent(t)
    assert np.array_equal(got, np.concatenate([g_exponent(p) for p in np.array_split(t, 37)]))
    picks = np.r_[0:t.size:97, 8189:8196]
    assert np.array_equal(got[picks], [g_exponent(t[i]) for i in picks])


def old_split(gamma, cut, t):
    """Full series minus an explicit outer product over the atoms above cut."""
    levels = np.arange(1, 61)
    pos, mass = 2.0 ** levels / gamma, gamma * 2.0 ** -levels.astype(float)
    pos, mass = pos[pos > cut], mass[pos > cut]
    corr = (mass * (np.exp(1j * np.multiply.outer(t, pos)) - 1.0)).sum(axis=-1)
    return g_gamma_exponent(t, gamma) - corr


@pytest.mark.parametrize("gamma", [1.0, 1.3, 1.5, 2.0])
def test_split_matches_atom_outer_product(gamma):
    t = np.concatenate([np.linspace(-64.0, 64.0, 257),
                        np.random.default_rng(5).uniform(-200.0, 200.0, 200)])
    law = petersburg_law() if gamma == 1.0 else g_gamma_law(gamma)
    for cut in [2.0 ** k for k in range(3, 13)] + [96.0, 1088.0, 3000.0]:
        reduced, spacing, removed = law.split(cut)
        assert np.max(np.abs(reduced(t) - old_split(gamma, cut, t))) < 1e-12
        atoms = [gamma * 2.0 ** -l for l in range(1, 1000) if 2.0 ** l / gamma > cut]
        assert removed == pytest.approx(math.fsum(atoms), rel=1e-15)
        # the removed jumps are spacing 2^j with rates (removed/2) 2^-j
        assert spacing == min(2.0 ** l / gamma for l in range(1, 80) if 2.0 ** l / gamma > cut)
        assert atoms[0] == 0.5 * removed


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1.0, 2.0), cut=st.floats(0.5, 1e7),
       t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
def test_reduced_exponent_properties(gamma, cut, t):
    reduced, spacing, removed = g_gamma_law(gamma).split(cut)
    t = np.array(t)
    h = reduced(t)
    assert reduced(np.array([0.0]))[0] == 0
    assert np.all(np.real(h) <= 1e-15)
    assert np.allclose(reduced(-t), np.conj(h), rtol=0.0, atol=1e-12)
    assert 0.0 < removed <= gamma and spacing > cut


def test_convolution_power():
    c = cauchy_law()
    t = np.linspace(-5, 5, 41)
    assert np.allclose(convolution_power(c, 1.0)(t), c(t))
    # Cauchy stability: phi^2 is the scale-2 Cauchy
    assert np.allclose(convolution_power(c, 2.0)(t), cauchy_law(2.0)(t))
    g = petersburg_law()
    half = convolution_power(g, 0.5)
    back = convolution_power(half, 2.0)
    assert np.max(np.abs(back(t) - g(t))) < 1e-14
    # the split scales with the power: phi^k keeps the jumps, k times the mass
    fn, spacing, removed = g.split(96.0)
    half_fn, half_spacing, half_removed = half.split(96.0)
    assert half_removed == 0.5 * removed and half_spacing == spacing
    assert np.array_equal(half_fn(t), 0.5 * fn(t))
    s = np.linspace(-20.0, 3.0, 24)
    assert np.array_equal(half_fn.log_mgf(s), 0.5 * fn.log_mgf(s))
    assert c.split is None and convolution_power(c, 2.0).split is None
    with pytest.raises(ValueError):
        convolution_power(c, 0.0)


def test_merging_family_two_code_paths():
    # gamma*g(t/gamma) via the family formula vs the convolution-power route
    gamma = 1.5
    t = np.linspace(-30, 30, 101)
    a = g_gamma_exponent(t, gamma) + 1j * t * math.log2(gamma)
    b = convolution_power(petersburg_law(), gamma)(t / gamma)
    assert np.max(np.abs(a - b)) < 1e-12


def test_one_sided_stable_exponent_form():
    law = one_sided_stable_exponent(0.5, 1.0)
    h1 = law(np.array([1.0]))[0]
    expect = -math.sqrt(math.pi) * complex(math.cos(math.pi / 4),
                                           -math.sin(math.pi / 4))
    assert abs(h1 - expect) < 1e-14
    assert abs(abs(np.exp(h1)) - math.exp(-math.sqrt(math.pi / 2))) < 1e-14
    with pytest.raises(ValueError):
        one_sided_stable_exponent(1.0)
    with pytest.raises(ValueError):
        one_sided_stable_exponent(0.5, c=-1.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.77])
def test_one_sided_stable_phases_match_per_node_exponentials(alpha):
    # the two unit phases are computed once and picked by the sign of t; the
    # values stay bit for bit those of one exponential per node
    t = np.concatenate([np.linspace(-50.0, 50.0, 2001),
                        [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1.7e308]])
    scale = 2.5 * math.gamma(1.0 - alpha)
    old = -scale * np.abs(t) ** alpha * np.exp(-0.5j * math.pi * alpha * np.sign(t))
    new = one_sided_stable_exponent(alpha, 2.5)(t)
    assert new.dtype == complex and np.array_equal(new.view(np.uint64), old.view(np.uint64))


# -- inversion ----------------------------------------------------------------

def test_cdf_cauchy():
    law = cauchy_law()
    assert cdf_from_cf(law, 0.0) == pytest.approx(0.5, abs=1e-8)
    assert cdf_from_cf(law, 1.0) == pytest.approx(0.75, abs=1e-8)
    xs = np.linspace(-10, 10, 41)
    assert np.max(np.abs(cdf_from_cf(law, xs) - (0.5 + np.arctan(xs) / np.pi))) < 1e-6
    # far tails agree with the closed form (which itself approaches 0/1)
    far = cdf_from_cf(law, np.array([-1000.0, 1000.0]))
    exact = 0.5 + np.arctan(np.array([-1000.0, 1000.0])) / np.pi
    assert np.max(np.abs(far - exact)) < 1e-8
    assert far[0] < 4e-4 and 1.0 - far[1] < 4e-4


def test_cdf_gaussian():
    pts = np.array([0.0, 1.0, -1.0, 1.959964])
    assert np.max(np.abs(cdf_from_cf(gaussian_law(), pts) - ndtr(pts))) < 1e-6


def test_cdf_one_sided_stable_round_trip():
    law = one_sided_stable_exponent(0.5, 1.0)
    xs = np.geomspace(0.1, 100.0, 41)
    assert np.max(np.abs(cdf_from_cf(law, xs) - levy_cdf(xs))) < 1e-6


def test_cdf_monotone_in_x():
    xs = np.linspace(-8.0, 30.0, 191)
    f = cdf_from_cf(petersburg_law(), xs)
    assert np.all(np.diff(f) >= -1e-8)


def test_cdf_tol_validation_and_failure():
    with pytest.raises(ValueError):
        cdf_from_cf(cauchy_law(), 0.0, tol=1e-12)
    degenerate = CfExponent(fn=lambda t: np.zeros(np.shape(t), dtype=complex))
    with pytest.raises(InversionError):
        cdf_from_cf(degenerate, 0.5)


@pytest.mark.parametrize("call, name", [
    # a NaN tol raised InversionError ("does not decay"); inf returned a value
    (lambda: cdf_from_cf(gaussian_law(), 0.5, tol=math.nan), "tol"),
    (lambda: cdf_from_cf(gaussian_law(), 0.5, tol=math.inf), "tol"),
    # warned "All-NaN slice"
    (lambda: tabulate_cdf(gaussian_law(), -1.0, 1.0, tol=math.nan), "tol"),
    (lambda: g_exponent(1.0, tol=math.inf), "tol"),
    # inf gave F = 0.5 everywhere, NaN "does not decay"
    (lambda: cauchy_law(math.inf), "scale"),
    (lambda: cauchy_law(math.nan), "scale"),
    # accepted, to warn invalid values on evaluation
    (lambda: one_sided_stable_exponent(0.5, c=math.inf), "c"),
    (lambda: one_sided_stable_exponent(0.5, c=math.nan), "c"),
    (lambda: convolution_power(gaussian_law(), math.inf), "k"),
    (lambda: convolution_power(gaussian_law(), math.nan), "k"),
], ids=["cdf-tol-nan", "cdf-tol-inf", "table-tol-nan", "g-tol-inf", "cauchy-inf", "cauchy-nan", "stable-c-inf", "stable-c-nan",
        "power-inf", "power-nan"])
def test_non_finite_parameters_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=r"^%s must lie in [(\[].*, got (nan|inf)$" % name):
        call()


def test_an_overflow_in_a_test_is_an_error():
    # pyproject.toml makes every RuntimeWarning an error, so the refusals
    # above fail on any warning before them, and plain pytest reads an
    # overflow as CI does, with no -W flag
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.array([1000.0]))


def test_cdf_non_finite_phase_slope_raises():
    # the drift overflows on the slope probes: the slope was NaN, and
    # max(4.0, 1.3 * nan) = 4.0 returned a silent NaN CDF
    overflowing = CfExponent(fn=lambda t: -0.5 * t * t + 1j * 1.5e308 * t)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InversionError, match="non-finite slope"):
            cdf_from_cf(overflowing, 0.0)


def test_cdf_rejects_nan():
    # the NaN slot used to come back as a clipped uninitialised entry
    with pytest.raises(ValueError, match=re.escape("x must lie in (-inf, inf), got nan")):
        cdf_from_cf(cauchy_law(), [0.0, math.nan])


def test_cdf_rejects_infinity():
    # used to fail inside np.geomspace with an unrelated message
    with pytest.raises(ValueError, match=re.escape("x must lie in (-inf, inf), got inf")):
        cdf_from_cf(cauchy_law(), [0.0, math.inf])


def test_g_exponent_rejects_nan():
    with pytest.raises(ValueError, match=re.escape("t must lie in (-inf, inf), got nan")):
        g_exponent(math.nan)
    with pytest.raises(ValueError, match=re.escape("t must lie in (-inf, inf), got nan")):
        g_gamma_exponent(np.array([1.0, math.nan]), 1.5)


def test_cdf_node_budget():
    # t + pi/omega == t at x = 1e300: the panel loop used to never finish
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="quadrature nodes"):
        cdf_from_cf(cauchy_law(), 1e300)
    assert time.perf_counter() - start < 1.0
    # the far points of the dyadic family cost lattice points, not nodes
    with pytest.raises(ResourceLimitError, match="lattice points"):
        cdf_from_cf(g_gamma_law(1.5), [0.0, 1.7e308])
    assert 0.999 < cdf_from_cf(g_gamma_law(1.5), 1e4) < 1.0


def test_node_budget_checked_before_any_quadrature(monkeypatch):
    # the |x| <= 32 group fits, but the drift puts the 1e5 group at about
    # 4.2e6 nodes; the whole first group used to be inverted before the refusal
    from semistable import charfn

    calls = []
    for name in ("_phase_sums", "_bulk_phase_sums"):
        kernel = getattr(charfn, name)
        monkeypatch.setattr(charfn, name,
                            lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
    drift = CfExponent(fn=lambda t: -0.5 * t * t + 5000j * t)
    with pytest.raises(ResourceLimitError, match="quadrature nodes"):
        cdf_from_cf(drift, [0.0, 1e5])
    assert calls == []
    # inside the budget the kernels run once per magnitude group
    cdf_from_cf(drift, [0.0, 100.0])
    assert sorted(calls) == ["_bulk_phase_sums"] * 2 + ["_phase_sums"] * 2


def _drift_law(mu, entire=True):
    """N(mu, 1); with entire its log-MGF is given, so it inverts as an entire law."""
    return CfExponent(fn=lambda t: -0.5 * t * t + 1j * mu * t,
                      log_mgf=(lambda s: 0.5 * s * s + mu * s) if entire else None)


@pytest.mark.parametrize("K, fits", [(349520, True), (349521, False)])
def test_node_budget_prices_the_entire_head(K, fits):
    # x = mu -+ 1 lie in the group b = 2^16, T = 8 and the phase slope is mu,
    # so omega = 2^16 + 1.3 mu; mu puts 8 omega / pi - 1/2 at K - 1/2, which
    # makes K bulk panels: 55 + 12 K nodes, within _NODE_BUDGET = 2^22 at
    # K = 349520 and 8 past it at K = 349521.  The head is the same 55 nodes
    # with or without log_mgf, and the drift's constant slope is the same
    # when probed again, so both laws meet the budget at the same K
    mu = (K * math.pi / 8.0 - 2.0 ** 16) / 1.3
    xs = np.array([mu - 1.0, mu + 1.0])
    need = 55 + 12 * K
    assert _node_count(8.0, K * math.pi / 8.0)[1] == need
    for law in (_drift_law(mu), _drift_law(mu, entire=False)):
        if fits:
            assert np.max(np.abs(cdf_from_cf(law, xs) - ndtr([-1.0, 1.0]))) < 1e-8
        else:
            with pytest.raises(ResourceLimitError, match="need %d quadrature nodes, over the "
                                                         "budget of %d" % (need, _NODE_BUDGET)):
                cdf_from_cf(law, xs)


def test_entire_laws_probe_once_and_build_one_head_panel(monkeypatch):
    # a law with log_mgf: one slope probe per call; any other law probes
    # again per group.  Every group of every law has the same 55-node head;
    # a law with a band adds its first bulk panel's 12 nodes to it, as the
    # panels after it are wider
    from semistable import charfn

    heads, probes = [], []
    build, slope = charfn._build_nodes, charfn._phase_slope
    monkeypatch.setattr(charfn, "_build_nodes",
                        lambda *a: heads.append(build(*a)[0].size) or build(*a))
    monkeypatch.setattr(charfn, "_phase_slope",
                        lambda *a: probes.append(a[0]) or slope(*a))
    cases = [
        (_drift_law(3.0), [0.0, 100.0, 1e3], [55] * 3, 1),
        (_drift_law(3.0, entire=False), [0.0, 100.0, 1e3], [55] * 3, 4),
        # one reduced law per near group and one for the far points
        (g_gamma_law(1.5), [0.5, 50.0, 1e3, 1e5], [67] * 3, 3),
        (cauchy_law(), [0.5], [67], 2),
        (one_sided_stable_exponent(0.5), [0.5], [67], 2),
    ]
    for law, xs, want_heads, want_probes in cases:
        heads.clear()
        probes.clear()
        cdf_from_cf(law, xs)
        assert heads == want_heads and len(probes) == want_probes


def cascade_head(t0):
    """The 150-level dyadic head that laws without log_mgf used to have:
    16-point Gauss-Legendre panels [t0 2^-(l+1), t0 2^-l], l = 0..149."""
    x, w = np.polynomial.legendre.leggauss(16)
    a = t0 * 0.5 ** np.arange(150)
    return (0.75 * a[:, None] + 0.25 * a[:, None] * x).ravel(), (0.25 * a[:, None] * w).ravel()


def head_versus_cascade(law, b):
    """(tanh-sinh head sums, cascade head sums, sum |cw| of the tanh-sinh
    head) of law on 81 points of [-b, b], at the node plan of group b."""
    from semistable.charfn import _node_plan

    (_, T, omega, _), = _node_plan(law, np.array([b]), 1e-8)
    xs = np.linspace(-b, b, 81)
    t, w, (t0, *_) = _build_nodes(T, omega)
    tc, wc = cascade_head(t0)
    assert t.size == 55 and np.all((t > 0.0) & (t <= t0)) and t.min() < 1e-60 * t0
    cw, cwc = (np.exp(law(nodes)) * weights / nodes for nodes, weights in ((t, w), (tc, wc)))
    return _phase_sums(xs, t, cw), direct_phase_sums(xs, tc, cwc), np.abs(cw).sum()


@pytest.mark.parametrize("gamma", [1.0, 1.5, 1.99])
@pytest.mark.parametrize("cut, b", [(96.0, 32.0), (128.0, 64.0), (2.0, 32.0)])
def test_entire_head_panel_matches_the_cascade(gamma, cut, b):
    # the 55-node head sums the reduced laws' head as the 150-level cascade
    # of 2,400 nodes did, for every x of the group
    head, cascade, scale = head_versus_cascade(g_gamma_law(gamma).split(cut)[0], b)
    # scale, the head's sum |cw|, is about 153
    assert np.max(np.abs(head - cascade)) <= 1e-16 * scale


@pytest.mark.parametrize("law", [cauchy_law(), gaussian_law()], ids=["cauchy", "gaussian"])
def test_head_matches_the_cascade_on_closed_form_laws(law):
    head, cascade, scale = head_versus_cascade(law, 32.0)
    assert np.max(np.abs(head - cascade)) <= 1e-16 * scale


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_head_matches_the_cascade_on_singular_laws(alpha):
    # Im phi(t)/t grows like t**(alpha-1) at 0; the cascade stops at
    # t0 2^-150, which drops about (t0 2^-150)**alpha of it (2e-14 at
    # alpha = 0.3), the tanh-sinh head at 5e-62 t0
    head, cascade, _ = head_versus_cascade(one_sided_stable_exponent(alpha), 32.0)
    assert np.max(np.abs(head - cascade)) <= 5e-14


def test_far_points_cost_one_reduced_node_set(monkeypatch):
    # every point past |x| = 64 is a lattice mixture of reduced points in
    # |y| <= 32, so one node set serves any number of them at any |x|; the
    # node set grew with |x| before (1e4 took 1.0e6 nodes, 1e5 was refused)
    from semistable import charfn

    built, calls = [], []
    build = charfn._build_nodes
    monkeypatch.setattr(charfn, "_build_nodes", lambda *a: built.append(a) or build(*a))
    for name in ("_phase_sums", "_bulk_phase_sums"):
        kernel = getattr(charfn, name)
        monkeypatch.setattr(charfn, name,
                            lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
    law = g_gamma_law(1.5)
    sets = []
    for xs in ([100.0], [1e6], [-1e300, -5e3, 65.0, 1e3, 1e4, 1e5, 1e6],
               np.geomspace(65.0, 1e6, 400)):
        built.clear()
        f = cdf_from_cf(law, xs)
        assert np.all(np.diff(f) >= -1e-8) and len(built) == 1
        sets.append(built[0])
    assert len(set(sets)) == 1
    assert 0.999 < cdf_from_cf(law, 1e6) < 1.0
    # the lattice budget refuses before any quadrature
    calls.clear()
    with pytest.raises(ResourceLimitError, match="lattice points"):
        cdf_from_cf(law, [0.0, 1.7e308])
    assert calls == []


def test_points_below_the_reduced_reach_are_zero():
    # -100 and -1e4 form a far group whose reduced points all lie below the
    # reduced law's reach: its node plan is empty and its F is 0, and the
    # near point keeps the bits it has alone
    law = g_gamma_law(1.0)
    f = cdf_from_cf(law, [-100.0, -1e4, 5.0])
    assert f[0] == f[1] == 0.0
    assert f[2:].tobytes() == cdf_from_cf(law, [5.0]).tobytes()


def panjer(rate, M):
    """P(B = m) by Panjer's recursion, one lattice point at a time."""
    p = [math.exp(-rate)]
    for m in range(1, M + 1):
        p.append(rate / (2.0 * m) * math.fsum(p[m - 2 ** j] for j in range(m.bit_length())))
    return np.array(p)


@pytest.mark.parametrize("rate", [0.25, 0.75, 1.0, 3.0])
def test_lattice_pmf_matches_panjer_recursion(rate):
    from semistable.charfn import _lattice_pmf

    for M in (0, 1, 2, 7, 300):
        assert np.max(np.abs(_lattice_pmf(rate, M) - panjer(rate, M))) < 1e-15
    # P(B > M) is about rate/M, the chance of one jump past M
    assert 0.0 < 1.0 - _lattice_pmf(rate, 1 << 16).sum() < 2.0 * rate / 2 ** 16


@pytest.mark.parametrize("gamma", [1.0, 1.5, 1.99])
def test_reach_bounds_the_reduced_law(gamma):
    # Chernoff bounds from the reduced law's real MGF: the mass beyond the
    # reach, by inversion of that law itself, is at most eps on each side
    from semistable.charfn import _FAR_CUT, _reach

    reduced, spacing, rate = g_gamma_law(gamma).split(_FAR_CUT)
    assert rate <= 1.0 and 2.0 < spacing <= 4.0
    for eps in (1e-6, 1e-9):
        lo, hi = _reach(reduced, eps)
        assert 0.0 < lo < hi < 32.0
        f_lo, f_hi = cdf_from_cf(reduced, [-lo, hi], tol=1e-10)
        assert f_lo <= eps and 1.0 - f_hi <= eps


@pytest.mark.parametrize("k", [2, 8])
def test_far_tail_matches_convolution_identity(k):
    # X_1 + ... + X_k = k X + k log2 k in law for the St. Petersburg limit X
    # (k a power of 2), out to |x| = 1e6; k = 8 removes rate 4 at cut 2, so
    # the far cut doubles until the rate is at most 1
    xs = np.array([-7.0, 0.0, 5.0, 40.0, 70.0, 333.0, 1e3, 4e3, 1e4, 1e5, 1e6])
    g = petersburg_law()
    got = cdf_from_cf(convolution_power(g, k), xs)
    want = cdf_from_cf(g, (xs - k * math.log2(k)) / k)
    assert np.max(np.abs(got - want)) < 2e-8


def test_cdf_table_and_interpolant():
    law = g_gamma_law(1.5)
    xs = np.linspace(-6.0, 20.0, 53)
    f = cdf_from_cf(law, xs, tol=1e-8)
    assert np.all(np.diff(f) >= -1e-8)
    tab = tabulate_cdf(law, -8.0, 64.0, tol=1e-7)
    probe = np.linspace(-5.0, 20.0, 23)
    assert np.max(np.abs(tab(probe) - cdf_from_cf(law, probe, 1e-8))) < 5e-5
    # clamped outside the span
    assert tab(-50.0) == tab(-8.0)
    assert tab(1e9) == tab(64.0)
    grid = np.linspace(-20, 100, 301)
    assert np.all(np.diff(tab(grid)) >= 0.0)
    # between the geometric tail nodes the interpolant is looser (~1.1e-3)
    tab = tabulate_cdf(law, -8.0, 1024.0, tol=1e-7)
    probe = np.linspace(48.0, 1024.0, 300)
    assert np.max(np.abs(tab(probe) - cdf_from_cf(law, probe, 1e-8))) < 2e-3


def test_gauss_legendre_constant_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(12)
    assert _GL12[0].tobytes() == x.tobytes() and _GL12[1].tobytes() == w.tobytes()


def test_limit_table_keeps_its_pinned_digest():
    # SHA-256 of the table's values on a fixed grid, recorded while the
    # panels took their 12-node rule from leggauss at run time
    tab = tabulate_cdf(g_gamma_law(1.5), -8.0, 1024.0, tol=1e-7)
    assert hashlib.sha256(tab(np.linspace(-8.0, 1024.0, 4097)).tobytes()).hexdigest() == (
        "89620a0e22574d3c46588573c428de34eec38ece528653d6e09a3ff1112565fb")


def test_tabulate_cdf_rejects_reversed_span():
    # used to tabulate [-10, 10] silently
    with pytest.raises(ValueError, match=re.escape("x_hi must lie in (10, inf), got -10")):
        tabulate_cdf(cauchy_law(), 10, -10)


def test_tabulate_cdf_rejects_empty_span():
    # used to fail inside TabulatedCdf with "needs >= 2 increasing x"
    with pytest.raises(ValueError, match=re.escape("x_hi must lie in (5, inf), got 5")):
        tabulate_cdf(cauchy_law(), 5, 5)


def test_tabulate_cdf_rejects_nan_span_without_warning():
    # used to warn from linspace before "x must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("x_lo must lie in (-inf, inf), got nan")):
            tabulate_cdf(cauchy_law(), math.nan, 3)


def test_tabulate_cdf_makes_one_inversion_call_at_tol(monkeypatch):
    # an adaptive table made six calls, its tail ones at a looser 1e-5
    from semistable import charfn
    tols = []
    invert = charfn.cdf_from_cf
    monkeypatch.setattr(charfn, "cdf_from_cf",
                        lambda h, x, tol=1e-8: tols.append(tol) or invert(h, x, tol))
    tab = tabulate_cdf(g_gamma_law(1.5), -8.0, 1024.0, tol=1e-7)
    assert tols == [1e-7]
    assert (tab.x_lo, tab.x_hi, tab._x.size) == (-8.0, 1024.0, 56 * 16 + 1 + 48)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_limit_table_matches_the_law(gamma):
    law = g_gamma_law(gamma)
    tab = tabulate_cdf(law, -8.0, 1024.0, tol=1e-7)
    body = np.linspace(-8.0, 48.0, 2241)  # four probes per table cell
    assert np.max(np.abs(tab(body) - cdf_from_cf(law, body, 1e-10))) <= 1e-6
    # between the geometric tail nodes PCHIP misses the bumps near 2^k/gamma
    tail = np.linspace(48.0, 1024.0, 977)
    assert np.max(np.abs(tab(tail) - cdf_from_cf(law, tail, 1e-10))) <= 1.3e-3


def test_tabulate_cdf_spans_x_lo_to_x_hi_about_the_knee():
    law = g_gamma_law(1.5)
    # spanned [48, 1024], from a reversed linspace of 385 points, before
    tab = tabulate_cdf(law, 100.0, 1024.0)
    assert (tab.x_lo, tab.x_hi, tab._x.size) == (100.0, 1024.0, 49)
    assert tab(100.0) == pytest.approx(cdf_from_cf(law, 100.0, 1e-10), abs=1e-7)
    assert tab(50.0) == tab(100.0)
    # spanned [-8, 49], from geometric points running down from 49, before
    tab = tabulate_cdf(law, -8.0, 48.5)
    assert (tab.x_lo, tab.x_hi, tab._x.size) == (-8.0, 48.5, 56 * 16 + 2)


def test_tabulate_cdf_refuses_a_body_past_the_point_budget():
    with pytest.raises(ResourceLimitError, match="table points"):
        tabulate_cdf(cauchy_law(), -1e300, 0.0)


# -- closed-form references -----------------------------------------------------

def test_erlang_cdf_values():
    assert erlang_cdf(1, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert erlang_cdf(2, 0.0) == 0.0
    assert erlang_cdf(2, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        erlang_cdf(0, 1.0)


def test_erlang_cdf_vs_gammainc():
    xs = np.linspace(0.0, 30.0, 77)
    for p in (1, 2, 3, 7):
        assert np.max(np.abs(erlang_cdf(p, xs) - gammainc(p, xs))) < 1e-13


def test_erlang_cdf_at_infinity():
    # exp(-x) * x^j / j! gave inf - inf = nan
    assert erlang_cdf(3, math.inf) == 1.0
    assert erlang_cdf(3, -math.inf) == 0.0


def test_erlang_cdf_rejects_nan():
    # used to return 0.0
    with pytest.raises(ValueError, match="NaN"):
        erlang_cdf(3, math.nan)


def _erlang_unscaled(p, x):
    """erlang_cdf's sum with no rescaling: -inf once x^j/j! passes float64."""
    s = term = np.ones_like(x)
    for j in range(1, p):
        term = term * x / j
        s = s + term
    return -np.expm1(np.log(s) - x)


@pytest.mark.parametrize("p", [700, 1000, 5000])
def test_erlang_cdf_stays_in_range(p):
    # the running sum passed float64 from x near 710: erlang_cdf(1000, 1000.0)
    # was -inf after an overflow warning; the body and both tails now match
    # the regularized gamma, within 1e-12 (the sum 1 - e^{-x} sum cancels
    # below 1e-12 in the lower tail, as at small p)
    x = p + np.sqrt(p) * np.linspace(-6.0, 6.0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erlang_cdf(p, x)
    import mpmath as mp
    with mp.workdps(30):
        want = np.array([float(mp.gammainc(p, 0, mp.mpf(v), regularized=True)) for v in x])
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(np.diff(got) >= 0.0)


def test_erlang_cdf_keeps_its_finite_values():
    # a point the sum never carries past float64 takes no rescaling: the same
    # bits as the unscaled sum, whatever the other points of the call need
    for p in (1, 3, 7, 50, 300, 700):
        x = np.concatenate([np.linspace(0.01, 700.0, 301), [1e4]])
        want = _erlang_unscaled(p, x[:-1])
        assert np.isfinite(want).all()
        assert erlang_cdf(p, x)[:-1].tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert erlang_cdf(1000, [900.0, 1000.0, 1100.0]) == pytest.approx(
            [5.4990226588e-4, 0.50420524414, 0.99894067698], rel=1e-9)
        assert erlang_cdf(200, 1e5) == 1.0


def test_levy_cdf_rejects_nan():
    # used to return 0.0
    with pytest.raises(ValueError, match="NaN"):
        levy_cdf(np.array([1.0, math.nan]))
    assert levy_cdf(math.inf) == 1.0


def test_tabulated_cdf_nan_and_infinities():
    # NaN used to come back as NaN; the infinities are the law's own limits
    tab = TabulatedCdf([0.0, 1.0, 2.0], [0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="NaN"):
        tab(math.nan)
    assert (tab(-math.inf), tab(math.inf), tab(5.0)) == (0.0, 1.0, 0.9)


def _scipy_pchip(x, f, v):
    """scipy's PCHIP on the nondecreasing table, clamped as TabulatedCdf is."""
    from scipy.interpolate import PchipInterpolator
    x, f = np.asarray(x, dtype=float), np.maximum.accumulate(np.asarray(f, dtype=float))
    return PchipInterpolator(x, f, extrapolate=False)(np.clip(v, x[0], x[-1]))


# flat at 0, on a plateau at 0.4 and at 1, on uneven cells
_FLAT_X = np.concatenate([np.linspace(-3.0, 0.0, 7), np.geomspace(0.05, 1.0, 6),
                          [1.7, 2.5], np.linspace(2.8, 4.0, 5), np.linspace(5.0, 9.0, 6)])
_FLAT_F = (0.4 * np.sin(0.5 * math.pi * np.clip(_FLAT_X, 0.0, 1.0)) ** 2
           + 0.6 * np.sin(0.5 * math.pi * np.clip((_FLAT_X - 2.5) / 1.5, 0.0, 1.0)) ** 2)


@pytest.mark.parametrize("x, f", [
    ([0.0, 1.0], [0.2, 0.7]),
    ([0.0, 1.0, 3.0], [0.1, 0.5, 0.9]),
    (_FLAT_X, _FLAT_F),
    # a dip, made flat; both three-point end slopes are negative and clipped
    ([0.0, 0.5, 1.5, 2.0, 3.5, 4.0], [0.0, 0.02, 0.4, 0.3, 1.0, 1.0]),
], ids=["two-points", "three-points", "flat-runs", "dip-and-clipped-ends"])
def test_tabulated_cdf_matches_scipy_pchip(x, f):
    v = np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 20001), x])
    assert np.max(np.abs(TabulatedCdf(x, f)(v) - _scipy_pchip(x, f, v))) <= 1e-15


def test_tabulated_limit_law_matches_scipy_pchip():
    tab = tabulate_cdf(g_gamma_law(1.5), -8.0, 1024.0)
    x, f = tab._x, np.append(tab._coef[0], tab.f_hi)
    v = np.concatenate([np.linspace(-9.0, 1025.0, 200001), np.linspace(-8.0, 48.0, 100001), x])
    assert np.max(np.abs(tab(v) - _scipy_pchip(x, f, v))) <= 1e-15


def test_tabulated_cdf_rejects_bad_tables():
    for x, f in (([0.0], [0.5]), ([0.0, 1.0, 1.0], [0.1, 0.2, 0.3]), ([0.0, 1.0], [0.5])):
        with pytest.raises(ValueError, match="CDF table"):
            TabulatedCdf(x, f)


@pytest.mark.parametrize("f", [[0.1, math.nan, 0.9], [-0.5, 0.5, 1.5], [0.1, 0.5, math.inf],
                               [-math.inf, 0.5, 0.9], [0.0, 0.5, 1.0 + 1e-12]])
def test_tabulated_cdf_rejects_f_outside_unit_interval(f):
    # NaN made every evaluation NaN, [-0.5, 0.5, 1.5] evaluated to 1.5 and
    # inf raised a RuntimeWarning, all without an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="CDF table"):
            TabulatedCdf([0.0, 1.0, 2.0], f)


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(1.0, 2.0),
       xs=st.lists(st.floats(-8.0, 64.0), min_size=1, max_size=24))
def test_inverted_cdf_is_a_distribution_function(gamma, xs):
    xs = np.sort(xs)
    tol = 1e-8
    f = cdf_from_cf(g_gamma_law(gamma), xs, tol=tol)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= -tol)


def test_levy_cdf_shape():
    assert levy_cdf(-1.0) == 0.0
    xs = np.geomspace(0.01, 1e4, 101)
    f = levy_cdf(xs)
    assert np.all(np.diff(f) > 0)
    # median of the Levy law with sigma = pi/2: sigma / (2 erfcinv(1/2)^2)
    from scipy.special import erfcinv
    med = (math.pi / 2.0) / (2.0 * erfcinv(0.5) ** 2)
    assert levy_cdf(med) == pytest.approx(0.5, abs=1e-12)


def test_levy_cdf_matches_mpmath():
    # math.erfc at each point: within 1e-15 relative of a 40-digit erfc of
    # the same double argument sqrt(pi/(4x)) wherever F >= 1e-300 (scipy's
    # erfc, used before, erred by up to 5.7e-14 relative on [0, 26.5])
    import mpmath as mp
    xs = np.geomspace(1e-3, 1e6, 4001)
    args = np.sqrt(math.pi / (4.0 * xs))
    with mp.workdps(40):
        exact = np.array([float(mp.erfc(mp.mpf(float(a)))) for a in args])
    keep = exact >= 1e-300
    assert keep.sum() > 3900
    f = levy_cdf(xs)
    assert np.all(np.abs(f[keep] - exact[keep]) <= 1e-15 * exact[keep])
    # the conventions: 0 at x <= 0, 1 at +inf, NaN refused, empty in, empty out
    assert levy_cdf(np.array([-math.inf, -1.0, 0.0, math.inf])).tolist() == [0, 0, 0, 1]
    # pi / (4 x) passes float64 below x = 4.4e-309: 0, with no overflow warning
    assert levy_cdf(5e-324) == 0.0
    assert levy_cdf(np.array([5e-324, 1e-310, 1e-300])).tolist() == [0, 0, 0]
    assert type(levy_cdf(2.0)) is float
    with pytest.raises(ValueError, match="NaN"):
        levy_cdf(math.nan)
    assert levy_cdf(np.empty((0, 3))).shape == (0, 3)


# -- the factored quadrature --------------------------------------------------------

# cdf_from_cf before the bulk panels were factored (a direct cos/sin sum over
# every node), at tol = 1e-8; the last two dyadic points are far-tail queries
DYADIC_X = [-3.0, -1.5, -0.5, 0.0, 0.75, 2.0, 4.5, 10.0, 1e3, 1e4]
CDF_PINS = [
    pytest.param(g_gamma_law(1.0), DYADIC_X,
                 [0.0017575874476267845, 0.05161697452351366, 0.14704730082103626,
                  0.2071624374590195, 0.3008303242292, 0.44209518154091176,
                  0.6403644843945467, 0.8244028790429603, 0.9980468649001791,
                  0.9998778402608749],
                 id="g_gamma(1)"),
    pytest.param(g_gamma_law(1.25), DYADIC_X,
                 [0.0017574392702222055, 0.05159756361198817, 0.14715933865595915,
                  0.2072370635997687, 0.30036842973967415, 0.44292816736284296,
                  0.6370666404673564, 0.8188532699407652, 0.9987703297007985,
                  0.9998474116773476],
                 id="g_gamma(1.25)"),
    pytest.param(g_gamma_law(1.5), DYADIC_X,
                 [0.0017575728752296234, 0.05160269466202479, 0.14714199101620937,
                  0.2070510292435009, 0.3004226894011094, 0.4434000242451918,
                  0.6381465128557174, 0.8170850034720285, 0.9985308557441344,
                  0.9998168945229814],
                 id="g_gamma(1.5)"),
    pytest.param(g_gamma_law(1.75), DYADIC_X,
                 [0.0017576625073299707, 0.05161704207395048, 0.14705774919271436,
                  0.20703135122644623, 0.30076824514378514, 0.4426229766401614,
                  0.6402639917672156, 0.8225710600444581, 0.998290968593933,
                  0.9998930240222903],
                 id="g_gamma(1.75)"),
    pytest.param(g_gamma_law(2.0), DYADIC_X,
                 [0.0017575874476267845, 0.051616974523513603, 0.14704730082103626,
                  0.20716243745901944, 0.30083032422919986, 0.4420951815409119,
                  0.6403644843945466, 0.8244028790429603, 0.9980468649001791,
                  0.9998778402608747],
                 id="g_gamma(2)"),
    pytest.param(petersburg_law(), DYADIC_X,
                 [0.0017575874476267845, 0.05161697452351366, 0.14704730082103626,
                  0.2071624374590195, 0.3008303242292, 0.44209518154091176,
                  0.6403644843945467, 0.8244028790429603, 0.9980468649001791,
                  0.9998778402608749],
                 id="petersburg"),
    pytest.param(one_sided_stable_exponent(0.5),
                 [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 12.0, 40.0, 150.0, 600.0],
                 [2.086108696897071e-08, 0.005070890670573425, 0.07631924945439522,
                  0.21009140544636384, 0.37549525721013716, 0.5751390386205102,
                  0.7175010233584124, 0.8429149025382587, 0.9184926238755289,
                  0.9591929771526498],
                 id="stable(0.5)"),
    pytest.param(cauchy_law(),
                 [-200.0, -20.0, -3.0, -1.0, -0.25, 0.0, 0.5, 2.0, 7.5, 90.0],
                 [0.0015915361682056206, 0.01590225125617667, 0.10241638234956701,
                  0.2500000000000001, 0.42202086962263075, 0.5,
                  0.6475836176504334, 0.8524163823495663, 0.9578075368411585,
                  0.996463369022426],
                 id="cauchy"),
]


@pytest.mark.parametrize("law, xs, expected", CDF_PINS)
def test_cdf_values_pinned(law, xs, expected):
    got = cdf_from_cf(law, np.array(xs))
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


def test_family_closes_at_tol_1e10():
    # gamma = 1 and gamma = 2 are one law, inverted through different reduced
    # laws' node sets (each with the 55-node tanh-sinh head); on the CLI's
    # grid -5:15:0.1 the two must agree within 1e-12
    xs = -5.0 + 0.1 * np.arange(201)
    f1, f2 = (cdf_from_cf(g_gamma_law(g), xs, tol=1e-10) for g in (1.0, 2.0))
    assert np.max(np.abs(f1 - f2)) <= 1e-12


def _full_ladder_cutoff(h, tol):
    """The decay cutoff from every T's probes in one call, 51 up to 8.4e5."""
    probes = np.ldexp(8.0, np.arange(17))[:, None] * np.array([1.0, 1.25, 1.6])
    with np.errstate(under="ignore"):
        ok = np.all(np.exp(np.real(h(probes.ravel()))).reshape(probes.shape)
                    / probes < tol * 1e-3, axis=1)
    return float(probes[ok.argmax(), 0])


def test_decay_cutoff_stops_at_the_first_passing_cutoff():
    # the same T as the full ladder for every pinned law and the reduced laws
    # of the family, probing no further than the batch that holds it: at
    # most 8 of the 17 T (24 probes) here, and t <= 102.4 on the dyadic laws
    laws = [pin.values[0] for pin in CDF_PINS]
    laws += [g_gamma_law(g).split(cut)[0] for g in (1.0, 1.37, 1.5, 1.9)
             for cut in (34.0, 96.0, 1088.0, 2.0 ** 20)]
    for law in laws:
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            probed = []
            T = _decay_cutoff(lambda t: probed.extend(t) or law(t), tol)
            assert T == _full_ladder_cutoff(law, tol)
            assert len(probed) <= 24
            assert law.band != 0.0 and max(probed) <= 102.4 or law.band == 0.0
    degenerate = CfExponent(fn=lambda t: np.zeros(np.shape(t), dtype=complex))
    with pytest.raises(InversionError, match="does not decay"):
        _decay_cutoff(degenerate, 1e-8)


def _all_nodes(T, omega, band=None):
    t, w, (start, width, K) = _build_nodes(T, omega, band)
    tb, wb = _bulk_nodes(start, width, K)
    return np.concatenate([t, tb.ravel()]), np.concatenate([w, wb.ravel()]), start + K * width


def test_build_nodes_counts_and_weights():
    # every magnitude group has b >= 32 and omega >= b + 4, and the decay
    # cutoff T is a power of two from 8 on; the node set depends on (T,
    # omega, band) alone: a 55-node head on (0, t0] and 12-node bulk panels
    # on the same span [t0, end] whatever the band, the first [t0, 3 t0],
    # the rest between delta and 3 pi/(omega + band) wide; where they are
    # wider than delta, the first panel's nodes join the head's
    pairs = 0
    for T in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0):
        for omega in (36.0, 37.3, 68.0, 75.17, 132.5, 516.0, 1028.0, 4100.0):
            if _node_count(T, omega)[1] > _NODE_BUDGET:  # refused before building
                continue
            pairs += 1
            delta = math.pi / omega
            t0 = 0.5 * delta
            ends = set()
            for band in (None, 0.0, 1.5, omega, 2.0 * omega):
                need = _node_count(T, omega, band)[1]
                t_head, w_head, (start, width, _) = _build_nodes(T, omega, band)
                head = abs(w_head.sum() - (t0 if width == delta else start)) <= 1e-15 * start
                assert head and t_head.size == (55 if width == delta else 67)
                assert start == (t0 if width == delta else 3.0 * t0)
                widest = delta if band is None else max(delta, 3.0 * math.pi / (omega + band))
                assert delta <= width <= widest * (1.0 + 1e-15)
                t, w, end = _all_nodes(T, omega, band)
                assert t.size == need
                assert T <= end < T + delta
                assert abs(w.sum() - end) <= 1e-12 * end
                assert np.all((t > 0.0) & (t <= end * (1.0 + 1e-15))) and np.all(w >= 0.0)
                ends.add(round(end / delta - 0.5))  # t0 + span delta
            assert len(ends) == 1
    assert pairs == 62


@pytest.mark.parametrize("T, omega, span, K", [
    (16.0, 6e4 + 4.0, 6e4, 305598),  # a far-tail node set near the node budget
    (32.0, 137.0, 6e4, 1395),        # K = 1395 is not a multiple of B = 11
    (64.0, 37.3, 6e4, 760),          # K = 760 is a multiple of B = 8: no padding
    (8.0, 36.0, 6e4, 92),            # the fewest panels the inversion builds
])
def test_factored_bulk_matches_direct_sum(T, omega, span, K):
    _, _, (t0, delta, k) = _build_nodes(T, omega)
    assert k == K
    tb, wb = _bulk_nodes(t0, delta, K)
    cw = np.exp(cauchy_law()(tb)) * wb / tb
    xs = np.concatenate([np.linspace(-span, span, 7), [0.37, -2.5]])
    direct = direct_phase_sums(xs, tb.ravel(), cw.ravel())
    factored = _bulk_phase_sums(xs, cauchy_law(), t0, delta, K)
    assert np.max(np.abs(factored - direct)) <= 1e-12 * np.abs(cw).sum()


def test_slab_plans_bound_every_product_and_temporary():
    # every panel count a node set within the budget can have: a product of
    # a 64-point block by a tile does m n k <= _CHUNK = 2^15 <= 2^18 complex
    # multiply-adds (OpenBLAS runs it on the calling thread) with k >= 2
    # columns (a single one would be a matrix-vector product, threaded from
    # a few thousand elements), and each complex temporary holds at most
    # _CHUNK / 2 values: U (64 x 12 B), a slab's weights (rows x 12 B), V
    # and U @ C^T (64 x rows)
    ks = np.unique(np.concatenate([np.arange(1, 5000),
                                   np.geomspace(5000, _NODE_BUDGET // 12, 2000).astype(int)]))
    assert _CHUNK <= 2 ** 18 and _XBLOCK == 64
    for K in ks.tolist():
        B, rows, tile = _slab_plan(K)
        n = 12 * B
        assert _XBLOCK * n * tile <= _CHUNK and tile >= 2
        assert rows >= tile and rows % tile == 0
        assert max(_XBLOCK * n, rows * n, _XBLOCK * rows) <= _CHUNK // 2
    # a dyadic body set (214 panels) is one slab, so its law is evaluated once
    B, rows, _ = _slab_plan(214)
    assert B == 4 and -(-214 // B) <= rows


# -- panels priced from the band ---------------------------------------------------

# _node_plan rows (points, T, omega, nodes) of laws without a band at tol 1e-8,
# as the plan was before bands: 55 + 12 ceil(T omega / pi - 1/2) nodes
BANDLESS_PLANS = [
    pytest.param(CfExponent(fn=g_exponent), [0.5, 50.0, 1e3],
                 [(16.0, 42.33852402561856, 2647), (16.0, 74.33852402561857, 4603),
                  (16.0, 1036.5915736940153, 63403)], id="unsplit-dyadic"),
    pytest.param(CfExponent(fn=lambda t: -0.5 * t * t + 3j * t,
                            log_mgf=lambda s: 0.5 * s * s + 3.0 * s), [0.0, 100.0, 1e3],
                 [(8.0, 36.0, 1159), (8.0, 132.0, 4087), (8.0, 1028.0, 31471)], id="drift"),
    pytest.param(CfExponent(fn=cauchy_law().fn), [0.5, 3e4],
                 [(32.0, 36.0, 4459), (32.0, 32772.0, 4005811)], id="cauchy-fn"),
    pytest.param(CfExponent(fn=one_sided_stable_exponent(0.3).fn), [0.5, 50.0],
                 [(8192.0, 36.0, 1126531), (8192.0, 68.0, 2127847)], id="stable-fn"),
]


@pytest.mark.parametrize("law, xs, rows", BANDLESS_PLANS)
def test_laws_without_a_band_keep_their_node_plans(law, xs, rows):
    assert law.band is None
    plan = _node_plan(law, np.array(xs), 1e-8)
    # omega comes from finite differences of the phase: equal to rounding
    assert [(T, pytest.approx(omega, rel=1e-12), need) for T, omega, need in rows] \
        == [(T, omega, need) for _, T, omega, need in plan]
    for _, T, omega, need in plan:
        t, _, (t0, delta, K) = _build_nodes(T, omega, law.band)
        assert t.size == 55 and 55 + 12 * K == need and delta == math.pi / omega == 2.0 * t0


def test_laws_carry_their_band():
    assert cauchy_law(2.0).band == gaussian_law().band == 0.0
    assert one_sided_stable_exponent(0.5).band == 0.0
    assert g_gamma_law(1.5).band is None and CfExponent(fn=g_exponent).band is None
    # the reduced law keeps the jumps 2^l / gamma <= cut: its largest is the band
    for gamma in (1.0, 1.5, 1.99):
        for cut in (2.0, 96.0, 128.0, 1e3):
            reduced, spacing, _ = g_gamma_law(gamma).split(cut)
            assert reduced.band <= cut and 2.0 * reduced.band == spacing
            assert reduced.band in 2.0 ** np.arange(0, 12) / gamma
            assert convolution_power(reduced, 2.5).band == reduced.band
            assert convolution_power(g_gamma_law(gamma), 2.5).split(cut)[0].band == reduced.band
    assert convolution_power(cauchy_law(), 3.0).band == 0.0
    assert convolution_power(CfExponent(fn=g_exponent), 3.0).band is None


@pytest.mark.parametrize("law, xs, closed", [
    (cauchy_law(), np.linspace(-10.0, 10.0, 201), lambda x: 0.5 + np.arctan(x) / math.pi),
    (cauchy_law(), np.array([3e4, -3e4, 6.5e4, -6.5e4]), lambda x: 0.5 + np.arctan(x) / math.pi),
    (gaussian_law(), np.linspace(-8.0, 8.0, 161), ndtr),
    (one_sided_stable_exponent(0.5), np.geomspace(0.1, 100.0, 201), levy_cdf),
], ids=["cauchy-body", "cauchy-far", "gaussian", "stable(0.5)"])
def test_banded_laws_meet_their_closed_forms(law, xs, closed):
    # panels over three half-oscillations of omega + band, not one
    assert np.max(np.abs(cdf_from_cf(law, xs, tol=1e-10) - closed(xs))) <= 1e-12


@pytest.mark.parametrize("law, xs, most", [
    # the benchmark's 1/2-stable oracle: 237,561 nodes with panels of pi/omega
    (one_sided_stable_exponent(0.5), np.geomspace(0.1, 100.0, 201), 80_000),
    # 4,005,811 nodes before, near the node budget
    (cauchy_law(), np.array([3e4, -3e4]), 1_400_000),
], ids=["stable-oracle", "cauchy-3e4"])
def test_banded_node_sets_are_a_third(law, xs, most):
    assert sum(need for *_, need in _node_plan(law, xs, 1e-8)) <= most


def test_cauchy_reach_doubles_under_the_node_budget():
    # |x| <= 65,536 is one group, b = 2^16, on 2.7e6 nodes (inverted above);
    # 6.6e4 is in the next, which would need 5.3e6
    with pytest.raises(ResourceLimitError, match="need 5340415 quadrature nodes"):
        cdf_from_cf(cauchy_law(), -6.6e4)


def test_anchored_row_factors_match_exponentials():
    # every eighth row an exponential, the rows between by up to 7 products;
    # dyadic x and step make each argument x (a0 + a) step exact, so np.exp
    # is the reference to rounding
    xb = np.concatenate([np.arange(-64, 65) / 2.0, [1e-3 * 2.0 ** -10, 37.125]])[:, None]
    step, a0, n = 3.0 / 64.0, 40, 333
    v = _row_factors(xb, step, a0, n)
    exact = np.exp(-1j * (xb * (step * np.arange(a0, a0 + n))))
    assert v.shape == (xb.size, n)
    assert np.max(np.abs(v - exact)) <= 1e-14  # |exact| = 1
    assert np.array_equal(v[:, ::8], exact[:, ::8])


# Traced peaks in KiB, each slab's weights formed whole -> built in place
# 128 panels at a time, with each block's U and V released before the next:
# stable-oracle 1,222 -> 687, cauchy-3e4 1,165 -> 517, g-gamma-grid 412 -> 275,
# far-tail 391 -> 264
@pytest.mark.parametrize("law, xs, tol, bound", [
    # 1.3e5 bulk nodes on the top group: 7.3 MiB when the inversion built
    # the weights of a whole node set at once
    (one_sided_stable_exponent(0.5), np.geomspace(0.1, 100.0, 201), 1e-8, 1.0),
    # 4.0e6 nodes, the largest set the node budget admits: 153 MiB before
    (cauchy_law(), [3e4, -3e4], 1e-8, 1.0),
    # the CLI's grid and the benchmark's far-tail points of the dyadic family
    (g_gamma_law(1.3), -5.0 + 0.1 * np.arange(201), 1e-8, 0.375),
    (g_gamma_law(1.5), [1e2, 3e2, 1e3], 1e-8, 0.34),
], ids=["stable-oracle", "cauchy-3e4", "g-gamma-grid", "far-tail"])
def test_inversion_memory_is_bounded(law, xs, tol, bound, traced_peak):
    f, peak = traced_peak(lambda: cdf_from_cf(law, xs, tol), warm=True)
    assert np.all((f > 0.0) & (f < 1.0))
    assert peak < bound * 2 ** 20


def test_reach_forms_its_log_mgf_terms_in_place(traced_peak):
    # 121 s values by 110 levels: 271 KiB, 408 KiB when each step of the
    # terms made its own array
    reduced = g_gamma_law(1.3).split(96.0)[0]
    (lo, hi), peak = traced_peak(lambda: _reach(reduced, 1e-9), warm=True)
    assert 0.0 < lo < hi < math.inf
    assert peak < 0.32 * 2 ** 20


# SHA-256 of cdf_from_cf's output bytes, recorded before the slab weights
# were built in place: the working set changed, not one bit of the results
CDF_DIGESTS = [
    pytest.param(one_sided_stable_exponent(0.5), np.geomspace(0.1, 100.0, 201), 1e-8,
                 "d2ff9cae36e5e8308f5e0a7dd68aad750d52e15c24de8f226a6dd36ad1ac9e27",
                 id="stable-oracle"),
    pytest.param(cauchy_law(), np.linspace(-100.0, 100.0, 201), 1e-8,
                 "afb8287d384847028453128fea67f511e17271f07e441bea4f516fe325325138",
                 id="cauchy-201"),
    pytest.param(g_gamma_law(1.3), -5.0 + 0.1 * np.arange(201), 1e-8,
                 "0def59851f884c88b7e1ddef8d0fdd7b0c7b7c46f39cd0a8daff446a8080a9c3",
                 id="g-gamma-grid"),
    pytest.param(g_gamma_law(1.5), np.array([1e2, 3e2, 1e3]), 1e-8,
                 "06e51c10e1b64d41d96a2f4496622bba65f56f80cf64b183b1346b10023d56cd",
                 id="far-tail"),
]


@pytest.mark.parametrize("law, xs, tol, digest", CDF_DIGESTS)
def test_cdf_bytes_pinned(law, xs, tol, digest):
    assert hashlib.sha256(cdf_from_cf(law, xs, tol).tobytes()).hexdigest() == digest


def direct_phase_sums(xs, t, cw):
    """Im sum cw e^{-itx} with a cosine and a sine per node and point."""
    return np.array([np.cos(x * t) @ np.imag(cw) - np.sin(x * t) @ np.real(cw)
                     for x in xs])


@pytest.mark.parametrize("omega", [40.0, 600.0, 6e4])
def test_head_phase_sums_match_direct_sum(omega):
    t, w, *_ = _build_nodes(16.0, omega)
    b = omega - 4.0
    # three blocks of points; the head reaches down to t b < 1e-50, where
    # sin(tx) is tx to rounding
    xs = np.concatenate([[0.0, b, -b, 0.5 * b, 1e-3, -2.5], np.linspace(-b, b, 2 * _XBLOCK + 5)])
    # Im phi is O(t) near 0, which would hide an error in the cosines there
    for cw in (np.exp(g_gamma_law(1.5)(t)) * w / t, (1.0 + 1.0j) * w / t):
        bound = 1e-15 * np.abs(cw).sum()
        assert np.max(np.abs(_phase_sums(xs, t, cw) - direct_phase_sums(xs, t, cw))) <= bound
        assert abs(_phase_sums(np.zeros(1), t, cw)[0] - np.imag(cw).sum()) <= bound


def test_empty_queries_give_empty_arrays():
    # cdf_from_cf([]) raised numpy's "zero-size array" ValueError from the
    # magnitude grouping; it now matches the closed forms and the exponent.
    # The one general path gives it for every kind of law: the closed forms,
    # a split law, a convolution power and a reduced law with log_mgf
    laws = (cauchy_law(), g_gamma_law(1.5), convolution_power(g_gamma_law(1.3), 3.0),
            g_gamma_law(1.3).split(96)[0], one_sided_stable_exponent(0.5))
    for out in (*(cdf_from_cf(law, []) for law in laws), erlang_cdf(2, []), levy_cdf([]),
                g_exponent([])):
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert cdf_from_cf(cauchy_law(), []).dtype == float
