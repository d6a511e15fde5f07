import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semistable.sampling import points_from_arrivals, poisson_sum_centering
from semistable.tailmodel import (TailModel, gaussian_criterion_ratio,
                                  intensity_quantile, intensity_tail,
                                  make_pareto, make_petersburg,
                                  model_from_json, model_to_json, tail_eval,
                                  tail_first_moment, tail_quantile)


def wavy_grid_model(alpha=1.0, amp=0.05, m=96):
    # small log-periodic ripple; amplitude kept below the monotonicity budget
    u = np.arange(m) / m
    vals = 1.0 + amp * np.sin(2.0 * math.pi * u)
    return TailModel(alpha=alpha, q=2, c=1.0, x0=1.0, psi_kind="grid",
                     psi_values=tuple(vals))


# -- construction and validation --------------------------------------------

def test_petersburg_tail_values():
    m = make_petersburg()
    # geometric sums over the dyadic masses
    assert tail_eval(m, 2.0) == 0.5
    assert tail_eval(m, 4.0) == 0.25
    assert tail_eval(m, 3.0) == 0.5
    assert tail_eval(m, 8.0) == 0.125


def test_petersburg_masses_exact():
    m = make_petersburg()
    for k in range(2, 31):
        x = 2.0 ** k
        jump = tail_eval(m, np.nextafter(x, 0.0)) - tail_eval(m, x)
        assert jump == 2.0 ** (-k)


def test_pure_stable_tail():
    m = make_pareto(0.5)
    assert tail_eval(m, 1.0) == 1.0
    assert tail_eval(m, 4.0) == 0.5


def test_domain_errors():
    m = make_petersburg()
    with pytest.raises(ValueError):
        tail_eval(m, 1.0)  # below x0
    with pytest.raises(ValueError):
        tail_quantile(m, 0.0)
    with pytest.raises(ValueError):
        tail_quantile(m, 0.6)  # above T(x0) = 0.5
    with pytest.raises(ValueError):
        TailModel(alpha=0.0, q=2, c=1.0, x0=1.0)
    with pytest.raises(ValueError):
        TailModel(alpha=1.0, q=1, c=1.0, x0=1.0)
    with pytest.raises(ValueError):
        TailModel(alpha=1.0, q=2, c=-1.0, x0=1.0)


def test_nan_arguments_raise():
    m = make_pareto(0.5)
    with pytest.raises(ValueError):
        tail_quantile(m, math.nan)
    with pytest.raises(ValueError):
        tail_quantile(m, np.array([0.5, math.nan]))
    with pytest.raises(ValueError):
        intensity_quantile(m, math.nan)
    with pytest.raises(ValueError):
        tail_eval(m, math.nan)
    with pytest.raises(ValueError):
        intensity_tail(m, math.nan)


def test_tail_is_zero_at_infinity():
    # the Petersburg steps gave T(inf) = 2 and grid psi warned an invalid value
    for m in (make_petersburg(), make_pareto(0.5), wavy_grid_model()):
        assert tail_eval(m, math.inf) == 0.0 and intensity_tail(m, math.inf) == 0.0
        x = np.array([4.0, math.inf, 8.0])
        assert np.array_equal(intensity_tail(m, x), [intensity_tail(m, 4.0), 0.0,
                                                     intensity_tail(m, 8.0)])


def test_monotonicity_rejection():
    # ripple too strong: c x^-alpha psi(log_q x) increases somewhere
    u = np.arange(64) / 64.0
    vals = 1.0 + 0.9 * np.sin(2.0 * math.pi * u)
    with pytest.raises(ValueError):
        TailModel(alpha=1.0, q=2, c=1.0, x0=1.0, psi_kind="grid",
                  psi_values=tuple(vals))


def test_monotonicity_is_checked_on_every_cell():
    # one spike among 4,096 cells: T rises by 0.069 near x = 1.404, yet a
    # 1,024-point sample over two periods passed it before
    v = np.ones(4096)
    v[1003] = 5.0
    with pytest.raises(ValueError, match="cell j = 1002"):
        TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="grid", psi_values=tuple(v))


@pytest.mark.parametrize("q", [2, 3])
def test_monotonicity_budget_is_exact(q):
    # a geometric ramp rising at a fraction r of the budget on every cell but
    # the last: m (v[j+1] - v[j]) = r ln(q) v[j]
    def ramp(r):
        v = (1.0 + r * math.log(q) / 64) ** np.arange(64)
        return TailModel(alpha=0.7, q=q, c=1.0, x0=1.0, psi_kind="grid",
                         psi_values=tuple(v))

    m = ramp(1.0 - 1e-9)
    x = np.geomspace(1.0, q ** (1.0 / 0.7), 4001)
    assert np.all(np.diff(tail_eval(m, x)) <= 0.0)
    with pytest.raises(ValueError, match="not nonincreasing"):
        ramp(1.0 + 1e-6)


def test_grid_needs_64_samples():
    with pytest.raises(ValueError):
        TailModel(alpha=1.0, q=2, c=1.0, x0=1.0, psi_kind="grid",
                  psi_values=tuple(np.ones(32)))


def test_petersburg_psi_requires_alpha_one():
    with pytest.raises(ValueError):
        TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="petersburg")


def test_tiny_x0_raises_without_overflow_warning():
    # T(x0) = x0**(-alpha) overflows; the typed error, not numpy's
    # RuntimeWarning, must reach a caller that runs with warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite positive mass"):
            TailModel(alpha=1.9, q=2, c=1.0, x0=1e-300, psi_kind="const")
        with pytest.raises(ValueError, match="finite positive mass"):
            TailModel(alpha=1.9, q=2, c=1.0, x0=1e-300, psi_kind="grid",
                      psi_values=tuple(np.ones(64)))


# -- quantiles ----------------------------------------------------------------

def test_petersburg_quantiles():
    m = make_petersburg()
    assert tail_quantile(m, 0.3) == 4.0
    # boundary: T(2) = 0.5 already meets the threshold
    assert tail_quantile(m, 0.5) == 2.0
    assert tail_quantile(m, 0.25) == 4.0


def test_petersburg_quantile_just_below_powers_of_two():
    # ceil(log2(c/u)) rounded u = nextafter(2^-4, 0) to level 4 (Q = 16,
    # T(16) = 2^-4 > u); of the 9 largest doubles at or below 2^-(k-1),
    # k = 1..999, 7,904 of 8,991 broke T(Q(u)) <= u
    m = make_petersburg(1.0)
    u = np.ldexp(1.0, -np.arange(999))
    us = [u]
    for _ in range(8):
        us.append(np.nextafter(us[-1], 0.0))
    u = np.concatenate(us)
    q = tail_quantile(m, u)
    assert np.all(intensity_tail(m, q) <= u)
    assert np.all(u < intensity_tail(m, q / 2.0))
    assert tail_quantile(m, np.nextafter(2.0 ** -4, 0.0)) == 32.0
    assert np.array_equal(intensity_quantile(m, u), q)
    c3 = TailModel(alpha=1.0, q=2, c=3.0, x0=2.0, psi_kind="petersburg")
    assert list(intensity_quantile(c3, [0.75, np.nextafter(0.75, 0.0), 1.5, 6.0])) == [
        4.0, 8.0, 2.0, 0.5]


def test_petersburg_strict_quantile():
    # the samplers' strict inverse inf{x : T(x) < u} lies one atom above the
    # generalized inverse at a step u = c 2^-k, u = T(x0) included, so it
    # never returns x0, and agrees with it between the steps
    m = make_petersburg()  # x0 = 2, T(x0) = 1/2
    u = np.array([0.5, 2.0 ** -5, 2.0 ** -40, 0.3, np.nextafter(0.25, 0.0)])
    strict = m._quantile(u, strict=True)
    assert strict.tolist() == [4.0, 64.0, 2.0 ** 41, 4.0, 8.0]
    assert tail_quantile(m, u).tolist() == [2.0, 32.0, 2.0 ** 40, 4.0, 8.0]
    assert np.all(intensity_tail(m, strict) < u)
    assert np.all(u <= intensity_tail(m, strict / 2.0))
    c3 = TailModel(alpha=1.0, q=2, c=3.0, x0=2.0, psi_kind="petersburg")  # T(x0) = 3/2
    assert c3._quantile(np.array([1.5, 0.75, 0.7]), strict=True).tolist() == [4.0, 8.0, 8.0]


def test_pure_stable_quantile():
    m = make_pareto(0.5)
    assert tail_quantile(m, 0.25) == pytest.approx(16.0, rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: tail_quantile(make_pareto(0.01), 1e-5),
    lambda: tail_quantile(make_pareto(0.01), [0.5, 1e-5]),
    lambda: intensity_quantile(make_pareto(0.01), 1e-5),
    lambda: points_from_arrivals(make_pareto(0.01), [1e-5, 1.0]),
], ids=["tail", "tail-array", "intensity", "points"])
def test_quantile_overflow_is_an_error(call):
    # (1e5)**100 = 1e500: these returned inf with only an overflow warning;
    # now they raise the samplers' typed error, with no warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"alpha = 0\.01 .*overflows float64"):
            call()


def test_grid_quantile_where_rho_passes_float64():
    # rho = 2**(1/alpha) = 2**10000: the edge below x0 = 1 underflowed to 0
    # and T(0) raised "tail formula needs x > 0"; u = T(x0) has quantile x0
    m = TailModel(alpha=1e-4, q=2, c=1.0, x0=1.0, psi_kind="grid", psi_values=(1.0,) * 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tail_quantile(m, 1.0) == 1.0


@pytest.mark.parametrize("model", [make_petersburg(), make_pareto(0.5),
                                   wavy_grid_model()])
def test_quantile_tail_galois(model):
    rng = np.random.default_rng(7)
    cap = tail_eval(model, model.x0)
    us = rng.uniform(0.0, 1.0, 1000) * cap
    us = us[us > 0]
    for u in us:
        x = tail_quantile(model, u)
        assert tail_eval(model, x) <= u * (1.0 + 1e-9)
        if x > model.x0:
            below = x * (1.0 - 1e-9)
            assert tail_eval(model, max(below, model.x0)) > u * (1.0 - 1e-9)


@pytest.mark.parametrize("model", [make_petersburg(x0=1.0), make_pareto(0.5),
                                   wavy_grid_model()])
def test_semistable_self_similarity(model):
    # n T(n^{1/alpha} x) = T(x) along n = q^k
    xs = np.geomspace(model.x0, model.x0 * 50.0, 25)
    for k in (1, 2, 3):
        n = model.q ** k
        scaled = n * intensity_tail(model, n ** (1.0 / model.alpha) * xs)
        base = intensity_tail(model, xs)
        assert np.allclose(scaled, base, rtol=1e-12)


def test_intensity_extension_below_x0():
    m = make_pareto(0.5)
    assert intensity_tail(m, 1e-4) == pytest.approx(100.0, rel=1e-12)
    assert intensity_quantile(m, 100.0) == pytest.approx(1e-4, rel=1e-9)
    pete = make_petersburg()
    assert intensity_tail(pete, 0.6) == 2.0
    assert intensity_quantile(pete, 3.0) == 0.5


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-100, 1e100), u=st.floats(1e-200, 1e200))
def test_petersburg_quantile_galois_property(c, u):
    # Q(u) = 2^k, k least with c 2^-k <= u, from the exponents of u and c;
    # T(Q) stays in the normal range, where the dyadic steps are exact
    m = TailModel(alpha=1.0, q=2, c=c, x0=0.0, psi_kind="petersburg")
    x = intensity_quantile(m, u)
    assert math.frexp(x)[0] == 0.5
    assert intensity_tail(m, x) <= u < intensity_tail(m, x / 2.0)


def test_grid_quantile_moves_a_point_one_block():
    # the rounded logarithm puts u = T(4^29) one period block off; moved
    # back, the bisection ends on the block edge itself
    m = wavy_grid_model(alpha=0.5)
    assert tail_quantile(m, tail_eval(m, 4.0 ** 29)) == 4.0 ** 29


def test_grid_quantile_matches_bisection_inverse():
    m = wavy_grid_model()
    for u in (0.7, 0.31, 0.05, 0.011):
        x = tail_quantile(m, u)
        assert tail_eval(m, x) == pytest.approx(u, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 1.9), q=st.sampled_from((2, 3, 10)),
       c=st.floats(0.1, 10.0), x0=st.floats(0.0, 5.0),
       shape=st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=160),
       logu=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30))
def test_grid_quantile_galois_property(alpha, q, c, x0, shape, logu):
    # random grid psi, its slope held inside the monotonicity budget
    # psi'/psi < alpha ln q (grid steps below ln(q) psi / m, with psi >= 1/2)
    v = np.array(shape)
    step = np.max(np.abs(np.diff(np.append(v, v[0]))))
    amp = min(0.5, 0.4 * math.log(q) / (v.size * step)) if step > 0.0 else 0.0
    try:
        m = TailModel(alpha=alpha, q=q, c=c, x0=x0, psi_kind="grid",
                      psi_values=tuple(1.0 + amp * v))
    except ValueError as exc:  # T(x0) overflows for x0 near 0
        assert "finite positive mass" in str(exc)
        assume(False)
    u = c * 10.0 ** np.array(logu)
    x = intensity_quantile(m, u)
    assert np.all(intensity_tail(m, x) <= u)
    assert np.all(u < intensity_tail(m, x * (1.0 - 4e-12)))


# -- criterion ratio and moments ---------------------------------------------

def test_gaussian_criterion_pure_tails():
    # analytic value (2 - alpha)/alpha for psi == 1 on (0, inf)
    m = make_pareto(0.5, x0=0.0)
    assert gaussian_criterion_ratio(m, 1e6) == pytest.approx(3.0, abs=1e-3)
    m = make_pareto(1.9, x0=0.0)
    assert gaussian_criterion_ratio(m, 1e6) == pytest.approx(0.1 / 1.9, abs=1e-3)


def test_gaussian_criterion_stabilizes():
    # with support cut at x0 = 1 the ratio converges to the limit from above
    m = make_pareto(0.5)
    vals = [gaussian_criterion_ratio(m, x) for x in (1e3, 1e4, 1e5, 1e6)]
    errs = [abs(v - 3.0) for v in vals]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_gaussian_criterion_far_range():
    # x * x * T(x) overflowed before the division: NaN above about 1.3e154
    m = make_pareto(0.5)
    assert gaussian_criterion_ratio(m, 1e200) == pytest.approx(3.0, abs=1e-9)
    # m2(x) and x**2 T(x) pass float64's max: a named error, not "math range
    # error", and no overflow warning before it
    for alpha, x in ((0.5, 1e250), (0.5, 1e300), (0.3, 1e200)):
        msg = "at alpha = %g x**2 T(x) at x = %r overflows float64" % (alpha, x)
        with pytest.raises(OverflowError, match=re.escape(msg)):
            gaussian_criterion_ratio(make_pareto(alpha), x)


def _pareto_moments():
    """(call, closed form at 40 digits) for constant psi: each part of the
    by-parts formula, or a period sum, passed float64 though the result
    does not."""
    import mpmath as mp
    with mp.workdps(40):
        a, lo, hi = mp.mpf(0.1), mp.mpf(1e-300), mp.mpf(1e300)
        # expm1(n log r) overflowed before the product: "math range error"
        yield (lambda: tail_first_moment(make_pareto(0.1), 1e-300, 1e300),
               float(a / (1 - a) * (hi ** (1 - a) - lo ** (1 - a))))
        # T(1e-300) = 1e570 passes float64, so lo T(lo) read inf after a warning
        a = mp.mpf(1.9)
        yield (lambda: tail_first_moment(make_pareto(1.9), 1e-300),
               float(a / (a - 1) * lo ** (1 - a)))
        yield (lambda: poisson_sum_centering(make_pareto(1.9), 1e-300),
               float(a / (a - 1) * lo ** (1 - a)))
        # the period sum over 200 decades overflowed: refused as m2 overflowing
        a, x0, x = mp.mpf(0.3), mp.mpf(1e-100), mp.mpf(1e100)
        yield (lambda: gaussian_criterion_ratio(make_pareto(0.3, x0=1e-100), 1e100),
               float(x ** (2 - a) / (a / (2 - a) * (x ** (2 - a) - x0 ** (2 - a)))))
        # T(1e-300) = 1e450 alone overflowed before x**2 T(x) = 1e-150 was formed
        a = mp.mpf(1.5)
        yield (lambda: gaussian_criterion_ratio(TailModel(alpha=1.5, q=2, c=1.0, x0=0.0), 1e-300),
               float((2 - a) / a))


def test_tail_moments_past_an_overflowing_part_are_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, want in _pareto_moments():
            assert call() == pytest.approx(want, rel=1e-13, abs=0.0)


def test_gaussian_criterion_domain():
    m = make_pareto(0.5)
    with pytest.raises(ValueError):
        gaussian_criterion_ratio(m, 0.5)


@pytest.mark.parametrize("call, name", [
    # the ratio tends to (2 - alpha)/alpha = 1/3, but read 0.0 at inf
    (lambda m: gaussian_criterion_ratio(m, math.inf), "x"),
    (lambda m: gaussian_criterion_ratio(m, math.nan), "x"),
    # "cannot convert float NaN to integer" at lo = inf
    (lambda m: tail_first_moment(m, math.inf), "lo"),
    (lambda m: tail_first_moment(m, math.nan), "lo"),
    # "tail formula needs x > 0" at hi = nan
    (lambda m: tail_first_moment(m, 1.0, math.nan), "hi"),
    (lambda m: tail_first_moment(m, 1.0, math.inf), "hi"),
], ids=["ratio-inf", "ratio-nan", "lo-inf", "lo-nan", "hi-nan", "hi-inf"])
def test_tail_moments_refuse_non_finite_arguments(call, name):
    m = make_pareto(1.5)
    assert gaussian_criterion_ratio(m, 1e12) == pytest.approx(1.0 / 3.0, rel=1e-5)
    with pytest.raises(ValueError, match=r"^%s must lie in \([01], inf\), got (nan|inf)$" % name):
        call(m)


def test_tail_first_moment_closed_forms():
    # pareto alpha=1.5: integral_t^inf x dmu = alpha/(alpha-1) t^{1-alpha}
    m = make_pareto(1.5, x0=1.0)
    for t in (0.5, 1.0, 3.0):
        exact = 1.5 / 0.5 * t ** (-0.5)
        assert tail_first_moment(m, t) == pytest.approx(exact, rel=1e-8)
    # petersburg truncated mean: integral_(2^-k,1] x dmu = k
    pete = make_petersburg(x0=1.0)
    for k in (3, 10):
        assert tail_first_moment(pete, 2.0 ** -k, 1.0) == pytest.approx(k, abs=1e-7)


def _ripple(alpha, q, x0):
    vals = 1.0 + 0.05 * np.sin(2.0 * math.pi * np.arange(96) / 96)
    return TailModel(alpha=alpha, q=q, c=1.0, x0=x0, psi_kind="grid",
                     psi_values=tuple(vals))


def test_first_moment_periods_up_to_infinity():
    # the convergent sum of all periods above lo against n whole periods up
    # to 1e250, above which the mean is below 1e-50 of the total
    for m in (make_pareto(1.5, x0=1.0), _ripple(1.5, 2, 1.0), _ripple(1.2, 3, 1.0),
              _ripple(1.8, 3, 0.5)):
        for lo in (0.7, 1.0, 3.0, 1e5):
            assert tail_first_moment(m, lo) == pytest.approx(
                tail_first_moment(m, lo, 1e250), rel=1e-14)


def test_gaussian_criterion_periods_down_to_zero():
    # x0 = 0 sums all periods below x; from x0 = 1e-150, n whole periods, and
    # the second moment below 1e-150, x0^(2 - alpha), is at most 1e-15
    def petersburg(x0):
        return TailModel(alpha=1.0, q=2, c=1.0, x0=x0, psi_kind="petersburg")

    for make in (lambda x0: make_pareto(0.5, x0=x0), lambda x0: make_pareto(1.9, x0=x0),
                 lambda x0: _ripple(0.5, 2, x0), lambda x0: _ripple(1.5, 3, x0),
                 petersburg):
        for x in (2.5, 1e3, 1e8):
            assert gaussian_criterion_ratio(make(0.0), x) == pytest.approx(
                gaussian_criterion_ratio(make(1e-150), x), rel=1e-12)


def _cell_quad(model, a, b, weight):
    """int_a^b u**weight T(u) du by scipy's quad on each psi cell separately."""
    from scipy.integrate import quad
    step = math.log(model.q) / (model.alpha * len(model.psi_values))
    k = np.arange(math.floor(math.log(a) / step) + 1, math.ceil(math.log(b) / step))
    edges = np.concatenate(([a], np.exp(k * step), [b]))
    return math.fsum(
        quad(lambda u: u ** weight * float(model._tail_formula(u)), lo, hi,
             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))


def _ref_first_moment(model, lo, hi=None):
    t_lo = float(model._tail_formula(lo))
    if hi is not None:
        t_hi = float(model._tail_formula(hi))
        return lo * t_lo - hi * t_hi + _cell_quad(model, lo, hi, 0)
    # the integral over period block j is ratio**j times block 0's
    rho = model.q ** (1.0 / model.alpha)
    ratio = model.q ** ((1.0 - model.alpha) / model.alpha)
    return lo * t_lo + _cell_quad(model, lo, lo * rho, 0) / (1.0 - ratio)


def _ref_criterion(model, x):
    t_x, t_x0 = (float(model._tail_formula(v)) for v in (x, model.x0))
    m2 = -x * x * t_x + model.x0 ** 2 * t_x0 + 2.0 * _cell_quad(model, model.x0, x, 1)
    return x * x * t_x / m2


def _grid_model(alpha, q, x0, amp, m):
    u = np.arange(m) / m
    return TailModel(alpha=alpha, q=q, c=1.0, x0=x0, psi_kind="grid",
                     psi_values=tuple(1.0 + amp * np.sin(2.0 * math.pi * u)))


@pytest.mark.parametrize("model", [_grid_model(0.5, 2, 1.0, 0.05, 96),
                                   _grid_model(1.5, 3, 0.7, 0.1, 64)],
                         ids=["ripple", "alpha1.5-q3"])
def test_grid_tail_integrals_match_per_cell_quadrature(model):
    # quad with breakpoints only at the period-block edges missed the kinks
    # of psi between them: off by up to 5.9e-6 relative, with an
    # IntegrationWarning
    pairs = [(tail_first_moment(model, 0.9, 50.0), _ref_first_moment(model, 0.9, 50.0)),
             (tail_first_moment(model, 2.0, 3.1e4), _ref_first_moment(model, 2.0, 3.1e4))]
    if model.alpha > 1.0:
        pairs.append((tail_first_moment(model, 1.3), _ref_first_moment(model, 1.3)))
    pairs += [(gaussian_criterion_ratio(model, x), _ref_criterion(model, x))
              for x in (5.0, 1e3, 1e6)]
    for got, ref in pairs:
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_ripple_tail_integrals_keep_their_pinned_digest():
    # SHA-256 of the moments' bytes, recorded while _integrate_tail took its
    # 12-node rule from leggauss at run time
    model, xs = _grid_model(0.5, 2, 1.0, 0.05, 96), (1.5, 3.0, 10.0, 1e3, 1e8)
    vals = np.array([tail_first_moment(model, 0.9, x) for x in xs]
                    + [gaussian_criterion_ratio(model, x) for x in xs])
    assert hashlib.sha256(vals.tobytes()).hexdigest() == (
        "6d79c794972991fb02f76b7caa7b1dc6c947395ff68e69f6e738921b837f8a18")


def test_tail_integrals_closed_forms_to_rounding():
    m = make_pareto(1.5, x0=1.0)
    for t in (0.5, 1.0, 3.0):
        assert tail_first_moment(m, t) == pytest.approx(3.0 * t ** -0.5, rel=1e-12)
        assert tail_first_moment(m, t, 7.0) == pytest.approx(
            3.0 * (t ** -0.5 - 7.0 ** -0.5), rel=1e-12)
    # psi == 1 from x0 = 1: int_1^x u c u^-alpha du in closed form
    a, x = 0.5, 1e6
    m2 = -x ** (2.0 - a) + 1.0 + 2.0 * (x ** (2.0 - a) - 1.0) / (2.0 - a)
    assert gaussian_criterion_ratio(make_pareto(a), x) == pytest.approx(
        x ** (2.0 - a) / m2, rel=1e-12)
    for a in (0.5, 1.9):
        assert gaussian_criterion_ratio(make_pareto(a, x0=0.0), 1e6) == pytest.approx(
            (2.0 - a) / a, rel=1e-12)
    # St. Petersburg: int over (2^-k, 1] of x dmu is k; from x0 = 1 to 2^10,
    # int u T(u) du = 1.5 (2^10 - 1), so m2 = -2^10 + 1 + 3 (2^10 - 1)
    pete = make_petersburg(x0=1.0)
    for k in (3, 10, 40):
        assert tail_first_moment(pete, 2.0 ** -k, 1.0) == pytest.approx(k, rel=1e-12)
    assert gaussian_criterion_ratio(pete, 2.0 ** 10) == pytest.approx(1024.0 / 2046.0,
                                                                       rel=1e-12)


# -- one tail formula: x**k T(x) wherever its value is in range ------------------

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _exact_times_tail(model, x, k):
    """x**k T(x) at 40 digits, psi read at the exact log_q x."""
    import mpmath as mp
    with mp.workdps(40):
        xm = mp.mpf(x)
        if model.psi_kind == "petersburg":  # T = c 2**-n, n = floor(log2 x)
            n = int(mp.floor(mp.log(xm, 2)))
            n += (mp.mpf(2) ** (n + 1) <= xm) - (mp.mpf(2) ** n > xm)
            return xm ** k * model.c * mp.mpf(2) ** -n
        psi = mp.mpf(1)
        if model.psi_kind == "grid":
            v = model.psi_values
            w = mp.log(xm, model.q) * mp.mpf(model.alpha)
            w = (w - mp.floor(w)) * len(v)
            j = int(mp.floor(w))
            psi = v[j] * (1 - (w - j)) + v[(j + 1) % len(v)] * (w - j)
        return xm ** (k - mp.mpf(model.alpha)) * model.c * psi


_FORMULA_MODELS = {
    "const-small-c": TailModel(alpha=1.5, q=2, c=1e-200, x0=0.0),
    "const-large-c": TailModel(alpha=0.5, q=2, c=3e7, x0=0.0),
    "grid-q2": TailModel(alpha=1.9, q=2, c=1.3, x0=0.0, psi_kind="grid",
                         psi_values=wavy_grid_model().psi_values),
    "grid-q3-small-c": TailModel(alpha=1.2, q=3, c=1e-150, x0=0.0, psi_kind="grid",
                                 psi_values=wavy_grid_model().psi_values),
    "petersburg-small-c": TailModel(alpha=1.0, q=2, c=1e-300, x0=0.0, psi_kind="petersburg"),
}


@pytest.mark.parametrize("k", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(_FORMULA_MODELS))
def test_tail_formula_matches_mpmath_wherever_normal(name, k):
    # the one formula for T, x T and x**2 T, from the least positive double
    # to the largest: within 2e-13 of 40 digits wherever the value is
    # normal, inf past float64's max and below its normal range under it
    model = _FORMULA_MODELS[name]
    xs = np.concatenate(([5e-324, 1e-310, _TINY, 1.0, 2.0, 1e308, _HUGE],
                         10.0 ** np.random.default_rng(37).uniform(-323.0, 308.0, 150)))
    with np.errstate(over="ignore", invalid="ignore"):  # as the formula's callers hold it
        got = model._tail_formula(xs, k)
    for x, g in zip(xs, got):
        want = _exact_times_tail(model, x, k)
        if want > _HUGE:
            assert g == math.inf
        elif want < _TINY:
            assert g < _TINY
        else:
            assert float(abs(g - want) / want) <= 2e-13, (x, g, float(want))
    assert model._tail_formula(math.inf, k) == 0.0


def test_small_c_is_not_an_overflow():
    # c x**(-alpha) formed x**(-alpha) = inf first, though T(x) = 1e175
    import mpmath as mp
    m = make_pareto(1.5, c=1e-200, x0=1.0)
    want = float(mp.mpf(1e-200) * mp.mpf(1e-250) ** mp.mpf(-1.5))
    assert intensity_tail(m, 1e-250) == pytest.approx(want, rel=2e-13, abs=0.0)
    # the constructor refused it: "x0 must leave a finite positive mass"
    low = TailModel(alpha=1.5, q=2, c=1e-200, x0=1e-250)
    assert tail_eval(low, low.x0) == pytest.approx(want, rel=2e-13, abs=0.0)
    pete = TailModel(alpha=1.0, q=2, c=1e-300, x0=5e-324, psi_kind="petersburg")
    assert tail_eval(pete, pete.x0) == math.ldexp(1e-300, 1074)  # exact


def test_tail_eval_past_float64_is_an_error():
    # at x0 = 0, T(1e-300) = 1e450 read inf after an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^at alpha = 1\.5 T\(x\) overflows"):
            tail_eval(make_pareto(1.5, x0=0.0), [1.0, 1e-300])


def test_power_tails_keep_their_bits_and_reach_every_value_in_range():
    # where c * x**(-alpha) is normal the formula is that product, bit for
    # bit; where it is not but the value is, within 2e-13 of 40 digits
    import mpmath as mp
    rng = np.random.default_rng(41)
    alpha, c = rng.uniform(0.9, 3.0, 600), 10.0 ** rng.uniform(-307.0, 307.0, 600)
    log_t = rng.uniform(-700.0, 700.0, 600)  # the value's log, in range
    x = np.exp(np.clip((np.log(c) - log_t) / alpha, -744.0, 709.0))
    with np.errstate(over="ignore", under="ignore"):
        direct = c * x ** -alpha
    recovered = 0
    for a, ci, xi, d in zip(alpha, c, x, direct):
        with np.errstate(over="ignore"):
            t = float(TailModel(alpha=a, q=2, c=ci, x0=0.0)._tail_formula(xi))
        if _TINY <= d < math.inf:
            assert t == d
            continue
        with mp.workdps(40):
            want = mp.mpf(ci) * mp.mpf(xi) ** -mp.mpf(a)
        if _TINY <= want <= _HUGE:
            assert float(abs(t - want) / want) <= 2e-13
            recovered += 1
    assert recovered >= 100  # 117 of the 600


def test_grid_quantile_in_a_block_past_float64():
    # rho = 2**10000 passes float64: the block above x0 = 1 is cut at the
    # max and bisected in log x; bisection from inf got nowhere (refused)
    m = TailModel(alpha=1e-4, q=2, c=1.0, x0=1.0, psi_kind="grid", psi_values=(1.0,) * 64)
    assert tail_quantile(m, 0.99995) == pytest.approx(0.99995 ** -1e4, rel=1e-12)
    u = np.array([0.99995, 0.95, 0.94])
    assert tail_quantile(m, u) == pytest.approx(u ** -1e4, rel=1e-12)
    # T(max) = 0.9315: a quantile below it lies truly past float64
    with pytest.raises(OverflowError, match=r"^at alpha = 0\.0001 a quantile overflows"):
        tail_quantile(m, 0.93)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_gaussian_criterion_at_x0_zero_near_underflow(alpha):
    # x**2 T(x) = 1e-450 underflowed at alpha 1/2, and 0.0 came back for
    # the ratio 3; a whole number of periods leaves the ratio as it is
    m = make_pareto(alpha, x0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e-300, 1e-100, 1e300):
            assert gaussian_criterion_ratio(m, x) == pytest.approx(
                (2.0 - alpha) / alpha, rel=1e-12)


def test_gaussian_criterion_petersburg_at_the_least_double():
    # m2 came out 0 at x = 5e-324 (a bare ZeroDivisionError); 2**-1074 is
    # 1074 periods below 1, where the ratio is the same
    m = TailModel(alpha=1.0, q=2, c=1.0, x0=0.0, psi_kind="petersburg")
    assert gaussian_criterion_ratio(m, 5e-324) == pytest.approx(
        gaussian_criterion_ratio(m, 1.0), rel=1e-12)
    assert gaussian_criterion_ratio(m, 3.0 * 2.0 ** -1070) == pytest.approx(
        gaussian_criterion_ratio(m, 3.0), rel=1e-12)


@pytest.mark.parametrize("model, x", [
    # x**2 T(x) and m2 of about 1e-449 underflow at x0 > 0, where no shift helps
    (make_pareto(1.5, c=1e-300, x0=1e-300), 1e-299),
    # no mass in (1, 1.5): m2 is 0 up to rounding, and -2.2e-16 gave -1e16
    (make_petersburg(x0=1.0), 1.5),
], ids=["underflow", "no-mass"])
def test_gaussian_criterion_refuses_below_the_normal_range(model, x):
    with pytest.raises(ValueError, match=r"^at x = %s x\*\*2 T\(x\) = .* below float64's "
                       r"normal range" % re.escape(repr(x))):
        gaussian_criterion_ratio(model, x)


def test_gaussian_criterion_refuses_a_cancelled_sum_just_above_x0():
    # m2 = 3 (sqrt(x) - 1) cancels x0**2 T(x0) = 1 against the other terms:
    # at 1 + 2**-52 the sum came back as 2**51 against sqrt(x) / (3 (sqrt(x) - 1))
    # = 3.0024e15, 25 % off; at 1 + 1e-4 its rounding is about 3e-12
    m = make_pareto(1.5)
    with pytest.raises(ValueError, match=r"^at x = 1\.0000000000000002 the truncated second "
                       r"moment .* of about .* of itself, over 1e-8$"):
        gaussian_criterion_ratio(m, 1.0 + 2.0 ** -52)
    x = 1.0 + 1e-4
    root_less_1 = math.expm1(0.5 * math.log1p(x - 1.0))  # sqrt(x) - 1 to rounding
    assert gaussian_criterion_ratio(m, x) == pytest.approx(
        (1.0 + root_less_1) / (3.0 * root_less_1), rel=1e-11)


# -- serialization -------------------------------------------------------------

@pytest.mark.parametrize("model", [make_petersburg(), make_pareto(0.75, c=2.0),
                                   wavy_grid_model()])
def test_json_round_trip(model):
    doc = model_to_json(model)
    back = model_from_json(doc)
    assert back == model
    xs = np.geomspace(model.x0 + 0.5, model.x0 * 30.0, 17)
    assert np.allclose(tail_eval(back, xs), tail_eval(model, xs), rtol=0)


def test_json_schema_fields():
    import json
    doc = json.loads(model_to_json(make_petersburg()))
    assert set(doc) == {"alpha", "q", "c", "x0", "psi"}
    assert doc["psi"]["kind"] == "petersburg"
    assert doc["psi"]["values"] == []
