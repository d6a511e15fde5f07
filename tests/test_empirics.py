import json
import math

import numpy as np
import pytest

from semistable.charfn import erlang_cdf
from semistable.empirics import (Ecdf, ExperimentReport, feller_experiment,
                                 gamma_n, ks_distance, ks_two_sample,
                                 lepage_limit_experiment, levy_distance,
                                 martin_lof_experiment, merging_experiment,
                                 merging_sweep, negligibility_experiment,
                                 order_statistics_experiment)
from semistable.sampling import RngStream


# -- distances -------------------------------------------------------------------

def test_ks_exact_small_case():
    # {1,2,3} against F(x) = x/4: enumerate the six candidate gaps by hand
    e = Ecdf.from_sample([1.0, 2.0, 3.0])
    assert ks_distance(e, lambda x: np.clip(np.asarray(x) / 4.0, 0, 1)) == 0.25


def test_ks_against_own_ecdf():
    rng = np.random.default_rng(0)
    v = rng.normal(size=257)
    e = Ecdf.from_sample(v)
    assert ks_distance(e, e) == 0.0


def test_ks_uniform_sample():
    rng = np.random.default_rng(1)
    e = Ecdf.from_sample(rng.random(10 ** 5))
    ks = ks_distance(e, lambda x: np.clip(np.asarray(x, float), 0, 1))
    assert ks <= 1.95 / math.sqrt(10 ** 5)


def test_ks_matches_brute_force_scan():
    rng = np.random.default_rng(2)
    from scipy.special import ndtr
    for _ in range(5):
        v = rng.normal(size=40)
        e = Ecdf.from_sample(v)
        ks = ks_distance(e, ndtr)
        grid = np.unique(np.concatenate([
            np.linspace(v.min() - 1, v.max() + 1, 20001),
            e.values, np.nextafter(e.values, -np.inf)]))
        brute = np.max(np.abs(e(grid) - ndtr(grid)))
        assert abs(ks - brute) < 1e-12


def test_two_sample_ks():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.5, 2.5])
    # hand enumeration: max |F_a - F_b| over the five jump points
    assert ks_two_sample(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ks_two_sample(a, a) == 0.0


def test_two_sample_ks_exact_step():
    # the ECDFs differ by exactly 20 of 1000 steps: no float residue
    a = np.arange(1000.0)
    assert ks_two_sample(a, a + 20.0) == 0.02


def test_two_sample_ks_rejects_nan_and_empty():
    # [1, nan] vs [1, 2] gave 0.5, and an empty sample a ZeroDivisionError
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample([1.0, math.nan], [1.0, 2.0])
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample([1.0, 2.0], [math.nan])
    for a, b in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(ValueError, match="empty"):
            ks_two_sample(a, b)


def test_ecdf_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Ecdf.from_sample([0.0, bad, 1.0])


def test_ecdf_rejects_nan_argument():
    # NaN used to sort past every value and read 1.0
    e = Ecdf.from_sample([0.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        e(np.nan)
    assert e(-np.inf) == 0.0 and e(np.inf) == 1.0


def test_empty_alpha_list_rejected():
    # used to pass with no exponents checked
    with pytest.raises(ValueError, match="empty"):
        negligibility_experiment([], 10 ** 3, 100, RngStream(1))


@pytest.mark.parametrize("alpha", (math.nan, math.inf, -1.0, 0.0))
def test_negligibility_rejects_bad_alpha(alpha):
    # exited 3 with a NaN or meaningless median before
    with pytest.raises(ValueError, match="finite and positive"):
        negligibility_experiment([0.5, alpha], 10 ** 3, 100, RngStream(1))


def test_lepage_limit_needs_the_ranked_terms():
    # an IndexError from the rank checks before
    with pytest.raises(ValueError, match="n_terms must be >= 3"):
        lepage_limit_experiment(0.5, 6, 300, RngStream(1), n_terms=2)


def test_levy_distance_identical():
    rng = np.random.default_rng(3)
    v = np.sort(rng.random(500))
    e = Ecdf.from_sample(v)
    assert levy_distance(e, e, grid_step=1e-3) <= 1e-3


def test_levy_distance_point_masses():
    # unit mass at delta vs unit step at 0: distance is delta (for delta <= 1)
    delta = 0.2
    e = Ecdf.from_sample([delta])
    step = lambda x: (np.asarray(x, float) >= 0.0).astype(float)
    d = levy_distance(e, step, grid_step=1e-4)
    assert d == pytest.approx(delta, abs=2e-4)


def test_levy_below_ks():
    rng = np.random.default_rng(4)
    from scipy.special import ndtr
    for _ in range(100):
        v = rng.normal(size=rng.integers(5, 60))
        e = Ecdf.from_sample(v)
        assert levy_distance(e, ndtr, 1e-3) <= ks_distance(e, ndtr) + 1e-3


# -- gamma_n ----------------------------------------------------------------------

def test_gamma_n_values():
    assert gamma_n(1536) == 1.5
    for k in range(0, 20):
        assert gamma_n(2 ** k) == 1.0
    rng = np.random.default_rng(5)
    for n in rng.integers(1, 10 ** 9, 300):
        g = gamma_n(int(n))
        assert 1.0 <= g < 2.0
        assert gamma_n(int(2 * n)) == g
    with pytest.raises(ValueError):
        gamma_n(0)


# -- reports ----------------------------------------------------------------------

def test_report_json_schema():
    rep = ExperimentReport(experiment="x", params={"a": 1}, statistic=0.5,
                           stderr=0.1, seed=7, tolerance=1.0, passed=True)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"experiment", "params", "statistic", "stderr", "seed",
                        "tolerance", "pass"}
    assert doc["pass"] is True
    with pytest.raises(ValueError):
        ExperimentReport(experiment="x", params={}, statistic=0.0, stderr=-1.0,
                         seed=0, tolerance=None, passed=False)


# -- experiments -------------------------------------------------------------------

def test_feller_smoke_and_nesting():
    rep = feller_experiment(4, 100, RngStream(41))
    doc = rep.to_dict()
    assert isinstance(doc["pass"], bool)
    assert rep.statistic["exceedance_0.25"] >= rep.statistic["exceedance_0.5"]
    with pytest.raises(ValueError):
        feller_experiment(1, 100, RngStream(1))


def test_feller_matches_limit_prediction():
    rep = feller_experiment(2 ** 12, 2000, RngStream(42))
    assert rep.passed, rep.statistic


def test_martin_lof_basics():
    rep = martin_lof_experiment(10, 10 ** 4, RngStream(43))
    assert rep.statistic <= 0.05
    rep2 = martin_lof_experiment(10, 10 ** 4, RngStream(43))
    assert rep2.statistic == rep.statistic  # bitwise reproducible
    with pytest.raises(ValueError):
        martin_lof_experiment(3, 10 ** 4, RngStream(1))
    with pytest.raises(ValueError):
        martin_lof_experiment(10, 100, RngStream(1))


def test_martin_lof_ks_shrinks_with_k():
    a = martin_lof_experiment(8, 2 * 10 ** 4, RngStream(44))
    b = martin_lof_experiment(12, 2 * 10 ** 4, RngStream(45))
    # soft monotonicity: allow two stderr of slack
    assert b.statistic <= a.statistic + 2.0 * (a.stderr + b.stderr)


def test_merging_gamma_and_distance():
    rep = merging_experiment(1536, 2 * 10 ** 4, RngStream(46), tolerance=0.05)
    assert rep.params["gamma"] == 1.5
    assert rep.statistic <= 0.05
    with pytest.raises(ValueError):
        merging_experiment(8, 10 ** 4, RngStream(1))


def test_merging_threads_invariant():
    a = merging_experiment(96, 10 ** 4, RngStream(47), threads=1)
    b = merging_experiment(96, 10 ** 4, RngStream(47), threads=4)
    assert a.statistic == b.statistic


def test_merging_sweep_small():
    rep = merging_sweep(8, 2, 10 ** 4, RngStream(48), tol_max=0.08,
                        tol_two_sample=0.05)
    stat = rep.statistic
    assert stat["endpoint_gammas"] == [1.0, 1.0]
    assert len(stat["distances"]) == 3
    assert stat["max_distance"] == max(stat["distances"])
    assert rep.passed


def test_order_statistics_moments_and_erlang():
    rep = order_statistics_experiment(3, 9, 2 * 10 ** 4, RngStream(49),
                                      ks_tolerance=None)
    s = rep.statistic
    assert s["mean_exact"] == pytest.approx(0.3)
    assert s["var_exact"] == pytest.approx(21.0 / 1100.0)
    assert rep.passed, s
    # maximum: mean n/(n+1)
    rep = order_statistics_experiment(9, 9, 2 * 10 ** 4, RngStream(50),
                                      ks_tolerance=None)
    assert rep.statistic["mean_exact"] == pytest.approx(0.9)
    assert rep.passed
    with pytest.raises(ValueError):
        order_statistics_experiment(5, 4, 100, RngStream(1))


def test_order_statistics_erlang_limit():
    rep = order_statistics_experiment(1, 2000, 2 * 10 ** 4, RngStream(51),
                                      ks_tolerance=0.02)
    assert rep.statistic["ks"] <= 0.02
    # direct check against the exponential CDF
    assert erlang_cdf(1, 1.0) == pytest.approx(1 - math.exp(-1))


def test_negligibility_thresholds():
    rep = negligibility_experiment([0.5, 2.5], 10 ** 4, 500, RngStream(52))
    med = rep.statistic["medians"]
    assert med["0.5"] >= 0.2
    assert med["2.5"] <= 0.05
    assert rep.passed
    assert all(0.0 < v <= 1.0 for v in med.values())


def test_lepage_limit_two_sample():
    rep = lepage_limit_experiment(0.5, 10, 2 * 10 ** 4, RngStream(53),
                                  n_terms=3000, tolerance=0.03)
    assert rep.statistic["two_sample_ks"] <= 0.03
    assert len(rep.statistic["rank_ks"]) == 3
    assert all(v <= 0.04 for v in rep.statistic["rank_ks"])
    assert rep.passed


def test_experiment_kernels_match_the_row_by_row_draws():
    # in positive mode both kernels draw in stream order, so they reproduce
    # one-row-at-a-time draws exactly: the sum and the three largest terms
    from semistable.empirics import _power_block
    from semistable.sampling import _lepage_block, _open01
    alpha, n, p, rows = 0.5, 1000, 500, 70  # several row groups each
    a = _power_block(alpha, n, 3, False, RngStream(93).generator(), rows)
    b = _lepage_block(alpha, p, False, RngStream(94).generator(), rows, 3)
    gen_a, gen_b = RngStream(93).generator(), RngStream(94).generator()
    for i in range(rows):
        mags = _open01(gen_a, n) ** (-1.0 / alpha)
        assert list(a[i]) == [mags.sum()] + sorted(mags, reverse=True)[:3]
        terms = np.cumsum(gen_b.standard_exponential(p)) ** (-1.0 / alpha)
        assert list(b[i]) == [terms.sum()] + list(terms[:3])


def test_lepage_limit_symmetric_mode():
    rep = lepage_limit_experiment(1.2, 10, 10 ** 4, RngStream(54),
                                  symmetric=True, n_terms=30000,
                                  tolerance=0.04)
    assert rep.statistic["two_sample_ks"] <= 0.04
