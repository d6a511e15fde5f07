import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from semistable.charfn import TabulatedCdf, cdf_from_cf, erlang_cdf, g_gamma_law, tabulate_cdf
from semistable.empirics import (Ecdf, ExperimentReport, _exceedance, _ks_versus_limit,
                                 _limit_table, _order_statistic_block,
                                 feller_experiment, gamma_n, ks_distance,
                                 ks_two_sample, lepage_limit_experiment,
                                 levy_distance, martin_lof_experiment,
                                 merging_experiment, merging_sweep,
                                 negligibility_experiment,
                                 order_statistics_experiment)
from semistable.sampling import RngStream, _map_blocks, petersburg_sum_batch


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


def one_shot_ks(e, cdf):
    """ks_distance over the whole sample at once, as it was before chunking."""
    i = np.arange(1, e.n + 1)
    upper = np.abs(i / e.n - np.asarray(cdf(e.values), dtype=float))
    lower = np.abs((i - 1) / e.n - np.asarray(cdf(np.nextafter(e.values, -np.inf)), dtype=float))
    return float(max(upper.max(), lower.max()))


def one_shot_two_sample(a, b):
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right").astype(np.int64)
    cb = np.searchsorted(b, both, side="right").astype(np.int64)
    return float(np.max(np.abs(ca * b.size - cb * a.size))) / (a.size * b.size)


def one_shot_levy(e, cdf, grid_step):
    """levy_distance with each bisection step over the whole sample at once."""
    v, i = e.values, np.arange(1, e.n + 1)

    def feasible(eps):
        above = np.asarray(cdf(v - eps), dtype=float) - eps <= (i - 1) / e.n + 1e-15
        below = np.asarray(cdf(v + eps), dtype=float) + eps >= i / e.n - 1e-15
        return bool(np.all(above) and np.all(below))

    hi, lo = one_shot_ks(e, cdf) + grid_step, 0.0
    if feasible(lo):
        return 0.0
    while hi - lo > grid_step:
        mid = 0.5 * (lo + hi)
        hi, lo = (mid, lo) if feasible(mid) else (hi, mid)
    return hi


@pytest.mark.parametrize("n", [8191, 8192, 8193, 10 ** 5])
def test_chunked_distances_equal_one_shot_reductions(n):
    # the reductions run over chunks of 2^13 sorted points; values on a 1/32
    # lattice, the largest three times, put ties across the chunk edges; the
    # second sample has another size and lies between the lattice points
    rng = np.random.default_rng(n)
    a = np.round(rng.standard_normal(n) * 4.0) / 32.0
    a[:3] = a.max()
    b = (np.round(rng.standard_normal(n // 3 + 7) * 4.0 + 0.3) + 0.5) / 32.0
    assert n <= 8192 or np.sort(a)[8191] == np.sort(a)[8192]
    e = Ecdf.from_sample(a)
    table = TabulatedCdf(np.linspace(-0.6, 0.6, 97), 0.5 + 0.5 * np.tanh(np.linspace(-6, 6, 97)))
    for cdf in (table, Ecdf.from_sample(b)):
        assert ks_distance(e, cdf) == one_shot_ks(e, cdf)
    assert ks_two_sample(a, b) == one_shot_two_sample(a, b)
    assert ks_two_sample(b, a) == one_shot_two_sample(b, a)
    assert levy_distance(e, table, 1e-3) == one_shot_levy(e, table, 1e-3)


def test_ks_distance_memory_is_bounded(traced_peak):
    # 10^6 points against a table: the one-shot reduction held about 100 MiB,
    # and steps of 8,192 points about 1,035 KiB; steps of 2,048 hold 261 KiB
    e = Ecdf.from_sample(np.random.default_rng(6).standard_normal(10 ** 6))
    table = TabulatedCdf(np.linspace(-6, 6, 400), 0.5 + 0.5 * np.tanh(np.linspace(-6, 6, 400)))
    ks, peak = traced_peak(lambda: ks_distance(e, table))
    assert 0.0 < ks < 1.0
    assert peak < 384 * 1024


def test_ecdf_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Ecdf.from_sample([0.0, bad, 1.0])


def test_ecdf_rejects_empty_sample():
    # used to evaluate to NaN, and ks_distance hit numpy's zero-size error
    with pytest.raises(ValueError, match="empty"):
        Ecdf.from_sample([])


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
    refusal = re.escape("each alpha in alpha_list must lie in (0, inf), got")
    with pytest.raises(ValueError, match=refusal):
        negligibility_experiment([0.5, alpha], 10 ** 3, 100, RngStream(1))


def test_lepage_limit_needs_the_ranked_terms():
    # an IndexError from the rank checks before
    with pytest.raises(ValueError, match="^n_terms must be an integer >= 3, got 2$"):
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


def test_levy_distance_returns_below_the_float_spacing():
    # a grid_step below the spacing of floats near the answer left the
    # bisection's midpoint at one end of the bracket, and the loop never ended
    e = Ecdf.from_sample(np.random.default_rng(1).random(100))
    calls = [0]

    def cdf(x):
        calls[0] += 1
        assert calls[0] <= 200, "levy_distance kept bisecting"
        return np.clip(x, 0.0, 1.0)

    coarse = levy_distance(e, cdf, grid_step=1e-12)
    calls[0] = 0
    assert levy_distance(e, cdf, grid_step=1e-300) == pytest.approx(coarse, abs=1e-12)
    assert calls[0] <= 200


@pytest.mark.parametrize("grid_step", [math.nan, math.inf, 0.0, -1e-3])
def test_levy_distance_rejects_bad_grid_step(grid_step):
    # nan returned nan and inf returned inf before
    e = Ecdf.from_sample([0.1, 0.4, 0.7])
    with pytest.raises(ValueError, match=re.escape("grid_step must lie in (0, inf), got")):
        levy_distance(e, lambda x: np.clip(np.asarray(x), 0.0, 1.0), grid_step)


def test_a_nan_cdf_is_refused():
    # both distances returned nan, which passes no tolerance and fails none
    e = Ecdf.from_sample([1.0, 2.0, 3.0])
    nan = lambda v: np.full(np.shape(v), np.nan)
    for distance in (ks_distance, levy_distance):
        with pytest.raises(ValueError, match=r"the CDF returned NaN on the chunk \[1, 3\]"):
            distance(e, nan)
    # NaN only past the sample: the KS points see none, the Levy bracket does
    beyond = lambda v: np.where(np.asarray(v) <= 3.0, np.clip(np.asarray(v) / 4.0, 0, 1), np.nan)
    assert ks_distance(e, beyond) == 0.25
    with pytest.raises(ValueError, match="the CDF returned NaN"):
        levy_distance(e, beyond)


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


def test_feller_prediction_is_inverted_once_per_n():
    # the prediction depends on n alone: runs at one n share one inversion
    # and give the value cdf_from_cf gives
    _exceedance.cache_clear()
    reps = [feller_experiment(2 ** 12, 100, RngStream(s)) for s in (1, 2)]
    assert _exceedance.cache_info().misses == 1
    up, down = cdf_from_cf(g_gamma_law(gamma_n(2 ** 12)), [6.0, -6.0]).tolist()
    assert [r.statistic["predicted_0.5"] for r in reps] == [1.0 - up + down] * 2


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


def test_limit_tables_are_keyed_by_gamma_alone():
    # the table span followed the sample (its min and 1 - 5e-4 quantile),
    # so these two samples built two tables
    n = 1536
    gamma = gamma_n(n)
    sums = petersburg_sum_batch(n, 10 ** 4, 50)
    samples = (sums / n - math.log2(n), np.random.default_rng(51).uniform(-2.0, 10.0, 10 ** 4))
    table = tabulate_cdf(g_gamma_law(gamma), -8.0, 1024.0, tol=1e-7)
    _limit_table.cache_clear()
    for vals in samples:
        assert _ks_versus_limit(vals, gamma) == ks_distance(Ecdf.from_sample(vals), table)
    assert _limit_table.cache_info().currsize == 1


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


def test_merging_sweep_keeps_its_pinned_digest():
    # SHA-256 of the report, recorded while the sweep held every batch
    rep = merging_sweep(10, 2, 3000, RngStream(93))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "e1498eaa625507d88f638f773424950a4e6e92b7f4d0dde6d0719b12ad183cbd")


def test_merging_sweep_memory_does_not_grow_with_points(traced_peak):
    # each batch is reduced as it is drawn: 8 points per octave peak within
    # one batch of 2 (holding every batch, 8 points took 6 batches more); with
    # each batch sorted in place and released before the next draws, and the
    # tables built first, the peak fell from about 1,520 KiB to 800 KiB
    reps, peaks = 2 * 10 ** 4, {}
    merging_sweep(10, 8, 100, RngStream(1))  # builds the limit tables
    for points in (2, 8):
        peaks[points] = traced_peak(lambda: merging_sweep(10, points, reps, RngStream(94)))[1]
    assert peaks[8] < peaks[2] + 8 * reps
    assert max(peaks.values()) < 1100 * 1024


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


def _partition_order_statistic(p, n, reps, gen, chunk=1000):
    """Reference y_p: partition each row of n uniforms at rank p, drawing
    chunk rows at a time."""
    ys = np.empty(reps)
    for start in range(0, reps, chunk):
        u = gen.random((min(chunk, reps - start), n))
        ys[start:start + len(u)] = np.partition(u, p - 1, axis=1)[:, p - 1]
    return ys


@pytest.mark.parametrize("p, n", ((1, 10), (3, 1000), (50, 2000)))
def test_order_statistic_block_matches_partition(p, n):
    # the two-Gamma kernel against sorting uniforms, by two-sample KS
    reps = 2 * 10 ** 4
    (gamma,) = _map_blocks([(lambda gen, rows: _order_statistic_block(p, n, gen, rows), 2)],
                           reps, 93, p)
    reference = _partition_order_statistic(p, n, reps, RngStream(94, p).generator())
    assert ks_two_sample(gamma, reference) <= 2.5 * math.sqrt(2.0 / reps)


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
    # one-row-at-a-time draws exactly: the sum and the three largest terms;
    # the LePage block draws its rows' Gamma_{p+1} before the uniforms
    from semistable.empirics import _power_block
    from semistable.sampling import _lepage_block, _open01
    from semistable.tailmodel import make_pareto
    alpha, n, p, rows = 0.5, 1000, 500, 70  # several row groups each
    a = _power_block(alpha, n, 3, False, RngStream(93).generator(), rows)
    b = _lepage_block(alpha, p, False, RngStream(94).generator(), rows, 3)
    gen_a, gen_b = RngStream(93).generator(), RngStream(94).generator()
    scale = gen_b.standard_gamma(p + 1, rows)
    inverse = make_pareto(alpha)._quantile_formula  # the kernels' map, (1/u)**(1/alpha)
    for i in range(rows):
        mags = inverse(_open01(gen_a, np.empty(n)))
        assert list(a[i]) == [mags.sum()] + sorted(mags, reverse=True)[:3]
        terms = inverse(scale[i] * _open01(gen_b, np.empty(p)))
        assert list(b[i]) == [terms.sum()] + sorted(terms, reverse=True)[:3]


# SHA-256 of the reports, recorded while _power_block merged each tile's top
# ranks through a concatenated, partitioned copy of the tile: rows of 2^16
# terms and series of 4*10^4 span two column chunks, 2,000 replicates eight blocks
@pytest.mark.parametrize("run, digest", [
    (lambda: lepage_limit_experiment(0.5, 16, 100, RngStream(61), n_terms=4 * 10 ** 4),
     "a9b14d7d5c2c23b5e141c2c66df86eb1d32567918763ba64c23b7e82aaf22297"),
    (lambda: lepage_limit_experiment(1.5, 16, 100, RngStream(62), symmetric=True,
                                     n_terms=4 * 10 ** 4),
     "c528dae00875e578f53a8c7c5f91911c3ca7101be3a304d596c91d66d1affe55"),
    (lambda: lepage_limit_experiment(1.5, 8, 2000, RngStream(62), symmetric=True, n_terms=500),
     "b5f3073ee860c1a461c551a2000e27dca22ffd2e1219eac847038c75f8b4dc5b"),
    (lambda: negligibility_experiment([0.5, 2.5], 2000, 1000, RngStream(63)),
     "7dc9390bebf75d82acfb640f86086aa3fdcb564f12593096d69d9bfd516a11e3"),
], ids=["lepage-one-sided", "lepage-symmetric", "lepage-symmetric-blocks", "negligibility"])
def test_power_sum_reports_keep_their_pinned_digests(run, digest):
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest


def test_lepage_limit_symmetric_mode():
    rep = lepage_limit_experiment(1.2, 10, 10 ** 4, RngStream(54),
                                  symmetric=True, n_terms=30000,
                                  tolerance=0.04)
    assert rep.statistic["two_sample_ks"] <= 0.04


def test_report_json_is_strict():
    # a NaN statistic was written as the bare token NaN
    report = ExperimentReport("x", {}, math.nan, 0.1, 1, 0.03, False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()
    assert json.loads(replace(report, statistic=0.5).to_json())["statistic"] == 0.5
