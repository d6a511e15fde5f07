import contextlib
import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistable import coupling, empirics, sampling
from semistable.charfn import erlang_cdf, levy_cdf
from semistable.coupling import coupling_gap_curve
from semistable.empirics import (Ecdf, ks_distance, ks_two_sample,
                                 lepage_limit_experiment,
                                 negligibility_experiment,
                                 order_statistics_experiment)
from semistable.sampling import (PoissonPointSet, ResourceLimitError,
                                 RngStream, _open01, _signed, lepage_auto_terms,
                                 lepage_batch, petersburg_from_uniform,
                                 petersburg_sum_batch, points_from_arrivals,
                                 poisson_sum_batch, poisson_sum_centering,
                                 sample_lepage, sample_petersburg,
                                 sample_poisson_points,
                                 sample_semistable_poisson_sum,
                                 sample_tail_model, write_batch)
from semistable.tailmodel import (TailModel, intensity_tail, make_pareto, make_petersburg,
                                  model_to_json, tail_eval, tail_first_moment)


# -- petersburg draws -----------------------------------------------------------

def test_uniform_to_winnings_mapping():
    u = np.array([0.3, 0.6, 1.0, 0.5, 0.25, 2.0 ** -20])
    v = petersburg_from_uniform(u)
    # k = floor(log2(1/u)) + 1; boundaries go to the larger value
    assert list(v) == [4.0, 2.0, 2.0, 4.0, 8.0, 2.0 ** 21]


def test_uniform_to_winnings_leaves_its_argument():
    # the game's draws map their own buffer in place; a caller's u is not one
    u = np.array([0.3, 0.6, 1.0, 0.5, 0.25, 2.0 ** -20])
    kept = u.copy()
    petersburg_from_uniform(u)
    assert u.tobytes() == kept.tobytes()


def test_petersburg_mass_frequencies():
    batch = sample_petersburg(10 ** 6, RngStream(101))
    freq2 = np.mean(batch.values == 2.0)
    assert abs(freq2 - 0.5) <= 0.002  # 3 binomial stderr at 1e6 is 0.0015
    freq4 = np.mean(batch.values == 4.0)
    assert abs(freq4 - 0.25) <= 0.002
    assert np.all(np.log2(batch.values) % 1.0 == 0.0)


def test_reproducibility_and_stream_independence():
    a = sample_petersburg(512, RngStream(9, 3))
    b = sample_petersburg(512, RngStream(9, 3))
    c = sample_petersburg(512, RngStream(9, 4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    meta = a.metadata()  # the game is the tail model at x0 = 1
    assert meta == {"model": model_to_json(make_petersburg(1.0)), "seed": 9,
                    "stream_id": 3, "n": 512}


def test_batch_validation():
    with pytest.raises(ValueError):
        sample_petersburg(0, RngStream(1))


def _ripple_model():  # a log-periodic ripple on the 1/2-stable tail, 96 psi samples
    u = np.arange(96) / 96.0
    return TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="grid",
                     psi_values=tuple(1.0 + 0.05 * np.sin(2.0 * math.pi * u)))


# SHA-256 of values.tobytes(), recorded while the game had its own dyadic
# formula and batch sampler: one draw rule must draw the same bytes
@pytest.mark.parametrize("draw, digest", [
    (lambda: sample_petersburg(512, RngStream(9, 3)).values,
     "f9c044e95d72ba65270dcb6010a9efb0196258fac1d1746cda1e41b8490abdc3"),
    (lambda: poisson_sum_batch(make_pareto(0.5), 1e-6, 256, seed=1),
     "8b5accf97b091bf26ec17a9c9cc5f561be9efa3dba691f6f5ba1a737a5d8d7ac"),
    (lambda: poisson_sum_batch(make_pareto(0.5), 1e-6, 256, seed=1, symmetric=True),
     "a4e6315ff80f1905de2e726fce74df25c56fe44803fd2e325551af299b0d2188"),
    (lambda: sample_tail_model(_ripple_model(), 1000, RngStream(3, 0)).values,
     "f3d518228dd4710925b91fce09ee45e74a3fb94d144bb768cdfa8b75787e99c5"),
    # recorded while _signed negated where the draw was 0
    (lambda: lepage_batch(1.5, 256, seed=1, symmetric=True, n_terms=10 ** 4),
     "911986e762c3a2e135e0ebf673274142815ceec5b86e654356184278e1efe18b"),
    # recorded while _signed drew the sign bits of all 10^5 values in one array
    (lambda: sample_tail_model(make_pareto(1.5), 10 ** 5, RngStream(64), symmetrize=True).values,
     "7eb804cb1c6f94e49269a63ba4db2f24868fbbfea77d0c646cb137e9a7c4954f"),
], ids=["petersburg", "poisson-pareto", "poisson-pareto-symmetric", "grid-ripple",
        "lepage-symmetric", "tail-symmetric"])
def test_draws_keep_their_pinned_digests(draw, digest):
    assert hashlib.sha256(draw().tobytes()).hexdigest() == digest


# -- petersburg sums from level counts -------------------------------------------

@pytest.mark.parametrize("n", (96, 1536))
def test_petersburg_sums_match_the_draw_by_draw_construction(n):
    reps = 2 * 10 ** 4
    draws = np.array([petersburg_from_uniform(
        _open01(RngStream(61, i).generator(), np.empty(n))).sum() for i in range(reps)])
    sums = petersburg_sum_batch(n, reps, seed=62)
    assert ks_two_sample(sums, draws) <= 2.5 * math.sqrt(2.0 / reps)


def test_petersburg_sum_of_one_draw_has_the_exact_law():
    reps = 10 ** 5
    vals = petersburg_sum_batch(1, reps, seed=63)
    for k in range(1, 7):
        p = 2.0 ** -k
        freq = np.mean(vals == 2.0 ** k)
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / reps), k


def _petersburg_sum_pmf(n, levels=40):
    """Exact P(S_n = s) over draws up to 2^levels: n-fold convolution of
    P(X = 2^k) = 2^-k."""
    pmf = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for s, p in pmf.items():
            for k in range(1, levels + 1):
                nxt[s + 2 ** k] = nxt.get(s + 2 ** k, 0.0) + p * 2.0 ** -k
        pmf = nxt
    return pmf


@pytest.mark.parametrize("n", (2, 3, 4))
def test_petersburg_sums_of_few_draws_have_the_exact_law(n):
    # n = 1 is test_petersburg_sum_of_one_draw_has_the_exact_law
    reps = 10 ** 5
    vals = petersburg_sum_batch(n, reps, seed=67 + n)
    pmf = _petersburg_sum_pmf(n)
    assert set(np.unique(vals)) <= set(pmf)
    for s, p in pmf.items():
        if p >= 1e-4:
            freq = np.mean(vals == s)
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / reps), (n, s)


def test_level_sums_match_the_level_by_level_loop():
    # every conditional probability of the multinomial is exactly 1/2, so it
    # draws the same Binomial(left, 1/2) sequence, row by row, as this loop
    counts = np.array([0, 1, 5, 96, 1536, 65536, 2 ** 40, 3], dtype=np.int64)
    gen = RngStream(68).generator()
    ref = np.zeros(counts.size)
    for i, left in enumerate(counts):
        k = 1
        while left > 0:
            drawn = gen.binomial(left, 0.5)
            ref[i] += drawn * 2.0 ** k
            left -= drawn
            k += 1
    assert np.array_equal(sampling._level_sums(counts, RngStream(68).generator()), ref)


def test_level_sums_recurse_past_the_last_cell():
    # at 2^62 - 1 draws a row has one at 2^64 or above with probability
    # 1 - e^(-1/2); those land in the last cell and are 2^63 times
    # St. Petersburg draws, so each adds at least 2^64 to its row
    counts = np.full(300, 2 ** 62 - 1, dtype=np.int64)
    levels = RngStream(66).generator().multinomial(counts, sampling._LEVEL_P)
    sums = sampling._level_sums(counts, RngStream(66).generator())
    lower = (levels[:, :-1] * np.ldexp(1.0, np.arange(1, 64))).sum(axis=1)
    last = levels[:, -1]
    deep = last > 0
    assert 0.25 < deep.mean() < 0.55
    assert np.all(np.isfinite(sums))
    assert np.all(sums[~deep] == lower[~deep])
    assert np.all(sums[deep] - lower[deep] >= 2.0 ** 64 * last[deep] * (1.0 - 2.0 ** -40))


def test_petersburg_sums_do_not_depend_on_threads():
    # 1000 is not a multiple of the 256-replicate block
    a = petersburg_sum_batch(700, 1000, seed=64, base_stream=5)
    b = petersburg_sum_batch(700, 1000, seed=64, base_stream=5, threads=2)
    assert a.shape == (1000,)
    assert np.array_equal(a, b)


def test_petersburg_sums_at_huge_n_are_even_integers():
    n = 2 ** 40
    vals = petersburg_sum_batch(n, 300, seed=65)
    assert np.all(vals >= 2.0 * n)
    assert np.all(vals % 2.0 == 0.0)


def test_petersburg_sum_batch_validation():
    # n is an int64 level count, so it has a most
    for n, reps, rule in ((0, 10, "n must be an integer >= 1 and <= 9223372036854775807"),
                          (10, 0, "reps must be an integer >= 1")):
        with pytest.raises(ValueError, match="^%s, got 0$" % rule):
            petersburg_sum_batch(n, reps, seed=1)
    # a non-integral n gave the sums of int(n) draws: [6, 16, 132] at 2.5
    for n in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            petersburg_sum_batch(n, 3, seed=1)


@pytest.mark.parametrize("cutoff", [math.inf, math.nan])
def test_poisson_cutoff_must_be_finite(cutoff):
    # an infinite cutoff raised ZeroDivisionError from the Petersburg tail
    # integral, drew a Petersburg point at 4 "above" it, or drew empty Pareto
    # sums; NaN was refused only by the tail formula, which names no cutoff
    for model in (make_petersburg(1.0), make_pareto(0.5)):
        with pytest.raises(ValueError, match=re.escape("cutoff must lie in (0, inf), got")):
            poisson_sum_batch(model, cutoff, 3, seed=1)
        with pytest.raises(ValueError, match=re.escape("cutoff must lie in (0, inf), got")):
            sample_poisson_points(model, cutoff, RngStream(1))


# -- quantile-transform sampling -------------------------------------------------

def test_tail_model_sampler_empirical_tail():
    m = make_pareto(0.5)
    batch = sample_tail_model(m, 10 ** 6, RngStream(21))
    emp = np.mean(batch.values > 4.0)
    assert abs(emp - 0.5) <= 0.0015  # binomial 3 sigma
    assert batch.values.min() >= 1.0


def test_tail_model_sampler_symmetrize():
    m = make_pareto(0.5)
    batch = sample_tail_model(m, 10 ** 6, RngStream(22), symmetrize=True)
    assert abs(np.mean(np.sign(batch.values))) <= 0.003
    # magnitudes keep the one-sided law
    emp = np.mean(np.abs(batch.values) > 4.0)
    assert abs(emp - 0.5) <= 0.0016


@pytest.mark.parametrize("shape", [(1,), (sampling._SIGN_PIECE + 3,), (3, sampling._SIGN_PIECE)])
def test_signed_draws_the_signs_of_one_integers_call(shape):
    # one 32-bit word per value, a piece at a time, as gen.integers(0, 2, size)
    # drew them in one call: a 0 draws a minus, and the stream goes on alike
    # (the odd draws first leave half a 64-bit Philox output buffered)
    gen, ref = RngStream(8).generator(), RngStream(8).generator()
    assert np.array_equal(gen.integers(0, 2, 3), ref.integers(0, 2, 3))
    x = _signed(gen, np.ones(shape))
    assert np.array_equal(x, np.where(ref.integers(0, 2, shape) == 0, -1.0, 1.0))
    assert np.array_equal(gen.integers(0, 2, 5), ref.integers(0, 2, 5))
    assert gen.random() == ref.random()


def test_symmetrized_sample_draws_its_signs_a_piece_at_a_time(traced_peak):
    # 2^20 values hold 8 MiB; their sign bits in one int64 array held 8 MiB more
    batch, peak = traced_peak(lambda: sample_tail_model(make_pareto(1.5), 1 << 20,
                                                        RngStream(23), symmetrize=True))
    assert np.all(batch.values != 0.0)
    assert peak <= 9.5 * 2 ** 20


def test_petersburg_via_tail_model_matches_direct():
    # unit-mass petersburg tail (x0 = 1) renormalizes to the full winnings law
    m = make_petersburg(x0=1.0)
    a = sample_tail_model(m, 200000, RngStream(5, 0))
    b = sample_petersburg(200000, RngStream(5, 1))
    assert ks_two_sample(a.values, b.values) <= 0.005
    # on one stream its strict inverse inf{x : T(x) < u} gives exactly
    # petersburg_from_uniform of the same uniforms, with or without signs
    # (the generalized inverse put U = 2^-j on 2^j, and U = 1 on 1, outside
    # the support)
    for symmetrize in (False, True):
        a = sample_tail_model(m, 10 ** 5, RngStream(5, 3), symmetrize)
        gen = RngStream(5, 3).generator()
        b = petersburg_from_uniform(_open01(gen, np.empty(10 ** 5)))
        if symmetrize:
            _signed(gen, b)
        assert a.values.tobytes() == b.tobytes()
    for x0 in (2.0, 3.0):  # every draw lies above x0: the least is 4
        assert sample_tail_model(make_petersburg(x0), 10 ** 5, RngStream(6)).values.min() == 4.0


# -- poisson point sets ------------------------------------------------------------

def test_points_from_arrivals_power_law():
    m = make_pareto(0.5)
    arr = np.array([0.25, 1.0, 4.0, 9.0])
    pts = points_from_arrivals(m, arr)
    assert np.allclose(pts, arr ** -2.0, rtol=1e-13)  # y_p = Gamma_p^(-1/alpha)


def test_poisson_arrivals_follow_the_erlang_laws():
    # the count first, then Renyi's normalized exponential sums: the j-th
    # arrival of a unit-rate process is Gamma(j, 1), here at T(t) = 100
    m = make_pareto(0.5)
    reps = 2 * 10 ** 4
    first, fifth = np.array([sample_poisson_points(m, 1e-4, RngStream(79, i)).arrival_times[[0, 4]]
                             for i in range(reps)]).T
    for arrivals, p in ((first, 1), (fifth, 5)):
        ks = ks_distance(Ecdf.from_sample(arrivals), lambda x, p=p: erlang_cdf(p, x))
        assert ks <= 2.5 / math.sqrt(reps)


def test_poisson_point_set_may_be_empty():
    # T(10^6) = 10^-3: the count is 0 on this stream, and the set holds nothing
    ps = sample_poisson_points(make_pareto(0.5), 1e6, RngStream(3))
    assert ps.points.shape == ps.arrival_times.shape == (0,)
    assert ps.points.dtype == ps.arrival_times.dtype == np.float64


def test_poisson_point_set_structure():
    m = make_pareto(0.5)
    ps = sample_poisson_points(m, 1e-4, RngStream(31))
    assert isinstance(ps, PoissonPointSet)
    assert np.all(np.diff(ps.points) <= 0.0)
    assert np.all(ps.points > 1e-4)
    assert np.all(np.diff(ps.arrival_times) > 0.0)
    assert ps.arrival_times.size == ps.points.size


def test_poisson_count_moments():
    # T(t) = 100: point count is Poisson(100)
    m = make_pareto(0.5)
    t = 1e-4
    counts = np.array([sample_poisson_points(m, t, RngStream(77, i)).points.size
                       for i in range(10 ** 4)])
    assert abs(counts.mean() - 100.0) <= 0.3
    assert abs(counts.var(ddof=1) - 100.0) <= 5.0


def test_poisson_void_probability():
    # P(largest point <= x) = exp(-T(x)); at T(x) = 1 this is 1/e
    m = make_pareto(0.5)
    t = 1e-4
    hits = 0
    reps = 10 ** 4
    for i in range(reps):
        ps = sample_poisson_points(m, t, RngStream(78, i))
        hits += 0 if (ps.points.size and ps.points[0] > 1.0) else 1
    assert abs(hits / reps - math.exp(-1.0)) <= 0.005


def test_point_budget_guard():
    m = make_pareto(0.5)
    with pytest.raises(ResourceLimitError):
        sample_poisson_points(m, 1e-20, RngStream(1))


def test_point_set_memory_bound(monkeypatch):
    # a point set holds every point: above 2^26 expected points it is refused
    # before a stream is opened, while the Poisson sums keep the 1e9 budget
    def drew(*args, **kwargs):
        raise AssertionError("drew before the point-set bound")

    monkeypatch.setattr(RngStream, "generator", drew)
    m = make_pareto(0.5)
    cutoff = (1.01 * 2.0 ** 26) ** -2.0  # T(cutoff) = 1.01 * 2^26
    with pytest.raises(ResourceLimitError, match="would need 67779952.64 expected points held "
                                                 "in memory, over the budget of 67108864$"):
        sample_poisson_points(m, cutoff, RngStream(1))
    assert sampling._point_rate(m, cutoff) == pytest.approx(1.01 * 2.0 ** 26)


# -- semistable poisson sums --------------------------------------------------------

def test_poisson_sum_centerings():
    # alpha = 1 truncated mean: petersburg intensity at cutoff 2^-k centers by k
    pete = make_petersburg(x0=1.0)
    assert poisson_sum_centering(pete, 2.0 ** -10) == pytest.approx(10.0, abs=1e-7)
    # alpha < 1: none
    assert poisson_sum_centering(make_pareto(0.5), 1e-6) == 0.0
    # alpha > 1: full mean above cutoff, alpha/(alpha-1) t^(1-alpha) for pure tails
    m = make_pareto(1.5, x0=1.0)
    assert poisson_sum_centering(m, 0.01) == pytest.approx(30.0, rel=1e-8)


def test_poisson_sum_empty_process():
    # cutoff far out: expected count ~ 3e-5, the fixed seed draws no point
    m = make_pareto(0.5)
    s = sample_semistable_poisson_sum(m, 1e9, RngStream(3))
    assert s == 0.0


def test_poisson_sum_levy_law():
    m = make_pareto(0.5)
    sums = poisson_sum_batch(m, 1e-6, 20000, seed=11)
    assert ks_distance(Ecdf.from_sample(sums), levy_cdf) <= 0.015
    # expected truncation bias of the cutoff is (alpha/(1-alpha)) t^(1-alpha) = 1e-3
    assert sums.min() > 0.0


def test_poisson_sum_symmetric_mode():
    m = make_pareto(1.5, x0=1.0)
    sums = np.array([sample_semistable_poisson_sum(m, 0.05, RngStream(13, i),
                                                   symmetric=True)
                     for i in range(4000)])
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean()) <= 3.0 * se


def test_poisson_sum_centered_mean_zero():
    m = make_pareto(1.5, x0=1.0)
    sums = poisson_sum_batch(m, 0.05, 20000, seed=14)
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    # infinite-variance summands: the t statistic is heavier than normal,
    # so allow 4 estimated stderrs around the exact centering
    assert abs(sums.mean()) <= 4.0 * se


def test_poisson_sum_batch_deterministic_and_threaded():
    m = make_pareto(0.5)
    a = poisson_sum_batch(m, 1e-4, 3000, seed=15)
    b = poisson_sum_batch(m, 1e-4, 3000, seed=15, threads=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", (1, 3))
def test_poisson_sum_batch_stream_layout(threads):
    # block b of 256 replicates draws from stream base_stream + b, so a
    # 300-replicate batch on base 5 ends with the 44-replicate batch on base 6
    for model, symmetric in ((make_pareto(0.5), False),
                             (make_pareto(1.5, x0=1.0), True),
                             (make_petersburg(x0=1.0), False),
                             (make_petersburg(x0=1.0), True)):
        sums = poisson_sum_batch(model, 1e-3, 300, seed=16, base_stream=5,
                                 symmetric=symmetric, threads=threads)
        assert sums.shape == (300,)
        tail = poisson_sum_batch(model, 1e-3, 44, seed=16, base_stream=6,
                                 symmetric=symmetric)
        assert np.array_equal(sums[256:], tail)
        for b in (5, 6, 7):
            one = poisson_sum_batch(model, 1e-3, 1, seed=16, base_stream=b,
                                    symmetric=symmetric)
            assert one[0] == sample_semistable_poisson_sum(
                model, 1e-3, RngStream(16, b), symmetric=symmetric)


def test_sample_batch_needs_a_value():
    with pytest.raises(ValueError, match="^empty batch$"):
        sampling.SampleBatch(values=np.empty(0), model=model_to_json(make_pareto(0.5)),
                             seed=1, stream_id=0)


def test_batches_need_a_replicate():
    # an empty batch used to fail inside np.concatenate
    with pytest.raises(ValueError, match="reps must be an integer >= 1"):
        poisson_sum_batch(make_pareto(0.5), 1e-3, 0, seed=1)
    with pytest.raises(ValueError, match="reps must be an integer >= 1"):
        lepage_batch(0.5, 0, seed=1, n_terms=10)


@pytest.mark.parametrize("n_terms", (0, -5))
def test_lepage_needs_a_term(n_terms):
    # returned sums of no terms (0.0) before
    with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
        lepage_batch(0.5, 3, 1, n_terms=n_terms)
    with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
        sample_lepage(0.5, RngStream(1), n_terms=n_terms)


def test_poisson_sums_match_sums_of_point_sets():
    # a count plus unordered uniforms against the ordered arrival construction
    m = make_pareto(0.5)
    reps = 2 * 10 ** 4
    ref = np.array([sample_poisson_points(m, 1e-4, RngStream(81, i)).points.sum()
                    for i in range(reps)])
    sums = poisson_sum_batch(m, 1e-4, reps, seed=82)
    assert ks_two_sample(sums, ref) <= 2.5 * math.sqrt(2.0 / reps)


@pytest.mark.parametrize("model, cutoff", [
    (make_petersburg(x0=1.0), 2.0 ** -8),
    # a cutoff off the lattice, and c != 1
    (TailModel(alpha=1, q=2, c=3, x0=1, psi_kind="petersburg"), 0.3),
], ids=["dyadic-cutoff", "c3-cutoff0.3"])
def test_petersburg_poisson_sums_match_sums_of_point_sets(model, cutoff):
    # level counts on a Poisson count against the ordered arrival
    # construction, one set of point sets for both modes (signs on seed 85)
    reps = 2 * 10 ** 4
    ref, signed = np.empty(reps), np.empty(reps)
    for i in range(reps):
        pts = sample_poisson_points(model, cutoff, RngStream(83, i)).points
        ref[i] = pts.sum()
        signs = 2.0 * RngStream(85, i).generator().integers(0, 2, pts.size) - 1.0
        signed[i] = (pts * signs).sum()
    ref -= poisson_sum_centering(model, cutoff)
    bound = 2.5 * math.sqrt(2.0 / reps)
    assert ks_two_sample(poisson_sum_batch(model, cutoff, reps, seed=84), ref) <= bound
    assert ks_two_sample(poisson_sum_batch(model, cutoff, reps, seed=84, symmetric=True),
                         signed) <= bound


def test_petersburg_poisson_sums_pass_the_old_draw_budget():
    # about 2^20 points per replicate: drawn point by point, 10^5 of them
    # exceeded the 2^32 draw budget; as level counts they take 21 draws each
    sums = poisson_sum_batch(make_petersburg(x0=1.0), 2.0 ** -20, 10 ** 5, seed=1)
    assert sums.shape == (10 ** 5,)
    assert np.all(np.isfinite(sums))


def test_petersburg_poisson_sums_pass_the_point_budget(monkeypatch):
    # 2^31 expected points per sum: the 1e9 point budget refused it, though
    # the level kernel holds no point; the bound is numpy's Poisson range
    sums = poisson_sum_batch(make_petersburg(x0=1.0), 2.0 ** -31, 10, seed=1)
    assert sums.shape == (10,) and np.all(np.isfinite(sums))
    sums = poisson_sum_batch(make_petersburg(x0=1.0), 2.0 ** -62, 10, seed=1, symmetric=True)
    assert sums.shape == (10,) and np.all(np.isfinite(sums))

    def drew(*args, **kwargs):
        raise AssertionError("drew before the Poisson-range check")

    monkeypatch.setattr(RngStream, "generator", drew)
    # T = 2^63 per sum passes the largest mean numpy draws (about 9.2e18);
    # symmetric, each sign class has half of it, and 2^64 passes that
    for cutoff, symmetric in ((2.0 ** -63, False), (2.0 ** -64, True), (1e-300, False)):
        with pytest.raises(ResourceLimitError, match="points in numpy's Poisson draws, over"):
            poisson_sum_batch(make_petersburg(x0=1.0), cutoff, 10, seed=1, symmetric=symmetric)
    # Pareto sums draw every point and keep the point budget
    with pytest.raises(ResourceLimitError, match="over the budget of 1000000000$"):
        poisson_sum_batch(make_pareto(0.5), 1e-20, 10, seed=1)


def test_point_rate_refusal_tells_the_numbers_apart():
    # 2^63 and the largest Poisson mean numpy draws agree to 7 digits: with
    # three the refusal read "9.22e+18 exceeds the 9.22e+18 limit"
    with pytest.raises(ResourceLimitError) as err:
        poisson_sum_batch(make_petersburg(1.0), 2.0 ** -63, 10, seed=1)
    assert str(err.value) == ("would need 9.223372037e+18 expected points in numpy's "
                              "Poisson draws, over the budget of 9.223372006e+18")
    # numbers that agree in ten digits print with as many more as tell them apart
    with pytest.raises(ResourceLimitError) as err:
        poisson_sum_batch(make_pareto(0.5), 9.9999999998e-19, 10, seed=1)
    assert str(err.value) == ("would need 1000000000.01 expected points, over the "
                              "budget of 1000000000")
    with pytest.raises(ResourceLimitError, match="need 1e\\+20 expected points, over the "
                                                 "budget of 1000000000$"):
        poisson_sum_batch(make_pareto(0.5), 1e-40, 10, seed=1)


def test_poisson_sum_memory_is_bounded(traced_peak):
    # lambda = 1e7 points per replicate, drawn _CHUNK at a time
    sums, peak = traced_peak(lambda: poisson_sum_batch(make_pareto(0.5), 1e-14, 2, seed=1))
    assert np.all(sums > 0.0)
    assert peak <= 4 * 2 ** 20


def test_dyadic_scaling_of_centered_sums():
    # one law across dyadic cutoff levels: centered sums at T(t) = 2^k merge
    pete = make_petersburg(x0=1.0)
    a = poisson_sum_batch(pete, 2.0 ** -8, 100000, seed=21)
    b = poisson_sum_batch(pete, 2.0 ** -12, 100000, seed=22)
    assert ks_two_sample(a, b) <= 0.01


# -- LePage series ---------------------------------------------------------------------

def test_lepage_auto_terms():
    assert lepage_auto_terms(0.5, False) == 10 ** 6  # mean proxy sum p^-2 < 1e-6
    assert lepage_auto_terms(0.5, True) == 70        # variance proxy sum p^-4
    with pytest.raises(ValueError):
        lepage_auto_terms(1.2, False)


def test_lepage_mode_contract():
    with pytest.raises(ValueError):
        sample_lepage(1.2, RngStream(1))  # positive mode needs alpha < 1
    with pytest.raises(ValueError):
        sample_lepage(2.5, RngStream(1), symmetric=True)
    assert sample_lepage(1.2, RngStream(1), symmetric=True, n_terms=500) != 0.0


def test_lepage_levy_law():
    vals = lepage_batch(0.5, 20000, seed=12, n_terms=10000)
    assert ks_distance(Ecdf.from_sample(vals), levy_cdf) <= 0.015


def test_lepage_symmetric_median_zero():
    vals = lepage_batch(0.75, 20000, seed=16, symmetric=True)
    med = np.median(vals)
    # median stderr ~ 1.2533 sd/sqrt(n) with sd estimated robustly
    q25, q75 = np.quantile(vals, [0.25, 0.75])
    se = 1.2533 * (q75 - q25) / 1.349 / math.sqrt(vals.size)
    assert abs(med) <= 3.0 * se


def test_lepage_term_ratio():
    # median of (Z_1/Z_4)^2 sits within factor 1.5 of 4^(-1/alpha) = 1/16
    rng = np.random.default_rng(5)
    z = np.cumsum(rng.standard_exponential((10 ** 5, 4)), axis=1)
    med = np.median((z[:, 0] / z[:, 3]) ** 2)
    assert med <= 1.0 / 16.0 * 1.5
    assert med >= 1.0 / 16.0 / 1.5


def test_lepage_truncation_refinement_stability():
    # doubling the term count moves the 0.9-quantile by far less than 1e-3
    for alpha, symmetric in ((0.4, False), (0.6, True)):
        p = lepage_auto_terms(alpha, symmetric)
        q_short = []
        q_long = []
        for i in range(2000):
            gen = RngStream(33, i).generator()
            terms = np.cumsum(gen.standard_exponential(2 * p)) ** (-1.0 / alpha)
            if symmetric:
                terms *= 2.0 * gen.integers(0, 2, 2 * p) - 1.0
            partial = np.cumsum(terms)
            q_short.append(partial[p - 1])
            q_long.append(partial[-1])
        shift = abs(np.quantile(q_short, 0.9) - np.quantile(q_long, 0.9))
        assert shift < 1e-3, (alpha, symmetric, shift)


def test_lepage_work_budget(monkeypatch):
    # reps x draws per replicate is refused before any stream is opened; the
    # defaults of `semistable lepage` asked for 10^5 x 10^6 exponentials, and
    # the other calls below ran until stopped.  The coupling curve refuses a
    # later phase before its first phase draws, and the sweep prices its
    # whole walk, k + 2 levels a replicate, before it forms a phase.
    def drew(*args, **kwargs):
        raise AssertionError("drew before the budget check")

    monkeypatch.setattr(RngStream, "generator", drew)
    m = make_pareto(0.5)
    for call in (lambda: lepage_batch(0.5, 10 ** 5, seed=1),
                 lambda: lepage_limit_experiment(0.5, 14, 10 ** 5, RngStream(1)),
                 lambda: lepage_limit_experiment(0.5, 24, 300, RngStream(1), n_terms=10),
                 lambda: negligibility_experiment([0.5], 10 ** 7, 10 ** 3, RngStream(1)),
                 lambda: order_statistics_experiment(3, 10 ** 6, 2 ** 31 + 1, RngStream(1)),
                 lambda: coupling_gap_curve(m, [100, 10 ** 7], 1000, RngStream(1)),
                 lambda: poisson_sum_batch(m, 1e-10, 10 ** 5, seed=1),
                 # 2 x 21 level draws per symmetric St. Petersburg Poisson sum
                 lambda: poisson_sum_batch(make_petersburg(x0=1.0), 2.0 ** -20, 2 ** 27,
                                           seed=1, symmetric=True),
                 lambda: petersburg_sum_batch(2 ** 62, 2 ** 27, seed=1),
                 # 9 binomial levels per sum fit, the last phase's 10 do not,
                 # and the walk's 5 phases x 10 levels do not either
                 lambda: empirics.merging_sweep(8, 4, 2 ** 32 // 9, RngStream(1))):
        start = time.perf_counter()
        what = "the sweep" if "merging_sweep" in call.__code__.co_names else "one phase"
        with pytest.raises(ResourceLimitError, match="draws in %s, over the budget "
                                                     "of 4294967296$" % what):
            call()
        assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    # the README's lepage command fits: 10^5 replicates x 2^14 draws
    sampling._map_blocks([(lambda gen, rows: np.zeros(rows), 1 << 14)], 10 ** 5, 1)


def test_lepage_batch_reproducible():
    a = lepage_batch(0.5, 500, seed=2, n_terms=2000)
    b = lepage_batch(0.5, 500, seed=2, n_terms=2000, threads=3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", (1, 3))
@pytest.mark.parametrize("alpha, symmetric", ((0.5, False), (1.5, True)))
def test_lepage_batch_stream_layout(threads, alpha, symmetric):
    # block b of 256 replicates draws from stream base_stream + b
    vals = lepage_batch(alpha, 300, seed=3, symmetric=symmetric, n_terms=400,
                        base_stream=5, threads=threads)
    assert vals.shape == (300,)
    tail = lepage_batch(alpha, 44, seed=3, symmetric=symmetric, n_terms=400,
                        base_stream=6)
    assert np.array_equal(vals[256:], tail)
    for b in (5, 6, 7):
        one = lepage_batch(alpha, 1, seed=3, symmetric=symmetric, n_terms=400,
                           base_stream=b)
        assert one[0] == sample_lepage(alpha, RngStream(3, b), n_terms=400,
                                       symmetric=symmetric)


@pytest.mark.parametrize("alpha, symmetric", ((0.5, False), (1.5, True)))
def test_lepage_sums_match_the_per_replicate_series(alpha, symmetric):
    reps, p = 2 * 10 ** 4, 200
    ref = np.empty(reps)
    for i in range(reps):
        gen = RngStream(83, i).generator()
        mags = np.cumsum(gen.standard_exponential(p)) ** (-1.0 / alpha)
        if symmetric:
            mags *= 2.0 * gen.integers(0, 2, p) - 1.0
        ref[i] = mags.sum()
    vals = lepage_batch(alpha, reps, seed=84, symmetric=symmetric, n_terms=p)
    assert ks_two_sample(vals, ref) <= 2.5 * math.sqrt(2.0 / reps)


def _cumsum_lepage(alpha, p, symmetric, gen, rows, ranks=0):
    # reference: the series over cumulative sums of exponentials, whose
    # first terms are its largest
    out = np.empty((rows, 1 + ranks))
    for r0 in range(0, rows, 500):
        terms = np.cumsum(gen.standard_exponential((min(500, rows - r0), p)),
                          axis=1) ** (-1.0 / alpha)
        out[r0:r0 + 500, 1:] = terms[:, :ranks]
        if symmetric:
            terms *= 2.0 * gen.integers(0, 2, terms.shape) - 1.0
        out[r0:r0 + 500, 0] = terms.sum(axis=1)
    return out


@pytest.mark.parametrize("alpha, symmetric, ranks, reps", (
    (0.5, False, 0, 4 * 10 ** 4), (1.5, True, 0, 4 * 10 ** 4),
    (0.7, True, 3, 80 * sampling.BLOCK)))
def test_lepage_block_matches_the_cumsum_reference(alpha, symmetric, ranks, reps):
    # the Gamma-scaled power sum has the law of the exponential-cumsum
    # series: the sums and each of the largest terms, by two-sample KS
    p = 500
    ref = _cumsum_lepage(alpha, p, symmetric, RngStream(95).generator(), reps, ranks)
    (vals,) = sampling._map_blocks(
        [(lambda gen, rows: sampling._lepage_block(alpha, p, symmetric, gen, rows, ranks),
          p)], reps, 96)
    for j in range(1 + ranks):
        assert ks_two_sample(vals[:, j], ref[:, j]) <= 2.5 * math.sqrt(2.0 / reps)


def test_power_block_tiles_hold_at_most_chunk_uniforms(monkeypatch):
    # rows longer than _CHUNK are drawn a tile at a time, and the sums and
    # the merged top ranks are those of the whole row; each tile's uniforms
    # are copied as drawn, before the kernel maps them in place
    tiles = []

    def recording(gen, out):
        tiles.append(_open01(gen, out).copy())
        return out

    monkeypatch.setattr(sampling, "_open01", recording)
    n, rows = 4 * sampling._CHUNK, 3
    out = sampling._power_block(0.5, n, 3, False, RngStream(97).generator(), rows)
    sampling._lepage_block(0.5, n, True, RngStream(98).generator(), rows, 3)
    assert max(t.size for t in tiles) <= sampling._CHUNK
    assert sum(t.size for t in tiles) == 2 * rows * n
    row_tiles = len(tiles) // (2 * rows)
    for i in range(rows):
        mags = make_pareto(0.5)._quantile_formula(
            np.concatenate(tiles[i * row_tiles:(i + 1) * row_tiles], axis=None))
        assert list(out[i, 1:]) == sorted(mags, reverse=True)[:3]
        assert out[i, 0] == pytest.approx(mags.sum(), rel=1e-12)


def test_lepage_block_working_set(traced_peak):
    # one 256-row block of 10^4 terms: every tile is drawn and mapped in one
    # buffer of _CHUNK doubles (256 KiB); fresh arrays per tile took 952 KiB
    vals, peak = traced_peak(lambda: lepage_batch(0.5, sampling.BLOCK, seed=7, n_terms=10 ** 4))
    assert vals.shape == (sampling.BLOCK,)
    assert peak <= 320 * 1024


def _curve_rows(n):  # a curve block: 256 rows with the fluctuation window
    half = coupling._check_coupling_model(make_pareto(0.5), n, window=True)
    return lambda gen: coupling._curve_block(make_pareto(0.5), n, half, gen, sampling.BLOCK)


def _power_rows(alpha, ranks, symmetric):  # 256 rows of 10^4 terms
    return lambda gen: sampling._power_block(alpha, 10 ** 4, ranks, symmetric, gen,
                                             sampling.BLOCK)


@pytest.mark.parametrize("block", [
    _curve_rows(100), _curve_rows(10 ** 3), _curve_rows(10 ** 4), _curve_rows(10 ** 5),
    # coupled_pair's lone row at n = 4*10^4, its count past n
    lambda gen: coupling._coupled_block(make_pareto(0.5), 4 * 10 ** 4, 0, gen,
                                        np.array([40075])),
    _power_rows(0.5, 0, False), _power_rows(0.5, 1, False), _power_rows(0.5, 3, False),
    _power_rows(1.5, 0, True), _power_rows(1.5, 3, True),
    lambda gen: sampling._lepage_block(0.5, 10 ** 4, False, gen, sampling.BLOCK, ranks=3),
    lambda gen: sampling._lepage_block(1.5, 10 ** 4, True, gen, sampling.BLOCK, ranks=3),
    lambda gen: sampling._poisson_sum_block(make_pareto(0.5), 1e4, False, 0.0, gen,
                                            sampling.BLOCK),
    lambda gen: sampling._poisson_sum_block(make_pareto(0.5), 1e4, True, 0.0, gen,
                                            sampling.BLOCK),
    lambda gen: sampling._level_poisson_block(make_petersburg(1.0), 2.0 ** 20, -19, False, 0.0,
                                              gen, sampling.BLOCK),
    lambda gen: sampling._petersburg_block(2 ** 40, gen, sampling.BLOCK),
], ids=["curve-1e2", "curve-1e3", "curve-1e4", "curve-1e5", "pair-4e4", "power-ranks-0",
        "power-ranks-1", "power-ranks-3", "power-symmetric", "power-symmetric-ranks-3",
        "lepage-ranks-3", "lepage-symmetric-ranks-3", "poisson-one-sided", "poisson-symmetric",
        "poisson-levels", "petersburg"])
def test_block_kernels_hold_one_chunk(block, traced_peak):
    # the working-set rule: one buffer of _CHUNK doubles (256 KiB) per block,
    # and 48 KiB for the rest.  A buffer per row group, bound while the next
    # was made, took a 256-row curve block to 426-541 KiB; the sign bits of a
    # whole tile in one int64 array took the symmetric blocks to 500-520 KiB;
    # concatenated, partitioned copies of each tile took ranks 3 to 743 KiB.
    # The closest, the symmetric ranks-3 LePage block (301 KiB), holds the
    # buffer, its 8 KiB of output rows, one 32 KiB piece of sign words and
    # 2 KiB of Gamma scales.  The symmetric level-count block is left out:
    # its 512 rows of 64 int64 levels fill a chunk by themselves, and it
    # peaks at 330 KiB.  A first call, outside the trace, makes what a
    # kernel builds once
    gen = RngStream(5).generator()
    out, peak = traced_peak(lambda: block(gen), warm=True)
    assert np.all(np.isfinite(out))
    assert peak <= sampling._CHUNK * 8 + 48 * 1024


def test_lepage_small_alpha_is_not_nan():
    # each term is scaled before the power; scaling the sum by
    # Gamma_{p+1}**(-100) gives inf * 0
    vals = lepage_batch(0.01, 512, seed=99, n_terms=10 ** 4)
    assert not np.isnan(vals).any()


@pytest.mark.parametrize("alpha, call", [
    (0.01, lambda: lepage_batch(0.01, 20000, seed=5, n_terms=100)),
    (0.01, lambda: lepage_batch(0.01, 2000, seed=5, symmetric=True, n_terms=100)),
    (0.01, lambda: poisson_sum_batch(make_pareto(0.01), 1e-6, 20000, seed=5)),
    # an inf point makes its sum inf, or NaN (inf - inf) with signs
    (0.01, lambda: poisson_sum_batch(make_pareto(0.01), 1e-6, 20000, seed=5, symmetric=True)),
    (0.01, lambda: sample_tail_model(make_pareto(0.01), 20000, RngStream(5))),
    (0.01, lambda: coupling.coupled_pair(make_pareto(0.01), 10 ** 4, RngStream(5))),
    # n = 100 draws 130 terms per path, so its 4 blocks pool; none of them
    # runs on past the error
    (0.01, lambda: coupling_gap_curve(make_pareto(0.01), [100, 1000], 1000, RngStream(5))),
    # a block edge q**(k/alpha) of the grid quantile passes float64's max
    (0.002, lambda: sample_tail_model(TailModel(alpha=0.002, q=2, c=1.0, x0=1.0, psi_kind="grid",
                                                psi_values=tuple(np.ones(64))),
                                      1000, RngStream(5))),
    # U * T(x0) below 2^-1023 maps to 2**1024 = inf
    (1, lambda: sample_tail_model(make_petersburg(x0=2.0 ** 1015), 1000, RngStream(5))),
    # T(1e-300) = 1e570: inf after a RuntimeWarning, and the Poisson calls
    # refused "inf expected points" as a work bound
    (1.9, lambda: intensity_tail(make_pareto(1.9), 1e-300)),
    (1.9, lambda: poisson_sum_batch(make_pareto(1.9), 1e-300, 10, seed=5)),
    (1.9, lambda: sample_poisson_points(make_pareto(1.9), 1e-300, RngStream(5))),
    # the mean above 1e-300 is 1e100 (1.9 / 0.9) 1e270: inf after a warning
    (1.9, lambda: tail_first_moment(make_pareto(1.9, c=1e100), 1e-300)),
    (1.9, lambda: poisson_sum_centering(make_pareto(1.9, c=1e100), 1e-300)),
    # P = (1e-6 (s - 1))**(-1/(s - 1)) is about 1e377: "(34, 'Numerical
    # result out of range')", naming nothing
    (0.98, lambda: lepage_auto_terms(0.98, False)),
    (1.96, lambda: lepage_auto_terms(1.96, True)),
    # the default x0 = c**(1/alpha) = 1e1000: the same bare errno message
    (0.1, lambda: make_pareto(0.1, c=1e100)),
    # rho = q**(1/alpha) = 2**10000: the same bare errno message
    (1e-4, lambda: sample_tail_model(TailModel(alpha=1e-4, q=2, c=1.0, x0=1.0, psi_kind="grid",
                                               psi_values=tuple(np.ones(64))), 10, RngStream(5))),
    # u <= 2^-1023 maps to 2**1024: inf after numpy's "overflow encountered in ldexp"
    (1, lambda: petersburg_from_uniform(5e-324)),
], ids=["lepage", "lepage-symmetric", "poisson", "poisson-symmetric", "tail-model",
        "coupled-pair", "coupling-curve", "grid", "petersburg", "intensity-tail",
        "poisson-rate", "poisson-points", "first-moment", "centering", "lepage-auto",
        "lepage-auto-symmetric", "pareto-x0", "grid-rho", "petersburg-from-uniform"])
def test_small_alpha_overflow_is_an_error(alpha, call):
    # the largest term Z_1**(-100) passes float64's max when Z_1 < 8.3e-4;
    # these batches returned rows of +inf (11 of the LePage rows, 22 of the
    # tail-model draws) with only a RuntimeWarning before, and the coupled
    # pair came back as s_hat = s_bar = nan with gap = 0.0.  The one typed
    # error (_arrays._check_finite) names alpha and comes with no
    # RuntimeWarning before it (the grid raised a bare "math range error")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=re.escape("at alpha = %s " % alpha)
                           + r".* overflows float64 \(max 1\.8e\+308\)$"):
            call()


def test_kernel_chunking_changes_only_rounding(monkeypatch):
    # a tiny _CHUNK splits every row across column chunks; the uniforms (after
    # the LePage row's Gamma draw) come off the stream in the same order, so
    # only the summation order moves
    m = make_pareto(0.5)
    before = (poisson_sum_batch(m, 1e-3, 40, seed=85),
              sample_lepage(0.5, RngStream(86), n_terms=500))
    monkeypatch.setattr(sampling, "_CHUNK", 7)
    after = (poisson_sum_batch(m, 1e-3, 40, seed=85),
             sample_lepage(0.5, RngStream(86), n_terms=500))
    assert np.allclose(after[0], before[0], rtol=1e-12, atol=0.0)
    assert after[1] == pytest.approx(before[1], rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(reps=st.integers(1, 600), base=st.integers(0, 10 ** 9))
def test_batches_do_not_depend_on_threads(reps, base):
    # a pooled phase's drawers follow the CPU count; 1 CPU starts no helper.
    # Poisson (lambda = 316), LePage (128 terms) and both curve phases (130
    # and 187 draws) pool once there are two blocks, one block at a time; so
    # do the level counts: the St. Petersburg sums (7
    # levels per replicate at n = 100), both sweep phases (9 and 10) and the
    # St. Petersburg Poisson sums (9 at lambda = 256, twice that when
    # symmetric); the Feller sums (17 at n = 2^16) pool from 100 + reps > 256
    m, pete = make_pareto(0.5), make_petersburg(x0=1.0)
    runs = []
    for cpus in (1, 2, 3):
        with _cpu_count(cpus) as pooled:
            curve = coupling_gap_curve(m, [100, 150], reps, RngStream(87, base))
            runs.append((
                poisson_sum_batch(m, 1e-5, reps, seed=87, base_stream=base).tobytes(),
                poisson_sum_batch(pete, 2.0 ** -8, reps, seed=87, base_stream=base).tobytes(),
                poisson_sum_batch(pete, 2.0 ** -8, reps, seed=87, base_stream=base,
                                  symmetric=True).tobytes(),
                lepage_batch(0.5, reps, seed=87, n_terms=128, base_stream=base).tobytes(),
                petersburg_sum_batch(100, reps, seed=87, base_stream=base).tobytes(),
                curve.statistic,
                empirics.merging_sweep(8, 1, reps, RngStream(87, base)).statistic,
                empirics.feller_experiment(1 << 16, 100 + reps, RngStream(87, base)).statistic))
        several = cpus > 1 and reps > sampling.BLOCK
        assert len(pooled) == 9 * several + (cpus > 1 and 100 + reps > sampling.BLOCK)
    assert runs[0] == runs[1] == runs[2]


def test_tail_model_sampling_needs_a_positive_scaled_mass():
    # T(x0) = 1e-320: U * T(x0) underflows to 0 for U < 0.49, where the
    # quantile would be inf
    tiny = TailModel(alpha=0.5, q=2, c=1e-300, x0=1e40)
    with pytest.raises(ValueError, match="T\\(x0\\)"):
        sample_tail_model(tiny, 10, RngStream(1))
    with pytest.raises(ValueError, match="x0 > 0"):
        sample_tail_model(make_pareto(0.5, x0=0.0), 10, RngStream(1))


# -- block pool ----------------------------------------------------------------


def _pooled(workers, blocks):  # a phase drawn by more than one thread
    return workers > 1 and len(blocks) > 1


@contextlib.contextmanager
def _cpu_count(cpus):
    """Batches see cpus CPUs: a pooled phase runs on the caller and up to
    cpus - 1 helpers; with 1 CPU, blocks run on the caller alone.  Yields
    the block counts of the phases run with more than one worker and more
    than one block, in order.  A context manager rather than a fixture, so
    that hypothesis tests can use it too."""
    pooled, on_pool = [], sampling._on_pool

    def spy(run, blocks, workers):
        if _pooled(workers, blocks):
            pooled.append(len(blocks))
        return on_pool(run, blocks, workers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_cpus", lambda: cpus)
        mp.setattr(sampling, "_on_pool", spy)
        yield pooled


def _pooled_outputs():
    # with several CPUs every phase but the order statistics' (2 draws per
    # replicate) pools: 12 phases of at least _CHUNK draws per block, and 7
    # of level counts: the sweep's 3 (11 and 12 levels per replicate), the
    # Feller and merging sums (17 and 11) and the St. Petersburg Poisson
    # sums (21 levels at cutoff 2^-20, twice that when symmetric)
    m, pete = make_pareto(0.5), make_petersburg(x0=1.0)
    curve = coupling_gap_curve(m, [100, 300], 700, RngStream(88, 3))
    return [
        poisson_sum_batch(m, 1e-5, 1000, seed=88).tobytes(),
        poisson_sum_batch(m, 1e-5, 1000, seed=88, symmetric=True).tobytes(),
        lepage_batch(0.5, 900, seed=88, n_terms=500).tobytes(),
        lepage_batch(1.5, 900, seed=88, symmetric=True, n_terms=500).tobytes(),
        curve.to_json(),
        order_statistics_experiment(3, 500, 700, RngStream(89)).to_json(),
        negligibility_experiment([0.5, 2.5], 1000, 600, RngStream(90)).to_json(),
        lepage_limit_experiment(0.5, 7, 600, RngStream(91), n_terms=300).to_json(),
        lepage_limit_experiment(1.5, 7, 600, RngStream(92), symmetric=True,
                                n_terms=300).to_json(),
        empirics.merging_sweep(10, 2, 3000, RngStream(93)).to_json(),
        empirics.feller_experiment(1 << 16, 1000, RngStream(94)).to_json(),
        empirics.merging_experiment(1536, 10 ** 4, RngStream(95)).to_json(),
        poisson_sum_batch(pete, 2.0 ** -20, 1000, seed=96).tobytes(),
        poisson_sum_batch(pete, 2.0 ** -20, 1000, seed=96, symmetric=True).tobytes(),
    ]


def test_pooled_batches_match_one_worker():
    with _cpu_count(1) as pooled:
        inline = _pooled_outputs()
    assert pooled == []
    for cpus in (2, 3):
        with _cpu_count(cpus) as pooled:
            assert _pooled_outputs() == inline
            (ran_on,) = sampling._map_blocks(
                [(lambda gen, rows: np.full(rows, threading.get_ident(), dtype=object),
                  sampling._CHUNK)], 4 * sampling.BLOCK, 1)
        assert len(pooled) == 20
        assert len(set(ran_on)) <= cpus  # the caller and its cpus - 1 helpers


@pytest.mark.parametrize("cpus", [2, 3])
def test_no_helper_outlives_its_phase(cpus):
    # each pooled phase joins the helpers it started before it returns (a
    # cached pool kept cpus - 1 idle threads for the life of the process)
    def helpers():
        return [t for t in threading.enumerate() if t.name.startswith(sampling._WORKER_NAME)]

    m = make_pareto(0.5)
    with _cpu_count(cpus) as pooled:
        petersburg_sum_batch(1536, 50 * sampling.BLOCK, 1)
        assert helpers() == []
        poisson_sum_batch(m, 1e-5, 700, seed=1)
        lepage_batch(0.5, 900, seed=1, n_terms=500)
        empirics.merging_sweep(8, 2, 600, RngStream(1))
        assert helpers() == []
    assert pooled == [50, 3, 4, 3, 3, 3]


def test_drawers_take_each_block_once():
    # 8 drawers on this host's cores, switching threads every microsecond:
    # each block is drawn exactly once and joins at its own index
    taken, interval = [], sys.getswitchinterval()

    def block(gen, rows):
        b = int(gen.bit_generator.state["state"]["key"][1])  # stream b: block b
        taken.append(b)
        return np.full(rows, b)

    sys.setswitchinterval(1e-6)
    try:
        with _cpu_count(8) as pooled:
            (out,) = sampling._map_blocks([(block, sampling._CHUNK)], 200 * sampling.BLOCK, 0)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == [200] and sorted(taken) == list(range(200))
    assert np.array_equal(out, np.repeat(np.arange(200), sampling.BLOCK))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fork start method is unavailable")
def test_forked_child_pools_again():
    # a child forked after the parent pooled draws a pooled phase on 2
    # threads; a cached executor came over without its thread, and the
    # child drew every block on the caller alone
    def block(gen, rows):
        time.sleep(0.01)
        return np.full(rows, threading.get_ident(), dtype=object)

    def child(conn):
        (ran_on,) = sampling._map_blocks([(block, sampling._CHUNK)], 16 * sampling.BLOCK, 1)
        conn.send(len(set(ran_on)))

    ctx = multiprocessing.get_context("fork")
    with _cpu_count(2) as pooled:
        petersburg_sum_batch(1536, 4 * sampling.BLOCK, 1)
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,))
        proc.start()
        send.close()
        threads = recv.recv() if recv.poll(60) else None
        proc.join(60)
    assert pooled == [4]
    assert threads == 2 and proc.exitcode == 0


def test_caller_and_pool_both_draw():
    # blocks that take 20 ms each: the caller cannot drain the phase before
    # the pool's worker takes blocks too
    def block(gen, rows):
        time.sleep(0.02)
        return np.full(rows, threading.get_ident(), dtype=object)

    with _cpu_count(2) as pooled:
        (ran_on,) = sampling._map_blocks([(block, sampling._CHUNK)], 8 * sampling.BLOCK, 1)
    assert pooled == [8]
    assert threading.get_ident() in set(ran_on) and len(set(ran_on)) == 2


def _pool_tasks(call, cpus=2):
    """The blocks call pools at cpus CPUs, one list per phase."""
    tasks, on_pool = [], sampling._on_pool

    def spy(run, phase_tasks, workers):
        if _pooled(workers, phase_tasks):
            tasks.append(list(phase_tasks))
        return on_pool(run, phase_tasks, workers)

    with _cpu_count(cpus), pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_on_pool", spy)
        call()
    return tasks


def test_order_statistics_stay_on_the_caller():
    # two Gamma draws per replicate: a task would cost more than its block
    # draws; nor do level counts below 6 levels (n = 16: 5) pool
    assert _pool_tasks(lambda: order_statistics_experiment(3, 500, 10 ** 4, RngStream(97))) == []
    assert _pool_tasks(lambda: petersburg_sum_batch(16, 10 ** 4, seed=97)) == []


def test_level_counts_pool_one_task_per_block():
    # blocks of level counts from 6 levels per replicate pool, every block
    # handed out in block order, as do a fill-bound phase's blocks
    for cpus in (2, 3):
        assert _pool_tasks(lambda: petersburg_sum_batch(1536, 50 * sampling.BLOCK, 98),
                           cpus) == [list(range(50))]
        assert _pool_tasks(lambda: petersburg_sum_batch(32, 3 * sampling.BLOCK, 98),
                           cpus) == [[0, 1, 2]]
    pete = make_petersburg(x0=1.0)
    assert _pool_tasks(lambda: poisson_sum_batch(pete, 2.0 ** -20, 700, seed=98)) == [[0, 1, 2]]
    assert _pool_tasks(lambda: poisson_sum_batch(make_pareto(0.5), 1e-5, 700, seed=98)) == [
        [0, 1, 2]]


def test_map_blocks_draws_each_phase_when_reached():
    # every phase's budget is checked at the call, but a phase draws only
    # when the caller reaches it, so a caller that reduces each phase before
    # the next holds one phase at a time
    drawn = []
    phases = [(lambda gen, rows, i=i: drawn.append(i) or gen.random(rows), 1)
              for i in range(3)]
    with pytest.raises(ResourceLimitError, match="would need 6442450944 draws in one phase"):
        sampling._map_blocks(phases + [(phases[0][0], 2 ** 31)], 3, 1)
    phase_out = sampling._map_blocks(phases, 3, 1)
    assert drawn == []
    first = next(phase_out)
    assert drawn == [0] and first.shape == (3,)
    assert [len(v) for v in phase_out] == [3, 3] and drawn == [0, 1, 2]


def test_import_starts_no_thread():
    code = ("import threading; n = threading.active_count(); import semistable; "
            "from semistable import sampling; "
            "assert threading.active_count() == n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_pool_passes_block_errors_and_stays_usable():

    def block(gen, rows):
        if rows < sampling.BLOCK:
            raise ArithmeticError("last block")
        return gen.random(rows)

    m = make_pareto(0.5)
    with _cpu_count(2) as pooled:
        with pytest.raises(ArithmeticError, match="last block"):
            list(sampling._map_blocks([(block, sampling._CHUNK)], 3 * sampling.BLOCK - 1, 5))
        a = poisson_sum_batch(m, 1e-5, 700, seed=92)
    assert pooled == [3, 3]  # the failing phase, then the Poisson sums
    with _cpu_count(1):
        assert a.tobytes() == poisson_sum_batch(m, 1e-5, 700, seed=92).tobytes()


def test_pool_block_error_stops_the_batch():
    # the error of block 0 stops every drawer from taking another block, and
    # the caller waits for the running ones: none draws on once the caller
    # sees the error (the pool used to leave 2 of them running)
    running, lock = [0], threading.Lock()

    def block(gen, rows):
        if gen.bit_generator.state["state"]["key"][1] == 0:  # stream 0: block 0
            raise ArithmeticError("first block")
        with lock:
            running[0] += 1
        time.sleep(0.3)
        with lock:
            running[0] -= 1
        return gen.random(rows)

    with _cpu_count(2):
        with pytest.raises(ArithmeticError, match="first block"):
            list(sampling._map_blocks([(block, sampling._CHUNK)], 8 * sampling.BLOCK, 5))
        assert running[0] == 0


def test_interrupt_on_the_caller_stops_the_pool():
    # an interrupt in a block the caller draws stops the worker at its next
    # block, and the caller waits for it before the interrupt propagates
    caller, running, drawn, lock = threading.get_ident(), [0], [], threading.Lock()

    def block(gen, rows):
        time.sleep(0.02)
        if threading.get_ident() == caller:
            raise KeyboardInterrupt
        with lock:
            running[0] += 1
            drawn.append(rows)
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return gen.random(rows)

    with _cpu_count(2):
        with pytest.raises(KeyboardInterrupt):
            list(sampling._map_blocks([(block, sampling._CHUNK)], 20 * sampling.BLOCK, 5))
        assert running[0] == 0 and len(drawn) <= 2


def test_nested_map_blocks_returns():

    def outer(gen, rows):
        (inner,) = sampling._map_blocks([(lambda g, r: g.random(r), sampling._CHUNK)],
                                        600, 7)
        return np.full(rows, inner.sum())

    done = []
    worker = threading.Thread(
        target=lambda: done.extend(sampling._map_blocks([(outer, sampling._CHUNK)], 800, 6)),
        daemon=True)
    with _cpu_count(2):
        worker.start()
        worker.join(60.0)
    assert not worker.is_alive() and done[0].shape == (800,)
    assert np.all(done[0] == done[0][0])


def test_generator_keys_philox_directly():
    for seed, stream in ((0, 0), (7, 3), (-1, 2 ** 64 + 5)):
        key = np.array([seed % 2 ** 64, stream % 2 ** 64], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = RngStream(seed, stream).generator()
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.random(5).tobytes() == want.random(5).tobytes()


# -- export -----------------------------------------------------------------------------

def test_write_batch(tmp_path):
    batch = sample_petersburg(16, RngStream(4))
    path = tmp_path / "batch.csv"
    write_batch(batch, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 17
    import json
    meta = json.loads((tmp_path / "batch.csv.meta.json").read_text())
    assert meta["seed"] == 4 and meta["n"] == 16


def test_write_batch_sidecar_is_strict_json(tmp_path):
    # a non-finite config value was written as the bare token NaN
    batch = sample_petersburg(4, RngStream(4))
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_batch(batch, str(tmp_path / "b.csv"), {"tolerance": math.nan})
    assert list(tmp_path.iterdir()) == []  # neither file, not half a sidecar
