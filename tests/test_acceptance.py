"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with:  pytest tests/test_acceptance.py -v -s
Heavy batches are shared through session fixtures; everything is seeded, so
the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from semistable.charfn import (cauchy_law, cdf_from_cf, erlang_cdf,
                               g_exponent, g_gamma_law, gaussian_law,
                               levy_cdf, one_sided_stable_exponent)
from semistable.cli import main
from semistable.coupling import coupled_pair, coupling_gap_curve
from semistable.empirics import (Ecdf, feller_experiment, gamma_n,
                                 ks_distance, ks_two_sample,
                                 martin_lof_experiment, merging_experiment,
                                 merging_sweep, negligibility_experiment,
                                 order_statistics_experiment)
from semistable.sampling import RngStream, lepage_batch, poisson_sum_batch
from semistable.tailmodel import make_pareto

SEED = 20260810

# Frozen oracle values for the series exponent (60-digit mpmath evaluation,
# 400 terms per side; regenerated in test_charfn.test_frozen_values_match_oracle).
G_REFERENCE = {
    0.5: complex(-1.188514711792948321542, 0.5952564149600580634888),
    1.0: complex(-2.377029423585896643083, 0.1905128299201161269777),
    2.0: complex(-4.754058847171793286167, -1.618974340159767746045),
    5.0: complex(-11.54600980517888981104, -11.41627384539015191235),
    10.0: complex(-23.09201961035777962208, -32.83254769078030382469),
}


def report(num, name, stat, tol, started, ok=None):
    ok = (stat <= tol) if ok is None else ok
    line = ("ACCEPTANCE %2d %-24s statistic=%-13.5g tolerance=%-10.4g "
            "runtime=%5.1fs %s" % (num, name, stat, tol,
                                   time.time() - started, "PASS" if ok else "FAIL"))
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def poisson_levy_samples():
    # criterion 3 batch, reused by criterion 4's two-sample comparison
    return poisson_sum_batch(make_pareto(0.5), 1e-6, 10 ** 5, seed=SEED,
                             base_stream=0)


def test_criterion_01_cf_identity_suite():
    t0 = time.time()
    ts = np.linspace(-50.0, 50.0, 1001)
    ts = ts[ts != 0.0]
    ident = float(np.max(np.abs(g_exponent(ts)
                                - (2.0 * g_exponent(ts / 2.0) - 1j * ts))))
    oracle = max(abs(g_exponent(t) - ref) for t, ref in G_REFERENCE.items())
    report(1, "cf-identity-suite", max(ident / 1e-10, oracle / 1e-12), 1.0, t0,
           ok=(ident < 1e-10 and oracle < 1e-12))
    assert time.time() - t0 < 1.0


def test_criterion_02_inversion_oracles():
    t0 = time.time()
    xs = np.linspace(-10.0, 10.0, 201)
    err_c = float(np.max(np.abs(cdf_from_cf(cauchy_law(), xs)
                                - (0.5 + np.arctan(xs) / np.pi))))
    pts = np.array([0.0, 1.0, -1.0, 1.959964])
    err_n = float(np.max(np.abs(cdf_from_cf(gaussian_law(), pts) - ndtr(pts))))
    xs = np.geomspace(0.1, 100.0, 201)
    err_l = float(np.max(np.abs(cdf_from_cf(one_sided_stable_exponent(0.5), xs)
                                - levy_cdf(xs))))
    report(2, "inversion-oracles", max(err_c, err_n, err_l), 1e-6, t0)
    assert time.time() - t0 < 30.0


def test_criterion_03_poisson_construction(poisson_levy_samples):
    t0 = time.time()
    ks = ks_distance(Ecdf.from_sample(poisson_levy_samples), levy_cdf)
    report(3, "poisson-construction", ks, 0.01, t0)


def test_criterion_04_lepage_equivalence(poisson_levy_samples):
    t0 = time.time()
    # explicit truncation at 1e4 terms: the discarded-series mean is about
    # 1/(P-1) = 1e-4, far below the KS tolerance (auto mode needs 1e6 terms)
    lp = lepage_batch(0.5, 10 ** 5, seed=SEED, n_terms=10 ** 4,
                      base_stream=10 ** 7)
    ks_closed = ks_distance(Ecdf.from_sample(lp), levy_cdf)
    ks_pair = ks_two_sample(lp, poisson_levy_samples)
    report(4, "lepage-equivalence", max(ks_closed, ks_pair), 0.01, t0)


def test_criterion_05_martin_lof_limit():
    t0 = time.time()
    rep = martin_lof_experiment(14, 2 * 10 ** 5, RngStream(SEED, 2 * 10 ** 7),
                                threads=2, tolerance=0.02)
    report(5, "martin-lof-limit", rep.statistic, rep.tolerance, t0)
    assert time.time() - t0 < 180.0


def test_criterion_06_merging():
    t0 = time.time()
    rep = merging_experiment(1536, 2 * 10 ** 5, RngStream(SEED, 4 * 10 ** 7),
                             threads=2, tolerance=0.03)
    sweep = merging_sweep(10, 8, 10 ** 5, RngStream(SEED, 6 * 10 ** 7),
                          threads=2, tol_max=0.04, tol_two_sample=0.015)
    stat = sweep.statistic
    ok = (rep.passed and sweep.passed
          and stat["endpoint_gammas"] == [1.0, 1.0])
    report(6, "merging-and-sweep",
           max(rep.statistic / 0.03, stat["max_distance"] / 0.04,
               stat["endpoint_two_sample_ks"] / 0.015), 1.0, t0, ok=ok)
    assert time.time() - t0 < 600.0


def test_criterion_07_feller():
    t0 = time.time()
    rep = feller_experiment(2 ** 16, 2000, RngStream(SEED, 8 * 10 ** 7))
    report(7, "feller-weak-law", rep.statistic["abs_error"], rep.tolerance, t0)
    assert time.time() - t0 < 120.0


def test_criterion_08_order_statistics():
    t0 = time.time()
    ok = True
    worst = 0.0
    for p, n in ((1, 10), (3, 9), (5, 100)):
        rep = order_statistics_experiment(p, n, 10 ** 5,
                                          RngStream(SEED, 9 * 10 ** 7 + p),
                                          ks_tolerance=None)
        s = rep.statistic
        ok = ok and rep.passed
        worst = max(worst, s["mean_err"] / rep.tolerance["mean_err"],
                    s["var_err"] / rep.tolerance["var_err"])
    rep1 = order_statistics_experiment(1, 10 ** 4, 10 ** 5,
                                       RngStream(SEED, 10 ** 8),
                                       threads=2, ks_tolerance=0.01)
    rep3 = order_statistics_experiment(3, 10 ** 4, 10 ** 5,
                                       RngStream(SEED, 11 * 10 ** 7),
                                       threads=2, ks_tolerance=0.012)
    ok = ok and rep1.passed and rep3.passed
    worst = max(worst, rep1.statistic["ks"] / 0.01, rep3.statistic["ks"] / 0.012)
    report(8, "order-statistics", worst, 1.0, t0, ok=ok)
    assert time.time() - t0 < 180.0


def test_criterion_09_coupling():
    t0 = time.time()
    model = make_pareto(0.5)
    n = 10 ** 4
    counts = np.array([coupled_pair(model, n, RngStream(SEED, 12 * 10 ** 7 + i)).count
                       for i in range(10 ** 4)])
    sd_err = abs(counts.std(ddof=1) - math.sqrt(n)) / math.sqrt(n)
    curve = coupling_gap_curve(model, [100, 1000, 10000], 1000,
                               RngStream(SEED, 13 * 10 ** 7))
    s_hat = np.empty(10 ** 5)
    s_bar = np.empty(10 ** 5)
    for i in range(10 ** 5):
        cp = coupled_pair(model, n, RngStream(SEED, 14 * 10 ** 7 + i))
        s_hat[i] = cp.s_hat
        s_bar[i] = cp.s_bar
    ks = ks_two_sample(s_hat, s_bar)
    ok = (sd_err <= 0.05 and curve.statistic["monotone_fraction"] == 1.0
          and ks <= 0.01)
    report(9, "poisson-coupling", max(sd_err / 0.05, ks / 0.01), 1.0, t0, ok=ok)
    assert time.time() - t0 < 180.0


def test_criterion_10_negligibility():
    t0 = time.time()
    rep = negligibility_experiment([0.5, 2.5], 10 ** 4, 10 ** 3,
                                   RngStream(SEED, 15 * 10 ** 7))
    med = rep.statistic["medians"]
    ok = med["0.5"] >= 0.2 and med["2.5"] <= 0.05
    report(10, "negligibility-threshold", med["2.5"], 0.05, t0, ok=ok)
    assert time.time() - t0 < 120.0


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    ok = True
    # byte-identical artifacts across re-runs and thread counts, per subcommand
    for cmd in (
        ["merging", "--n", "96", "--reps", "10000", "--seed", "5"],
        ["feller", "--n", "512", "--reps", "500", "--seed", "5"],
        ["sample", "--model", "petersburg", "--n", "64", "--seed", "5"],
        ["cdf", "--law", "g-gamma", "--gamma", "1.5", "--grid", "-2:6:0.5"],
    ):
        out = str(tmp_path / ("art_" + cmd[0]))
        runs = []
        for threads in ("1", "4"):
            extra = [] if cmd[0] in ("sample", "cdf") else ["--threads", threads]
            assert main(cmd + extra + ["--out", out]) in (0, 3)
            with open(out) as fh:
                runs.append(fh.read())
        ok = ok and runs[0] == runs[1]
    report(11, "determinism", 0.0 if ok else 1.0, 0.5, t0, ok=ok)
