"""Empirical distribution machinery and the Monte Carlo limit-theorem experiments.

Each experiment draws its batches as phases of block kernels, one per
construction, on sampling._map_blocks, which alone lays out the Philox
streams, bounds the draws and picks the pool; results depend on neither
the worker count nor threads=.
Each experiment compares with the inverted limit CDF or an oracle.
Reports carry the statistic, a Monte Carlo standard error where one makes
sense, the seed and the pass/fail verdict at the stated tolerance.

The distances follow the package's working-set rule (_arrays): they
reduce over the sorted sample _KS_CHUNK points at a time, so a KS
statistic holds a few temporaries of _CHUNK doubles, however large the
sample; the result is the max (or the all) of the same terms, exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .charfn import (TabulatedCdf, cdf_from_cf, erlang_cdf, g_gamma_law,
                     tabulate_cdf)
from ._arrays import _CHUNK, _check_count, elementwise
from .sampling import (_MAX_N, RngStream, _lepage_block, _lepage_prep, _map_blocks,
                       _petersburg_block, _power_block, petersburg_sum_batch)

_KS_CHUNK = _CHUNK // 4  # points per KS step: the step and a TabulatedCdf call
                         # on it hold about ten temporaries of this many doubles

__all__ = [
    "Ecdf",
    "ExperimentReport",
    "ks_distance",
    "ks_two_sample",
    "levy_distance",
    "gamma_n",
    "feller_experiment",
    "martin_lof_experiment",
    "merging_experiment",
    "merging_sweep",
    "order_statistics_experiment",
    "negligibility_experiment",
    "lepage_limit_experiment",
]


@dataclass(frozen=True)
class Ecdf:
    """Sorted sample with step-function evaluation F_hat(x) = #{v <= x}/n."""

    values: np.ndarray

    @classmethod
    def from_sample(cls, sample) -> "Ecdf":
        values = np.asarray(sample, dtype=float)
        if values.size == 0:
            raise ValueError("sample must not be empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")
        return cls(values=np.sort(values))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, x):
        return elementwise(
            lambda v: np.searchsorted(self.values, v, side="right") / self.n,
            x, cdf_from=-np.inf)


def _steps(e: Ecdf):
    """(v, i) per chunk of _KS_CHUNK sorted values v of e, i their ranks."""
    for c0 in range(0, e.n, _KS_CHUNK):
        v = e.values[c0:c0 + _KS_CHUNK]
        yield v, np.arange(c0 + 1, c0 + 1 + v.size)


def _cdf_on(cdf, v):  # cdf(v) as floats; a NaN, which no distance may hide, raises
    f = np.asarray(cdf(v), dtype=float)
    if np.isnan(f).any():
        raise ValueError("the CDF returned NaN on the chunk [%g, %g]" % (v[0], v[-1]))
    return f


def ks_distance(e: Ecdf, cdf) -> float:
    """sup_x |F_hat(x) - F(x)|, exact over the jump points of the ECDF.

    The approach from the left evaluates F at the previous float, which
    keeps the statistic exact for step-function F as well (a sample against
    its own ECDF gives 0).  cdf is called on chunks of the sorted sample."""
    gap = 0.0
    for v, i in _steps(e):
        fv = _cdf_on(cdf, v)
        fv_left = _cdf_on(cdf, np.nextafter(v, -np.inf))
        gap = np.max([gap, np.abs(i / e.n - fv).max(), np.abs((i - 1) / e.n - fv_left).max()])
    return float(gap)


def ks_two_sample(a, b) -> float:
    """Exact two-sample sup distance between empirical CDFs.

    The gap is max|c_a n_b - c_b n_a| / (n_a n_b) over int64 step counts c,
    so the only rounding is the final division (an exact 20/1000 step gives
    0.02); the counts are taken at the points of a, then of b, in chunks.
    Empty samples and NaN raise ValueError."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must not be empty")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        raise ValueError("sample contains NaN")
    gap = 0
    for x in (a, b):
        for c0 in range(0, x.size, _KS_CHUNK):
            v = x[c0:c0 + _KS_CHUNK]
            ca = np.searchsorted(a, v, side="right").astype(np.int64, copy=False)
            cb = np.searchsorted(b, v, side="right").astype(np.int64, copy=False)
            gap = max(gap, int(np.max(np.abs(ca * b.size - cb * a.size))))
    return float(gap) / (a.size * b.size)


def levy_distance(e: Ecdf, cdf, grid_step: float = 1e-4) -> float:
    """inf{eps : F(x-eps) - eps <= F_hat(x) <= F(x+eps) + eps for all x}.

    Bisection on eps, checked at the ECDF jump points (sufficient for a
    continuous F) a chunk at a time; approximation error at most grid_step.
    Bounded above by the KS distance, which seeds the bracket.
    """
    if not 0.0 < grid_step < math.inf:
        raise ValueError("grid_step must be positive and finite, got %r" % grid_step)

    def feasible(eps):
        return all(np.all(_cdf_on(cdf, v - eps) - eps <= (i - 1) / e.n + 1e-15)
                   and np.all(_cdf_on(cdf, v + eps) + eps >= i / e.n - 1e-15)
                   for v, i in _steps(e))

    hi = ks_distance(e, cdf) + grid_step
    lo = 0.0
    if feasible(lo):
        return 0.0
    while hi - lo > grid_step:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def gamma_n(n: int) -> float:
    """Dyadic position n / 2**floor(log2 n) in [1, 2), rounded once from any
    int; one that rounds to 2 is 1, the same law (the family closes)."""
    n = _check_count(n, "n", 1)
    g = n / (1 << (n.bit_length() - 1))
    return g if g < 2.0 else 1.0


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: statistic(s), stderr, seed, tolerance, verdict."""

    experiment: str
    params: dict
    statistic: object
    stderr: float | None
    seed: int
    tolerance: object
    passed: bool

    def __post_init__(self):
        if self.stderr is not None and not self.stderr >= 0.0:
            raise ValueError("stderr must be >= 0")

    def to_dict(self) -> dict:  # the fields in order, "passed" written "pass"
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- shared limit tables -------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _limit_table(gamma: float) -> TabulatedCdf:
    """Tabulated CDF of the merging-family law at gamma on [-8, 1024]."""
    return tabulate_cdf(g_gamma_law(gamma), -8.0, 1024.0, tol=1e-7)


def _ks_versus_limit(vals: np.ndarray, gamma: float) -> float:
    """KS of the sample against the family law, on its [-8, 1024] table.

    The table is within 6e-7 of the law up to x = 48 and 1.3e-3 above
    (tabulate_cdf).  It clamps the values beyond its span: F(-8) is 0 in
    double precision, and the clamp at 1024 moves the statistic by at most
    1 - F(1024), 1.75e-3 at gamma 1 and 2 and 1.47e-3 at gamma 1.5 (the
    law's right tail is ~1.4/x), well below the 0.02+ tolerances in play."""
    return ks_distance(Ecdf.from_sample(vals), _limit_table(round(float(gamma), 12)))


# -- experiments ----------------------------------------------------------------


_FELLER_TOL_BASE = 0.02
_RANK_CHECKS = 3  # LePage extremes compared rank by rank


def feller_experiment(n: int, reps: int, rng: RngStream,
                      threads: int = 1) -> ExperimentReport:
    """Weak-law drift check: S_n/(n log2 n) is near 1, at the rate the limit
    family predicts.

    Reports the empirical exceedance P(|S_n/(n log2 n) - 1| > eps) for
    eps in {0.5, 0.25} and compares the 0.5 figure with the limit-law value
    P(|W| > 0.5 log2 n), W following the family law at gamma_n; the
    tolerance is 0.02 + 3 * binomial stderr.
    """
    n, reps = _check_count(n, "n", 2, _MAX_N), _check_count(reps, "reps", 100)
    sums = petersburg_sum_batch(n, reps, rng.seed, rng.stream_id)
    log2n = math.log2(n)
    w = sums / (n * log2n) - 1.0
    exc_half = float(np.mean(np.abs(w) > 0.5))
    exc_quarter = float(np.mean(np.abs(w) > 0.25))
    gamma = gamma_n(n)
    law = g_gamma_law(gamma)
    thr = 0.5 * log2n
    up, down = cdf_from_cf(law, [thr, -thr]).tolist()  # one inversion plan
    predicted = 1.0 - up + down
    stat = abs(exc_half - predicted)
    stderr = math.sqrt(max(exc_half * (1.0 - exc_half), 1e-12) / reps)
    tolerance = _FELLER_TOL_BASE + 3.0 * stderr
    return ExperimentReport(
        experiment="feller",
        params={"n": n, "reps": reps},
        statistic={"abs_error": stat, "exceedance_0.5": exc_half,
                   "exceedance_0.25": exc_quarter, "predicted_0.5": predicted,
                   "gamma": gamma},
        stderr=stderr,
        seed=rng.seed,
        tolerance=tolerance,
        passed=bool(stat <= tolerance),
    )


def martin_lof_experiment(k: int, reps: int, rng: RngStream, threads: int = 1,
                          tolerance: float = 0.02) -> ExperimentReport:
    """KS distance of S_{2^k}/2^k - k against the inverted limit CDF: the
    merging experiment at n = 2^k, where gamma_n = 1."""
    k = _check_count(k, "k", 4, 20)
    report = merging_experiment(1 << k, reps, rng, tolerance=tolerance)
    return replace(report, experiment="martin_lof",
                   params={"k": k, "reps": report.params["reps"]})


def merging_experiment(n: int, reps: int, rng: RngStream, threads: int = 1,
                       tolerance: float = 0.03) -> ExperimentReport:
    """Sup distance of S_n/n - log2 n to the family law at gamma_n."""
    n, reps = _check_count(n, "n", 16, _MAX_N), _check_count(reps, "reps", 10 ** 4)
    gamma = gamma_n(n)
    sums = petersburg_sum_batch(n, reps, rng.seed, rng.stream_id)
    vals = sums / n - math.log2(n)
    stat = _ks_versus_limit(vals, gamma)
    return ExperimentReport(
        experiment="merging",
        params={"n": n, "reps": reps, "gamma": gamma},
        statistic=stat,
        stderr=0.5 / math.sqrt(reps),
        seed=rng.seed,
        tolerance=tolerance,
        passed=bool(stat <= tolerance),
    )


def merging_sweep(k: int, points_per_octave: int, reps: int, rng: RngStream,
                  threads: int = 1, tol_max: float = 0.04,
                  tol_two_sample: float = 0.015) -> ExperimentReport:
    """Walk n across one dyadic octave and follow the moving limit law.

    Runs the merging comparison at n = round(2^k (1 + i/points)) for
    i = 0..points; the family position returns to gamma = 1 at both ends,
    so the law tags coincide and the end batches must agree (two-sample KS).
    """
    k, reps = _check_count(k, "k", 8, 61), _check_count(reps, "reps", 1)  # n <= 2^62
    points_per_octave = _check_count(points_per_octave, "points_per_octave", 1)
    ns = [round((1 << k) * (1.0 + i / points_per_octave))
          for i in range(points_per_octave + 1)]
    gammas = [gamma_n(n) for n in ns]
    phases = [(functools.partial(_petersburg_block, n), n.bit_length()) for n in ns]
    vals = [np.subtract(np.divide(v, n, out=v), math.log2(n), out=v)  # S_n/n - log2 n
            for n, v in zip(ns, _map_blocks(phases, reps, rng.seed, rng.stream_id))]
    distances = [_ks_versus_limit(v, g) for v, g in zip(vals, gammas)]
    ks2 = ks_two_sample(vals[0], vals[-1])
    max_distance = float(np.max(distances))
    closure = gammas[0] == gammas[-1] == 1.0
    passed = max_distance <= tol_max and ks2 <= tol_two_sample and closure
    return ExperimentReport(
        experiment="merging_sweep",
        params={"k": k, "points_per_octave": points_per_octave, "reps": reps,
                "n_values": ns},
        statistic={"max_distance": max_distance, "distances": distances,
                   "endpoint_two_sample_ks": ks2,
                   "endpoint_gammas": [gammas[0], gammas[-1]]},
        stderr=0.5 / math.sqrt(reps),
        seed=rng.seed,
        tolerance={"max_distance": tol_max, "endpoint_two_sample_ks": tol_two_sample},
        passed=bool(passed),
    )


def _order_statistic_block(p, n, gen, rows):
    """rows draws of Gamma_p / (Gamma_p + Gamma'), Gamma' ~ Gamma(n + 1 - p)."""
    g = gen.standard_gamma(p, rows)
    return g / (g + gen.standard_gamma(n + 1 - p, rows))


def order_statistics_experiment(p: int, n: int, reps: int, rng: RngStream,
                                threads: int = 1,
                                ks_tolerance: float | None = 0.012
                                ) -> ExperimentReport:
    """p-th smallest of n uniforms: exact moments and the Gamma(p, 1) limit of n*y_p.

    Renyi (1953): (U_(1), ..., U_(n)) = (Gamma_1, ..., Gamma_n) / Gamma_{n+1}
    in law over Poisson arrivals Gamma_i, so y_p = Gamma_p / (Gamma_p + Gamma')
    exactly, 2 draws per replicate whatever p and n (n <= 2^53, exact in
    float64).  Checks the closed forms E y_p = p/(n+1) and
    Var y_p = p(n-p+1)/((n+1)^2 (n+2)) within 3 Monte Carlo standard errors,
    and the KS distance of n*y_p to the Erlang(p) CDF.  The Erlang limit
    needs n >> p; pass ks_tolerance=None to report the KS without letting it
    decide the verdict (exact-moment checks at small n).
    """
    n = _check_count(n, "n", 1, 1 << 53)  # the counts float64 holds exactly
    p, reps = _check_count(p, "p", 1, n), _check_count(reps, "reps", 100)
    (ys,) = _map_blocks([(functools.partial(_order_statistic_block, p, n), 2)],
                        reps, rng.seed, rng.stream_id)
    mean_exact = p / (n + 1.0)
    var_exact = p * (n - p + 1.0) / ((n + 1.0) ** 2 * (n + 2.0))
    mean_err = float(abs(ys.mean() - mean_exact))
    se_mean = float(ys.std(ddof=1) / math.sqrt(reps))
    centered = ys - ys.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    var_err = float(abs(ys.var(ddof=1) - var_exact))
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / reps)
    ks = ks_distance(Ecdf.from_sample(n * ys), lambda x: erlang_cdf(p, x))
    passed = mean_err <= 3.0 * se_mean and var_err <= 3.0 * se_var
    if ks_tolerance is not None:
        passed = passed and ks <= ks_tolerance
    return ExperimentReport(
        experiment="order_statistics",
        params={"p": p, "n": n, "reps": reps},
        statistic={"mean": float(ys.mean()), "mean_exact": mean_exact,
                   "mean_err": mean_err, "var": float(ys.var(ddof=1)),
                   "var_exact": var_exact, "var_err": var_err, "ks": ks},
        stderr=se_mean,
        seed=rng.seed,
        tolerance={"mean_err": 3.0 * se_mean, "var_err": 3.0 * se_var,
                   "ks": ks_tolerance},
        passed=bool(passed),
    )


def negligibility_experiment(alpha_list, n: int, reps: int, rng: RngStream,
                             threads: int = 1) -> ExperimentReport:
    """Median of max|x| / sum|x| across tail exponents.

    For alpha < 2 the largest term keeps the order of magnitude of the whole
    sum; past the finite-variance threshold it becomes negligible.  The
    ratio is invariant under the symmetrizing signs, so only magnitudes are
    drawn.  Bounds: median >= 0.2 for alpha < 1 and <= 0.05 for alpha > 2.
    """
    n, reps = _check_count(n, "n", 10 ** 3), _check_count(reps, "reps", 1)
    alpha_list = [float(a) for a in alpha_list]
    if not alpha_list:
        raise ValueError("alpha_list must not be empty")
    if not all(math.isfinite(a) and a > 0.0 for a in alpha_list):
        raise ValueError("alphas must be finite and positive")
    bounds = {a: (0.2, 1.0) if a < 1.0 else (0.0, 0.05) if a > 2.0 else (0.0, 1.0)
              for a in alpha_list}
    tops = _map_blocks([(functools.partial(_power_block, alpha, n, 1, False), n)
                        for alpha in alpha_list], reps, rng.seed, rng.stream_id)
    medians = {alpha: float(np.median(top[:, 1] / top[:, 0]))
               for alpha, top in zip(alpha_list, tops)}
    passed = all(bounds[a][0] <= medians[a] <= bounds[a][1] for a in alpha_list)
    return ExperimentReport(
        experiment="negligibility",
        params={"alpha_list": alpha_list, "n": n, "reps": reps},
        statistic={"medians": {str(a): medians[a] for a in alpha_list}},
        stderr=None,
        seed=rng.seed,
        tolerance={str(a): list(bounds[a]) for a in alpha_list},
        passed=bool(passed),
    )


def lepage_limit_experiment(alpha: float, k: int, reps: int, rng: RngStream,
                            threads: int = 1, symmetric: bool = False,
                            n_terms: int | None = None,
                            tolerance: float = 0.015) -> ExperimentReport:
    """Normalized i.i.d. block sums against the LePage series, as two samples.

    Batch (a): n = 2^k pure power-tail draws per replicate, summed and scaled
    by n**(-1/alpha) (signs randomized in symmetric mode).  Batch (b): the
    truncated LePage series.  The statistic is the two-sample KS distance;
    the per-rank extremes n**(-1/alpha) * rho_p are compared with the series
    terms Z_p**(-1/alpha) for p = 1, 2, 3.  Both batches run the power-sum
    kernel sampling._power_block, batch (b) with its uniforms scaled by
    Z_{P+1} (sampling._lepage_block), within the 2^32 draw budget.
    """
    k, reps = _check_count(k, "k", 4, 24), _check_count(reps, "reps", 1)
    n = 1 << k
    r = _RANK_CHECKS  # n_terms must reach the ranks compared
    p_terms = _lepage_prep(alpha, n_terms, symmetric, least=r)
    a, b = _map_blocks(
        [(functools.partial(_power_block, alpha, n, r, symmetric), n),
         (functools.partial(_lepage_block, alpha, p_terms, symmetric, ranks=r), p_terms)],
        reps, rng.seed, rng.stream_id)
    a *= float(n) ** (-1.0 / alpha)
    ks2 = ks_two_sample(a[:, 0], b[:, 0])
    rank_ks = [float(ks_two_sample(a[:, 1 + j], b[:, 1 + j])) for j in range(r)]
    passed = ks2 <= tolerance
    return ExperimentReport(
        experiment="lepage_limit",
        params={"alpha": alpha, "k": k, "reps": reps, "symmetric": symmetric,
                "n_terms": p_terms},
        statistic={"two_sample_ks": float(ks2), "rank_ks": rank_ks},
        stderr=math.sqrt(2.0 / reps) * 0.5,
        seed=rng.seed,
        tolerance=tolerance,
        passed=bool(passed),
    )
