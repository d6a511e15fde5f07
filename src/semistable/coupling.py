"""Coupling of normalized i.i.d. sums with Poisson-randomized sums.

Both sums are built on one sample path: draw N ~ Poisson(n), then a single
i.i.d. sequence; the deterministic-count sum uses the first n terms and the
randomized sum the first N.  The randomized sum is exactly a Poisson-point
sum for the rescaled intensity, so the pair exposes how fast swapping n for
N stops mattering.  Restricted to the uncentered regime alpha < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import (_STRIDE, RngStream, _open01, _quantile_batch,
                       _replicate_map)
from .tailmodel import TailModel, tail_eval

__all__ = ["CoupledPair", "coupled_pair", "coupling_gap_curve", "maximal_fluctuation"]


@dataclass(frozen=True)
class CoupledPair:
    """One coupled draw: s_hat uses exactly n terms, s_bar the Poisson count."""

    s_hat: float
    s_bar: float
    n: int
    count: int
    gap: float


def _check_coupling_model(model: TailModel, n: int):
    if not model.alpha < 1.0:
        raise ValueError("coupling is implemented for alpha < 1 (uncentered regime)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(tail_eval(model, model.x0) - 1.0) > 1e-9:
        raise ValueError("coupling needs unit total mass: T(x0) = 1")


def _coupled_values(model, n, gen, count, half=0):
    """(s_hat, s_bar, gap, fluct) from one path of max(n, count, n + half) terms.

    s_hat sums the first n terms and s_bar the first count; fluct is the max
    of |S_j - S_n| over |j - n| <= half (0 when half = 0).  All four are
    scaled by n**(-1/alpha).
    """
    x = _quantile_batch(model, _open01(gen, max(n, count, n + half)))
    scale = float(n) ** (-1.0 / model.alpha)
    lo, hi = min(n, count), max(n, count)
    start = max(0, n - half)
    partial = np.concatenate([[0.0], np.cumsum(x[start:n + half])])
    fluct = scale * float(np.max(np.abs(partial - partial[n - start])))
    return (scale * float(x[:n].sum()), scale * float(x[:count].sum()),
            scale * abs(float(x[lo:hi].sum())), fluct)


def coupled_pair(model: TailModel, n: int, rng: RngStream,
                 force_count: int | None = None) -> CoupledPair:
    """Draw (s_hat, s_bar) on one path; force_count pins N for testing."""
    _check_coupling_model(model, n)
    gen = rng.generator()
    count = int(gen.poisson(n)) if force_count is None else int(force_count)
    s_hat, s_bar, gap, _ = _coupled_values(model, n, gen, count)
    return CoupledPair(s_hat=s_hat, s_bar=s_bar, n=n, count=count, gap=gap)


def maximal_fluctuation(model: TailModel, n: int, rng: RngStream,
                        c_mult: float = 3.0) -> float:
    """Empirical max of |S_j - S_n| * n**(-1/alpha) over |j - n| <= c_mult*sqrt(n).

    The coupling argument needs this fluctuation to vanish; it is reported
    rather than bounded.
    """
    _check_coupling_model(model, n)
    half = math.ceil(c_mult * math.sqrt(n))
    return _coupled_values(model, n, rng.generator(), n, half)[3]


def _median_stderr(values):
    # normal-approximation stderr of the sample median from the IQR
    q25, q75 = np.quantile(values, [0.25, 0.75])
    sigma = (q75 - q25) / 1.349
    return 1.2533 * sigma / math.sqrt(len(values))


def coupling_gap_curve(model: TailModel, n_list, reps: int, rng: RngStream,
                       threads: int = 1, with_ks: bool = True,
                       ks_tolerance: float = 0.02, c_mult: float = 3.0):
    """Gap statistics across n: medians, 0.9-quantiles, the monotone-trend
    fraction, per-n two-sample KS between the coupled sums, and the median
    maximal fluctuation.

    Returns an ExperimentReport; pass requires every adjacent median pair to
    decrease (fraction 1.0) and, when with_ks, each KS below ks_tolerance.
    """
    from .empirics import ExperimentReport, ks_two_sample

    _check_coupling_model(model, int(n_list[0]))
    n_list = [int(n) for n in n_list]
    if any(n < 10 for n in n_list):
        raise ValueError("coupling curve needs n >= 10")
    rows = []
    for idx, n in enumerate(n_list):
        half = math.ceil(c_mult * math.sqrt(n))
        vals = _replicate_map(
            lambda gen: _coupled_values(model, n, gen, int(gen.poisson(n)), half),
            reps, rng.seed, rng.stream_id + idx * _STRIDE, threads)
        row = {
            "n": n,
            "median_gap": float(np.median(vals[:, 2])),
            "q90_gap": float(np.quantile(vals[:, 2], 0.9)),
            "median_max_fluctuation": float(np.median(vals[:, 3])),
            "ks": float(ks_two_sample(vals[:, 0], vals[:, 1])) if with_ks else None,
        }
        rows.append(row)
    medians = [r["median_gap"] for r in rows]
    pairs = max(1, len(medians) - 1)
    decreasing = sum(medians[i + 1] < medians[i] for i in range(len(medians) - 1))
    fraction = decreasing / pairs if len(medians) > 1 else 1.0
    passed = fraction == 1.0
    if with_ks:
        passed = passed and all(r["ks"] <= ks_tolerance for r in rows)
    stderr = _median_stderr(vals[:, 2]) if reps > 1 else None
    return ExperimentReport(
        experiment="coupling_gap_curve",
        params={"alpha": model.alpha, "n_list": n_list, "reps": reps,
                "c_mult": c_mult},
        statistic={"monotone_fraction": fraction, "rows": rows},
        stderr=stderr,
        seed=rng.seed,
        tolerance={"monotone_fraction": 1.0,
                   "ks": ks_tolerance if with_ks else None},
        passed=bool(passed),
    )
