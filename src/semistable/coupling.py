"""Coupling of normalized i.i.d. sums with Poisson-randomized sums.

Both sums are built on one sample path: draw N ~ Poisson(n), then a single
i.i.d. sequence; the deterministic-count sum uses the first n terms and the
randomized sum the first N.  The randomized sum is exactly a Poisson-point
sum for the rescaled intensity, so the pair exposes how fast swapping n for
N stops mattering.  Restricted to the uncentered regime alpha < 1.
The curve runs one phase per n on sampling._map_blocks, each block drawing
its Poisson counts, then its paths; coupled_pair and maximal_fluctuation
run the same kernel on one row.  A path holds at most _POINT_BUDGET terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sampling import (_POINT_BUDGET, ResourceLimitError, RngStream, _col_chunks,
                       _finite, _map_blocks, _open01, _quiet, _row_groups)
from .tailmodel import TailModel, tail_eval

__all__ = ["CoupledPair", "coupled_pair", "coupling_gap_curve", "maximal_fluctuation"]

_C_MULT = 3.0  # fluctuation window |j - n| <= _C_MULT sqrt(n)


@dataclass(frozen=True)
class CoupledPair:
    """One coupled draw: s_hat uses exactly n terms, s_bar the Poisson count."""

    s_hat: float
    s_bar: float
    n: int
    count: int
    gap: float


@functools.lru_cache(maxsize=256)  # a pure check: only passes are cached
def _check_coupling_model(model: TailModel, n: int, window: bool = False) -> int:
    """Contract and work checks; returns the window half-width (0 without)."""
    if not model.alpha < 1.0:
        raise ValueError("coupling is implemented for alpha < 1 (uncentered regime)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(tail_eval(model, model.x0) - 1.0) > 1e-9:
        raise ValueError("coupling needs unit total mass: T(x0) = 1")
    half = math.ceil(_C_MULT * math.sqrt(n)) if window else 0
    if n + half > _POINT_BUDGET:
        raise ResourceLimitError("%d terms per path exceed the %.0g budget"
                                 % (n + half, _POINT_BUDGET))
    return half


def _coupled_block(model, n, half, gen, counts):
    """Rows (s_hat, s_bar, gap, fluct) of one path per count.

    Row i sums one i.i.d. path: s_hat the first n terms, s_bar the first
    counts[i], gap |s_hat - s_bar| and fluct the max of |S_j - S_n| over
    |j - n| <= half (0 when half = 0), all scaled by n**(-1/alpha).  The
    uniforms are drawn a tile of rows x terms at a time: the head below
    every row's window is one pairwise sum, and the window a cumsum
    P_j = S_j - head carried across column chunks.  A lone row draws in
    stream order whatever the tiling, so it tiles [0, w1) at once.  A term
    past the float range (alpha near 0) raises OverflowError.
    """
    a, b = max(0, n - half), n + half  # the fluctuation window, j in [a, b]
    out = np.zeros((counts.size, 4))
    for rs in _row_groups(counts.size, b):
        ends = counts[rs].tolist()
        nr = len(ends)
        w0, w1 = min(a, min(ends)), max(b, max(ends))
        tiles = (_col_chunks(0, w1, 1) if nr == 1
                 else _col_chunks(0, w0, nr) + _col_chunks(w0, w1, nr))
        head, at_n, at_count, carry = 0.0, 0.0, np.zeros(nr), 0.0  # P_w0 = 0
        top, bottom = (0.0, 0.0) if a == w0 else (-np.inf, np.inf)
        for c0, c1 in tiles:
            x = model._quantile(_open01(gen, (nr, c1 - c0)))
            if c0 < w0:
                head = head + x[:, :w0 - c0].sum(axis=1)
                if c1 <= w0:
                    continue
                x, c0 = x[:, w0 - c0:], w0
            if c0 > w0:
                x[:, 0] += carry
            cs = x.cumsum(axis=1)  # cs[:, k] = P_{c0 + k + 1}
            carry = cs[:, -1]
            if c0 < n <= c1:
                at_n = cs[:, n - c0 - 1]
            for i, e in enumerate(ends):
                if c0 < e <= c1:
                    at_count[i] = cs[i, e - c0 - 1]
            j0, j1 = max(a, c0 + 1), min(b, c1)
            if half and j0 <= j1:
                win = cs[:, j0 - c0 - 1:j1 - c0]
                top = np.maximum(top, win.max(axis=1))
                bottom = np.minimum(bottom, win.min(axis=1))
        out[rs, 0] = head + at_n
        out[rs, 1] = head + at_count
        out[rs, 2] = np.abs(at_n - at_count)
        if half:
            out[rs, 3] = np.maximum(top - at_n, at_n - bottom)
    out *= float(n) ** (-1.0 / model.alpha)
    return _finite(out, model.alpha)


def _curve_block(model, n, half, gen, rows):  # the curve's phase: counts, then paths
    return _coupled_block(model, n, half, gen, gen.poisson(n, rows))


def coupled_pair(model: TailModel, n: int, rng: RngStream) -> CoupledPair:
    """Draw N ~ Poisson(n), then one path: s_hat sums its first n terms,
    s_bar its first N."""
    _check_coupling_model(model, n)
    gen = rng.generator()
    count = int(gen.poisson(n))
    with _quiet():
        s_hat, s_bar, gap, _ = _coupled_block(model, n, 0, gen, np.array([count]))[0].tolist()
    return CoupledPair(s_hat=s_hat, s_bar=s_bar, n=n, count=count, gap=gap)


def maximal_fluctuation(model: TailModel, n: int, rng: RngStream) -> float:
    """Empirical max of |S_j - S_n| * n**(-1/alpha) over |j - n| <= 3 sqrt(n).

    The coupling argument needs this fluctuation to vanish; it is reported
    rather than bounded.
    """
    half = _check_coupling_model(model, n, window=True)
    with _quiet():
        return float(_coupled_block(model, n, half, rng.generator(), np.array([n]))[0, 3])


def coupling_gap_curve(model: TailModel, n_list, reps: int, rng: RngStream,
                       threads: int = 1, with_ks: bool = True,
                       ks_tolerance: float = 0.02):
    """Gap statistics across n: medians, 0.9-quantiles, the monotone-trend
    fraction, per-n two-sample KS between the coupled sums, and the median
    maximal fluctuation.

    Returns an ExperimentReport; pass requires every adjacent median pair to
    decrease (fraction 1.0) and, when with_ks, each KS below ks_tolerance.
    The fluctuation window is |j - n| <= 3 sqrt(n); reps x (n + window
    half-width) must stay within the 2^32 draw budget at every n; threads
    is ignored.
    """
    from .empirics import ExperimentReport, ks_two_sample

    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(n < 10 for n in n_list):
        raise ValueError("coupling curve needs n >= 10")
    phases = [(functools.partial(_curve_block, model, n, half), n + half)
              for n in n_list for half in [_check_coupling_model(model, n, window=True)]]
    rows = []  # each phase reduced before the next draws
    for n, vals in zip(n_list, _map_blocks(phases, reps, rng.seed, rng.stream_id)):
        rows.append({
            "n": n,
            "median_gap": float(np.median(vals[:, 2])),
            "q90_gap": float(np.quantile(vals[:, 2], 0.9)),
            "median_max_fluctuation": float(np.median(vals[:, 3])),
            "ks": float(ks_two_sample(vals[:, 0], vals[:, 1])) if with_ks else None,
        })
    medians = [r["median_gap"] for r in rows]
    drops = [b < a for a, b in zip(medians, medians[1:])]
    fraction = sum(drops) / len(drops) if drops else 1.0
    passed = fraction == 1.0 and (
        not with_ks or all(r["ks"] <= ks_tolerance for r in rows))
    q25, q75 = np.quantile(vals[:, 2], [0.25, 0.75])  # last n: median stderr from the IQR
    stderr = 1.2533 * ((q75 - q25) / 1.349) / math.sqrt(reps) if reps > 1 else None
    return ExperimentReport(
        experiment="coupling_gap_curve",
        params={"alpha": model.alpha, "n_list": n_list, "reps": reps,
                "c_mult": _C_MULT},
        statistic={"monotone_fraction": fraction, "rows": rows},
        stderr=stderr,
        seed=rng.seed,
        tolerance={"monotone_fraction": 1.0,
                   "ks": ks_tolerance if with_ks else None},
        passed=bool(passed),
    )
