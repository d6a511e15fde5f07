"""Coupling of normalized i.i.d. sums with Poisson-randomized sums.

Both sums are built on one sample path: draw N ~ Poisson(n), then a single
i.i.d. sequence; the deterministic-count sum uses the first n terms and the
randomized sum the first N.  The randomized sum is exactly a Poisson-point
sum for the rescaled intensity, so the pair exposes how fast swapping n for
N stops mattering.  Restricted to the uncentered regime alpha < 1.
The curve draws a block of 256 replicates at a time from one Philox stream
(sampling._map_blocks): the block's Poisson counts first, then its paths;
coupled_pair and maximal_fluctuation run the same kernel on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import (_STRIDE, RngStream, _col_chunks, _map_blocks, _open01,
                       _quantile_batch, _row_groups)
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


def _check_coupling_model(model: TailModel, n: int):
    if not model.alpha < 1.0:
        raise ValueError("coupling is implemented for alpha < 1 (uncentered regime)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(tail_eval(model, model.x0) - 1.0) > 1e-9:
        raise ValueError("coupling needs unit total mass: T(x0) = 1")


def _coupled_block(model, n, half, gen, counts):
    """Rows (s_hat, s_bar, gap, fluct), one path per entry of counts.

    Row i sums one i.i.d. path: s_hat the first n terms, s_bar the first
    counts[i], gap |s_hat - s_bar| and fluct the max of |S_j - S_n| over
    |j - n| <= half (0 when half = 0), all scaled by n**(-1/alpha).  The
    uniforms are drawn after the counts, a tile of rows x terms at a time:
    the head below every row's window is one pairwise sum, and the window
    a cumsum P_j = S_j - head carried across column chunks.
    """
    scale = float(n) ** (-1.0 / model.alpha)
    a, b = max(0, n - half), n + half  # the fluctuation window, j in [a, b]
    out = np.empty((counts.size, 4))
    for rs in _row_groups(counts.size, b):
        cnt = counts[rs]
        nr = cnt.size
        w0, w1 = min(a, int(cnt.min())), max(b, int(cnt.max()))
        head = np.zeros(nr)
        for c0, c1 in _col_chunks(0, w0, nr):
            head += _quantile_batch(model, _open01(gen, (nr, c1 - c0))).sum(axis=1)
        at_n, at_count, carry = np.zeros(nr), np.zeros(nr), np.zeros(nr)
        top = np.full(nr, 0.0 if a == w0 else -np.inf)  # P_w0 = 0
        bottom = -top
        for c0, c1 in _col_chunks(w0, w1, nr):
            x = _quantile_batch(model, _open01(gen, (nr, c1 - c0)))
            x[:, 0] += carry
            cs = np.cumsum(x, axis=1)  # cs[:, k] = P_{c0 + k + 1}
            carry = cs[:, -1]
            if c0 < n <= c1:
                at_n = cs[:, n - c0 - 1]
            hit = np.nonzero((cnt > c0) & (cnt <= c1))[0]
            at_count[hit] = cs[hit, cnt[hit] - c0 - 1]
            j0, j1 = max(a, c0 + 1), min(b, c1)
            if j0 <= j1:
                win = cs[:, j0 - c0 - 1:j1 - c0]
                top = np.maximum(top, win.max(axis=1))
                bottom = np.minimum(bottom, win.min(axis=1))
        out[rs, 0] = scale * (head + at_n)
        out[rs, 1] = scale * (head + at_count)
        out[rs, 2] = scale * np.abs(at_n - at_count)
        out[rs, 3] = scale * np.maximum(top - at_n, at_n - bottom)
    return out


def coupled_pair(model: TailModel, n: int, rng: RngStream,
                 force_count: int | None = None) -> CoupledPair:
    """Draw (s_hat, s_bar) on one path; force_count pins N for testing."""
    _check_coupling_model(model, n)
    gen = rng.generator()
    count = int(gen.poisson(n)) if force_count is None else int(force_count)
    s_hat, s_bar, gap, _ = _coupled_block(model, n, 0, gen, np.array([count]))[0]
    return CoupledPair(s_hat=float(s_hat), s_bar=float(s_bar), n=n, count=count,
                       gap=float(gap))


def maximal_fluctuation(model: TailModel, n: int, rng: RngStream) -> float:
    """Empirical max of |S_j - S_n| * n**(-1/alpha) over |j - n| <= 3 sqrt(n).

    The coupling argument needs this fluctuation to vanish; it is reported
    rather than bounded.
    """
    _check_coupling_model(model, n)
    half = math.ceil(_C_MULT * math.sqrt(n))
    return float(_coupled_block(model, n, half, rng.generator(), np.array([n]))[0, 3])


def _median_stderr(values):
    # normal-approximation stderr of the sample median from the IQR
    q25, q75 = np.quantile(values, [0.25, 0.75])
    sigma = (q75 - q25) / 1.349
    return 1.2533 * sigma / math.sqrt(len(values))


def coupling_gap_curve(model: TailModel, n_list, reps: int, rng: RngStream,
                       threads: int = 1, with_ks: bool = True,
                       ks_tolerance: float = 0.02):
    """Gap statistics across n: medians, 0.9-quantiles, the monotone-trend
    fraction, per-n two-sample KS between the coupled sums, and the median
    maximal fluctuation.

    Returns an ExperimentReport; pass requires every adjacent median pair to
    decrease (fraction 1.0) and, when with_ks, each KS below ks_tolerance.
    The fluctuation window is |j - n| <= 3 sqrt(n); threads is accepted and
    ignored.
    """
    from .empirics import ExperimentReport, ks_two_sample

    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must not be empty")
    _check_coupling_model(model, n_list[0])
    if any(n < 10 for n in n_list):
        raise ValueError("coupling curve needs n >= 10")
    rows = []
    for idx, n in enumerate(n_list):
        half = math.ceil(_C_MULT * math.sqrt(n))
        vals = _map_blocks(
            lambda gen, rows: _coupled_block(model, n, half, gen, gen.poisson(n, rows)),
            reps, rng.seed, rng.stream_id + idx * _STRIDE)
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
                "c_mult": _C_MULT},
        statistic={"monotone_fraction": fraction, "rows": rows},
        stderr=stderr,
        seed=rng.seed,
        tolerance={"monotone_fraction": 1.0,
                   "ks": ks_tolerance if with_ks else None},
        passed=bool(passed),
    )
