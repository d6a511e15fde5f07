"""Seeded, reproducible variate generation.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so a draw is a pure function of that pair: replicated
runs are bitwise identical and distinct stream ids give independent
streams regardless of scheduling.  Two private helpers own the stream
layout for the whole package: _replicate_map gives replicate i the stream
base_stream + i (Poisson and LePage batches, the coupling curve and the
per-replicate experiments), and _map_blocks splits replicates into fixed
blocks of BLOCK (256), which St. Petersburg sums key one stream each.
Either layout is what makes the experiment layer thread-invariant.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tailmodel import (TailModel, intensity_quantile, intensity_tail,
                        tail_eval, tail_first_moment)

__all__ = [
    "RngStream",
    "SampleBatch",
    "PoissonPointSet",
    "ResourceLimitError",
    "petersburg_from_uniform",
    "sample_petersburg",
    "petersburg_sum_batch",
    "sample_tail_model",
    "sample_poisson_points",
    "points_from_arrivals",
    "poisson_sum_centering",
    "sample_semistable_poisson_sum",
    "poisson_sum_batch",
    "lepage_auto_terms",
    "sample_lepage",
    "lepage_batch",
    "write_batch",
]

_POINT_BUDGET = 1e9
BLOCK = 256
_STRIDE = 10 ** 7  # stream-id block separating experiment phases


class ResourceLimitError(RuntimeError):
    """Expected point count exceeds the practical generation budget."""


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream: Philox keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def shifted(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + offset)


def _map_blocks(block_fn, reps: int, threads: int = 1):
    """Run block_fn(start, stop) over [0, reps) in fixed blocks, in order.

    Results are listed by block index, so the output is identical for any
    thread count; block_fn must derive all randomness from the replicate
    index alone.
    """
    spans = [(s, min(s + BLOCK, reps)) for s in range(0, reps, BLOCK)]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as ex:
            return list(ex.map(lambda sp: block_fn(*sp), spans))
    return [block_fn(s, e) for s, e in spans]


def _replicate_map(draw, reps: int, seed: int, base_stream: int = 0,
                   threads: int = 1) -> np.ndarray:
    """Stack draw(gen) over replicates i in [0, reps), in replicate order.

    Replicate i draws from the stream (seed, base_stream + i) alone, so the
    result depends on (seed, base_stream, reps) and never on threads.
    """
    def block(start, stop):
        return np.array([draw(RngStream(seed, base_stream + i).generator())
                         for i in range(start, stop)])

    return np.concatenate(_map_blocks(block, reps, threads))


def _open01(gen, n):
    # uniforms on (0, 1]: keeps log/quantile transforms finite
    return 1.0 - gen.random(n)


@dataclass(frozen=True)
class SampleBatch:
    """Array of draws plus the metadata that regenerates it exactly."""

    values: np.ndarray
    model: str
    seed: int
    stream_id: int
    transform: str = "raw"

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empty batch")

    def metadata(self) -> dict:
        return {
            "model": self.model,
            "seed": self.seed,
            "stream_id": self.stream_id,
            "transform": self.transform,
            "n": int(len(self.values)),
        }


def petersburg_from_uniform(u):
    """Map uniforms on (0, 1] to St. Petersburg winnings 2**k, k = floor(log2(1/u)) + 1.

    Exponent extraction keeps the dyadic masses exact: u in (2^-k, 2^-(k-1)]
    maps to 2**k, so each value 2**k receives probability exactly 2**-k on
    the 2**-53 uniform lattice.  Values are exact powers of two up to 2**53.
    """
    m, e = np.frexp(np.asarray(u, dtype=float))
    k = (1 - e) + (m == 0.5)
    return np.ldexp(1.0, k)


def sample_petersburg(n: int, rng: RngStream) -> SampleBatch:
    """n independent St. Petersburg draws."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.generator()
    values = petersburg_from_uniform(_open01(gen, n))
    return SampleBatch(values=values, model="petersburg",
                       seed=rng.seed, stream_id=rng.stream_id)


def petersburg_sum_batch(n: int, reps: int, seed: int, base_stream: int = 0,
                         threads: int = 1) -> np.ndarray:
    """reps independent sums S_n of n St. Petersburg draws, from level counts.

    Since P(X = 2^k | X >= 2^k) = 1/2, the number N_k of draws equal to 2^k
    is Binomial(r, 1/2) given the r draws at level >= k, so
    S_n = sum_k N_k 2^k costs about log2(n) binomial draws instead of n
    uniforms.  Counts are int64 and the float64 sums are exact below 2^53.
    The block of replicates [start, start + BLOCK) draws from stream
    base_stream + start // BLOCK, so the output depends on (seed,
    base_stream, reps) and never on threads.
    """
    if n < 1 or reps < 1:
        raise ValueError("need n >= 1 and reps >= 1")

    def block(start, stop):
        gen = RngStream(seed, base_stream + start // BLOCK).generator()
        left = np.full(stop - start, n, dtype=np.int64)
        sums = np.zeros(stop - start)
        k = 1
        while left.any():
            count = gen.binomial(left, 0.5)
            sums += np.ldexp(count, k)
            left -= count
            k += 1
        return sums

    return np.concatenate(_map_blocks(block, reps, threads))


def _quantile_batch(model: TailModel, u):
    """Vectorized tail quantile at u in (0, T(x0)]; grid psi falls back to a loop."""
    x = model._quantile_formula(u)
    return np.maximum(x, model.x0)


def sample_tail_model(model: TailModel, n: int, rng: RngStream,
                      symmetrize: bool = False) -> SampleBatch:
    """Quantile-transform draws from the renormalized law on (x0, inf).

    x = T_inverse(U * T(x0)) with U uniform on (0, 1]; with symmetrize the
    magnitudes are multiplied by independent uniform signs (drawn after the
    magnitudes on the same stream).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.x0 <= 0.0:
        raise ValueError("sampling needs x0 > 0 (finite total mass)")
    gen = rng.generator()
    cap = tail_eval(model, model.x0)
    values = _quantile_batch(model, _open01(gen, n) * cap)
    if symmetrize:
        values = values * (2.0 * gen.integers(0, 2, n) - 1.0)
    from .tailmodel import model_to_json
    return SampleBatch(values=values, model=model_to_json(model),
                       seed=rng.seed, stream_id=rng.stream_id)


# -- Poisson point processes -------------------------------------------------


@dataclass(frozen=True)
class PoissonPointSet:
    """Points above the cutoff of the Poisson process with the given intensity tails.

    points are the nonincreasing mapped values T_inverse(arrival_times);
    arrival_times are the underlying unit-rate Poisson arrivals below
    T(cutoff), so the point count is Poisson with mean T(cutoff).
    """

    points: np.ndarray
    arrival_times: np.ndarray
    cutoff: float
    intensity: TailModel


def _arrivals_below(gen, lam):
    """Unit-rate Poisson arrival times < lam, in increasing order."""
    n0 = int(lam + 10.0 * math.sqrt(lam) + 64.0)
    g = np.cumsum(gen.standard_exponential(n0))
    while g[-1] < lam:
        more = gen.standard_exponential(max(64, n0 // 4))
        g = np.concatenate([g, g[-1] + np.cumsum(more)])
    return g[: np.searchsorted(g, lam, side="left")]


def points_from_arrivals(model: TailModel, arrivals):
    """Inverse-measure mapping y_p = T_inverse(Gamma_p); equals Gamma_p**(-1/alpha)
    for a pure power tail."""
    return intensity_quantile(model, np.asarray(arrivals, dtype=float))


def sample_poisson_points(model: TailModel, cutoff: float,
                          rng: RngStream) -> PoissonPointSet:
    """Points of the Poisson process with intensity tails T above the cutoff."""
    gen = rng.generator()
    return _poisson_points(model, cutoff, gen)


def _poisson_points(model, cutoff, gen):
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    lam = intensity_tail(model, cutoff)
    if lam > _POINT_BUDGET:
        raise ResourceLimitError(
            "expected point count %.3g exceeds the %.0g budget" % (lam, _POINT_BUDGET))
    arr = _arrivals_below(gen, lam)
    pts = points_from_arrivals(model, arr) if arr.size else np.empty(0)
    return PoissonPointSet(points=pts, arrival_times=arr,
                           cutoff=float(cutoff), intensity=model)


def poisson_sum_centering(model: TailModel, cutoff: float) -> float:
    """Centering subtracted from the Poisson sum, by tail-exponent regime.

    alpha < 1: none; alpha > 1: the full mean above the cutoff; alpha = 1:
    the mean truncated at 1, which grows like log(1/cutoff) (any other
    truncation point shifts the limit by a convergent constant).
    """
    if model.alpha < 1.0:
        return 0.0
    if abs(model.alpha - 1.0) < 1e-12:
        return tail_first_moment(model, cutoff, 1.0)
    return tail_first_moment(model, cutoff, None)


def sample_semistable_poisson_sum(model: TailModel, cutoff: float, rng: RngStream,
                                  symmetric: bool = False) -> float:
    """One draw of the (centered) sum of Poisson points above the cutoff.

    As the cutoff shrinks this converges to the semistable law whose Levy
    measure has tails T.  With symmetric=True each point gets an independent
    uniform sign and no centering is applied.
    """
    if not (0.0 < model.alpha < 2.0):
        raise ValueError("poisson sums need alpha in (0, 2)")
    gen = rng.generator()
    centering = 0.0 if symmetric else poisson_sum_centering(model, cutoff)
    return _poisson_sum_one(model, cutoff, gen, symmetric, centering)


def _poisson_sum_one(model, cutoff, gen, symmetric, centering):
    pset = _poisson_points(model, cutoff, gen)
    pts = pset.points
    if symmetric and pts.size:
        pts = pts * (2.0 * gen.integers(0, 2, pts.size) - 1.0)
    return float(pts.sum()) - centering


def poisson_sum_batch(model: TailModel, cutoff: float, reps: int, seed: int,
                      base_stream: int = 0, symmetric: bool = False,
                      threads: int = 1) -> np.ndarray:
    """reps independent Poisson-sum draws, replicate i on stream base_stream + i."""
    if not (0.0 < model.alpha < 2.0):
        raise ValueError("poisson sums need alpha in (0, 2)")
    lam = intensity_tail(model, cutoff)
    if lam > _POINT_BUDGET:
        raise ResourceLimitError("expected point count %.3g over budget" % lam)
    centering = 0.0 if symmetric else poisson_sum_centering(model, cutoff)
    return _replicate_map(
        lambda gen: _poisson_sum_one(model, cutoff, gen, symmetric, centering),
        reps, seed, base_stream, threads)


# -- LePage series ------------------------------------------------------------


def lepage_auto_terms(alpha: float, symmetric: bool, tail_budget: float = 1e-6) -> int:
    """Truncation point P with the series tail bound below tail_budget.

    The proxy is sum_{p>P} p^{-2/alpha} (variance, symmetric case) or
    sum_{p>P} p^{-1/alpha} (mean, positive case), bounded by the integral
    P**(1-s)/(s-1).
    """
    s = 2.0 / alpha if symmetric else 1.0 / alpha
    if s <= 1.0:
        raise ValueError("series tail does not truncate in this mode")
    p = math.ceil((tail_budget * (s - 1.0)) ** (-1.0 / (s - 1.0)))
    return max(int(p), 8)


def sample_lepage(alpha: float, rng: RngStream, n_terms: int | None = None,
                  symmetric: bool = False) -> float:
    """One draw of the LePage series sum_p eps_p Z_p**(-1/alpha).

    Z_p are the partial sums of a single i.i.d. sequence of mean-1
    exponentials; eps_p are independent uniform signs when symmetric, else
    identically +1.  The positive mode requires alpha < 1 (otherwise the
    series diverges without term-wise centering, which is not provided);
    symmetric mode allows alpha in (0, 2).  n_terms = None picks the
    truncation from lepage_auto_terms.
    """
    gen = rng.generator()
    terms = _lepage_terms(alpha, gen, n_terms, symmetric)
    return float(terms.sum())


def _lepage_prep(alpha, n_terms, symmetric):
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    if not symmetric and alpha >= 1.0:
        raise ValueError("positive mode needs alpha < 1")
    p = int(n_terms) if n_terms is not None else lepage_auto_terms(alpha, symmetric)
    if p > 10 ** 8:
        raise ResourceLimitError(
            "series truncation at %d terms exceeds the budget; pass n_terms" % p)
    return p


def _lepage_terms(alpha, gen, n_terms, symmetric):
    p = _lepage_prep(alpha, n_terms, symmetric)
    z = np.cumsum(gen.standard_exponential(p))
    mags = z ** (-1.0 / alpha)
    if symmetric:
        mags = mags * (2.0 * gen.integers(0, 2, p) - 1.0)
    return mags


def lepage_batch(alpha: float, reps: int, seed: int, symmetric: bool = False,
                 n_terms: int | None = None, base_stream: int = 0,
                 threads: int = 1) -> np.ndarray:
    """reps independent LePage sums, replicate i on stream base_stream + i."""
    p = _lepage_prep(alpha, n_terms, symmetric)
    return _replicate_map(lambda gen: _lepage_terms(alpha, gen, p, symmetric).sum(),
                          reps, seed, base_stream, threads)


# -- export -------------------------------------------------------------------


def write_batch(batch: SampleBatch, path: str,
                config: dict | None = None) -> None:
    """CSV with header index,value plus a JSON sidecar <path>.meta.json.

    The sidecar holds the batch metadata, plus the run configuration under
    "config" when one is given."""
    lines = ["index,value"]
    lines += ["%d,%.17g" % (i, v) for i, v in enumerate(batch.values)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = batch.metadata()
    if config is not None:
        meta["config"] = config
    with open(path + ".meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
