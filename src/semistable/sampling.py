"""Seeded, reproducible variate generation.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so a draw is a pure function of that pair: replicated
runs are bitwise identical and distinct stream ids give independent
streams regardless of scheduling.  Every batch draws through _map_blocks,
which alone owns the stream layout (block b of phase i on stream
base_stream + i * _STRIDE + b, blocks of BLOCK = 256 replicates), the 2^32
draw budget of a phase, checked before any phase draws, and the pool: a
block of at least _CHUNK draws runs on one worker per usable CPU, smaller
ones (the St. Petersburg level counts, of sums and of Poisson sums) on the
caller.  Blocks join in block order, so outputs depend on neither the
worker count nor threads=.  Each construction has one vectorized block
kernel; the single-draw functions run it on one row.  The kernels follow
the package's working-set rule (_arrays): their temporaries hold at most
_CHUNK doubles, whatever n, P or lambda, and they sum elementwise, not by
matrix products, which OpenBLAS may hand to a second thread.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ._arrays import _CHUNK, ResourceLimitError, _check_budget, _check_count
from .tailmodel import (TailModel, _finite, intensity_quantile, intensity_tail,
                        make_pareto, model_to_json, tail_eval, tail_first_moment)

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
# the largest mean gen.poisson takes: int64 max - 10 sqrt(int64 max)
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_POINT_SET_BUDGET = 1 << 26  # points of a point set, or draws of a batch, held in memory
_DRAW_BUDGET = 1 << 32  # replicates x draws per replicate in one phase
_SERIES_TAIL = 1e-6  # LePage series tail proxy at the auto truncation
BLOCK = 256
_STRIDE = 10 ** 7  # stream-id block separating experiment phases
_WORKER_NAME = "semistable-block"  # the pool's threads; their calls run in line
# kernels run under it (per thread), so that _finite's error comes with no warning
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream: Philox keyed by two integers mod 2^64."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_count(self.seed, "seed"))
        object.__setattr__(self, "stream_id", _check_count(self.stream_id, "stream_id"))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass
class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox its key as state: Philox(key=key) without OS entropy."""

    key: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _cpus() -> int:  # the CPUs this process may run on
    has_mask = hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if has_mask else os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The shared block pool, made on first use; it starts threads lazily."""
    return ThreadPoolExecutor(workers, thread_name_prefix=_WORKER_NAME)


def _map_blocks(phases, reps: int, seed: int, base_stream: int = 0):
    """For each phase (block_fn, draws per replicate), block_fn(gen, rows)
    concatenated over blocks of BLOCK replicates, drawn at its next().

    Block b of phase i covers replicates [b * BLOCK, min((b + 1) * BLOCK, reps))
    and draws from stream (seed, base_stream + i * _STRIDE + b) alone.  A
    phase of reps x draws > 2^32 is refused before any phase draws.  Blocks
    of BLOCK x draws >= _CHUNK run on the shared pool, save with one CPU, one
    block or a call from a pool worker; a block error cancels the pending
    blocks and waits for the running ones before it is raised.
    """
    reps = _check_count(reps, "reps", 1)
    for _, draws in phases:
        _check_budget(reps * draws, _DRAW_BUDGET, "draws in one phase")
    blocks, cpus = range(-(-reps // BLOCK)), _cpus()
    inline = (min(len(blocks), cpus) == 1
              or threading.current_thread().name.startswith(_WORKER_NAME))

    def draw():
        for i, (block_fn, draws) in enumerate(phases):
            def run(b):  # called only within this iteration
                with _quiet():
                    return block_fn(RngStream(seed, base_stream + i * _STRIDE + b).generator(),
                                    min(BLOCK, reps - b * BLOCK))

            on_pool = not inline and BLOCK * draws >= _CHUNK
            yield np.concatenate(_on_pool(run, blocks, cpus) if on_pool
                                 else list(map(run, blocks)))
    return draw()


def _on_pool(run, blocks, workers):  # [run(b) for b in blocks] on the pool
    futures = [_pool(workers).submit(run, b) for b in blocks][::-1]
    try:  # drop each future once read, as Executor.map does: each holds a lock
        return [futures.pop().result() for _ in blocks]
    except BaseException:
        for f in futures:
            f.cancel()
        wait(futures)
        raise


def _row_groups(rows: int, cols: int):
    """Row slices of a rows x cols array, about _CHUNK elements each."""
    step = max(1, min(rows, _CHUNK // max(cols, 1)))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _col_chunks(lo: int, hi: int, nrows: int):
    """Column spans of [lo, hi) with at most _CHUNK elements over nrows rows."""
    width = max(1, _CHUNK // nrows)
    return [(c, min(c + width, hi)) for c in range(lo, hi, width)]


def _open01(gen, out):  # fills out with uniforms on (0, 1], where log/quantile stay finite
    gen.random(out=out)
    return np.subtract(1.0, out, out=out)


def _signed(gen, x):  # x with independent uniform signs, in place: one draw per value
    return np.negative(x, out=x, where=gen.integers(0, 2, x.shape) == 0)


@dataclass(frozen=True)
class SampleBatch:
    """Array of draws plus the metadata that regenerates it exactly."""

    values: np.ndarray
    model: str
    seed: int
    stream_id: int

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empty batch")

    def metadata(self) -> dict:
        return {
            "model": self.model,
            "seed": self.seed,
            "stream_id": self.stream_id,
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


def _uniform_batch(transform, n: int, rng: RngStream, model: str,
                   symmetrize: bool = False) -> SampleBatch:
    """transform(U) for n uniforms U on (0, 1]; with symmetrize the values get
    independent uniform signs, drawn after them on the same stream; at most
    2^26 draws, as the batch is held in memory like a point set."""
    n = _check_count(n, "n", 1)
    _check_budget(n, _POINT_SET_BUDGET, "draws held in memory")
    gen = rng.generator()
    values = transform(_open01(gen, np.empty(n)))
    if symmetrize:
        _signed(gen, values)
    return SampleBatch(values=values, model=model, seed=rng.seed,
                       stream_id=rng.stream_id)


def sample_petersburg(n: int, rng: RngStream) -> SampleBatch:
    """n independent St. Petersburg draws."""
    return _uniform_batch(petersburg_from_uniform, n, rng, "petersburg")


# P(X = 2^k) = 2^-k for k < 64, then the rest, 2^-63, in one last cell
_LEVEL_P = np.ldexp(1.0, -np.minimum(np.arange(1, 65), 63))
_LEVEL_VALUES = np.ldexp(1.0, np.arange(1, 64))
_MAX_N = 2 ** 63 - 1  # the most draws in one int64 level count


def _level_sums(counts, gen):
    """Sums of counts[i] St. Petersburg draws, from dyadic level counts.

    The level counts (N_1, N_2, ...) of r draws are Multinomial(r; 1/2,
    1/4, ...), and gen.multinomial draws each row in C as conditional
    binomials, stopping at its last non-empty level.  Every conditional
    probability of _LEVEL_P is exactly 1/2 (P(X = 2^k | X >= 2^k)), so each
    is the same Binomial(left, 1/2) a level-by-level loop would draw.  The
    draws in the last cell (X >= 2^64) are 2^63 times St. Petersburg draws
    again and recurse.  Counts are int64 and the float64 sums are exact
    below 2^53.
    """
    levels = gen.multinomial(counts, _LEVEL_P)
    # elementwise: a small BLAS product can stall on OpenBLAS's threads
    sums = (levels[:, :-1] * _LEVEL_VALUES).sum(axis=1)
    deep = levels[:, -1] > 0
    if deep.any():
        sums[deep] += np.ldexp(_level_sums(levels[deep, -1], gen), 63)
    return sums


def _petersburg_block(n, gen, rows):
    """rows sums S_n of n St. Petersburg draws (_level_sums): one
    multinomial of about log2(n) binomial levels per row instead of n
    uniforms."""
    return _level_sums(np.full(rows, n, dtype=np.int64), gen)


def petersburg_sum_batch(n: int, reps: int, seed: int, base_stream: int = 0,
                         threads: int = 1) -> np.ndarray:
    """reps independent sums S_n, block b on stream base_stream + b.

    Each block is one multinomial call over its rows (_petersburg_block),
    and a row's levels count as its draws: reps x bit_length(n) must stay
    within the 2^32 draw budget, and n must fit the int64 level counts;
    threads is ignored."""
    n = _check_count(n, "n", 1, _MAX_N)
    phase = (functools.partial(_petersburg_block, n), n.bit_length())
    return next(_map_blocks([phase], reps, seed, base_stream))


def sample_tail_model(model: TailModel, n: int, rng: RngStream,
                      symmetrize: bool = False) -> SampleBatch:
    """Quantile-transform draws from the renormalized law on (x0, inf).

    x = inf{x : T(x) < U T(x0)}, U uniform on (0, 1]: the strict inverse,
    exact on a St. Petersburg tail (above x0; petersburg_from_uniform(U) at
    x0 = 1).  With symmetrize the magnitudes get independent uniform signs,
    drawn after them on the same stream.  A draw past the float range
    (alpha near 0) raises OverflowError.
    """
    cap = tail_eval(model, model.x0) if model.x0 > 0.0 else 0.0
    if not cap * 2.0 ** -53 > 0.0:  # U * T(x0), U >= 2^-53, must stay positive
        raise ValueError("sampling needs x0 > 0 and T(x0) >= 2^-1021")
    with _quiet():
        return _uniform_batch(
            lambda u: _finite(model._quantile(u * cap, strict=True), model.alpha),
            n, rng, model_to_json(model), symmetrize)


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


def _point_rate(model: TailModel, cutoff: float, budget=_POINT_BUDGET,
                what="expected points") -> float:
    """Expected point count T(cutoff) above the cutoff, within the budget."""
    if not 0.0 < cutoff < math.inf:
        raise ValueError("cutoff must be positive and finite, got %s" % cutoff)
    lam = intensity_tail(model, cutoff)
    _check_budget(lam, budget, what)
    return lam


def sample_poisson_points(model: TailModel, cutoff: float,
                          rng: RngStream) -> PoissonPointSet:
    """Points of the Poisson process with intensity tails T above the cutoff,
    all held in memory: at most 2^26 expected."""
    lam = _point_rate(model, cutoff, _POINT_SET_BUDGET, "expected points held in memory")
    arr = _arrivals_below(rng.generator(), lam)
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


def _poisson_sum_block(model, lam, symmetric, centering, gen, rows):
    """rows Poisson sums: counts K_i ~ Poisson(lam), then sum T_inverse(lam U).

    Given K_i the unordered arrivals are i.i.d. uniform on (0, lam), and the
    sum does not see their order, so each replicate needs only its count and
    K_i uniforms.  The points of all rows are drawn as one flat sequence,
    _CHUNK at a time into one buffer (signs after each chunk's uniforms), and
    reduced per row at the replicate boundaries that fall in the chunk.
    """
    ends = np.cumsum(gen.poisson(lam, rows))
    starts = np.concatenate(([0], ends[:-1]))
    sums, u = np.zeros(rows), np.empty(min(_CHUNK, int(ends[-1])))
    for c0 in range(0, int(ends[-1]), _CHUNK):
        c1 = min(c0 + _CHUNK, int(ends[-1]))
        tile = _open01(gen, u[:c1 - c0])
        x = intensity_quantile(model, np.multiply(tile, lam, out=tile))
        if symmetric:
            _signed(gen, x)
        r0, r1 = np.searchsorted(ends, [c0, c1 - 1], side="right")
        heads = np.maximum(starts[r0:r1 + 1], c0) - c0
        full = heads < np.minimum(ends[r0:r1 + 1], c1) - c0
        sums[r0:r1 + 1][full] += np.add.reduceat(x, heads[full])
    return _finite(sums - centering, model.alpha)


def _level_poisson_block(model, lam, e, symmetric, centering, gen, rows):
    """rows Poisson sums for the St. Petersburg intensity, from level counts.

    Above a cutoff in [2^(e-1), 2^e) the atoms are 2^(e-1+j), j >= 1, of
    mass c 2^-(e-1+j), so given its Poisson(lam) count each point is
    2^(e-1) times a St. Petersburg draw, and the sum is 2^(e-1) times the
    level sum of the count (_level_sums).  With symmetric the two sign
    classes are independent Poisson processes of rate lam/2: the sum is the
    difference of their level sums.
    """
    if symmetric:
        pos, neg = _level_sums(gen.poisson(lam / 2, 2 * rows), gen).reshape(rows, 2).T
        sums = pos - neg
    else:
        sums = _level_sums(gen.poisson(lam, rows), gen)
    return _finite(np.ldexp(sums, e - 1) - centering, model.alpha)


def sample_semistable_poisson_sum(model: TailModel, cutoff: float, rng: RngStream,
                                  symmetric: bool = False) -> float:
    """One draw of the (centered) sum of Poisson points above the cutoff.

    As the cutoff shrinks this converges to the semistable law whose Levy
    measure has tails T.  With symmetric=True each point gets an independent
    uniform sign and no centering is applied.  The draw is the one-replicate
    poisson_sum_batch on stream rng.stream_id.
    """
    return float(poisson_sum_batch(model, cutoff, 1, rng.seed, rng.stream_id, symmetric)[0])


def poisson_sum_batch(model: TailModel, cutoff: float, reps: int, seed: int,
                      base_stream: int = 0, symmetric: bool = False,
                      threads: int = 1) -> np.ndarray:
    """reps independent Poisson-sum draws, block b on stream base_stream + b.

    The block kernel follows psi_kind.  St. Petersburg intensities draw
    dyadic level counts on each Poisson count (_level_poisson_block) and
    hold no points: reps x (one per sign class) x bit_length(ceil(T(cutoff)))
    levels must stay within the 2^32 draw budget, and each count within
    numpy's Poisson range, a mean of about 9.2e18 (per sign class, T/2).
    Pareto and grid intensities draw each point (_poisson_sum_block):
    T(cutoff) is at most 1e9, and reps x ceil(T(cutoff)) must stay within
    the draw budget.  A sum past the float range (alpha near 0) raises
    OverflowError; threads is ignored."""
    if not (0.0 < model.alpha < 2.0):
        raise ValueError("poisson sums need alpha in (0, 2)")
    classes = 2 if symmetric else 1
    if model.psi_kind == "petersburg":
        lam = _point_rate(model, cutoff, classes * _POISSON_MAX,
                          "expected points in numpy's Poisson draws")
        kernel = functools.partial(_level_poisson_block, model, lam, math.frexp(cutoff)[1])
        draws = classes * math.ceil(lam).bit_length()
    else:
        lam = _point_rate(model, cutoff)
        kernel = functools.partial(_poisson_sum_block, model, lam)
        draws = math.ceil(lam)
    centering = 0.0 if symmetric else poisson_sum_centering(model, cutoff)
    block = functools.partial(kernel, symmetric, centering)
    return next(_map_blocks([(block, draws)], reps, seed, base_stream))


# -- LePage series ------------------------------------------------------------


def lepage_auto_terms(alpha: float, symmetric: bool) -> int:
    """Truncation point P with the series tail bound below 1e-6.

    The proxy is sum_{p>P} p^{-2/alpha} (variance, symmetric case) or
    sum_{p>P} p^{-1/alpha} (mean, positive case), bounded by the integral
    P**(1-s)/(s-1).
    """
    s = 2.0 / alpha if symmetric else 1.0 / alpha
    if s <= 1.0:
        raise ValueError("series tail does not truncate in this mode")
    p = math.ceil((_SERIES_TAIL * (s - 1.0)) ** (-1.0 / (s - 1.0)))
    return max(int(p), 8)


def sample_lepage(alpha: float, rng: RngStream, n_terms: int | None = None,
                  symmetric: bool = False) -> float:
    """One draw of the LePage series sum_p eps_p Z_p**(-1/alpha), p <= P.

    Z_p are the arrivals of a rate-1 Poisson process and eps_p independent
    uniform signs when symmetric, else identically +1; the sum is drawn as
    the terms (Z_{P+1} U_j)**(-1/alpha), U_j uniform (_lepage_block).  The
    positive mode requires alpha < 1 (otherwise the series diverges without
    term-wise centering, which is not provided); symmetric mode allows
    alpha in (0, 2).  n_terms = P = None picks the truncation from
    lepage_auto_terms.  The draw is the one-replicate lepage_batch on
    stream rng.stream_id.
    """
    return float(lepage_batch(alpha, 1, rng.seed, symmetric, n_terms, rng.stream_id)[0])


def _lepage_prep(alpha, n_terms, symmetric, least=1):
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    if not symmetric and alpha >= 1.0:
        raise ValueError("positive mode needs alpha < 1")
    p = (lepage_auto_terms(alpha, symmetric) if n_terms is None
         else _check_count(n_terms, "n_terms", least))
    _check_budget(p, 10 ** 8, "series terms")
    return p


def _power_block(alpha, n, ranks, symmetric, gen, rows, scale=None):
    """(rows, 1 + ranks): sums of n terms (s U)**(-1/alpha), U uniform on
    (0, 1] and s the row's scale (1 without one), then the ranks largest.

    Tiles of at most _CHUNK uniforms (_row_groups, then _col_chunks) share one
    buffer, mapped in place by the inverse of the tail x**(-alpha); the top
    ranks merge tile by tile, then the signs go on in place (_signed).  The
    scale goes on each term: on the sum, s**(-1/alpha) overflows (inf * 0).
    A term past the float range (alpha near 0) raises OverflowError.
    """
    out, buf = np.zeros((rows, 1 + ranks)), np.empty(min(_CHUNK, rows * n))
    inverse = make_pareto(alpha)._quantile_formula  # (1/u)**(1/alpha), all u > 0
    for rs in _row_groups(rows, n):
        nr = rs.stop - rs.start
        top = np.full((nr, ranks), -np.inf)
        for c0, c1 in _col_chunks(0, n, nr):
            u = _open01(gen, buf[:nr * (c1 - c0)].reshape(nr, c1 - c0))
            if scale is not None:
                u *= scale[rs, None]
            mags = inverse(u, out=u)
            if ranks == 1:
                top = np.maximum(top, mags.max(axis=1, keepdims=True))
            elif ranks:
                top = np.partition(np.concatenate([top, mags], axis=1),
                                   c1 - c0, axis=1)[:, c1 - c0:]
            out[rs, 0] += (_signed(gen, mags) if symmetric else mags).sum(axis=1)
        out[rs, 1:] = np.sort(top, axis=1)[:, ::-1]
    return _finite(out, alpha)


def _lepage_block(alpha, p, symmetric, gen, rows, ranks=0):
    """rows LePage sums of p terms, then each row's ranks <= p largest terms.

    (Z_1, ..., Z_p)/Z_{p+1} are p uniform order statistics independent of
    Z_{p+1} (Renyi 1953), so the series is in law the power sum of the
    terms (Z_{p+1} U_j)**(-1/alpha): Z_{p+1} first, then the uniforms.
    """
    return _power_block(alpha, p, ranks, symmetric, gen, rows,
                        scale=gen.standard_gamma(p + 1, rows))


def lepage_batch(alpha: float, reps: int, seed: int, symmetric: bool = False,
                 n_terms: int | None = None, base_stream: int = 0,
                 threads: int = 1) -> np.ndarray:
    """reps independent LePage sums, block b on stream base_stream + b.

    reps x n_terms must stay within the 2^32 draw budget, and a term past
    the float range (alpha near 0) raises OverflowError; threads is ignored."""
    p = _lepage_prep(alpha, n_terms, symmetric)
    block = lambda gen, rows: _lepage_block(alpha, p, symmetric, gen, rows)[:, 0]
    return next(_map_blocks([(block, p)], reps, seed, base_stream))


# -- export -------------------------------------------------------------------


def _csv_lines(batch: SampleBatch):
    return ["index,value"] + ["%d,%.17g" % (i, v) for i, v in enumerate(batch.values)]


def write_batch(batch: SampleBatch, path: str,
                config: dict | None = None) -> None:
    """CSV with header index,value plus a JSON sidecar <path>.meta.json.

    The sidecar holds the batch metadata, plus the run configuration under
    "config" when one is given."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(_csv_lines(batch)) + "\n")
    meta = batch.metadata()
    if config is not None:
        meta["config"] = config
    with open(path + ".meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
