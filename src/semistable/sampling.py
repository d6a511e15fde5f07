"""Seeded, reproducible variate generation.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so a draw is a pure function of that pair: replicated
runs are bitwise identical and distinct stream ids give independent
streams regardless of scheduling.  Every sum batch draws through _map_blocks,
which alone owns the stream layout, the draw budget of a phase and who
draws (the caller, with a helper thread per further usable CPU on the
larger blocks); blocks join in block order, so outputs depend on neither
the worker count nor threads=.  Each construction has one vectorized block
kernel; the single-draw functions run it on one row.  Every sampler maps its
uniforms in place through the tail model's inverse, the St. Petersburg
game's too: the game is the model at x0 = 1 (_GAME).  The kernels follow
the working-set rule (_arrays) whatever n, P or lambda, and sum elementwise,
not by matrix products, which OpenBLAS may hand to a second thread.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._arrays import (_CHUNK, ResourceLimitError, _check_budget, _check_count, _check_finite,
                      _check_real, _quiet)
from .tailmodel import (TailModel, intensity_quantile, intensity_tail, make_pareto,
                        make_petersburg, model_to_json, tail_first_moment)

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
_GAME = make_petersburg(1.0)  # the game X, P(X = 2^k) = 2^-k: its tail at x0 = 1
BLOCK = 256
_STRIDE = 10 ** 7  # stream-id block separating experiment phases
_POOL_LEVELS = 6  # GIL-free phases pool from 6 levels (n >= 32): 5 gained over 40 blocks, not 10
_SIGN_PIECE = _CHUNK // 4  # sign draws per call: 32 KiB of uint32
_WORKER_NAME = "semistable-block"  # a pooled phase's helpers, one per usable CPU past the first


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


class _Phase(NamedTuple):
    """One phase of _map_blocks: block_fn(gen, rows) draws a block of rows
    replicates, draws per replicate; gil_free when the block is one call
    that releases the GIL (the St. Petersburg level counts)."""

    block_fn: Callable
    draws: int
    gil_free: bool = False


def _map_blocks(phases, reps: int, seed: int, base_stream: int = 0):
    """For each phase (block_fn, draws per replicate[, gil_free]: a _Phase),
    block_fn(gen, rows) concatenated over blocks of BLOCK replicates, drawn
    at its next().

    Block b of phase i covers replicates [b * BLOCK, min((b + 1) * BLOCK, reps))
    and draws from stream (seed, base_stream + i * _STRIDE + b) alone.  A
    phase of reps x draws > 2^32 is refused before any phase draws.  Each
    phase is drained by _on_pool: the caller and, when the phase pools,
    cpus - 1 helper threads started for it and joined before it returns.
    A phase pools when its blocks make BLOCK x draws >= _CHUNK draws, or
    when gil_free (each block one call that releases the GIL) from
    _POOL_LEVELS draws per replicate.  Other kernels' smaller blocks make
    many short numpy calls each and ran up to 3x slower pooled (LePage sums
    of 8 terms, 2 cores), so they stay on the caller, as do the order
    statistics' two Gamma draws.  One CPU or one block starts no helper, and
    a call made inside a block drains its own phase with its own helpers.
    """
    reps = _check_count(reps, "reps", 1)
    phases = [_Phase(*p) for p in phases]
    for p in phases:
        _check_budget(reps * p.draws, _DRAW_BUDGET, "draws in one phase")
    blocks, cpus = range(-(-reps // BLOCK)), _cpus()

    def draw():
        for i, p in enumerate(phases):
            def run(b):  # called only within this iteration
                with _quiet():
                    return p.block_fn(RngStream(seed, base_stream + i * _STRIDE + b).generator(),
                                      min(BLOCK, reps - b * BLOCK))

            pooled = BLOCK * p.draws >= _CHUNK or p.gil_free and p.draws >= _POOL_LEVELS
            # the blocks are dropped once joined, before the phase is handed on
            yield np.concatenate(_on_pool(run, blocks, cpus if pooled else 1))
    return draw()


def _on_pool(run, blocks, workers):  # [run(b) for b in blocks], the caller beside its helpers
    out, todo, lock, errors = [None] * len(blocks), iter(blocks), threading.Lock(), []

    def drain():  # the next block under the lock, until none is left or one has failed
        try:
            while not errors:
                with lock:
                    b = next(todo, None)
                if b is None:
                    break
                out[b] = run(b)
        except BaseException as e:  # an interrupt of the caller stops the helpers too
            errors.append(e)
    helpers = [threading.Thread(target=drain, name=_WORKER_NAME)
               for _ in range(min(workers, len(blocks)) - 1)]
    try:
        for t in helpers:
            t.start()
        drain()
    finally:  # the started helpers end before the phase returns or an error is raised
        for t in filter(threading.Thread.is_alive, helpers):
            t.join()
    if errors:
        raise errors[0]
    return out


def _row_groups(rows: int, cols: int):
    """Row slices of a rows x cols array, about _CHUNK elements each, one at a time."""
    step = max(1, min(rows, _CHUNK // max(cols, 1)))
    return (slice(r, min(r + step, rows)) for r in range(0, rows, step))


def _col_chunks(lo: int, hi: int, nrows: int):
    """Column spans of [lo, hi) with at most _CHUNK elements over nrows rows."""
    width = max(1, _CHUNK // nrows)
    return [(c, min(c + width, hi)) for c in range(lo, hi, width)]


def _open01(gen, out):  # fills out with uniforms on (0, 1], where log/quantile stay finite
    gen.random(out=out)
    return np.subtract(1.0, out, out=out)


def _signed(gen, x):  # x >= 0, contiguous, with uniform signs in place, _SIGN_PIECE at a time
    # integers(0, 2)'s stream: bit 31 of one next_uint32 per value (Lemire's method never
    # rejects at range 2); a 0 draws a minus, ~word & 2^31 the sign of the high 32-bit word
    high = x.reshape(-1).view(np.uint32)[int(np.little_endian)::2]
    for words in (high[c0:c0 + _SIGN_PIECE] for c0 in range(0, high.size, _SIGN_PIECE)):
        bits = gen.integers(0, 1 << 32, words.size, dtype=np.uint32)
        words |= np.bitwise_and(np.invert(bits, out=bits), np.uint32(1 << 31), out=bits)
        del bits  # dropped before the next piece is drawn
    return x


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

    The strict inverse of the game's tail (_GAME, x0 = 1) keeps the dyadic
    masses exact: u in (2^-k, 2^-(k-1)] maps to 2**k, so each value 2**k
    receives probability exactly 2**-k on the 2**-53 uniform lattice.
    Values are exact powers of two; u outside (0, 1] raises ValueError, and
    u <= 2**-1023, whose 2**k passes float64's max, OverflowError.
    """
    u = _check_real(u, "u", 0.0, 1.0, "(]", array=True)
    with _quiet():
        return _check_finite(_GAME._quantile_formula(u, strict=True), "a draw", _GAME.alpha)


def sample_petersburg(n: int, rng: RngStream) -> SampleBatch:
    """n independent St. Petersburg draws: sample_tail_model of the game."""
    return sample_tail_model(_GAME, n, rng)


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
    # numpy's own loop, not a BLAS product (which can stall on OpenBLAS's
    # threads); partial sums below 2^53 are exact integers in any order, so
    # only a row past it needs the elementwise sum for the same bits
    sums = np.einsum("ij,j->i", levels[:, :-1], _LEVEL_VALUES)
    big = sums >= 2.0 ** 53
    if big.any():
        sums[big] = (levels[big, :-1] * _LEVEL_VALUES).sum(axis=1)
    deep = levels[:, -1] > 0
    if deep.any():
        sums[deep] += np.ldexp(_level_sums(levels[deep, -1], gen), 63)
    return sums


def _petersburg_block(n, gen, rows):
    """rows sums S_n of n St. Petersburg draws (_level_sums): one
    multinomial of about log2(n) binomial levels per row instead of n
    uniforms."""
    return _level_sums(np.full(rows, n, dtype=np.int64), gen)


def _petersburg_phase(n):  # the _map_blocks phase of sums S_n: bit_length(n) levels
    return _Phase(functools.partial(_petersburg_block, n), n.bit_length(), gil_free=True)


def petersburg_sum_batch(n: int, reps: int, seed: int, base_stream: int = 0,
                         threads: int = 1) -> np.ndarray:
    """reps independent sums S_n, block b on stream base_stream + b.

    Each block is one multinomial call over its rows (_petersburg_block),
    which releases the GIL, so from n = 32 (6 levels) the blocks pool, one
    block at a time.  A row's levels count as its draws: reps x bit_length(n)
    must stay within the 2^32 draw budget, and n must fit the int64 level
    counts; threads is ignored."""
    n = _check_count(n, "n", 1, _MAX_N)
    return next(_map_blocks([_petersburg_phase(n)], reps, seed, base_stream))


def sample_tail_model(model: TailModel, n: int, rng: RngStream,
                      symmetrize: bool = False) -> SampleBatch:
    """Quantile-transform draws from the renormalized law on (x0, inf).

    x = inf{x : T(x) < U T(x0)}, U uniform on (0, 1], T(x0) the kept _mass,
    in place: the strict inverse, exact on a St. Petersburg tail (the game
    at x0 = 1).  With symmetrize the magnitudes get independent uniform
    signs, drawn after them on the same stream.  At most 2^26 draws, held in
    memory like a point set; a draw past the float range (alpha near 0) raises OverflowError.
    """
    if not model._mass * 2.0 ** -53 > 0.0:  # U * T(x0), U >= 2^-53, must stay positive
        raise ValueError("sampling needs x0 > 0 and T(x0) >= 2^-1021")
    n = _check_count(n, "n", 1)
    _check_budget(n, _POINT_SET_BUDGET, "draws held in memory")
    gen = rng.generator()
    u = _open01(gen, np.empty(n))
    np.multiply(u, model._mass, out=u)
    with _quiet():
        values = _check_finite(model._quantile(u, u, strict=True), "a draw", model.alpha)
    if symmetrize:
        _signed(gen, values)
    return SampleBatch(values=values, model=model_to_json(model), seed=rng.seed,
                       stream_id=rng.stream_id)


# -- Poisson point processes -------------------------------------------------


@dataclass(frozen=True)
class PoissonPointSet:
    """Points above the cutoff of the Poisson process with the given intensity tails.

    points are the nonincreasing mapped values T_inverse(arrival_times);
    arrival_times are the unit-rate Poisson arrivals below T(cutoff): a
    Poisson(T(cutoff)) count of Renyi's (1953) normalized exponential sums.
    """

    points: np.ndarray
    arrival_times: np.ndarray
    cutoff: float
    intensity: TailModel


def points_from_arrivals(model: TailModel, arrivals):
    """Inverse-measure mapping y_p = T_inverse(Gamma_p); equals Gamma_p**(-1/alpha)
    for a pure power tail; the arrivals must lie in (0, inf)."""
    return intensity_quantile(model, arrivals)


def _point_rate(model: TailModel, cutoff: float, budget=_POINT_BUDGET,
                what="expected points") -> float:
    """Expected point count T(cutoff) above the cutoff, within the budget."""
    lam = intensity_tail(model, _check_real(cutoff, "cutoff", 0.0))
    _check_budget(lam, budget, what)
    return lam


def sample_poisson_points(model: TailModel, cutoff: float,
                          rng: RngStream) -> PoissonPointSet:
    """Points of the Poisson process with intensity tails T above the cutoff,
    all held in memory: at most 2^26 expected.  The count K ~ Poisson(lam),
    lam = T(cutoff), then K + 1 exponentials with sums S_j: given K, the
    arrivals lam S_j / S_{K+1}, j <= K, are uniform order statistics (Renyi 1953)."""
    lam = _point_rate(model, cutoff, _POINT_SET_BUDGET, "expected points held in memory")
    gen = rng.generator()
    s = np.cumsum(gen.standard_exponential(gen.poisson(lam) + 1))
    arr = lam * s[:-1] / s[-1]
    return PoissonPointSet(points=points_from_arrivals(model, arr), arrival_times=arr,
                           cutoff=float(cutoff), intensity=model)


def poisson_sum_centering(model: TailModel, cutoff: float) -> float:
    """Centering subtracted from the Poisson sum, by tail-exponent regime.

    alpha < 1: none; alpha > 1: the full mean above the cutoff; alpha = 1:
    the mean truncated at 1, which grows like log(1/cutoff) (any other
    truncation point shifts the limit by a convergent constant).
    """
    cutoff = _check_real(cutoff, "cutoff", 0.0)
    if model.alpha < 1.0:
        return 0.0
    if abs(model.alpha - 1.0) < 1e-12:  # a cutoff past 1 adds the mean on (1, cutoff]
        return (tail_first_moment(model, cutoff, 1.0) if cutoff < 1.0
                else -tail_first_moment(model, 1.0, cutoff) if cutoff > 1.0 else 0.0)
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
        x = model._quantile_formula(np.multiply(tile, lam, out=tile), tile)
        if symmetric:
            _signed(gen, x)
        r0, r1 = np.searchsorted(ends, [c0, c1 - 1], side="right")
        heads = np.maximum(starts[r0:r1 + 1], c0) - c0
        full = heads < np.minimum(ends[r0:r1 + 1], c1) - c0
        sums[r0:r1 + 1][full] += np.add.reduceat(x, heads[full])
    return _check_finite(sums - centering, "a Poisson sum", model.alpha)


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
    return _check_finite(np.ldexp(sums, e - 1) - centering, "a Poisson sum", model.alpha)


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
    _check_real(model.alpha, "alpha", 0.0, 2.0)
    classes = 2 if symmetric else 1
    if model.psi_kind == "petersburg":
        lam = _point_rate(model, cutoff, classes * _POISSON_MAX,
                          "expected points in numpy's Poisson draws")
        kernel = functools.partial(_level_poisson_block, model, lam, math.frexp(cutoff)[1])
        draws, gil_free = classes * math.ceil(lam).bit_length(), True
    else:
        lam = _point_rate(model, cutoff)
        kernel = functools.partial(_poisson_sum_block, model, lam)
        draws, gil_free = math.ceil(lam), False
    centering = 0.0 if symmetric else poisson_sum_centering(model, cutoff)
    block = functools.partial(kernel, symmetric, centering)
    return next(_map_blocks([(block, draws, gil_free)], reps, seed, base_stream))


# -- LePage series ------------------------------------------------------------


def _lepage_alpha(alpha, symmetric):  # the one LePage rule: positive mode needs alpha < 1
    return _check_real(alpha, "alpha", 0.0, 2.0 if symmetric else 1.0)


def lepage_auto_terms(alpha: float, symmetric: bool) -> int:
    """Truncation point P with the series tail bound below 1e-6.

    The proxy is sum_{p>P} p^{-2/alpha} (variance, symmetric case) or
    sum_{p>P} p^{-1/alpha} (mean, positive case), bounded by the integral
    P**(1-s)/(s-1); s > 1 since alpha lies in (0, 2), (0, 1) when positive.
    A P past float64's range (s near 1) raises OverflowError.
    """
    alpha = _lepage_alpha(alpha, symmetric)
    s = 2.0 / alpha if symmetric else 1.0 / alpha
    with _quiet():
        p = np.float64(_SERIES_TAIL * (s - 1.0)) ** (-1.0 / (s - 1.0))
    return max(math.ceil(_check_finite(p, "the truncation point P", alpha)), 8)


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


def _lepage_prep(alpha, n_terms, symmetric, least=1):  # (alpha, P), checked
    alpha = _lepage_alpha(alpha, symmetric)
    p = (lepage_auto_terms(alpha, symmetric) if n_terms is None
         else _check_count(n_terms, "n_terms", least))
    _check_budget(p, 10 ** 8, "series terms")
    return alpha, p


def _power_block(alpha, n, ranks, symmetric, gen, rows, scale=None):
    """(rows, 1 + ranks): sums of n terms (s U)**(-1/alpha), U uniform on
    (0, 1] and s the row's scale (1 without one), then the ranks largest.

    Tiles of at most _CHUNK uniforms (_row_groups, then _col_chunks) share one
    buffer per block, mapped in place by the inverse of the tail x**(-alpha)
    and signed in place (_signed) before the row sums; then the ranks largest
    magnitudes (np.abs first when signed) are partitioned out in place.  The
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
            out[rs, 0] += (_signed(gen, mags) if symmetric else mags).sum(axis=1)
            if ranks and symmetric:
                np.abs(mags, out=mags)
            if ranks == 1:
                top = np.maximum(top, mags.max(axis=1, keepdims=True))
            elif ranks:  # the tile's ranks largest, partitioned in place, merged into top
                k = max(0, c1 - c0 - ranks)
                mags.partition(k, axis=1)
                top = np.sort(np.concatenate([top, mags[:, k:]], axis=1), axis=1)[:, -ranks:]
        out[rs, 1:] = np.sort(top, axis=1)[:, ::-1]
    return _check_finite(out, "a sum of powers", alpha)


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
    alpha, p = _lepage_prep(alpha, n_terms, symmetric)
    block = lambda gen, rows: _lepage_block(alpha, p, symmetric, gen, rows)[:, 0]
    return next(_map_blocks([(block, p)], reps, seed, base_stream))


# -- export -------------------------------------------------------------------


def _csv_lines(batch: SampleBatch):
    return ["index,value"] + ["%d,%.17g" % (i, v) for i, v in enumerate(batch.values)]


def write_batch(batch: SampleBatch, path: str,
                config: dict | None = None) -> None:
    """CSV with header index,value plus a JSON sidecar <path>.meta.json.

    The sidecar holds the batch metadata, plus the run configuration under
    "config" when one is given: strict JSON, so a NaN raises ValueError first."""
    meta = batch.metadata()
    if config is not None:
        meta["config"] = config
    text = json.dumps(meta, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(_csv_lines(batch)) + "\n")
    with open(path + ".meta.json", "w", newline="\n") as fh:
        fh.write(text + "\n")
