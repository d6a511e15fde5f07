import hashlib
import math

import numpy as np
import pytest

from semistable import sampling
from semistable.coupling import (_coupled_block, _curve_block, coupled_pair,
                                 coupling_gap_curve, maximal_fluctuation)
from semistable.empirics import ks_two_sample
from semistable.sampling import (ResourceLimitError, RngStream, _map_blocks,
                                 _open01, poisson_sum_batch)
from semistable.tailmodel import make_pareto, make_petersburg


def test_forced_count_gives_zero_gap():
    # a path whose count equals n: both sums stop at the same term
    m = make_pareto(0.5)
    s_hat, s_bar, gap, _ = _coupled_block(m, 500, 0, RngStream(9).generator(),
                                          np.array([500]))[0]
    assert gap == 0.0
    assert s_hat == s_bar


def test_pathwise_identity():
    # the two sums share the first min(n, N) terms: gap is the segment sum
    m = make_pareto(0.5)
    cp = coupled_pair(m, 200, RngStream(17))
    assert cp.gap == pytest.approx(abs(cp.s_hat - cp.s_bar), rel=1e-9)
    assert cp.count >= 0


def test_contract_checks():
    with pytest.raises(ValueError):
        coupled_pair(make_pareto(1.5, x0=1.0), 100, RngStream(1))  # alpha >= 1
    with pytest.raises(ValueError):
        coupled_pair(make_petersburg(), 100, RngStream(1))  # T(x0) = 0.5 != 1


def test_paths_have_a_work_budget():
    m = make_pareto(0.5)
    big = 10 ** 12
    for call in (lambda: coupling_gap_curve(m, [100, big], 10, RngStream(1)),
                 lambda: coupled_pair(m, big, RngStream(1)),
                 lambda: maximal_fluctuation(m, big, RngStream(1))):
        with pytest.raises(ResourceLimitError, match="would need 1(\\.000003)?e\\+12 terms per "
                                                     "path, over the budget of 1000000000$"):
            call()


def test_count_moments():
    m = make_pareto(0.5)
    n = 10 ** 4
    counts = np.array([coupled_pair(m, n, RngStream(23, i)).count
                       for i in range(3000)])
    dev = counts.std(ddof=1)
    assert abs(dev - math.sqrt(n)) <= 0.05 * math.sqrt(n)
    assert abs(counts.mean() - n) <= 5.0


def test_median_gap_small_at_large_n():
    m = make_pareto(0.5)
    gaps = np.array([coupled_pair(m, 10 ** 4, RngStream(29, i)).gap
                     for i in range(1000)])
    # gap order n^(-1/(2 alpha)) = n^-1; generous factor 10
    assert np.median(gaps) <= 10.0 * 1e-4


def test_gap_curve_decreasing():
    m = make_pareto(0.5)
    rep = coupling_gap_curve(m, [100, 1000, 10000], 1000, RngStream(44))
    assert rep.statistic["monotone_fraction"] == 1.0
    meds = [r["median_gap"] for r in rep.statistic["rows"]]
    assert meds[0] > meds[1] > meds[2]
    assert rep.passed
    for row in rep.statistic["rows"]:
        assert row["ks"] <= 0.02
        assert row["median_max_fluctuation"] >= 0.0
    assert rep.to_dict()["pass"] is rep.passed


def test_gap_curve_single_rep_has_no_stderr():
    m = make_pareto(0.5)
    rep = coupling_gap_curve(m, [50, 100], 1, RngStream(3))
    assert rep.stderr is None


def test_gap_curve_threads_invariant():
    m = make_pareto(0.5)
    a = coupling_gap_curve(m, [100, 400], 300, RngStream(8), threads=1)
    b = coupling_gap_curve(m, [100, 400], 300, RngStream(8), threads=4)
    assert a.statistic == b.statistic


def test_randomized_sum_matches_poisson_construction():
    # two code paths, one law: s_bar at cutoff n^(-1/alpha) vs the point-sum
    # with the rescaled intensity n T(n^(1/alpha) x) (= T itself, pure tails)
    m = make_pareto(0.5)
    n = 1000
    reps = 100000
    s_bar = np.empty(reps)
    for i in range(reps):
        cp = coupled_pair(m, n, RngStream(52, i))
        s_bar[i] = cp.s_bar
    sums = poisson_sum_batch(m, float(n) ** -2.0, reps, seed=53)
    assert ks_two_sample(s_bar, sums) <= 0.01


def test_maximal_fluctuation_scale():
    m = make_pareto(0.5)
    vals_small = [maximal_fluctuation(m, 100, RngStream(61, i)) for i in range(200)]
    vals_big = [maximal_fluctuation(m, 10 ** 4, RngStream(62, i)) for i in range(200)]
    assert np.median(vals_big) < np.median(vals_small)
    assert min(vals_big) >= 0.0


def _reference_path_values(model, n, half, gen):
    # one replicate on its own stream: count, then a path of uniforms
    count = int(gen.poisson(n))
    x = (1.0 / _open01(gen, np.empty(max(n, count, n + half)))) ** (1.0 / model.alpha)
    scale = float(n) ** (-1.0 / model.alpha)
    s = np.concatenate(([0.0], np.cumsum(x)))
    window = s[max(0, n - half):n + half + 1]
    return scale * np.array([s[n], s[count], abs(s[n] - s[count]),
                             np.max(np.abs(window - s[n]))])


def test_curve_columns_match_per_replicate_paths():
    m = make_pareto(0.5)  # unit mass, quantile (1/u)^(1/alpha)
    n, half, reps = 100, 30, 2 * 10 ** 4
    ref = np.array([_reference_path_values(m, n, half, RngStream(91, i).generator())
                    for i in range(reps)])
    (vals,) = _map_blocks([(lambda gen, rows: _curve_block(m, n, half, gen, rows),
                            n + half)], reps, 92)
    assert vals.shape == (reps, 4)
    for col in range(4):
        assert ks_two_sample(vals[:, col], ref[:, col]) <= 2.5 * math.sqrt(2.0 / reps)


def test_single_paths_survive_column_chunking(monkeypatch):
    # with a tiny _CHUNK the head sum and the window cumsum span many column
    # chunks; the path is the same, only the summation order moves
    m = make_pareto(0.5)
    cases = [(300, RngStream(93, i)) for i in range(5)]
    before = [(coupled_pair(m, n, r), maximal_fluctuation(m, n, r)) for n, r in cases]
    monkeypatch.setattr(sampling, "_CHUNK", 7)
    after = [(coupled_pair(m, n, r), maximal_fluctuation(m, n, r)) for n, r in cases]
    for (p0, f0), (p1, f1) in zip(before, after):
        assert p1.count == p0.count
        assert p1.s_hat == pytest.approx(p0.s_hat, rel=1e-12)
        assert p1.s_bar == pytest.approx(p0.s_bar, rel=1e-12)
        assert p1.gap == pytest.approx(p0.gap, rel=1e-9, abs=1e-12)
        assert f1 == pytest.approx(f0, rel=1e-9)


def test_coupled_block_sums_its_tiles_in_their_buffer(traced_peak):
    # the window cumsum goes into the tile it sums: with a second buffer for
    # it, a pair at n = 10^4 peaked at 163 KiB (a 256-row curve block's bound
    # is in test_sampling's test_block_kernels_hold_one_chunk)
    _, peak = traced_peak(lambda: coupled_pair(make_pareto(0.5), 10 ** 4, RngStream(3)),
                          warm=True)
    assert peak <= 100 * 1024


# SHA-256 pins recorded before any rewrite of the coupled-sum kernel: one
# path per row must keep these bytes.  The pairs at each n are the first
# streams RngStream(71, i) whose Poisson count falls below n (i = 2) and
# above it (i = 0); 40,000 terms pass _CHUNK, so a lone row spans two tiles
@pytest.mark.parametrize("n, counts, digest", [
    (100, [93, 104], "14ba448c983216843e1d68790e8c1b451467e3021e5846429561581488a5a452"),
    (1000, [978, 1012], "6bfc97e1190c8c2a6dc1e4d4055ca649933389008c27714d5df50aef42cb1f52"),
    (10 ** 4, [9930, 10038], "3c496038f5c15cac9c59bd0f3bcaa0abe6848495a77666317da234aa39b3e9da"),
    (40000, [39861, 40075], "d56f67e62f9a7e70426d9a6a605e519395e752103e947a3d07fa2e4f4502ec8b"),
])
def test_coupled_pairs_keep_their_pinned_digests(n, counts, digest):
    pairs = [coupled_pair(make_pareto(0.5), n, RngStream(71, i)) for i in (2, 0)]
    assert [p.count for p in pairs] == counts
    rows = np.array([[p.s_hat, p.s_bar, p.gap, p.count] for p in pairs])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (100, "bee1c9bcbd0e62b5a4c7b85adaa6ce754cf69536c151721a5537bc6a86546782"),
    (10 ** 4, "1975e04bca67fe830dada72f6e7bb36a57e5b991cd2bc7fec9aea7e2d010c3e3"),
    (40000, "3b078f253502f20a4c9c9c02bb2aec2e6c9d9e3bc3fab0e5e00b002066df0915"),
])
def test_maximal_fluctuations_keep_their_pinned_digests(n, digest):
    vals = np.array([maximal_fluctuation(make_pareto(0.5), n, RngStream(72, i))
                     for i in range(3)])
    assert hashlib.sha256(vals.tobytes()).hexdigest() == digest


def test_coupling_curve_keeps_its_pinned_digest():
    report = coupling_gap_curve(make_pareto(0.5), [100, 1000], 500, RngStream(73))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "bf0a8cdac708983c422dda7a5c081136095c661227436917945496d995c1494e")
