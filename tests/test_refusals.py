"""Every public refusal of a bad argument: each integer count goes through
_arrays._check_count, which returns the int or raises ValueError "<name>
must be an integer >= L and <= M, got V" before anything is drawn; the
other argument checks raise ValueError with their own messages."""

import json
import math
import re

import numpy as np
import pytest

from semistable import (ExperimentReport, RngStream, SampleBatch, TailModel,
                        cli, coupled_pair, coupling_gap_curve, erlang_cdf,
                        feller_experiment, g_exponent, g_gamma_law, gamma_n,
                        lepage_batch, lepage_limit_experiment, make_pareto,
                        martin_lof_experiment, maximal_fluctuation, merging_experiment,
                        merging_sweep, negligibility_experiment,
                        order_statistics_experiment, petersburg_sum_batch,
                        poisson_sum_batch, sample_lepage, sample_petersburg,
                        sample_tail_model, sampling, tail_first_moment, tail_quantile)

PARETO = make_pareto(0.5)
R = RngStream(1)
INT64 = 2 ** 63 - 1  # the int64 level counts of the St. Petersburg sums

# id: (call of the count v, its name, least, most, a valid count)
COUNTS = {
    "RngStream-seed": (lambda v: (RngStream(v), RngStream(v).generator().random()),
                       "seed", None, None, 3),
    "RngStream-stream_id": (lambda v: (RngStream(1, v), RngStream(1, v).generator().random()),
                            "stream_id", None, None, 3),
    "petersburg_sum_batch-n": (lambda v: petersburg_sum_batch(v, 3, seed=1), "n", 1, INT64, 5),
    "petersburg_sum_batch-reps": (lambda v: petersburg_sum_batch(16, v, seed=1),
                                  "reps", 1, None, 3),
    "poisson_sum_batch-reps": (lambda v: poisson_sum_batch(PARETO, 1e-2, v, seed=1),
                               "reps", 1, None, 3),
    "lepage_batch-reps": (lambda v: lepage_batch(0.5, v, 1, n_terms=10), "reps", 1, None, 3),
    "lepage_batch-n_terms": (lambda v: lepage_batch(0.5, 3, 1, n_terms=v),
                             "n_terms", 1, None, 10),
    "sample_lepage-n_terms": (lambda v: sample_lepage(0.5, R, n_terms=v), "n_terms", 1, None, 10),
    "sample_petersburg-n": (lambda v: sample_petersburg(v, R), "n", 1, None, 8),
    "sample_tail_model-n": (lambda v: sample_tail_model(PARETO, v, R), "n", 1, None, 8),
    "gamma_n-n": (gamma_n, "n", 1, None, 1536),
    "feller-n": (lambda v: feller_experiment(v, 100, R), "n", 2, INT64, 16),
    "feller-reps": (lambda v: feller_experiment(16, v, R), "reps", 100, None, 100),
    "mlof-k": (lambda v: martin_lof_experiment(v, 10 ** 4, R), "k", 4, 20, 4),
    "mlof-reps": (lambda v: martin_lof_experiment(4, v, R), "reps", 10 ** 4, None, 10 ** 4),
    "merging-n": (lambda v: merging_experiment(v, 10 ** 4, R), "n", 16, INT64, 24),
    "merging-reps": (lambda v: merging_experiment(16, v, R), "reps", 10 ** 4, None, 10 ** 4),
    "sweep-k": (lambda v: merging_sweep(v, 1, 200, R), "k", 8, 61, 8),
    "sweep-points_per_octave": (lambda v: merging_sweep(8, v, 200, R),
                                "points_per_octave", 1, None, 1),
    "sweep-reps": (lambda v: merging_sweep(8, 1, v, R), "reps", 1, None, 200),
    "orderstats-p": (lambda v: order_statistics_experiment(v, 10, 100, R), "p", 1, 10, 2),
    "orderstats-n": (lambda v: order_statistics_experiment(1, v, 100, R),
                     "n", 1, 1 << 53, 10),
    "orderstats-reps": (lambda v: order_statistics_experiment(1, 10, v, R),
                        "reps", 100, None, 100),
    "negligibility-n": (lambda v: negligibility_experiment([0.5], v, 2, R),
                        "n", 10 ** 3, None, 10 ** 3),
    "negligibility-reps": (lambda v: negligibility_experiment([0.5], 10 ** 3, v, R),
                           "reps", 1, None, 2),
    "lepage_limit-k": (lambda v: lepage_limit_experiment(0.5, v, 20, R, n_terms=10),
                       "k", 4, 24, 4),
    "lepage_limit-reps": (lambda v: lepage_limit_experiment(0.5, 4, v, R, n_terms=10),
                          "reps", 1, None, 20),
    "lepage_limit-n_terms": (lambda v: lepage_limit_experiment(0.5, 4, 20, R, n_terms=v),
                             "n_terms", 3, None, 10),
    "coupled_pair-n": (lambda v: coupled_pair(PARETO, v, R), "n", 1, None, 10),
    "maximal_fluctuation-n": (lambda v: maximal_fluctuation(PARETO, v, R), "n", 1, None, 10),
    "coupling-n_list": (lambda v: coupling_gap_curve(PARETO, [v], 20, R),
                        "each n in n_list", 10, None, 10),
    "coupling-reps": (lambda v: coupling_gap_curve(PARETO, [10], v, R), "reps", 1, None, 20),
    "erlang_cdf-p": (lambda v: erlang_cdf(v, 1.5), "p", 1, None, 3),
    "TailModel-q": (lambda v: TailModel(alpha=0.5, q=v, c=1.0, x0=1.0), "q", 2, None, 3),
}


def _bad_values(least, most):
    """(value, how the refusal prints it) for each kind of non-count."""
    bad = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (2.5, "2.5"),
           ("3", "'3'")]
    if least is not None:
        bad.append((least - 1, str(least - 1)))
    if most is not None:  # past 17 digits as _check_budget prints a need
        bad.append((most + 1, str(most + 1) if most + 1 < 10 ** 17 else "%.17g" % (most + 1)))
    return bad


@pytest.mark.parametrize("row", COUNTS, ids=list(COUNTS))
def test_every_count_refuses_by_name(row, monkeypatch):
    call, name, least, most, _ = COUNTS[row]

    def started(*args, **kwargs):
        raise AssertionError("drew before the count check")

    monkeypatch.setattr(sampling.RngStream, "generator", started)
    rule = ("" if least is None else " >= %d" % least) + (
        "" if most is None else " and <= %d" % most)
    for value, shown in _bad_values(least, most):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == "%s must be an integer%s, got %s" % (name, rule, shown)


def _output(out):
    """A call's output as text, exact to the bit."""
    if isinstance(out, ExperimentReport):
        return out.to_json()
    if isinstance(out, SampleBatch):
        return out.values.tobytes().hex() + json.dumps(out.metadata())
    if isinstance(out, np.ndarray):
        return out.tobytes().hex()
    return repr(out)  # a float, a CoupledPair, a TailModel or a (stream, draw) pair


@pytest.mark.parametrize("row", COUNTS, ids=list(COUNTS))
def test_integral_counts_give_the_int_output(row):
    # an integral float or a numpy integer is the same count as the int: the
    # same draws, and the int in every report, batch and model
    call, _, _, _, ok = COUNTS[row]
    want = _output(call(ok))
    assert _output(call(float(ok))) == want
    assert _output(call(np.int64(ok))) == want


@pytest.mark.parametrize("call, name", [
    # each ran, returned a value or failed elsewhere before the one check
    (lambda: coupling_gap_curve(PARETO, [100.7], 20, R), "each n in n_list"),  # ran at 100
    (lambda: lepage_batch(0.5, 3, 1, n_terms=2.5), "n_terms"),  # summed 2 terms
    (lambda: RngStream(1.5), "seed"),  # the stream of RngStream(1)
    (lambda: order_statistics_experiment(2, 10.5, 100, R), "n"),  # a mean of 0.177
    (lambda: gamma_n(math.nan), "n"),  # nan
    (lambda: merging_experiment(1024, math.nan, R), "reps"),  # "got n = 1024"
    (lambda: sample_tail_model(PARETO, math.nan, R), "n"),  # "would need nan draws"
    (lambda: sample_petersburg(2.5, R), "n"),  # a numpy TypeError from deep inside
    (lambda: coupled_pair(PARETO, 10.5, R), "n"),  # likewise
    (lambda: feller_experiment(1024, 150.5, R), "reps"),  # likewise
    (lambda: martin_lof_experiment(5.5, 10 ** 4, R), "k"),  # likewise
], ids=["curve-n", "lepage-n_terms", "stream-seed", "orderstats-n", "gamma_n", "merging-reps",
        "tail-model-n", "petersburg-n", "pair-n", "feller-reps", "mlof-k"])
def test_motivating_counts(call, name):
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        call()


def test_an_rng_stream_keeps_its_integers():
    s = RngStream(1.0, np.int64(2))
    assert type(s.seed) is int and type(s.stream_id) is int
    # any integer, keyed mod 2^64
    assert RngStream(-1).generator().random() == RngStream(2 ** 64 - 1).generator().random()


def test_a_long_count_is_not_echoed():
    with pytest.raises(ValueError) as err:
        order_statistics_experiment(3, 10 ** 400, 100, R)
    assert str(err.value) == "n must be an integer >= 1 and <= 9007199254740992, got inf"
    with pytest.raises(ValueError, match="got 9007199254740993$"):
        order_statistics_experiment(3, 2 ** 53 + 1, 100, R)


@pytest.mark.parametrize("call, name, rule, shown", [
    # each raised OverflowError ("int too large to convert to float", or
    # "Python int too large to convert to C long" from the int64 level
    # counts), which names no parameter
    (lambda: merging_experiment(2 ** 1100, 10 ** 4, R), "n", ">= 16 and <= %d" % INT64, "inf"),
    (lambda: merging_sweep(1100, 1, 10, R), "k", ">= 8 and <= 61", "1100"),
    (lambda: feller_experiment(2 ** 63, 100, R), "n", ">= 2 and <= %d" % INT64,
     "9.2233720368547758e+18"),
    (lambda: petersburg_sum_batch(2 ** 63, 3, seed=1), "n", ">= 1 and <= %d" % INT64,
     "9.2233720368547758e+18"),
], ids=["merging-n", "sweep-k", "feller-n", "petersburg_sum_batch-n"])
def test_counts_past_int64_refuse_by_name(call, name, rule, shown, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("drew before the count check")

    monkeypatch.setattr(sampling.RngStream, "generator", started)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == "%s must be an integer %s, got %s" % (name, rule, shown)


def test_the_largest_counts_still_run():
    # 2^62 draws a sum fine; k = 61 puts the octave's top n at 2^62
    assert np.all(petersburg_sum_batch(INT64, 3, seed=1) > 0.0)
    assert feller_experiment(2 ** 62, 100, R).params["n"] == 2 ** 62


def test_gamma_n_reads_any_count():
    # gamma_n(2**1100) raised OverflowError from float(n); the position is
    # now one rounding of n / 2^floor(log2 n), which any int has
    assert gamma_n(2 ** 1100) == 1.0 and gamma_n(3 * 2 ** 1099) == 1.5
    assert gamma_n(5 * 2 ** 2000 + 1) == 1.25
    # a position that rounds to 2 is 1, the same law, as frexp gave it
    for n in (2 ** 60 - 1, 2 ** 1024 - 1, 2 ** 1100 - 1):
        assert gamma_n(n) == 1.0
    for n in (1, 3, 1536, 2 ** 53 - 1, 2 ** 53 + 2, 10 ** 300 + 7):
        assert gamma_n(n) == 2.0 * math.frexp(n)[0]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--k", "1100"], "k must be an integer >= 8 and <= 61, got 1100"),
    (["feller", "--n", str(2 ** 63), "--reps", "100"],
     "n must be an integer >= 2 and <= %d, got 9.2233720368547758e+18" % INT64),
    (["merging", "--n", str(2 ** 1100)], "n must be an integer >= 16 and <= %d, got inf" % INT64),
], ids=["sweep-k", "feller-n", "merging-n"])
def test_cli_counts_past_int64_exit_2(argv, message, capsys):
    # semistable sweep --k 1100 exited 4 with "numeric failure: int too
    # large to convert to float"
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "parameter error: %s\n" % message


@pytest.mark.parametrize("spec, shown", [("3.5", "3.5"), ("nan", "nan"), ("0", "0")])
def test_cli_n_terms_is_a_count(spec, shown, capsys):
    # --n-terms 3.5 exited 2 with int()'s message, which names no option
    assert cli.main(["lepage", "--n-terms", spec, "--reps", "10"]) == 2
    assert ("parameter error: n_terms must be an integer >= 3, got %s\n" % shown
            == capsys.readouterr().err)


def test_cli_n_terms_takes_an_integral_float(capsys):
    assert cli.main(["lepage", "--k", "4", "--n-terms", "1e2", "--reps", "50"]) in (0, 3)
    via_float = json.loads(capsys.readouterr().out)
    assert cli.main(["lepage", "--k", "4", "--n-terms", "100", "--reps", "50"]) in (0, 3)
    via_int = json.loads(capsys.readouterr().out)
    assert via_float["statistic"] == via_int["statistic"]
    assert type(via_float["params"]["n_terms"]) is int and via_float["params"]["n_terms"] == 100


# -- the other argument checks ---------------------------------------------------

GRID_ZERO = (1.0,) * 63 + (0.0,)


@pytest.mark.parametrize("call, message", [
    (lambda: coupled_pair(make_pareto(0.5, x0=2.0), 10, R), "unit total mass"),
    (lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=math.inf), "x0 must be finite and >= 0"),
    (lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="sine"), "unknown psi kind"),
    (lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="grid", psi_values=GRID_ZERO),
     "psi must be finite and strictly positive"),
    (lambda: tail_quantile(make_pareto(0.5, x0=0.0), 0.5), "needs x0 > 0"),
    (lambda: tail_first_moment(make_pareto(1.5), 0.0), "lo must be positive"),
    (lambda: tail_first_moment(make_pareto(0.5), 1.0, None), "infinite for alpha <= 1"),
    (lambda: poisson_sum_batch(make_pareto(2.5), 1e-2, 3, seed=1), "alpha in \\(0, 2\\)"),
    (lambda: g_exponent(1.0, max_jump=0), "max_jump must be positive"),
    (lambda: g_gamma_law(2.5), re.escape("gamma must lie in [1, 2]")),
], ids=["unit-mass", "x0-not-finite", "psi-kind", "psi-not-positive", "quantile-x0-zero",
        "moment-lo", "moment-no-hi", "poisson-alpha", "max-jump", "gamma-range"])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()

