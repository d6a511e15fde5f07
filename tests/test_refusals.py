"""Every public refusal of a bad argument: each integer count goes through
_arrays._check_count, which returns the int or raises ValueError "<name>
must be an integer >= L and <= M, got V" before anything is drawn; each
real parameter goes through _arrays._check_real, which returns the float or
raises ValueError "<name> must lie in <interval>, got V"; the checks that
relate two parameters raise ValueError with their own messages."""

import functools
import json
import math
import re

import numpy as np
import pytest

from semistable import (Ecdf, ExperimentReport, RngStream, SampleBatch, TailModel,
                        cauchy_law, cdf_from_cf, cli, convolution_power, coupled_pair,
                        coupling_gap_curve, erlang_cdf, feller_experiment, g_exponent,
                        g_gamma_exponent, g_gamma_law, gamma_n, gaussian_criterion_ratio,
                        gaussian_law, intensity_quantile, intensity_tail, lepage_auto_terms,
                        lepage_batch, poisson_sum_centering,
                        lepage_limit_experiment, levy_distance, make_pareto,
                        make_petersburg, martin_lof_experiment, maximal_fluctuation,
                        merging_experiment, merging_sweep, model_from_json,
                        negligibility_experiment, one_sided_stable_exponent,
                        order_statistics_experiment, petersburg_from_uniform,
                        petersburg_sum_batch, points_from_arrivals, poisson_sum_batch,
                        sample_lepage, sample_petersburg, sample_poisson_points,
                        sample_tail_model, sampling, tabulate_cdf, tail_eval,
                        tail_first_moment, tail_quantile)

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


# -- the real parameters ------------------------------------------------------

# id: (call of the real v, its name, its interval, a valid value)
REALS = {
    "g_exponent-tol": (lambda v: g_exponent(1.0, tol=v), "tol", "(0, inf)", 1e-8),
    "g_exponent-max_jump": (lambda v: g_exponent(1.0, max_jump=v), "max_jump", "(0, inf]", 8.0),
    "g_gamma_exponent-gamma": (lambda v: g_gamma_exponent(1.0, v), "gamma", "[1, 2]", 2.0),
    "g_gamma_exponent-max_jump": (lambda v: g_gamma_exponent(1.0, 1.5, v), "max_jump", "(0, inf]",
                                  8.0),
    "g_gamma_law-gamma": (g_gamma_law, "gamma", "[1, 2]", 1.0),
    "cauchy_law-scale": (cauchy_law, "scale", "(0, inf)", 2.0),
    "stable-alpha": (one_sided_stable_exponent, "alpha", "(0, 1)", 0.5),
    "stable-c": (lambda v: one_sided_stable_exponent(0.5, v), "c", "(0, inf)", 2.0),
    "convolution_power-k": (lambda v: convolution_power(gaussian_law(), v), "k", "(0, inf)", 3.0),
    "cdf_from_cf-tol": (lambda v: cdf_from_cf(cauchy_law(), 0.5, tol=v), "tol", "[1e-10, inf)",
                        1e-10),
    "tabulate_cdf-x_lo": (lambda v: tabulate_cdf(cauchy_law(), v, 1.0), "x_lo", "(-inf, inf)",
                          -1.0),
    "tabulate_cdf-x_hi": (lambda v: tabulate_cdf(cauchy_law(), -1.0, v), "x_hi", "(-1, inf)",
                          1.0),
    "TailModel-alpha": (lambda v: TailModel(alpha=v, q=2, c=1.0, x0=1.0), "alpha", "(0, inf)",
                        0.5),
    "TailModel-c": (lambda v: TailModel(alpha=0.5, q=2, c=v, x0=1.0), "c", "(0, inf)", 2.0),
    "TailModel-x0": (lambda v: TailModel(alpha=0.5, q=2, c=1.0, x0=v), "x0", "[0, inf)", 0.0),
    "make_pareto-alpha": (make_pareto, "alpha", "(0, inf)", 0.5),
    "make_pareto-c": (lambda v: make_pareto(0.5, c=v), "c", "(0, inf)", 2.0),
    "tail_first_moment-lo": (lambda v: tail_first_moment(make_pareto(1.5), v), "lo",
                             "(0, inf)", 2.0),
    "tail_first_moment-hi": (lambda v: tail_first_moment(make_pareto(1.5), 2.0, v), "hi",
                             "(2, inf)", 3.0),
    "gaussian_criterion_ratio-x": (lambda v: gaussian_criterion_ratio(make_pareto(1.5), v), "x",
                                   "(1, inf)", 10.0),
    "tail_quantile-u": (lambda v: tail_quantile(make_petersburg(), v), "u", "(0, 0.5]", 0.5),
    "intensity_quantile-u": (lambda v: intensity_quantile(PARETO, v), "u", "(0, inf)", 2.0),
    "points_from_arrivals-u": (lambda v: points_from_arrivals(PARETO, v), "u", "(0, inf)", 2.0),
    "petersburg_from_uniform-u": (petersburg_from_uniform, "u", "(0, 1]", 1.0),
    "poisson_sum_batch-cutoff": (lambda v: poisson_sum_batch(PARETO, v, 3, seed=1), "cutoff",
                                 "(0, inf)", 1.0),
    "sample_poisson_points-cutoff": (lambda v: sample_poisson_points(PARETO, v, R), "cutoff",
                                     "(0, inf)", 1.0),
    "intensity_tail-x": (lambda v: intensity_tail(make_pareto(1.5), v), "x", "(0, inf]", 2.0),
    "poisson_sum_centering-cutoff": (lambda v: poisson_sum_centering(make_pareto(1.0), v),
                                     "cutoff", "(0, inf)", 2.0),
    "lepage_auto_terms-alpha": (lambda v: lepage_auto_terms(v, True), "alpha", "(0, 2)", 1.5),
    "lepage_batch-alpha": (lambda v: lepage_batch(v, 3, 1, symmetric=True, n_terms=10),
                           "alpha", "(0, 2)", 1.5),
    "lepage_limit-alpha": (lambda v: lepage_limit_experiment(v, 4, 20, R, symmetric=True,
                                                             n_terms=10), "alpha", "(0, 2)", 1.5),
    # the positive mode's one rule, alpha < 1, wherever it is reached
    "lepage_auto_terms-positive-alpha": (lambda v: lepage_auto_terms(v, False), "alpha",
                                         "(0, 1)", 0.5),
    "lepage_batch-positive-alpha": (lambda v: lepage_batch(v, 3, 1, n_terms=10), "alpha",
                                    "(0, 1)", 0.5),
    "sample_lepage-positive-alpha": (lambda v: sample_lepage(v, R, n_terms=10), "alpha",
                                     "(0, 1)", 0.5),
    "lepage_limit-positive-alpha": (lambda v: lepage_limit_experiment(v, 4, 20, R, n_terms=10),
                                    "alpha", "(0, 1)", 0.5),
    "levy_distance-grid_step": (lambda v: levy_distance(Ecdf.from_sample([0.5]), np.tanh, v),
                                "grid_step", "(0, inf)", 0.1),
    "ExperimentReport-stderr": (lambda v: ExperimentReport("x", {}, 0.0, v, 1, 0.1, True),
                                "stderr", "[0, inf)", 0.0),
    "negligibility-alpha": (lambda v: negligibility_experiment([0.5, v], 10 ** 3, 2, R),
                            "each alpha in alpha_list", "(0, inf)", 2.5),
    "merging-tolerance": (lambda v: merging_experiment(16, 10 ** 4, R, tolerance=v),
                          "tolerance", "[0, inf)", 0.0),
    "mlof-tolerance": (lambda v: martin_lof_experiment(4, 10 ** 4, R, tolerance=v),
                       "tolerance", "[0, inf)", 0.0),
    "sweep-tol_max": (lambda v: merging_sweep(8, 1, 200, R, tol_max=v), "tol_max", "[0, inf)",
                      0.0),
    "sweep-tol_two_sample": (lambda v: merging_sweep(8, 1, 200, R, tol_two_sample=v),
                             "tol_two_sample", "[0, inf)", 0.0),
    "orderstats-ks_tolerance": (lambda v: order_statistics_experiment(1, 10, 100, R,
                                                                      ks_tolerance=v),
                                "ks_tolerance", "[0, inf)", 0.0),
    "lepage_limit-tolerance": (lambda v: lepage_limit_experiment(0.5, 4, 20, R, n_terms=10,
                                                                 tolerance=v),
                               "tolerance", "[0, inf)", 0.0),
}


def _digits(v):
    """A float as the refusals print it: its shortest repr, 2 for 2.0."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _bad_reals(interval):
    """(id, value) for NaN, each infinity outside the interval, the nearest
    float past each finite bound (the bound itself at an open end) and a
    numeric string."""
    lo, hi = (float(b) for b in interval[1:-1].split(", "))
    bad = [("nan", math.nan)] + [
        (name, v) for name, v, inside in (("inf", math.inf, interval[-1] == "]"),
                                          ("-inf", -math.inf, lo == -math.inf))
        if not inside]
    if math.isfinite(lo):
        bad.append(("below", lo if interval[0] == "(" else np.nextafter(lo, -math.inf)))
    if math.isfinite(hi):
        bad.append(("above", hi if interval[-1] == ")" else np.nextafter(hi, math.inf)))
    return bad + [("string", "2")]


def _refusal(name, interval, value):
    shown = (repr(value) if isinstance(value, str) else _digits(value) if np.ndim(value) == 0
             else "an array of shape %s" % (np.shape(value),))
    return "^%s$" % re.escape("%s must lie in %s, got %s" % (name, interval, shown))


GRID_ZERO = (1.0,) * 63 + (0.0,)

# id: (call, the ValueError's message as a regex); the checks that relate
# two parameters, the ones on other kinds of argument, and each case that
# passed or failed otherwise before the real check
ARGUMENTS = [
    ("unit-mass", lambda: coupled_pair(make_pareto(0.5, x0=2.0), 10, R), "unit total mass"),
    # "x must lie in (0, inf], got 0" before, naming an argument never passed
    ("unit-mass-x0-zero", lambda: coupled_pair(make_pareto(0.5, x0=0.0), 10, R),
     "unit total mass"),
    ("x0-not-finite", lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=math.inf),
     _refusal("x0", "[0, inf)", math.inf)),
    ("psi-kind", lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="sine"),
     "unknown psi kind"),
    ("psi-not-positive", lambda: TailModel(alpha=0.5, q=2, c=1.0, x0=1.0, psi_kind="grid",
                                           psi_values=GRID_ZERO),
     _refusal("psi", "(0, inf)", 0.0)),
    ("quantile-x0-zero", lambda: tail_quantile(make_pareto(0.5, x0=0.0), 0.5), "needs x0 > 0"),
    ("moment-lo", lambda: tail_first_moment(make_pareto(1.5), 0.0),
     _refusal("lo", "(0, inf)", 0.0)),
    ("moment-no-hi", lambda: tail_first_moment(make_pareto(0.5), 1.0, None),
     "infinite for alpha <= 1"),
    ("poisson-alpha", lambda: poisson_sum_batch(make_pareto(2.5), 1e-2, 3, seed=1),
     _refusal("alpha", "(0, 2)", 2.5)),
    ("poisson-alpha-2", lambda: poisson_sum_batch(make_pareto(2.0), 1e-2, 3, seed=1),
     _refusal("alpha", "(0, 2)", 2.0)),
    # "positive mode needs alpha < 1" here, "series tail does not truncate
    # in this mode" from lepage_auto_terms, for the one rule
    ("lepage-positive-mode", lambda: lepage_batch(1.5, 3, 1, n_terms=10),
     _refusal("alpha", "(0, 1)", 1.5)),
    ("lepage-terms-positive-mode", lambda: lepage_auto_terms(1.5, False),
     _refusal("alpha", "(0, 1)", 1.5)),
    ("max-jump", lambda: g_exponent(1.0, max_jump=0), _refusal("max_jump", "(0, inf]", 0.0)),
    ("gamma-range", lambda: g_gamma_law(2.5), _refusal("gamma", "[1, 2]", 2.5)),
    # a bare JSONDecodeError ("Expecting value: ...") named no document before
    ("model-not-json", lambda: model_from_json("petersburg"),
     re.escape("malformed model document (JSONDecodeError: Expecting value")),
    # each of these raised ZeroDivisionError, raised TypeError, returned a
    # value or named no interval before
    ("lepage-terms-alpha-0", lambda: lepage_auto_terms(0.0, True),
     _refusal("alpha", "(0, 2)", 0.0)),
    ("cauchy-string", lambda: cauchy_law("2"), _refusal("scale", "(0, inf)", "2")),
    ("moment-empty-interval", lambda: tail_first_moment(make_pareto(1.5), 2.0, 1.0),  # -0.8787
     _refusal("hi", "(2, inf)", 1.0)),
    ("pareto-c-inf", lambda: make_pareto(0.5, c=math.inf), _refusal("c", "(0, inf)", math.inf)),
    ("uniform-nan", lambda: petersburg_from_uniform(math.nan), _refusal("u", "(0, 1]", math.nan)),
    ("uniform-0", lambda: petersburg_from_uniform(0.0), _refusal("u", "(0, 1]", 0.0)),  # 4.0
    ("uniform-2", lambda: petersburg_from_uniform(2.0), _refusal("u", "(0, 1]", 2.0)),  # 1.0
    ("uniform-array", lambda: petersburg_from_uniform(np.array([0.5, 2.0, math.nan])),
     _refusal("u", "(0, 1]", 2.0)),
    ("game-quantile-inf", lambda: intensity_quantile(make_petersburg(1.0), math.inf),  # 2.0
     _refusal("u", "(0, inf)", math.inf)),
    ("arrivals-inf", lambda: points_from_arrivals(make_pareto(0.5), [1.0, math.inf]),  # 0.0
     _refusal("u", "(0, inf)", math.inf)),
    # an array passed to a scalar parameter raised a broadcast error, a
    # TypeError or "truth value ... is ambiguous", which named nothing
    ("cauchy-array", lambda: cdf_from_cf(cauchy_law(np.array([1.0, 2.0])), 0.5),
     _refusal("scale", "(0, inf)", np.zeros(2))),
    ("cdf-tol-array", lambda: cdf_from_cf(cauchy_law(), 0.5, tol=np.array([1e-8, 1e-6])),
     _refusal("tol", "[1e-10, inf)", np.zeros(2))),
    ("gamma-array", lambda: g_gamma_law(np.array([1.0, 1.5])).fn(np.array([1.0])),
     _refusal("gamma", "[1, 2]", np.zeros(2))),
    ("pareto-array", lambda: make_pareto(np.array([0.5, 0.7])),
     _refusal("alpha", "(0, inf)", np.zeros(2))),
    # a law's exponent at NaN: the stable law cast NaN to an int and raised
    # IndexError, the Cauchy and normal laws returned NaN
    ("stable-t-nan", lambda: one_sided_stable_exponent(0.5)(np.array([math.nan])),
     _refusal("t", "(-inf, inf)", math.nan)),
    ("cauchy-t-nan", lambda: cauchy_law()(np.array([math.nan])),
     _refusal("t", "(-inf, inf)", math.nan)),
    ("gaussian-t-nan", lambda: gaussian_law()(np.array([0.5, math.nan])),
     _refusal("t", "(-inf, inf)", math.nan)),
    # numpy's "inhomogeneous shape" ValueError named no parameter
    ("cauchy-ragged", lambda: cauchy_law([[1.0], [1.0, 2.0]]),
     "^%s$" % re.escape("scale must lie in (0, inf), got a ragged sequence")),
    ("tail-eval-ragged", lambda: tail_eval(make_pareto(0.5), [[1.0], [1.0, 2.0]]),
     "^%s$" % re.escape("x must lie in [1, inf], got a ragged sequence")),
    # returned 0.354, said "tail formula needs x > 0", named the cutoff lo
    # and hi, or returned 0.0
    ("intensity-tail-string", lambda: intensity_tail(make_pareto(1.5), "2"),
     _refusal("x", "(0, inf]", "2")),
    ("intensity-tail-nan", lambda: intensity_tail(make_pareto(1.5), math.nan),
     _refusal("x", "(0, inf]", math.nan)),
    ("centering-nan", lambda: poisson_sum_centering(make_pareto(1.5), math.nan),
     _refusal("cutoff", "(0, inf)", math.nan)),
    ("centering-inf", lambda: poisson_sum_centering(make_pareto(1.0), math.inf),
     _refusal("cutoff", "(0, inf)", math.inf)),
    ("centering-uncentered-nan", lambda: poisson_sum_centering(make_pareto(0.5), math.nan),
     _refusal("cutoff", "(0, inf)", math.nan)),
] + [("%s-%s" % (row, case), functools.partial(REALS[row][0], v),
      _refusal(REALS[row][1], REALS[row][2], v))
     for row in REALS for case, v in _bad_reals(REALS[row][2])]


@pytest.mark.parametrize("call, message", [a[1:] for a in ARGUMENTS],
                         ids=[a[0] for a in ARGUMENTS])
def test_argument_refusals(call, message, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("drew before the argument check")

    monkeypatch.setattr(sampling.RngStream, "generator", started)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("law", [one_sided_stable_exponent(0.5), cauchy_law(2.0), gaussian_law()],
                         ids=["stable", "cauchy", "gaussian"])
def test_laws_keep_their_bytes_at_finite_t(law):
    # the t check at the call passes finite t on as they are
    t = np.concatenate([-np.geomspace(1e-300, 1e150, 61), [0.0, -0.0],
                        np.geomspace(1e-300, 1e3, 61)])
    assert law(t).tobytes() == law.fn(t).tobytes()
    assert law(list(t[:3])).tobytes() == law.fn(t[:3]).tobytes()


@pytest.mark.parametrize("row", REALS, ids=list(REALS))
def test_every_real_takes_its_valid_values(row):
    # the bounds a closed end holds are valid, and a numpy float or an int is
    # the same real as the float
    call, _, _, ok = REALS[row]
    call(ok)
    call(np.float64(ok))
    if float(ok).is_integer():
        call(int(ok))


# the elementwise arguments among REALS; every other real is a scalar
ELEMENTWISE = {"tail_quantile-u", "intensity_quantile-u", "points_from_arrivals-u",
               "petersburg_from_uniform-u", "intensity_tail-x"}


@pytest.mark.parametrize("row", REALS, ids=list(REALS))
def test_scalars_refuse_arrays_by_name(row):
    # a 0-d array is a scalar; an array of two went on to fail or run
    # elsewhere; the elementwise arguments take it
    call, name, interval, ok = REALS[row]
    call(np.array(ok))
    if row in ELEMENTWISE:
        call(np.array([ok, ok]))
        return
    for value in (np.array([ok, ok]), [ok], np.full((1, 1), ok)):
        with pytest.raises(ValueError, match=_refusal(name, interval, np.asarray(value))):
            call(value)


def test_a_real_comes_back_as_a_float():
    # an int, a numpy integer or a numpy float is stored as the float
    m = TailModel(alpha=1, q=2, c=np.float32(2.0), x0=np.int64(1))
    assert [type(v) for v in (m.alpha, m.c, m.x0)] == [float] * 3
    assert make_pareto(0.5, x0=0) == make_pareto(0.5, x0=0.0)
    with pytest.raises(ValueError, match=re.escape("scale must lie in (0, inf), got inf")):
        cauchy_law(10 ** 400)  # past float64, shown as inf


def test_cli_lepage_positive_mode_exit_2(capsys):
    # the experiment said "positive mode needs alpha < 1"
    assert cli.main(["lepage", "--alpha", "1.5", "--reps", "10"]) == 2
    assert capsys.readouterr().err == "parameter error: alpha must lie in (0, 1), got 1.5\n"


@pytest.mark.parametrize("grid, message", [
    ("nan:1:0.1", "grid lo must lie in (-inf, inf), got nan"),
    ("0:inf:0.1", "grid hi must lie in [0, inf), got inf"),
    ("5:1:0.1", "grid hi must lie in [5, inf), got 1"),
    ("0:1:0", "grid step must lie in (0, inf), got 0"),
    ("0:1:-0.1", "grid step must lie in (0, inf), got -0.1"),
    ("0:1:nan", "grid step must lie in (0, inf), got nan"),
], ids=["lo-nan", "hi-inf", "hi-below-lo", "step-0", "step-negative", "step-nan"])
def test_cli_grid_refusals(grid, message, capsys):
    # each said "grid bounds and step must be finite" or "grid needs hi >= lo
    # and step > 0", which named neither the bound nor the value
    assert cli.main(["cdf", "--law", "cauchy", "--grid", grid]) == 2
    assert capsys.readouterr().err == "parameter error: %s\n" % message
