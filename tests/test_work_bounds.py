"""Every work bound of the package refuses the same way: a ResourceLimitError
raised before any draw or quadrature, reading "would need N <work>, over the
budget of B" with N and B printed apart."""

import re

import numpy as np
import pytest

from semistable import (CfExponent, ResourceLimitError, RngStream, cauchy_law, cdf_from_cf,
                        charfn, cli, g_gamma_law, gaussian_law, lepage_batch,
                        make_pareto, make_petersburg, maximal_fluctuation,
                        poisson_sum_batch, sample_petersburg, sample_poisson_points,
                        sampling, tabulate_cdf)

PARETO = make_pareto(0.5)


@pytest.mark.parametrize("call, need, what, budget", [
    # charfn: a node set priced at its group's b before any slope probe ...
    (lambda: cdf_from_cf(cauchy_law(), 1e300),
     "5.457148525e+301", "quadrature nodes", "4194304"),
    # ... and again at b plus the probed phase slope, after planning
    (lambda: cdf_from_cf(CfExponent(fn=lambda t: -0.5 * t * t + 1e6j * t), 0.0),
     "39726103", "quadrature nodes", "4194304"),
    (lambda: cdf_from_cf(g_gamma_law(1.5), [0.0, 1.7e308]),
     "6.375e+307", "lattice points", "1048576"),
    (lambda: cdf_from_cf(gaussian_law(), np.zeros(2 * 10 ** 6)),
     "878000000", "point x node products", "536870912"),
    (lambda: tabulate_cdf(cauchy_law(), -1e300, 0.0),
     "1.6e+301", "table points", "1048576"),
    # sampling: 10^5 LePage sums of 10^6 auto terms in one phase
    (lambda: lepage_batch(0.5, 10 ** 5, seed=1),
     "1e+11", "draws in one phase", "4294967296"),
    (lambda: sample_petersburg(2 ** 26 + 1, RngStream(1)),
     "67108865", "draws held in memory", "67108864"),
    # the three point-rate bounds: drawn points, a point set in memory, and
    # the largest mean numpy's Poisson draws take (2^63 agrees with it to 7
    # digits)
    (lambda: poisson_sum_batch(PARETO, 1e-20, 10, seed=1),
     "1e+10", "expected points", "1000000000"),
    (lambda: sample_poisson_points(PARETO, 1e-16, RngStream(1)),
     "100000000", "expected points held in memory", "67108864"),
    (lambda: poisson_sum_batch(make_petersburg(1.0), 2.0 ** -63, 10, seed=1),
     "9.223372037e+18", "expected points in numpy's Poisson draws", "9.223372006e+18"),
    (lambda: lepage_batch(0.5, 1, 1, n_terms=2 * 10 ** 8),
     "200000000", "series terms", "100000000"),
    # a count past float64 prints as inf, not as an OverflowError
    (lambda: lepage_batch(0.5, 1, 1, n_terms=10 ** 400),
     "inf", "series terms", "100000000"),
    (lambda: maximal_fluctuation(PARETO, 10 ** 12, RngStream(1)),
     "1.000003e+12", "terms per path", "1000000000"),
    (lambda: cli._parse_grid("0:1e7:1"),
     "10000001", "grid rows", "1000000"),
], ids=["nodes-before-probe", "nodes-after-plan", "lattice-points", "products",
        "table-points", "phase-draws", "batch-draws", "poisson-points", "point-set",
        "poisson-range", "series-terms", "series-terms-past-float64", "path-terms",
        "grid-rows"])
def test_every_work_bound_refuses_alike(call, need, what, budget, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("drew or integrated before the work bound")

    monkeypatch.setattr(sampling.RngStream, "generator", started)
    monkeypatch.setattr(charfn, "_build_nodes", started)
    with pytest.raises(ResourceLimitError) as err:
        call()
    shape = re.fullmatch(r"would need (\S+) (.+), over the budget of (\S+)", str(err.value))
    assert shape is not None, str(err.value)
    assert shape.groups() == (need, what, budget)
    assert need != budget


def test_the_cli_exits_4_past_a_work_bound(capsys):
    # the grid was a parameter error (exit 2)
    assert cli.main(["cdf", "--law", "cauchy", "--grid", "0:1e7:1"]) == 4
    assert "would need 10000001 grid rows" in capsys.readouterr().err
    assert cli.main(["lepage", "--n-terms", str(2 * 10 ** 8), "--reps", "1"]) == 4
    assert "would need 200000000 series terms" in capsys.readouterr().err
