"""St. Petersburg sums and semistable limit laws.

A toolkit for heavy-tailed i.i.d. sums whose tails oscillate
log-periodically: exact samplers, the dyadic merging family of limit laws
via characteristic-function inversion, Poisson point-process constructions
and couplings, the LePage series, and a reproducible Monte Carlo
experiment harness that checks each limit statement quantitatively.  It
imports numpy alone; levy_cdf and the CLI selftest load scipy on demand.
"""

from .charfn import (CfExponent, InversionError, TabulatedCdf, cauchy_law,
                     cdf_from_cf, convolution_power, erlang_cdf, g_exponent,
                     g_gamma_exponent, g_gamma_law, gaussian_law, levy_cdf,
                     one_sided_stable_exponent, petersburg_law, tabulate_cdf)
from .coupling import (CoupledPair, coupled_pair, coupling_gap_curve,
                       maximal_fluctuation)
from .empirics import (Ecdf, ExperimentReport, feller_experiment, gamma_n,
                       ks_distance, ks_two_sample, lepage_limit_experiment,
                       levy_distance, martin_lof_experiment,
                       merging_experiment, merging_sweep,
                       negligibility_experiment, order_statistics_experiment)
from .sampling import (PoissonPointSet, ResourceLimitError, RngStream,
                       SampleBatch, lepage_auto_terms, lepage_batch,
                       petersburg_from_uniform, petersburg_sum_batch,
                       points_from_arrivals,
                       poisson_sum_batch, poisson_sum_centering,
                       sample_lepage, sample_petersburg,
                       sample_poisson_points, sample_semistable_poisson_sum,
                       sample_tail_model, write_batch)
from .tailmodel import (TailModel, gaussian_criterion_ratio, intensity_quantile,
                        intensity_tail, make_pareto, make_petersburg,
                        model_from_json, model_to_json, tail_eval,
                        tail_first_moment, tail_quantile)

__version__ = "0.1.0"
