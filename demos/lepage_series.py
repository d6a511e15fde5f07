"""The LePage series: a stable variable assembled from Poisson arrival times.

Z_p = partial sums of mean-1 exponentials are the arrival times of a
unit-rate Poisson process; the mapped points Z_p^(-1/alpha) are exactly the
decreasing points of the process with intensity tails x^(-alpha), so their
(signed) series is the stable limit itself.  The p-th largest term of a
block of n i.i.d. heavy-tailed draws, scaled by n^(-1/alpha), matches the
p-th series term: extremes alone carry the sum.
"""

from semistable import (Ecdf, RngStream, ks_distance, lepage_auto_terms, lepage_batch,
                        lepage_limit_experiment, levy_cdf, sample_lepage)

SEED = 13

print("== truncation budgets ==")
for alpha, sym in ((0.5, False), (0.5, True), (0.75, True)):
    p = lepage_auto_terms(alpha, sym)
    print("  alpha=%.2f %-9s -> %d terms" % (alpha, "symmetric" if sym else
                                             "positive", p))

print()
print("== the positive alpha = 1/2 series is the one-sided stable law ==")
vals = lepage_batch(0.5, 20000, seed=SEED, n_terms=10 ** 4)
print("  KS of 20000 series draws vs the closed-form CDF: %.4f"
      % ks_distance(Ecdf.from_sample(vals), levy_cdf))

print()
print("== extremes of i.i.d. blocks match the series terms ==")
rep = lepage_limit_experiment(0.5, 12, 20000, RngStream(SEED, 5), n_terms=3)
for p, ks in enumerate(rep.statistic["rank_ks"], 1):
    print("  rank %d: two-sample KS = %.4f" % (p, ks))

print()
print("== a single draw, term by term ==")
one = sample_lepage(0.5, RngStream(SEED, 77), n_terms=12)
print("  12-term series draw: %.5f (tail beyond adds mean ~1/11)" % one)
