"""Order statistics of uniforms, the Gamma limit, and why extremes rule alpha < 2.

The p-th smallest of n uniforms has exact Beta moments; blown up by n it
converges to a Gamma(p, 1) variable.  Mapped through a power-law quantile,
the p-th LARGEST of n heavy-tailed draws is of order (n/p)^(1/alpha): for
alpha < 2 the top few terms have the magnitude of the whole sum, and the
classical negligibility of individual terms appears exactly at alpha >= 2.
"""

from semistable import (RngStream, negligibility_experiment,
                        order_statistics_experiment)

SEED = 19

print("== exact moments of the p-th smallest of n uniforms ==")
print("  (p, n)      simulated mean / exact    simulated var / exact")
for p, n in ((1, 10), (3, 9), (5, 100)):
    rep = order_statistics_experiment(p, n, 20000, RngStream(SEED, p),
                                      ks_tolerance=None)
    s = rep.statistic
    print("  (%d, %3d)    %.5f / %.5f        %.6f / %.6f"
          % (p, n, s["mean"], s["mean_exact"], s["var"], s["var_exact"]))

print()
print("== n * y_p converges to Gamma(p, 1) ==")
for p in (1, 3):
    rep = order_statistics_experiment(p, 10 ** 4, 20000, RngStream(SEED, 50 + p),
                                      ks_tolerance=0.02)
    print("  p=%d: KS of n*y_p vs the Gamma(%d,1) CDF = %.4f"
          % (p, p, rep.statistic["ks"]))

print()
print("== the negligibility threshold at alpha = 2 ==")
rep = negligibility_experiment([0.5, 0.8, 1.5, 2.5, 3.0], 10 ** 4, 300,
                               RngStream(SEED, 99))
print("  alpha    median of max|x| / sum|x|")
for a, v in sorted(rep.statistic["medians"].items(), key=lambda kv: float(kv[0])):
    print("  %5s    %.5f" % (a, v))
print("below 2 the largest term keeps a fixed share of the sum;")
print("above 2 it fades, and classical central-limit behavior takes over.")
