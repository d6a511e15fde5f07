"""Merging: the centered sums walk a closed loop of laws, and stay close to it.

As n crosses one dyadic octave, the distribution of S_n/n - log2(n) slides
through the family G_gamma, gamma = n/2^floor(log2 n), and returns to its
starting law at n = 2^(k+1).  No single limit exists, but the sup distance
to the moving target vanishes; this script samples the walk at a desk scale.
"""

from semistable import RngStream, gamma_n, merging_experiment, merging_sweep

SEED = 17
REPS = 20000

print("== distance to the moving target across one octave (k = 10) ==")
sweep = merging_sweep(10, 4, REPS, RngStream(SEED, 10 ** 9), tol_max=0.06,
                      tol_two_sample=0.03)
s = sweep.statistic
print("  n        gamma_n   sup-distance")
for n, d in zip(sweep.params["n_values"], s["distances"]):
    print("  %5d    %.3f     %.4f" % (n, gamma_n(n), d))
print("  max distance along the walk: %.4f" % s["max_distance"])

print()
print("== the loop closes: batches at n = 2^10 and n = 2^11 agree ==")
print("  endpoint gammas: %s" % s["endpoint_gammas"])
print("  two-sample KS between the endpoint batches: %.4f"
      % s["endpoint_two_sample_ks"])

print()
print("== the subsequence n = 2^k settles on the gamma = 1 member ==")
for k in (8, 11, 14):
    rep = merging_experiment(2 ** k, REPS, RngStream(SEED, k * 10 ** 6),
                             tolerance=0.05)
    print("  k=%2d: KS to the gamma=1 law = %.4f" % (k, rep.statistic))
print("distances fall to the Monte Carlo noise floor (~1/sqrt(reps)):")
print("a genuine limit exists along dyadic n only.")
