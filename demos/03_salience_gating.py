"""Walkthrough: turning deviations into per-column merge weights.

Raw deviations from two differently-scaled sources are not comparable, so
each source's deviations are first replaced by their within-matrix ranks.
A two-way softmax over the ranks then gates the sources against each other;
with two sources that softmax is just the logistic of the rank gap. Finally
the magnitude and direction branches are averaged.
"""

import numpy as np

from dimerge import AggregationKind, aggregate_branches, estimate_salience, rank_normalize, salience_pair

# one source deviates 10x more on average; ranks neutralize the scale gap
dev_ml = np.array([0.02, 0.45, 0.30, 0.01, 0.12])
dev_mm = np.array([0.004, 0.001, 0.030, 0.002, 0.008])

print("ranks ml:", rank_normalize(dev_ml))
print("ranks mm:", rank_normalize(dev_mm))

s_ml, s_mm = estimate_salience(dev_ml, dev_mm, "rank")
print("\nrank-gated salience ml:", np.round(s_ml, 4))
print("rank-gated salience mm:", np.round(s_mm, 4))

# compare with gating on raw deviations: the larger-scale source dominates
raw_ml, _ = estimate_salience(dev_ml, dev_mm, "raw")
print("raw-gated salience ml:", np.round(raw_ml, 4), "(scale leaks through)")

# the two-source softmax is exactly the logistic of the gap
pair = salience_pair(0.8, 0.3)
print(f"\nsoftmax pair for ranks (0.8, 0.3): {pair[0]:.6f} / {pair[1]:.6f}")
print("sums to one:", pair[0] + pair[1] == 1.0)

# --- branch aggregation ------------------------------------------------------
s_mag = np.array([0.55, 0.62, 0.48])
s_dir = np.array([0.71, 0.40, 0.52])
for agg in (AggregationKind("average"), AggregationKind("dir_weighted", 0.75), AggregationKind("mag_only")):
    w = aggregate_branches(s_mag, s_dir, agg)
    print(f"{agg.kind:>14}: omega_ml = {np.round(w.omega_ml, 4)}")
