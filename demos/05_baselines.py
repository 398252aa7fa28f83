"""Walkthrough: the classical merging baselines on small tensors.

Every baseline runs on an aligned triple through ``merge_tensor``, the same
entry point as the column-wise merge. To show what random drop-and-rescale
and the two-sided magnitude filter do to one residual, the base and the
anchor are zero, so the merge returns the transformed residual itself.
"""

import numpy as np

from dimerge import BaselineParams, MergeConfig, merge_tensor
from dimerge.align import AlignedTriple
from dimerge.records import TensorRecord

rng = np.random.default_rng(3)


def triple(base, ml, mm):
    return AlignedTriple(
        "toy",
        TensorRecord.from_array("toy", np.asarray(base, dtype=np.float32)),
        TensorRecord.from_array("toy", np.asarray(ml, dtype=np.float32)),
        TensorRecord.from_array("toy", np.asarray(mm, dtype=np.float32)),
    )


def residual_alone(delta, method, **params):
    """One residual through a merge whose base and anchor are zero."""
    zeros = np.zeros_like(delta)
    cfg = MergeConfig(method=method, baseline=BaselineParams(**params))
    return merge_tensor(triple(zeros, delta, zeros), cfg).to_f32()


base = np.zeros(6, dtype=np.float32)
ml = np.array([1.0, -2.0, 0.3, 0.0, 0.8, -0.1], dtype=np.float32)
mm = np.array([1.0, 1.0, -0.3, 0.0, 0.2, -0.1], dtype=np.float32)
t = triple(base, ml, mm)

print("task arithmetic:", merge_tensor(t, MergeConfig(method="task_arithmetic")).to_f32())

# TIES at full density: coordinate 1 conflicts; the larger mass (-2) wins
ties_full = MergeConfig(method="ties", baseline=BaselineParams(ties_density=1.0))
print("ties merge:     ", merge_tensor(t, ties_full).to_f32())

# DARE drops elements at random but stays unbiased in expectation
delta = np.ones(10_000, dtype=np.float32)
dropped = residual_alone(delta, "dare", dare_drop_p=0.9)
print(f"\nDARE p=0.9: kept {np.count_nonzero(dropped)} of {dropped.size}, "
      f"mean {dropped.mean():.3f} (unbiased, stays near 1.0)")

# masks are keyed by (seed, name, index): identical keys, identical masks
again = residual_alone(delta, "dare", dare_drop_p=0.9)
print("deterministic mask:", np.array_equal(dropped, again))

# breadcrumbs keeps the middle of the magnitude distribution
spread = rng.normal(size=12).astype(np.float32)
kept = residual_alone(spread, "breadcrumbs", breadcrumbs_beta=0.25, breadcrumbs_gamma=0.25)
print("\nbreadcrumbs input: ", np.round(spread, 3))
print("breadcrumbs output:", np.round(kept, 3))

# defaults travel with MergeConfig for whole-checkpoint runs
cfg = MergeConfig(method="ties", baseline=BaselineParams(ties_density=0.3)).validate()
print("\ncheckpoint-level config:", cfg.to_dict()["baseline"])
