"""Compress a long snapshot stream chunk by chunk without ever holding it.

The incremental compression carries only scaled modes between chunks and still
guarantees the final mean-square projection error of all inputs.
"""

import numpy as np

from certrom import HapodConfig, IncrementalHapod

rng = np.random.default_rng(1)
dim, count = 40, 400
factors = rng.normal(size=(dim, 6))
weights = rng.normal(size=(6, count)) * (10.0 ** -np.arange(6))[:, None]
data = factors @ weights + 1e-8 * rng.normal(size=(dim, count))

eps = 1e-4
hapod = IncrementalHapod(dim, HapodConfig(eps_pod=eps, chunk=50), n_expected=count)
peak = 0
for start in range(0, count, 50):
    hapod.feed(data[:, start : start + 50])
    peak = max(peak, hapod.n_stored)
modes, svals = hapod.finalize()

proj = modes @ (modes.T @ data)
mean_sq = np.mean(np.sum((data - proj) ** 2, axis=0))
# one-shot reference: the POD modes are the left singular vectors; keep every mode whose removal, with all after it, would
# exceed the mean-square budget
tails = np.cumsum(np.linalg.svd(data, compute_uv=False)[::-1] ** 2)[::-1]
reference = int(np.sum(tails > count * eps**2))
print(f"streamed {count} vectors holding at most {peak} at a time")
print(f"kept {modes.shape[1]} modes (one-shot reference keeps {reference})")
print(f"mean-square projection error {mean_sq:.3e} <= budget {eps**2:.0e}")
print("singular values:", np.array2string(svals, precision=2))
