"""Train the feedforward predictor of a reduced trajectory's coordinates in
the learned samples' temporal basis and certify its predictions.

Unlike the time-stepping reduced solve, one forward pass from the parameter
gives the whole trajectory; certification keeps it honest.
"""

import numpy as np

from certrom import DnnGenerator, FullOrderModel, RbGenerator, TrainConfig, build_heat_square, l2_time_norm

problem = build_heat_square()
fom = FullOrderModel(problem)
rb_gen = RbGenerator(fom, eps=1e-3)
rng = np.random.default_rng(3)
training = [problem.box.sample(rng) for _ in range(12)]
for mu in training:
    rb_gen.extend(mu)
rom = rb_gen.precompute()

ml_gen = DnnGenerator(rom, config=TrainConfig(seed=0), pending_threshold=1)
for mu in training:
    ml_gen.extend(mu)
learned = ml_gen.precompute(force=True)
m = ml_gen.time_basis.shape[1]
print(f"network: {learned.size} parameters, [0, 1]^{problem.box.dim} -> {m} x {rom.dim} temporal coordinates")

accepted = 0
tol = 5e-2
for mu in training:
    if learned.est_output(mu) <= tol:
        accepted += 1
print(f"certified at {accepted}/{len(training)} training parameters for tolerance {tol}")

mu = problem.box.sample(rng)
bound = learned.est_output(mu)
true = l2_time_norm(fom.eval_output(mu) - learned.eval_output(mu))
print(f"fresh mu ({mu[0]:.2f}, {mu[1]:.2f}): bound {bound:.3e}, true error {true:.3e}")
print("the bound always dominates the error; whether it beats the tolerance decides the tier")
