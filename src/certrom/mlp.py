"""Feedforward network trained from scratch (backprop, Adam, step LR schedule,
early stopping) from the unit-box parameter to the reduced trajectory's
coordinates in the learned samples' temporal basis, plus the certified
model/generator pair sharing the RB-ROM's estimator.

Training runs in float32 on one workspace per `mlp_train` call: parameters,
gradient and Adam moments are flat vectors, and every step writes into
buffers sized once to the batch. The trained parameters come back as float64,
and the network predicts in float64; the certification does not depend on the
training precision, since the estimator bounds whatever trajectory it gets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import NumericalError, check_count
from .rb import LearnedGenerator, LearnedRom, RbRom, SpannedTrajectory, TemporalBasis, _pad_flat

TRAIN_DTYPE = np.float32


@dataclass
class MlpParams:
    """Weights and biases of an affine/rectifier stack; layer i maps
    sizes[i-1] -> sizes[i], rectified on all but the last layer."""

    weights: list
    biases: list

    @property
    def sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def flat(self) -> np.ndarray:
        """All weights, then all biases, as one vector (the layout of `layer_views`)."""
        return np.concatenate([w.ravel() for w in self.weights] + [b.ravel() for b in self.biases])


def layer_views(flat: np.ndarray, sizes) -> MlpParams:
    """Parameters whose weights and biases are views into one flat vector:
    every weight matrix (row-major) in layer order, then every bias."""
    if flat.shape != (_num_parameters(sizes),):
        raise ValueError("flat vector does not match the layer sizes")
    shapes = [(n_out, n_in) for n_in, n_out in zip(sizes[:-1], sizes[1:])] + [(n,) for n in sizes[1:]]
    views, start = [], 0
    for shape in shapes:
        views.append(flat[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return MlpParams(views[: len(sizes) - 1], views[len(sizes) - 1 :])


def _num_parameters(sizes) -> int:
    return sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes[:-1], sizes[1:]))


def init_params(sizes, rng: np.random.Generator) -> MlpParams:
    """Uniform fan-in initialization: U(-s, s) with s = sqrt(1 / fan_in)."""
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(1.0 / n_in)
        weights.append(rng.uniform(-s, s, size=(n_out, n_in)))
        biases.append(rng.uniform(-s, s, size=n_out))
    return MlpParams(weights, biases)


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a single input or a batch of rows."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != params.weights[0].shape[1]:
        raise ValueError("input dimension does not match the first layer")
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a[0] if single else a


class _Workspace:
    """One network's flat parameter and gradient vectors (`params` and `grads`
    are per-layer views into them) and the input, activation, rectifier-mask,
    delta and target buffers of batches of up to `rows` rows; a shorter batch
    uses their leading rows."""

    def __init__(self, sizes, rows: int, dtype):
        count = _num_parameters(sizes)
        self.theta = np.zeros(count, dtype)
        self.grad = np.zeros(count, dtype)
        self.params = layer_views(self.theta, sizes)
        self.grads = layer_views(self.grad, sizes)
        self.acts = [np.empty((rows, n), dtype) for n in sizes]  # acts[0] is the input
        self.masks = [np.empty((rows, n), bool) for n in sizes[1:-1]]
        self.deltas = [np.empty((rows, n), dtype) for n in sizes[1:]]
        self.target = np.empty((rows, sizes[-1]), dtype)

    def backprop(self, rows: int):
        """Gradient of the mean squared Euclidean output error over the first
        `rows` input and target rows, written into `grad` (reverse mode; the
        rectifier subgradient at 0 is taken as 0). Leaves the network's output
        in ``acts[-1][:rows]``."""
        acts = [a[:rows] for a in self.acts]
        weights, last = self.params.weights, len(self.params.weights) - 1
        for i, (w, b) in enumerate(zip(weights, self.params.biases)):
            np.matmul(acts[i], w.T, out=acts[i + 1])
            acts[i + 1] += b
            if i < last:
                np.maximum(acts[i + 1], 0.0, out=acts[i + 1])
        delta = self.deltas[last][:rows]
        np.subtract(acts[-1], self.target[:rows], out=delta)
        delta *= 2.0
        delta /= rows
        for i in range(last, -1, -1):
            np.matmul(delta.T, acts[i], out=self.grads.weights[i])
            np.sum(delta, axis=0, out=self.grads.biases[i])
            if i > 0:
                below, mask = self.deltas[i - 1][:rows], self.masks[i - 1][:rows]
                np.matmul(delta, weights[i], out=below)
                np.greater(acts[i], 0.0, out=mask)
                np.multiply(below, mask, out=below)
                delta = below


class AdamState:
    """Flat first and second moment vectors and step count of one Adam run,
    with two scratch vectors for the update."""

    def __init__(self, size: int, dtype=np.float64):
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        self.step = 0
        self._scratch = np.empty((2, size), dtype)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update of the flat vector `params` and of
    `state`, in place. Elementwise, in the operation order of
    m <- beta1 m + (1 - beta1) g, v <- beta2 v + (1 - beta2) g^2,
    p <- p - lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)."""
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    step, denom = state._scratch
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - beta2
    v += step
    np.divide(m, 1.0 - beta1**t, out=step)
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step *= lr
    step /= denom
    params -= step


class EarlyStopper:
    """Stop once the validation loss has not improved for `patience` epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.stale = 0

    def update(self, loss: float) -> bool:
        if loss < self.best:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
        return self.stale > self.patience


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-3
    batch_size: int = 128
    max_epochs: int = 100
    lr_decay: float = 0.7
    lr_every: int = 10
    patience: int = 10
    validation_fraction: float = 0.05
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in (0, 1)")
        if not self.learning_rate > 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("learning-rate decay must lie in (0, 1]")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("lr_every", 1), ("restarts", 1), ("patience", 0)):
            check_count(name, getattr(self, name), least)


class TrainResult(NamedTuple):
    """Best-validation parameters (float64), the epochs run over all
    restarts, and the validation loss of the returned parameters."""

    params: MlpParams
    epochs: int
    val_loss: float


def mlp_train(x: np.ndarray, y: np.ndarray, sizes, config: TrainConfig,
              warm_start: Optional[MlpParams] = None) -> TrainResult:
    """Mini-batch Adam in float32 with step LR schedule and early stopping on
    a held-out validation split; returns the best-validation parameters over
    all restarts. The validation loss is that of the float64 prediction.
    Raises NumericalError when no restart reaches a finite validation loss."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[0]
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n - n_val < 1:
        raise ValueError("insufficient training data")
    rng = np.random.default_rng(config.seed)
    ws = _Workspace(sizes, min(config.batch_size, n - n_val), TRAIN_DTYPE)

    best, best_val, epochs = None, np.inf, 0
    for restart in range(config.restarts):
        perm = rng.permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        x_tr, y_tr = x[train_idx].astype(TRAIN_DTYPE), y[train_idx].astype(TRAIN_DTYPE)
        x_val, y_val = x[val_idx], y[val_idx]

        if warm_start is not None and restart == 0 and warm_start.sizes == list(sizes):
            ws.theta[:] = warm_start.flat()
        else:
            ws.theta[:] = init_params(sizes, rng).flat()
        state = AdamState(ws.theta.size, TRAIN_DTYPE)
        stopper = EarlyStopper(config.patience)
        run_best, run_best_val = ws.theta.copy(), _loss(ws.params, x_val, y_val)

        for epoch in range(config.max_epochs):
            lr = config.learning_rate * config.lr_decay ** (epoch // config.lr_every)
            order = rng.permutation(len(train_idx))
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                rows = len(batch)
                np.take(x_tr, batch, axis=0, out=ws.acts[0][:rows])
                np.take(y_tr, batch, axis=0, out=ws.target[:rows])
                ws.backprop(rows)
                adam_step(ws.theta, ws.grad, state, lr)
            epochs += 1
            val = _loss(ws.params, x_val, y_val)
            if val < run_best_val:
                run_best_val = val
                np.copyto(run_best, ws.theta)
            if stopper.update(val):
                break
        if run_best_val < best_val:
            best_val, best = run_best_val, run_best
    if best is None:
        raise NumericalError("network training reached no finite validation loss")
    return TrainResult(layer_views(best.astype(float), sizes), epochs, best_val)


def _loss(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    err = mlp_forward(params, x) - y
    return float(np.mean(np.sum(err**2, axis=1)))


class DnnRom(LearnedRom):
    """Certified learned ROM whose coordinates a network predicts."""

    def __init__(self, rb_rom: RbRom, params: Optional[MlpParams], temporal: TemporalBasis):
        super().__init__(rb_rom, temporal)
        self.params = params

    @property
    def size(self) -> int:
        return 0 if self.params is None else self.params.num_parameters

    def _predict(self, unit_mu: np.ndarray) -> np.ndarray:
        return mlp_forward(self.params, unit_mu)

    def eval_state(self, mu) -> SpannedTrajectory:
        # defined here, not only inherited, so that perfbench can span the
        # network's prediction (it wraps DnnRom.eval_state)
        return super().eval_state(mu)


class DnnGenerator(LearnedGenerator):
    """Collects (mu, reduced trajectory) samples from an RB-ROM and trains the
    network from the unit-box parameter to their m x N temporal coordinates
    once enough new samples have accumulated (or on demand), from two samples
    on, warm-starting from the current parameters unless a discard forgot
    them."""

    def __init__(
        self,
        rb_rom: RbRom,
        hidden=(64, 64),
        config: TrainConfig = TrainConfig(),
        pending_threshold: int = 200,
    ):
        super().__init__(rb_rom, pending_threshold)
        self.hidden = tuple(hidden)
        self.config = config
        self.params: Optional[MlpParams] = None

    def current_model(self) -> DnnRom:
        return DnnRom(self.rb_rom, self.params, self.temporal)

    def _forget_model(self):
        self.params = None

    def precompute(self, force: bool = False) -> DnnRom:
        # one sample leaves no training row after the validation split
        if self._due(force) and self.rb_rom.dim and len(self._mus) > 1:
            ys = self._targets()
            sizes = [self.rb_rom.box.dim, *self.hidden, ys.shape[1]]
            cfg = replace(self.config, seed=self.config.seed + self.trainings)
            result = mlp_train(self._inputs(), ys, sizes, cfg, warm_start=self.params)
            self.params = result.params
            self._fitted(epochs=result.epochs, val_loss=result.val_loss)
        return self.current_model()

    def _pad_model(self, old_shape: tuple, new_shape: tuple):
        """Zero-pad the last layer's output rows as the stored coordinates
        are padded, so the network predicts its old coordinates until the
        next training. The hidden layers are copied, so that they no longer
        keep the trained flat parameter vector alive."""
        if self.params is not None:
            *weights, last_w = self.params.weights
            *biases, last_b = self.params.biases
            self.params = MlpParams(
                [w.copy() for w in weights] + [_pad_flat(last_w.T, old_shape, new_shape).T],
                [b.copy() for b in biases] + [_pad_flat(last_b[None, :], old_shape, new_shape)[0]],
            )
