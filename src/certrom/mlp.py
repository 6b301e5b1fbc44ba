"""Feedforward network trained from scratch (backprop, Adam, step LR schedule,
early stopping) predicting reduced coefficients at arbitrary (mu, t) inputs,
plus the certified model/generator pair sharing the RB-ROM's estimator."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Trajectory
from .rb import LearnedGenerator, LearnedRom, RbRom


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


def init_params(sizes, rng: np.random.Generator) -> MlpParams:
    """Uniform fan-in initialization: U(-s, s) with s = sqrt(1 / fan_in)."""
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(1.0 / n_in)
        weights.append(rng.uniform(-s, s, size=(n_out, n_in)))
        biases.append(rng.uniform(-s, s, size=n_out))
    return MlpParams(weights, biases)


def zero_params(sizes) -> MlpParams:
    return MlpParams(
        [np.zeros((n_out, n_in)) for n_in, n_out in zip(sizes[:-1], sizes[1:])],
        [np.zeros(n_out) for n_out in sizes[1:]],
    )


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


def mlp_loss_grad(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Mean squared Euclidean output error over the batch and its gradients
    (reverse-mode; the rectifier subgradient at 0 is taken as 0)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    batch = x.shape[0]
    last = len(params.weights) - 1
    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    err = activations[-1] - y
    loss = float(np.mean(np.sum(err**2, axis=1)))

    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.weights)
    delta = 2.0 * err / batch
    for i in range(last, -1, -1):
        grad_w[i] = delta.T @ activations[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * (activations[i] > 0.0)
    return loss, MlpParams(grad_w, grad_b)


@dataclass
class AdamState:
    m: MlpParams
    v: MlpParams
    step: int = 0


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update; returns fresh (params, state)."""
    state = AdamState(state.m.copy(), state.v.copy(), state.step + 1)
    out = params.copy()
    t = state.step
    for arrays in (
        zip(out.weights, grads.weights, state.m.weights, state.v.weights),
        zip(out.biases, grads.biases, state.m.biases, state.v.biases),
    ):
        for p, g, m, v in arrays:
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return out, state


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
        if min(self.learning_rate, self.batch_size, self.max_epochs, self.restarts) <= 0:
            raise ValueError("training configuration values must be positive")


def mlp_train(x: np.ndarray, y: np.ndarray, sizes, config: TrainConfig,
              warm_start: Optional[MlpParams] = None) -> MlpParams:
    """Mini-batch Adam with step LR schedule and early stopping on a held-out
    validation split; returns the best-validation parameters over all restarts."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[0]
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n - n_val < 1:
        raise ValueError("insufficient training data")
    rng = np.random.default_rng(config.seed)

    best_params, best_val = None, np.inf
    for restart in range(config.restarts):
        perm = rng.permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        x_tr, y_tr = x[train_idx], y[train_idx]
        x_val, y_val = x[val_idx], y[val_idx]

        if warm_start is not None and restart == 0 and warm_start.sizes == list(sizes):
            params = warm_start.copy()
        else:
            params = init_params(sizes, rng)
        state = AdamState(zero_params(sizes), zero_params(sizes))
        stopper = EarlyStopper(config.patience)
        run_best, run_best_val = params.copy(), _loss(params, x_val, y_val)

        for epoch in range(config.max_epochs):
            lr = config.learning_rate * config.lr_decay ** (epoch // config.lr_every)
            order = rng.permutation(len(train_idx))
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                _, grads = mlp_loss_grad(params, x_tr[batch], y_tr[batch])
                params, state = adam_step(params, grads, state, lr)
            val = _loss(params, x_val, y_val)
            if val < run_best_val:
                run_best_val, run_best = val, params.copy()
            if stopper.update(val):
                break
        if run_best_val < best_val:
            best_val, best_params = run_best_val, run_best
    return best_params


def _loss(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    err = mlp_forward(params, x) - y
    return float(np.mean(np.sum(err**2, axis=1)))


def save_mlp_params(path, params: MlpParams):
    """Checkpoint layout: arrays w0, b0, w1, b1, ... in layer order."""
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_mlp_params(path) -> MlpParams:
    data = np.load(path)
    layers = len(data.files) // 2
    return MlpParams(
        [data[f"w{i}"] for i in range(layers)], [data[f"b{i}"] for i in range(layers)]
    )


class InputScaler:
    """Fixed affine map of (parameter box) x [0, t_end] onto [-1, 1]^(p+1)."""

    def __init__(self, box, t_end: float):
        self.lo = np.concatenate([box.lower, [0.0]])
        self.hi = np.concatenate([box.upper, [t_end]])

    def scale(self, mus_and_times: np.ndarray) -> np.ndarray:
        return 2.0 * (mus_and_times - self.lo) / (self.hi - self.lo) - 1.0


class DnnRom(LearnedRom):
    """Certified learned ROM with random-access-in-time prediction."""

    def __init__(self, rb_rom: RbRom, params: Optional[MlpParams], scaler: InputScaler):
        super().__init__(rb_rom)
        self.params = params
        self.scaler = scaler

    @property
    def size(self) -> int:
        return 0 if self.params is None else self.params.num_parameters

    def eval_state(self, mu) -> Trajectory:
        rom = self.rb_rom
        mu = rom.box.validate(mu)
        K = rom.time_grid.num_nodes
        if self.params is None or rom.dim == 0:
            return self._trajectory(np.zeros((K, rom.dim)))
        inputs = np.column_stack([np.tile(mu, (K, 1)), rom.time_grid.nodes])
        return self._trajectory(mlp_forward(self.params, self.scaler.scale(inputs)))


class DnnGenerator(LearnedGenerator):
    """Collects (mu, t_k) -> reduced-coefficient pairs from an RB-ROM; trains
    the network once enough new samples have accumulated (or on demand),
    warm-starting from the current parameters unless a discard forgot them."""

    def __init__(
        self,
        rb_rom: RbRom,
        hidden=(128, 128, 128, 128),
        config: TrainConfig = TrainConfig(),
        pending_threshold: int = 200,
    ):
        super().__init__(rb_rom, pending_threshold)
        self.hidden = tuple(hidden)
        self.config = config
        self.scaler = InputScaler(rb_rom.box, rb_rom.time_grid.t_end)
        self.params: Optional[MlpParams] = None

    def _training_arrays(self):
        """Inputs (mu, t_k) and targets, the stored trajectories rebuilt from
        their temporal coordinates, one row per sample and time node."""
        nodes = self.rb_rom.time_grid.nodes
        xs = np.vstack([
            self.scaler.scale(np.column_stack([np.tile(mu, (len(nodes), 1)), nodes])) for mu in self._mus
        ])
        coords = self._targets().reshape(len(self._mus), *self._coordinate_shape)
        return xs, (self._time_basis @ coords).reshape(len(xs), self.rb_rom.dim)

    def current_model(self) -> DnnRom:
        return DnnRom(self.rb_rom, self.params, self.scaler)

    def _forget_model(self):
        self.params = None

    def precompute(self, force: bool = False) -> DnnRom:
        if self._due(force) and self.rb_rom.dim:
            xs, ys = self._training_arrays()
            sizes = [xs.shape[1], *self.hidden, self.rb_rom.dim]
            cfg = replace(self.config, seed=self.config.seed + self.trainings)
            self.params = mlp_train(xs, ys, sizes, cfg, warm_start=self.params)
            self._fitted()
        return self.current_model()

    def _pad_model(self, old_shape: tuple, new_shape: tuple):
        """Grow the final layer with zero rows for new basis columns, so
        previously learned outputs are unchanged until the next training;
        the network predicts trajectories, so new temporal modes leave it
        as it is."""
        pad = new_shape[1] - old_shape[1]
        if pad and self.params is not None:
            params = self.params.copy()
            params.weights[-1] = np.vstack([params.weights[-1], np.zeros((pad, params.weights[-1].shape[1]))])
            params.biases[-1] = np.concatenate([params.biases[-1], np.zeros(pad)])
            self.params = params
