"""Greedy Gaussian-kernel regression of full reduced trajectories (all time
steps at once), with Newton-basis incremental updates, plus the certified
model/generator pair built on top of a reduced-basis ROM."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Trajectory
from .rb import LearnedGenerator, LearnedRom, RbRom

POWER_FLOOR = 1e-12  # squared power function below this is numerically exhausted


def kernel_eval(x, y, gamma: float) -> float:
    """Gaussian kernel exp(-gamma * ||x - y||^2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must share a dimension")
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


def kernel_matrix(xs: np.ndarray, ys: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(xs**2, axis=1)[:, None]
        + np.sum(ys**2, axis=1)[None, :]
        - 2.0 * xs @ ys.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class KernelConfig:
    gamma: Optional[float] = None  # defaults to 1 / input dimension
    regularization: float = 0.0
    max_centers: Optional[int] = None
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError("kernel width gamma must be positive")
        if self.regularization < 0.0:
            raise ValueError("regularization must be nonnegative")


class KernelModel:
    """Fitted sparse kernel expansion sum_i alpha_i k(., x_i).

    Keeps the Newton-basis state (triangular change of basis, per-point basis
    values, powers, residuals) so the greedy fit can be resumed when training
    points are appended.
    """

    def __init__(self, gamma: float, dim: int, out_dim: int):
        self.gamma = gamma
        self.dim = dim
        self.out_dim = out_dim
        self.centers = np.zeros((0, dim))
        self.coefficients = np.zeros((0, out_dim))  # kernel-basis coefficients
        self.newton_factor = np.zeros((0, 0))  # upper-triangular change of basis
        self._alpha_newton = np.zeros((0, out_dim))
        self._train_x = np.zeros((0, dim))
        self._train_y = np.zeros((0, out_dim))
        self._basis_values = np.zeros((0, 0))  # Newton basis at all training points
        self._power = np.zeros(0)
        self._residual = np.zeros((0, out_dim))
        self._selected: list = []
        self.greedy_history: list = []

    @property
    def num_centers(self) -> int:
        return self.centers.shape[0]

    def rkhs_residual_decay(self) -> np.ndarray:
        """Hypothesis-space norm of the residual against the full fit after
        0, 1, ..., M selected centers. The Newton basis is orthonormal in the
        hypothesis space, so this sequence is non-increasing by construction;
        the pointwise maximum residual (greedy_history) is not monotone."""
        sq = np.sum(self._alpha_newton**2, axis=1)
        tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        return np.sqrt(tail)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.num_centers == 0:
            return np.zeros((xs.shape[0], self.out_dim))
        return kernel_matrix(xs, self.centers, self.gamma) @ self.coefficients

    def padded(self, K: int, old_n: int, new_n: int) -> "KernelModel":
        """Copy whose targets (row-major flattened K x old_n blocks) are
        zero-padded to K x new_n, so predictions keep their old coordinates
        and are zero in the new ones; the greedy state carries over."""
        out = copy.copy(self)
        out.out_dim = K * new_n
        for name in ("coefficients", "_alpha_newton", "_train_y", "_residual"):
            setattr(out, name, _pad_flat(getattr(self, name), K, old_n, new_n))
        # arrays are only ever rebound, never written in place, so the copy
        # may share them; the lists grow in place and must not be shared
        out._selected = list(self._selected)
        out.greedy_history = list(self.greedy_history)
        return out

    # -- greedy machinery -------------------------------------------------
    def _ingest(self, xs: np.ndarray, ys: np.ndarray):
        """Register additional training points, extending the Newton state."""
        self._train_x = np.vstack([self._train_x, xs])
        self._train_y = np.vstack([self._train_y, ys])
        if np.unique(self._train_x, axis=0).shape[0] != self._train_x.shape[0]:
            raise ValueError("coincident training inputs")
        if self.num_centers:
            kz = kernel_matrix(xs, self.centers, self.gamma)
            basis = kz @ self.newton_factor
        else:
            basis = np.zeros((xs.shape[0], 0))
        self._basis_values = (
            np.vstack([self._basis_values, basis]) if self._basis_values.size or basis.size else basis
        )
        power = 1.0 - np.sum(basis**2, axis=1)
        self._power = np.concatenate([self._power, np.maximum(power, 0.0)])
        residual = ys - basis @ self._alpha_newton
        self._residual = np.vstack([self._residual, residual])

    def _greedy(self, config: KernelConfig):
        n = self._train_x.shape[0]
        max_centers = n if config.max_centers is None else min(config.max_centers, n)
        while self.num_centers < max_centers:
            norms = np.linalg.norm(self._residual, axis=1)
            norms[self._selected] = -np.inf
            pick = int(np.argmax(norms))
            if norms[pick] <= config.residual_tol and self.num_centers > 0:
                break
            if self._power[pick] < POWER_FLOOR:
                break
            self.greedy_history.append(float(norms[pick]))
            self._add_center(pick)
        self._refresh_coefficients(config)

    def _add_center(self, pick: int):
        scale = np.sqrt(self._power[pick])
        kcol = kernel_matrix(self._train_x, self._train_x[pick : pick + 1], self.gamma)[:, 0]
        if self.num_centers:
            new_basis = (kcol - self._basis_values @ self._basis_values[pick]) / scale
            factor_col = np.concatenate(
                [-self.newton_factor @ self._basis_values[pick], [1.0]]
            ) / scale
        else:
            new_basis = kcol / scale
            factor_col = np.array([1.0 / scale])
        alpha = self._residual[pick] / scale

        self._basis_values = np.column_stack([self._basis_values, new_basis]) if self.num_centers else new_basis[:, None]
        self._power = np.maximum(self._power - new_basis**2, 0.0)
        self._residual = self._residual - np.outer(new_basis, alpha)
        self._alpha_newton = np.vstack([self._alpha_newton, alpha])
        m = self.num_centers
        grown = np.zeros((m + 1, m + 1))
        grown[:m, :m] = self.newton_factor
        grown[:, m] = factor_col
        self.newton_factor = grown
        self.centers = np.vstack([self.centers, self._train_x[pick]])
        self._selected.append(pick)

    def _refresh_coefficients(self, config: KernelConfig):
        if self.num_centers == 0:
            self.coefficients = np.zeros((0, self.out_dim))
            return
        if config.regularization > 0.0:
            kzz = kernel_matrix(self.centers, self.centers, self.gamma)
            m = self.num_centers
            yz = self._train_y[self._selected]
            self.coefficients = np.linalg.solve(kzz + config.regularization * m * np.eye(m), yz)
        else:
            self.coefficients = self.newton_factor @ self._alpha_newton


def vkoga_fit(
    xs: np.ndarray, ys: np.ndarray, config: KernelConfig, warm: Optional[KernelModel] = None
) -> KernelModel:
    """Fit (or resume, when `warm` covers a prefix of the rows) the greedy model."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0] or xs.shape[0] == 0:
        raise ValueError("need equally many inputs and targets, at least one pair")
    gamma = config.gamma if config.gamma is not None else 1.0 / xs.shape[1]
    if warm is not None and warm._train_x.shape[0] <= xs.shape[0] and np.array_equal(
        warm._train_x, xs[: warm._train_x.shape[0]]
    ) and np.array_equal(warm._train_y, ys[: warm._train_x.shape[0]]) and warm.gamma == gamma:
        model = warm
        new = slice(warm._train_x.shape[0], xs.shape[0])
    else:
        model = KernelModel(gamma, xs.shape[1], ys.shape[1])
        new = slice(0, xs.shape[0])
    if new.start < new.stop:
        model._ingest(xs[new], ys[new])
    model._greedy(config)
    return model


def save_kernel_model(path, model: KernelModel):
    np.savez(
        path,
        gamma=model.gamma,
        centers=model.centers,
        coefficients=model.coefficients,
        newton_factor=model.newton_factor,
    )


def load_kernel_model(path) -> KernelModel:
    data = np.load(path)
    model = KernelModel(float(data["gamma"]), data["centers"].shape[1], data["coefficients"].shape[1])
    model.centers = data["centers"]
    model.coefficients = data["coefficients"]
    model.newton_factor = data["newton_factor"]
    return model


class VkogaRom(LearnedRom):
    """Certified learned ROM: kernel-predicted reduced trajectories, with the
    output operator and error estimator shared from the underlying RB-ROM."""

    def __init__(self, rb_rom: RbRom, model: Optional[KernelModel]):
        super().__init__(rb_rom)
        self.model = model

    @property
    def size(self) -> int:
        return 0 if self.model is None else self.model.num_centers

    def eval_state(self, mu) -> Trajectory:
        rom = self.rb_rom
        mu = rom.box.validate(mu)
        K = rom.time_grid.num_nodes
        if self.size == 0:
            return self._trajectory(np.zeros((K, rom.dim)))
        flat = self.model.predict(rom.box.to_unit(mu)[None, :])[0]
        return self._trajectory(flat.reshape(K, rom.dim))


class VkogaGenerator(LearnedGenerator):
    """Collects (mu, reduced trajectory) samples from an RB-ROM and fits the
    time-vectorized kernel predictor on demand; a fit resumes the previous
    greedy only when samples were merely appended since."""

    def __init__(
        self,
        rb_rom: RbRom,
        config: KernelConfig = KernelConfig(),
        pending_threshold: int = 1,
    ):
        super().__init__(rb_rom, pending_threshold)
        self.config = config
        self._model: Optional[KernelModel] = None

    def _training_arrays(self):
        xs = np.array([self.rb_rom.box.to_unit(mu) for mu, _ in self.samples])
        ys = np.array([coeffs.ravel() for _, coeffs in self.samples])
        return xs, ys

    def current_model(self) -> VkogaRom:
        """The model as currently fitted (a zero predictor before any fit)."""
        return VkogaRom(self.rb_rom, self._model)

    def _forget_model(self):
        self._model = None

    def precompute(self, force: bool = False) -> VkogaRom:
        if self._due(force):
            xs, ys = self._training_arrays()
            warm = self._model if self._appended_only else None
            self._model = vkoga_fit(xs, ys, self.config, warm=warm)
            self._fitted()
        return self.current_model()

    def prolong(self, new_rb_rom: RbRom) -> "VkogaGenerator":
        """Re-layout all collected data (and the fitted expansion) onto an
        extended reduced basis by zero-padding the new coordinates."""
        out = super().prolong(new_rb_rom)
        old_n, new_n = self.rb_rom.dim, new_rb_rom.dim
        if new_n > old_n and self._model is not None:
            K = self.rb_rom.time_grid.num_nodes
            out._model = self._model.padded(K, old_n, new_n) if self._model.num_centers else None
        return out


def _pad_flat(rows: np.ndarray, K: int, old_n: int, new_n: int) -> np.ndarray:
    """Pad row-major flattened (K x old_n) row vectors to (K x new_n)."""
    if rows.size == 0:
        return np.zeros((rows.shape[0], K * new_n))
    blocks = rows.reshape(rows.shape[0], K, old_n)
    return np.pad(blocks, ((0, 0), (0, 0), (0, new_n - old_n))).reshape(rows.shape[0], K * new_n)
