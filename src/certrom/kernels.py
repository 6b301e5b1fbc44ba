"""Greedy Gaussian-kernel regression of full reduced trajectories (all time
steps at once, as coordinates in a shared temporal basis), with Newton-basis
incremental updates, plus the certified model/generator pair built on top of
a reduced-basis ROM."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rb import LearnedGenerator, LearnedRom, RbRom, SpannedTrajectory, TemporalBasis, _pad_flat, _reserve_rows

POWER_FLOOR = 1e-12  # squared power function below this is numerically exhausted


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
    max_centers: Optional[int] = None

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError("kernel width gamma must be positive")


class KernelModel:
    """Fitted sparse kernel expansion sum_i alpha_i k(., x_i).

    Keeps the Newton-basis state (triangular change of basis, per-point basis
    values, powers, residuals and their norms) so the greedy fit can be
    resumed when training points are appended. The targets themselves are not
    kept: a resumed fit reads them from the caller's rows, and the residuals
    live in a row buffer that grows by doubling and is updated in place.
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
        self._basis_values = np.zeros((0, 0))  # Newton basis at all training points
        self._power = np.zeros(0)
        self._residual_rows = np.zeros((0, out_dim))  # first num_samples rows are live
        self._residual_norms = np.zeros(0)
        self._selected: list = []
        self.greedy_history: list = []

    @property
    def num_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def num_samples(self) -> int:
        return self._train_x.shape[0]

    @property
    def _residual(self) -> np.ndarray:
        return self._residual_rows[: self.num_samples]

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

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_residual_rows"] = self._residual  # the live rows, not the spare capacity
        return state

    def padded(self, old_shape: tuple, new_shape: tuple) -> "KernelModel":
        """Copy whose targets (row-major flattened old_shape blocks) are
        zero-padded to new_shape, so predictions keep their old coordinates
        and are zero in the new ones; the greedy state carries over."""
        out = copy.copy(self)
        out.out_dim = math.prod(new_shape)
        out.coefficients = _pad_flat(self.coefficients, old_shape, new_shape)
        out._alpha_newton = _pad_flat(self._alpha_newton, old_shape, new_shape)
        out._residual_rows = _pad_flat(self._residual, old_shape, new_shape)
        # recomputed, not copied: the greedy compares norms of the rows it holds
        out._residual_norms = np.linalg.norm(out._residual_rows, axis=1)
        # the other arrays are only ever rebound, never written in place, so
        # the copy may share them; the residual rows and the lists change in
        # place and must not be shared
        out._selected = list(self._selected)
        out.greedy_history = list(self.greedy_history)
        return out

    # -- greedy machinery -------------------------------------------------
    def _ingest(self, xs: np.ndarray, ys: np.ndarray):
        """Register additional training points, extending the Newton state."""
        train_x = np.vstack([self._train_x, xs])
        if np.unique(train_x, axis=0).shape[0] != train_x.shape[0]:
            raise ValueError("coincident training inputs")
        seen = self.num_samples
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
        self._residual_rows = _reserve_rows(self._residual_rows, seen, train_x.shape[0], self.out_dim)
        self._train_x = train_x
        fresh = self._residual_rows[seen : train_x.shape[0]]
        np.subtract(ys, basis @ self._alpha_newton, out=fresh)
        self._residual_norms = np.concatenate([self._residual_norms, np.linalg.norm(fresh, axis=1)])

    def _greedy(self, config: KernelConfig):
        n = self.num_samples
        max_centers = n if config.max_centers is None else min(config.max_centers, n)
        added = False
        while self.num_centers < max_centers:
            norms = self._residual_norms.copy()
            norms[self._selected] = -np.inf
            pick = int(np.argmax(norms))
            if norms[pick] <= 0.0 and self.num_centers > 0:  # every target is matched
                break
            if self._power[pick] < POWER_FLOOR:
                break
            self.greedy_history.append(float(norms[pick]))
            self._add_center(pick)
            added = True
        if added:
            self.coefficients = self.newton_factor @ self._alpha_newton

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
        residual = self._residual
        for row, value in zip(residual, new_basis):  # in place, without a samples x out_dim temporary
            row -= value * alpha
        self._residual_norms = np.linalg.norm(residual, axis=1)
        self._alpha_newton = np.vstack([self._alpha_newton, alpha])
        m = self.num_centers
        grown = np.zeros((m + 1, m + 1))
        grown[:m, :m] = self.newton_factor
        grown[:, m] = factor_col
        self.newton_factor = grown
        self.centers = np.vstack([self.centers, self._train_x[pick]])
        self._selected.append(pick)


def vkoga_fit(
    xs: np.ndarray, ys: np.ndarray, config: KernelConfig, warm: Optional[KernelModel] = None
) -> KernelModel:
    """Fit the greedy model, or resume ``warm`` in place when given.

    ``warm`` must have been fitted on a prefix of these rows with the same
    kernel width. Its inputs are checked, and a mismatch raises ValueError.
    Its targets are not compared: that would cost a pass over all stored
    trajectories on every refit, so the caller vouches for them.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0] or xs.shape[0] == 0:
        raise ValueError("need equally many inputs and targets, at least one pair")
    gamma = config.gamma if config.gamma is not None else 1.0 / xs.shape[1]
    if warm is None:
        model = KernelModel(gamma, xs.shape[1], ys.shape[1])
    else:
        seen = warm.num_samples
        if (
            warm.gamma != gamma
            or warm.out_dim != ys.shape[1]
            or seen > xs.shape[0]
            or not np.array_equal(warm._train_x, xs[:seen])
        ):
            raise ValueError("warm model was not fitted on a prefix of these inputs")
        model = warm
    if model.num_samples < xs.shape[0]:
        model._ingest(xs[model.num_samples :], ys[model.num_samples :])
    model._greedy(config)
    return model


class VkogaRom(LearnedRom):
    """Certified learned ROM: kernel-predicted coordinates in the temporal
    basis they were fitted in, with the output operator and error estimator
    shared from the underlying RB-ROM."""

    def __init__(self, rb_rom: RbRom, model: Optional[KernelModel], temporal: TemporalBasis):
        super().__init__(rb_rom)
        self.model = model
        self.temporal = temporal

    @property
    def size(self) -> int:
        return 0 if self.model is None else self.model.num_centers

    def eval_state(self, mu) -> SpannedTrajectory:
        """The predicted coordinates with the exact reduced initial row; the
        coefficients are built only when read."""
        rom = self.rb_rom
        mu = rom.box.validate(mu)
        shape = (self.temporal.dim, rom.dim)
        if self.size == 0:
            coords = np.zeros(shape)
        else:
            coords = self.model.predict(rom.box.to_unit(mu)[None, :])[0].reshape(shape)
        return SpannedTrajectory(self.temporal, coords, initial=rom.init_coeffs)


class VkogaGenerator(LearnedGenerator):
    """Collects (mu, reduced trajectory) samples from an RB-ROM and fits the
    kernel predictor of their temporal coordinates on demand; a fit resumes
    the previous greedy only when samples were merely appended since."""

    def __init__(
        self,
        rb_rom: RbRom,
        config: KernelConfig = KernelConfig(),
        pending_threshold: int = 1,
    ):
        super().__init__(rb_rom, pending_threshold)
        self.config = config
        self._model: Optional[KernelModel] = None

    def current_model(self) -> VkogaRom:
        """The model as currently fitted (a zero predictor before any fit)."""
        return VkogaRom(self.rb_rom, self._model, self.temporal)

    def _forget_model(self):
        self._model = None

    def _pad_model(self, old_shape: tuple, new_shape: tuple):
        if self._model is not None:
            self._model = self._model.padded(old_shape, new_shape)

    def precompute(self, force: bool = False) -> VkogaRom:
        if self._due(force):
            xs = np.array([self.rb_rom.box.to_unit(mu) for mu in self._mus])
            warm = self._model if self._appended_only else None
            self._model = vkoga_fit(xs, self._targets(), self.config, warm=warm)
            self._fitted()
        return self.current_model()

    def prolong(self, new_rb_rom: RbRom) -> "VkogaGenerator":
        """Re-layout all collected data (and the fitted expansion) onto an
        extended reduced basis by zero-padding the new coordinates."""
        # defined here, not only inherited, so that perfbench can span the
        # kernel backend's prolongation (it wraps VkogaGenerator.prolong)
        return super().prolong(new_rb_rom)
