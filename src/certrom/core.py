"""Shared types of the model hierarchy: time grids, parameter boxes,
state trajectories, output signals, and the discrete time-signal norms that
every tier (full order, reduced, learned) is measured in."""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails (singular system, lost SPD, ...)."""


class ConfigError(ValueError):
    """Raised for malformed run/problem configuration."""


def check_count(name: str, value, least: int):
    """Raise ValueError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant time nodes 0 = t_1 < ... < t_K = t_end.

    The step is dt = t_end / (K - 1); node k (0-based row k of a trajectory)
    sits at t = k * dt.
    """

    t_end: float
    num_nodes: int

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("time grid needs at least 2 nodes")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")

    @property
    def dt(self) -> float:
        return self.t_end / (self.num_nodes - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The K node times, computed once per grid and read-only."""
        nodes = np.linspace(0.0, self.t_end, self.num_nodes)
        nodes.flags.writeable = False
        return nodes

    def __getstate__(self):
        # a pickle would restore the cached nodes writeable; they are rebuilt instead
        return {k: v for k, v in self.__dict__.items() if k != "nodes"}


@dataclass(frozen=True)
class ParameterBox:
    """Box parameter domain: componentwise bounds lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, mu, tol: float = 1e-12) -> bool:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != self.lower.shape:
            return False
        span = self.upper - self.lower
        return bool(np.all(mu >= self.lower - tol * span) and np.all(mu <= self.upper + tol * span))

    def validate(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        if not self.contains(mu):
            raise ValueError(f"parameter {mu} outside the parameter box")
        return mu

    def clip(self, mu) -> np.ndarray:
        return np.clip(np.asarray(mu, dtype=float), self.lower, self.upper)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def to_unit(self, mu) -> np.ndarray:
        """Affine map of the box onto [0, 1]^p."""
        mu = np.asarray(mu, dtype=float)
        return (mu - self.lower) / (self.upper - self.lower)


@dataclass(frozen=True)
class Trajectory:
    """Coefficient matrix of a state trajectory: row k holds the DoF vector at node k."""

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("trajectory coefficients must be a K x N matrix")
        if c.shape[0] != self.grid.num_nodes:
            raise ValueError("trajectory row count must equal the number of time nodes")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class OutputSignal:
    """Scalar quantity-of-interest signal sampled on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.num_nodes:
            raise ValueError("signal length must equal the number of time nodes")
        object.__setattr__(self, "values", v)

    def __sub__(self, other: "OutputSignal") -> "OutputSignal":
        if other.grid != self.grid:
            raise ValueError("signals live on different time grids")
        return OutputSignal(self.grid, self.values - other.values)


def l2_time_norm(signal: OutputSignal) -> float:
    """Discrete L2(0, T) norm: left-endpoint rectangle rule over the first K-1 nodes.

    This quadrature matches the sum structure of the residual-based error
    estimators, which is what makes the certification inequalities exact
    statements about computable quantities.
    """
    v = signal.values
    return float(np.sqrt(signal.grid.dt * np.sum(v[:-1] ** 2)))


def linf_time_norm(signal: OutputSignal) -> float:
    """Maximum absolute signal value over all time nodes."""
    return float(np.max(np.abs(signal.values)))


def window_mask(grid: TimeGrid, window) -> np.ndarray:
    """Which nodes of the grid lie inside the closed window; raises
    ValueError if none does."""
    lo, hi = float(window[0]), float(window[1])
    mask = (grid.nodes >= lo) & (grid.nodes <= hi)
    if not np.any(mask):
        raise ValueError("empty time window")
    return mask


def time_average(signal: OutputSignal, window) -> float:
    """Arithmetic mean of the signal over nodes inside the closed window.

    Raises ValueError if no node falls inside the window.
    """
    return float(np.mean(signal.values[window_mask(signal.grid, window)]))
