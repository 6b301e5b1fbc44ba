"""Derivative-free misfit minimization over the adaptive model: a box-clipped
Nelder-Mead simplex, optionally steered by the stagnation-driven tolerance
controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import blas
from .adaptive import AdaptiveModel, StagnationConfig, StagnationDetector, apply_tolerance_drop
from .core import OutputSignal, ParameterBox, check_count, l2_time_norm, linf_time_norm


# the standard simplex coefficients
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5


@dataclass(frozen=True)
class NelderMeadConfig:
    initial_point: np.ndarray
    xatol: float = 1e-4
    fatol: float = 1e-7
    max_evals: int = 400

    def __post_init__(self):
        object.__setattr__(self, "initial_point", np.asarray(self.initial_point, dtype=float))
        if not (self.xatol > 0 and self.fatol > 0):  # also rejects NaN
            raise ValueError("convergence tolerances must be positive")
        check_count("evaluation budget max_evals", self.max_evals, 1)

    def start(self, box: ParameterBox) -> np.ndarray:
        """The initial point clipped into the box; raises ValueError unless it
        has one entry per parameter (a shorter one would broadcast)."""
        if self.initial_point.shape != (box.dim,):
            raise ValueError(f"initial_point must have shape ({box.dim},), got {self.initial_point.shape}")
        return box.clip(self.initial_point)


@dataclass
class NelderMeadResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


def nelder_mead(
    objective: Callable,
    box: ParameterBox,
    config: NelderMeadConfig,
    values_invalidated: Optional[Callable[[], bool]] = None,
) -> NelderMeadResult:
    """Standard simplex iteration; every candidate is clipped into the box
    before evaluation. Stops when the simplex collapses below xatol and the
    value spread below fatol, or when the evaluation budget runs out.

    When ``values_invalidated`` reports that the objective definition changed
    (the adaptive tolerance was lowered mid-run), the current simplex values
    are re-evaluated so the iteration continues against the refined model
    instead of stale vertex heights.
    """
    cfg = config
    dim = box.dim
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(objective(x))

    def seed(center):
        points = [center]
        for i in range(dim):
            step = 0.05 * center[i] if center[i] != 0.0 else 0.00025
            point = center.copy()
            point[i] += step
            point = box.clip(point)
            if np.allclose(point, center):
                point = center.copy()
                point[i] -= step
                point = box.clip(point)
            points.append(point)
        return points

    simplex = seed(cfg.start(box))
    values = [f(p) for p in simplex]

    converged = False
    while evals < cfg.max_evals:
        if values_invalidated is not None and values_invalidated():
            # the model was refined: re-measure the vertices, then re-open the
            # search around the incumbent best (a collapsed simplex cannot
            # explore the refined landscape)
            values = [f(p) for p in simplex]
            best = simplex[int(np.argmin(values))]
            simplex = seed(best)
            values = [values[int(np.argmin(values))]] + [f(p) for p in simplex[1:]]
            if evals >= cfg.max_evals:
                break
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        spread_x = max(np.max(np.abs(p - simplex[0])) for p in simplex[1:])
        spread_f = max(abs(v - values[0]) for v in values[1:])
        if spread_x <= cfg.xatol and spread_f <= cfg.fatol:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = box.clip(centroid + REFLECTION * (centroid - worst))
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = box.clip(centroid + EXPANSION * (centroid - worst))
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = box.clip(centroid + CONTRACTION * (simplex[-1] - centroid))
        fc = f(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        simplex = [best] + [box.clip(best + SHRINK * (p - best)) for p in simplex[1:]]
        values = [values[0]] + [f(p) for p in simplex[1:]]

    best = int(np.argmin(values))
    return NelderMeadResult(simplex[best], values[best], evals, converged)


@dataclass
class OptimizeReport:
    final_mu: np.ndarray
    final_objective: float
    n_evals: int
    converged: bool
    records: list = field(default_factory=list)
    tolerance_events: list = field(default_factory=list)


@blas.scope()
def optimize_misfit(
    model,
    reference: OutputSignal,
    nm_config: NelderMeadConfig,
    stagnation: Optional[StagnationConfig] = None,
) -> OptimizeReport:
    """Minimize the max-in-time misfit against a reference output signal.

    ``model`` is either an AdaptiveModel (telemetry captured per evaluation,
    adaptive tolerance applied when a stagnation config is given) or any plain
    model exposing eval_output (the reference mode without surrogates).
    """
    adaptive = model if isinstance(model, AdaptiveModel) else None
    box = adaptive.box if adaptive is not None else model.problem.box

    detector = None
    events = []
    if stagnation is not None:
        if adaptive is None:
            raise ValueError("adaptive tolerance needs an adaptive model")
        adaptive.eps = stagnation.eps0 if stagnation.eps0 is not None else l2_time_norm(reference)
        detector = StagnationDetector(stagnation)

    records = []
    pending_refresh = [False]

    def objective(mu):
        if adaptive is not None:
            signal, rec = adaptive.query(mu)
        else:
            signal = model.eval_output(mu)
            rec = None
        value = linf_time_norm(reference - signal)
        if rec is not None:
            rec.value = value
            records.append(rec)
        if detector is not None and detector.update(value):
            new_eps = adaptive.eps / stagnation.divisor
            dropped = apply_tolerance_drop(adaptive, new_eps)
            events.append({"eval_index": len(records), "eps": new_eps, "dropped": dropped})
            pending_refresh[0] = True
        return value

    def values_invalidated():
        flagged = pending_refresh[0]
        pending_refresh[0] = False
        return flagged

    result = nelder_mead(objective, box, nm_config, values_invalidated=values_invalidated)
    return OptimizeReport(
        final_mu=result.x,
        final_objective=result.fun,
        n_evals=result.n_evals,
        converged=result.converged,
        records=records,
        tolerance_events=events,
    )
