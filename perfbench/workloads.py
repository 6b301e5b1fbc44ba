"""The benchmark's workloads: each is a fresh problem and adaptive model
(`setup`) and one closed-loop run through the public certrom API (`run`).

Module functions are looked up at call time (``certrom.app.monte_carlo``,
not an imported name) so that the span tracer's patches take effect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import certrom.adaptive
import certrom.app
import certrom.core
import certrom.fom
import certrom.optimize
import certrom.problems

MU_TARGET = (5.005, 10.0)  # opt-reactive: reference parameter
MU_START = (2.0, 10.5)  # opt-reactive: Nelder-Mead initial point
MAX_EVALS = 400
MISFIT_LIMIT = 1e-5  # opt-reactive must end below this objective


@dataclass
class Setup:
    problem: object
    model: certrom.adaptive.AdaptiveModel
    reference: object = None  # opt-reactive: FOM output at MU_TARGET


@dataclass
class Run:
    """One workload run: per-query answers and latencies plus the returned report."""

    records: list = field(default_factory=list)
    signals: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    report: object = None
    seconds: float = 0.0
    error: str = ""


def record_answers(model, run: Run):
    """Keep each answer's output signal and wall-clock span: one instance
    attribute, a clock read and a list append per query (the certification
    audit needs the answered signals, which monte_carlo and optimize_misfit do not return)."""
    query = model.query

    def recorded(mu):
        run.starts.append(time.perf_counter())
        signal, rec = query(mu)
        run.ends.append(time.perf_counter())
        run.signals.append(signal.values)
        return signal, rec

    model.query = recorded


def _window(problem):
    t_end = problem.time_grid.t_end
    return (0.9 * t_end, t_end)


def setup_mc_reactive() -> Setup:
    problem = certrom.problems.build_reactive_flow()
    return Setup(problem, certrom.app.make_adaptive_model(problem, eps=1e-3))


def run_mc_reactive(s: Setup, samples: int = 100):
    return certrom.app.monte_carlo(s.model, samples, _window(s.problem), seed=0)


def setup_opt_reactive() -> Setup:
    problem = certrom.problems.build_reactive_flow()
    reference = certrom.fom.FullOrderModel(problem).eval_output(np.array(MU_TARGET))
    return Setup(problem, certrom.app.make_adaptive_model(problem, eps=1e-3), reference)


def run_opt_reactive(s: Setup, max_evals: int = MAX_EVALS):
    nm = certrom.optimize.NelderMeadConfig(initial_point=np.array(MU_START), max_evals=max_evals)
    stagnation = certrom.adaptive.StagnationConfig(
        n_av=2 * s.problem.box.dim, eps0=certrom.core.l2_time_norm(s.reference)
    )
    return certrom.optimize.optimize_misfit(s.model, s.reference, nm, stagnation)


def setup_mc_building_mlp() -> Setup:
    problem = certrom.problems.build_building()
    model = certrom.app.make_adaptive_model(
        problem, eps=1e-2, ml_backend="mlp", retrain="batch", batch_threshold=8, seed=0
    )
    return Setup(problem, model)


def run_mc_building_mlp(s: Setup, samples: int = 40):
    return certrom.app.monte_carlo(s.model, samples, _window(s.problem), seed=0)


def check_opt(report) -> str:
    """The optimizer must converge to the reference, so stopping early cannot pass for speed."""
    if not report.converged:
        return f"optimizer did not converge within {MAX_EVALS} evaluations"
    if not report.final_objective <= MISFIT_LIMIT:
        return f"final misfit {report.final_objective:.3e} above {MISFIT_LIMIT:.0e}"
    return ""


def check_mc(report) -> str:
    if not (np.isfinite(report.mean) and np.isfinite(report.variance)):
        return "Monte Carlo estimate is not finite"
    return ""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Setup]
    run: Callable[[Setup], object]
    check: Callable[[object], str]
    audits: int  # answered queries re-solved with the FOM per run
    # the start of the run, on a throwaway model: the first queries of a
    # process pay one-time costs (first calls, heap growth) that later runs
    # and long-lived users do not
    warmup: Callable[[Setup], object]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-reactive", setup_mc_reactive, run_mc_reactive, check_mc, 8,
                 lambda s: run_mc_reactive(s, samples=6)),
        Workload("opt-reactive", setup_opt_reactive, run_opt_reactive, check_opt, 8,
                 lambda s: run_opt_reactive(s, max_evals=8)),
        Workload("mc-building-mlp", setup_mc_building_mlp, run_mc_building_mlp, check_mc, 16,
                 lambda s: run_mc_building_mlp(s, samples=10)),
    )
}


def execute(workload: Workload, s: Setup) -> Run:
    """Run the workload on a prepared model; a raised query ends the run and
    is recorded as the failed query."""
    run = Run()
    record_answers(s.model, run)
    tic = time.perf_counter()
    try:
        run.report = workload.run(s)
    except (certrom.core.NumericalError, ValueError, np.linalg.LinAlgError) as exc:
        run.error = f"{type(exc).__name__}: {exc}"
    run.seconds = time.perf_counter() - tic
    run.records = list(s.model.records)
    return run
