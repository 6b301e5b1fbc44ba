"""The adaptive tolerance-cascade model: answer each query with the cheapest
surrogate whose certified error passes the tolerance, enriching the reduced
basis and the learned predictor on the fly; plus the stagnation-driven
tolerance controller used during optimization."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blas
from .core import NumericalError, OutputSignal, Trajectory, check_count
from .rb import SpannedTrajectory

TIER_ML = "ml"
TIER_RB = "rb"
TIER_FOM = "fom"


@dataclass
class EvalRecord:
    """Per-query provenance: which tier answered, the certified bounds seen,
    and wall time spent in each phase."""

    mu: np.ndarray
    tier: str
    delta_ml: float
    delta_rb: float
    eps: float
    t_ml_est: float = 0.0
    t_ml_eval: float = 0.0
    t_rb_est: float = 0.0
    t_rb_eval: float = 0.0
    t_fom: float = 0.0
    t_rb_build: float = 0.0
    t_ml_build: float = 0.0
    basis_dim: int = 0
    ml_size: int = 0
    value: float = float("nan")


class AdaptiveModel:
    """Certified adaptive surrogate hierarchy over one full-order model.

    Queries are answered by the learned model, the reduced model, or (after
    enriching both) the freshly extended reduced model; every returned output
    is certified within the current tolerance in the discrete L2(0, T) norm.
    Queries are strictly sequential: enrichment mutates the shared surrogates.
    The model holds only the two generators and reads the rest through them,
    so a query that raises leaves a model that answers the next one.
    """

    def __init__(self, rb_generator, ml_generator):
        self.rb_generator = rb_generator
        rb_rom = rb_generator.precompute()
        if ml_generator.rb_rom is not rb_rom:
            ml_generator = ml_generator.prolong(rb_rom)
        self.ml_generator = ml_generator
        self.records: list = []
        self.events: list = []

    @property
    def eps(self) -> float:
        """The active tolerance. Its one stored copy is the reduced-basis
        generator's, so enrichment certifies against the same value."""
        return self.rb_generator.eps

    @eps.setter
    def eps(self, value: float):
        self.rb_generator.eps = value

    @property
    def rb_rom(self):  # the certified reduced model the learned tier is carried on
        return self.ml_generator.rb_rom

    @property
    def ml_rom(self):
        return self.ml_generator.current_model()

    @property
    def box(self):
        return self.rb_generator.fom.problem.box

    @blas.scope()
    def query(self, mu):
        """Certified output signal plus the provenance record."""
        mu = self.box.validate(mu)
        rec = EvalRecord(mu=mu.copy(), tier="", delta_ml=np.inf, delta_rb=np.inf, eps=self.eps)

        def certify(traj):
            # the current reduced model and temporal basis: enrichment replaces the one and grows the other
            return self.rb_rom.est_output_for(traj, mu, self.ml_generator.temporal)

        tic = time.perf_counter()
        ml_traj = self.ml_rom.eval_state(mu)
        rec.delta_ml = certify(ml_traj)
        rec.t_ml_est = time.perf_counter() - tic

        if rec.delta_ml <= self.eps:
            rec.tier = TIER_ML
            self.ml_generator.answered()
            tic = time.perf_counter()
            answer = self.rb_rom.output_of(ml_traj)
            rec.t_ml_eval = time.perf_counter() - tic
            return answer, self._finish(rec)

        for tier in (TIER_RB, TIER_FOM):
            if tier == TIER_FOM:  # the reduced model failed: enrich it with full-order data
                self._enrich(mu, rec)
            tic = time.perf_counter()
            rb_traj = self.rb_rom.eval_state(mu)
            rec.t_rb_eval += time.perf_counter() - tic
            tic = time.perf_counter()
            rb_traj = self.ml_generator.temporal.project(rb_traj)  # once, for the estimate and the store
            rec.delta_rb = certify(rb_traj)
            rec.t_rb_est += time.perf_counter() - tic
            if rec.delta_rb <= self.eps:
                rec.tier = tier
                self._learn(mu, rb_traj, rec)
                return self.rb_rom.output_of(rb_traj), self._finish(rec)
        raise NumericalError("enrichment failed")

    def _enrich(self, mu, rec: EvalRecord):
        """Stream the full-order trajectory at mu into the reduced basis,
        rebuild the reduced model, and carry the learned tier onto it."""
        tic = time.perf_counter()
        self.rb_generator.extend(mu)
        rec.t_fom = time.perf_counter() - tic
        tic = time.perf_counter()
        rb_rom = self.rb_generator.precompute()
        rec.t_rb_build = time.perf_counter() - tic
        self.events.append({"kind": "rb_enrich", "index": len(self.records), "basis_dim": rb_rom.dim})
        tic = time.perf_counter()
        self.ml_generator = self.ml_generator.prolong(rb_rom)
        rec.t_ml_build = time.perf_counter() - tic

    def _learn(self, mu, traj: Trajectory, rec: EvalRecord):
        """Hand a certified reduced trajectory to the learned tier and refit
        it when due; the time counts as learned-model build time."""
        tic = time.perf_counter()
        self.ml_generator.extend(mu, trajectory=traj)
        self._refit()
        rec.t_ml_build += time.perf_counter() - tic

    def _refit(self, force: bool = False):
        """Refit the learned tier when due (or forced), logging each fit as an
        ``ml_train`` event with the generator's report of its work, and each
        doubling of its retrain interval as an ``ml_backoff`` event."""
        gen = self.ml_generator
        trainings, interval = gen.trainings, gen.refit_interval
        gen.precompute(force)
        if gen.refit_interval > interval:
            self.events.append({"kind": "ml_backoff", "index": len(self.records), "interval": gen.refit_interval})
        if gen.trainings > trainings:
            self.events.append({"kind": "ml_train", "index": len(self.records), **gen.last_fit})

    def _finish(self, rec: EvalRecord) -> EvalRecord:
        rec.basis_dim = self.rb_rom.dim
        rec.ml_size = self.ml_rom.size
        self.records.append(rec)
        return rec

    def eval_output(self, mu) -> OutputSignal:
        return self.query(mu)[0]


@dataclass(frozen=True)
class StagnationConfig:
    """Stagnation detection for the adaptive tolerance: a running average of
    the objective, its regression slope, and two descent-rate thresholds."""

    n_av: int
    n_stag: int = 10
    eps_slope: float = -1e-15
    eps_slope_rel: float = 5e-5
    divisor: float = 10.0
    eps0: Optional[float] = None

    def __post_init__(self):
        check_count("n_av", self.n_av, 2)
        check_count("n_stag", self.n_stag, 0)
        if not self.divisor > 1.0:  # also rejects NaN
            raise ValueError("tolerance divisor must exceed 1")
        if not (np.isfinite(self.eps_slope) and np.isfinite(self.eps_slope_rel)):
            raise ValueError("descent-rate thresholds must be finite")


class StagnationDetector:
    """Detects objective stagnation over consecutive model evaluations.

    The descent rate is the negated least-squares slope of the running average
    (width n_av) over the last n_av averaged points; stagnation is flagged when
    the rate (or the rate normalized by J_current / J_initial) stays below its
    threshold for more than n_stag consecutive evaluations. It keeps no
    tolerance: the caller lowers its own by ``config.divisor``.
    """

    def __init__(self, config: StagnationConfig):
        self.config = config
        self.initial_objective: Optional[float] = None
        self.history: list = []
        self.consecutive = 0

    def update(self, objective_value: float) -> bool:
        """Feed one objective evaluation; returns whether a stagnation completed."""
        cfg = self.config
        value = float(objective_value)
        if self.initial_objective is None:
            self.initial_objective = value
        self.history.append(value)
        if len(self.history) < 2 * cfg.n_av - 1:
            return False
        averaged = np.convolve(self.history, np.ones(cfg.n_av) / cfg.n_av, mode="valid")
        window = averaged[-cfg.n_av :]
        x = np.arange(cfg.n_av, dtype=float)
        slope = np.polyfit(x, window, 1)[0]
        rate = -slope
        ratio = value / self.initial_objective if self.initial_objective != 0.0 else 1.0
        normalized = rate / ratio if ratio != 0.0 else np.inf
        if rate < cfg.eps_slope or normalized < cfg.eps_slope_rel:
            self.consecutive += 1
        else:
            self.consecutive = 0
        if self.consecutive > cfg.n_stag:
            self.consecutive = 0
            self.history = []  # the old plateau must not re-trigger on the new model
            return True
        return False


def apply_tolerance_drop(model: AdaptiveModel, new_eps: float) -> int:
    """Lower the model tolerance and discard learned training samples whose
    stored prediction no longer certifies; returns the number dropped."""
    if not new_eps < model.eps:
        raise ValueError("new tolerance must be strictly smaller")
    model.eps = float(new_eps)
    gen = model.ml_generator
    rom = model.rb_rom
    temporal = gen.temporal
    dropped = gen.discard(  # certified from the stored coordinates, no trajectory rebuilt
        rom.est_output_for(SpannedTrajectory(temporal, coords), mu, temporal) <= new_eps
        for mu, coords in gen.samples
    )
    model.events.append(
        {"kind": "eps_drop", "index": len(model.records), "eps": new_eps, "dropped": dropped}
    )
    if dropped and gen.samples:
        model._refit(force=True)
    return dropped
