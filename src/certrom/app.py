"""User-facing drivers: assembling the full surrogate stack from a problem,
the Monte Carlo estimator loop, and telemetry export."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .adaptive import AdaptiveModel, EvalRecord
from .core import ConfigError, time_average
from .fom import FomProblem, FullOrderModel
from .hapod import HapodConfig, RbGenerator
from .kernels import KernelConfig, VkogaGenerator
from .mlp import DnnGenerator, TrainConfig


def make_adaptive_model(
    problem: FomProblem,
    eps: float,
    ml_backend: str = "vkoga",
    retrain: str = "per_extend",
    batch_threshold: int = 200,
    hapod: HapodConfig = HapodConfig(),
    seed: int = 0,
    hidden=(128, 128, 128, 128),
) -> AdaptiveModel:
    """Wire up FOM, basis generator and learned-model generator into one
    adaptive model. retrain is either "per_extend" or "batch" (trainings happen
    once batch_threshold new samples accumulated)."""
    if ml_backend not in ("vkoga", "mlp"):
        raise ConfigError(f"ml backend: expected 'vkoga' or 'mlp', got {ml_backend!r}")
    if retrain not in ("per_extend", "batch"):
        raise ConfigError(f"retrain policy: expected 'per_extend' or 'batch', got {retrain!r}")
    threshold = 1 if retrain == "per_extend" else batch_threshold
    fom = FullOrderModel(problem)
    rb_gen = RbGenerator(fom, eps, hapod=hapod)
    rb_rom = rb_gen.precompute()
    if ml_backend == "vkoga":
        ml_gen = VkogaGenerator(rb_rom, KernelConfig(), pending_threshold=threshold)
    else:
        ml_gen = DnnGenerator(
            rb_rom, hidden=hidden, config=TrainConfig(seed=seed), pending_threshold=threshold
        )
    return AdaptiveModel(fom, rb_gen, ml_gen, eps)


@dataclass
class McReport:
    """Running Monte Carlo estimate of the time-averaged output."""

    n_samples: int
    mean: float
    variance: float
    records: list = field(default_factory=list)
    ml_fraction_per_window: list = field(default_factory=list)


def monte_carlo(model: AdaptiveModel, n_samples: int, window, seed: int = 0) -> McReport:
    """Uniformly sample the parameter box and estimate mean and unbiased
    variance of the window-averaged output with a one-pass update."""
    if n_samples < 2:
        raise ValueError("Monte Carlo needs at least two samples")
    rng = np.random.default_rng(seed)
    records = []
    mean = 0.0
    m2 = 0.0
    first_record = len(model.records)
    for i in range(n_samples):
        mu = model.box.sample(rng)
        signal, rec = model.query(mu)
        value = time_average(signal, window)
        rec.value = value
        records.append(rec)
        delta = value - mean
        mean += delta / (i + 1)
        m2 += delta * (value - mean)
    variance = m2 / (n_samples - 1)
    windows = _ml_fraction_windows(records, model, first_record)
    return McReport(n_samples, mean, variance, records, windows)


def _ml_fraction_windows(records, model: AdaptiveModel, offset: int) -> list:
    """Fraction of learned-tier answers between consecutive ML trainings."""
    boundaries = sorted(
        e["index"] - offset + 1
        for e in model.events
        if e["kind"] == "ml_train" and e["index"] >= offset
    )
    edges = [0] + [b for b in boundaries if 0 < b < len(records)] + [len(records)]
    fractions = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            chunk = records[lo:hi]
            fractions.append(sum(r.tier == "ml" for r in chunk) / len(chunk))
    return fractions


# evals.csv has one column per EvalRecord field, in declaration order, with
# mu spread over p columns and a leading row index; a cell is formatted by its
# field's annotation (a string: adaptive postpones annotation evaluation)
_SCALAR_FIELDS = fields(EvalRecord)[1:]
_PHASES = tuple(f.name for f in _SCALAR_FIELDS if f.name.startswith("t_"))
_CELL = {"str": str, "int": str, "float": lambda v: repr(float(v))}


def telemetry_header(p: int) -> str:
    mus = [f"mu_{i}" for i in range(p)]
    return ",".join(["index", *mus, *(f.name for f in _SCALAR_FIELDS)])


def export_telemetry(records: list, out_dir, events: Optional[list] = None) -> dict:
    """Write evals.csv (one row per record, documented header) and summary.json
    (tier fractions, total phase times, events); returns the summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    p = records[0].mu.size if records else 0
    lines = [telemetry_header(p)]
    for i, rec in enumerate(records):
        cells = [str(i)]
        cells.extend(repr(float(v)) for v in rec.mu)
        cells.extend(_CELL[f.type](getattr(rec, f.name)) for f in _SCALAR_FIELDS)
        lines.append(",".join(cells))
    with open(os.path.join(out_dir, "evals.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    n = len(records)
    counts = {tier: sum(r.tier == tier for r in records) for tier in ("ml", "rb", "fom")}
    times = {name: float(sum(getattr(r, name) for r in records)) for name in _PHASES}
    summary = {
        "n_evals": n,
        "tier_counts": counts,
        "tier_fractions": {k: (v / n if n else 0.0) for k, v in counts.items()},
        "total_times": times,
        "basis_dim_final": records[-1].basis_dim if records else 0,
        "events": events or [],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
