"""Per-layer metrics of one traced run: counts, busy and self times from the
spans, end-of-run model sizes, and the useful/attempt ratios.

Which end-to-end metric each layer should move, and on which workload, is
recorded in perfbench/README.md.
"""

from __future__ import annotations

import numpy as np

import certrom.kernels

PHASES = ("t_ml_est", "t_ml_eval", "t_rb_est", "t_rb_eval", "t_fom", "t_rb_build", "t_ml_build")


def _frac(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def tier_metrics(records: list) -> dict:
    tiers = [r.tier for r in records]
    n = len(tiers)
    ml, rb, fom = (tiers.count(t) for t in ("ml", "rb", "fom"))
    tail = tiers[n - max(1, n // 4):] if n else []
    return {
        "adaptive.ml_tier_frac": _frac(ml, n),
        "adaptive.fom_tier_frac": _frac(fom, n),
        "adaptive.rb_hit_frac": _frac(rb, rb + fom),
        "adaptive.ml_hit_frac_tail": _frac(tail.count("ml"), len(tail)),
    }


def layer_metrics(tracer, run_start: int, setup, run, audit: dict, overhead_s: float) -> dict:
    names, dur, self_t, parents = tracer.arrays()
    in_run = np.arange(len(names)) >= run_start

    def spans(name, where=in_run):
        return (names == name) & where

    def total(name, where=in_run):
        return float(dur[spans(name, where)].sum())

    def self_total(name):
        return float(self_t[spans(name)].sum())

    def count(name):
        return int(spans(name).sum())

    def p50_ms(mask):
        return float(np.median(dur[mask]) * 1e3) if mask.any() else 0.0

    parent_names = np.array([names[p] if p >= 0 else "" for p in parents], dtype=object)
    top_estimates = spans("rb.estimate") & (parent_names != "rb.estimate")
    factorizations = np.flatnonzero(spans("fom.factorize"))
    retries = sum(tracer.has_ancestor(int(i), "hapod.precompute") for i in factorizations)

    model = setup.model
    rom, gen = model.rb_rom, model.ml_generator
    vkoga = isinstance(gen, certrom.kernels.VkogaGenerator)
    samples = len(gen.samples)
    K = rom.time_grid.num_nodes
    counts = tracer.counts
    events = model.events
    drops = [e for e in events if e["kind"] == "eps_drop"]
    report = run.report
    optimizing = hasattr(report, "n_evals")
    attempted = len(run.starts)

    out = {
        "fom.solves": count("fom.factorize"),
        "fom.steps": count("fom.step"),
        "fom.factorize_s": total("fom.factorize"),
        "fom.step_s": total("fom.step"),
        "hapod.extend_calls": count("hapod.extend"),
        "hapod.extend_self_s": self_total("hapod.extend"),
        "hapod.compress_s": total("hapod.compress"),
        "hapod.gram_schmidt_s": total("hapod.gram_schmidt"),
        "hapod.retry_solves": retries,
        "hapod.peak_full_vectors": model.rb_generator.peak_full_vectors,
        "hapod.basis_growth_frac": _frac(counts["growing_extends"], count("hapod.extend")),
        "rb.assemble_s": total("rb.assemble"),
        "rb.estimator_append_s": total("rb.estimator_append"),
        "rb.estimator_range_dim": int(rom.estimator.factor.shape[1]),
        "rb.basis_dim_final": rom.dim,
        "rb.solve_calls": count("rb.solve"),
        "rb.solve_s": total("rb.solve"),
        "rb.solve_p50_ms": p50_ms(spans("rb.solve")),
        "rb.estimate_calls": int(top_estimates[in_run].sum()),
        "rb.estimate_s": float(dur[top_estimates & in_run].sum()),
        "rb.estimate_p50_ms": p50_ms(top_estimates & in_run),
        "rb.effectivity_min": audit["effectivity_min"],
        "rb.effectivity_median": audit["effectivity_median"],
        "kernels.fit_calls": count("kernels.fit"),
        "kernels.fit_s": total("kernels.fit"),
        "kernels.precompute_self_s": self_total("kernels.precompute"),
        "kernels.prolong_s": total("kernels.prolong"),
        "kernels.predict_calls": count("kernels.predict"),
        "kernels.predict_s": total("kernels.predict"),
        "kernels.centers_final": model.ml_rom.size if vkoga else 0,
        "kernels.samples_final": samples if vkoga else 0,
        "kernels.useful_fit_frac": _frac(counts["useful_fits"], count("kernels.fit")),
        "kernels.target_bytes_final": samples * K * rom.dim * 8 if vkoga else 0,
        "mlp.train_calls": count("mlp.train"),
        "mlp.train_s": total("mlp.train"),
        "mlp.adam_steps": counts["adam_steps"],
        "mlp.precompute_self_s": self_total("mlp.precompute"),
        "mlp.predict_s": total("mlp.predict"),
        "mlp.parameters": 0 if vkoga else model.ml_rom.size,
        "adaptive.query_self_s": self_total("adaptive.query"),
        "adaptive.query_p50_ms": float(np.median(np.subtract(run.ends, run.starts[: len(run.ends)])) * 1e3),
        **tier_metrics(run.records),
        "adaptive.enrichments": sum(e["kind"] == "rb_enrich" for e in events),
        "adaptive.ml_trainings": gen.trainings,
        "adaptive.tolerance_drop_s": total("adaptive.tolerance_drop"),
        "adaptive.eps_drops": len(drops),
        "adaptive.samples_dropped": sum(e["dropped"] for e in drops),
        "adaptive.failed_frac": _frac(attempted - len(run.ends), attempted),
        "optimize.evals": report.n_evals if optimizing else 0,
        "optimize.self_s": self_total("optimize.run"),
        "optimize.converged": int(report.converged) if optimizing else 0,
        "optimize.final_misfit": float(report.final_objective) if optimizing else 0.0,
        "app.mc_self_s": self_total("app.mc"),
        "app.make_model_s": total("app.make_model", ~in_run),
        "problems.build_s": total("problems.build", ~in_run),
        "audit.answers_checked": audit["checked"],
        "audit.cert_violation_frac": _frac(audit["violations"], audit["checked"]),
        "audit.max_error_over_eps": audit["max_error_over_eps"],
        "trace.spans": int(in_run.sum()),
        # calibrated cost of one wrapper call times the wrapper calls in the run
        "trace.overhead_frac": _frac(overhead_s * (in_run.sum() + counts["adam_steps"]), run.seconds),
    }
    out.update(phase_sums(run.records))
    return out


def phase_sums(records: list) -> dict:
    """Totals of the EvalRecord phase timers, a cross-check of the spans."""
    return {f"phase.{p}_s": float(sum(getattr(r, p) for r in records)) for p in PHASES}
