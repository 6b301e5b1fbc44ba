"""Certified-query benchmark of certrom.

Run from the repository root:

    python3 perfbench/run.py --workload mc-reactive --seed 0 --seconds 45 --trace 0

Each workload is a closed loop with one caller (every query waits for the
previous answer) driven through the public API on a fresh model. The query
streams are fixed designs, so tier counts, counters and digests repeat across
runs; the seed picks which answered queries the certification audit re-solves
with the full-order model. With ``--trace 0`` the run is repeated on fresh
models while the process is predicted to end within ``--seconds`` seconds (at
least once) and the end-to-end metrics are medians over the repetitions; with
``--trace 1`` one run is traced span by span and the per-layer metrics are
reported. The last stdout line is the result object;
the line before it holds the environment, counters and digests, which are
also written with the spans under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def set_blas_threads():
    """BLAS threads = usable cores, whatever the caller's environment says;
    must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(nproc())


def import_certrom():
    """The library under test, from this checkout's sources and nowhere else."""
    if not (SRC / "certrom" / "__init__.py").is_file():
        raise SystemExit(f"error: no certrom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import certrom

    if Path(certrom.__file__).resolve().parent != SRC / "certrom":
        raise SystemExit(f"error: certrom imported from {certrom.__file__}, not {SRC}")
    return certrom


# -- environment ---------------------------------------------------------------
def blas_libraries() -> list:
    """Loaded OpenBLAS libraries and their current thread counts."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        threads = None
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_steal_s() -> float:
    """Time the hypervisor ran other guests on this machine's CPUs (summed)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "certrom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "loaded": blas_libraries()},
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# -- per-run records -------------------------------------------------------------
def determinism(run) -> dict:
    """Counters and digests that must repeat exactly for the same workload."""
    import numpy as np

    tiers = [r.tier for r in run.records]
    values = np.array([r.value for r in run.records], dtype=float)
    signals = hashlib.sha256()
    for v in run.signals:
        signals.update(np.ascontiguousarray(v, dtype=float).tobytes())
    report = run.report
    out = {
        "queries": len(run.records),
        "tiers": {t: tiers.count(t) for t in ("ml", "rb", "fom")},
        "basis_dim_final": run.records[-1].basis_dim if run.records else 0,
        "ml_size_final": run.records[-1].ml_size if run.records else 0,
        "tier_digest": hashlib.sha256(",".join(tiers).encode()).hexdigest()[:16],
        "value_digest": hashlib.sha256(values.tobytes()).hexdigest()[:16],
        "signal_digest": signals.hexdigest()[:16],
        "eps_sequence_digest": hashlib.sha256(
            np.array([r.eps for r in run.records]).tobytes()
        ).hexdigest()[:16],
    }
    if hasattr(report, "n_evals"):
        out.update(evals=report.n_evals, converged=report.converged,
                   final_objective=repr(float(report.final_objective)),
                   tolerance_events=len(report.tolerance_events))
    elif report is not None:
        out.update(mc_mean=repr(float(report.mean)), mc_variance=repr(float(report.variance)))
    return out


def audit(problem, run, count: int, seed: int) -> dict:
    """Re-solve a seeded subset of answered queries with the FOM and compare
    the L2(0, T) output error against the eps active at that query and
    against the bound the answering tier certified it with."""
    import numpy as np

    import certrom.core
    import certrom.fom

    fom = certrom.fom.FullOrderModel(problem)
    answered = len(run.signals)
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(answered, size=min(count, answered), replace=False)) if answered else []
    errors, bounds, violations, ratios = [], [], 0, []
    for i in picks:
        rec = run.records[i]
        truth = fom.eval_output(rec.mu)
        error = certrom.core.l2_time_norm(
            certrom.core.OutputSignal(truth.grid, truth.values - run.signals[i])
        )
        bound = rec.delta_ml if rec.tier == "ml" else rec.delta_rb
        violations += error > rec.eps or error > bound
        ratios.append(error / rec.eps)
        errors.append(error)
        bounds.append(bound)
    effectivities = [b / e for b, e in zip(bounds, errors) if e > 0.0]
    return {
        "checked": len(picks),
        "indices": [int(i) for i in picks],
        "violations": int(violations),
        "max_error_over_eps": float(max(ratios, default=0.0)),
        "effectivity_min": float(min(effectivities, default=0.0)),
        "effectivity_median": float(np.median(effectivities)) if effectivities else 0.0,
        "errors": errors,
        "bounds": bounds,
    }


def end_to_end(setup_times: list, runs: list):
    """Medians over the repetitions; the latency percentile over all their queries."""
    import numpy as np

    per_run = []
    for run in runs:
        n = len(run.ends)
        tail = max(1, n // 4)
        per_run.append({
            "time_to_solution_s": run.seconds,
            "queries_per_s": n / run.seconds,
            "tail_queries_per_s": tail / (run.ends[-1] - run.starts[n - tail]),
        })
    out = {k: float(np.median([m[k] for m in per_run])) for k in per_run[0]}
    latencies = np.concatenate([np.array(r.ends) - np.array(r.starts[: len(r.ends)]) for r in runs])
    out["query_p90_ms"] = float(np.percentile(latencies, 90) * 1e3)
    out["setup_s"] = float(np.median(setup_times))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tiers = [r.tier for r in runs[0].records]
    out["fom_tier_frac"] = tiers.count("fom") / len(tiers)
    return out, per_run


# -- modes --------------------------------------------------------------------------
def measure(workload, seconds: float, seed: int):
    """Untraced: fresh-model runs, repeated while the next one is predicted to
    end within `seconds` of the process start (at least one). The first run is
    audited as soon as it ends, so the audit counts against the same budget."""
    from workloads import execute

    workload.warmup(workload.setup())
    setup_times = []

    def timed_setup():
        gc.collect()
        tic = time.perf_counter()
        s = workload.setup()
        setup_times.append(time.perf_counter() - tic)
        return s

    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        timed_setup()
    runs, steals, checked = [], [], None
    while True:
        tic = time.perf_counter()
        s = timed_setup()
        steal = cpu_steal_s()
        runs.append(execute(workload, s))
        steals.append(cpu_steal_s() - steal)
        repetition_s = time.perf_counter() - tic
        if checked is None:
            checked = audit(s.problem, runs[0], workload.audits, seed)
        del s
        if runs[-1].error or time.perf_counter() - STARTED + repetition_s > seconds:
            break
    metrics, per_run = ({}, []) if runs[-1].error else end_to_end(setup_times, runs)
    for figures, steal in zip(per_run, steals):
        figures["cpu_steal_s"] = steal
    extra = {"setup_times": setup_times, "per_run": per_run}
    return runs, metrics, checked, extra


def trace(workload, seed: int, spans_path: Path):
    """Traced: one fresh-model run with every layer boundary spanned."""
    from layers import layer_metrics
    from tracer import Tracer, wrapper_cost_s
    from workloads import execute

    workload.warmup(workload.setup())
    tracer = Tracer()
    tracer.install()
    try:
        s = workload.setup()
        run_start = len(tracer.names)
        run = execute(workload, s)
    finally:
        tracer.restore()
    checked = audit(s.problem, run, workload.audits, seed)
    metrics = layer_metrics(tracer, run_start, s, run, checked, wrapper_cost_s())
    tracer.write(spans_path)
    return [run], metrics, checked, {"spans": spans_path.name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    set_blas_threads()
    import_certrom()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runs, metrics, checked, extra = trace(workload, args.seed, stem.with_suffix(".spans.csv"))
    else:
        runs, metrics, checked, extra = measure(workload, args.seconds, args.seed)

    records = [determinism(r) for r in runs]
    problems = [r.error for r in runs if r.error]
    if any(rec != records[0] for rec in records):
        problems.append("counters or digests differ between repetitions")
    if checked["violations"]:
        problems.append(f"{checked['violations']} audited answers exceed their eps or bound")
    if not problems:
        problems.extend(p for p in (workload.check(r.report) for r in runs) if p)
    if not problems and set(metrics) != set(units):
        problems.append(f"metrics do not match BENCHMARK.json {section}: "
                        f"{sorted(set(metrics) ^ set(units))}")

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "determinism": records[0], "audit": checked,
        "problems": problems, **extra,
    }
    stem.with_suffix(".json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(detail, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": sum(len(r.starts) for r in runs),
        "failed": sum(len(r.starts) - len(r.ends) for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
