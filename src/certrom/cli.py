"""Command line entry point: solve / optimize / mc / validate / info."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import app
from .adaptive import StagnationConfig
from .core import ConfigError, NumericalError, check_count, l2_time_norm
from .fom import FullOrderModel
from .hapod import RbGenerator
from .optimize import NelderMeadConfig, optimize_misfit
from .problems import from_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certrom",
        description="Certified adaptive surrogate hierarchy for parabolic input-output maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--eps", type=float, default=None, help="override the model tolerance")
        p.add_argument("--ml", choices=("vkoga", "mlp"), default=None, help="override the ML backend")

    p = sub.add_parser("solve", help="evaluate one output signal and write it as CSV")
    common(p)
    p.add_argument("--mu", required=True, help="comma separated parameter values")
    p.add_argument("--model", choices=("fom", "adaptive"), default="fom")

    p = sub.add_parser("optimize", help="misfit minimization against the configured reference")
    common(p)
    p.add_argument("--adaptive-eps", action="store_true", help="use the stagnation-driven tolerance")
    p.add_argument("--max-evals", type=int, default=None)

    p = sub.add_parser("mc", help="Monte Carlo estimation of the window-averaged output")
    common(p)
    p.add_argument("--n-mc", type=int, default=None)

    p = sub.add_parser("validate", help="estimator effectivity study: true error vs estimate")
    common(p)
    p.add_argument("--n-train", type=int, default=3)
    p.add_argument("--n-test", type=int, default=10)

    p = sub.add_parser("info", help="echo the parsed configuration and problem facts")
    common(p)
    return parser


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    if "problem" not in cfg:
        raise ConfigError(f"config {path}: missing 'problem' section")
    return cfg


def _settings(cfg: dict, args) -> dict:
    out = {
        "eps": cfg.get("eps", 1e-2),
        "ml": cfg.get("ml", "vkoga"),
        "seed": cfg.get("seed", 0),
        "retrain": cfg.get("retrain", "per_extend"),
        "batch_threshold": cfg.get("batch_threshold", 200),
    }
    if args.eps is not None:
        out["eps"] = args.eps
    if args.ml is not None:
        out["ml"] = args.ml
    if args.seed is not None:
        out["seed"] = args.seed
    return out


def _make_model(problem, settings):
    return app.make_adaptive_model(
        problem,
        eps=settings["eps"],
        ml_backend=settings["ml"],
        retrain=settings["retrain"],
        batch_threshold=settings["batch_threshold"],
        seed=settings["seed"],
    )


def _cmd_solve(args, cfg, problem, settings) -> int:
    try:
        mu = np.array([float(tok) for tok in args.mu.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--mu: {exc}") from exc
    if args.model == "fom":
        signal = FullOrderModel(problem).eval_output(mu)
    else:
        signal = _make_model(problem, settings).eval_output(mu)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "signal.csv")
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(signal.grid.nodes, signal.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
    print(path)
    return 0


def _stagnation_config(cfg, problem) -> StagnationConfig:
    """The JSON "stagnation" object over the StagnationConfig defaults; the
    running-average width defaults to twice the parameter count."""
    try:
        return StagnationConfig(**{"n_av": 2 * problem.box.dim, **cfg.get("stagnation", {})})
    except TypeError as exc:
        raise ConfigError(f"stagnation: {exc}") from exc


def _cmd_optimize(args, cfg, problem, settings) -> int:
    stagnation = None
    if args.adaptive_eps or cfg.get("adaptive_eps", False):
        stagnation = _stagnation_config(cfg, problem)
    mu0 = np.asarray(cfg.get("initial_mu", problem.box.center), dtype=float)
    nm = NelderMeadConfig(
        initial_point=mu0,
        max_evals=args.max_evals if args.max_evals is not None else cfg.get("max_evals", 400),
    )
    nm.start(problem.box)  # rejects a wrong-length initial_mu before any full-order solve
    model = _make_model(problem, settings)  # rejects a bad setting before any full-order solve
    mu_ref = np.asarray(cfg.get("reference_mu", problem.box.center), dtype=float)
    reference = FullOrderModel(problem).eval_output(mu_ref)
    report = optimize_misfit(model, reference, nm, stagnation)
    summary = app.export_telemetry(report.records, args.out, events=model.events)
    result = {
        "final_mu": [float(v) for v in report.final_mu],
        "final_objective": report.final_objective,
        "n_evals": report.n_evals,
        "converged": report.converged,
        "tolerance_events": report.tolerance_events,
        "tier_counts": summary["tier_counts"],
    }
    with open(os.path.join(args.out, "optimize.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_mc(args, cfg, problem, settings) -> int:
    n_mc = args.n_mc if args.n_mc is not None else cfg.get("n_mc", 100)
    check_count("n_mc", n_mc, 2)
    model = _make_model(problem, settings)
    window = tuple(cfg.get("window", (0.9 * problem.time_grid.t_end, problem.time_grid.t_end)))
    report = app.monte_carlo(model, n_mc, window, seed=settings["seed"])
    app.export_telemetry(report.records, args.out, events=model.events)
    result = {
        "n_samples": report.n_samples,
        "mean": report.mean,
        "variance": report.variance,
        "ml_fraction_per_window": report.ml_fraction_per_window,
    }
    with open(os.path.join(args.out, "mc.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_validate(args, cfg, problem, settings) -> int:
    """Build a small reduced model and tabulate true output error vs estimate."""
    fom = FullOrderModel(problem)
    rng = np.random.default_rng(settings["seed"])
    gen = RbGenerator(fom, settings["eps"])
    for _ in range(args.n_train):
        gen.extend(problem.box.sample(rng))
    rom = gen.precompute()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "effectivity.csv")
    rows = ["mu,true_error,estimate,effectivity"]
    violations = 0
    for _ in range(args.n_test):
        mu = problem.box.sample(rng)
        traj = rom.eval_state(mu)
        estimate = rom.est_output_for(traj, mu)
        true_err = l2_time_norm(fom.eval_output(mu) - rom.output_of(traj))
        eff = estimate / true_err if true_err > 0 else float("inf")
        if true_err > estimate:
            violations += 1
        rows.append(f"{';'.join(repr(float(v)) for v in mu)},{true_err!r},{estimate!r},{eff!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(path)
    if violations:
        print(f"{violations} estimator violations", file=sys.stderr)
        return 2
    return 0


def _cmd_info(args, cfg, problem, settings) -> int:
    info = {
        "problem": cfg["problem"],
        "settings": settings,
        "num_dofs": problem.dim,
        "num_time_nodes": problem.time_grid.num_nodes,
        "t_end": problem.time_grid.t_end,
        "num_parameters": problem.box.dim,
        "parameter_names": list(problem.parameter_names),
        "box_lower": [float(v) for v in problem.box.lower],
        "box_upper": [float(v) for v in problem.box.upper],
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "mc": _cmd_mc,
    "validate": _cmd_validate,
    "info": _cmd_info,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _load_config(args.config)
        problem = from_config(cfg["problem"])
        settings = _settings(cfg, args)
        return _COMMANDS[args.command](args, cfg, problem, settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
