import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from certrom import (
    EvalRecord,
    OptimizeReport,
    StagnationConfig,
    export_telemetry,
    make_adaptive_model,
    monte_carlo,
)
from certrom import app
from certrom.app import telemetry_header
from certrom import cli as cli_module
from certrom.cli import cli
from certrom.fom import FullOrderModel
from conftest import count_calls


class TestMonteCarlo:
    def test_degenerate_constant_output(self, heat_problem):
        # with an infinite tolerance every query is answered by the trivial
        # predictor, whose output is identically the lifting shift
        model = make_adaptive_model(heat_problem, eps=np.inf, ml_backend="vkoga")
        report = monte_carlo(model, 5, window=(0.5, 1.0), seed=3)
        assert report.mean == pytest.approx(0.0, abs=1e-15)
        assert report.variance == pytest.approx(0.0, abs=1e-15)
        assert len(report.records) == 5

    def test_two_samples_closed_form(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        report = monte_carlo(model, 2, window=(0.5, 1.0), seed=4)
        a, b = (r.value for r in report.records)
        assert report.mean == pytest.approx((a + b) / 2, rel=1e-14)
        assert report.variance == pytest.approx((a - report.mean) ** 2 + (b - report.mean) ** 2, rel=1e-12)

    def test_one_pass_matches_two_pass(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        report = monte_carlo(model, 30, window=(0.5, 1.0), seed=5)
        values = np.array([r.value for r in report.records])
        assert report.mean == pytest.approx(values.mean(), rel=1e-12)
        assert report.variance == pytest.approx(values.var(ddof=1), rel=1e-12)

    def test_needs_two_samples(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        with pytest.raises(ValueError):
            monte_carlo(model, 1, window=(0.5, 1.0))

    def test_sample_count_must_be_an_integer(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
            monte_carlo(model, 2.5, window=(0.5, 1.0))
        assert model.records == []

    def test_nonpositive_tolerance_rejected_before_any_solve(self, heat_problem, monkeypatch):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        for eps in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="eps must be positive"):
                make_adaptive_model(heat_problem, eps=eps)
        assert solves == []

    def test_empty_window_rejected_before_any_query(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        with pytest.raises(ValueError, match="empty time window"):
            monte_carlo(model, 5, window=(2.0, 3.0))
        assert model.records == []
        assert model.rb_rom.dim == 0


class TestBatchThreshold:
    @pytest.mark.parametrize("threshold", [0, -2, 2.9, True], ids=["zero", "negative", "fraction", "bool"])
    def test_bad_threshold_rejected(self, heat_problem, threshold):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            make_adaptive_model(heat_problem, eps=1e-2, retrain="batch", batch_threshold=threshold)

    @pytest.mark.parametrize("threshold", [0, 2.9, True], ids=["zero", "fraction", "bool"])
    def test_bad_threshold_rejected_whatever_the_policy(self, heat_problem, threshold):
        with pytest.raises(ValueError, match="batch_threshold must be an integer >= 1"):
            make_adaptive_model(heat_problem, eps=1e-2, retrain="per_extend", batch_threshold=threshold)

    def test_threshold_error_names_the_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, retrain="per_extend", batch_threshold=0)
        code = cli([
            "solve", "--config", cfg, "--model", "adaptive", "--mu", "1.0,1.5", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "usage error: batch_threshold must be an integer >= 1" in capsys.readouterr().err

    def test_fractional_threshold_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, retrain="batch", batch_threshold=2.9)
        code = cli([
            "solve", "--config", cfg, "--model", "adaptive", "--mu", "1.0,1.5", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


def synthetic_record(i, tier):
    return EvalRecord(
        mu=np.array([0.1 * i, 1.0]),
        tier=tier,
        delta_ml=0.5,
        delta_rb=0.1,
        eps=1e-2,
        basis_dim=3,
        ml_size=2,
        value=float(i),
    )


class TestExportTelemetry:
    def test_empty_records(self, tmp_path):
        summary = export_telemetry([], tmp_path)
        content = (tmp_path / "evals.csv").read_text().strip()
        assert content == telemetry_header(0)
        assert "" not in content.split(",")  # no nameless column when p = 0
        assert summary["n_evals"] == 0
        assert summary["tier_fractions"] == {"ml": 0.0, "rb": 0.0, "fom": 0.0}

    def test_three_records(self, tmp_path):
        records = [synthetic_record(0, "fom"), synthetic_record(1, "rb"), synthetic_record(2, "ml")]
        summary = export_telemetry(records, tmp_path)
        lines = (tmp_path / "evals.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == telemetry_header(2)
        assert sum(summary["tier_fractions"].values()) == pytest.approx(1.0)

    def test_header_matches_readme_contract(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = next(line for line in readme.splitlines() if line.startswith("index,mu_0,"))
        expected = documented.replace("mu_0,...,mu_{p-1}", "mu_0,mu_1")
        assert telemetry_header(2) == expected
        export_telemetry([synthetic_record(0, "rb")], tmp_path)
        lines = (tmp_path / "evals.csv").read_text().splitlines()
        assert lines[0] == expected
        assert len(lines[1].split(",")) == len(expected.split(","))

    def test_tier_fractions_reaggregate_from_csv(self, tmp_path, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        rng = np.random.default_rng(6)
        for _ in range(8):
            model.query(heat_problem.box.sample(rng))
        summary = export_telemetry(model.records, tmp_path, events=model.events)
        with open(tmp_path / "evals.csv") as fh:
            rows = list(csv.DictReader(fh))
        counts = {"ml": 0, "rb": 0, "fom": 0}
        for row in rows:
            counts[row["tier"]] += 1
        assert counts == summary["tier_counts"]
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["tier_counts"] == counts


    @pytest.mark.parametrize("backend", ["vkoga", "mlp"])
    def test_training_events_record_the_refit_work(self, tmp_path, heat_problem, backend):
        model = make_adaptive_model(
            heat_problem, eps=1e-2, ml_backend=backend, retrain="batch", batch_threshold=2
        )
        rng = np.random.default_rng(7)
        for _ in range(5):
            model.query(heat_problem.box.sample(rng))
        trainings = [e for e in model.events if e["kind"] == "ml_train"]
        assert trainings
        assert [e["samples"] for e in trainings] == sorted({e["samples"] for e in trainings})
        assert trainings[-1]["samples"] <= len(model.ml_generator.samples)
        for event in trainings:
            if backend == "mlp":
                assert event.keys() == {"kind", "index", "samples", "epochs", "val_loss"}
                assert 1 <= event["epochs"] <= 100 and np.isfinite(event["val_loss"])
            else:
                assert event.keys() == {"kind", "index", "samples"}
        export_telemetry(model.records, tmp_path, events=model.events)
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert [e for e in loaded["events"] if e["kind"] == "ml_train"] == trainings


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": {"kind": "heat_square", "nx": 6, "ny": 6, "num_time_nodes": 20},
        "eps": 1e-2,
        "ml": "vkoga",
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestCli:
    def test_info(self, tmp_path, capsys):
        assert cli(["info", "--config", write_config(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["num_dofs"] == 49
        assert out["parameter_names"] == ["k_left", "k_right"]

    def test_solve_writes_signal(self, tmp_path, capsys):
        code = cli([
            "solve", "--config", write_config(tmp_path), "--mu", "1.0,1.5",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        path = tmp_path / "out" / "signal.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (20, 2)

    def test_solve_adaptive_model(self, tmp_path):
        code = cli([
            "solve", "--config", write_config(tmp_path), "--mu", "1.0,1.5",
            "--model", "adaptive", "--out", str(tmp_path / "out2"),
        ])
        assert code == 0

    def test_validate_estimates_dominate(self, tmp_path, capsys):
        code = cli([
            "validate", "--config", write_config(tmp_path), "--n-train", "2",
            "--n-test", "6", "--out", str(tmp_path / "val"),
        ])
        assert code == 0
        with open(tmp_path / "val" / "effectivity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            assert float(row["estimate"]) >= float(row["true_error"])

    def test_mc_outputs(self, tmp_path, capsys):
        code = cli([
            "mc", "--config", write_config(tmp_path), "--n-mc", "5",
            "--out", str(tmp_path / "mc"),
        ])
        assert code == 0
        result = json.loads((tmp_path / "mc" / "mc.json").read_text())
        assert result["n_samples"] == 5
        assert os.path.exists(tmp_path / "mc" / "evals.csv")

    def test_optimize_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            reference_mu=[1.25, 1.25],
            initial_mu=[0.8, 1.8],
            max_evals=25,
        )
        code = cli(["optimize", "--config", cfg, "--out", str(tmp_path / "opt")])
        assert code == 0
        result = json.loads((tmp_path / "opt" / "optimize.json").read_text())
        assert result["n_evals"] <= 25 + 3

    def test_zero_max_evals_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        cfg = write_config(tmp_path, reference_mu=[1.25, 1.25], initial_mu=[0.8, 1.8])
        code = cli(["optimize", "--config", cfg, "--max-evals", "0", "--out", str(tmp_path / "opt")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "opt" / "optimize.json")
        assert solves == []  # rejected before any full-order work

    def test_zero_n_mc_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        builds = count_calls(monkeypatch, app, "make_adaptive_model")
        code = cli(["mc", "--config", write_config(tmp_path), "--n-mc", "0", "--out", str(tmp_path / "mc")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "mc" / "mc.json")
        assert solves == [] and builds == []  # rejected before the model is built

    def test_fractional_n_mc_is_rejected_before_the_model_is_built(self, tmp_path, capsys, monkeypatch):
        builds = count_calls(monkeypatch, app, "make_adaptive_model")
        code = cli(["mc", "--config", write_config(tmp_path, n_mc=10.5), "--out", str(tmp_path / "mc")])
        assert code == 1
        assert "usage error: n_mc must be an integer >= 2" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize("command", ["mc", "optimize", "validate"])
    def test_negative_eps_is_a_usage_error_before_any_solve(self, tmp_path, capsys, monkeypatch, command):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        code = cli([command, "--config", write_config(tmp_path), "--eps", "-1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "usage error: eps must be positive, got -1.0" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("num_time_nodes", "20.5", "usage error: num_nodes must be an integer >= 2, got 20.5"),
            ("t_end", "1e400", "usage error: t_end must be finite and positive, got inf"),
        ],
        ids=["fractional_nodes", "infinite_horizon"],
    )
    @pytest.mark.parametrize("command", ["info", "solve"])
    def test_bad_time_grid_is_a_usage_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, field, text, message
    ):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        path = tmp_path / "grid.json"  # the number as written: 1e400 reads as inf
        path.write_text(f'{{"problem": {{"kind": "heat_square", "nx": 6, "ny": 6, "{field}": {text}}}}}')
        args = ["--mu", "1.0,1.0", "--out", str(tmp_path / "o")] if command == "solve" else []
        assert cli([command, "--config", str(path), *args]) == 1
        assert message in capsys.readouterr().err
        assert solves == []

    def test_wrong_length_initial_mu_is_a_usage_error_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        cfg = write_config(tmp_path, reference_mu=[1.25, 1.25], initial_mu=[0.7])
        code = cli(["optimize", "--config", cfg, "--out", str(tmp_path / "opt")])
        assert code == 1
        assert "usage error: initial_point must have shape (2,), got (1,)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "opt" / "optimize.json")
        assert solves == []  # rejected before the reference solve

    def test_stagnation_settings_reach_the_optimizer(self, tmp_path, monkeypatch):
        seen = []

        def capture(model, reference, nm_config, stagnation=None):
            seen.append(stagnation)
            return OptimizeReport(nm_config.initial_point, 0.0, 0, True)

        monkeypatch.setattr(cli_module, "optimize_misfit", capture)
        cfg = write_config(tmp_path, adaptive_eps=True, stagnation={"divisor": 4, "n_stag": 3})
        assert cli(["optimize", "--config", cfg, "--out", str(tmp_path / "opt")]) == 0
        assert seen == [StagnationConfig(n_av=4, n_stag=3, divisor=4)]

    def test_unknown_stagnation_key_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, FullOrderModel, "iter_state")
        cfg = write_config(tmp_path, stagnation={"bogus": 1})
        code = cli(["optimize", "--config", cfg, "--adaptive-eps", "--out", str(tmp_path / "opt")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert solves == []  # rejected before the reference solve

    def test_missing_config(self, tmp_path):
        assert cli(["info", "--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli(["info", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_problem_kind(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"kind": "nope"}}))
        assert cli(["info", "--config", str(path)]) == 1
        assert "problem.kind" in capsys.readouterr().err

    def test_bad_mu_string(self, tmp_path):
        assert cli(["solve", "--config", write_config(tmp_path), "--mu", "a,b"]) == 1

    def test_usage_error(self):
        assert cli(["frobnicate"]) == 1

    def test_determinism_excluding_wall_times(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = write_config(tmp_path)
        assert cli(["mc", "--config", cfg, "--n-mc", "6", "--out", str(out1)]) == 0
        assert cli(["mc", "--config", cfg, "--n-mc", "6", "--out", str(out2)]) == 0

        def strip_times(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            return [
                {k: v for k, v in row.items() if not k.startswith("t_")} for row in rows
            ]

        assert strip_times(out1 / "evals.csv") == strip_times(out2 / "evals.csv")
        a = json.loads((out1 / "mc.json").read_text())
        b = json.loads((out2 / "mc.json").read_text())
        assert a == b


class TestNumericalFailureExit:
    def test_infeasible_tolerance_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            eps=1e-13,  # below the output-reproduction floor: enrichment must fail
            reference_mu=[1.2, 1.2],
            initial_mu=[0.8, 1.8],
            max_evals=10,
        )
        assert cli(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
