import numpy as np
import pytest

from certrom import (
    FullOrderModel,
    HapodConfig,
    StagnationConfig,
    StagnationDetector,
    apply_tolerance_drop,
    l2_time_norm,
    make_adaptive_model,
)


@pytest.fixture()
def model(heat_problem):
    return make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")


class TestCascade:
    def test_first_call_takes_fom_path(self, heat_problem, model):
        sig, rec = model.query(np.array([1.0, 1.0]))
        assert rec.tier == "fom"
        assert rec.delta_ml > model.eps

    def test_repeat_query_answered_by_ml(self, heat_problem, model):
        mu = np.array([1.0, 1.0])
        model.query(mu)
        sig, rec = model.query(mu)
        assert rec.tier == "ml"

    def test_every_answer_certified(self, heat_problem, model):
        fom = FullOrderModel(heat_problem)
        rng = np.random.default_rng(17)
        for _ in range(15):
            mu = heat_problem.box.sample(rng)
            sig, rec = model.query(mu)
            err = l2_time_norm(fom.eval_output(mu) - sig)
            assert err <= model.eps * (1 + 1e-10)
            assert err <= max(rec.delta_ml, 0) * (1 + 1e-10) or rec.tier != "ml"

    def test_record_log_complete(self, heat_problem, model):
        rng = np.random.default_rng(18)
        n = 8
        for _ in range(n):
            model.query(heat_problem.box.sample(rng))
        assert len(model.records) == n
        assert all(r.tier in ("ml", "rb", "fom") for r in model.records)

    def test_requery_never_hits_fom(self, heat_problem, model):
        rng = np.random.default_rng(19)
        mus = [heat_problem.box.sample(rng) for _ in range(10)]
        for mu in mus:
            model.query(mu)
        fom_count = sum(r.tier == "fom" for r in model.records)
        for mu in mus:
            sig, rec = model.query(mu)
            assert rec.tier != "fom"
        assert sum(r.tier == "fom" for r in model.records) == fom_count

    def test_infinite_tolerance_always_ml(self, heat_problem):
        m = make_adaptive_model(heat_problem, eps=np.inf, ml_backend="vkoga")
        rng = np.random.default_rng(20)
        for _ in range(5):
            sig, rec = m.query(heat_problem.box.sample(rng))
            assert rec.tier == "ml"


class TestEvalState:
    def test_first_call_returns_fom_trajectory(self, heat_problem, model):
        mu = np.array([0.8, 1.6])
        fom = FullOrderModel(heat_problem)
        traj, rec = model.query_state(mu)
        assert rec.tier == "fom"
        lifted = heat_problem.lift(fom.eval_state(mu))
        # tier 3 answers with the freshly enriched reduced model, which
        # reproduces the trajectory to output-reproduction accuracy
        diff = traj.coeffs - lifted.coeffs
        g = heat_problem.gram
        err = np.sqrt(heat_problem.time_grid.dt * sum(d @ (g @ d) for d in diff[:-1]))
        assert err <= model.eps

    def test_repeat_state_query_certified(self, heat_problem, model):
        mu = np.array([0.8, 1.6])
        fom = FullOrderModel(heat_problem)
        model.query_state(mu)
        traj, rec = model.query_state(mu)
        assert rec.tier in ("ml", "rb")
        lifted = heat_problem.lift(fom.eval_state(mu))
        diff = traj.coeffs - lifted.coeffs
        g = heat_problem.gram
        err = np.sqrt(heat_problem.time_grid.dt * sum(d @ (g @ d) for d in diff[:-1]))
        assert err <= model.eps * (1 + 1e-10)


class TestStagnation:
    def test_steep_descent_never_fires(self):
        cfg = StagnationConfig(n_av=4, n_stag=5, eps_slope=-1e-15, eps_slope_rel=5e-5)
        det = StagnationDetector(cfg, eps0=1.0)
        for k in range(60):
            assert det.update(10.0 * 0.8**k) is None

    def test_constant_objective_fires_after_exact_count(self):
        n_av, n_stag = 4, 5
        cfg = StagnationConfig(n_av=n_av, n_stag=n_stag, eps_slope=1e-12, eps_slope_rel=1e-12)
        det = StagnationDetector(cfg, eps0=1.0)
        fired_at = None
        for k in range(1, 50):
            if det.update(3.0) is not None:
                fired_at = k
                break
        # slope checks start once 2 n_av - 1 values exist; the drop needs
        # n_stag + 1 consecutive qualifying evaluations
        assert fired_at == (2 * n_av - 1) + n_stag
        assert det.eps == pytest.approx(0.1)

    def test_history_reset_after_drop(self):
        cfg = StagnationConfig(n_av=3, n_stag=2, eps_slope=1e-12, eps_slope_rel=1e-12)
        det = StagnationDetector(cfg, eps0=1.0)
        drops = [k for k in range(40) if det.update(1.0) is not None]
        assert len(drops) >= 2
        assert drops[1] - drops[0] == (2 * 3 - 1) + 2

    def test_normalized_criterion_uses_initial_objective(self):
        cfg = StagnationConfig(n_av=3, n_stag=3, eps_slope=-1e-15, eps_slope_rel=5e-5)
        det = StagnationDetector(cfg, eps0=1.0)
        det.update(100.0)  # initial objective pins the normalization
        assert det.initial_objective == 100.0


def learned_backend_models(heat_problem):
    """The tolerance drop works through the learned tier's shared sample
    store: one adaptive model per learned backend."""
    return (
        make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga"),
        make_adaptive_model(
            heat_problem, eps=1e-2, ml_backend="mlp", retrain="batch",
            batch_threshold=4, hidden=(16, 16), seed=1,
        ),
    )


class TestToleranceDrop:
    def test_lenient_drop_keeps_samples(self, heat_problem):
        for model in learned_backend_models(heat_problem):
            rng = np.random.default_rng(21)
            for _ in range(6):
                model.query(heat_problem.box.sample(rng))
            kept_before = len(model.ml_generator.samples)
            dropped = apply_tolerance_drop(model, model.eps / 1.0000001)
            assert dropped == 0
            assert len(model.ml_generator.samples) == kept_before

    def test_degenerate_drop_resets_model(self, heat_problem):
        for model in learned_backend_models(heat_problem):
            rng = np.random.default_rng(22)
            for _ in range(6):
                model.query(heat_problem.box.sample(rng))
            apply_tolerance_drop(model, 1e-300)
            assert len(model.ml_generator.samples) == 0
            assert model.ml_rom.size == 0

    def test_survivors_recertify(self, heat_problem):
        from certrom import Trajectory

        for model in learned_backend_models(heat_problem):
            rng = np.random.default_rng(23)
            for _ in range(10):
                model.query(heat_problem.box.sample(rng))
            new_eps = model.eps / 10
            apply_tolerance_drop(model, new_eps)
            rom = model.rb_rom
            for mu, coeffs in model.ml_generator.samples:
                traj = Trajectory(rom.time_grid, model.ml_generator.time_basis @ coeffs)
                assert rom.est_output_for(traj, mu) <= new_eps

    def test_drop_certifies_from_the_stored_coordinates(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
        rng = np.random.default_rng(23)
        for _ in range(10):
            model.query(heat_problem.box.sample(rng))
        temporal = model.ml_generator.temporal
        stored = len(model.ml_generator.samples)
        before = dict(temporal.counts)
        apply_tolerance_drop(model, model.eps / 10)
        assert temporal.counts["temporal"] == before["temporal"] + stored
        assert temporal.counts["k_step"] == before["k_step"]

    def test_refit_after_a_drop_is_logged(self, heat_problem):
        for model in learned_backend_models(heat_problem):
            rng = np.random.default_rng(23)
            for _ in range(10):
                model.query(heat_problem.box.sample(rng))
            before = model.ml_generator.trainings
            assert apply_tolerance_drop(model, model.eps / 10) > 0
            assert model.ml_generator.samples and model.ml_generator.trainings == before + 1
            drop, refit = model.events[-2:]
            assert drop["kind"] == "eps_drop" and refit["kind"] == "ml_train"
            assert refit["samples"] == len(model.ml_generator.samples)
            assert sum(e["kind"] == "ml_train" for e in model.events) == model.ml_generator.trainings

    def test_drop_must_tighten(self, heat_problem, model):
        with pytest.raises(ValueError):
            apply_tolerance_drop(model, model.eps * 2)


class TestMlpBackend:
    def test_certification_holds_with_mlp(self, heat_problem):
        m = make_adaptive_model(
            heat_problem, eps=2e-2, ml_backend="mlp", retrain="batch",
            batch_threshold=4, hidden=(16, 16), seed=1,
        )
        fom = FullOrderModel(heat_problem)
        rng = np.random.default_rng(24)
        for _ in range(10):
            mu = heat_problem.box.sample(rng)
            sig, rec = m.query(mu)
            err = l2_time_norm(fom.eval_output(mu) - sig)
            assert err <= m.eps * (1 + 1e-10)
        assert len(m.records) == 10


class TestDegradedLearnedModel:
    def test_cascade_still_certifies_with_crippled_kernel_model(self, heat_problem):
        from certrom import AdaptiveModel, KernelConfig, RbGenerator, VkogaGenerator

        fom = FullOrderModel(heat_problem)
        rb_gen = RbGenerator(fom, eps=1e-3)
        ml_gen = VkogaGenerator(rb_gen.precompute(), KernelConfig(max_centers=2))
        model = AdaptiveModel(fom, rb_gen, ml_gen, eps=1e-3)
        rng = np.random.default_rng(31)
        for _ in range(12):
            mu = heat_problem.box.sample(rng)
            sig, _ = model.query(mu)
            err = l2_time_norm(fom.eval_output(mu) - sig)
            assert err <= 1e-3 * (1 + 1e-10)


class TestCoarseCompression:
    """A coarse HAPOD tolerance is recovered by the generator's re-streams,
    against the model's one active tolerance."""

    def test_cascade_survives_coarse_compression(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-4, hapod=HapodConfig(eps_pod=1e-2))
        rng = np.random.default_rng(0)
        for _ in range(12):
            model.query(heat_problem.box.sample(rng))

    def test_tolerance_drop_reaches_generator(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        model = make_adaptive_model(heat_problem, eps=1e-1, hapod=HapodConfig(eps_pod=1e-2))
        rng = np.random.default_rng(0)
        for _ in range(3):
            model.query(heat_problem.box.sample(rng))
        apply_tolerance_drop(model, 1e-6)
        assert model.rb_generator.eps == model.eps == 1e-6
        for _ in range(5):
            mu = heat_problem.box.sample(rng)
            sig, rec = model.query(mu)
            assert l2_time_norm(fom.eval_output(mu) - sig) <= 1e-6


class TestTemporalPath:
    def test_rb_tier_estimates_go_temporal_once_the_store_saturates(self, small_reactive_problem):
        problem = small_reactive_problem
        model = make_adaptive_model(problem, eps=1e-3, ml_backend="vkoga")
        rng = np.random.default_rng(5)
        rb_queries = []  # (T grew, temporal estimates, step-by-step estimates)
        for _ in range(30):
            temporal = model.ml_generator.temporal
            before, dim = dict(temporal.counts), temporal.dim
            _, rec = model.query(problem.box.sample(rng))
            temporal = model.ml_generator.temporal
            if rec.tier == "rb":
                counts = temporal.counts
                rb_queries.append((temporal.dim > dim, counts["temporal"] - before["temporal"], counts["k_step"] - before["k_step"]))
        saturated = [q for q in rb_queries[-10:] if not q[0]]
        assert len(saturated) >= 8
        assert all(q[1:] == (2, 0) for q in saturated)  # the ML and the RB estimate
        assert all(q[2] <= 1 for q in rb_queries if q[0])
