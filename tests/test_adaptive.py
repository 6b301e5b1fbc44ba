import numpy as np
import pytest

from certrom import (
    AdaptiveModel,
    DnnGenerator,
    FullOrderModel,
    HapodConfig,
    KernelConfig,
    NumericalError,
    RbGenerator,
    StagnationConfig,
    StagnationDetector,
    TrainConfig,
    VkogaGenerator,
    apply_tolerance_drop,
    l2_time_norm,
    make_adaptive_model,
)
from certrom import kernels
from certrom.rb import LearnedGenerator, RbRom, SpannedTrajectory
from conftest import count_calls, faulty


def network_model(problem, eps):
    """The adaptive stack with a 16 x 16 network tier, retrained every 4 samples."""
    rb_gen = RbGenerator(FullOrderModel(problem), eps)
    ml_gen = DnnGenerator(rb_gen.precompute(), hidden=(16, 16), config=TrainConfig(seed=1), pending_threshold=4)
    return AdaptiveModel(rb_gen, ml_gen)


def coarse_pod_model(problem, eps):
    """The adaptive stack with a kernel tier, over a basis compressed at eps_pod = 1e-2."""
    rb_gen = RbGenerator(FullOrderModel(problem), eps, hapod=HapodConfig(eps_pod=1e-2))
    return AdaptiveModel(rb_gen, VkogaGenerator(rb_gen.precompute()))


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
        det = StagnationDetector(cfg)
        for k in range(60):
            assert det.update(10.0 * 0.8**k) is False

    def test_constant_objective_fires_after_exact_count(self):
        n_av, n_stag = 4, 5
        cfg = StagnationConfig(n_av=n_av, n_stag=n_stag, eps_slope=1e-12, eps_slope_rel=1e-12)
        det = StagnationDetector(cfg)
        fired_at = None
        for k in range(1, 50):
            if det.update(3.0):
                fired_at = k
                break
        # slope checks start once 2 n_av - 1 values exist; the drop needs
        # n_stag + 1 consecutive qualifying evaluations
        assert fired_at == (2 * n_av - 1) + n_stag

    def test_history_reset_after_drop(self):
        cfg = StagnationConfig(n_av=3, n_stag=2, eps_slope=1e-12, eps_slope_rel=1e-12)
        det = StagnationDetector(cfg)
        drops = [k for k in range(40) if det.update(1.0)]
        assert len(drops) >= 2
        assert drops[1] - drops[0] == (2 * 3 - 1) + 2

    @pytest.mark.parametrize("n_av", [1, 2.5, True], ids=["one", "fraction", "bool"])
    def test_average_width_must_be_a_count(self, n_av):
        with pytest.raises(ValueError, match="n_av must be an integer >= 2"):
            StagnationConfig(n_av=n_av)

    @pytest.mark.parametrize("n_stag", [-1, 2.5, True], ids=["negative", "fraction", "bool"])
    def test_stagnation_count_must_be_a_count(self, n_stag):
        with pytest.raises(ValueError, match="n_stag must be an integer >= 0"):
            StagnationConfig(n_av=2, n_stag=n_stag)

    @pytest.mark.parametrize("divisor", [1.0, np.nan], ids=["one", "nan"])
    def test_divisor_must_exceed_one(self, divisor):
        with pytest.raises(ValueError, match="divisor must exceed 1"):
            StagnationConfig(n_av=2, divisor=divisor)

    @pytest.mark.parametrize("name", ["eps_slope", "eps_slope_rel"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rate_thresholds_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            StagnationConfig(n_av=2, **{name: value})

    def test_normalized_criterion_uses_initial_objective(self):
        cfg = StagnationConfig(n_av=3, n_stag=3, eps_slope=-1e-15, eps_slope_rel=5e-5)
        det = StagnationDetector(cfg)
        det.update(100.0)  # initial objective pins the normalization
        assert det.initial_objective == 100.0


def learned_backend_models(heat_problem):
    """The tolerance drop works through the learned tier's shared sample
    store: one adaptive model per learned backend."""
    return (
        make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga"),
        network_model(heat_problem, eps=1e-2),
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

    def test_drop_below_a_training_estimate_recertifies_it(self, heat_problem):
        # a FOM-tier answer leaves a small but nonzero RB estimate at its mu;
        # after a drop below it, a re-query must re-stream mu at a tighter
        # compression tolerance instead of failing
        model = make_adaptive_model(heat_problem, eps=1e-2)
        mu = np.array([1.3, 0.8])
        assert model.query(mu)[1].tier == "fom"
        apply_tolerance_drop(model, model.rb_rom.est_output(mu) / 2)
        _, rec = model.query(mu)
        assert rec.tier == "fom"
        assert rec.delta_rb <= model.eps
        assert len(model.rb_generator.training_parameters) == 1

    @pytest.mark.parametrize("new_eps", [0.0, -1.0], ids=["zero", "negative"])
    def test_drop_to_a_nonpositive_tolerance_rejected(self, heat_problem, model, new_eps):
        model.query(np.array([1.3, 0.8]))
        events = list(model.events)
        with pytest.raises(ValueError, match="eps must be positive"):
            apply_tolerance_drop(model, new_eps)
        assert model.eps == 1e-2 and model.events == events

    def test_drop_must_tighten(self, heat_problem, model):
        with pytest.raises(ValueError):
            apply_tolerance_drop(model, model.eps * 2)


class TestMlpBackend:
    def test_certification_holds_with_mlp(self, heat_problem):
        m = network_model(heat_problem, eps=2e-2)
        fom = FullOrderModel(heat_problem)
        rng = np.random.default_rng(24)
        for _ in range(10):
            mu = heat_problem.box.sample(rng)
            sig, rec = m.query(mu)
            err = l2_time_norm(fom.eval_output(mu) - sig)
            assert err <= m.eps * (1 + 1e-10)
        assert len(m.records) == 10

    def test_per_extend_trains_from_two_samples_on(self, heat_problem):
        # one stored sample leaves no training row after the validation split
        m = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="mlp")
        fom = FullOrderModel(heat_problem)
        rng = np.random.default_rng(25)
        for count in range(1, 5):
            mu = heat_problem.box.sample(rng)
            sig, rec = m.query(mu)
            assert l2_time_norm(fom.eval_output(mu) - sig) <= m.eps * (1 + 1e-10)
            assert m.ml_generator.trainings == count - 1
        assert [e["samples"] for e in m.events if e["kind"] == "ml_train"] == [2, 3, 4]


class ZeroGenerator(LearnedGenerator):
    """A learned tier that learns nothing: it predicts zero coordinates (the
    exact initial row aside), which certify no answer at a finite tolerance,
    and its fits only count."""

    def current_model(self):
        return kernels.VkogaRom(self.rb_rom, None, self.temporal)

    def precompute(self, force: bool = False):
        if self._due(force):
            self._fitted()
        return self.current_model()

    def _forget_model(self):
        pass

    def _pad_model(self, old_shape, new_shape):
        pass


def zero_tier_model(problem, threshold):
    rb_gen = RbGenerator(FullOrderModel(problem), eps=1e-2)
    return AdaptiveModel(rb_gen, ZeroGenerator(rb_gen.precompute(), pending_threshold=threshold))


def fit_points(gen, mus, force=False) -> list:
    """Store each mu in turn and precompute; the store sizes at which it fit."""
    fits = []
    for mu in mus:
        gen.extend(mu)
        before = gen.trainings
        gen.precompute(force)
        if gen.trainings > before:
            fits.append(len(gen.samples))
    return fits


class TestRetrainBackoff:
    """Batch refits back off while the learned tier earns nothing: the retrain
    interval doubles once per fit that no answer used, and an answer resets it."""

    def test_unearned_batches_double_the_interval_once_per_fit(self, heat_problem):
        model = zero_tier_model(heat_problem, threshold=2)
        rng = np.random.default_rng(50)
        for _ in range(15):
            model.query(heat_problem.box.sample(rng))
        assert all(r.tier != "ml" for r in model.records)
        trainings = [(e["index"], e["samples"]) for e in model.events if e["kind"] == "ml_train"]
        backoffs = [(e["index"], e["interval"]) for e in model.events if e["kind"] == "ml_backoff"]
        assert trainings == [(1, 2), (5, 6), (13, 14)]  # b, 3b, 7b
        assert backoffs == [(3, 4), (9, 8)]  # one per deferred fit
        assert model.ml_generator.refit_interval == 8

    def test_an_answer_resets_the_interval(self, heat_problem):
        gen = zero_tier_model(heat_problem, threshold=2).ml_generator
        rng = np.random.default_rng(51)
        mus = [heat_problem.box.sample(rng) for _ in range(8)]
        assert fit_points(gen, mus[:4]) == [2]  # the first fit is never deferred
        assert gen.refit_interval == 4
        gen.answered()
        assert gen.refit_interval == 2
        assert fit_points(gen, mus[4:5]) == [5]  # 3 pending, due again at 2
        assert fit_points(gen, mus[5:8]) == []  # no answer since: deferred to 4
        assert gen.refit_interval == 4

    def test_answers_keep_the_first_interval(self, heat_problem):
        gen = zero_tier_model(heat_problem, threshold=2).ml_generator
        rng = np.random.default_rng(52)
        fits = []
        for _ in range(4):
            fits += fit_points(gen, [heat_problem.box.sample(rng) for _ in range(2)])
            gen.answered()
        assert fits == [2, 4, 6, 8] and gen.refit_interval == 2

    def test_per_extend_refits_every_stored_sample(self, heat_problem):
        model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga", retrain="per_extend")
        rng = np.random.default_rng(53)
        for _ in range(20):
            model.query(heat_problem.box.sample(rng))
        tiers = [r.tier for r in model.records]
        assert "ml" in tiers and tiers.count("ml") < len(tiers)
        assert model.ml_generator.trainings == len(tiers) - tiers.count("ml")
        assert model.ml_generator.refit_interval == 1
        assert not [e for e in model.events if e["kind"] == "ml_backoff"]

    def test_forced_fit_ignores_the_interval(self, heat_problem):
        gen = zero_tier_model(heat_problem, threshold=4).ml_generator
        rng = np.random.default_rng(54)
        assert fit_points(gen, [heat_problem.box.sample(rng) for _ in range(9)]) == [4]
        assert gen.refit_interval == 8
        assert fit_points(gen, [heat_problem.box.sample(rng)], force=True) == [10]
        assert gen.refit_interval == 8

    def test_refit_after_a_drop_ignores_the_interval(self, heat_problem):
        model = zero_tier_model(heat_problem, threshold=4)
        rng = np.random.default_rng(55)
        for _ in range(9):
            model.query(heat_problem.box.sample(rng))
        gen, rom = model.ml_generator, model.rb_rom
        assert gen.trainings == 1 and gen.refit_interval == 8
        estimates = sorted(
            rom.est_output_for(SpannedTrajectory(gen.temporal, coords), mu, gen.temporal)
            for mu, coords in gen.samples
        )
        dropped = apply_tolerance_drop(model, estimates[len(estimates) // 2])
        assert 0 < dropped < len(estimates)
        drop, refit = model.events[-2:]
        assert drop["kind"] == "eps_drop" and refit["kind"] == "ml_train"
        assert refit["samples"] == len(estimates) - dropped < gen.refit_interval
        assert gen.trainings == 2 and gen.refit_interval == 8


class TestDegradedLearnedModel:
    def test_cascade_still_certifies_with_crippled_kernel_model(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        rb_gen = RbGenerator(fom, eps=1e-3)
        ml_gen = VkogaGenerator(rb_gen.precompute(), KernelConfig(max_centers=2))
        model = AdaptiveModel(rb_gen, ml_gen)
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
        model = coarse_pod_model(heat_problem, eps=1e-4)
        rng = np.random.default_rng(0)
        for _ in range(12):
            model.query(heat_problem.box.sample(rng))

    def test_tolerance_drop_reaches_generator(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        model = coarse_pod_model(heat_problem, eps=1e-1)
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


def streamed_parameters(monkeypatch, fom):
    """Record each parameter whose full-order trajectory ``fom`` streamed to
    its end."""
    streamed = []
    original = fom.iter_state

    def iter_state(mu):
        yield from original(mu)
        streamed.append(np.array(mu, dtype=float))

    monkeypatch.setattr(fom, "iter_state", iter_state)
    return streamed


def assert_still_answers(model, problem, streamed, seed):
    """The next queries answer within eps of fresh full-order solves, the
    learned tier is carried on the current reduced model, and every training
    parameter had its trajectory streamed."""
    audit = FullOrderModel(problem)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        mu = problem.box.sample(rng)
        signal, _ = model.query(mu)
        assert l2_time_norm(audit.eval_output(mu) - signal) <= model.eps * (1 + 1e-10)
        assert model.ml_rom.rb_rom.dim == model.rb_rom.dim
    for mu in model.rb_generator.training_parameters:
        assert any(np.array_equal(mu, done) for done in streamed)


class TestRaisedQueryLeavesAWorkingModel:
    """A fault at any raise point of a query leaves a model whose next
    queries answer, certified, from consistent state."""

    def test_full_order_solve_fault(self, heat_problem, monkeypatch):
        model = make_adaptive_model(heat_problem, eps=1e-6)
        fom = model.rb_generator.fom
        bad = np.array([1.3, 0.8])
        streamed = streamed_parameters(monkeypatch, fom)
        faulty(monkeypatch, fom, "iter_state", lambda mu: np.array_equal(mu, bad))
        with pytest.raises(NumericalError, match="injected fault"):
            model.query(bad)
        assert model.rb_generator.training_parameters == []
        signal, rec = model.query(np.array([0.6, 1.9]))  # a full-order query does not re-stream bad
        assert rec.tier == "fom"
        assert_still_answers(model, heat_problem, streamed, seed=40)

    def test_enrichment_certification_fault(self, heat_problem, monkeypatch):
        # precompute sees an estimate above eps at bad however often it
        # re-streams it, and gives up
        model = make_adaptive_model(heat_problem, eps=1e-4)
        streamed = streamed_parameters(monkeypatch, model.rb_generator.fom)
        bad = np.array([1.3, 0.8])
        original = RbRom.est_output
        monkeypatch.setattr(
            RbRom, "est_output", lambda rom, mu: 10 * model.eps if np.array_equal(mu, bad) else original(rom, mu)
        )
        with pytest.raises(NumericalError, match="enrichment failed"):
            model.query(bad)
        assert len(model.rb_generator.training_parameters) == 1
        assert_still_answers(model, heat_problem, streamed, seed=41)

    def test_post_enrichment_attempt_fault(self, heat_problem, monkeypatch):
        model = make_adaptive_model(heat_problem, eps=1e-4)
        streamed = streamed_parameters(monkeypatch, model.rb_generator.fom)
        prolonged = count_calls(monkeypatch, VkogaGenerator, "prolong")
        original = RbRom.est_output_for
        rejected = []

        def estimate(rom, *args):
            # the first estimate after the learned tier is carried onto the
            # enriched model is the post-enrichment RB attempt's: fail it
            if prolonged and not rejected:
                rejected.append(args)
                return 10 * model.eps
            return original(rom, *args)

        monkeypatch.setattr(RbRom, "est_output_for", estimate)
        with pytest.raises(NumericalError, match="enrichment failed"):
            model.query(np.array([1.3, 0.8]))
        assert model.rb_rom.dim > 0
        assert_still_answers(model, heat_problem, streamed, seed=42)

    def test_learned_refit_fault(self, heat_problem, monkeypatch):
        model = make_adaptive_model(heat_problem, eps=1e-4)
        streamed = streamed_parameters(monkeypatch, model.rb_generator.fom)
        fired = faulty(monkeypatch, kernels, "vkoga_fit", lambda *args: not fired)
        with pytest.raises(NumericalError, match="injected fault"):
            model.query(np.array([1.3, 0.8]))
        assert len(fired) == 1
        assert model.records == []
        assert_still_answers(model, heat_problem, streamed, seed=43)
