"""Problems, full-order and reduced models, fitted learned generators and
whole adaptive models survive a pickle round trip with bit-identical
answers, so long runs can be checkpointed and models sent to worker
processes."""

import pickle

import numpy as np
import pytest

from certrom import (
    AdaptiveModel,
    BuildingConfig,
    DnnGenerator,
    FullOrderModel,
    RbGenerator,
    TrainConfig,
    VkogaGenerator,
    build_building,
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def rb_setup(heat_problem):
    rb_gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-3)
    rng = np.random.default_rng(40)
    mus = [heat_problem.box.sample(rng) for _ in range(3)]
    for mu in mus:
        rb_gen.extend(mu)
    return rb_gen.precompute(), mus


def test_problems_and_full_order_models(heat_problem, small_reactive_problem):
    for problem in (heat_problem, small_reactive_problem, build_building(BuildingConfig())):
        mu = problem.box.center
        expected = FullOrderModel(problem).eval_state(mu).coeffs
        assert np.array_equal(FullOrderModel(roundtrip(problem)).eval_state(mu).coeffs, expected)
        assert np.array_equal(roundtrip(FullOrderModel(problem)).eval_state(mu).coeffs, expected)


def test_reduced_model(rb_setup):
    rom, mus = rb_setup
    copy = roundtrip(rom)
    for mu in mus + [rom.box.center]:
        assert np.array_equal(copy.eval_state(mu).coeffs, rom.eval_state(mu).coeffs)
        assert copy.est_output(mu) == rom.est_output(mu)


@pytest.mark.parametrize(
    "make",
    [
        VkogaGenerator,
        lambda rom: DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=0, max_epochs=3)),
    ],
    ids=["vkoga", "dnn"],
)
def test_fitted_learned_generators_and_models(rb_setup, make):
    rom, mus = rb_setup
    gen = make(rom)
    for mu in mus:
        gen.extend(mu)
    model = gen.precompute(force=True)
    for copy in (roundtrip(gen).current_model(), roundtrip(model)):
        assert copy.size == model.size > 0
        for mu in mus + [rom.box.center]:
            assert np.array_equal(copy.eval_state(mu).coeffs, model.eval_state(mu).coeffs)
            assert copy.est_output(mu) == model.est_output(mu)


def test_temporal_estimates_survive_pickling(rb_setup):
    """A kernel model's predictions keep their temporal coordinates, and the
    estimate in them is bit-identical after a round trip."""
    rom, mus = rb_setup
    gen = VkogaGenerator(rom)
    for mu in mus:
        gen.extend(mu)
    model = gen.precompute(force=True)
    copy = roundtrip(model)
    assert copy.temporal.saves_work() and copy.temporal.dim == gen.temporal.dim
    for mu in mus + [rom.box.center]:
        expected = rom.est_output_for(model.eval_state(mu), mu, gen.temporal)
        assert copy.rb_rom.est_output_for(copy.eval_state(mu), mu, copy.temporal) == expected
    assert copy.temporal.counts["temporal"] == gen.temporal.counts["temporal"]


def test_pickles_carry_live_rows_only(rb_setup):
    """The doubling row blocks of the sample store and of the kernel model's
    residuals pickle their live rows, not their spare capacity."""
    rom, mus = rb_setup
    rng = np.random.default_rng(41)
    extra = [rom.box.sample(rng) for _ in range(6)]
    gen = VkogaGenerator(rom)
    for mu in extra[:5]:
        gen.extend(mu)
        gen.precompute()
    assert gen._rows.shape[0] > 5 and gen._model._residual_rows.shape[0] > 5
    copy = roundtrip(gen)
    assert copy._rows.shape[0] == 5 and copy._model._residual_rows.shape[0] == 5
    for mu in mus + extra:
        assert np.array_equal(copy.current_model().eval_state(mu).coeffs, gen.current_model().eval_state(mu).coeffs)
    models = []
    for g in (gen, copy):
        g.extend(extra[5])
        models.append(g.precompute().model)
    assert models[0]._selected == models[1]._selected
    assert np.array_equal(models[0].coefficients, models[1].coefficients)
    assert np.array_equal(copy.time_basis, gen.time_basis)


@pytest.mark.parametrize("backend", ["vkoga", "mlp"])
def test_adaptive_model_mid_run(heat_problem, backend):
    """A model pickled between queries answers the next ones exactly as the
    original does, enrichment after the round trip included."""
    rb_gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-3)
    rom = rb_gen.precompute()
    if backend == "vkoga":
        ml_gen = VkogaGenerator(rom, pending_threshold=1)
    else:
        ml_gen = DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=0, max_epochs=3), pending_threshold=1)
    model = AdaptiveModel(rb_gen, ml_gen)
    rng = np.random.default_rng(42)
    for _ in range(6):
        model.query(heat_problem.box.sample(rng))
    copy = roundtrip(model)
    queries = [heat_problem.box.sample(rng) for _ in range(8)]
    runs = []
    for m in (model, copy):
        answers = [m.query(mu) for mu in queries[:6]]
        m.eps = 1e-5  # below what the current basis certifies: the next query enriches
        answers += [m.query(mu) for mu in queries[6:]]
        runs.append([(rec.tier, rec.delta_ml, rec.delta_rb, rec.basis_dim, signal.values) for signal, rec in answers])
    assert "fom" in [tier for tier, *_ in runs[0][6:]]
    for original, restored in zip(*runs):
        assert original[:4] == restored[:4]
        assert np.array_equal(original[4], restored[4])


def test_batch_retrain_state_mid_run(heat_problem):
    """A batch-mode model pickled right after a learned-tier answer keeps its
    retrain interval and the answer's credit: the copy refits where the
    original does, backs off where it does, and answers bit-identically."""
    rb_gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-3)
    model = AdaptiveModel(rb_gen, VkogaGenerator(rb_gen.precompute(), pending_threshold=2))
    rng = np.random.default_rng(42)
    for _ in range(7):
        model.query(heat_problem.box.sample(rng))
    assert model.records[-1].tier == "ml"
    copy = roundtrip(model)
    gen = copy.ml_generator
    assert (gen.refit_interval, gen._earned, gen._deferred) == (2, True, False)
    queries = [heat_problem.box.sample(rng) for _ in range(13)]
    logged = len(model.events)
    runs = []
    for m in (model, copy):
        answers = [m.query(mu) for mu in queries]
        runs.append([(rec.tier, rec.delta_ml, rec.delta_rb, rec.basis_dim, signal.values) for signal, rec in answers])
    assert copy.events == model.events
    learned = [(e["kind"], e["index"]) for e in copy.events[logged:] if e["kind"] != "rb_enrich"]
    # the refit at query 8 is due only because query 6 was answered by the tier
    assert learned == [("ml_train", 8), ("ml_train", 12), ("ml_backoff", 14), ("ml_train", 19)]
    for original, restored in zip(*runs):
        assert original[:4] == restored[:4]
        assert np.array_equal(original[4], restored[4])
