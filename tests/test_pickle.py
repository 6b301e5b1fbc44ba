"""Problems, full-order and reduced models, and fitted learned generators
survive a pickle round trip with bit-identical answers, so long runs can be
checkpointed and models sent to worker processes."""

import pickle

import numpy as np
import pytest

from certrom import (
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
