from dataclasses import replace

import numpy as np
import pytest

from certrom import (
    DnnGenerator,
    DnnRom,
    FullOrderModel,
    RbGenerator,
    TrainConfig,
    adam_step,
    mlp_forward,
    mlp_train,
)
from certrom.core import NumericalError
from certrom.mlp import AdamState, EarlyStopper, init_params, layer_views
from oracles import mlp_loss_grad, mlp_loss_grad_allocating, mlp_train_allocating, zero_params


def flat(params):
    return params.flat()


class TestForward:
    def test_zero_params_zero_output(self):
        params = zero_params([3, 5, 2])
        assert np.allclose(mlp_forward(params, np.ones(3)), 0.0)

    def test_single_affine_layer(self):
        rng = np.random.default_rng(0)
        params = init_params([4, 3], rng)
        x = rng.normal(size=4)
        assert np.allclose(mlp_forward(params, x), params.weights[0] @ x + params.biases[0])

    def test_matches_hand_rolled_recursion(self):
        rng = np.random.default_rng(1)
        params = init_params([3, 6, 2], rng)
        x = rng.normal(size=3)
        hidden = np.maximum(params.weights[0] @ x + params.biases[0], 0.0)
        expected = params.weights[1] @ hidden + params.biases[1]
        assert np.allclose(mlp_forward(params, x), expected, atol=1e-12)

    def test_shape_mismatch(self):
        params = zero_params([3, 2])
        with pytest.raises(ValueError):
            mlp_forward(params, np.ones(4))


class TestLossGrad:
    def test_perfect_fit_zero_gradients(self):
        rng = np.random.default_rng(2)
        params = init_params([2, 4, 3], rng)
        x = rng.normal(size=(6, 2))
        y = mlp_forward(params, x)
        loss, grads = mlp_loss_grad(params, x, y)
        assert loss == 0.0
        assert np.allclose(flat(grads), 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        sizes = [4, 8, 6, 3]
        params = init_params(sizes, rng)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 3))
        _, grads = mlp_loss_grad(params, x, y)
        h = 1e-5
        worst = 0.0
        for arrays, g_arrays in ((params.weights, grads.weights), (params.biases, grads.biases)):
            for arr, g in zip(arrays, g_arrays):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    arr[idx] += h
                    up, _ = mlp_loss_grad(params, x, y)
                    arr[idx] -= 2 * h
                    down, _ = mlp_loss_grad(params, x, y)
                    arr[idx] += h
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-7:
                        worst = max(worst, abs(fd - g[idx]) / abs(fd))
        assert worst <= 1e-4

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(4)
        params = init_params([3, 5, 2], rng)
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 2))
        loss1, _ = mlp_loss_grad(params, x, y)
        perm = rng.permutation(7)
        loss2, _ = mlp_loss_grad(params, x[perm], y[perm])
        assert loss1 == pytest.approx(loss2, rel=1e-14)

    def test_empty_batch_rejected(self):
        params = zero_params([2, 2])
        with pytest.raises(ValueError):
            mlp_loss_grad(params, np.zeros((0, 2)), np.zeros((0, 2)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        rng = np.random.default_rng(5)
        params = flat(init_params([2, 3], rng))
        before = params.copy()
        state = AdamState(params.size)
        adam_step(params, np.zeros(params.size), state, lr=0.1)
        assert np.allclose(params, before)
        assert state.step == 1

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(6)
        sizes = [2, 2]
        params = flat(init_params(sizes, rng))
        g = flat(init_params(sizes, rng))
        expected = params - 0.01 * g / (np.abs(g) + 1e-8)
        adam_step(params, g, AdamState(params.size), 0.01)
        assert np.allclose(params, expected, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        sizes = [3, 3]
        a = flat(init_params(sizes, rng))
        grads = flat(init_params(sizes, rng))
        b = a.copy()
        adam_step(a, grads, AdamState(a.size), 0.05)
        adam_step(b, grads, AdamState(b.size), 0.05)
        assert np.array_equal(a, b)


class TestEarlyStopper:
    def test_monotone_worsening_stops_after_patience(self):
        stopper = EarlyStopper(patience=3)
        losses = [1.0, 1.1, 1.2, 1.3, 1.4]
        stops = [stopper.update(v) for v in losses]
        # best at the first epoch; stop exactly patience + 1 epochs past it
        assert stops == [False, False, False, False, True]

    def test_improvement_resets(self):
        stopper = EarlyStopper(patience=2)
        assert [stopper.update(v) for v in [1.0, 1.1, 0.9, 1.0, 1.1, 1.2]] == [
            False, False, False, False, False, True,
        ]


class TestTraining:
    def test_constant_targets_converge(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(400, 3))
        y = np.tile([0.3, -0.7], (400, 1))
        cfg = TrainConfig(seed=1, max_epochs=200, batch_size=16, lr_decay=0.8, lr_every=20)
        params = mlp_train(x, y, [3, 16, 2], cfg).params
        loss = np.mean(np.sum((mlp_forward(params, x) - y) ** 2, axis=1))
        assert loss <= 1e-6

    def test_seeded_training_bitwise_reproducible(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(50, 2))
        y = np.column_stack([x[:, 0] ** 2, x.sum(axis=1)])
        cfg = TrainConfig(seed=5, max_epochs=10)
        a = mlp_train(x, y, [2, 8, 2], cfg)
        b = mlp_train(x, y, [2, 8, 2], cfg)
        assert np.array_equal(flat(a.params), flat(b.params))
        assert (a.epochs, a.val_loss) == (b.epochs, b.val_loss)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            mlp_train(np.zeros((1, 2)), np.zeros((1, 1)), [2, 1], TrainConfig())

    @pytest.mark.parametrize("target", [1e200, np.nan])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_validation_loss_raises(self, target):
        x = np.random.default_rng(12).uniform(-1, 1, size=(40, 2))
        with pytest.raises(NumericalError, match="finite validation loss"):
            mlp_train(x, np.full((40, 1), target), [2, 4, 1], TrainConfig(max_epochs=2, restarts=2))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr_every", 0),
        ("batch_size", 12.5),
        ("batch_size", 0),
        ("max_epochs", 0),
        ("max_epochs", 2.0),
        ("restarts", 0),
        ("patience", -1),
        ("patience", True),
        ("lr_decay", -0.5),
        ("lr_decay", 0.0),
        ("lr_decay", 1.5),
        ("learning_rate", 0.0),
    ])
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrainConfig(patience=0, lr_decay=1.0, batch_size=np.int64(1), lr_every=1, restarts=1, max_epochs=1)


class TestAgainstAllocatingOracle:
    """The trainer's in-place float32 steps against the allocating forward,
    backward and per-array Adam in tests/oracles.py, bit for bit."""

    SIZES = [3, 12, 12, 2]

    @staticmethod
    def data():
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, size=(61, 3)).astype(np.float32)
        y = np.column_stack([np.sin(3 * x[:, 0]), x[:, 1] * x[:, 2]]).astype(np.float32)
        return x, y

    @pytest.mark.parametrize("restarts, warm", [(1, False), (2, False), (2, True)])
    def test_float32_training_bitwise(self, restarts, warm):
        x, y = self.data()
        # 3 validation rows, 58 training rows: batches of 16 end with a ragged 10
        cfg = TrainConfig(seed=4, batch_size=16, max_epochs=5, lr_every=2, patience=20, restarts=restarts)
        warm_start = init_params(self.SIZES, np.random.default_rng(14)) if warm else None
        result = mlp_train(x, y, self.SIZES, cfg, warm_start=warm_start)
        expected, epochs, val_loss = mlp_train_allocating(x, y, self.SIZES, cfg, warm_start=warm_start)
        assert all(w.dtype == np.float32 for w in expected.weights)
        assert result.params.flat().dtype == np.float64
        assert np.array_equal(result.params.flat(), expected.flat().astype(np.float64))
        assert (result.epochs, result.val_loss) == (epochs, val_loss) == (5 * restarts, val_loss)

    def test_float64_loss_grad_bitwise(self):
        rng = np.random.default_rng(15)
        params = init_params([4, 8, 6, 3], rng)
        x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        loss, grads = mlp_loss_grad(params, x, y)
        expected_loss, expected = mlp_loss_grad_allocating(params, x, y)
        assert loss == expected_loss
        assert grads.flat().dtype == np.float64
        assert np.array_equal(grads.flat(), expected.flat())

    def test_layer_views_share_the_flat_vector(self):
        sizes = [3, 4, 2]
        vector = np.arange(26.0)
        params = layer_views(vector, sizes)
        assert params.sizes == sizes and params.num_parameters == vector.size
        params.biases[-1][:] = -1.0
        assert np.array_equal(vector[-2:], [-1.0, -1.0])
        assert np.array_equal(params.flat(), vector)
        with pytest.raises(ValueError):
            layer_views(np.zeros(25), sizes)


@pytest.fixture(scope="module")
def rb_stack(heat_problem):
    fom = FullOrderModel(heat_problem)
    gen = RbGenerator(fom, eps=1e-3)
    rng = np.random.default_rng(10)
    mus = [heat_problem.box.sample(rng) for _ in range(10)]
    for mu in mus[:3]:
        gen.extend(mu)
    return heat_problem, fom, gen, gen.precompute(), mus


class TestPredictState:
    def test_zero_params_prediction(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        from certrom.mlp import InputScaler

        scaler = InputScaler(problem.box, problem.time_grid.t_end)
        traj = DnnRom(rom, None, scaler).eval_state(mus[0])
        assert np.allclose(traj.coeffs[0], rom.init_coeffs)
        assert np.allclose(traj.coeffs[1:], 0.0)

    def test_batched_equals_per_node_forward(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        from certrom.mlp import InputScaler

        rng = np.random.default_rng(11)
        sizes = [problem.box.dim + 1, 8, rom.dim]
        params = init_params(sizes, rng)
        scaler = InputScaler(problem.box, problem.time_grid.t_end)
        traj = DnnRom(rom, params, scaler).eval_state(mus[0])
        for k in (1, 7, 23):
            x = scaler.scale(np.concatenate([mus[0], [problem.time_grid.nodes[k]]]))
            assert np.allclose(traj.coeffs[k], mlp_forward(params, x), atol=1e-12)


class TestGenerator:
    def test_extend_precompute_certifies_some(self, rb_stack, capsys):
        problem, fom, gen, rom, mus = rb_stack
        dgen = DnnGenerator(rom, hidden=(32, 32), config=TrainConfig(seed=2), pending_threshold=1)
        for mu in mus:
            dgen.extend(mu)
        ml = dgen.precompute(force=True)
        passed = sum(ml.est_output(mu) <= 5e-2 for mu in mus)
        print(f"certified {passed}/{len(mus)} training parameters at 5e-2")
        assert dgen.trainings == 1
        for mu in mus[:3]:
            assert np.isfinite(ml.est_output(mu))

    def test_prolong_same_dimension_keeps_params(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        dgen = DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=3, max_epochs=5), pending_threshold=1)
        dgen.extend(mus[0])
        dgen.precompute(force=True)
        out = dgen.prolong(rom)
        assert np.array_equal(flat(out.params), flat(dgen.params))

    def test_prolong_grows_final_layer_with_zero_rows(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        dgen = DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=4, max_epochs=5), pending_threshold=1)
        dgen.extend(mus[0])
        ml_before = dgen.precompute(force=True)

        grown = RbGenerator(fom, eps=1e-3)
        for mu in mus[:3]:
            grown.extend(mu)
        grown.extend(mus[4])
        rom_b = grown.precompute()
        assert rom_b.dim > rom.dim

        out = dgen.prolong(rom_b)
        ml_after = out.current_model()
        a = ml_before.eval_state(mus[0]).coeffs
        b = ml_after.eval_state(mus[0]).coeffs
        assert np.allclose(b[:, : rom.dim], a, atol=1e-14)
        assert np.allclose(b[1:, rom.dim :], 0.0)

    def test_batch_threshold_defers_training(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        dgen = DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=5, max_epochs=3), pending_threshold=50)
        for mu in mus[:4]:
            dgen.extend(mu)
        ml = dgen.precompute()
        assert dgen.trainings == 0 and ml.params is None
        ml = dgen.precompute(force=True)
        assert dgen.trainings == 1 and ml.params is not None


    def test_discard_retrains_cold(self, rb_stack):
        problem, fom, gen, rom, mus = rb_stack
        cfg = TrainConfig(seed=6, max_epochs=3)
        dgen = DnnGenerator(rom, hidden=(8,), config=cfg, pending_threshold=1)
        for mu in mus[:3]:
            dgen.extend(mu)
        dgen.precompute()
        assert dgen.discard([True, False, True]) == 1
        assert dgen.params is None
        retrained = dgen.precompute(force=True).params

        xs, ys = dgen._training_arrays()
        sizes = [xs.shape[1], 8, rom.dim]
        cold = mlp_train(xs, ys, sizes, replace(cfg, seed=cfg.seed + 1)).params
        assert np.array_equal(flat(retrained), flat(cold))

