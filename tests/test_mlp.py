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
    mlp_loss_grad,
    mlp_train,
)
from certrom.mlp import AdamState, EarlyStopper, init_params, zero_params


def flat(params):
    return np.concatenate([w.ravel() for w in params.weights] + [b.ravel() for b in params.biases])


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
        params = init_params([2, 3], rng)
        state = AdamState(zero_params([2, 3]), zero_params([2, 3]))
        out, state2 = adam_step(params, zero_params([2, 3]), state, lr=0.1)
        assert np.allclose(flat(out), flat(params))
        assert state2.step == 1

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(6)
        sizes = [2, 2]
        params = init_params(sizes, rng)
        grads = init_params(sizes, rng)
        state = AdamState(zero_params(sizes), zero_params(sizes))
        lr = 0.01
        out, _ = adam_step(params, grads, state, lr)
        g = flat(grads)
        expected = flat(params) - lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(flat(out), expected, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        sizes = [3, 3]
        params = init_params(sizes, rng)
        grads = init_params(sizes, rng)
        s0 = AdamState(zero_params(sizes), zero_params(sizes))
        a, _ = adam_step(params, grads, s0, 0.05)
        s1 = AdamState(zero_params(sizes), zero_params(sizes))
        b, _ = adam_step(params, grads, s1, 0.05)
        assert np.array_equal(flat(a), flat(b))


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
        params = mlp_train(x, y, [3, 16, 2], cfg)
        loss = np.mean(np.sum((mlp_forward(params, x) - y) ** 2, axis=1))
        assert loss <= 1e-6

    def test_seeded_training_bitwise_reproducible(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(50, 2))
        y = np.column_stack([x[:, 0] ** 2, x.sum(axis=1)])
        cfg = TrainConfig(seed=5, max_epochs=10)
        a = mlp_train(x, y, [2, 8, 2], cfg)
        b = mlp_train(x, y, [2, 8, 2], cfg)
        assert np.array_equal(flat(a), flat(b))

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            mlp_train(np.zeros((1, 2)), np.zeros((1, 1)), [2, 1], TrainConfig())


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
        cold = mlp_train(xs, ys, sizes, replace(cfg, seed=cfg.seed + 1))
        assert np.array_equal(flat(retrained), flat(cold))

