import numpy as np
import pytest

import certrom.kernels
import certrom.mlp
from certrom import (
    DnnGenerator,
    FullOrderModel,
    KernelConfig,
    RbGenerator,
    TimeGrid,
    TrainConfig,
    Trajectory,
    VkogaGenerator,
    l2_time_norm,
    vkoga_fit,
)
from certrom.kernels import kernel_matrix
from certrom.rb import TEMPORAL_TOL

from oracles import kernel_eval


class TestKernel:
    def test_zero_distance(self):
        assert kernel_eval([1.0, 2.0], [1.0, 2.0], 0.7) == 1.0

    def test_unit_distance(self):
        assert kernel_eval([0.0, 0.0], [1.0, 0.0], 1.0) == pytest.approx(np.exp(-1.0))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.normal(size=(2, 4))
            assert kernel_eval(x, y, 0.3) == pytest.approx(kernel_eval(y, x, 0.3), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval([1.0], [1.0, 2.0], 1.0)


class TestFit:
    def test_single_sample_exact(self):
        model = vkoga_fit(np.array([[0.3, 0.4]]), np.array([[2.0, -1.0, 5.0]]), KernelConfig())
        assert np.allclose(model.predict([[0.3, 0.4]]), [[2.0, -1.0, 5.0]], atol=1e-12)

    def test_full_interpolation_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(size=(15, 2))
        ys = rng.normal(size=(15, 3))
        cfg = KernelConfig(gamma=2.0)
        model = vkoga_fit(xs, ys, cfg)
        assert np.max(np.abs(model.predict(xs) - ys)) <= 1e-8

        k = kernel_matrix(xs, xs, 2.0)
        dense_coeffs = np.linalg.solve(k, ys)
        probes = rng.uniform(size=(5, 2))
        dense_pred = kernel_matrix(probes, xs, 2.0) @ dense_coeffs
        assert np.allclose(model.predict(probes), dense_pred, atol=1e-7)

    def test_greedy_residual_decay_non_increasing(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(size=(40, 3))
        ys = np.column_stack([np.sin(3 * xs[:, 0]), xs[:, 1] * xs[:, 2]])
        model = vkoga_fit(xs, ys, KernelConfig())
        decay = model.rkhs_residual_decay()
        assert np.all(np.diff(decay) <= 1e-12)
        assert decay[-1] == 0.0
        # the pointwise max residual, by contrast, genuinely overshoots; the
        # selected values still trend to zero
        hist = np.array(model.greedy_history)
        assert hist[-1] <= 1e-2 * hist[0]

    def test_coincident_inputs_rejected(self):
        xs = np.array([[0.1, 0.2], [0.1, 0.2]])
        ys = np.zeros((2, 1))
        with pytest.raises(ValueError, match="coincident"):
            vkoga_fit(xs, ys, KernelConfig())

    def test_max_centers_respected(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=(30, 2))
        ys = rng.normal(size=(30, 2))
        model = vkoga_fit(xs, ys, KernelConfig(max_centers=7))
        assert model.num_centers == 7

    def test_warm_fit_needs_a_prefix_of_the_inputs(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(size=(6, 2))
        ys = rng.normal(size=(6, 3))
        warm = vkoga_fit(xs[:4], ys[:4], KernelConfig())
        with pytest.raises(ValueError, match="prefix"):
            vkoga_fit(xs[::-1], ys[::-1], KernelConfig(), warm=warm)
        with pytest.raises(ValueError, match="prefix"):
            vkoga_fit(xs[:3], ys[:3], KernelConfig(), warm=warm)
        with pytest.raises(ValueError, match="prefix"):
            vkoga_fit(xs, ys, KernelConfig(gamma=3.0), warm=warm)
        assert vkoga_fit(xs, ys, KernelConfig(), warm=warm) is warm

    def test_warm_fit_without_new_center_keeps_coefficients(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(size=(5, 2))
        ys = rng.normal(size=(5, 3))
        config = KernelConfig(max_centers=2)
        model = vkoga_fit(xs[:4], ys[:4], config)
        coefficients, before = model.coefficients, model.predict(xs)
        assert model.num_centers == 2
        assert vkoga_fit(xs, ys, config, warm=model) is model
        assert model.num_centers == 2 and model.coefficients is coefficients
        assert np.array_equal(model.predict(xs), before)


# The sample store and the nested-basis check are shared by both learned
# backends; tests of that contract run once per backend.
LEARNED_BACKENDS = (
    VkogaGenerator,
    lambda rom: DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=0, max_epochs=3)),
)


@pytest.fixture(scope="module")
def trained_stack(heat_problem):
    fom = FullOrderModel(heat_problem)
    rb_gen = RbGenerator(fom, eps=1e-3)
    rng = np.random.default_rng(11)
    mus = [heat_problem.box.sample(rng) for _ in range(4)]
    for mu in mus:
        rb_gen.extend(mu)
    rom = rb_gen.precompute()
    return heat_problem, fom, rb_gen, rom, mus


class TestPredictState:
    def test_training_parameter_reproduced(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        for mu in mus:
            gen.extend(mu)
        ml = gen.precompute()
        mu = mus[0]
        rb_traj = rom.eval_state(mu)
        ml_traj = ml.eval_state(mu)
        scale = np.max(np.abs(rb_traj.coeffs)) or 1.0
        assert np.max(np.abs(ml_traj.coeffs[1:] - rb_traj.coeffs[1:])) <= 1e-8 * scale

    def test_untrained_model_predicts_exact_initial_row_and_zeros(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        ml = VkogaGenerator(rom).current_model()
        traj = ml.eval_state(mus[0])
        assert np.allclose(traj.coeffs[0], rom.init_coeffs)
        assert np.allclose(traj.coeffs[1:], 0.0)

    def test_estimate_finite_for_random_parameters(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        gen.extend(mus[0])
        ml = gen.precompute()
        rng = np.random.default_rng(12)
        for _ in range(5):
            est = ml.est_output(problem.box.sample(rng))
            assert np.isfinite(est) and est >= 0.0


class TestGenerator:
    def test_extend_stores_flattened_target_length(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        gen.extend(mus[0])
        mu, coeffs = gen.samples[0]
        assert (gen.time_basis @ coeffs).size == rom.time_grid.num_nodes * rom.dim

    def test_duplicate_extend_replaces(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        for make in LEARNED_BACKENDS:
            gen = make(rom)
            gen.extend(mus[0])
            gen.extend(mus[0])
            assert len(gen.samples) == 1, type(gen).__name__

    def test_trajectory_off_the_time_grid_rejected(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        grid = rom.time_grid
        coarse = TimeGrid(grid.t_end, grid.num_nodes - 1)
        for make in LEARNED_BACKENDS:
            gen = make(rom)
            gen.extend(mus[0])
            with pytest.raises(ValueError, match="time grid"):
                gen.extend(mus[1], Trajectory(coarse, np.zeros((coarse.num_nodes, rom.dim))))
            assert len(gen.samples) == 1 and np.array_equal(gen.samples[0][0], mus[0]), type(gen).__name__

    def test_precompute_idempotent(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        gen.extend(mus[0])
        ml1 = gen.precompute()
        ml2 = gen.precompute()
        assert ml1.model is ml2.model

    def test_empty_training_set_rejected(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        with pytest.raises(ValueError, match="empty training set"):
            VkogaGenerator(rom).precompute()

    def test_refit_is_warm_only_after_appends(self, trained_stack, monkeypatch):
        problem, fom, rb_gen, rom, mus = trained_stack
        warm_models = []

        def recording(xs, ys, config, warm=None):
            warm_models.append(warm)
            return fit(xs, ys, config, warm=warm)

        fit = certrom.kernels.vkoga_fit
        monkeypatch.setattr(certrom.kernels, "vkoga_fit", recording)
        gen = VkogaGenerator(rom)
        for mu in mus[:2]:
            gen.extend(mu)
        model = gen.precompute().model
        history = list(model.greedy_history)
        gen.extend(mus[2])
        resumed = gen.precompute().model
        # appended only: the greedy resumed on the previous model, carried
        # over (zero-padded) to any temporal modes the new sample added
        assert warm_models[-1] is resumed and resumed.greedy_history[: len(history)] == history

        assert gen.discard([True, False, True]) == 1
        refit = gen.precompute(force=True).model
        assert warm_models[-1] is None and refit is not resumed  # a discard makes the refit cold
        xs = np.array([rom.box.to_unit(mu) for mu in gen.training_parameters])
        cold = vkoga_fit(xs, np.array([coeffs.ravel() for _, coeffs in gen.samples]), gen.config)
        probe = rom.box.to_unit(mus[3])[None, :]
        assert np.array_equal(refit.predict(probe), cold.predict(probe))

        gen.extend(mus[0])  # replaces the stored trajectory at mus[0]
        assert gen.precompute().model is not refit
        with pytest.raises(ValueError, match="keep flag"):
            gen.discard([True])

    def test_fits_read_the_stored_trajectories_in_place(self, trained_stack, monkeypatch):
        """Each trajectory is stored once: after appends, a replacement, a
        discard and a prolongation, every sample is a read-only view of the
        targets the backend's fit reads."""
        problem, fom, rb_gen, rom, mus = trained_stack
        gen2 = RbGenerator(fom, eps=1e-3)
        for mu in mus[:2]:
            gen2.extend(mu)
        rom_a = gen2.precompute()
        gen2.extend([0.52, 1.97])
        rom_b = gen2.precompute()
        assert rom_b.dim > rom_a.dim

        fitted_targets = []

        def spy(fit):
            def recording(xs, ys, *args, **kwargs):
                fitted_targets.append(ys)
                return fit(xs, ys, *args, **kwargs)
            return recording

        monkeypatch.setattr(certrom.kernels, "vkoga_fit", spy(certrom.kernels.vkoga_fit))
        monkeypatch.setattr(certrom.mlp, "mlp_train", spy(certrom.mlp.mlp_train))
        for make in LEARNED_BACKENDS:
            gen = make(rom_a)

            def check(count):
                fitted_targets.clear()
                gen.precompute(force=True)
                (ys,) = fitted_targets
                assert len(gen.samples) == count, type(gen).__name__
                for i, (_, coeffs) in enumerate(gen.samples):
                    assert not coeffs.flags.writeable
                    if isinstance(gen, VkogaGenerator):  # regresses the stored coordinates
                        assert np.shares_memory(coeffs, ys)
                    else:  # trains on the trajectories they rebuild, one row per time node
                        K = gen.time_basis.shape[0]
                        rebuilt = gen.time_basis @ coeffs
                        assert np.allclose(ys[i * K : (i + 1) * K], rebuilt, rtol=0, atol=1e-13 * np.abs(rebuilt).max())

            for mu in mus[:3]:
                gen.extend(mu)
            check(3)
            gen.extend(mus[1])  # replaces the stored trajectory at mus[1]
            check(3)
            gen.discard([True, False, True])
            check(2)
            gen = gen.prolong(rom_b)
            gen.extend(mus[3])
            check(3)

    def test_training_parameters_certify(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        for mu in mus:
            assert rom.est_output(mu) <= 1e-3  # caller-side precondition
            gen.extend(mu)
        ml = gen.precompute()
        for mu in mus:
            assert ml.est_output(mu) <= 1e-3
            err = l2_time_norm(fom.eval_output(mu) - ml.eval_output(mu))
            assert err <= ml.est_output(mu) * (1 + 1e-10)


class TestProlong:
    def test_same_dimension_keeps_data(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        gen.extend(mus[0])
        ml = gen.precompute()
        out = gen.prolong(rom)
        assert np.array_equal(out.samples[0][1], gen.samples[0][1])
        assert out._model is gen._model

    def test_zero_padding_layout(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack

        # grow the basis by extending at a fresh parameter
        gen2 = RbGenerator(fom, eps=1e-3)
        for mu in mus[:2]:
            gen2.extend(mu)
        rom_a = gen2.precompute()
        ml_gen = VkogaGenerator(rom_a)
        ml_gen.extend(mus[0])
        gen2.extend([0.52, 1.97])
        rom_b = gen2.precompute()
        assert rom_b.dim > rom_a.dim

        out = ml_gen.prolong(rom_b)
        old = ml_gen.samples[0][1]
        new = out.samples[0][1]
        assert new.shape == (old.shape[0], rom_b.dim)
        assert np.array_equal(new[:, : rom_a.dim], old)
        assert np.allclose(new[:, rom_a.dim :], 0.0)

    def test_prolonged_model_reconstructs_same_full_order_prediction(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen2 = RbGenerator(fom, eps=1e-3)
        for mu in mus[:2]:
            gen2.extend(mu)
        rom_a = gen2.precompute()
        ml_gen = VkogaGenerator(rom_a)
        for mu in mus[:2]:
            ml_gen.extend(mu)
        ml_a = ml_gen.precompute()
        before = ml_a.eval_state(mus[0]).coeffs @ rom_a.basis.T

        gen2.extend([1.93, 0.57])
        rom_b = gen2.precompute()
        ml_b = ml_gen.prolong(rom_b).current_model()
        after = ml_b.eval_state(mus[0]).coeffs @ rom_b.basis.T
        scale = max(np.max(np.abs(before)), 1e-300)
        assert np.max(np.abs(after - before)) <= 1e-8 * scale

    def test_non_nested_basis_rejected(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        from certrom import assemble_rb_rom

        shuffled = rom.basis[:, ::-1].copy()
        other = assemble_rb_rom(problem, shuffled)
        for make in LEARNED_BACKENDS:
            gen = make(rom)
            if rom.dim > 1:
                with pytest.raises(ValueError, match="nested"):
                    gen.prolong(other)


class TestTemporalBasis:
    """The store keeps each trajectory C as its coordinates T^T C in one
    shared, nested, orthonormal temporal basis T."""

    def test_coordinates_reproduce_trajectories_in_a_nested_basis(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen2 = RbGenerator(fom, eps=1e-3)
        for mu in mus[:2]:
            gen2.extend(mu)
        rom_a = gen2.precompute()
        gen2.extend([0.52, 1.97])
        rom_b = gen2.precompute()
        assert rom_b.dim > rom_a.dim
        gen = VkogaGenerator(rom_a)
        stored = {}  # trajectories by parameter, as extended
        previous = gen.time_basis

        def check():
            nonlocal previous
            basis = gen.time_basis
            assert basis.shape[0] == rom_a.time_grid.num_nodes
            assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-13
            assert np.array_equal(basis[:, : previous.shape[1]], previous)  # nested
            for mu, coords in gen.samples:
                assert coords.shape == (basis.shape[1], gen.rb_rom.dim)
                trajectory = stored[tuple(mu)]
                miss = np.linalg.norm(basis @ coords - trajectory)
                assert miss <= TEMPORAL_TOL * np.linalg.norm(trajectory)
            previous = basis

        for mu in mus[:3]:
            stored[tuple(mu)] = rom_a.eval_state(mu).coeffs
            gen.extend(mu)
            check()
        assert 0 < gen.time_basis.shape[1] < rom_a.time_grid.num_nodes
        gen.discard([True, False, True])
        check()
        gen = gen.prolong(rom_b)
        pad = rom_b.dim - rom_a.dim
        stored = {mu: np.pad(c, ((0, 0), (0, pad))) for mu, c in stored.items()}
        check()
        stored[tuple(mus[3])] = rom_b.eval_state(mus[3]).coeffs
        gen.extend(mus[3])
        check()

    def test_warm_refit_after_growth_matches_cold_fit(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        gen.extend(mus[0])
        gen.precompute()
        widths = [gen.time_basis.shape[1]]
        for mu in mus[1:]:
            gen.extend(mu)
            widths.append(gen.time_basis.shape[1])
            warm = gen.precompute().model
        assert widths[-1] > widths[0]  # the basis grew between warm refits
        xs = np.array([rom.box.to_unit(mu) for mu in gen.training_parameters])
        cold = vkoga_fit(xs, np.array([coords.ravel() for _, coords in gen.samples]), gen.config)
        assert sorted(warm._selected) == sorted(cold._selected)  # picked in another order
        probes = np.random.default_rng(13).uniform(size=(5, problem.box.dim))
        expected = cold.predict(probes)
        assert np.max(np.abs(warm.predict(probes) - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_store_width_on_coarse_reactive_flow(self, small_reactive_problem):
        problem = small_reactive_problem
        rb_gen = RbGenerator(FullOrderModel(problem), eps=1e-3)
        rng = np.random.default_rng(14)
        for _ in range(2):
            rb_gen.extend(problem.box.sample(rng))
        rom = rb_gen.precompute()
        gen = VkogaGenerator(rom)
        for _ in range(6):
            gen.extend(problem.box.sample(rng))
        m, K = gen.time_basis.shape[1], problem.time_grid.num_nodes
        assert 0 < m < K
        assert gen._targets().shape == (6, m * rom.dim)

    def test_estimate_certifies_the_rebuilt_trajectory(self, trained_stack):
        problem, fom, rb_gen, rom, mus = trained_stack
        gen = VkogaGenerator(rom)
        for mu in mus[:3]:
            gen.extend(mu)
        ml = gen.precompute()
        basis = gen.time_basis
        for mu in (mus[1], mus[3]):
            coords = ml.model.predict(rom.box.to_unit(mu)[None, :])[0].reshape(basis.shape[1], rom.dim)
            rebuilt = basis @ coords
            rebuilt[0] = rom.init_coeffs
            assert np.array_equal(ml.eval_state(mu).coeffs, rebuilt)
            assert ml.est_output(mu) == rom.est_output_for(Trajectory(rom.time_grid, rebuilt), mu)
