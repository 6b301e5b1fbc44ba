import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from certrom import (
    EnergyFactor,
    FullOrderModel,
    HapodConfig,
    IncrementalHapod,
    NumericalError,
    RbGenerator,
    assemble_rb_rom,
    l2_time_norm,
)
from oracles import energy_gram_schmidt, pod_modes


def random_spd_gram(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return sp.csr_matrix(m @ m.T + n * np.eye(n))


class TestGramSchmidt:
    def test_orthonormal_input_unchanged_up_to_sign(self):
        g = sp.identity(5, format="csr")
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 3)))
        out = energy_gram_schmidt(q, g)
        assert out.shape == q.shape
        for j in range(3):
            assert abs(abs(out[:, j] @ q[:, j]) - 1.0) < 1e-12

    def test_elementary_pair(self):
        g = sp.identity(3, format="csr")
        vecs = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        out = energy_gram_schmidt(vecs, g)
        assert np.allclose(out[:, 0], [1, 0, 0])
        assert np.allclose(np.abs(out[:, 1]), [0, 1, 0])

    def test_random_vectors_random_gram(self):
        g = random_spd_gram(12, 1)
        vecs = np.random.default_rng(2).normal(size=(12, 10))
        out = energy_gram_schmidt(vecs, g)
        eye = out.T @ (g @ out)
        assert np.max(np.abs(eye - np.eye(out.shape[1]))) <= 1e-10

    def test_dependent_vectors_dropped(self):
        g = sp.identity(4, format="csr")
        v = np.random.default_rng(3).normal(size=4)
        out = energy_gram_schmidt(np.column_stack([v, 2 * v, v + 1e-14 * np.ones(4)]), g)
        assert out.shape[1] == 1

    def test_against_existing_basis(self):
        g = sp.identity(4, format="csr")
        existing = np.eye(4)[:, :2]
        out = energy_gram_schmidt(np.array([[1.0], [1.0], [1.0], [0.0]]), g, existing=existing)
        assert out.shape[1] == 1
        assert np.allclose(existing.T @ out, 0.0, atol=1e-12)

    def test_cancellation_inside_the_batch_keeps_orthogonality(self):
        # the second column cancels against the first to 1e-9: what the first
        # pass left along the existing set must not be amplified into it
        g = random_spd_gram(40, 4)
        rng = np.random.default_rng(5)
        existing = energy_gram_schmidt(rng.normal(size=(40, 20)), g)
        a, b = rng.normal(size=(2, 40))
        out = energy_gram_schmidt(np.column_stack([a, a + 1e-9 * b]), g, existing=existing)
        full = np.hstack([existing, out])
        assert out.shape[1] == 2
        assert np.max(np.abs(full.T @ (g @ full) - np.eye(full.shape[1]))) <= 1e-12


class TestIncrementalHapod:
    def test_single_vector(self):
        g = random_spd_gram(6, 4)
        energy = EnergyFactor(g)
        v = np.random.default_rng(5).normal(size=6)
        h = IncrementalHapod(6, HapodConfig(1e-6, chunk=4), n_expected=1)
        h.feed(energy.whiten_states(v))
        modes, svals = h.finalize()
        modes = energy.unwhiten_states(modes)
        norm = np.sqrt(v @ (g @ v))
        assert modes.shape == (6, 1)
        assert svals[0] == pytest.approx(norm, rel=1e-12)
        assert np.allclose(np.abs(modes[:, 0]), np.abs(v / norm), atol=1e-12)

    def test_duplicated_vector_single_mode(self):
        v = np.random.default_rng(6).normal(size=5)
        h = IncrementalHapod(5, HapodConfig(1e-6, chunk=2), n_expected=2)
        h.feed(np.column_stack([v, v]))
        modes, _ = h.finalize()
        assert modes.shape[1] == 1

    def test_mean_square_bound_and_mode_count(self):
        # 50 random vectors in a 20-dimensional space, chunked compression
        rng = np.random.default_rng(7)
        g = random_spd_gram(20, 8)
        energy = EnergyFactor(g)
        data = rng.normal(size=(20, 50))
        eps = 1e-6
        h = IncrementalHapod(20, HapodConfig(eps, chunk=10), n_expected=50)
        for start in range(0, 50, 10):
            h.feed(energy.whiten_states(data[:, start : start + 10]))
        modes = energy.unwhiten_states(h.finalize()[0])

        proj = modes @ (modes.T @ (g @ data))
        defect = data - proj
        mean_sq = np.mean(np.einsum("ij,ij->j", defect, g @ defect))
        assert mean_sq <= eps**2

        global_modes, _ = pod_modes(data, g, eps)
        assert modes.shape[1] <= global_modes.shape[1] + 2
        eye = modes.T @ (g @ modes)
        assert np.max(np.abs(eye - np.eye(modes.shape[1]))) <= 1e-10

    def test_compression_does_not_depend_on_how_columns_are_fed(self):
        """Blocks are split at chunk boundaries, so the compressions, the
        stored-vector counts and the modes are those of column-by-column
        feeding, bit for bit."""
        rng = np.random.default_rng(9)
        data = rng.normal(size=(12, 23))
        results = []
        for widths in ([1] * 23, [23], [3, 7, 1, 12]):
            h = IncrementalHapod(12, HapodConfig(1e-3, chunk=5), n_expected=23)
            edges = np.cumsum([0, *widths])
            stored = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                h.feed(data[:, lo:hi])
                stored.append((hi, h.n_stored))
            results.append((dict(stored), *h.finalize()))
        for counts, modes, svals in results[1:]:
            assert all(results[0][0][k] == v for k, v in counts.items())
            assert np.array_equal(modes, results[0][1]) and np.array_equal(svals, results[0][2])

    @pytest.mark.parametrize("chunk", [0, 2.5, True], ids=["zero", "fraction", "bool"])
    def test_chunk_must_be_a_count(self, chunk):
        with pytest.raises(ValueError, match="chunk must be an integer >= 1"):
            HapodConfig(1e-6, chunk=chunk)

    def test_feed_after_finalize_rejected(self):
        h = IncrementalHapod(3, HapodConfig(1e-6, chunk=2), n_expected=2)
        h.feed(np.ones(3))
        h.finalize()
        with pytest.raises(RuntimeError):
            h.feed(np.ones(3))


class TestRbGenerator:
    def test_extend_precompute_is_eps_accurate(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-4)
        rng = np.random.default_rng(9)
        for _ in range(3):
            gen.extend(heat_problem.box.sample(rng))
        rom = gen.precompute()
        for mu in gen.training_parameters:
            assert rom.est_output(mu) <= 1e-4

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_tolerance_must_be_positive(self, heat_problem, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            RbGenerator(FullOrderModel(heat_problem), eps=eps)
        gen = RbGenerator(FullOrderModel(heat_problem), eps=np.inf)
        with pytest.raises(ValueError, match="eps must be positive"):
            gen.eps = eps
        assert gen.eps == np.inf

    def test_failed_stream_records_no_parameter(self, heat_problem, monkeypatch):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3)
        gen.extend([0.6, 0.6])
        rom = gen.precompute()

        real_iter_state = fom.iter_state

        def failing_iter_state(mu):  # fails three steps into the solve
            for k, row in enumerate(real_iter_state(mu)):
                if k == 3:
                    raise NumericalError("singular system")
                yield row

        monkeypatch.setattr(fom, "iter_state", failing_iter_state)
        with pytest.raises(NumericalError):
            gen.extend([1.9, 1.9])
        assert len(gen.training_parameters) == 1
        assert gen.precompute().dim == rom.dim

    def test_nested_bases(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3)
        gen.extend([0.6, 0.6])
        first = gen.basis.copy()
        gen.extend([1.9, 1.9])
        assert gen.basis.shape[1] >= first.shape[1]
        assert np.array_equal(gen.basis[:, : first.shape[1]], first)

    def test_duplicate_extend_leaves_basis_unchanged(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3)
        mu = np.array([1.0, 1.5])
        gen.extend(mu)
        dim = gen.basis.shape[1]
        gen.extend(mu)
        assert gen.basis.shape[1] == dim

    def test_revisited_parameter_is_recertified(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-2)
        mu = np.array([1.3, 0.8])
        gen.extend(mu)
        gen.eps = gen.precompute().est_output(mu) / 2
        gen.extend(mu)
        assert gen.precompute().est_output(mu) <= gen.eps
        assert len(gen.training_parameters) == 1

    def test_first_extend_counts_hapod_modes(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3)
        mu = np.array([1.2, 1.2])
        gen.extend(mu)
        # nothing to project off an empty basis: basis size equals the number
        # of compression modes of the trajectory (zero initial datum adds none)
        cfg = gen.hapod
        h = IncrementalHapod(heat_problem.dim, cfg, heat_problem.time_grid.num_nodes)
        h.feed(heat_problem.energy.whiten_states(fom.eval_state(mu).coeffs.T))
        modes, _ = h.finalize()
        assert gen.basis.shape[1] == modes.shape[1]

    def test_basis_stays_orthonormal_beside_its_whitened_copy(self, heat_problem):
        gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-4, hapod=HapodConfig(eps_pod=1e-2))
        for mu in ([0.6, 1.9], [1.8, 0.7], [1.2, 1.2], [0.9, 0.8]):
            gen.extend(mu)
        streamed = gen.basis.shape[1]
        gen.precompute()  # re-streams at tighter eps_pod grow the basis further
        basis = gen.basis
        assert basis.shape[1] > streamed
        assert np.max(np.abs(basis.T @ (heat_problem.gram @ basis) - np.eye(basis.shape[1]))) <= 1e-10
        assert np.max(np.abs(heat_problem.energy.whiten_states(basis) - gen._whitened)) <= 1e-12

    def test_streaming_memory_bound(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3, hapod=HapodConfig(1e-12, chunk=10))
        gen.extend([0.7, 1.3])
        gen.extend([1.8, 0.8])
        K = heat_problem.time_grid.num_nodes
        bound = 10 + gen.basis.shape[1] + 2 * gen.basis.shape[1]
        assert gen.peak_full_vectors <= bound
        assert gen.peak_full_vectors < 2 * K

    def test_empty_generator_gives_trivial_rom(self, heat_problem):
        gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-3)
        rom = gen.precompute()
        assert rom.dim == 0
        assert rom.est_output([1.0, 1.0]) > 1e-3

    def test_precompute_matches_direct_projection(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-3)
        gen.extend([0.9, 1.6])
        rom = gen.precompute()
        direct = assemble_rb_rom(heat_problem, gen.basis)
        mu = np.array([1.1, 0.9])
        assert np.allclose(
            rom.eval_state(mu).coeffs, direct.eval_state(mu).coeffs, atol=1e-12
        )

    def test_nonzero_initial_datum_is_projected_in_whitened_coordinates(self, heat_problem):
        xy = heat_problem.grid.node_coords
        bump = 16.0 * np.prod(xy * (1.0 - xy), axis=1)  # an interior bump, zero on the boundary
        problem = dataclasses.replace(heat_problem, initial=bump)
        fom = FullOrderModel(problem)
        gen = RbGenerator(fom, eps=1e-3)
        gen.extend([0.7, 1.8])
        gen.extend([1.9, 0.6])
        rom = gen.precompute()
        g = problem.gram
        expected = gen.basis.T @ (g @ bump)
        for assembled in (rom, assemble_rb_rom(problem, gen.basis)):  # the generator's R Phi, then a fresh one
            assert np.linalg.norm(assembled.init_coeffs - expected) <= 1e-12 * np.linalg.norm(expected)
            assert assembled.init_defect <= 1e-12 * np.sqrt(bump @ (g @ bump))
        mu = np.array([1.2, 0.9])
        traj = rom.eval_state(mu)
        assert l2_time_norm(fom.eval_output(mu) - rom.output_of(traj)) <= rom.est_output_for(traj, mu)
        rest = gen.basis[:, 1:]  # without the datum's own direction, the first one grown
        partial = assemble_rb_rom(problem, rest)
        defect = bump - rest @ (rest.T @ (g @ bump))
        assert partial.init_defect == pytest.approx(np.sqrt(defect @ (g @ defect)), rel=1e-10)
        with pytest.raises(NumericalError, match="initial datum"):
            partial.est_output(mu)

    def test_precompute_cached_until_dirty(self, heat_problem):
        gen = RbGenerator(FullOrderModel(heat_problem), eps=1e-3)
        gen.extend([1.0, 1.0])
        rom1 = gen.precompute()
        assert gen.precompute() is rom1
        gen.extend([1.9, 0.6])
        assert gen.precompute() is not rom1


class TestReproductionRetry:
    def test_coarse_compression_recovers(self, heat_problem):
        # a deliberately coarse compression tolerance: the safeguard must
        # tighten it until the training parameter certifies
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-6, hapod=HapodConfig(eps_pod=1e-1, chunk=10))
        mu = np.array([1.1, 1.4])
        gen.extend(mu)
        rom = gen.precompute()
        assert rom.est_output(mu) <= 1e-6

    def test_every_pending_parameter_certified(self, heat_problem):
        # precompute certifies every parameter extended since its last call,
        # not only the most recent one
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-6, hapod=HapodConfig(eps_pod=1e-1, chunk=10))
        rng = np.random.default_rng(9)
        for _ in range(3):
            gen.extend(heat_problem.box.sample(rng))
        rom = gen.precompute()
        for mu in gen.training_parameters:
            assert rom.est_output(mu) <= 1e-6

    def test_unreachable_tolerance_raises_after_bounded_retries(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        gen = RbGenerator(fom, eps=1e-30, hapod=HapodConfig(eps_pod=1e-1, chunk=10))
        gen.extend([1.1, 1.4])
        solves = []
        real_iter_state = fom.iter_state

        def counting_iter_state(mu):
            solves.append(mu)
            return real_iter_state(mu)

        fom.iter_state = counting_iter_state
        with pytest.raises(NumericalError, match="enrichment failed"):
            gen.precompute()
        assert len(solves) == RbGenerator.MAX_RETRIES
        # the failure is reported once: the next call has nothing pending
        assert gen.precompute().dim == gen.basis.shape[1]
