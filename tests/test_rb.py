import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import certrom.rb
from certrom import (
    AffineFunctional,
    AffineOperator,
    DnnGenerator,
    EnergyFactor,
    FomProblem,
    FullOrderModel,
    NumericalError,
    OperatorComponent,
    ParameterBox,
    RbGenerator,
    TimeGrid,
    TrainConfig,
    Trajectory,
    VkogaGenerator,
    assemble_diffusion,
    assemble_mass,
    assemble_rb_rom,
    build_grid,
    l2_time_norm,
)
from certrom.rb import TEMPORAL_TOL, SpannedTrajectory, TemporalBasis, orthonormalize

from conftest import scalar_problem
from oracles import energy_gram_schmidt, rb_residual_bruteforce, reconstruct, sequential_orthonormalize


def snapshot_basis(problem, mus, drop_tol=1e-13):
    """Orthonormalized raw snapshots (exact span: deflation kept far below the
    working precision so the trajectories genuinely lie in the span)."""
    fom = FullOrderModel(problem)
    cols = [fom.eval_state(np.asarray(mu)).coeffs.T for mu in mus]
    return energy_gram_schmidt(np.hstack(cols), problem.gram, drop_tol=drop_tol)


class TestRiesz:
    """Dual norms through the whitened coordinates of the energy factor."""

    def test_identity_gram(self):
        g = sp.identity(4, format="csr")
        f = np.array([1.0, -2.0, 0.5, 3.0])
        whitened = EnergyFactor(g).whiten(f)
        assert np.allclose(np.sort(whitened), np.sort(f))

    def test_zero_functional(self):
        g = sp.identity(3, format="csr")
        whitened = EnergyFactor(g).whiten(np.zeros(3))
        assert np.allclose(whitened, 0.0)
        assert np.linalg.norm(whitened) == 0.0

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 5))
        g_dense = m @ m.T + 5 * np.eye(5)
        g = sp.csr_matrix(g_dense)
        f = rng.normal(size=5)
        expected = np.sqrt(f @ np.linalg.inv(g_dense) @ f)
        assert np.linalg.norm(EnergyFactor(g).whiten(f)) == pytest.approx(expected, rel=1e-10)

    def test_fill_reducing_order_pins_the_permutation(self):
        """On a sparse Gram whose symmetric order is not the identity, the
        whitened inner products are F^T G^-1 F."""
        grid = build_grid((0.0, 1.0, 0.0, 1.0), 6, 5)
        g = (assemble_diffusion(grid, np.ones(grid.num_cells)) + assemble_mass(grid)).tocsr()
        factor = EnergyFactor(g)
        assert not np.array_equal(factor.order, np.arange(grid.num_nodes))
        rng = np.random.default_rng(12)
        f = rng.normal(size=(grid.num_nodes, 3))
        whitened = factor.whiten(f)
        expected = f.T @ np.linalg.solve(g.toarray(), f)
        assert np.allclose(whitened.T @ whitened, expected, rtol=1e-12, atol=0.0)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError, match="not SPD"):
            EnergyFactor(sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])))

    def test_prepared_solves_match_the_copying_solves(self, coarse_reactive):
        """whiten and unwhiten_states solve on a private copy of the factor:
        bit for bit the solves on ``lower`` itself, which they leave as it was."""
        energy = EnergyFactor(coarse_reactive.gram)
        lower = energy.lower.copy()
        rng = np.random.default_rng(13)
        for width in (None, 1, 10, 10):
            shape = (energy.order.size,) if width is None else (energy.order.size, width)
            f, w = rng.normal(size=(2, *shape))
            scale = energy.inv_sqrt_pivots if width is None else energy.inv_sqrt_pivots[:, None]
            whitened = spla.spsolve_triangular(energy.lower, f[energy.order], lower=True, unit_diagonal=True) * scale
            assert np.array_equal(energy.whiten(f), whitened)
            states = np.empty_like(w)
            states[energy.order] = spla.spsolve_triangular(energy.lower.T, w * scale, lower=False, unit_diagonal=True)
            assert np.array_equal(energy.unwhiten_states(w), states)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(energy.lower, name), getattr(lower, name))


@pytest.fixture(scope="module")
def energy_cases(heat_problem, coarse_reactive):
    return {"heat_square": heat_problem, "coarse_reactive": coarse_reactive}


class TestWhitenedStates:
    """R = D^1/2 L^T P of the energy factor: Euclidean products of whitened
    states are energy products, and unwhitening inverts it."""

    @pytest.mark.parametrize("case", ["heat_square", "coarse_reactive"])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), log_spread=st.floats(0.0, 6.0))
    def test_whitened_products_are_energy_products(self, energy_cases, case, seed, log_spread):
        problem = energy_cases[case]
        energy, g = problem.energy, problem.gram
        rng = np.random.default_rng(seed)
        # entries spread over log_spread decades
        u, v = rng.normal(size=(2, problem.dim)) * 10.0 ** rng.uniform(-log_spread / 2, log_spread / 2, (2, problem.dim))
        ru, rv = energy.whiten_states(u), energy.whiten_states(v)
        assert abs(ru @ rv - u @ (g @ v)) <= 1e-12 * np.sqrt((u @ (g @ u)) * (v @ (g @ v)))
        assert np.max(np.abs(energy.unwhiten_states(ru) - u)) <= 1e-12 * np.max(np.abs(u))
        block = np.column_stack([u, v])
        assert np.array_equal(energy.whiten_states(block), np.column_stack([ru, rv]))
        assert np.max(np.abs(energy.unwhiten_states(energy.whiten_states(block)) - block)) <= 1e-12 * np.max(np.abs(block))


def _two_theta_operator():
    mats = [sp.identity(2, format="csr"), sp.csr_matrix(np.diag([2.0, 0.5]))]
    return AffineOperator(
        (
            OperatorComponent(mats[0], parameter=0, symmetric=True),
            OperatorComponent(mats[1], parameter=1, symmetric=True),
        )
    )


def _two_theta_problem(mu_bar, operator=None, lower=(0.1, 0.1)):
    """Two-DoF problem, by default with theta_q(mu) = mu_q on both symmetric
    components."""
    eye = sp.identity(2, format="csr")
    return FomProblem(
        operator=_two_theta_operator() if operator is None else operator,
        mass=eye,
        rhs=AffineFunctional((), 2),
        output=np.ones(2),
        time_grid=TimeGrid(1.0, 3),
        gram=eye,
        mu_bar=np.asarray(mu_bar, dtype=float),
        box=ParameterBox(np.array(lower), np.array([10.0, 10.0])),
        initial=np.zeros(2),
    )


def _two_theta_rom(mu_bar):
    """The two-theta problem reduced on the full identity basis."""
    return assemble_rb_rom(_two_theta_problem(mu_bar), np.eye(2))


class TestMinTheta:
    def test_reference_parameter_gives_one(self):
        rom = _two_theta_rom([1.7, 0.3])
        assert rom.alpha_lb([1.7, 0.3]) == pytest.approx(1.0)

    def test_min_of_ratios(self):
        rom = _two_theta_rom([1.0, 1.0])
        assert rom.alpha_lb([2.0, 3.0]) == pytest.approx(2.0)

    def test_reactive_flow_hand_ratio(self, small_reactive_problem):
        p = small_reactive_problem
        rom = assemble_rb_rom(p, np.zeros((p.dim, 0)))
        mu = np.array([0.01, 9.0])
        expected = min(1.0, 0.01 / 5.005)  # diffusion theta is constant 1
        assert rom.alpha_lb(mu) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_theta_rejected(self):
        rom = _two_theta_rom([1.0, 1.0])
        with pytest.raises(ValueError, match="min-theta"):
            rom.alpha_lb([-1.0, 1.0])

    def test_box_reaching_zero_rejected(self):
        # theta_0(mu_bar) = 1 > 0, but theta_0 = mu_0 vanishes on the box's lower face
        problem = _two_theta_problem([1.0, 1.0], lower=(0.0, 0.1))
        with pytest.raises(ValueError, match="min-theta inapplicable"):
            assemble_rb_rom(problem, np.eye(2))

    def test_nonpositive_reference_theta_rejected(self):
        problem = _two_theta_problem([-1.0, 1.0])
        with pytest.raises(ValueError, match="min-theta inapplicable"):
            assemble_rb_rom(problem, np.eye(2))

    def test_constant_theta_accepted_on_any_box(self):
        # theta = 1 on the symmetric part; the box reaching 0 only concerns
        # the nonsymmetric component's parameter
        operator = AffineOperator(
            (
                OperatorComponent(sp.identity(2, format="csr"), symmetric=True),
                OperatorComponent(sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]])), parameter=0),
            )
        )
        rom = assemble_rb_rom(_two_theta_problem([1.0, 1.0], operator, lower=(-1.0, -1.0)), np.eye(2))
        assert rom.alpha_lb([-1.0, 0.0]) == 1.0


def stepwise_reduced_solve(rom, mu) -> np.ndarray:
    """Reference implicit Euler for the reduced system: one LU solve per step
    with the per-node forcing coefficients."""
    dt = rom.time_grid.dt
    system = rom.mass_hat + dt * sum(th * a for th, a in zip(rom.operator.thetas(mu), rom.operator_hats))
    lu = sla.lu_factor(system)
    nodes = rom.time_grid.nodes
    coeffs = np.empty((nodes.size, rom.dim))
    coeffs[0] = rom.init_coeffs
    for k in range(1, nodes.size):
        b = rom.mass_hat @ coeffs[k - 1] + dt * (rom.rhs_hats @ rom.rhs.coefficients(mu, nodes[k]))
        coeffs[k] = sla.lu_solve(lu, b)
    return coeffs


class TestReducedSolve:
    def test_propagator_matches_stepwise_oracle(self, heat_problem, small_reactive_problem):
        cases = (
            (heat_problem, [[0.7, 1.8], [1.9, 0.6]]),
            (small_reactive_problem, [[1.0, 10.0], [8.0, 9.5]]),
        )
        for problem, mus in cases:
            rom = assemble_rb_rom(problem, snapshot_basis(problem, mus, drop_tol=1e-10))
            rng = np.random.default_rng(13)
            for mu in [np.asarray(m, dtype=float) for m in mus] + [problem.box.sample(rng)]:
                fast = rom.eval_state(mu).coeffs
                slow = stepwise_reduced_solve(rom, mu)
                assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow)), (rom.dim, mu)


    def test_empty_basis_trajectory_and_output(self, heat_problem):
        rom = assemble_rb_rom(heat_problem, np.zeros((heat_problem.dim, 0)))
        traj = rom.eval_state([1.0, 1.0])
        assert traj.coeffs.shape == (heat_problem.time_grid.num_nodes, 0)
        assert np.allclose(rom.output_of(traj).values, heat_problem.output_shift)

    def test_full_span_reproduces_fom_output(self, heat_problem):
        mu = np.array([1.2, 0.7])
        basis = snapshot_basis(heat_problem, [mu])
        rom = assemble_rb_rom(heat_problem, basis)
        fom = FullOrderModel(heat_problem)
        err = l2_time_norm(fom.eval_output(mu) - rom.eval_output(mu))
        assert err <= rom.est_output(mu)
        assert err <= 1e-9

    def test_single_vector_scalar_recursion(self):
        problem = scalar_problem(a=1.0, load=0.0, u0=1.0, num_nodes=21)
        basis = np.array([[1.0]])
        rom = assemble_rb_rom(problem, basis)
        traj = rom.eval_state([1.0])
        dt = problem.time_grid.dt
        expected = (1.0 + dt) ** -np.arange(21)
        assert np.allclose(traj.coeffs[:, 0], expected, rtol=1e-13)


class TestReducedOutput:
    def test_zero_coeffs_zero_shift(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(heat_problem, basis)
        traj = Trajectory(heat_problem.time_grid, np.zeros((heat_problem.time_grid.num_nodes, rom.dim)))
        assert np.allclose(rom.output_of(traj).values, 0.0)

    def test_unit_coefficient_row(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(heat_problem, basis)
        coeffs = np.zeros((heat_problem.time_grid.num_nodes, rom.dim))
        coeffs[:, 0] = 1.0
        traj = Trajectory(heat_problem.time_grid, coeffs)
        assert np.allclose(rom.output_of(traj).values, rom.output_hat[0])

    def test_matches_reconstruction_oracle(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[0.6, 1.9]])
        rom = assemble_rb_rom(heat_problem, basis)
        mu = np.array([0.9, 1.1])
        traj = rom.eval_state(mu)
        full = reconstruct(rom, traj)
        direct = full.coeffs @ heat_problem.output + heat_problem.output_shift
        assert np.allclose(rom.output_of(traj).values, direct, atol=1e-12)

    @pytest.mark.parametrize("case", ["heat_square", "reactive_flow"])
    @pytest.mark.parametrize("with_initial", [True, False])
    def test_temporal_coordinates_skip_the_coefficients(self, perturbation_cases, case, with_initial):
        """A trajectory in temporal coordinates without a tail: T (C_hat o_hat)
        with the initial row's output in row 0, never the K x n coefficients."""
        _, rom = perturbation_cases[case]
        rng = np.random.default_rng(14)
        modes = np.linalg.qr(rng.normal(size=(rom.time_grid.num_nodes, 5)))[0]
        temporal = TemporalBasis(rom.time_grid, rom.rhs).grown(modes)
        initial = rng.normal(size=rom.dim) if with_initial else None
        traj = SpannedTrajectory(temporal, rng.normal(size=(5, rom.dim)), initial=initial)
        values = rom.output_of(traj).values
        assert traj._coeffs is None
        expected = rom.output_of(Trajectory(rom.time_grid, traj.coeffs)).values
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_dimension_mismatch(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(heat_problem, basis)
        bad = Trajectory(heat_problem.time_grid, np.zeros((heat_problem.time_grid.num_nodes, rom.dim + 1)))
        with pytest.raises(ValueError):
            rom.output_of(bad)


class TestResidualNorms:
    def test_full_rank_reproduction_residuals_vanish(self, heat_problem):
        mu = np.array([1.4, 0.8])
        basis = snapshot_basis(heat_problem, [mu])
        rom = assemble_rb_rom(heat_problem, basis)
        res = rom.residual_dual_norms(rom.eval_state(mu), mu)
        scale = max(rom.estimator.output_dual_norm, 1.0)
        assert np.max(res) <= 1e-8 * scale

    def test_stencil_locality(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(heat_problem, basis)
        mu = np.array([1.0, 1.0])
        traj = rom.eval_state(mu)
        base = rom.residual_dual_norms(traj, mu)
        k = 20
        bumped = traj.coeffs.copy()
        bumped[k, 0] += 0.37
        res = rom.residual_dual_norms(Trajectory(traj.grid, bumped), mu)
        changed = np.flatnonzero(~np.isclose(res, base, rtol=1e-9, atol=1e-13))
        assert set(changed) <= {k - 1, k}

    def test_matches_bruteforce_oracle(self, heat_problem):
        rng = np.random.default_rng(21)
        basis = snapshot_basis(heat_problem, [[0.7, 1.8], [1.9, 0.6]])
        rom = assemble_rb_rom(heat_problem, basis)
        for _ in range(3):
            mu = heat_problem.box.sample(rng)
            coeffs = rng.normal(size=(heat_problem.time_grid.num_nodes, rom.dim))
            traj = Trajectory(heat_problem.time_grid, coeffs)
            fast = rom.residual_dual_norms(traj, mu)
            slow = rb_residual_bruteforce(heat_problem, basis, traj, mu)
            denom = np.maximum(slow, 1e-12)
            assert np.max(np.abs(fast - slow) / denom) <= 1e-8


COLUMN_KINDS = ("random", "zero", "duplicate", "in_span", "above", "below", "cancelling")


def kind_batch(rng, existing: np.ndarray, kinds, drop_tol: float) -> np.ndarray:
    """One column per kind: a Gaussian one, a zero one, a copy of an earlier
    column, a combination of the existing and earlier columns, such a
    combination plus a residual 10x above or 10x below drop_tol times its
    norm (along a direction outside the span so far; none if there is no such
    direction), or the last column plus 1e-9 of a Gaussian one (cancellation
    inside the batch)."""
    rows = existing.shape[0]
    cols = []
    for kind in kinds:
        spanned = np.column_stack([existing] + cols)
        if kind == "random" or (kind == "cancelling" and not cols):
            v = rng.normal(size=rows)
        elif kind == "zero":
            v = np.zeros(rows)
        elif kind == "duplicate" and cols:
            v = cols[rng.integers(len(cols))].copy()
        elif kind == "cancelling":
            v = cols[-1] + 1e-9 * rng.normal(size=rows)
        else:  # in_span, above, below, or a duplicate before any column
            v = spanned @ rng.normal(size=spanned.shape[1])
            if kind in ("above", "below") and np.linalg.norm(v) > 0.0:
                span = sla.orth(spanned)
                outside = rng.normal(size=rows)
                for _ in range(2):
                    outside -= span @ (span.T @ outside)
                if np.linalg.norm(outside) > 1e-6:
                    share = 10.0 if kind == "above" else 0.1
                    v = v + share * drop_tol * np.linalg.norm(v) * outside / np.linalg.norm(outside)
        cols.append(v)
    return np.column_stack(cols)


def assert_matches_sequential(vectors, existing, drop_tol):
    """The block orthonormalizer against the column-by-column reference: the
    same count of new directions and the same span, orthonormal to 1e-13 with
    the existing set, and every input rebuilt from its coordinates as well as
    the reference rebuilds it, to 1e-12 of its norm."""
    new, coords = orthonormalize(vectors, existing, drop_tol)
    ref, ref_coords = sequential_orthonormalize(vectors, existing, drop_tol)
    assert new.shape == ref.shape
    num_old = existing.shape[1]
    full, ref_full = np.hstack([existing, new]), np.hstack([existing, ref])
    assert np.linalg.norm(full.T @ full - np.eye(full.shape[1])) <= 1e-13
    origs = np.linalg.norm(vectors, axis=0)
    # a direction made from a residual rho ||v|| is fixed only to about
    # u / rho in floating point, by either scheme
    pivots = np.argmax(ref_coords[num_old:] != 0.0, axis=1)
    residuals = ref_coords[num_old + np.arange(pivots.size), pivots]
    sensitivity = max(1.0, np.max(origs[pivots] / residuals, initial=1.0))
    assert np.max(np.abs(new @ new.T - ref @ ref.T), initial=0.0) <= 1e-12 * sensitivity
    errors = np.linalg.norm(full @ coords - vectors, axis=0)
    ref_errors = np.linalg.norm(ref_full @ ref_coords - vectors, axis=0)
    assert np.all(errors <= ref_errors + 1e-12 * origs)


class TestBlockOrthonormalize:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        rows=st.integers(3, 40),
        existing_share=st.floats(0.0, 0.9),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=90),
        drop_tol=st.sampled_from([1e-10, 1e-13]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_sequential_reference(self, rows, existing_share, kinds, drop_tol, seed):
        rng = np.random.default_rng(seed)
        existing = np.linalg.qr(rng.normal(size=(rows, int(existing_share * rows))))[0]
        assert_matches_sequential(kind_batch(rng, existing, kinds, drop_tol), existing, drop_tol)

    def test_cancellation_inside_the_batch(self):
        # the second column cancels against the first to 1e-9 after the
        # existing set is taken out
        rng = np.random.default_rng(5)
        existing = np.linalg.qr(rng.normal(size=(40, 20)))[0]
        a, b = rng.normal(size=(2, 40))
        assert_matches_sequential(np.column_stack([a, a + 1e-9 * b]), existing, 1e-10)

    def test_wide_batch_fills_the_space(self):
        rng = np.random.default_rng(6)
        existing = np.linalg.qr(rng.normal(size=(30, 12)))[0]
        vectors = rng.normal(size=(30, 75))
        new, _ = orthonormalize(vectors, existing, 1e-13)
        assert new.shape == (30, 18)
        assert_matches_sequential(vectors, existing, 1e-13)


class TestEstimatorLayout:
    """The estimator's rows arrive by block over many appends: the rhs rows
    first, then the mass and operator rows of each new batch of basis
    columns, each append growing the range. The online norms must not
    depend on that history."""

    @pytest.mark.parametrize("case", ["heat_forcing", "reactive_lift"])
    def test_rows_from_several_appends_match_bruteforce(self, case, heat_problem, small_reactive_problem, monkeypatch):
        problem, mus = {
            "heat_forcing": (heat_problem, [[0.7, 1.8], [1.9, 0.6], [1.2, 1.2]]),
            "reactive_lift": (small_reactive_problem, [[1.0, 10.0], [8.0, 9.5], [4.0, 9.2]]),
        }[case]
        appends = []
        add_basis_columns = certrom.rb.EstimatorBuilder.add_basis_columns

        def counted(builder, columns):
            appends.append(columns.shape[1])
            add_basis_columns(builder, columns)

        monkeypatch.setattr(certrom.rb.EstimatorBuilder, "add_basis_columns", counted)
        gen = RbGenerator(FullOrderModel(problem), eps=1e-3)
        for mu in mus:
            gen.extend(mu)
        rom = gen.precompute()
        assert sum(n > 0 for n in appends) >= 3
        rows = len(problem.rhs.components) + (1 + len(problem.operator.components)) * rom.dim
        assert rom.estimator.factor.shape[0] == rows
        rng = np.random.default_rng(5)
        for _ in range(2):
            mu = problem.box.sample(rng)
            traj = Trajectory(problem.time_grid, rng.normal(size=(problem.time_grid.num_nodes, rom.dim)))
            fast = rom.residual_dual_norms(traj, mu)
            slow = rb_residual_bruteforce(problem, rom.basis, traj, mu)
            assert np.max(np.abs(fast - slow) / np.maximum(slow, 1e-12)) <= 1e-8


class TestEstimates:
    def test_exact_reproduction_estimates_vanish(self, heat_problem):
        mu = np.array([0.55, 1.95])
        basis = snapshot_basis(heat_problem, [mu])
        rom = assemble_rb_rom(heat_problem, basis)
        fnorm = l2_time_norm(FullOrderModel(heat_problem).eval_output(mu))
        assert rom.est_output(mu) <= 1e-8 * fnorm

    def test_homogeneity_for_unforced_problem(self, heat_problem):
        # without a source the defects are linear in the trajectory
        p = dataclasses.replace(heat_problem, rhs=AffineFunctional((), heat_problem.dim))
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(p, basis)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(p.time_grid.num_nodes, rom.dim))
        coeffs[0] = 0.0
        mu = np.array([1.0, 1.0])
        one = rom.est_output_for(Trajectory(p.time_grid, coeffs), mu)
        two = rom.est_output_for(Trajectory(p.time_grid, 2.0 * coeffs), mu)
        assert two == pytest.approx(2.0 * one, rel=1e-9)

    def test_state_and_output_bounds_hold(self, heat_problem):
        rng = np.random.default_rng(33)
        basis = snapshot_basis(heat_problem, [[0.6, 0.6], [1.9, 1.9]])
        fom = FullOrderModel(heat_problem)
        for dim in (1, 2, 4):
            rom = assemble_rb_rom(heat_problem, basis[:, :dim])
            for _ in range(5):
                mu = heat_problem.box.sample(rng)
                traj = rom.eval_state(mu)
                uh = fom.eval_state(mu)
                diff = uh.coeffs - reconstruct(rom, traj).coeffs
                g = heat_problem.gram
                state_err = np.sqrt(
                    heat_problem.time_grid.dt * sum(d @ (g @ d) for d in diff[:-1])
                )
                out_err = l2_time_norm(fom.output_of(uh) - rom.output_of(traj))
                assert state_err <= rom.est_state_for(traj, mu) * (1 + 1e-10)
                assert out_err <= rom.est_output_for(traj, mu) * (1 + 1e-10)

    def test_estimate_finite_for_arbitrary_trajectory(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.5, 0.6]])
        rom = assemble_rb_rom(heat_problem, basis)
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=(heat_problem.time_grid.num_nodes, rom.dim))
        est = rom.est_output_for(Trajectory(heat_problem.time_grid, coeffs), [1.0, 1.0])
        assert np.isfinite(est) and est > 0

    def test_unrepresented_initial_datum_rejected(self, heat_problem):
        bump = np.zeros(heat_problem.dim)
        interior = np.setdiff1d(np.arange(heat_problem.dim), heat_problem.lifting.dofs)
        bump[interior[0]] = 1.0
        p = dataclasses.replace(heat_problem, initial=bump)
        basis = snapshot_basis(heat_problem, [[1.0, 1.0]])
        rom = assemble_rb_rom(p, basis)
        with pytest.raises(NumericalError, match="initial datum"):
            rom.est_output(np.array([1.0, 1.0]))

    def test_certification_inequality_on_random_trajectories(self, heat_problem):
        # the certificate must hold for any reduced trajectory with exact
        # initial row, not just the Galerkin solution
        rng = np.random.default_rng(55)
        basis = snapshot_basis(heat_problem, [[1.0, 1.0], [0.6, 1.8]])
        rom = assemble_rb_rom(heat_problem, basis)
        fom = FullOrderModel(heat_problem)
        for _ in range(5):
            mu = heat_problem.box.sample(rng)
            coeffs = rom.eval_state(mu).coeffs + 0.1 * rng.normal(
                size=(heat_problem.time_grid.num_nodes, rom.dim)
            )
            coeffs[0] = rom.init_coeffs
            traj = Trajectory(heat_problem.time_grid, coeffs)
            err = l2_time_norm(fom.eval_output(mu) - rom.output_of(traj))
            assert err <= rom.est_output_for(traj, mu) * (1 + 1e-10)

    def test_basis_orthonormality(self, heat_problem):
        basis = snapshot_basis(heat_problem, [[1.0, 1.0], [1.7, 0.7]])
        rom = assemble_rb_rom(heat_problem, basis)
        assert np.max(np.abs(rom.basis.T @ (heat_problem.gram @ rom.basis) - np.eye(rom.dim))) <= 1e-10


@pytest.fixture(scope="module")
def perturbation_cases(heat_problem, small_reactive_problem):
    """Per problem: the FOM and an RB-ROM on a truncated snapshot basis, so the
    Galerkin trajectory itself carries a visible error."""
    cases = {}
    for name, problem, mus, dim in (
        ("heat_square", heat_problem, [[0.7, 1.8], [1.9, 0.6]], 4),
        ("reactive_flow", small_reactive_problem, [[1.0, 10.0], [8.0, 9.5]], 8),
    ):
        basis = snapshot_basis(problem, mus, drop_tol=1e-10)[:, :dim]
        cases[name] = (FullOrderModel(problem), assemble_rb_rom(problem, basis))
    return cases


def temporal_basis_spanning(rom, coeffs, rng, extra=3):
    """A temporal basis whose span holds the columns of coeffs and ``extra``
    random directions."""
    modes = np.linalg.qr(np.hstack([coeffs, rng.normal(size=(coeffs.shape[0], extra))]))[0]
    return TemporalBasis(rom.time_grid, rom.rhs).grown(modes)


class TestOutputBoundProperty:
    @pytest.mark.parametrize("case", ["heat_square", "reactive_flow"])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        unit=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        log_size=st.floats(-8.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_fom_output_error_of_perturbed_galerkin_trajectory(
        self, perturbation_cases, case, unit, log_size, seed
    ):
        fom, rom = perturbation_cases[case]
        box = rom.box
        mu = box.lower + np.array(unit) * (box.upper - box.lower)
        coeffs = rom.eval_state(mu).coeffs
        noise = np.random.default_rng(seed).normal(size=coeffs.shape)
        noise[0] = 0.0  # row 0 keeps the exact initial datum
        coeffs = coeffs + 10.0**log_size * np.linalg.norm(coeffs) / np.linalg.norm(noise) * noise
        traj = Trajectory(rom.time_grid, coeffs)
        err = l2_time_norm(fom.eval_output(mu) - rom.output_of(traj))
        assert err <= rom.est_output_for(traj, mu)

    @pytest.mark.parametrize("case", ["heat_square", "reactive_flow"])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        unit=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        log_size=st.floats(-8.0, 0.0),
        log_tail=st.floats(-16.0, -8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_with_a_temporal_basis(self, perturbation_cases, case, unit, log_size, log_tail, seed):
        # T spans the Galerkin trajectory and three random modes; the
        # perturbation has a part in span T that vanishes at t = 0 and a tail
        # outside span T of relative size 1e-16 to 1e-8, so the estimate takes
        # the temporal path with the tail term below TEMPORAL_TOL and the
        # step-by-step path above it
        fom, rom = perturbation_cases[case]
        box = rom.box
        mu = box.lower + np.array(unit) * (box.upper - box.lower)
        coeffs = rom.eval_state(mu).coeffs
        rng = np.random.default_rng(seed)
        temporal = temporal_basis_spanning(rom, coeffs, rng)
        first = temporal.matrix[0]
        inside = rng.normal(size=(temporal.dim, rom.dim))
        inside = temporal.matrix @ (inside - np.outer(first, first @ inside) / (first @ first))
        outside = rng.normal(size=coeffs.shape)
        outside -= temporal.matrix @ (temporal.matrix.T @ outside)
        scale = np.linalg.norm(coeffs)
        noise = scale * (10.0**log_size * inside / np.linalg.norm(inside) + 10.0**log_tail * outside / np.linalg.norm(outside))
        noise[0] = 0.0  # row 0 keeps the exact initial datum
        traj = Trajectory(rom.time_grid, coeffs + noise)
        err = l2_time_norm(fom.eval_output(mu) - rom.output_of(traj))
        assert err <= rom.est_output_for(traj, mu, temporal)


class TestTemporalEstimate:
    @pytest.mark.parametrize("case", ["heat_square", "reactive_flow"])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        unit=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        m=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_step_by_step_residual(self, perturbation_cases, case, unit, m, seed):
        _, rom = perturbation_cases[case]
        box = rom.box
        mu = box.lower + np.array(unit) * (box.upper - box.lower)
        rng = np.random.default_rng(seed)
        modes = np.linalg.qr(rng.normal(size=(rom.time_grid.num_nodes, m)))[0]
        temporal = TemporalBasis(rom.time_grid, rom.rhs).grown(modes)
        # random coordinates in [T | e_0]: C_hat and a random initial row
        traj = SpannedTrajectory(temporal, rng.normal(size=(m, rom.dim)), initial=rng.normal(size=rom.dim))
        temporal_estimate = rom.est_state_for(traj, mu, temporal)
        assert temporal.counts == {"temporal": 1, "k_step": 0, "refreshes": 1}
        assert temporal_estimate == pytest.approx(rom.est_state_for(traj, mu), rel=1e-10)

    def test_tail_term_and_fallback(self, perturbation_cases):
        _, rom = perturbation_cases["reactive_flow"]
        mu = rom.box.center
        rng = np.random.default_rng(9)
        coeffs = rom.eval_state(mu).coeffs
        temporal = temporal_basis_spanning(rom, coeffs, rng)
        outside = rng.normal(size=coeffs.shape)
        outside -= temporal.matrix @ (temporal.matrix.T @ outside)
        outside[0] = 0.0
        for size, path in ((1e-2 * TEMPORAL_TOL, "temporal"), (1e2 * TEMPORAL_TOL, "k_step")):
            tail = size * np.linalg.norm(coeffs) / np.linalg.norm(outside) * outside
            traj = Trajectory(rom.time_grid, coeffs + tail)
            before = dict(temporal.counts)
            estimate = rom.est_state_for(traj, mu, temporal)
            assert temporal.counts[path] == before[path] + 1
            assert estimate == pytest.approx(rom.est_state_for(traj, mu), rel=1e-6)

    def test_exact_reproduction_takes_the_step_path(self, heat_problem):
        # the residual is at rounding level, so even the rounding tail of the
        # projection is no small share of it
        mu = np.array([1.4, 0.8])
        rom = assemble_rb_rom(heat_problem, snapshot_basis(heat_problem, [mu]))
        traj = rom.eval_state(mu)
        temporal = temporal_basis_spanning(rom, traj.coeffs, np.random.default_rng(11))
        assert rom.est_state_for(traj, mu, temporal) == rom.est_state_for(traj, mu)
        assert temporal.counts["k_step"] == 1 and temporal.counts["temporal"] == 0

    @pytest.mark.parametrize("size", [1e-6, 1e-3, 1.0])
    def test_tail_term_bounds_the_tail_residual(self, perturbation_cases, monkeypatch, size):
        # tolerances that admit any tail: the tail term alone must cover the
        # difference the tail makes to the residual
        monkeypatch.setattr(certrom.rb, "TEMPORAL_TOL", np.inf)
        monkeypatch.setattr(certrom.rb, "TAIL_SHARE", np.inf)
        _, rom = perturbation_cases["heat_square"]
        mu = rom.box.center
        rng = np.random.default_rng(10)
        coeffs = rom.eval_state(mu).coeffs
        temporal = temporal_basis_spanning(rom, coeffs, rng)
        tail = rng.normal(size=coeffs.shape)
        tail -= temporal.matrix @ (temporal.matrix.T @ tail)
        tail[0] = 0.0
        traj = Trajectory(rom.time_grid, coeffs + size * np.linalg.norm(coeffs) / np.linalg.norm(tail) * tail)
        assert rom.est_state_for(traj, mu) <= rom.est_state_for(traj, mu, temporal)
        assert temporal.counts["temporal"] == 1

    def test_random_trajectory_takes_the_step_path(self, heat_problem):
        rom = assemble_rb_rom(heat_problem, snapshot_basis(heat_problem, [[0.7, 1.8], [1.9, 0.6]])[:, :4])
        rng = np.random.default_rng(12)
        mus = [heat_problem.box.sample(rng) for _ in range(3)]
        store = VkogaGenerator(rom)
        for mu in mus:
            store.extend(mu)
        temporal = store.temporal
        assert 0 < temporal.dim and temporal.saves_work()
        coeffs = rng.normal(size=(heat_problem.time_grid.num_nodes, rom.dim))
        coeffs[0] = rom.init_coeffs
        traj = Trajectory(heat_problem.time_grid, coeffs)
        estimate = rom.est_output_for(traj, mus[0], temporal)
        assert temporal.counts["k_step"] == 1 and temporal.counts["temporal"] == 0
        assert estimate == rom.est_output_for(traj, mus[0])

    @pytest.mark.parametrize("backend", ["vkoga", "mlp"])
    def test_learned_predictions_take_the_temporal_path(self, heat_problem, backend):
        rom = assemble_rb_rom(heat_problem, snapshot_basis(heat_problem, [[0.7, 1.8], [1.9, 0.6]])[:, :4])
        rng = np.random.default_rng(12)
        mus = [heat_problem.box.sample(rng) for _ in range(4)]
        if backend == "vkoga":
            gen = VkogaGenerator(rom)
        else:
            gen = DnnGenerator(rom, hidden=(8,), config=TrainConfig(seed=0, max_epochs=3))
        for mu in mus[:3]:
            gen.extend(mu)
        ml = gen.precompute(force=True)
        temporal = gen.temporal
        assert ml.size > 0 and temporal.saves_work()
        traj = ml.eval_state(mus[3])
        estimate = rom.est_output_for(traj, mus[3], temporal)
        assert temporal.counts["temporal"] == 1 and temporal.counts["k_step"] == 0
        assert estimate == pytest.approx(rom.est_output_for(traj, mus[3]), rel=1e-8)
