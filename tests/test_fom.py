import dataclasses

import numpy as np
import pytest

from certrom import AffineFunctional, FullOrderModel

from conftest import scalar_problem


class TestScalarRecursion:
    def test_zero_load_zero_initial(self):
        fom = FullOrderModel(scalar_problem(load=0.0, u0=0.0))
        traj = fom.eval_state([1.0])
        assert np.allclose(traj.coeffs, 0.0)

    def test_decay_law(self):
        # m = 1, a = 1, l = 0, u0 = 1: u(t_k) = (1 + dt)^-(k-1)
        problem = scalar_problem(a=1.0, load=0.0, u0=1.0, num_nodes=11)
        fom = FullOrderModel(problem)
        traj = fom.eval_state([1.0])
        dt = problem.time_grid.dt
        expected = (1.0 + dt) ** -np.arange(11)
        assert np.allclose(traj.coeffs[:, 0], expected, rtol=1e-13)


class TestAgainstDenseOracle:
    def test_heat_square_matches_per_step_dense_solve(self, heat_problem):
        p = heat_problem
        fom = FullOrderModel(p)
        mu = np.array([0.8, 1.7])
        traj = fom.eval_state(mu)

        dt = p.time_grid.dt
        mass = p.mass.toarray()
        a = p.operator.assemble(mu).toarray()
        system = mass + dt * a
        u = p.initial_vector()
        dense = [u.copy()]
        for t in p.time_grid.nodes[1:]:
            b = mass @ u + dt * p.rhs.assemble(mu, t)
            u = np.linalg.solve(system, b)
            dense.append(u.copy())
        assert np.allclose(traj.coeffs, np.array(dense), atol=1e-12)


class TestOutputs:
    def test_zero_trajectory_zero_shift(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        traj = fom.eval_state([1.0, 1.0])
        zero = dataclasses.replace(traj, coeffs=np.zeros_like(traj.coeffs))
        assert np.allclose(fom.output_of(zero).values, heat_problem.output_shift)

    def test_constant_state_with_averaging_output(self, heat_problem):
        # the raw averaging functional applied to the all-ones field gives 1;
        # the stored one is zeroed at constrained DoFs, so apply the identity
        # on a synthetic constant trajectory against the raw weights
        import certrom

        grid = heat_problem.grid
        raw = certrom.assemble_output_average(grid, np.arange(grid.num_cells))
        assert raw @ np.ones(grid.num_nodes) == pytest.approx(1.0, abs=1e-12)

    def test_breakthrough_curve_shape(self, small_reactive_problem):
        fom = FullOrderModel(small_reactive_problem)
        sig = fom.eval_output(np.array([5.005, 10.0]))
        assert sig.values.min() >= -1e-9
        assert sig.values.max() <= 1.0 + 1e-2
        assert np.all(np.diff(sig.values) >= -1e-6)


class TestProperties:
    def test_deterministic_repeat(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        mu = np.array([1.3, 0.9])
        a = fom.eval_state(mu)
        b = fom.eval_state(mu)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_unforced_energy_decay(self, heat_problem):
        # drop the source, start from an interior bump: discrete L2 energy
        # is non-increasing under implicit Euler
        p = dataclasses.replace(
            heat_problem,
            rhs=AffineFunctional((), heat_problem.dim),
            initial=_interior_bump(heat_problem),
        )
        fom = FullOrderModel(p)
        traj = fom.eval_state([1.0, 1.0])
        mass = p.mass
        energies = [row @ (mass @ row) for row in traj.coeffs]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies[:-1], energies[1:]))

    def test_hand_built_problem_factors_its_gram(self):
        p = scalar_problem(a=2.0)
        assert p.energy.gram is p.gram
        assert dataclasses.replace(p, initial=np.array([0.5])).energy is p.energy
        other = dataclasses.replace(p, gram=4.0 * p.gram)
        assert other.energy.gram is other.gram
        assert np.linalg.norm(other.energy.whiten(np.array([4.0]))) == pytest.approx(4.0 / np.sqrt(8.0))

    def test_outside_box_rejected(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        with pytest.raises(ValueError):
            fom.eval_state([10.0, 10.0])


def _interior_bump(problem):
    grid = problem.grid
    coords = grid.node_coords
    bump = np.exp(-20.0 * ((coords[:, 0] - 0.5) ** 2 + (coords[:, 1] - 0.5) ** 2))
    bump[problem.lifting.dofs] = 0.0
    return bump
