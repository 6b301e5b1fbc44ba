import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from certrom import (
    AffineFunctional,
    AffineOperator,
    BoundarySegment,
    DirichletLifting,
    FieldRaster,
    FunctionalComponent,
    NumericalError,
    OperatorComponent,
    TimeGrid,
    apply_dirichlet_shift,
    assemble_advection,
    assemble_diffusion,
    assemble_mass,
    assemble_output_average,
    assemble_reaction,
    build_grid,
    energy_product,
    load_raster_csv,
    synthetic_layered_raster,
)
from certrom.fem import constrain_matrix, element_stiffness


class TestGrid:
    def test_single_cell_unit_square(self):
        grid = build_grid((0, 1, 0, 1), 1, 1)
        assert grid.num_nodes == 4
        assert grid.num_cells == 1

    def test_node_count(self):
        grid = build_grid((0, 5, 0, 1), 50, 10)
        assert grid.num_nodes == 561

    def test_coordinates_hand_enumeration(self):
        grid = build_grid((0, 2, 0, 1), 2, 2)
        expected = [
            (0.0, 0.0), (1.0, 0.0), (2.0, 0.0),
            (0.0, 0.5), (1.0, 0.5), (2.0, 0.5),
            (0.0, 1.0), (1.0, 1.0), (2.0, 1.0),
        ]
        assert np.allclose(grid.node_coords, expected)
        assert np.array_equal(grid.cells[0], [0, 1, 3, 4])

    def test_degenerate_rectangle(self):
        with pytest.raises(ValueError):
            build_grid((0, 0, 0, 1), 2, 2)

    def test_cells_built_once_read_only_and_rebuilt_after_unpickling(self):
        grid = build_grid((0, 2, 0, 1), 3, 2)
        cells = grid.cells
        assert grid.cells is cells and not cells.flags.writeable
        copy = pickle.loads(pickle.dumps(grid))
        assert "cells" not in copy.__dict__ and copy == grid
        assert not copy.cells.flags.writeable
        assert np.array_equal(copy.cells, cells)

    def test_element_stiffness_built_once_per_spacing(self):
        el = element_stiffness(0.25, 0.5)
        assert element_stiffness(0.25, 0.5) is el and not el.flags.writeable
        assert element_stiffness(0.5, 0.25) is not el

    def test_cells_in_rectangle_matches_center_definition(self):
        from certrom import BuildingConfig, build_building

        cfg = BuildingConfig()
        grids = [build_building(cfg).grid, build_grid((-1.0, 2.0, 0.5, 1.5), 7, 3)]
        for grid in grids:
            c = grid.cell_centers
            x, y = np.unique(c[:, 0]), np.unique(c[:, 1])
            (gx0, gx1), (gy0, gy1) = (grid.x0, grid.x1), (grid.y0, grid.y1)
            rects = [
                (gx0, gx1, gy0, gy1),  # everything
                (gx1 + 1.0, gx1 + 2.0, gy0, gy1),  # nothing
                (x[1], x[-2], y[0], y[-1]),  # edges exactly on centers
                (x[2], x[2], y[0], y[-1]),  # one column
                (x[0], x[-1], y[1], y[1]),  # one row
                (x[1], x[0], gy0, gy1),  # reversed: empty
            ]
            if grid is grids[0]:
                rects += list(cfg.walls) + list(cfg.doors) + list(cfg.heaters)
                rects += [r for r, _ in cfg.fixed_walls + cfg.fixed_doors]
            for rx0, rx1, ry0, ry1 in rects:
                inside = (c[:, 0] >= rx0) & (c[:, 0] <= rx1) & (c[:, 1] >= ry0) & (c[:, 1] <= ry1)
                assert np.array_equal(grid.cells_in_rectangle((rx0, rx1, ry0, ry1)), np.flatnonzero(inside))


class TestMass:
    def test_unit_cell_element_oracle(self):
        # analytic integration of bilinear products over the unit cell
        grid = build_grid((0, 1, 0, 1), 1, 1)
        expected = np.array(
            [[4, 2, 2, 1], [2, 4, 1, 2], [2, 1, 4, 2], [1, 2, 2, 4]]
        ) / 36.0
        assert np.allclose(assemble_mass(grid).toarray(), expected, atol=1e-15)

    def test_total_mass_is_area(self):
        grid = build_grid((0.0, 2.5, -1.0, 1.0), 7, 5)
        assert assemble_mass(grid).sum() == pytest.approx(grid.area, abs=1e-12)

    def test_exact_symmetry(self):
        grid = build_grid((0, 1, 0, 2), 3, 4)
        m = assemble_mass(grid)
        assert (m - m.T).nnz == 0


class TestDiffusion:
    def test_constants_in_kernel(self):
        grid = build_grid((0, 1, 0, 1), 4, 3)
        a = assemble_diffusion(grid, np.ones(grid.num_cells))
        assert np.allclose(a @ np.ones(grid.num_nodes), 0.0, atol=1e-13)

    def test_unit_cell_element_oracle(self):
        grid = build_grid((0, 1, 0, 1), 1, 1)
        expected = np.array(
            [[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]
        ) / 6.0
        assert np.allclose(assemble_diffusion(grid, [1.0]).toarray(), expected, atol=1e-15)

    def test_linearity_in_coefficient(self):
        grid = build_grid((0, 1, 0, 1), 3, 3)
        kappa = np.linspace(0.5, 2.0, grid.num_cells)
        a1 = assemble_diffusion(grid, kappa)
        a2 = assemble_diffusion(grid, 2.0 * kappa)
        assert np.allclose(a2.toarray(), 2.0 * a1.toarray(), atol=1e-14)

    def test_nonpositive_field(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        kappa = np.ones(grid.num_cells)
        kappa[1] = 0.0
        with pytest.raises(ValueError, match="nonpositive diffusion"):
            assemble_diffusion(grid, kappa)


class TestAdvection:
    def test_zero_velocity(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        a = assemble_advection(grid, np.zeros((grid.num_cells, 2)))
        assert a.nnz == 0 or np.allclose(a.toarray(), 0.0)

    def test_constant_state_in_kernel(self):
        grid = build_grid((0, 2, 0, 1), 4, 2)
        vel = np.tile([1.0, 0.5], (grid.num_cells, 1))
        a = assemble_advection(grid, vel)
        assert np.allclose(a @ np.ones(grid.num_nodes), 0.0, atol=1e-14)

    def test_single_cell_gauss_quadrature_oracle(self):
        grid = build_grid((0, 1, 0, 1), 1, 1)
        a = assemble_advection(grid, np.array([[1.0, 0.0]])).toarray()
        # 2x2 Gauss quadrature of integral (d/dx phi_j) phi_i over the cell
        gp = [0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]
        shape = lambda i, x, y: [(1 - x) * (1 - y), x * (1 - y), (1 - x) * y, x * y][i]
        dx = lambda j, x, y: [-(1 - y), (1 - y), -y, y][j]
        oracle = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                oracle[i, j] = sum(
                    0.25 * dx(j, x, y) * shape(i, x, y) for x in gp for y in gp
                )
        assert np.allclose(a, oracle, atol=1e-14)


class TestReaction:
    def test_empty_mask(self):
        grid = build_grid((0, 1, 0, 1), 3, 2)
        r = assemble_reaction(grid, np.zeros(grid.num_cells))
        assert np.allclose(r.toarray(), 0.0)

    def test_full_mask_equals_mass(self):
        grid = build_grid((0, 1, 0, 1), 3, 2)
        r = assemble_reaction(grid, np.ones(grid.num_cells))
        assert np.allclose(r.toarray(), assemble_mass(grid).toarray(), atol=1e-15)

    def test_half_mask_total_is_area(self):
        grid = build_grid((0, 1, 0, 1), 4, 4)
        mask = (grid.cell_centers[:, 0] < 0.5).astype(float)
        r = assemble_reaction(grid, mask)
        assert r.sum() == pytest.approx(0.5, abs=1e-12)


class TestOutputAverage:
    def test_cell_average_of_one(self):
        grid = build_grid((0, 1, 0, 1), 3, 3)
        s = assemble_output_average(grid, np.arange(grid.num_cells))
        assert s @ np.ones(grid.num_nodes) == pytest.approx(1.0, abs=1e-13)

    def test_boundary_average_of_one(self):
        grid = build_grid((0, 5, 0, 1), 10, 6)
        s = assemble_output_average(grid, BoundarySegment("right", 0.34, 1.0))
        assert s @ np.ones(grid.num_nodes) == pytest.approx(1.0, abs=1e-13)

    def test_linear_field_on_outflow_edge(self):
        grid = build_grid((0, 5, 0, 1), 10, 4)
        s = assemble_output_average(grid, BoundarySegment("right", 0.25, 1.0))
        assert s @ grid.node_coords[:, 0] == pytest.approx(5.0, rel=1e-13)

    def test_room_average_matches_cell_quadrature_oracle(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        cells = np.array([0, 1])  # bottom row
        s = assemble_output_average(grid, cells)
        v = np.arange(grid.num_nodes, dtype=float)
        oracle = 0.0
        for c in cells:
            corners = grid.cells[c]
            oracle += grid.hx * grid.hy * np.mean(v[corners])
        oracle /= cells.size * grid.hx * grid.hy
        assert s @ v == pytest.approx(oracle, rel=1e-13)

    def test_empty_region(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        with pytest.raises(ValueError, match="empty"):
            assemble_output_average(grid, np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty"):
            assemble_output_average(grid, BoundarySegment("left", 2.0, 3.0))


def _toy_shift_setup(nx=4, ny=4):
    grid = build_grid((0, 1, 0, 1), nx, ny)
    op = AffineOperator(
        (
            OperatorComponent(assemble_diffusion(grid, np.ones(grid.num_cells)), symmetric=True),
            OperatorComponent(assemble_mass(grid), parameter=0, symmetric=True),
        )
    )
    load = assemble_mass(grid) @ np.ones(grid.num_nodes)
    rhs = AffineFunctional((FunctionalComponent(load),), grid.num_nodes)
    return grid, op, rhs


class TestDirichletShift:
    def test_zero_lifting_keeps_rhs(self):
        grid, op, rhs = _toy_shift_setup()
        dofs = grid.boundary_nodes()
        lifting = DirichletLifting(dofs, np.zeros(grid.num_nodes))
        op2, rhs2 = apply_dirichlet_shift(op, rhs, lifting)
        assert len(rhs2.components) == len(rhs.components)
        for c in op2.components:
            m = c.matrix.toarray()
            assert np.allclose(m[dofs][:, np.setdiff1d(np.arange(grid.num_nodes), dofs)], 0.0)
            assert np.allclose(np.diag(m)[dofs], 1.0)

    def test_component_bookkeeping(self):
        grid, op, rhs = _toy_shift_setup()
        lifting_values = np.zeros(grid.num_nodes)
        dofs = grid.boundary_nodes()
        lifting_values[dofs[0]] = 1.0
        op2, rhs2 = apply_dirichlet_shift(op, rhs, DirichletLifting(dofs, lifting_values))
        assert len(rhs2.components) == len(rhs.components) + len(op.components)

    def test_shifted_solution_matches_constrained_solve_oracle(self):
        # steady diffusion with inhomogeneous Dirichlet data on a 4x4 grid
        grid = build_grid((0, 1, 0, 1), 4, 4)
        a_raw = assemble_diffusion(grid, np.ones(grid.num_cells))
        op = AffineOperator((OperatorComponent(a_raw, symmetric=True),))
        rhs = AffineFunctional((), grid.num_nodes)
        dofs = grid.boundary_nodes()
        g = np.zeros(grid.num_nodes)
        left = np.isclose(grid.node_coords[:, 0], 0.0)
        g[left] = 1.0
        op2, rhs2 = apply_dirichlet_shift(op, rhs, DirichletLifting(dofs, g))

        shifted = np.linalg.solve(op2.assemble([0.0]).toarray(), rhs2.assemble([0.0], 0.0))
        solution = shifted + g

        # oracle: solve the free sub-system with boundary values substituted
        free = np.setdiff1d(np.arange(grid.num_nodes), dofs)
        a = a_raw.toarray()
        u = g.copy()
        u[free] = np.linalg.solve(a[np.ix_(free, free)], -a[np.ix_(free, dofs)] @ g[dofs])
        assert np.allclose(solution, u, atol=1e-12)

    def test_index_out_of_range(self):
        grid, op, rhs = _toy_shift_setup()
        bad = DirichletLifting(np.array([grid.num_nodes + 3]), np.zeros(grid.num_nodes))
        with pytest.raises(ValueError):
            apply_dirichlet_shift(op, rhs, bad)


class TestEnergyProduct:
    def test_single_mass_component(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        m = assemble_mass(grid)
        op = AffineOperator((OperatorComponent(m, symmetric=True),))
        g = energy_product(op, np.array([1.0])).gram
        assert np.allclose(g.toarray(), m.toarray())

    def test_matches_symmetric_sum_definition(self):
        grid, op, rhs = _toy_shift_setup()
        mu_bar = np.array([2.5])
        g = energy_product(op, mu_bar).gram
        rng = np.random.default_rng(5)
        v = rng.normal(size=grid.num_nodes)
        thetas = op.thetas(mu_bar)
        expected = sum(th * (c.matrix @ v) for th, c in zip(thetas, op.components) if c.symmetric)
        assert np.allclose(g @ v, expected, atol=1e-12)

    def test_small_case_eigenvalues_positive(self):
        mats = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        op = AffineOperator((OperatorComponent(mats, symmetric=True),))
        g = energy_product(op, np.zeros(1)).gram
        assert np.all(np.linalg.eigvalsh(g.toarray()) > 0)

    def test_indefinite_rejected(self):
        mats = sp.csr_matrix(np.diag([1.0, -1.0]))
        op = AffineOperator((OperatorComponent(mats, symmetric=True),))
        with pytest.raises(NumericalError, match="not SPD"):
            energy_product(op, np.zeros(1))


class TestAffineCoefficients:
    def test_thetas_read_parameter_indices(self):
        mat = sp.identity(2, format="csr")
        op = AffineOperator(
            (OperatorComponent(mat, parameter=2), OperatorComponent(mat), OperatorComponent(mat, parameter=0))
        )
        assert np.array_equal(op.thetas([3.0, 5.0, 7.0]), [7.0, 1.0, 3.0])

    def test_ramp_is_rate_times_time_capped_at_one(self):
        rhs = AffineFunctional(
            (FunctionalComponent(np.ones(2), parameter=1, ramp_rate=2.0), FunctionalComponent(np.ones(2))), 2
        )
        table = rhs.coefficient_table([3.0, 5.0], TimeGrid(1.0, 5))  # nodes 0, 1/4, 1/2, 3/4, 1
        assert np.array_equal(table, [[0.0, 1.0], [2.5, 1.0], [5.0, 1.0], [5.0, 1.0], [5.0, 1.0]])

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AffineOperator((OperatorComponent(sp.identity(2, format="csr"), parameter=-1),))


class TestFieldRaster:
    def test_csv_roundtrip_top_to_bottom(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("3.0,4.0\n1.0,2.0\n")  # top row first
        raster = load_raster_csv(path)
        # storage is bottom-up: first row of values is the bottom of the domain
        assert np.allclose(raster.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_rescale_bounds(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("0.0,5.0\n10.0,2.5\n")
        raster = load_raster_csv(path, bounds=(0.001, 1.0))
        assert raster.values.min() == pytest.approx(0.001)
        assert raster.values.max() == pytest.approx(1.0)

    def test_synthetic_fallback(self):
        a = synthetic_layered_raster(10, 6, seed=3)
        b = synthetic_layered_raster(10, 6, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.values.shape == (6, 10)
        assert a.values.min() >= 0.001 and a.values.max() <= 1.0

    def test_shape_mismatch(self):
        grid = build_grid((0, 1, 0, 1), 3, 3)
        with pytest.raises(ValueError):
            FieldRaster(np.ones((2, 2))).cell_values(grid)


class TestInvariants:
    def test_symmetric_components_are_symmetric(self, heat_problem):
        for c in heat_problem.operator.components:
            if c.symmetric:
                d = c.matrix - c.matrix.T
                denom = max(abs(c.matrix).max(), 1e-300)
                assert abs(d).max() <= 1e-13 * denom

    def test_affine_equals_monolithic_on_free_block(self):
        grid = build_grid((0, 1, 0, 1), 4, 4)
        kappa = np.linspace(0.2, 1.0, grid.num_cells)
        mask = (grid.cell_centers[:, 1] < 0.5).astype(float)
        a_diff = assemble_diffusion(grid, kappa)
        a_react = assemble_reaction(grid, mask)
        op = AffineOperator(
            (
                OperatorComponent(a_diff, symmetric=True),
                OperatorComponent(a_react, parameter=0, symmetric=True),
            )
        )
        mu = np.array([3.7])
        mono = assemble_diffusion(grid, kappa) + 3.7 * assemble_reaction(grid, mask)
        diff = (op.assemble(mu) - mono).toarray()
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(mono.toarray()))

    def test_constrain_matrix_matches_dense_oracle(self):
        grid = build_grid((0, 1, 0, 1), 5, 3)
        rng = np.random.default_rng(9)
        velocity = rng.normal(size=(grid.num_cells, 2))
        mat = assemble_diffusion(grid, np.ones(grid.num_cells)) + assemble_advection(grid, velocity)
        dofs = grid.boundary_nodes()
        for diagonal in (0.0, 1.0):
            expected = mat.toarray()
            expected[dofs, :] = 0.0
            expected[:, dofs] = 0.0
            expected[dofs, dofs] = diagonal
            out = constrain_matrix(mat, dofs, diagonal)
            assert np.array_equal(out.toarray(), expected)
            assert out.has_canonical_format and np.all(out.data != 0.0)

    def test_constrain_matrix_zero_diagonal(self):
        grid = build_grid((0, 1, 0, 1), 2, 2)
        m = constrain_matrix(assemble_mass(grid), grid.boundary_nodes(), diagonal=0.0)
        dofs = grid.boundary_nodes()
        assert np.allclose(m.toarray()[dofs, :], 0.0)
        assert np.allclose(m.toarray()[:, dofs], 0.0)
