import numpy as np
import pytest
import scipy.sparse.linalg as spla

import certrom.fem
import certrom.problems
from certrom import (
    BuildingConfig,
    ConfigError,
    EnergyFactor,
    FullOrderModel,
    ReactiveFlowConfig,
    build_building,
    build_heat_square,
    build_reactive_flow,
    from_config,
    make_adaptive_model,
)
from certrom.fem import assemble_advection, assemble_diffusion, assemble_reaction
from conftest import count_calls
from oracles import constrain_matrix_products


class TestReactiveFlow:
    def test_affine_thetas_at_unit_parameter(self, small_reactive_problem):
        thetas = small_reactive_problem.operator.thetas(np.array([1.0, 1.0]))
        assert np.allclose(thetas, [1.0, 1.0, 1.0])

    def test_affine_matches_monolithic_on_free_block(self, small_reactive_problem):
        p = small_reactive_problem
        grid = p.grid
        centers = grid.cell_centers
        washcoat = centers[:, 1] < 0.34
        kappa = np.where(washcoat, np.nan, 1.0)
        # recover the washcoat raster from the assembled diffusion component:
        # rebuild from the synthetic generator with the same seed instead
        from certrom import synthetic_layered_raster

        raster = synthetic_layered_raster(grid.nx, grid.ny, seed=0, bounds=(0.001, 1.0))
        kappa = raster.cell_values(grid).copy()
        kappa[~washcoat] = 1.0
        velocity = np.zeros((grid.num_cells, 2))
        velocity[~washcoat, 0] = 1.0

        mu = np.array([3.3, 9.7])
        mono = (
            assemble_diffusion(grid, kappa)
            + mu[1] * assemble_advection(grid, velocity)
            + mu[0] * assemble_reaction(grid, washcoat.astype(float))
        ).toarray()
        affine = p.operator.assemble(mu).toarray()
        free = np.setdiff1d(np.arange(p.dim), p.lifting.dofs)
        diff = affine[np.ix_(free, free)] - mono[np.ix_(free, free)]
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(mono))

    def test_output_stays_physical(self, small_reactive_problem):
        fom = FullOrderModel(small_reactive_problem)
        rng = np.random.default_rng(1)
        for _ in range(3):
            sig = fom.eval_output(small_reactive_problem.box.sample(rng))
            assert sig.values.min() >= -1e-6
            assert sig.values.max() <= 1.0 + 1e-2

    def test_pure_diffusion_limit_reaches_steady_state(self):
        # Da = Pe = 0 lies outside the parameter box on purpose: widen the box
        # for this limit study and run a long horizon
        problem = build_reactive_flow(
            ReactiveFlowConfig(nx=10, ny=4, num_time_nodes=201, t_end=200.0,
                               box_lower=(-1.0, -1.0), box_upper=(10.0, 11.0))
        )
        fom = FullOrderModel(problem)
        mu = np.array([0.0, 0.0])
        sig = fom.eval_output(mu)
        # independent oracle: the steady state solves A u = b
        a = problem.operator.assemble(mu).tocsc()
        b = problem.rhs.assemble(mu, problem.time_grid.t_end)
        steady = spla.spsolve(a, b)
        steady_output = steady @ problem.output + problem.output_shift
        assert sig.values[-1] == pytest.approx(steady_output, abs=1e-6)
        # the walls are cold Dirichlet boundaries, so unlike a fully insulated
        # pipe the outflow average settles well below the inflow value
        assert 0.0 < steady_output < 1.0

    def test_raster_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="raster size mismatch"):
            build_reactive_flow(ReactiveFlowConfig(nx=10, ny=4, raster_path=str(path)))

    def test_raster_file_accepted(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "field.csv"
        np.savetxt(path, rng.uniform(0.1, 5.0, size=(4, 10)), delimiter=",")
        problem = build_reactive_flow(
            ReactiveFlowConfig(nx=10, ny=4, num_time_nodes=21, raster_path=str(path))
        )
        assert problem.dim == 11 * 5


class TestBuilding:
    def test_parameter_dimension(self):
        assert build_building().box.dim == 28

    def test_zero_heaters_zero_output(self):
        problem = build_building()
        fom = FullOrderModel(problem)
        mu = problem.box.lower.copy()
        mu[16:] = 0.0
        sig = fom.eval_output(mu)
        assert np.allclose(sig.values, 0.0, atol=1e-14)

    def test_heater_superposition(self):
        problem = build_building()
        fom = FullOrderModel(problem)
        mu = problem.mu_bar.copy()
        doubled = mu.copy()
        doubled[16:] *= 2.0
        a = fom.eval_output(mu).values
        b = fom.eval_output(doubled).values
        assert np.allclose(b, 2.0 * a, rtol=1e-10, atol=1e-13)

    def test_single_heater_matches_monolithic_assembly(self):
        cfg = BuildingConfig()
        problem = build_building(cfg)
        fom = FullOrderModel(problem)
        mu = problem.box.lower.copy()
        mu[:16] = problem.mu_bar[:16]
        mu[16:] = 0.0
        mu[16] = 37.0  # single active heater

        sig = fom.eval_output(mu)

        # monolithic oracle: assemble one diffusion matrix from the composed
        # coefficient field and step it directly
        grid = problem.grid
        kappa = np.ones(grid.num_cells)
        for rect, value in cfg.fixed_walls + cfg.fixed_doors:
            kappa[grid.cells_in_rectangle(rect)] = value
        rects = list(cfg.walls) + list(cfg.doors)
        for j, rect in enumerate(rects):
            kappa[grid.cells_in_rectangle(rect)] = mu[j]
        a_raw = assemble_diffusion(grid, kappa).toarray()
        from certrom.fem import assemble_mass

        m_raw = assemble_mass(grid).toarray()
        dofs = problem.lifting.dofs
        free = np.setdiff1d(np.arange(problem.dim), dofs)

        load = np.zeros(problem.dim)
        quarter = grid.hx * grid.hy / 4.0
        for n in grid.cells[grid.cells_in_rectangle(cfg.heaters[0])].ravel():
            load[n] += quarter
        load *= mu[16]

        dt = problem.time_grid.dt
        af = a_raw[np.ix_(free, free)]
        mf = m_raw[np.ix_(free, free)]
        system = mf + dt * af
        u = np.zeros(free.size)
        values = [0.0]
        for t in problem.time_grid.nodes[1:]:
            ramp = min(2.0 * t, 1.0)
            u = np.linalg.solve(system, mf @ u + dt * ramp * load[free])
            values.append(problem.output[free] @ u)
        assert np.allclose(sig.values, values, atol=1e-12)

    def test_coefficient_table_matches_per_node_coefficients(self):
        p = build_building()
        assert any(c.ramp_rate is not None for c in p.rhs.components)
        rng = np.random.default_rng(8)
        for _ in range(2):
            mu = p.box.sample(rng)
            table = p.rhs.coefficient_table(mu, p.time_grid)
            per_node = np.array([p.rhs.coefficients(mu, t) for t in p.time_grid.nodes])
            assert np.array_equal(table, per_node)

    def test_overlapping_rectangles_rejected(self):
        bad = BuildingConfig(heaters=((0.4, 0.7, 0.0, 0.2),) + BuildingConfig().heaters[1:])
        with pytest.raises(ValueError, match="overlapping"):
            build_building(bad)

    def test_heater_outside_grid_resolution_rejected(self):
        bad = BuildingConfig(heaters=((0.501, 0.51, 0.9, 0.905),) + BuildingConfig().heaters[1:])
        with pytest.raises(ValueError, match="covers no cell"):
            build_building(bad)


class TestHeatSquare:
    def test_dimensions(self, heat_problem):
        assert heat_problem.dim == 81
        assert heat_problem.box.dim == 2
        assert heat_problem.time_grid.num_nodes == 50

    def test_two_material_asymmetry(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        hot_left = fom.eval_output(np.array([0.5, 2.0])).values[-1]
        hot_right = fom.eval_output(np.array([2.0, 0.5])).values[-1]
        balanced = fom.eval_output(np.array([0.5, 0.5])).values[-1]
        assert balanced > max(hot_left, hot_right)
        assert hot_left == pytest.approx(hot_right, rel=1e-10)  # mirror symmetry


class TestFromConfig:
    def test_dispatch(self):
        p = from_config({"kind": "heat_square", "nx": 4, "ny": 4, "num_time_nodes": 10})
        assert p.dim == 25

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="problem.kind"):
            from_config({"kind": "nope"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="heat_square"):
            from_config({"kind": "heat_square", "bogus": 1})

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            from_config({})


class TestCustomFloorPlanFromJson:
    def test_round_trips_through_json(self):
        import json

        plan = {
            "kind": "building",
            "nx": 8,
            "ny": 4,
            "num_time_nodes": 20,
            "walls": [[0.5, 0.75, 0.0, 0.5]],
            "doors": [[0.5, 0.75, 0.5, 0.75]],
            "fixed_walls": [[[0.5, 0.75, 0.75, 1.0], 0.05]],
            "fixed_doors": [],
            "heaters": [[0.0, 0.25, 0.0, 0.25], [1.75, 2.0, 0.0, 0.25]],
            "room": [1.0, 2.0, 0.25, 1.0],
        }
        problem = from_config(json.loads(json.dumps(plan)))
        assert problem.box.dim == 4
        fom = FullOrderModel(problem)
        sig = fom.eval_output(problem.box.center)
        assert np.isfinite(sig.values).all()


class TestSetUpWork:
    """Set-up constrains without sparse products and factors the energy Gram
    once, with bit-identical problems."""

    BUILDERS = (build_reactive_flow, build_building, build_heat_square)

    def test_masked_constraints_match_the_product_form_byte_for_byte(self, monkeypatch):
        masked = [build() for build in self.BUILDERS]
        monkeypatch.setattr(certrom.fem, "constrain_matrix", constrain_matrix_products)
        monkeypatch.setattr(certrom.problems, "constrain_matrix", constrain_matrix_products)
        for problem, build in zip(masked, self.BUILDERS):
            reference = build()
            for p, q in zip(self._matrices(problem), self._matrices(reference), strict=True):
                for a, b in ((p.indptr, q.indptr), (p.indices, q.indices), (p.data, q.data)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @staticmethod
    def _matrices(problem):
        return [c.matrix for c in problem.operator.components] + [problem.mass, problem.gram]

    def test_building_loads_match_the_per_node_sums(self):
        cfg = BuildingConfig()
        problem = build_building(cfg)
        grid = problem.grid
        quarter = grid.hx * grid.hy / 4.0
        expected = []
        for rect in cfg.heaters + (cfg.room,):
            vec = np.zeros(grid.num_nodes)
            for n in grid.cells[grid.cells_in_rectangle(rect)].ravel():
                vec[n] += quarter
            expected.append(vec)
        expected[-1] = expected[-1] / (grid.cells_in_rectangle(cfg.room).size * grid.hx * grid.hy)
        for vec in expected:
            vec[problem.lifting.dofs] = 0.0
        loads = [c.vector for c in problem.rhs.components] + [problem.output]
        assert [v.tobytes() for v in loads] == [v.tobytes() for v in expected]

    def test_energy_gram_factored_once_per_problem_and_model(self, monkeypatch):
        factored = count_calls(monkeypatch, EnergyFactor, "__init__")
        problem = build_reactive_flow()
        make_adaptive_model(problem, eps=1e-3)
        assert len(factored) == 1
