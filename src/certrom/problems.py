"""The shipped experiment setups: reactive channel flow with a permeable
washcoat, a heated building floor, and a small two-material heat square used
throughout the tests and demos."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, ParameterBox, TimeGrid
from .fem import (
    AffineFunctional,
    AffineOperator,
    BoundarySegment,
    DirichletLifting,
    FunctionalComponent,
    OperatorComponent,
    StructuredGrid,
    apply_dirichlet_shift,
    assemble_advection,
    assemble_diffusion,
    assemble_mass,
    assemble_output_average,
    assemble_reaction,
    assemble_weighted_stiffness,
    build_grid,
    constrain_matrix,
    energy_product,
    load_raster_csv,
    synthetic_layered_raster,
)
from .fom import FomProblem


def _homogeneous_problem(grid, operator, rhs, lifting, output_raw, box, time_grid, names) -> FomProblem:
    """Shift a raw discretization onto the homogeneous subspace of the lifting's
    constrained DoFs: constrained mass and output, the lifting's output
    offset, and the energy product at the box centre; zero initial datum."""
    operator, rhs = apply_dirichlet_shift(operator, rhs, lifting)
    energy = energy_product(operator, box.center)
    output = output_raw.copy()
    output[lifting.dofs] = 0.0
    return FomProblem(
        operator=operator,
        mass=constrain_matrix(assemble_mass(grid), lifting.dofs, diagonal=0.0),
        rhs=rhs,
        output=output,
        time_grid=time_grid,
        gram=energy.gram,
        mu_bar=box.center,
        box=box,
        initial=np.zeros(grid.num_nodes),
        output_shift=float(output_raw @ lifting.values),
        lifting=lifting,
        grid=grid,
        parameter_names=names,
        energy=energy,
    )


# ---------------------------------------------------------------------------
# reactive channel flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReactiveFlowConfig:
    """Channel flow over a reactive washcoat; parameters (Da, Pe)."""

    nx: int = 100
    ny: int = 20
    num_time_nodes: int = 1001
    t_end: float = 5.0
    washcoat_height: float = 0.34
    raster_path: Optional[str] = None
    raster_seed: int = 0
    raster_bounds: tuple = (0.001, 1.0)
    box_lower: tuple = (0.01, 9.0)
    box_upper: tuple = (10.0, 11.0)

    def __post_init__(self):
        if not 0.0 < self.washcoat_height < 1.0:
            raise ValueError("washcoat height must lie in (0, 1)")
        if min(self.raster_bounds) <= 0.0:
            raise ValueError("raster bounds must be positive")


def build_reactive_flow(config: ReactiveFlowConfig = ReactiveFlowConfig()) -> FomProblem:
    cfg = config
    grid = build_grid((0.0, 5.0, 0.0, 1.0), cfg.nx, cfg.ny)
    centers = grid.cell_centers
    washcoat = centers[:, 1] < cfg.washcoat_height
    channel = ~washcoat

    if cfg.raster_path is not None:
        raster = load_raster_csv(cfg.raster_path, bounds=cfg.raster_bounds)
        if raster.values.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"raster size mismatch: expected ({grid.ny}, {grid.nx}), got {raster.values.shape}"
            )
    else:
        raster = synthetic_layered_raster(grid.nx, grid.ny, seed=cfg.raster_seed, bounds=cfg.raster_bounds)
    kappa = raster.cell_values(grid).copy()
    kappa[channel] = 1.0

    velocity = np.zeros((grid.num_cells, 2))
    velocity[channel, 0] = 1.0

    diffusion = assemble_diffusion(grid, kappa)
    advection = assemble_advection(grid, velocity)
    reaction = assemble_reaction(grid, washcoat.astype(float))
    operator = AffineOperator(
        (
            OperatorComponent(diffusion, symmetric=True, name="diffusion"),
            OperatorComponent(advection, parameter=1, name="advection"),
            OperatorComponent(reaction, parameter=0, symmetric=True, name="reaction"),
        )
    )

    coords = grid.node_coords
    tol = 1e-12
    on_outflow = np.isclose(coords[:, 0], 5.0) & (coords[:, 1] >= cfg.washcoat_height - tol)
    constrained = np.setdiff1d(grid.boundary_nodes(), np.flatnonzero(on_outflow))
    lifting_values = np.zeros(grid.num_nodes)
    on_inflow = np.isclose(coords[:, 0], 0.0) & (coords[:, 1] >= cfg.washcoat_height - tol)
    lifting_values[on_inflow] = 1.0
    return _homogeneous_problem(
        grid,
        operator,
        AffineFunctional((), grid.num_nodes),
        DirichletLifting(constrained, lifting_values),
        assemble_output_average(grid, BoundarySegment("right", cfg.washcoat_height, 1.0)),
        ParameterBox(np.array(cfg.box_lower), np.array(cfg.box_upper)),
        TimeGrid(cfg.t_end, cfg.num_time_nodes),
        ("Da", "Pe"),
    )


# ---------------------------------------------------------------------------
# building floor heating
# ---------------------------------------------------------------------------

DEFAULT_WALLS = (
    (0.5, 0.625, 0.0, 0.375),
    (0.5, 0.625, 0.75, 1.0),
    (1.0, 1.125, 0.0, 0.375),
    (1.5, 1.625, 0.0, 0.375),
    (1.5, 1.625, 0.75, 1.0),
    (0.0, 0.25, 0.5, 0.625),
    (0.5, 0.875, 0.5, 0.625),
    (1.5, 1.875, 0.5, 0.625),
)
DEFAULT_DOORS = (
    (0.5, 0.625, 0.375, 0.5),
    (0.5, 0.625, 0.625, 0.75),
    (1.0, 1.125, 0.375, 0.5),
    (1.5, 1.625, 0.375, 0.5),
    (1.5, 1.625, 0.625, 0.75),
    (0.25, 0.5, 0.5, 0.625),
    (0.875, 1.0, 0.5, 0.625),
    (1.875, 2.0, 0.5, 0.625),
)
# default plan rectangles sit on the 0.125 lattice of the 16x8 grid;
# kept non-parametric: the upper middle divider and the horizontal separator
# of the third room, each with its door
DEFAULT_FIXED_WALLS = (
    ((1.0, 1.125, 0.75, 1.0), 0.05),
    ((1.0, 1.375, 0.5, 0.625), 0.05),
)
DEFAULT_FIXED_DOORS = (
    ((1.0, 1.125, 0.625, 0.75), 0.5),
    ((1.375, 1.5, 0.5, 0.625), 0.5),
)
DEFAULT_HEATERS = (
    (0.0, 0.25, 0.0, 0.125),
    (0.25, 0.5, 0.0, 0.125),
    (0.625, 0.875, 0.0, 0.125),
    (1.125, 1.375, 0.0, 0.125),
    (1.625, 1.875, 0.0, 0.125),
    (1.875, 2.0, 0.0, 0.125),
    (0.0, 0.25, 0.875, 1.0),
    (0.25, 0.5, 0.875, 1.0),
    (0.625, 0.875, 0.875, 1.0),
    (1.125, 1.375, 0.875, 1.0),
    (1.625, 1.875, 0.875, 1.0),
    (1.875, 2.0, 0.875, 1.0),
)
DEFAULT_ROOM = (1.625, 2.0, 0.625, 1.0)


HEATER_RAMP_RATE = 2.0  # heaters switch on linearly over the first half time unit


@dataclass(frozen=True)
class BuildingConfig:
    """Heat equation on a floor plan: wall/door diffusivities and heater
    strengths are the parameters (8 + 8 + 12 = 28 by default)."""

    nx: int = 16
    ny: int = 8
    num_time_nodes: int = 100
    t_end: float = 1.0
    walls: tuple = DEFAULT_WALLS
    doors: tuple = DEFAULT_DOORS
    fixed_walls: tuple = DEFAULT_FIXED_WALLS
    fixed_doors: tuple = DEFAULT_FIXED_DOORS
    heaters: tuple = DEFAULT_HEATERS
    room: tuple = DEFAULT_ROOM
    wall_bounds: tuple = (0.01, 0.1)
    door_bounds: tuple = (0.1, 1.0)
    heater_bounds: tuple = (0.0, 100.0)  # scaled so the room-average QoI is O(0.1)

    @property
    def num_parameters(self) -> int:
        return len(self.walls) + len(self.doors) + len(self.heaters)


def _check_rectangles(grid: StructuredGrid, cfg: BuildingConfig):
    """Wall/door cells must be pairwise disjoint and heater cells must avoid
    them; otherwise the coefficient is ill-defined."""
    blocking = [
        ("wall", r) for r in cfg.walls
    ] + [("door", r) for r in cfg.doors] + [
        ("fixed wall", r) for r, _ in cfg.fixed_walls
    ] + [("fixed door", r) for r, _ in cfg.fixed_doors]
    seen = {}
    for kind, rect in blocking:
        for c in grid.cells_in_rectangle(rect):
            if c in seen:
                raise ValueError(f"overlapping {seen[c]} and {kind} rectangles")
            seen[c] = kind
    for rect in cfg.heaters:
        for c in grid.cells_in_rectangle(rect):
            if c in seen:
                raise ValueError(f"overlapping {seen[c]} and heater rectangles")


def build_building(config: BuildingConfig = BuildingConfig()) -> FomProblem:
    cfg = config
    grid = build_grid((0.0, 2.0, 0.0, 1.0), cfg.nx, cfg.ny)
    _check_rectangles(grid, cfg)

    background = np.ones(grid.num_cells)
    for rect, value in cfg.fixed_walls + cfg.fixed_doors:
        background[grid.cells_in_rectangle(rect)] = value

    components = []
    parametric_rects = list(cfg.walls) + list(cfg.doors)
    for rect in parametric_rects:
        background[grid.cells_in_rectangle(rect)] = 0.0
    components.append(
        OperatorComponent(assemble_weighted_stiffness(grid, background), symmetric=True, name="background")
    )
    for j, rect in enumerate(parametric_rects):
        weights = np.zeros(grid.num_cells)
        weights[grid.cells_in_rectangle(rect)] = 1.0
        kind = "wall" if j < len(cfg.walls) else "door"
        components.append(
            OperatorComponent(
                assemble_weighted_stiffness(grid, weights), parameter=j, symmetric=True, name=f"{kind}{j}"
            )
        )
    operator = AffineOperator(tuple(components))

    rhs_components = []
    heater_offset = len(parametric_rects)
    quarter = grid.hx * grid.hy / 4.0
    corners = grid.cells
    for j, rect in enumerate(cfg.heaters):
        vec = np.zeros(grid.num_nodes)
        cells = grid.cells_in_rectangle(rect)
        if cells.size == 0:
            raise ValueError(f"heater rectangle {rect} covers no cell")
        np.add.at(vec, corners[cells].ravel(), quarter)
        rhs_components.append(
            FunctionalComponent(
                vec, parameter=heater_offset + j, ramp_rate=HEATER_RAMP_RATE, name=f"heater{j}"
            )
        )
    rhs = AffineFunctional(tuple(rhs_components), grid.num_nodes)

    lower = np.concatenate(
        [
            np.full(len(cfg.walls), cfg.wall_bounds[0]),
            np.full(len(cfg.doors), cfg.door_bounds[0]),
            np.full(len(cfg.heaters), cfg.heater_bounds[0]),
        ]
    )
    upper = np.concatenate(
        [
            np.full(len(cfg.walls), cfg.wall_bounds[1]),
            np.full(len(cfg.doors), cfg.door_bounds[1]),
            np.full(len(cfg.heaters), cfg.heater_bounds[1]),
        ]
    )
    names = tuple(
        [f"wall{j}" for j in range(len(cfg.walls))]
        + [f"door{j}" for j in range(len(cfg.doors))]
        + [f"heater{j}" for j in range(len(cfg.heaters))]
    )
    return _homogeneous_problem(
        grid,
        operator,
        rhs,
        DirichletLifting(grid.boundary_nodes(), np.zeros(grid.num_nodes)),
        assemble_output_average(grid, grid.cells_in_rectangle(cfg.room)),
        ParameterBox(lower, upper),
        TimeGrid(cfg.t_end, cfg.num_time_nodes),
        names,
    )


# ---------------------------------------------------------------------------
# two-material heat square (small test/demo problem)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatSquareConfig:
    """Unit-square heat equation with independently scaled diffusivities in the
    left and right halves, unit source, domain-average output."""

    nx: int = 8
    ny: int = 8
    num_time_nodes: int = 50
    t_end: float = 1.0
    box_lower: tuple = (0.5, 0.5)
    box_upper: tuple = (2.0, 2.0)


def build_heat_square(config: HeatSquareConfig = HeatSquareConfig()) -> FomProblem:
    cfg = config
    grid = build_grid((0.0, 1.0, 0.0, 1.0), cfg.nx, cfg.ny)
    left = grid.cell_centers[:, 0] < 0.5
    operator = AffineOperator(
        (
            OperatorComponent(
                assemble_weighted_stiffness(grid, left.astype(float)), parameter=0, symmetric=True, name="left"
            ),
            OperatorComponent(
                assemble_weighted_stiffness(grid, (~left).astype(float)), parameter=1, symmetric=True, name="right"
            ),
        )
    )
    load = assemble_mass(grid) @ np.ones(grid.num_nodes)
    rhs = AffineFunctional((FunctionalComponent(load, name="source"),), grid.num_nodes)
    return _homogeneous_problem(
        grid,
        operator,
        rhs,
        DirichletLifting(grid.boundary_nodes(), np.zeros(grid.num_nodes)),
        assemble_output_average(grid, np.arange(grid.num_cells)),
        ParameterBox(np.array(cfg.box_lower), np.array(cfg.box_upper)),
        TimeGrid(cfg.t_end, cfg.num_time_nodes),
        ("k_left", "k_right"),
    )


# ---------------------------------------------------------------------------
# configuration dispatch
# ---------------------------------------------------------------------------

_BUILDERS = {
    "reactive_flow": (ReactiveFlowConfig, build_reactive_flow),
    "building": (BuildingConfig, build_building),
    "heat_square": (HeatSquareConfig, build_heat_square),
}


def from_config(entry: dict) -> FomProblem:
    """Build a problem from a JSON-style dict: {"kind": ..., <field overrides>}."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError("problem config must be an object with a 'kind' key")
    kind = entry["kind"]
    if kind not in _BUILDERS:
        raise ConfigError(
            f"problem.kind: expected one of {sorted(_BUILDERS)}, got {kind!r}"
        )
    config_cls, builder = _BUILDERS[kind]
    kwargs = {k: v for k, v in entry.items() if k != "kind"}
    try:
        config = config_cls(**_coerce_tuples(kwargs))
    except TypeError as exc:
        raise ConfigError(f"problem config for {kind!r}: {exc}") from exc
    return builder(config)


def _coerce_tuples(kwargs: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()}
