"""Bilinear quadrilateral FEM assembly on structured grids.

Everything is assembled cellwise from tensor-product 1d element factors
(exact for the bilinear trial/test pairs with cellwise-constant data), into
affinely decomposed operators a(.,.;mu) = sum_q theta_q(mu) a_q and
functionals l(.;mu,t) = sum_q theta_q(mu) r_q(t) b_q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import NumericalError


@dataclass(frozen=True)
class StructuredGrid:
    """Tensor-product quad mesh of a rectangle, nodes ordered lexicographically
    (x fastest, then y): node (i, j) has index j * (nx + 1) + i."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("need at least one cell per axis")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate rectangle")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def num_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def node_coords(self) -> np.ndarray:
        x = np.linspace(self.x0, self.x1, self.nx + 1)
        y = np.linspace(self.y0, self.y1, self.ny + 1)
        xx, yy = np.meshgrid(x, y)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def band_order(self) -> np.ndarray:
        """The node indices numbered along the shorter axis first: a bilinear
        element matrix in this order has half-bandwidth min(nx, ny) + 2."""
        nodes = np.arange(self.num_nodes).reshape(self.ny + 1, self.nx + 1)
        return (nodes.T if self.ny < self.nx else nodes).ravel()

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """Cell -> node incidence, local order (0,0), (1,0), (0,1), (1,1);
        computed once per grid and read-only."""
        ci, cj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ci, cj = ci.ravel(), cj.ravel()
        n00 = cj * (self.nx + 1) + ci
        cells = np.column_stack([n00, n00 + 1, n00 + self.nx + 1, n00 + self.nx + 2])
        cells.flags.writeable = False
        return cells

    def __getstate__(self):
        # a pickle would restore the cached cells writeable; they are rebuilt instead
        return {k: v for k, v in self.__dict__.items() if k != "cells"}

    def _center_axes(self):
        cx = self.x0 + (np.arange(self.nx) + 0.5) * self.hx
        cy = self.y0 + (np.arange(self.ny) + 0.5) * self.hy
        return cx, cy

    @property
    def cell_centers(self) -> np.ndarray:
        xx, yy = np.meshgrid(*self._center_axes())
        return np.column_stack([xx.ravel(), yy.ravel()])

    def boundary_nodes(self) -> np.ndarray:
        coords = self.node_coords
        on = (
            np.isclose(coords[:, 0], self.x0)
            | np.isclose(coords[:, 0], self.x1)
            | np.isclose(coords[:, 1], self.y0)
            | np.isclose(coords[:, 1], self.y1)
        )
        return np.flatnonzero(on)

    def cells_in_rectangle(self, rect) -> np.ndarray:
        """Indices of cells whose center lies in [rx0, rx1] x [ry0, ry1]."""
        rx0, rx1, ry0, ry1 = rect
        cx, cy = self._center_axes()
        cols = np.flatnonzero((cx >= rx0) & (cx <= rx1))
        rows = np.flatnonzero((cy >= ry0) & (cy <= ry1))
        return (rows[:, None] * self.nx + cols).ravel()


def build_grid(domain, nx: int, ny: int) -> StructuredGrid:
    """Build a structured quad grid on domain = (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = (float(v) for v in domain)
    return StructuredGrid(x0, x1, y0, y1, int(nx), int(ny))


# 1d element factors on intervals of length h; local 2d index is jy * 2 + ix.
def _mass_1d(h):
    return h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _stiff_1d(h):
    return 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])


# C[i, j] = integral of phi_j' * phi_i over the interval (independent of h)
_CONV_1D = np.array([[-0.5, 0.5], [-0.5, 0.5]])


def element_mass(hx, hy):
    return np.kron(_mass_1d(hy), _mass_1d(hx))


@functools.cache
def element_stiffness(hx, hy):
    """The 4 x 4 element stiffness, computed once per (hx, hy) and read-only."""
    el = np.kron(_mass_1d(hy), _stiff_1d(hx)) + np.kron(_stiff_1d(hy), _mass_1d(hx))
    el.flags.writeable = False
    return el


def _assemble(grid: StructuredGrid, cell_matrices: np.ndarray) -> sp.csr_matrix:
    """Scatter per-cell 4x4 matrices into the global sparse matrix."""
    cells = grid.cells
    rows = np.repeat(cells, 4, axis=1).ravel()
    cols = np.tile(cells, (1, 4)).ravel()
    data = cell_matrices.reshape(grid.num_cells, 16)
    mat = sp.coo_matrix((data.ravel(), (rows, cols)), shape=(grid.num_nodes, grid.num_nodes))
    return mat.tocsr()


def assemble_mass(grid: StructuredGrid) -> sp.csr_matrix:
    el = element_mass(grid.hx, grid.hy)
    return _assemble(grid, np.broadcast_to(el, (grid.num_cells, 4, 4)))


def assemble_weighted_stiffness(grid: StructuredGrid, weights) -> sp.csr_matrix:
    """Stiffness matrix with cellwise-constant nonnegative weights (the building
    block of affine diffusion components, which may vanish off their cells)."""
    w = np.asarray(weights, dtype=float)
    if w.size != grid.num_cells:
        raise ValueError("weights must provide one value per cell")
    el = element_stiffness(grid.hx, grid.hy)
    return _assemble(grid, w.ravel()[:, None, None] * el)


def assemble_diffusion(grid: StructuredGrid, field) -> sp.csr_matrix:
    """Stiffness matrix of integral kappa grad(u) . grad(v) with cellwise-constant kappa."""
    kappa = field.cell_values(grid) if isinstance(field, FieldRaster) else np.asarray(field, dtype=float)
    if kappa.size != grid.num_cells:
        raise ValueError("diffusion field must provide one value per cell")
    if np.any(kappa <= 0.0):
        raise ValueError("nonpositive diffusion")
    return assemble_weighted_stiffness(grid, kappa)


def assemble_advection(grid: StructuredGrid, velocity) -> sp.csr_matrix:
    """Advection matrix of integral div(v u) w, with cellwise-constant velocity.

    Within a cell div(v u) = v . grad(u); interface jumps of the velocity are
    dropped, consistent with continuous test functions and natural outflow.
    """
    vel = np.asarray(velocity, dtype=float)
    if vel.shape != (grid.num_cells, 2):
        raise ValueError("velocity must be an (num_cells, 2) array")
    el_x = np.kron(_mass_1d(grid.hy), _CONV_1D)
    el_y = np.kron(_CONV_1D, _mass_1d(grid.hx))
    cm = vel[:, 0, None, None] * el_x + vel[:, 1, None, None] * el_y
    return _assemble(grid, cm)


def assemble_reaction(grid: StructuredGrid, indicator) -> sp.csr_matrix:
    """Mass matrix restricted to the cells flagged by the indicator."""
    ind = np.asarray(indicator, dtype=float)
    if ind.size != grid.num_cells:
        raise ValueError("indicator must provide one value per cell")
    el = element_mass(grid.hx, grid.hy)
    return _assemble(grid, ind[:, None, None] * el)


@dataclass(frozen=True)
class BoundarySegment:
    """Part of one boundary side: side in {left, right, bottom, top}, span along it."""

    side: str
    lo: float
    hi: float


def assemble_output_average(grid: StructuredGrid, region) -> np.ndarray:
    """Averaging output functional over a boundary segment or a cell set.

    Applied to the all-ones DoF vector the functional yields exactly 1.
    """
    if isinstance(region, BoundarySegment):
        return _boundary_average(grid, region)
    cells = np.asarray(region)
    if cells.dtype == bool:
        cells = np.flatnonzero(cells)
    if cells.size == 0:
        raise ValueError("empty output region")
    vec = np.zeros(grid.num_nodes)
    area = cells.size * grid.hx * grid.hy
    # integral of a bilinear function over a cell = cell area * mean of corner values
    np.add.at(vec, grid.cells[cells].ravel(), grid.hx * grid.hy / 4.0)
    return vec / area


def _boundary_average(grid: StructuredGrid, seg: BoundarySegment) -> np.ndarray:
    if seg.side in ("left", "right"):
        h, count = grid.hy, grid.ny
        start = grid.y0
        fixed_index = 0 if seg.side == "left" else grid.nx

        def node(k):
            return k * (grid.nx + 1) + fixed_index

    elif seg.side in ("bottom", "top"):
        h, count = grid.hx, grid.nx
        start = grid.x0
        fixed_index = 0 if seg.side == "bottom" else grid.ny

        def node(k):
            return fixed_index * (grid.nx + 1) + k

    else:
        raise ValueError(f"unknown boundary side {seg.side!r}")

    vec = np.zeros(grid.num_nodes)
    total = 0.0
    for k in range(count):
        a, b = start + k * h, start + (k + 1) * h
        c, d = max(a, seg.lo), min(b, seg.hi)
        if d <= c:
            continue
        # trace is linear on the edge: exact integral of the clipped piece
        sa, sb = (c - a) / h, (d - a) / h
        smid = 0.5 * (sa + sb)
        vec[node(k)] += (d - c) * (1.0 - smid)
        vec[node(k + 1)] += (d - c) * smid
        total += d - c
    if total <= 0.0:
        raise ValueError("empty output region")
    return vec / total


@dataclass(frozen=True)
class FieldRaster:
    """Cellwise-constant scalar field given as an (ny, nx) array, row 0 at the bottom."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("raster values must be 2d")
        object.__setattr__(self, "values", v)

    def cell_values(self, grid: StructuredGrid) -> np.ndarray:
        if self.values.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"raster shape {self.values.shape} does not match grid ({grid.ny}, {grid.nx})"
            )
        return self.values.ravel()

    def rescaled(self, lo: float, hi: float) -> "FieldRaster":
        """Linear rescale of the raw value range onto [lo, hi]."""
        v = self.values
        vmin, vmax = v.min(), v.max()
        if vmax == vmin:
            return FieldRaster(np.full_like(v, 0.5 * (lo + hi)))
        return FieldRaster(lo + (v - vmin) / (vmax - vmin) * (hi - lo))


def load_raster_csv(path, bounds=None) -> FieldRaster:
    """Load a plain-text CSV raster: ny rows x nx columns, top row first.

    When bounds = (lo, hi) is given, values are linearly rescaled onto it.
    """
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    raster = FieldRaster(raw[::-1])  # file is top-to-bottom, storage bottom-up
    if bounds is not None:
        raster = raster.rescaled(*bounds)
    return raster


def synthetic_layered_raster(nx: int, ny: int, seed: int = 0, bounds=(0.001, 1.0)) -> FieldRaster:
    """Layered log-uniform permeability stand-in with cellwise jitter (seeded)."""
    rng = np.random.default_rng(seed)
    layers = max(1, ny // 2)
    layer_of_row = np.minimum(np.arange(ny) * layers // ny, layers - 1)
    base = rng.uniform(-3.0, 0.0, size=layers)  # log10 scale
    jitter = rng.normal(0.0, 0.25, size=(ny, nx))
    logv = base[layer_of_row][:, None] + jitter
    return FieldRaster(10.0 ** logv).rescaled(*bounds)


@dataclass(frozen=True)
class OperatorComponent:
    matrix: sp.csr_matrix
    parameter: Optional[int] = None  # theta_q(mu) = mu[parameter], 1 when None
    symmetric: bool = False
    name: str = ""


@dataclass(frozen=True)
class FunctionalComponent:
    vector: np.ndarray
    parameter: Optional[int] = None  # theta_q(mu) = mu[parameter], 1 when None
    ramp_rate: Optional[float] = None  # time factor r_q(t) = min(ramp_rate * t, 1), 1 when None
    name: str = ""


@dataclass(frozen=True)
class _AffineSum:
    """Affine components whose coefficients are read off the parameter vector
    through index arrays fixed at construction."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if any(c.parameter is not None and c.parameter < 0 for c in comps):
            raise ValueError("parameter indices must be nonnegative")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_ones", np.ones(len(comps)))  # theta of the constant components
        parametric = [q for q, c in enumerate(comps) if c.parameter is not None]
        object.__setattr__(self, "_parametric", np.array(parametric, dtype=int))
        object.__setattr__(self, "_parameters", np.array([comps[q].parameter for q in parametric], dtype=int))

    def thetas(self, mu) -> np.ndarray:
        """theta_q(mu) of every component, in component order."""
        thetas = self._ones.copy()
        thetas[self._parametric] = np.asarray(mu, dtype=float)[self._parameters]
        return thetas


@dataclass(frozen=True)
class AffineOperator(_AffineSum):
    """Parameter-separable operator sum_q theta_q(mu) A_q."""

    def __post_init__(self):
        super().__post_init__()
        if not self.components:
            raise ValueError("affine operator needs at least one component")
        n = self.components[0].matrix.shape[0]
        for c in self.components:
            if c.matrix.shape != (n, n):
                raise ValueError("all operator components must share one square dimension")

    @property
    def dim(self) -> int:
        return self.components[0].matrix.shape[0]

    def assemble(self, mu) -> sp.csr_matrix:
        acc = None
        for theta, c in zip(self.thetas(mu).tolist(), self.components):
            term = theta * c.matrix
            acc = term if acc is None else acc + term
        return acc.tocsr()


@dataclass(frozen=True)
class AffineFunctional(_AffineSum):
    """Parameter-separable functional sum_q theta_q(mu) r_q(t) b_q."""

    dim: int

    def __post_init__(self):
        super().__post_init__()
        for c in self.components:
            if c.vector.shape != (self.dim,):
                raise ValueError("all functional components must share the space dimension")
        ramped = [q for q, c in enumerate(self.components) if c.ramp_rate is not None]
        object.__setattr__(self, "_ramped", np.array(ramped, dtype=int))
        object.__setattr__(self, "_ramp_rates", np.array([self.components[q].ramp_rate for q in ramped]))

    def vectors(self) -> np.ndarray:
        """Stacked component vectors, shape (dim, Q); Q may be zero."""
        if not self.components:
            return np.zeros((self.dim, 0))
        return np.column_stack([c.vector for c in self.components])

    def coefficients(self, mu, t: float) -> np.ndarray:
        """theta_q(mu) r_q(t) at one time, component by component."""
        return np.array([
            theta * (1.0 if c.ramp_rate is None else min(c.ramp_rate * t, 1.0))
            for theta, c in zip(self.thetas(mu).tolist(), self.components)
        ])

    def ramp_table(self, grid) -> np.ndarray:
        """r_q(t_k) at every node t_k of the time grid, shape (K, Q)."""
        table = np.ones((grid.num_nodes, len(self.components)))
        if self._ramped.size:
            table[:, self._ramped] = np.minimum(np.multiply.outer(grid.nodes, self._ramp_rates), 1.0)
        return table

    def coefficient_table(self, mu, grid) -> np.ndarray:
        """theta_q(mu) r_q(t_k) at every node t_k of the time grid, shape (K, Q);
        row k equals ``coefficients(mu, t_k)``."""
        return self.ramp_table(grid) * self.thetas(mu)

    def assemble(self, mu, t: float) -> np.ndarray:
        if not self.components:
            return np.zeros(self.dim)
        return self.vectors() @ self.coefficients(mu, t)


@dataclass
class DirichletLifting:
    """Constrained DoF set and the lifting vector carrying their prescribed values."""

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dofs = np.asarray(self.dofs, dtype=int)
        self.values = np.asarray(self.values, dtype=float)


def constrain_matrix(mat: sp.spmatrix, dofs: np.ndarray, diagonal: float) -> sp.csr_matrix:
    """Zero the given rows and columns and put `diagonal` on their diagonal,
    by masking the data of the canonical CSR form. A nonzero `diagonal` needs
    the constrained diagonal entries stored, as every assembled matrix has them."""
    out = sp.csr_matrix(mat, copy=True)
    out.sum_duplicates()
    fixed = np.zeros(out.shape[0], dtype=bool)
    fixed[dofs] = True
    rows = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
    out.data[fixed[rows] | fixed[out.indices]] = 0.0
    on_diagonal = fixed[rows] & (rows == out.indices)
    if diagonal != 0.0 and np.count_nonzero(on_diagonal) < np.count_nonzero(fixed):
        raise ValueError("a constrained diagonal entry is not stored")
    out.data[on_diagonal] = diagonal
    out.eliminate_zeros()
    return out


def apply_dirichlet_shift(
    op: AffineOperator, rhs: AffineFunctional, lifting: DirichletLifting
) -> tuple[AffineOperator, AffineFunctional]:
    """Shift the problem onto the homogeneous subspace of the constrained DoFs.

    Each operator component is eliminated (unit diagonal on constrained DoFs);
    for a nonzero lifting g, every component contributes -A_q g to the
    functional with the same theta_q, so the affine structure is preserved.
    """
    n = op.dim
    dofs = lifting.dofs
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise ValueError("constrained DoF index out of range")
    free_mask = np.ones(n, dtype=bool)
    free_mask[dofs] = False

    new_rhs = []
    for c in rhs.components:
        vec = c.vector.copy()
        vec[dofs] = 0.0
        new_rhs.append(replace(c, vector=vec))

    lift_nonzero = np.any(lifting.values != 0.0)
    new_ops = []
    for c in op.components:
        if lift_nonzero:
            vec = -(c.matrix @ lifting.values)
            vec[dofs] = 0.0
            new_rhs.append(FunctionalComponent(vec, parameter=c.parameter, name=f"lift:{c.name}"))
        new_ops.append(replace(c, matrix=constrain_matrix(c.matrix, dofs, 1.0)))

    return AffineOperator(tuple(new_ops)), AffineFunctional(tuple(new_rhs), n)


class EnergyFactor:
    """P G P^T = L D L^T of an SPD Gram G from one sparse LU in symmetric mode,
    kept as plain arrays with G itself: the order of P, the unit lower L and
    D^-1/2. ``whiten`` maps functionals F to D^-1/2 L^-1 P F, whose Euclidean
    inner products are F^T G^-1 F: a dual norm is a Euclidean norm of them.
    ``whiten_states`` maps states u to R u with R = D^1/2 L^T P, whose
    Euclidean inner products are u^T G v: an energy-orthonormal set is a
    Euclidean-orthonormal one of them, and ``unwhiten_states`` maps it back."""

    def __init__(self, gram):
        self.gram = gram
        try:
            lu = spla.splu(gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise NumericalError("energy product not SPD") from exc
        pivots = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0.0)):
            raise NumericalError("energy product not SPD")
        self.order = np.argsort(lu.perm_r)  # (P F)[i] = F[order[i]]
        self.lower = lu.L  # CSC; whiten_states multiplies by its CSR view lower.T
        self.inv_sqrt_pivots = 1.0 / np.sqrt(pivots)

    @functools.cached_property
    def _upper(self) -> sp.csr_matrix:
        """A private CSR copy of L^T, whose transpose is a CSC view of L: the
        triangular solves may overwrite it (they sort its indices and rewrite
        its unit diagonal in place) instead of copying the whole factor on
        every call."""
        return sp.csr_matrix(self.lower.T, copy=True)

    def whiten(self, functionals: np.ndarray) -> np.ndarray:
        """D^-1/2 L^-1 P F for one functional or a block of them (columns)."""
        solved = spla.spsolve_triangular(self._upper.T, functionals[self.order], lower=True, overwrite_A=True,
                                         unit_diagonal=True)
        return solved * self._pivot_scale(solved)

    def _pivot_scale(self, x: np.ndarray) -> np.ndarray:
        return self.inv_sqrt_pivots if x.ndim == 1 else self.inv_sqrt_pivots[:, None]

    def whiten_states(self, states: np.ndarray) -> np.ndarray:
        """R u = D^1/2 L^T P u for one state or a block of them (columns), as
        a new array: one product with the CSR view of L^T."""
        return (self.lower.T @ states[self.order]) / self._pivot_scale(states)

    def unwhiten_states(self, whitened: np.ndarray) -> np.ndarray:
        """R^-1 w = P^T L^-T D^-1/2 w: one unit upper-triangular solve."""
        solved = spla.spsolve_triangular(self._upper, whitened * self._pivot_scale(whitened), lower=False,
                                         overwrite_A=True, unit_diagonal=True)
        states = np.empty_like(solved)
        states[self.order] = solved
        return states


def energy_product(op: AffineOperator, mu_bar) -> EnergyFactor:
    """Factor of the energy inner product's Gram matrix (``.gram``): the
    symmetric operator part at mu_bar. Factoring it verifies SPD; failure raises.
    """
    acc = None
    for theta, c in zip(op.thetas(mu_bar).tolist(), op.components):
        if not c.symmetric:
            continue
        term = theta * c.matrix
        acc = term if acc is None else acc + term
    if acc is None:
        raise ValueError("operator has no symmetric components")
    return EnergyFactor(acc.tocsr())
