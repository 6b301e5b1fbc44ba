"""Full order model: implicit Euler time stepping of the assembled parabolic system."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from . import blas
from .core import NumericalError, OutputSignal, ParameterBox, TimeGrid, Trajectory
from .fem import AffineFunctional, AffineOperator, DirichletLifting, EnergyFactor, StructuredGrid


@dataclass(frozen=True)
class FomProblem:
    """The assembled (already shifted) parabolic problem.

    The state lives on the homogeneous subspace: constrained DoFs stay zero,
    the physical solution is state + lifting. The output vector is the
    constrained functional; `output_shift` carries s(lifting). `energy` is
    the one factor of the Gram: the builder's checked one, else made here.
    """

    operator: AffineOperator
    mass: sp.csr_matrix
    rhs: AffineFunctional
    output: np.ndarray
    time_grid: TimeGrid
    gram: sp.csr_matrix
    mu_bar: np.ndarray
    box: ParameterBox
    initial: np.ndarray
    output_shift: float = 0.0
    lifting: Optional[DirichletLifting] = None
    grid: Optional[StructuredGrid] = None
    parameter_names: tuple = ()
    energy: Optional[EnergyFactor] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.energy is None or self.energy.gram is not self.gram:
            object.__setattr__(self, "energy", EnergyFactor(self.gram))

    @property
    def dim(self) -> int:
        return self.operator.dim

    @functools.cached_property
    def steps(self) -> "BandedSteps":
        """The band layout of the step system M + dt A(mu), worked out on the
        first solve and kept for every later one."""
        return BandedSteps(self)

    def initial_vector(self) -> np.ndarray:
        return np.array(self.initial, dtype=float)


STEP_CHUNK = 64  # time steps whose forcing is formed, and whose states are checked, together


class BandedSteps:
    """M + dt A(mu) in LAPACK's banded storage, in a band-reducing node order.

    On a structured grid the nodes are numbered along the shorter axis first
    (half-bandwidth min(nx, ny) + 2), otherwise by reverse Cuthill-McKee on
    the sparsity pattern. ``layout`` maps the weights [1, dt theta_q(mu)] of
    M and of each operator component to the storage of their sum, so a
    factorization assembles no sparse matrix."""

    def __init__(self, problem: FomProblem):
        matrices = [problem.mass] + [c.matrix for c in problem.operator.components]
        grid = problem.grid
        if grid is not None and grid.num_nodes == problem.dim:
            self.order = grid.band_order()
        else:
            pattern = sum(abs(m) for m in matrices)
            self.order = csgraph.reverse_cuthill_mckee((pattern + pattern.T).tocsr(), symmetric_mode=True)
        self.rank = np.argsort(self.order)  # DoF -> band position
        entries = [m.tocoo() for m in matrices]
        rows = np.concatenate([self.rank[e.row] for e in entries])
        cols = np.concatenate([self.rank[e.col] for e in entries])
        self.lower = int(np.max(rows - cols, initial=0))
        self.upper = int(np.max(cols - rows, initial=0))
        self.height = 2 * self.lower + self.upper + 1  # LAPACK's ldab: room for the pivoting fill
        dim = problem.dim
        self.layout = sp.csc_matrix(
            (np.concatenate([e.data for e in entries]),
             (cols * self.height + self.lower + self.upper + rows - cols,
              np.repeat(np.arange(len(entries)), [e.nnz for e in entries]))),
            shape=(self.height * dim, len(entries)),
        )
        self.mass = problem.mass[self.order][:, self.order].tocsr()
        self.rhs_rows = np.ascontiguousarray(problem.rhs.vectors()[self.order].T)  # Q_l x N

    def factor(self, weights: np.ndarray) -> tuple:
        """Banded LU, with partial pivoting, of the weighted sum of M and the
        operator components; raises NumericalError if it is singular."""
        storage = (self.layout @ weights).reshape(-1, self.height).T  # Fortran order, no copy
        lu, pivots, info = lapack.dgbtrf(storage, self.lower, self.upper, overwrite_ab=True)
        if info != 0:
            raise NumericalError("FOM step singular")
        return lu, pivots


class FullOrderModel:
    """Reference model: one banded LU factorization per parameter, reused over all steps."""

    def __init__(self, problem: FomProblem):
        self.problem = problem

    def iter_state(self, mu):
        """Yield the DoF vector at each time node in order, without storing the
        past. The steps run in the band order of ``FomProblem.steps``; their
        forcing is formed, and their states checked finite before any is
        yielded, STEP_CHUNK steps at a time."""
        p = self.problem
        mu = p.box.validate(mu)
        dt = p.time_grid.dt
        band = p.steps
        lu, pivots = band.factor(np.concatenate([[1.0], dt * p.operator.thetas(mu)]))
        table = dt * p.rhs.coefficient_table(mu, p.time_grid)
        u = p.initial_vector()
        yield u
        u = u[band.order]
        for start in range(1, table.shape[0], STEP_CHUNK):
            states = table[start : start + STEP_CHUNK] @ band.rhs_rows  # the forcing, then the states
            for k in range(states.shape[0]):
                b = band.mass @ u
                b += states[k]
                states[k], _ = lapack.dgbtrs(lu, band.lower, band.upper, b, pivots, overwrite_b=True)
                u = states[k]
            if not np.all(np.isfinite(states)):
                raise NumericalError("FOM step singular")
            yield from states[:, band.rank]

    @blas.scope()
    def eval_state(self, mu) -> Trajectory:
        rows = list(self.iter_state(mu))
        return Trajectory(self.problem.time_grid, np.array(rows))

    def output_of(self, traj: Trajectory) -> OutputSignal:
        p = self.problem
        return OutputSignal(traj.grid, traj.coeffs @ p.output + p.output_shift)

    def eval_output(self, mu) -> OutputSignal:
        return self.output_of(self.eval_state(mu))
