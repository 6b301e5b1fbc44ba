"""Full order model: implicit Euler time stepping of the assembled parabolic system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

    def initial_vector(self) -> np.ndarray:
        return np.array(self.initial, dtype=float)

    def lift(self, traj: Trajectory) -> Trajectory:
        """Add the Dirichlet lifting back onto a homogeneous-space trajectory."""
        if self.lifting is None:
            return traj
        return Trajectory(traj.grid, traj.coeffs + self.lifting.values[None, :])


class FullOrderModel:
    """Reference model: one sparse factorization per parameter, reused over all steps."""

    def __init__(self, problem: FomProblem):
        self.problem = problem

    def iter_state(self, mu):
        """Yield the DoF vector at each time node in order, without storing the past."""
        p = self.problem
        mu = p.box.validate(mu)
        dt = p.time_grid.dt
        system = (p.mass + dt * p.operator.assemble(mu)).tocsc()
        try:
            solver = spla.splu(system)
        except RuntimeError as exc:
            raise NumericalError("FOM step singular") from exc
        rhs_vectors = p.rhs.vectors()
        rhs_steps = p.rhs.coefficient_table(mu, p.time_grid)[1:]
        u = p.initial_vector()
        yield u
        for coeffs in rhs_steps:
            b = p.mass @ u
            if rhs_vectors.shape[1]:
                b = b + dt * (rhs_vectors @ coeffs)
            u = solver.solve(b)
            if not np.all(np.isfinite(u)):
                raise NumericalError("FOM step singular")
            yield u

    @blas.scope()
    def eval_state(self, mu) -> Trajectory:
        rows = list(self.iter_state(mu))
        return Trajectory(self.problem.time_grid, np.array(rows))

    def output_of(self, traj: Trajectory) -> OutputSignal:
        p = self.problem
        return OutputSignal(traj.grid, traj.coeffs @ p.output + p.output_shift)

    def eval_output(self, mu) -> OutputSignal:
        return self.output_of(self.eval_state(mu))
