"""Certified reduced-basis ROM: Galerkin-projected time stepping plus the
offline/online-decomposed residual a posteriori error estimators.

The estimator machinery certifies *any* trajectory of reduced coefficients
(whose first row represents the true initial datum), not just the Galerkin
solution; that hook is what the learned state predictors plug into.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import CertifiedModel, Generator, NumericalError, OutputSignal, Trajectory
from .fem import AffineFunctional
from .fom import FomProblem

TEMPORAL_TOL = 1e-12  # relative Frobenius tail the learned samples' temporal basis leaves out


class RieszSolver:
    """Riesz representatives and dual norms w.r.t. one SPD Gram matrix."""

    def __init__(self, gram):
        try:
            self._solver = spla.splu(gram.tocsc())
        except RuntimeError as exc:
            raise NumericalError("Gram matrix factorization failed") from exc

    def solve(self, functional: np.ndarray) -> np.ndarray:
        if functional.ndim == 1:
            return self._solver.solve(functional)
        return np.column_stack([self._solver.solve(functional[:, j]) for j in range(functional.shape[1])])

    def dual_norm(self, functional: np.ndarray) -> float:
        rep = self.solve(functional)
        return float(np.sqrt(max(functional @ rep, 0.0)))


def orthonormalize(vectors, gram, existing: Optional[np.ndarray] = None, drop_tol: float = 1e-10):
    """Two-pass Gram-Schmidt of the columns w.r.t. the Gram inner product,
    against an optional existing orthonormal set.

    Returns the new orthonormal columns and the coordinates of every input
    column in [existing | new columns], accumulated over both projection
    passes. A column whose post-projection norm falls below drop_tol times
    its original norm adds no direction and keeps only its projection
    coordinates (a zero column has zero coordinates).
    """
    cols = np.asarray(vectors, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    num_old = 0 if existing is None else existing.shape[1]
    base = existing if existing is not None and existing.size else None
    coords = np.zeros((num_old + cols.shape[1], cols.shape[1]))
    kept = np.empty(cols.shape)  # the first `count` columns are the new directions
    count = 0
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        orig = math.sqrt(max(v @ (gram @ v), 0.0))
        if orig == 0.0:
            continue
        blocks = [(0, base)] if base is not None else []
        if count:
            blocks.append((num_old, kept[:, :count]))
        for _ in range(2):
            for offset, block in blocks:
                c = block.T @ (gram @ v)
                v = v - block @ c
                coords[offset : offset + c.size, j] += c
        norm = math.sqrt(max(v @ (gram @ v), 0.0))
        if norm < drop_tol * orig:
            continue
        coords[num_old + count, j] = norm
        kept[:, count] = v / norm
        count += 1
    return np.ascontiguousarray(kept[:, :count]), coords[: num_old + count]


@dataclass(frozen=True)
class ReducedBasis:
    """Column matrix of Gram-orthonormal basis vectors."""

    matrix: np.ndarray  # N_h x N_rb
    gram: object  # sparse SPD Gram matrix of the underlying space

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def project_coeffs(self, vectors: np.ndarray) -> np.ndarray:
        """Coefficients of the Gram-orthogonal projection onto the span."""
        return self.matrix.T @ (self.gram @ vectors)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """Full-order rows from reduced rows: (K x N) -> (K x N_h)."""
        return coeffs @ self.matrix.T

    def orthonormality_defect(self) -> float:
        if self.dim == 0:
            return 0.0
        eye = self.matrix.T @ (self.gram @ self.matrix)
        return float(np.max(np.abs(eye - np.eye(self.dim))))


@dataclass(frozen=True)
class EstimatorData:
    """Online data of the residual estimator.

    ``factor`` holds, row-wise per member of the residual component family
    [rhs components | M basis columns | A_q basis columns], the coordinates of
    its Riesz representative in an orthonormal basis of the representative
    range; a residual dual norm is the Euclidean norm of gamma @ factor.
    """

    factor: np.ndarray  # family size x range size
    num_rhs: int
    num_basis: int
    num_operator: int
    output_dual_norm: float

    @property
    def family_size(self) -> int:
        return self.num_rhs + self.num_basis * (1 + self.num_operator)


class RbRom:
    """Certified reduced-order model over one reduced basis (immutable)."""

    def __init__(
        self,
        basis: ReducedBasis,
        time_grid,
        mass_hat: np.ndarray,
        operator_hats: list,
        operator_thetas: list,
        rhs_hats: np.ndarray,
        rhs: AffineFunctional,
        output_hat: np.ndarray,
        output_shift: float,
        init_coeffs: np.ndarray,
        init_defect: float,
        estimator: EstimatorData,
        alpha_data: list,
        box,
        parameter_names=(),
    ):
        self.basis = basis
        self.time_grid = time_grid
        self.mass_hat = mass_hat
        self.operator_hats = operator_hats
        self.operator_thetas = operator_thetas
        self.rhs_hats = rhs_hats  # N_rb x Q_l
        self.rhs = rhs  # full-order functional: its coefficient table drives both online kernels
        self.output_hat = output_hat
        self.output_shift = output_shift
        self.init_coeffs = init_coeffs
        self.init_defect = init_defect
        self.estimator = estimator
        self.alpha_data = alpha_data  # [(theta, theta(mu_bar))] of symmetric components
        self.box = box
        self.parameter_names = tuple(parameter_names)

    @property
    def dim(self) -> int:
        return self.basis.dim

    # -- coercivity -------------------------------------------------------
    def alpha_lb(self, mu) -> float:
        ratios = []
        for theta, theta_bar in self.alpha_data:
            tq = theta(mu)
            if tq <= 0.0 or theta_bar <= 0.0:
                raise ValueError("min-theta inapplicable")
            ratios.append(tq / theta_bar)
        return float(min(ratios))

    # -- reduced solves ----------------------------------------------------
    def eval_state(self, mu) -> Trajectory:
        """Implicit Euler in propagator form: with S = M + dt A(mu) factored
        once, c_k = P c_{k-1} + g_k, P = S^-1 M and g_k = dt S^-1 l(mu, t_k)."""
        mu = self.box.validate(mu)
        K = self.time_grid.num_nodes
        n = self.dim
        if n == 0:
            return Trajectory(self.time_grid, np.zeros((K, 0)))
        dt = self.time_grid.dt
        system = self.mass_hat + dt * sum(
            theta(mu) * mat for theta, mat in zip(self.operator_thetas, self.operator_hats)
        )
        solved = sla.lu_solve(sla.lu_factor(system), np.hstack([self.mass_hat, self.rhs_hats]))
        propagator_t = np.ascontiguousarray(solved[:, :n].T)
        coeffs = np.empty((K, n))
        coeffs[0] = self.init_coeffs
        coeffs[1:] = (dt * self.rhs.coefficient_table(mu, self.time_grid)[1:]) @ solved[:, n:].T
        for k in range(1, K):
            coeffs[k] += coeffs[k - 1] @ propagator_t
        if not np.all(np.isfinite(coeffs)):
            raise NumericalError("reduced system singular")
        return Trajectory(self.time_grid, coeffs)

    def output_of(self, traj: Trajectory) -> OutputSignal:
        if traj.dim != self.dim:
            raise ValueError("trajectory dimension does not match the reduced basis")
        values = traj.coeffs @ self.output_hat + self.output_shift
        return OutputSignal(traj.grid, values)

    def eval_output(self, mu) -> OutputSignal:
        return self.output_of(self.eval_state(mu))

    def reconstruct(self, traj: Trajectory) -> Trajectory:
        return Trajectory(traj.grid, self.basis.reconstruct(traj.coeffs))

    # -- estimators ---------------------------------------------------------
    def residual_dual_norms(self, traj: Trajectory, mu) -> np.ndarray:
        """Dual norms of the K-1 implicit Euler step defects of the trajectory.

        Step k has the defect coordinates [l(mu, t_k) | -dc_k / dt | -c_k] @
        [F_L; F_M; F_A(mu)], where the operator rows are collapsed first,
        F_A(mu) = sum_q theta_q(mu) F_{A_q}. The step difference dc_k is formed
        before the product: splitting it would cancel two large products."""
        est = self.estimator
        if traj.dim != est.num_basis:
            raise ValueError("trajectory dimension does not match the estimator data")
        n, ql, factor = est.num_basis, est.num_rhs, est.factor
        c = traj.coeffs
        thetas = np.array([theta(mu) for theta in self.operator_thetas])
        operator_rows = factor[ql + n :].reshape(est.num_operator, n, factor.shape[1])
        rows = np.vstack([factor[: ql + n], np.tensordot(thetas, operator_rows, axes=1)])
        gammas = np.hstack([
            self.rhs.coefficient_table(mu, self.time_grid)[1:],
            -(c[1:] - c[:-1]) / self.time_grid.dt,
            -c[1:],
        ])
        prods = gammas @ rows
        return np.sqrt(np.maximum(np.einsum("kd,kd->k", prods, prods), 0.0))

    def _check_initial(self):
        scale = max(1.0, float(np.linalg.norm(self.init_coeffs)))
        if self.init_defect > 1e-8 * scale:
            raise NumericalError("initial datum is not represented in the reduced space")

    def est_state_for(self, traj: Trajectory, mu) -> float:
        """Upper bound of the state error of any reduced trajectory whose first
        row reproduces the initial datum."""
        mu = self.box.validate(mu)
        self._check_initial()
        res = self.residual_dual_norms(traj, mu)
        dt = self.time_grid.dt
        return float(np.sqrt(dt * np.sum(res**2)) / self.alpha_lb(mu))

    def est_output_for(self, traj: Trajectory, mu) -> float:
        return self.estimator.output_dual_norm * self.est_state_for(traj, mu)

    def est_state(self, mu) -> float:
        return self.est_state_for(self.eval_state(mu), mu)

    def est_output(self, mu) -> float:
        return self.est_output_for(self.eval_state(mu), mu)


class EstimatorBuilder:
    """Incrementally maintained coordinate factor of the residual component
    family: each Riesz representative is projected onto a growing orthonormal
    basis of the representative range, so dual norms of residual combinations
    are plain Euclidean norms of coordinate combinations.

    Squared Gram entries never enter; exact cancellations therefore survive
    far below the square root of machine precision, which the
    output-reproduction regime requires (a raw Gram quadratic form bottoms
    out near 1e-8 relative)."""

    def __init__(self, problem: FomProblem):
        self.problem = problem
        self.riesz = RieszSolver(problem.gram)
        self._range = np.zeros((problem.dim, 0))  # G-orthonormal columns
        self._coords = np.zeros((0, 0))  # range size x family size
        self._tags = []
        rhs_vectors = problem.rhs.vectors()
        if rhs_vectors.shape[1]:
            self._append(rhs_vectors, [("L", q) for q in range(rhs_vectors.shape[1])])
        self._num_basis = 0
        self.output_dual_norm = self.riesz.dual_norm(problem.output)

    _DEFLATION = 1e-13

    def _append(self, vectors: np.ndarray, tags: list):
        reps = self.riesz.solve(vectors)
        new, coords = orthonormalize(reps, self.problem.gram, self._range, drop_tol=self._DEFLATION)
        self._range = np.hstack([self._range, new])
        self._coords = np.hstack([np.pad(self._coords, ((0, new.shape[1]), (0, 0))), coords])
        self._tags.extend(tags)

    def add_basis_columns(self, new_columns: np.ndarray):
        if new_columns.size == 0:
            return
        p = self.problem
        start = self._num_basis
        cols = [p.mass @ new_columns]
        tags = [("M", start + j) for j in range(new_columns.shape[1])]
        for q, comp in enumerate(p.operator.components):
            cols.append(comp.matrix @ new_columns)
            tags.extend(("A", q, start + j) for j in range(new_columns.shape[1]))
        self._append(np.hstack(cols), tags)
        self._num_basis += new_columns.shape[1]

    def build(self) -> EstimatorData:
        num_rhs = len(self.problem.rhs.components)
        num_op = len(self.problem.operator.components)
        def rank(tag):
            if tag[0] == "L":
                return (0, tag[1], 0)
            if tag[0] == "M":
                return (1, 0, tag[1])
            return (2, tag[1], tag[2])

        order = sorted(range(len(self._tags)), key=lambda i: rank(self._tags[i]))
        factor = np.ascontiguousarray(self._coords.T[order])
        return EstimatorData(
            factor=factor,
            num_rhs=num_rhs,
            num_basis=self._num_basis,
            num_operator=num_op,
            output_dual_norm=self.output_dual_norm,
        )


def assemble_rb_rom(problem: FomProblem, basis_matrix: np.ndarray, builder: Optional[EstimatorBuilder] = None) -> RbRom:
    """Galerkin-project the problem onto the basis and attach the estimator.

    A persistent ``builder`` makes repeated calls incremental in the expensive
    Riesz/Gram work; without one, the estimator data is assembled from scratch.
    """
    p = problem
    phi = np.asarray(basis_matrix, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != p.dim:
        raise ValueError("basis matrix must be N_h x N_rb")
    if builder is None:
        builder = EstimatorBuilder(p)
        builder.add_basis_columns(phi)
    basis = ReducedBasis(phi, p.gram)

    mass_hat = phi.T @ (p.mass @ phi)
    operator_hats, operator_thetas, alpha_data = [], [], []
    for comp in p.operator.components:
        operator_hats.append(phi.T @ (comp.matrix @ phi))
        operator_thetas.append(comp.theta)
        if comp.symmetric:
            if not comp.positive or comp.theta(p.mu_bar) <= 0.0:
                raise ValueError("min-theta inapplicable")
            alpha_data.append((comp.theta, float(comp.theta(p.mu_bar))))
    if not alpha_data:
        raise ValueError("min-theta inapplicable")

    rhs_vectors = p.rhs.vectors()
    rhs_hats = phi.T @ rhs_vectors if rhs_vectors.shape[1] else np.zeros((phi.shape[1], 0))
    output_hat = phi.T @ p.output

    u0 = p.initial_vector()
    init_coeffs = basis.project_coeffs(u0)
    defect_vec = u0 - phi @ init_coeffs
    init_defect = float(np.sqrt(max(defect_vec @ (p.gram @ defect_vec), 0.0)))

    return RbRom(
        basis=basis,
        time_grid=p.time_grid,
        mass_hat=mass_hat,
        operator_hats=operator_hats,
        operator_thetas=operator_thetas,
        rhs_hats=rhs_hats,
        rhs=p.rhs,
        output_hat=output_hat,
        output_shift=p.output_shift,
        init_coeffs=init_coeffs,
        init_defect=init_defect,
        estimator=builder.build(),
        alpha_data=alpha_data,
        box=p.box,
        parameter_names=p.parameter_names,
    )


class LearnedRom(CertifiedModel):
    """Certified learned ROM: a backend predicts the reduced trajectory
    (``eval_state``), the output operator and the error estimator are the
    underlying RB-ROM's."""

    def __init__(self, rb_rom: RbRom):
        self.rb_rom = rb_rom

    def _trajectory(self, coeffs: np.ndarray) -> Trajectory:
        """Predicted coefficients with the first row replaced by the exact
        reduced initial coefficients, as the estimator requires."""
        if self.rb_rom.dim:
            coeffs = coeffs.copy()
            coeffs[0] = self.rb_rom.init_coeffs
        return Trajectory(self.rb_rom.time_grid, coeffs)

    def eval_output(self, mu) -> OutputSignal:
        return self.rb_rom.output_of(self.eval_state(mu))

    def est_output(self, mu) -> float:
        return self.rb_rom.est_output_for(self.eval_state(mu), mu)

    def est_state(self, mu) -> float:
        return self.rb_rom.est_state_for(self.eval_state(mu), mu)


class LearnedGenerator(Generator):
    """Sample store of the learned backends: (mu, reduced trajectory) pairs
    collected from an RB-ROM, refitted once ``pending_threshold`` store
    changes accumulated since the last fit (or on demand), and carried onto
    nested bases by zero-padding.

    The trajectories share one nested temporal basis T (K x m, orthonormal
    columns), grown in ``extend`` until every stored trajectory C is
    reproduced by T (T^T C) to TEMPORAL_TOL relative in the Frobenius norm.
    Each sample is kept once, as row i of a block that grows by doubling
    (sample i's m x N coordinates T^T C, row-major); backends fit on views
    of it.

    A backend fits in ``precompute`` when ``_due`` says so and reports it with
    ``_fitted``; it pads its fitted model in ``_pad_model`` whenever the rows
    are padded (new temporal modes in ``extend``, new basis columns in
    ``prolong``) and drops it in ``_forget_model``. ``_appended_only`` tells
    whether every sample since the last fit was appended, none replaced.
    """

    def __init__(self, rb_rom: RbRom, pending_threshold: int):
        self.rb_rom = rb_rom
        self.pending_threshold = max(1, int(pending_threshold))
        self._mus: list = []
        self._time_basis = np.zeros((rb_rom.time_grid.num_nodes, 0))
        self._rows = np.empty((0, 0))  # the first len(_mus) rows are live
        self._pending = 0
        self._appended_only = True
        self.trainings = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_rows"] = self._targets()  # the live rows, not the spare capacity
        return state

    @property
    def samples(self) -> list:
        """(mu, m x N temporal coordinates) pairs, as read-only views of the
        store; ``time_basis @ coordinates`` is the stored trajectory."""
        views = self._targets().reshape(len(self._mus), *self._coordinate_shape)
        views.flags.writeable = False
        return list(zip(self._mus, views))

    @property
    def time_basis(self) -> np.ndarray:
        """The shared temporal basis T (K x m), read-only."""
        view = self._time_basis.view()
        view.flags.writeable = False
        return view

    @property
    def training_parameters(self) -> list:
        return list(self._mus)

    @property
    def _coordinate_shape(self) -> tuple:
        return (self._time_basis.shape[1], self.rb_rom.dim)

    def _targets(self) -> np.ndarray:
        return self._rows[: len(self._mus)]

    def extend(self, mu, trajectory: Optional[Trajectory] = None) -> None:
        """Store the trajectory at mu (the RB solution by default); a stored
        sample at the same mu is replaced."""
        mu = self.rb_rom.box.validate(mu)
        if trajectory is None:
            trajectory = self.rb_rom.eval_state(mu)
        coeffs = trajectory.coeffs
        if coeffs.shape != (self.rb_rom.time_grid.num_nodes, self.rb_rom.dim):
            raise ValueError("trajectory does not match the reduced basis and time grid")
        self._grow_time_basis(coeffs)
        n = len(self._mus)
        i = next((j for j, old_mu in enumerate(self._mus) if np.array_equal(old_mu, mu)), n)
        if i < n:
            self._appended_only = False
        else:
            self._rows = _reserve_rows(self._rows, n, n + 1, math.prod(self._coordinate_shape))
            self._mus.append(mu.copy())
        self._rows[i] = (self._time_basis.T @ coeffs).ravel()
        self._pending += 1

    def _grow_time_basis(self, coeffs: np.ndarray):
        """Append the leading left singular vectors of the part of coeffs that
        T misses, until the remainder is at most TEMPORAL_TOL * ||coeffs||_F."""
        basis = self._time_basis
        missed = coeffs - basis @ (basis.T @ coeffs)
        bound = TEMPORAL_TOL * np.linalg.norm(coeffs)
        if np.linalg.norm(missed) <= bound:
            return
        vectors, values, _ = np.linalg.svd(missed, full_matrices=False)
        tails = np.sqrt(np.cumsum(values[::-1] ** 2))[::-1]  # tails[r]: norm of values[r:]
        identity = sp.identity(basis.shape[0], format="csr")
        new, _ = orthonormalize(vectors[:, : int(np.sum(tails > bound))], identity, existing=basis)
        old_shape = self._coordinate_shape
        self._time_basis = np.hstack([basis, new])
        self._pad(old_shape, self._coordinate_shape)

    def _pad(self, old_shape: tuple, new_shape: tuple):
        """Zero-pad the live rows, and the fitted model through ``_pad_model``,
        from old_shape to new_shape coordinates. The rows are copied even when
        the shapes agree, so a ``prolong`` copy never writes into the block of
        the generator it came from."""
        self._rows = _pad_flat(self._targets(), old_shape, new_shape)
        if new_shape != old_shape:
            self._pad_model(old_shape, new_shape)

    def discard(self, keep) -> int:
        """Keep only the samples whose flag in ``keep`` is set; any removal
        forgets the fitted model, so the next fit is cold. Returns the number
        of samples removed. The temporal basis is kept."""
        keep = list(keep)
        if len(keep) != len(self._mus):
            raise ValueError("need one keep flag per stored sample")
        kept = [i for i, k in enumerate(keep) if k]
        dropped = len(keep) - len(kept)
        if dropped:
            self._rows[: len(kept)] = self._rows[kept]
            self._mus = [self._mus[i] for i in kept]
            self._pending = max(self._pending, 1) if kept else 0
            self._forget_model()
        return dropped

    @abc.abstractmethod
    def _forget_model(self): ...

    @abc.abstractmethod
    def _pad_model(self, old_shape: tuple, new_shape: tuple):
        """Zero-pad the fitted model's m x N coordinate targets to new_shape,
        so that its predictions keep their old coordinates."""

    def _due(self, force: bool) -> bool:
        """Whether precompute must fit: the store changed since the last fit,
        and either often enough or the caller insists."""
        if not self._mus:
            raise ValueError("empty training set")
        return self._pending > 0 and (force or self._pending >= self.pending_threshold)

    def _fitted(self):
        self._pending = 0
        self._appended_only = True
        self.trainings += 1

    def prolong(self, new_rb_rom: RbRom):
        """Copy of the generator over an extended (nested) reduced basis, with
        the stored coordinates and the fitted model zero-padded in the new
        basis columns."""
        old_n, new_n = self.rb_rom.dim, new_rb_rom.dim
        if new_n < old_n or not np.allclose(
            new_rb_rom.basis.matrix[:, :old_n], self.rb_rom.basis.matrix, atol=1e-12
        ):
            raise ValueError("prolongation requires a nested reduced basis")
        out = copy.copy(self)
        out.rb_rom = new_rb_rom
        out._mus = list(self._mus)
        out._pad(self._coordinate_shape, out._coordinate_shape)
        return out


def _reserve_rows(rows: np.ndarray, used: int, needed: int, width: int) -> np.ndarray:
    """``rows`` when it has room for ``needed`` rows of ``width``, else a block
    of at least twice the ``used`` rows that holds a copy of them."""
    if rows.shape[1] == width and rows.shape[0] >= needed:
        return rows
    grown = np.empty((max(needed, 2 * used), width))
    if used:
        grown[:used] = rows[:used]
    return grown


def _pad_flat(rows: np.ndarray, old_shape: tuple, new_shape: tuple) -> np.ndarray:
    """Zero-pad row-major flattened (m x N) row vectors to (m' x N'), m' >= m
    and N' >= N, keeping every old entry at its (i, j) position."""
    (m, n), count = old_shape, rows.shape[0]
    out = np.zeros((count, *new_shape))
    out[:, :m, :n] = rows.reshape(count, m, n)
    return out.reshape(count, math.prod(new_shape))
