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

from .core import NumericalError, OutputSignal, Trajectory, check_count
from .fem import AffineFunctional, AffineOperator
from .fom import FomProblem

TEMPORAL_TOL = 1e-12  # relative Frobenius tail the learned samples' temporal basis leaves out
# largest share of a temporal-coordinate estimate its tail term may have; the
# estimate then exceeds the step-by-step one by at most about twice that share
TAIL_SHARE = 1e-3


def orthonormalize(vectors, existing: Optional[np.ndarray] = None, drop_tol: float = 1e-10):
    """Two-pass Euclidean Gram-Schmidt of the columns, against an optional
    existing orthonormal set. (Energy-orthonormal sets are grown in the
    whitened coordinates of ``EnergyFactor.whiten_states``.)

    Each column is projected twice against [existing | the new directions of
    the columns before it]. The first pass against the existing set does not
    depend on the other columns and runs for the whole batch at once, one
    matrix product; the rest runs column by column, since the second pass
    must act on what the batch's own directions left over. Returns the new
    orthonormal columns and the coordinates of every input column in
    [existing | new columns], accumulated over both passes. A column whose
    post-projection norm falls below drop_tol times its original norm adds
    no direction and keeps only its projection coordinates (a zero column
    has zero coordinates).
    """
    cols = np.array(vectors, dtype=float)  # a copy, projected in place
    if cols.ndim == 1:
        cols = cols[:, None]
    num_old = 0 if existing is None else existing.shape[1]
    coords = np.zeros((num_old + cols.shape[1], cols.shape[1]))
    origs = np.sqrt(np.einsum("ij,ij->j", cols, cols))
    if num_old:
        coords[:num_old] = existing.T @ cols
        cols -= existing @ coords[:num_old]
    kept = np.empty(cols.shape)  # the first `count` columns are the new directions
    count = 0
    for j, orig in enumerate(origs.tolist()):
        if orig == 0.0:
            continue
        v = cols[:, j]
        blocks = [(num_old, kept[:, :count])] if count else []
        if num_old:
            blocks = blocks + [(0, existing)] + blocks  # the first pass's rest, the second pass
        else:
            blocks = blocks * 2
        for offset, block in blocks:
            c = block.T @ v
            v = v - block @ c
            coords[offset : offset + c.size, j] += c
        norm = math.sqrt(v @ v)
        if norm < drop_tol * orig:
            continue
        coords[num_old + count, j] = norm
        kept[:, count] = v / norm
        count += 1
    return np.ascontiguousarray(kept[:, :count]), coords[: num_old + count]


@dataclass(frozen=True)
class EstimatorData:
    """Online data of the residual estimator.

    Each member of the residual component family has a row of coordinates of
    its whitened form (see EnergyFactor) in an orthonormal basis of the
    whitened range (r directions), kept by block: the rhs components F_L
    (Q_l x r), the mass matrix on the basis columns F_M (n x r), and each
    operator component on the basis columns F_A (Q x n x r). A residual dual
    norm is the Euclidean norm of gamma @ [F_L; F_M; F_A].
    """

    rhs_rows: np.ndarray
    mass_rows: np.ndarray
    operator_rows: np.ndarray
    output_dual_norm: float

    @property
    def factor(self) -> np.ndarray:
        """All rows, [F_L; F_M; F_A]: family size x range size."""
        return np.vstack([self.rhs_rows, self.mass_rows, *self.operator_rows])


class RbRom:
    """Certified reduced-order model over one reduced basis (immutable)."""

    def __init__(
        self,
        basis: np.ndarray,
        time_grid,
        mass_hat: np.ndarray,
        operator_hats: list,
        operator: AffineOperator,
        rhs_hats: np.ndarray,
        rhs: AffineFunctional,
        output_hat: np.ndarray,
        output_shift: float,
        init_coeffs: np.ndarray,
        init_defect: float,
        estimator: EstimatorData,
        theta_bar: np.ndarray,
        box,
    ):
        self.basis = basis  # N_h x n, Gram-orthonormal columns
        self.time_grid = time_grid
        self.mass_hat = mass_hat
        self.operator_hats = operator_hats
        self.operator = operator  # full-order operator: its thetas weight the reduced ones
        self.rhs_hats = rhs_hats  # N_rb x Q_l
        self.rhs = rhs  # full-order functional: its coefficient table drives both online kernels
        self.output_hat = output_hat
        self.output_shift = output_shift
        self.init_coeffs = init_coeffs
        self.init_defect = init_defect
        self.estimator = estimator
        self._symmetric = np.array([c.symmetric for c in operator.components])
        self.theta_bar = theta_bar  # theta_q(mu_bar) > 0 of the symmetric components
        self.box = box

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    # -- coercivity -------------------------------------------------------
    def alpha_lb(self, mu) -> float:
        ratios = (self.operator.thetas(mu)[self._symmetric] / self.theta_bar).tolist()
        if min(ratios) <= 0.0:  # theta_bar > 0: a ratio <= 0 is a theta_q(mu) <= 0
            raise ValueError("min-theta inapplicable")
        return min(ratios)

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
            theta * mat for theta, mat in zip(self.operator.thetas(mu).tolist(), self.operator_hats)
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
        """Full-order rows from reduced rows: (K x n) -> (K x N_h)."""
        return Trajectory(traj.grid, traj.coeffs @ self.basis.T)

    # -- estimators ---------------------------------------------------------
    def _residual_rows(self, traj: Trajectory, mu) -> tuple:
        """(F_L, F_M, F_A(mu)) for a trajectory of the estimator's dimension,
        the operator rows collapsed first, F_A(mu) = sum_q theta_q(mu) F_{A_q}."""
        est = self.estimator
        if traj.dim != est.mass_rows.shape[0]:
            raise ValueError("trajectory dimension does not match the estimator data")
        return est.rhs_rows, est.mass_rows, np.tensordot(self.operator.thetas(mu), est.operator_rows, axes=1)

    def residual_dual_norms(self, traj: Trajectory, mu) -> np.ndarray:
        """Dual norms of the K-1 implicit Euler step defects of the trajectory.

        Step k has the defect coordinates [l(mu, t_k) | -dc_k / dt | -c_k] @
        [F_L; F_M; F_A(mu)]. The step difference dc_k is formed before the
        product: splitting it would cancel two large products."""
        c = traj.coeffs
        rows = np.vstack(self._residual_rows(traj, mu))
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

    def _temporal_residual_norm(self, traj: "SpannedTrajectory", mu) -> tuple:
        """sqrt(sum_k ||r_k||^2) of the step defects of a trajectory given in
        temporal coordinates, as two terms whose sum bounds it: the exact norm
        of the part in span [T | e_0], ||R_B Y||_F (see TemporalBasis), and a
        bound on the defects of the tail E,
        ||DE||_F ||F_M||_F + ||E_1||_F ||F_A(mu)||_F."""
        rhs_rows, mass_rows, operator_rows = self._residual_rows(traj, mu)
        coords = traj.coordinates
        stacked = np.vstack([
            self.rhs.thetas(mu)[:, None] * rhs_rows,
            coords @ mass_rows,
            traj.head[None, :] @ mass_rows,
            coords @ operator_rows,
        ])
        norm = float(np.linalg.norm(traj.temporal.r_factor() @ stacked))
        if traj.tail is None:
            return norm, 0.0
        tail = traj.tail
        return norm, float(
            np.linalg.norm(np.diff(tail, axis=0)) / self.time_grid.dt * np.linalg.norm(mass_rows)
            + np.linalg.norm(tail[1:]) * np.linalg.norm(operator_rows)
        )

    def _residual_square_sum(self, traj: Trajectory, mu, temporal: Optional["TemporalBasis"]) -> float:
        """sum_k ||r_k||^2 (or a bound on it), in the coordinates of the
        temporal basis when one is given, its time-only block has fewer
        columns than there are steps, and the trajectory's tail outside
        span [T | e_0] is at most TEMPORAL_TOL relative, with a bound at most
        TAIL_SHARE of the rest; step by step otherwise. Near an exact
        reproduction the tail's own defects can match the whole residual:
        there the step-by-step norm is the sharper one."""
        if temporal is not None:
            if temporal.saves_work():
                spanned = temporal.project(traj)
                tail = spanned.tail
                if tail is None or np.linalg.norm(tail) <= TEMPORAL_TOL * np.linalg.norm(spanned.coeffs):
                    norm, tail_term = self._temporal_residual_norm(spanned, mu)
                    if tail_term <= TAIL_SHARE * norm:
                        temporal.counts["temporal"] += 1
                        return (norm + tail_term) ** 2
            temporal.counts["k_step"] += 1
        return np.sum(self.residual_dual_norms(traj, mu) ** 2)

    def est_state_for(self, traj: Trajectory, mu, temporal: Optional["TemporalBasis"] = None) -> float:
        """Upper bound of the state error of any reduced trajectory whose first
        row reproduces the initial datum; ``temporal`` offers a temporal basis
        in whose coordinates the residual may be evaluated."""
        mu = self.box.validate(mu)
        self._check_initial()
        dt = self.time_grid.dt
        return float(np.sqrt(dt * self._residual_square_sum(traj, mu, temporal)) / self.alpha_lb(mu))

    def est_output_for(self, traj: Trajectory, mu, temporal: Optional["TemporalBasis"] = None) -> float:
        return self.estimator.output_dual_norm * self.est_state_for(traj, mu, temporal)

    def est_output(self, mu) -> float:
        return self.est_output_for(self.eval_state(mu), mu)


class EstimatorBuilder:
    """Incrementally maintained coordinate factor of the residual component
    family: each functional, whitened by the problem's EnergyFactor, is projected
    onto a growing orthonormal basis of the whitened range, so dual norms of
    residual combinations are plain Euclidean norms of coordinate combinations.

    Squared Gram entries never enter; exact cancellations therefore survive
    far below the square root of machine precision, which the
    output-reproduction regime requires (a raw Gram quadratic form bottoms
    out near 1e-8 relative)."""

    def __init__(self, problem: FomProblem):
        self.problem = problem
        self._range = np.zeros((problem.dim, 0))  # orthonormal columns, whitened coordinates
        # coordinate rows by block: F_L, F_M and F_A (see EstimatorData)
        self._rhs = np.zeros((0, 0))
        self._mass = np.zeros((0, 0))
        self._operator = np.zeros((len(problem.operator.components), 0, 0))
        whitened = problem.energy.whiten(np.column_stack([problem.output, problem.rhs.vectors()]))
        self.output_dual_norm = float(np.linalg.norm(whitened[:, 0]))
        if whitened.shape[1] > 1:
            self._rhs = self._append(whitened[:, 1:])

    _DEFLATION = 1e-13

    def _append(self, whitened: np.ndarray) -> np.ndarray:
        """Coordinate rows of whitened vectors in the range grown by them; the
        stored rows are zero in the new range directions. The blocks are
        rebound, never written in place, so every built EstimatorData stays
        as it was."""
        new, coords = orthonormalize(whitened, existing=self._range, drop_tol=self._DEFLATION)
        self._range = np.hstack([self._range, new])
        grow = (0, new.shape[1])
        self._rhs = np.pad(self._rhs, ((0, 0), grow))
        self._mass = np.pad(self._mass, ((0, 0), grow))
        self._operator = np.pad(self._operator, ((0, 0), (0, 0), grow))
        return coords.T

    def add_basis_columns(self, new_columns: np.ndarray):
        if new_columns.size == 0:
            return
        p = self.problem
        count = new_columns.shape[1]
        images = [p.mass @ new_columns] + [comp.matrix @ new_columns for comp in p.operator.components]
        rows = self._append(p.energy.whiten(np.hstack(images)))  # [M | A_1 | ... | A_Q] times the new columns
        self._mass = np.vstack([self._mass, rows[:count]])
        self._operator = np.concatenate([self._operator, rows[count:].reshape(len(self._operator), count, -1)], axis=1)

    def build(self) -> EstimatorData:
        return EstimatorData(self._rhs, self._mass, self._operator, self.output_dual_norm)


def assemble_rb_rom(problem: FomProblem, basis_matrix: np.ndarray, builder: Optional[EstimatorBuilder] = None) -> RbRom:
    """Galerkin-project the problem onto the basis and attach the estimator.

    A persistent ``builder`` makes repeated calls incremental in the expensive
    whitening work; without one, the estimator data is assembled from scratch.
    """
    p = problem
    phi = np.asarray(basis_matrix, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != p.dim:
        raise ValueError("basis matrix must be N_h x N_rb")
    if builder is None:
        builder = EstimatorBuilder(p)
        builder.add_basis_columns(phi)

    # min-theta needs theta_q > 0 on the whole box for each symmetric q; as
    # theta_q(mu) is 1 or mu[parameter], its least value is at the lower corner
    symmetric = np.array([c.symmetric for c in p.operator.components])
    theta_bar = p.operator.thetas(p.mu_bar)[symmetric]
    theta_low = p.operator.thetas(p.box.lower)[symmetric]
    if not symmetric.any() or np.any(theta_low <= 0.0) or np.any(theta_bar <= 0.0):
        raise ValueError("min-theta inapplicable")

    mass_hat = phi.T @ (p.mass @ phi)
    operator_hats = [phi.T @ (comp.matrix @ phi) for comp in p.operator.components]

    rhs_vectors = p.rhs.vectors()
    rhs_hats = phi.T @ rhs_vectors if rhs_vectors.shape[1] else np.zeros((phi.shape[1], 0))
    output_hat = phi.T @ p.output

    u0 = p.initial_vector()
    init_coeffs = phi.T @ (p.gram @ u0)
    defect_vec = u0 - phi @ init_coeffs
    init_defect = float(np.sqrt(max(defect_vec @ (p.gram @ defect_vec), 0.0)))

    return RbRom(
        basis=phi,
        time_grid=p.time_grid,
        mass_hat=mass_hat,
        operator_hats=operator_hats,
        operator=p.operator,
        rhs_hats=rhs_hats,
        rhs=p.rhs,
        output_hat=output_hat,
        output_shift=p.output_shift,
        init_coeffs=init_coeffs,
        init_defect=init_defect,
        estimator=builder.build(),
        theta_bar=theta_bar,
        box=p.box,
    )


class SpannedTrajectory(Trajectory):
    """Reduced trajectory C = T C_hat + e_0 h + E given by coordinates in the
    temporal basis T (K x m) of ``temporal``: C_hat (m x N), the exact initial
    row (None: row 0 of T C_hat) and the tail E outside span [T | e_0] (zero
    in row 0; None: no tail). The initial row enters through the coordinate
    h = c_0 - T_0 C_hat of e_0. The coefficients are built on first use,
    T C_hat + E with row 0 replaced by the initial row, unless given."""

    def __init__(self, temporal: "TemporalBasis", coordinates: np.ndarray, initial=None, tail=None, coeffs=None):
        fields = dict(grid=temporal.grid, temporal=temporal, coordinates=coordinates, initial=initial, tail=tail)
        self.__dict__.update(fields, _coeffs=coeffs)  # frozen like Trajectory: no setattr

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            coeffs = self.temporal.matrix @ self.coordinates
            if self.tail is not None:
                coeffs += self.tail
            if self.initial is not None:
                coeffs[0] = self.initial
            self.__dict__["_coeffs"] = coeffs
        return self._coeffs

    @property
    def head(self) -> np.ndarray:
        """h, the coordinate of e_0."""
        if self.initial is None:
            return np.zeros(self.dim)
        return self.initial - self.temporal.matrix[0] @ self.coordinates


class TemporalBasis:
    """Shared temporal basis T (K x m, orthonormal columns) of the learned
    samples, and the time-only block of the residual estimate in
    T' = [T | e_0].

    For C = T C_hat + e_0 h, the K-1 step defects of RbRom.residual_dual_norms
    stack to B Y, with the time-only block B = [R | -D T | -D e_0 | -T_1]
    ((K-1) x (Q_l + 2m + 1); R the ramp table r_q(t_k), D the backward
    difference over dt, T_1 rows 1..K-1 of T; the e_0 column of T_1 is zero
    and left out) and Y = [diag(theta_L(mu)) F_L; C_hat F_M; h F_M;
    C_hat F_A(mu)]. Only the triangular factor R_B of a thin QR of B is kept,
    built on first use after T changed: sum_k ||r_k||^2 = ||R_B Y||_F^2 is
    still the norm of a product, never a squared Gram.

    T is never written in place: ``grown`` returns a new object, so a copy of
    a store that holds this one stays independent. The copies share the
    per-path ``counts`` (temporal and step-by-step estimates, R_B builds)."""

    def __init__(self, grid, rhs: AffineFunctional):
        self.grid = grid
        self.matrix = np.zeros((grid.num_nodes, 0))
        self._ramps = rhs.ramp_table(grid)[1:]
        self._r_factor = None
        self.counts = {"temporal": 0, "k_step": 0, "refreshes": 0}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def grown(self, columns: np.ndarray) -> "TemporalBasis":
        """Copy with the orthonormal ``columns`` appended to T."""
        out = copy.copy(self)
        out.matrix = np.hstack([self.matrix, columns])
        out._r_factor = None
        return out

    def saves_work(self) -> bool:
        """Whether B has fewer columns (Q_l + 2m + 1) than rows (the K-1
        steps); otherwise the temporal form saves nothing."""
        return self._ramps.shape[1] + 2 * self.dim + 1 < self._ramps.shape[0]

    def r_factor(self) -> np.ndarray:
        if self._r_factor is None:
            basis, dt = self.matrix, self.grid.dt
            initial_step = np.zeros((basis.shape[0] - 1, 1))  # -D e_0
            initial_step[0] = 1.0 / dt
            block = np.hstack([self._ramps, (basis[:-1] - basis[1:]) / dt, initial_step, -basis[1:]])
            self._r_factor = np.linalg.qr(block, mode="r")
            self.counts["refreshes"] += 1
        return self._r_factor

    def project(self, traj: Trajectory) -> SpannedTrajectory:
        """The trajectory with its coordinates T^T C and its tail in this basis
        (a trajectory whose row 0 leaves span T keeps the effect in its tail);
        one already given in this basis is returned as it is."""
        if isinstance(traj, SpannedTrajectory) and traj.temporal is self:
            return traj
        coeffs = traj.coeffs
        coords = self.matrix.T @ coeffs
        tail = coeffs - self.matrix @ coords
        tail[0] = 0.0  # the initial row is carried by e_0
        return SpannedTrajectory(self, coords, initial=coeffs[0], tail=tail, coeffs=coeffs)


class LearnedRom(abc.ABC):
    """Certified learned ROM: a backend predicts the m x N coordinates of the
    reduced trajectory in the temporal basis it was fitted in (``_predict``,
    from the unit-box parameter) and reports its model's ``size`` (0 before
    any fit); the output operator and the error estimator are the underlying
    RB-ROM's."""

    def __init__(self, rb_rom: RbRom, temporal: TemporalBasis):
        self.rb_rom = rb_rom
        self.temporal = temporal

    @abc.abstractmethod
    def _predict(self, unit_mu: np.ndarray) -> np.ndarray:
        """The fitted model's flat m x N coordinates at a unit-box parameter."""

    def eval_state(self, mu) -> SpannedTrajectory:
        """The predicted coordinates (zero before any fit) with the exact
        reduced initial row; the coefficients are built only when read."""
        rom = self.rb_rom
        mu = rom.box.validate(mu)
        shape = (self.temporal.dim, rom.dim)
        coords = self._predict(rom.box.to_unit(mu)).reshape(shape) if self.size else np.zeros(shape)
        return SpannedTrajectory(self.temporal, coords, initial=rom.init_coeffs)

    def eval_output(self, mu) -> OutputSignal:
        return self.rb_rom.output_of(self.eval_state(mu))

    def est_output(self, mu) -> float:
        return self.rb_rom.est_output_for(self.eval_state(mu), mu)


class LearnedGenerator(abc.ABC):
    """Sample store of the learned backends: (mu, reduced trajectory) pairs
    collected from an RB-ROM, refitted once ``refit_interval`` store changes
    accumulated since the last fit (or on demand), and carried onto nested
    bases by zero-padding.

    The trajectories share one nested temporal basis T (K x m, orthonormal
    columns), held by ``temporal`` (a TemporalBasis, rebound whenever T grows)
    and grown in ``extend`` until every stored trajectory C is reproduced by
    T C_hat to TEMPORAL_TOL relative in the Frobenius norm; C_hat = T^T C
    unless C came with its own coordinates in the current basis. Each sample
    is kept once, as row i of a block that grows by doubling (sample i's
    m x N coordinates, row-major); backends regress these rows in place on
    the unit-box parameters (``_inputs``).

    Batch refits (``pending_threshold`` > 1) back off while the learned tier
    earns nothing: ``refit_interval`` starts at ``pending_threshold``, and when
    the pending count reaches it with no query answered by the tier since the
    last fit (``answered``), it doubles once and the fit waits for the doubled
    batch. An answer resets it. The first fit is never deferred, and forced
    fits ignore the interval and leave it as it is.

    A backend fits in ``precompute`` when ``_due`` says so and reports it with
    ``_fitted``, which records the fit in ``last_fit``; it pads its fitted
    model in ``_pad_model`` whenever the rows are padded (new temporal modes
    in ``extend``, new basis columns in ``prolong``) and drops it in
    ``_forget_model``. ``_appended_only`` tells whether every sample since
    the last fit was appended, none replaced.
    """

    def __init__(self, rb_rom: RbRom, pending_threshold: int):
        self.rb_rom = rb_rom
        check_count("pending_threshold", pending_threshold, 1)
        self.pending_threshold = pending_threshold
        self.refit_interval = pending_threshold
        self._earned = False  # the tier answered a query since the last fit
        self._deferred = False  # the interval already doubled for this batch
        self._mus: list = []
        self.temporal = TemporalBasis(rb_rom.time_grid, rb_rom.rhs)
        self._rows = np.empty((0, 0))  # the first len(_mus) rows are live
        self._pending = 0
        self._appended_only = True
        self.trainings = 0
        self.last_fit: dict = {}

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
        view = self.temporal.matrix.view()
        view.flags.writeable = False
        return view

    @property
    def training_parameters(self) -> list:
        return list(self._mus)

    @property
    def _coordinate_shape(self) -> tuple:
        return (self.temporal.dim, self.rb_rom.dim)

    def _targets(self) -> np.ndarray:
        return self._rows[: len(self._mus)]

    def _inputs(self) -> np.ndarray:
        return np.array([self.rb_rom.box.to_unit(mu) for mu in self._mus])

    def extend(self, mu, trajectory: Optional[Trajectory] = None) -> None:
        """Store the trajectory at mu (the RB solution by default); a stored
        sample at the same mu is replaced. A trajectory already projected
        onto ``temporal`` is not projected again."""
        mu = self.rb_rom.box.validate(mu)
        if trajectory is None:
            trajectory = self.rb_rom.eval_state(mu)
        if trajectory.grid.num_nodes != self.rb_rom.time_grid.num_nodes or trajectory.dim != self.rb_rom.dim:
            raise ValueError("trajectory does not match the reduced basis and time grid")
        coords = self._grow_time_basis(self.temporal.project(trajectory))
        n = len(self._mus)
        i = next((j for j, old_mu in enumerate(self._mus) if np.array_equal(old_mu, mu)), n)
        if i < n:
            self._appended_only = False
        else:
            self._rows = _reserve_rows(self._rows, n, n + 1, math.prod(self._coordinate_shape))
            self._mus.append(mu.copy())
        self._rows[i] = coords.ravel()
        self._pending += 1

    def _grow_time_basis(self, traj: SpannedTrajectory) -> np.ndarray:
        """Append the leading left singular vectors of the part of C that T
        misses, C - T C_hat, until the remainder is at most
        TEMPORAL_TOL * ||C||_F. Returns the coordinates of C: C_hat when T did
        not grow, else T^T C on the grown T. The singular vectors come from a
        thin QR of the missed part and an SVD of its small triangular factor."""
        coeffs = traj.coeffs
        head = traj.head
        bound = TEMPORAL_TOL * np.linalg.norm(coeffs)
        tail_norm = 0.0 if traj.tail is None else np.linalg.norm(traj.tail)
        if math.hypot(tail_norm, np.linalg.norm(head)) <= bound:
            return traj.coordinates
        missed = np.zeros_like(coeffs) if traj.tail is None else traj.tail.copy()
        missed[0] = head
        q, r = np.linalg.qr(missed)
        vectors, values, _ = np.linalg.svd(r, full_matrices=False)
        tails = np.sqrt(np.cumsum(values[::-1] ** 2))[::-1]  # tails[r]: norm of values[r:]
        keep = int(np.sum(tails > bound))
        new, _ = orthonormalize(q @ vectors[:, :keep], existing=self.temporal.matrix)
        old_shape = self._coordinate_shape
        self.temporal = self.temporal.grown(new)
        self._pad(old_shape, self._coordinate_shape)
        return self.temporal.matrix.T @ coeffs

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

    def answered(self):
        """Note a query the learned tier answered: batch refits fall due
        every ``pending_threshold`` store changes again."""
        self._earned = True
        self.refit_interval = self.pending_threshold

    def _due(self, force: bool) -> bool:
        """Whether precompute must fit: the store changed since the last fit,
        and either the caller insists or ``refit_interval`` changes piled up,
        after the interval doubled once if the last fit earned nothing."""
        if not self._mus:
            raise ValueError("empty training set")
        if not self._pending:
            return False
        if force:
            return True
        if (
            self._pending >= self.refit_interval
            and self.pending_threshold > 1
            and self.trainings
            and not (self._earned or self._deferred)
        ):
            self.refit_interval *= 2
            self._deferred = True
        return self._pending >= self.refit_interval

    def _fitted(self, **report):
        """Record a fit; ``last_fit`` holds the samples it used and the
        backend's ``report`` (JSON-serializable values)."""
        self._pending = 0
        self._earned = self._deferred = False
        self._appended_only = True
        self.trainings += 1
        self.last_fit = {"samples": len(self._mus), **report}

    def prolong(self, new_rb_rom: RbRom):
        """Copy of the generator over an extended (nested) reduced basis, with
        the stored coordinates and the fitted model zero-padded in the new
        basis columns."""
        old_n, new_n = self.rb_rom.dim, new_rb_rom.dim
        if new_n < old_n or not np.allclose(
            new_rb_rom.basis[:, :old_n], self.rb_rom.basis, atol=1e-12
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
