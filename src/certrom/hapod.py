"""Reduced-basis generation: Gram-Schmidt, incremental chunked POD compression
with a guaranteed mean-square projection error, and the trajectory-streaming
basis generator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NumericalError, check_count
from .fom import FullOrderModel
from .rb import EstimatorBuilder, RbRom, assemble_rb_rom, orthonormalize


def gram_schmidt(vectors, existing: Optional[np.ndarray] = None, drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize columns in the Euclidean product, against an optional
    existing orthonormal set; two projection passes, near-dependent columns are
    dropped (post-projection norm below drop_tol times the original norm).
    Returns only the new columns of ``orthonormalize``."""
    return orthonormalize(vectors, existing, drop_tol)[0]


OMEGA = 0.75  # share of the error budget left for the final POD


@dataclass(frozen=True)
class HapodConfig:
    """Tolerances of the incremental compression.

    eps_pod bounds the final root-mean-square projection error of all fed
    vectors; OMEGA splits the error budget between intermediate chunk PODs and
    the final one.
    """

    eps_pod: float = 1e-12
    chunk: int = 100

    def __post_init__(self):
        if not self.eps_pod > 0.0:
            raise ValueError("eps_pod must be positive")
        check_count("chunk", self.chunk, 1)


class IncrementalHapod:
    """Chunked POD with carried scaled modes.

    Feeding n_expected vectors of length dim in chunks and finalizing yields
    orthonormal modes with total squared projection error of all inputs
    bounded by n_expected * eps_pod**2: intermediate truncations share a
    (1 - OMEGA) * sqrt(n) * eps budget evenly, the final one gets
    OMEGA * sqrt(n) * eps, and the telescoping triangle inequality in the
    Frobenius norm does the rest. Everything is Euclidean: energy-weighted
    inputs are fed in whitened coordinates (``EnergyFactor.whiten_states``).
    """

    def __init__(self, dim: int, config: HapodConfig, n_expected: int):
        self.config = config
        self.n_expected = int(n_expected)
        self.modes = np.zeros((dim, 0))
        self.svals = np.zeros(0)
        self._buffer = []  # 2-D blocks fed since the last compression
        self._buffered = 0  # their column count
        self.n_seen = 0
        stages = max(1, math.ceil(self.n_expected / config.chunk))
        budget = math.sqrt(self.n_expected) * config.eps_pod
        self._local_budget = (1.0 - OMEGA) * budget / stages
        self._final_budget = OMEGA * budget
        self._finalized = False

    @property
    def n_stored(self) -> int:
        """Full-order vectors currently held (carried modes + buffered chunk)."""
        return self.modes.shape[1] + self._buffered

    def feed(self, vectors: np.ndarray):
        """Buffer the columns of ``vectors`` (or one vector), compressing
        whenever ``chunk`` columns are buffered. The columns are kept as
        blocks, not copied, until they are compressed, so the caller must not
        write into them before ``finalize``."""
        if self._finalized:
            raise RuntimeError("compression already finalized")
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        start = 0
        while start < vectors.shape[1]:
            stop = min(vectors.shape[1], start + self.config.chunk - self._buffered)
            self._buffer.append(vectors[:, start:stop])
            self._buffered += stop - start
            self.n_seen += stop - start
            start = stop
            if self._buffered == self.config.chunk:
                self._compress(self._local_budget)

    def finalize(self):
        if not self._finalized:
            self._compress(self._final_budget)
            self._finalized = True
        return self.modes, self.svals

    def _compress(self, budget: float):
        carried = self.modes * self.svals[None, :]
        data = ([carried] if carried.size else []) + self._buffer
        self._buffer, self._buffered = [], 0
        if data:
            self.modes, self.svals = _pod(np.hstack(data), budget**2)


def _pod(x: np.ndarray, squared_budget: float):
    """Method-of-snapshots POD (an eigendecomposition of x^T x, cheaper than a
    thin SVD of x for tall chunks); discards trailing modes while the
    discarded squared mass stays within the budget."""
    w, v = np.linalg.eigh(x.T @ x)
    w = w[::-1]
    v = v[:, ::-1]
    w = np.clip(w, 0.0, None)
    cumulative_tail = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]])
    floor = max(w[0], 0.0) * 1e-14 if w.size else 0.0
    # keep the leading modes whose removal would overdraw the budget
    keep = np.flatnonzero((cumulative_tail + w > squared_budget) & (w > floor))
    if keep.size == 0:
        return np.zeros((x.shape[0], 0)), np.zeros(0)
    m = keep.max() + 1
    svals = np.sqrt(w[:m])
    modes = (x @ v[:, :m]) / svals[None, :]
    return modes, svals


class RbGenerator:
    """Streams full-order trajectories through the chunked POD into a growing,
    nested reduced basis, and precomputes certified reduced models from it.

    The basis is held twice: ``basis`` (Phi, energy-orthonormal, for the
    reduced models) and its whitened copy R Phi (Euclidean-orthonormal, see
    ``EnergyFactor.whiten_states``), in which each streamed chunk is
    projected, compressed and orthonormalized.

    ``eps`` is the one stored copy of the active output tolerance
    (``AdaptiveModel.eps`` reads and writes it); ``precompute`` certifies
    against it. It must be positive (``inf`` accepts every estimate).
    """

    MAX_RETRIES = 3

    def __init__(self, fom: FullOrderModel, eps: float, hapod: HapodConfig = HapodConfig()):
        self.fom = fom
        self.eps = eps
        self.hapod = hapod
        self.mus = []
        self._pending = []  # extended since the last precompute, not yet certified
        problem = fom.problem
        self.basis = np.zeros((problem.dim, 0))
        self._whitened = np.zeros((problem.dim, 0))
        self._builder = EstimatorBuilder(problem)
        self._rom: Optional[RbRom] = None
        self.peak_full_vectors = 0

    @property
    def eps(self) -> float:
        return self._eps

    @eps.setter
    def eps(self, value: float):
        value = float(value)
        if not value > 0.0:  # also rejects NaN
            raise ValueError(f"eps must be positive, got {value!r}")
        self._eps = value

    @property
    def training_parameters(self) -> list:
        return list(self.mus)

    def _track(self, hapod_state: IncrementalHapod, in_flight: int):
        held = self.basis.shape[1] + hapod_state.n_stored + in_flight
        self.peak_full_vectors = max(self.peak_full_vectors, held)

    _DEFLATION = 1e-10  # relative to the raw trajectory scale

    def _stream_remains(self, mu, eps_pod: float) -> np.ndarray:
        """FOM solve streamed chunkwise: whiten, project off the current
        basis, compress; returns whitened modes.

        Modes carrying less than the deflation fraction of the raw trajectory
        scale are discarded: a re-visited parameter whose trajectory already
        lies in the basis must not grow it with roundoff directions.
        """
        problem = self.fom.problem
        cfg = HapodConfig(eps_pod, self.hapod.chunk)
        state = IncrementalHapod(problem.dim, cfg, problem.time_grid.num_nodes)
        block = np.empty((cfg.chunk, problem.dim))  # every full chunk is written here, one state per row
        filled = 0
        raw_scale = 0.0
        for row in self.fom.iter_state(mu):
            block[filled] = row
            filled += 1
            self._track(state, filled)
            if filled == cfg.chunk:
                raw_scale = max(raw_scale, self._feed_projected(state, block.T))
                filled = 0
        if filled:
            raw_scale = max(raw_scale, self._feed_projected(state, block[:filled].T))
        modes, svals = state.finalize()
        self._track(state, 0)
        keep = svals > self._DEFLATION * raw_scale
        return modes[:, keep]

    def _feed_projected(self, state: IncrementalHapod, x: np.ndarray) -> float:
        """Feed the chunk x (columns are states) whitened, a new array since x
        is the block the next chunk is written into, and projected off the
        basis; returns the largest energy norm of its states."""
        w = self.fom.problem.energy.whiten_states(x)
        scale = float(np.sqrt(np.max(np.einsum("ij,ij->j", w, w))))
        if self._whitened.shape[1]:
            w -= self._whitened @ (self._whitened.T @ w)
        state.feed(w)
        return scale

    def extend(self, mu) -> None:
        """Stream the trajectory at mu into the basis, then add mu to the
        training set, so a failed solve records nothing. A mu already in the
        set is only marked pending again (a re-solve at eps_pod could only add
        sub-floor directions); ``precompute`` re-certifies it and re-streams
        it at a tighter eps_pod only if it fails."""
        problem = self.fom.problem
        mu = problem.box.validate(mu)
        seen = next((old for old in self.mus if np.array_equal(mu, old)), None)
        if seen is not None:
            if all(seen is not pending for pending in self._pending):
                self._pending.append(seen)
            return
        self._grow(problem.energy.whiten_states(problem.initial_vector()))
        remains = self._stream_remains(mu, self.hapod.eps_pod)
        self.mus.append(mu.copy())
        self._pending.append(self.mus[-1])
        self._grow(remains)

    def _grow(self, whitened: np.ndarray):
        """Append the directions of the whitened vectors not yet in the basis
        (zero columns and columns already in its span add none)."""
        new_whitened = gram_schmidt(whitened, existing=self._whitened)
        if new_whitened.size == 0:
            return
        new_columns = self.fom.problem.energy.unwhiten_states(new_whitened)
        self._whitened = np.hstack([self._whitened, new_whitened])
        self.basis = np.hstack([self.basis, new_columns])
        self._builder.add_basis_columns(new_columns)
        self._rom = None

    def _current_rom(self) -> RbRom:
        if self._rom is None:
            self._rom = assemble_rb_rom(self.fom.problem, self.basis, self._builder, self._whitened)
        return self._rom

    def precompute(self) -> RbRom:
        """The reduced model of the current basis, once every pending training
        parameter's output estimate is within eps; raises NumericalError for
        a parameter that still fails after MAX_RETRIES re-streams."""
        while self._pending:
            mu = self._pending.pop(0)  # a failure is reported once, not retried by later calls
            eps_pod = self.hapod.eps_pod
            retries = 0
            while (est := self._current_rom().est_output(mu)) > self.eps:
                if retries == self.MAX_RETRIES:
                    raise NumericalError("enrichment failed")
                retries += 1
                # tighten at least by half, and directly toward the shortfall
                eps_pod *= min(0.5, 0.1 * self.eps / est)
                self._grow(self._stream_remains(mu, eps_pod))
        return self._current_rom()
