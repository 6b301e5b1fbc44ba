"""Reference implementations the tests compare the library against. They are
slow or redundant by design and are not part of the certrom API."""

import numpy as np

from certrom import FomProblem, RieszSolver, Trajectory


def kernel_eval(x, y, gamma: float) -> float:
    """Gaussian kernel exp(-gamma * ||x - y||^2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must share a dimension")
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


def riesz_representative(gram, functional: np.ndarray) -> np.ndarray:
    """Solve G r = f; the dual norm of f is sqrt(f . r)."""
    return RieszSolver(gram).solve(np.asarray(functional, dtype=float))


def rb_residual_bruteforce(problem: FomProblem, basis_matrix: np.ndarray, traj: Trajectory, mu) -> np.ndarray:
    """Full-space assembly of the step defects and their dual norms.

    Independent O(N_h)-per-step cross-check of ``RbRom.residual_dual_norms``.
    """
    p = problem
    mu = p.box.validate(mu)
    phi = np.asarray(basis_matrix, dtype=float)
    op = p.operator.assemble(mu)
    rhs_vectors = p.rhs.vectors()
    riesz = RieszSolver(p.gram)
    dt = p.time_grid.dt
    nodes = p.time_grid.nodes
    full = traj.coeffs @ phi.T if phi.shape[1] else np.zeros((traj.coeffs.shape[0], p.dim))
    norms = np.empty(len(nodes) - 1)
    for j in range(len(nodes) - 1):
        b = rhs_vectors @ p.rhs.coefficients(mu, nodes[j + 1]) if rhs_vectors.shape[1] else np.zeros(p.dim)
        residual = b - p.mass @ (full[j + 1] - full[j]) / dt - op @ full[j + 1]
        norms[j] = riesz.dual_norm(residual)
    return norms
