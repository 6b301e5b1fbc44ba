"""Reference implementations the tests compare the library against. They are
slow or redundant by design and are not part of the certrom API."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from certrom import FomProblem, MlpParams, Trajectory
from certrom.hapod import _pod
from certrom.mlp import EarlyStopper, _num_parameters, _Workspace, init_params, layer_views


def kernel_eval(x, y, gamma: float) -> float:
    """Gaussian kernel exp(-gamma * ||x - y||^2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must share a dimension")
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


def rb_residual_bruteforce(problem: FomProblem, basis_matrix: np.ndarray, traj: Trajectory, mu) -> np.ndarray:
    """Full-space assembly of the step defects and their dual norms
    sqrt(r . G^-1 r), the Riesz representatives from a direct sparse solve.

    Independent O(N_h)-per-step cross-check of ``RbRom.residual_dual_norms``.
    """
    p = problem
    mu = p.box.validate(mu)
    phi = np.asarray(basis_matrix, dtype=float)
    op = p.operator.assemble(mu)
    rhs_vectors = p.rhs.vectors()
    dt = p.time_grid.dt
    nodes = p.time_grid.nodes
    full = traj.coeffs @ phi.T if phi.shape[1] else np.zeros((traj.coeffs.shape[0], p.dim))
    residuals = np.empty((p.dim, len(nodes) - 1))
    for j in range(len(nodes) - 1):
        b = rhs_vectors @ p.rhs.coefficients(mu, nodes[j + 1]) if rhs_vectors.shape[1] else np.zeros(p.dim)
        residuals[:, j] = b - p.mass @ (full[j + 1] - full[j]) / dt - op @ full[j + 1]
    reps = spla.spsolve(p.gram.tocsc(), residuals).reshape(residuals.shape)
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", residuals, reps), 0.0))


def pod_modes(vectors: np.ndarray, gram, mean_square_tol: float):
    """One-shot POD keeping enough modes for a mean-square projection error
    below mean_square_tol**2 (the dense reference the chunked variant is
    checked against)."""
    n = vectors.shape[1]
    return _pod(np.asarray(vectors, dtype=float), gram, n * mean_square_tol**2)


def zero_params(sizes) -> MlpParams:
    return layer_views(np.zeros(_num_parameters(sizes)), sizes)


def mlp_loss_grad(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Mean squared Euclidean output error over the batch and its gradients
    (reverse-mode; the rectifier subgradient at 0 is taken as 0), in float64
    through the training step's kernel."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    ws = _Workspace(params.sizes, x.shape[0], np.float64)
    ws.theta[:] = params.flat()
    ws.acts[0][:] = x
    ws.target[:] = y
    ws.backprop(x.shape[0])
    err = ws.acts[-1] - y
    return float(np.mean(np.sum(err**2, axis=1))), ws.grads


def mlp_loss_grad_allocating(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Mean squared output error and its reverse-mode gradient, with a fresh
    array for every intermediate, in the dtype the inputs and parameters
    promote to. The reference for the trainer's in-place kernel."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    batch = x.shape[0]
    last = len(params.weights) - 1
    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    err = activations[-1] - y
    loss = float(np.mean(np.sum(err**2, axis=1)))
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.weights)
    delta = 2.0 * err / batch
    for i in range(last, -1, -1):
        grad_w[i] = delta.T @ activations[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * (activations[i] > 0.0)
    return loss, MlpParams(grad_w, grad_b)


def adam_step_per_array(params: MlpParams, grads: MlpParams, m: MlpParams, v: MlpParams, step: int,
                        lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update array by array, on copies; returns the
    new (params, m, v). Step is the count after this update."""
    params, m, v = params.copy(), m.copy(), v.copy()
    for arrays in (
        zip(params.weights, grads.weights, m.weights, v.weights),
        zip(params.biases, grads.biases, m.biases, v.biases),
    ):
        for p, g, m_i, v_i in arrays:
            m_i *= beta1
            m_i += (1.0 - beta1) * g
            v_i *= beta2
            v_i += (1.0 - beta2) * g**2
            m_hat = m_i / (1.0 - beta1**step)
            v_hat = v_i / (1.0 - beta2**step)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


def mlp_train_allocating(x, y, sizes, config, warm_start=None, dtype=np.float32):
    """Mini-batch Adam in `dtype` through the two functions above, with the
    library trainer's random stream, schedule, validation (float64 prediction
    of the `dtype` parameters) and early stopping. Returns the best-validation
    parameters in `dtype`, the epochs run and their validation loss."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[0]
    n_val = max(1, int(round(config.validation_fraction * n)))
    rng = np.random.default_rng(config.seed)

    def cast(params):
        return MlpParams([w.astype(dtype) for w in params.weights], [b.astype(dtype) for b in params.biases])

    def val_loss(params, xv, yv):
        a = xv
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            a = a @ w.T + b
            if i < len(params.weights) - 1:
                a = np.maximum(a, 0.0)
        return float(np.mean(np.sum((a - yv) ** 2, axis=1)))

    best, best_val, epochs = None, np.inf, 0
    for restart in range(config.restarts):
        perm = rng.permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        x_tr, y_tr = x[train_idx].astype(dtype), y[train_idx].astype(dtype)
        if warm_start is not None and restart == 0 and warm_start.sizes == list(sizes):
            params = cast(warm_start)
        else:
            params = cast(init_params(sizes, rng))
        zeros = MlpParams([np.zeros_like(w) for w in params.weights], [np.zeros_like(b) for b in params.biases])
        m, v, step = zeros, zeros.copy(), 0
        stopper = EarlyStopper(config.patience)
        run_best, run_best_val = params.copy(), val_loss(params, x[val_idx], y[val_idx])
        for epoch in range(config.max_epochs):
            lr = config.learning_rate * config.lr_decay ** (epoch // config.lr_every)
            order = rng.permutation(len(train_idx))
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                _, grads = mlp_loss_grad_allocating(params, x_tr[batch], y_tr[batch])
                step += 1
                params, m, v = adam_step_per_array(params, grads, m, v, step, lr)
            epochs += 1
            val = val_loss(params, x[val_idx], y[val_idx])
            if val < run_best_val:
                run_best_val, run_best = val, params.copy()
            if stopper.update(val):
                break
        if run_best_val < best_val:
            best_val, best = run_best_val, run_best
    return best, epochs, best_val


def constrain_matrix_products(mat, dofs, diagonal: float) -> sp.csr_matrix:
    """``fem.constrain_matrix`` as sparse products: K A K + diagonal * (I - K),
    with K the diagonal 0/1 matrix of the free DoFs."""
    n = mat.shape[0]
    free = np.ones(n)
    free[dofs] = 0.0
    index = np.arange(n + 1)
    keep = sp.csr_matrix((free, index[:-1], index), shape=mat.shape)
    fixed = sp.csr_matrix(((1.0 - free) * diagonal, index[:-1], index), shape=mat.shape)
    out = (keep @ sp.csr_matrix(mat) @ keep + fixed).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out
