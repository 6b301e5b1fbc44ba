"""Acceptance suite: every criterion of the delivery contract, at its stated
tolerance, each reporting one pass/fail line."""

import numpy as np
import pytest

from certrom import (
    EnergyFactor,
    FullOrderModel,
    HapodConfig,
    IncrementalHapod,
    KernelConfig,
    NelderMeadConfig,
    RbGenerator,
    StagnationConfig,
    Trajectory,
    VkogaGenerator,
    assemble_rb_rom,
    build_building,
    l2_time_norm,
    make_adaptive_model,
    monte_carlo,
    optimize_misfit,
    time_average,
    vkoga_fit,
)
from certrom.mlp import init_params

from conftest import record_acceptance
from oracles import (
    energy_gram_schmidt,
    mlp_loss_grad,
    pod_modes,
    rb_residual_bruteforce,
    reconstruct,
    rkhs_residual_decay,
)


def state_l2_error(problem, full_traj, reconstructed):
    g = problem.gram
    diff = full_traj.coeffs - reconstructed.coeffs
    return float(
        np.sqrt(problem.time_grid.dt * sum(d @ (g @ d) for d in diff[:-1]))
    )


def test_criterion_1_certification_soundness(heat_problem, coarse_reactive):
    """Every adaptive answer stays within eps of a fresh full-order solve."""
    results = []
    for label, problem, n_mu in (
        ("heat 8x8", heat_problem, 50),
        ("reactive coarse", coarse_reactive, 50),
    ):
        fom = FullOrderModel(problem)
        rng = np.random.default_rng(2024)
        mus = [problem.box.sample(rng) for _ in range(n_mu)]
        references = [fom.eval_output(mu) for mu in mus]  # solved once, audited at every eps
        for eps in (1e-1, 1e-2, 1e-3):
            model = make_adaptive_model(problem, eps=eps, ml_backend="vkoga")
            worst = 0.0
            for mu, reference in zip(mus, references):
                signal, _ = model.query(mu)
                err = l2_time_norm(reference - signal)
                worst = max(worst, err)
                assert err <= eps * (1 + 1e-10), (label, eps, mu)
            results.append(f"{label}@{eps:.0e}: worst={worst:.2e}")
    record_acceptance("criterion 1 (certification soundness): PASS — " + "; ".join(results))


def test_criterion_2_estimator_upper_bounds(heat_problem):
    """State and output estimates dominate the true errors on nested spaces."""
    fom = FullOrderModel(heat_problem)
    snapshots = np.hstack(
        [fom.eval_state(np.array(mu)).coeffs.T for mu in ([0.6, 0.6], [1.9, 1.9], [0.7, 1.8])]
    )
    basis = energy_gram_schmidt(snapshots, heat_problem.gram, drop_tol=1e-13)
    assert basis.shape[1] >= 8
    rng = np.random.default_rng(7)
    mus = [heat_problem.box.sample(rng) for _ in range(20)]
    effectivities = []
    for dim in (1, 2, 4, 8):
        rom = assemble_rb_rom(heat_problem, basis[:, :dim])
        for mu in mus:
            traj = rom.eval_state(mu)
            uh = fom.eval_state(mu)
            state_err = state_l2_error(heat_problem, uh, reconstruct(rom, traj))
            out_err = l2_time_norm(fom.output_of(uh) - rom.output_of(traj))
            est_u = rom.est_state_for(traj, mu)
            est_f = rom.est_output_for(traj, mu)
            assert state_err <= est_u * (1 + 1e-10), (dim, mu)
            assert out_err <= est_f * (1 + 1e-10), (dim, mu)
            if out_err > 0:
                effectivities.append(est_f / out_err)
    eff = np.array(effectivities)
    record_acceptance(
        "criterion 2 (estimator upper bound): PASS — output effectivity "
        f"min/median/max = {eff.min():.1f}/{np.median(eff):.1f}/{eff.max():.1f}"
    )


def test_criterion_3_output_reproduction(heat_problem):
    """Generators are eps-accurate on their collected training parameters."""
    eps = 1e-3
    fom = FullOrderModel(heat_problem)
    gen = RbGenerator(fom, eps=eps)  # eps_pod defaults to 1e-12
    rng = np.random.default_rng(11)
    worst_rb = 0.0
    for _ in range(5):
        gen.extend(heat_problem.box.sample(rng))
        rom = gen.precompute()
        for mu in gen.training_parameters:
            worst_rb = max(worst_rb, rom.est_output(mu))
            assert rom.est_output(mu) <= eps
    ml_gen = VkogaGenerator(rom, KernelConfig())
    for mu in gen.training_parameters:
        ml_gen.extend(mu)
    ml = ml_gen.precompute()
    worst_ml = 0.0
    for mu in gen.training_parameters:
        worst_ml = max(worst_ml, ml.est_output(mu))
        assert ml.est_output(mu) <= eps
    record_acceptance(
        "criterion 3 (output reproduction): PASS — "
        f"worst training estimate rb={worst_rb:.2e}, kernel={worst_ml:.2e} <= {eps:.0e}"
    )


def test_criterion_4_offline_online_equivalence(heat_problem):
    """Decomposed residual dual norms match the full-space oracle."""
    fom = FullOrderModel(heat_problem)
    snapshots = np.hstack(
        [fom.eval_state(np.array(mu)).coeffs.T for mu in ([0.8, 1.7], [1.6, 0.8])]
    )
    basis = energy_gram_schmidt(snapshots, heat_problem.gram)[:, :10]
    rom = assemble_rb_rom(heat_problem, basis)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        mu = heat_problem.box.sample(rng)
        coeffs = rng.normal(size=(heat_problem.time_grid.num_nodes, rom.dim))
        traj = Trajectory(heat_problem.time_grid, coeffs)
        fast = rom.residual_dual_norms(traj, mu)
        slow = rb_residual_bruteforce(heat_problem, basis, traj, mu)
        gap = np.abs(fast - slow)
        allowed = np.maximum(1e-8 * slow, 1e-12)
        worst = max(worst, np.max(gap / np.maximum(slow, 1e-12)))
        assert np.all(gap <= allowed)
    record_acceptance(
        f"criterion 4 (offline/online equivalence): PASS — worst relative gap {worst:.2e}"
    )


@pytest.fixture(scope="module")
def reference_curve(coarse_reactive):
    fom = FullOrderModel(coarse_reactive)
    mu_hat = np.array([5.005, 10.0])
    return mu_hat, fom.eval_output(mu_hat)


def test_criterion_5_fixed_tolerance_minimization(coarse_reactive, reference_curve):
    """Tight tolerance converges near the hidden parameter; loose fails."""
    mu_hat, reference = reference_curve

    model = make_adaptive_model(coarse_reactive, eps=1e-3, ml_backend="vkoga")
    report = optimize_misfit(
        model, reference, NelderMeadConfig(initial_point=[2.0, 10.5], max_evals=300)
    )
    rel = np.linalg.norm(report.final_mu - mu_hat) / np.linalg.norm(mu_hat)
    assert report.converged
    assert report.n_evals <= 300
    assert rel <= 1e-2

    loose = make_adaptive_model(coarse_reactive, eps=1e-1, ml_backend="vkoga")
    loose_report = optimize_misfit(
        loose, reference, NelderMeadConfig(initial_point=[2.0, 10.5], max_evals=300)
    )
    loose_rel = np.linalg.norm(loose_report.final_mu - mu_hat) / np.linalg.norm(mu_hat)
    assert (not loose_report.converged) or loose_rel > 1e-2

    record_acceptance(
        "criterion 5 (fixed-tolerance minimization): PASS — eps=1e-3: "
        f"{report.n_evals} evals, rel. minimizer error {rel:.2e}; "
        f"eps=1e-1: converged={loose_report.converged}, rel={loose_rel:.2e}"
    )


def test_criterion_6_adaptive_tolerance(coarse_reactive, reference_curve):
    """The stagnation controller drops the tolerance and the run converges."""
    mu_hat, reference = reference_curve
    eps0 = l2_time_norm(reference)
    model = make_adaptive_model(coarse_reactive, eps=eps0, ml_backend="vkoga")
    stagnation = StagnationConfig(n_av=6, n_stag=10, eps_slope=-1e-15, eps_slope_rel=5e-5)
    report = optimize_misfit(
        model,
        reference,
        NelderMeadConfig(initial_point=[2.0, 10.5], max_evals=500),
        stagnation=stagnation,
    )
    rel = np.linalg.norm(report.final_mu - mu_hat) / np.linalg.norm(mu_hat)
    assert len(report.tolerance_events) >= 1
    assert report.converged
    assert rel <= 1e-2

    current = eps0
    for event in report.tolerance_events:
        assert event["eps"] == pytest.approx(current / 10.0, rel=1e-14)
        current = event["eps"]

    counts = {tier: sum(r.tier == tier for r in report.records) for tier in ("ml", "rb", "fom")}
    assert counts["ml"] > counts["rb"] > counts["fom"]
    record_acceptance(
        "criterion 6 (adaptive tolerance): PASS — "
        f"{report.n_evals} evals, {len(report.tolerance_events)} drop(s), rel error {rel:.2e}, "
        f"tiers ml/rb/fom = {counts['ml']}/{counts['rb']}/{counts['fom']}"
    )


def test_criterion_7_monte_carlo_consistency():
    """Desk-scale uncertainty quantification against a same-seed full-order run."""
    eps = 5e-2
    problem = build_building()  # 16x8 grid, K=100, 28 parameters
    model = make_adaptive_model(
        problem, eps=eps, ml_backend="vkoga", retrain="batch", batch_threshold=200
    )
    report = monte_carlo(model, 300, window=(0.9, 1.0), seed=11)

    fom = FullOrderModel(problem)
    rng = np.random.default_rng(11)
    fom_values = np.array(
        [time_average(fom.eval_output(problem.box.sample(rng)), (0.9, 1.0)) for _ in range(300)]
    )
    mean_gap = abs(report.mean - fom_values.mean())
    assert mean_gap <= 2 * eps

    audit_rng = np.random.default_rng(99)
    audit_worst = 0.0
    for _ in range(10):
        mu = problem.box.sample(audit_rng)
        signal, _ = model.query(mu)
        audit_worst = max(audit_worst, l2_time_norm(fom.eval_output(mu) - signal))
    assert audit_worst <= eps * (1 + 1e-10)

    windows = report.ml_fraction_per_window
    assert len(windows) >= 2  # at least one training happened
    assert windows[-1] > 0.0
    record_acceptance(
        "criterion 7 (Monte Carlo consistency): PASS — "
        f"mean gap {mean_gap:.1e} <= {2*eps:.0e}, audit worst {audit_worst:.1e}, "
        f"learned-tier fraction per window {[round(w, 3) for w in windows]}"
    )


def test_criterion_8_mlp_gradient_check():
    """Backprop gradients match central finite differences."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for sizes in ([3, 7, 2], [5, 16, 9, 4], [4, 12, 8, 6, 3]):
        params = init_params(sizes, rng)
        x = rng.normal(size=(6, sizes[0]))
        y = rng.normal(size=(6, sizes[-1]))
        _, grads = mlp_loss_grad(params, x, y)
        h = 1e-5
        for arrays, g_arrays in ((params.weights, grads.weights), (params.biases, grads.biases)):
            for arr, g in zip(arrays, g_arrays):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    arr[idx] += h
                    up, _ = mlp_loss_grad(params, x, y)
                    arr[idx] -= 2 * h
                    down, _ = mlp_loss_grad(params, x, y)
                    arr[idx] += h
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-7:
                        worst = max(worst, abs(fd - g[idx]) / abs(fd))
    assert worst <= 1e-4
    record_acceptance(f"criterion 8 (gradient check): PASS — max relative error {worst:.2e}")


def test_criterion_9_kernel_interpolation_and_greedy():
    """Full-center interpolation is exact; the greedy residual decays monotonically."""
    rng = np.random.default_rng(5)
    xs = rng.uniform(size=(30, 3))
    ys = np.column_stack([np.sin(2 * xs[:, 0]) + xs[:, 1], xs[:, 2] ** 2, xs.sum(axis=1)])
    model = vkoga_fit(xs, ys, KernelConfig())
    interp_err = np.max(np.abs(model.predict(xs) - ys))
    assert interp_err <= 1e-8
    decay = rkhs_residual_decay(model)
    assert np.all(np.diff(decay) <= 1e-12)
    record_acceptance(
        "criterion 9 (kernel interpolation & greedy): PASS — "
        f"interpolation error {interp_err:.1e}, residual decay {decay[0]:.2e} -> {decay[-1]:.1e}"
    )


def test_criterion_10_hapod_bound():
    """Chunked compression meets the mean-square budget with near-optimal rank."""
    import scipy.sparse as sp

    rng = np.random.default_rng(17)
    m = rng.normal(size=(20, 20))
    gram = sp.csr_matrix(m @ m.T + 20 * np.eye(20))
    energy = EnergyFactor(gram)
    data = rng.normal(size=(20, 50))
    eps = 1e-6
    hapod = IncrementalHapod(20, HapodConfig(eps, chunk=10), n_expected=50)
    for start in range(0, 50, 10):
        hapod.feed(energy.whiten_states(data[:, start : start + 10]))
    modes = energy.unwhiten_states(hapod.finalize()[0])

    proj = modes @ (modes.T @ (gram @ data))
    defect = data - proj
    mean_sq = float(np.mean(np.einsum("ij,ij->j", defect, gram @ defect)))
    assert mean_sq <= eps**2

    reference_modes, _ = pod_modes(data, gram, eps)
    assert modes.shape[1] <= reference_modes.shape[1] + 2
    record_acceptance(
        "criterion 10 (chunked POD bound): PASS — mean-square error "
        f"{mean_sq:.2e} <= {eps**2:.0e}, modes {modes.shape[1]} vs reference {reference_modes.shape[1]}"
    )
