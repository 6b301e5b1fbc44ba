import numpy as np
import pytest

from certrom import (
    FullOrderModel,
    NelderMeadConfig,
    ParameterBox,
    StagnationConfig,
    l2_time_norm,
    make_adaptive_model,
    nelder_mead,
    optimize_misfit,
)


class TestNelderMead:
    def test_convex_1d(self):
        box = ParameterBox(np.array([-5.0]), np.array([5.0]))
        res = nelder_mead(
            lambda x: (x[0] - 1.0) ** 2,
            box,
            NelderMeadConfig(initial_point=[0.0], xatol=1e-8, fatol=1e-14, max_evals=500),
        )
        assert abs(res.x[0] - 1.0) <= 1e-6
        assert res.converged

    def test_corner_minimum_clipped(self):
        box = ParameterBox(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        res = nelder_mead(
            lambda x: (x[0] + 6.0) ** 2 + (x[1] + 7.0) ** 2,
            box,
            NelderMeadConfig(initial_point=[3.0, 3.0], fatol=1e-12, max_evals=500),
        )
        assert np.allclose(res.x, [-5.0, -5.0], atol=1e-6)

    def test_rosenbrock(self):
        box = ParameterBox(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        rosen = lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        res = nelder_mead(
            rosen,
            box,
            NelderMeadConfig(initial_point=[-1.2, 1.0], fatol=1e-12, max_evals=500),
        )
        assert res.fun < 1e-6
        assert res.n_evals <= 500

    def test_budget_exhaustion_flagged(self):
        box = ParameterBox(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        res = nelder_mead(
            lambda x: np.sum(x**2),
            box,
            NelderMeadConfig(initial_point=[4.0, 4.0], max_evals=5),
        )
        assert not res.converged
        assert res.n_evals >= 5

    def test_empty_budget_rejected(self):
        # a budget of 0 would still evaluate the whole seed simplex
        with pytest.raises(ValueError, match="budget"):
            NelderMeadConfig(initial_point=[4.0, 4.0], max_evals=0)

    @pytest.mark.parametrize(
        "tolerances",
        [{"xatol": 0.0}, {"fatol": -1e-7}, {"xatol": np.nan}, {"fatol": np.nan}],
        ids=["xatol-zero", "fatol-negative", "xatol-nan", "fatol-nan"],
    )
    def test_tolerances_must_be_positive(self, tolerances):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            NelderMeadConfig(initial_point=[4.0, 4.0], **tolerances)

    @pytest.mark.parametrize("budget", [2.5, True], ids=["fraction", "bool"])
    def test_budget_must_be_a_count(self, budget):
        with pytest.raises(ValueError, match="budget"):
            NelderMeadConfig(initial_point=[4.0, 4.0], max_evals=budget)


class TestOptimizeMisfit:
    def test_start_at_reference_parameter(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        mu_ref = heat_problem.box.center
        reference = fom.eval_output(mu_ref)
        eps = 1e-2
        model = make_adaptive_model(heat_problem, eps=eps, ml_backend="vkoga")
        report = optimize_misfit(
            model, reference, NelderMeadConfig(initial_point=mu_ref, max_evals=12)
        )
        # the very first evaluation enriches at the reference parameter and
        # answers with a certified misfit inside the band around zero
        assert report.records[0].value <= 2 * eps

    def test_every_evaluation_certified(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        reference = fom.eval_output(np.array([1.3, 0.9]))
        model = make_adaptive_model(heat_problem, eps=5e-3, ml_backend="vkoga")
        report = optimize_misfit(
            model, reference, NelderMeadConfig(initial_point=[1.0, 1.5], max_evals=30)
        )
        rng = np.random.default_rng(0)
        sample = rng.choice(len(report.records), size=5, replace=False)
        for i in sample:
            mu = report.records[i].mu
            sig = model.eval_output(mu)
            err = l2_time_norm(fom.eval_output(mu) - sig)
            assert err <= model.eps * (1 + 1e-10)

    def test_tolerance_sequence_strictly_divided(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        reference = fom.eval_output(np.array([1.2, 1.1]))
        eps0 = l2_time_norm(reference)
        model = make_adaptive_model(heat_problem, eps=eps0, ml_backend="vkoga")
        stagnation = StagnationConfig(n_av=4, n_stag=4, eps_slope=-1e-15, eps_slope_rel=1e-3)
        report = optimize_misfit(
            model,
            reference,
            NelderMeadConfig(initial_point=[1.0, 1.5], max_evals=120),
            stagnation=stagnation,
        )
        eps_values = [e["eps"] for e in report.tolerance_events]
        current = eps0
        for eps in eps_values:
            assert eps == pytest.approx(current / 10.0, rel=1e-14)
            current = eps
        assert model.eps == pytest.approx(current, rel=1e-14)

    def test_fom_reference_mode_is_deterministic(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        reference = fom.eval_output(np.array([1.4, 0.8]))
        cfg = NelderMeadConfig(initial_point=[1.0, 1.5], max_evals=40)
        a = optimize_misfit(fom, reference, cfg)
        b = optimize_misfit(fom, reference, cfg)
        assert np.array_equal(a.final_mu, b.final_mu)
        assert a.final_objective == b.final_objective
        assert a.n_evals == b.n_evals

    def test_stagnation_requires_adaptive_model(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        reference = fom.eval_output(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            optimize_misfit(
                fom,
                reference,
                NelderMeadConfig(initial_point=[1.0, 1.0], max_evals=5),
                stagnation=StagnationConfig(n_av=4),
            )


class TestAdaptiveRunDeterminism:
    def test_identical_stacks_reproduce_the_path(self, heat_problem):
        fom = FullOrderModel(heat_problem)
        reference = fom.eval_output(np.array([1.1, 1.3]))

        def run():
            model = make_adaptive_model(heat_problem, eps=1e-2, ml_backend="vkoga")
            return optimize_misfit(
                model, reference, NelderMeadConfig(initial_point=[0.7, 1.8], max_evals=40)
            )

        a, b = run(), run()
        assert np.array_equal(a.final_mu, b.final_mu)
        assert a.final_objective == b.final_objective
        assert a.n_evals == b.n_evals
        assert [r.tier for r in a.records] == [r.tier for r in b.records]
        assert [r.value for r in a.records] == [r.value for r in b.records]
