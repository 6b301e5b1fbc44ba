"""The scoped OpenBLAS thread count: queries, drivers and full-order solves
run at ``blas.THREADS`` threads, and the caller's count is back afterwards."""

import io
import pickle

import numpy as np
import pytest

from certrom import FullOrderModel, NelderMeadConfig, NumericalError, make_adaptive_model, monte_carlo, optimize_misfit
from certrom import blas
from certrom.rb import RbRom
from conftest import faulty

OUTER = 2  # the caller's count, set through the shim so that restoring it shows


def counts() -> list:
    return [getter() for _, _, getter in blas.libraries()]


@pytest.fixture()
def outer():
    """Every loaded OpenBLAS at OUTER threads for the test, then as before."""
    libs = blas.libraries()
    if not libs:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    assert OUTER != blas.THREADS
    before = counts()
    for _, setter, _ in libs:
        setter(OUTER)
    assert counts() == [OUTER] * len(libs)
    yield counts()
    for (_, setter, _), count in zip(libs, before):
        setter(count)


def recording(monkeypatch, owner, name, seen: list):
    """Patch owner.name to record the thread counts at each call."""
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def assert_scoped(seen: list, outer: list):
    assert seen and all(c == [blas.THREADS] * len(outer) for c in seen)
    assert counts() == outer


def test_query(heat_problem, outer, monkeypatch):
    model = make_adaptive_model(heat_problem, eps=1e-2)
    seen = []
    recording(monkeypatch, RbRom, "est_output_for", seen)
    recording(monkeypatch, RbRom, "est_state_for", seen)
    model.query(np.array([1.3, 0.8]))
    assert_scoped(seen, outer)
    pickle.dumps(model)  # the shim's handles live in the blas module, not on the model


def test_monte_carlo(heat_problem, outer, monkeypatch):
    model = make_adaptive_model(heat_problem, eps=1e-2)
    seen = []
    recording(monkeypatch, model, "query", seen)  # before the query's own scope
    monte_carlo(model, 3, (0.5, 1.0))
    assert_scoped(seen, outer)


def test_optimize_misfit(heat_problem, outer, monkeypatch):
    fom = FullOrderModel(heat_problem)
    reference = fom.eval_output(heat_problem.box.center)
    seen = []
    recording(monkeypatch, fom, "eval_output", seen)  # before the solve's own scope
    optimize_misfit(fom, reference, NelderMeadConfig(initial_point=np.array([0.7, 1.6]), max_evals=4))
    assert_scoped(seen, outer)


def test_full_order_solve(heat_problem, outer, monkeypatch):
    fom = FullOrderModel(heat_problem)
    seen = []
    recording(monkeypatch, fom, "iter_state", seen)
    fom.eval_state(heat_problem.box.center)
    assert_scoped(seen, outer)


def test_restored_after_a_query_raises(heat_problem, outer, monkeypatch):
    model = make_adaptive_model(heat_problem, eps=1e-6)
    bad = np.array([1.3, 0.8])
    fired = faulty(monkeypatch, model.rb_generator.fom, "iter_state", lambda mu: np.array_equal(mu, bad))
    with pytest.raises(NumericalError, match="injected fault"):
        model.query(bad)
    assert len(fired) == 1
    assert counts() == outer


def test_nested_scope_restores_the_outer_value(outer):
    inside = [blas.THREADS] * len(outer)
    with blas.scope():
        with blas.scope():
            assert counts() == inside
        assert counts() == inside
    assert counts() == outer


def test_discovery_without_openblas_finds_nothing(monkeypatch):
    monkeypatch.setattr(blas, "open", lambda path: io.StringIO("7f00-7f01 r-xp 0 00:00 0 /usr/lib/libm.so.6\n"),
                        raising=False)
    assert blas.libraries.__wrapped__() == ()


def test_scope_without_libraries_is_a_no_op(outer, monkeypatch):
    libs = blas.libraries()
    monkeypatch.setattr(blas, "libraries", lambda: ())
    ran = []
    with blas.scope():
        ran.append([getter() for _, _, getter in libs])
    assert ran == [outer]
    assert [getter() for _, _, getter in libs] == outer


def test_an_openblas_build_is_controlled():
    """A wheel whose thread symbols were renamed would leave the shim a
    silent no-op and lose the one-thread gain."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy reports no BLAS build configuration")
    if "openblas" not in str(name).lower():
        pytest.skip(f"numpy is built against {name}")
    assert blas.libraries()
