import numpy as np
import pytest
import scipy.sparse as sp

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    print(line)
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from certrom import (
    AffineFunctional,
    AffineOperator,
    FomProblem,
    FunctionalComponent,
    HeatSquareConfig,
    NumericalError,
    OperatorComponent,
    ParameterBox,
    TimeGrid,
    build_heat_square,
)


@pytest.fixture(scope="session")
def heat_problem():
    return build_heat_square(HeatSquareConfig())


@pytest.fixture(scope="session")
def small_reactive_problem():
    from certrom import ReactiveFlowConfig, build_reactive_flow

    return build_reactive_flow(ReactiveFlowConfig(nx=20, ny=8, num_time_nodes=101))


@pytest.fixture(scope="session")
def coarse_reactive():
    from certrom import ReactiveFlowConfig, build_reactive_flow

    return build_reactive_flow(ReactiveFlowConfig())  # 2,121 DoFs, K = 1001


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name to record each call before delegating; returns the record."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def faulty(monkeypatch, owner, name, fires):
    """Patch owner.name to raise NumericalError("injected fault") on the calls
    for which fires(*args) holds; returns the list of fired calls."""
    original = getattr(owner, name)
    fired = []

    def wrapped(*args, **kwargs):
        if fires(*args):
            fired.append(args)
            raise NumericalError("injected fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return fired


def scalar_problem(a=1.0, load=0.0, u0=1.0, num_nodes=11, t_end=1.0):
    """One-DoF analogue: m = 1, a(.,.;mu) = a * mu_0, l = load; useful for
    closed-form recursions."""
    mat = sp.csr_matrix(np.array([[a]]))
    eye = sp.csr_matrix(np.array([[1.0]]))
    op = AffineOperator((OperatorComponent(mat, parameter=0, symmetric=True),))
    comps = ()
    if load != 0.0:
        comps = (FunctionalComponent(np.array([load])),)
    rhs = AffineFunctional(comps, 1)
    box = ParameterBox(np.array([0.1]), np.array([10.0]))
    return FomProblem(
        operator=op,
        mass=eye,
        rhs=rhs,
        output=np.array([1.0]),
        time_grid=TimeGrid(t_end, num_nodes),
        gram=mat.copy(),
        mu_bar=np.array([1.0]),
        box=box,
        initial=np.array([u0]),
        parameter_names=("scale",),
    )
