import pickle

import numpy as np
import pytest

from certrom import (
    OutputSignal,
    ParameterBox,
    TimeGrid,
    Trajectory,
    l2_time_norm,
    linf_time_norm,
    time_average,
)


def signal(values, t_end=1.0):
    values = np.asarray(values, dtype=float)
    return OutputSignal(TimeGrid(t_end, values.size), values)


class TestTimeGrid:
    def test_nodes_and_step(self):
        grid = TimeGrid(5.0, 11)
        assert grid.dt == pytest.approx(0.5)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 5.0
        assert np.all(np.diff(grid.nodes) > 0)

    def test_nodes_cached_read_only_and_equal_to_linspace(self):
        grid = TimeGrid(5.0, 1001)
        nodes = grid.nodes
        assert grid.nodes is nodes and not nodes.flags.writeable
        assert np.array_equal(nodes, np.linspace(0.0, 5.0, 1001))
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid and not copy.nodes.flags.writeable
        assert np.array_equal(copy.nodes, nodes)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 5)


class TestL2TimeNorm:
    def test_zero_signal(self):
        assert l2_time_norm(signal(np.zeros(7))) == 0.0

    def test_constant_one(self):
        # left-endpoint rule on [0, 1] with 11 nodes: sqrt(10 * 0.1 * 1)
        assert l2_time_norm(signal(np.ones(11))) == pytest.approx(1.0, abs=1e-14)

    def test_matches_direct_sum_oracle(self):
        grid = TimeGrid(1.0, 101)
        s = OutputSignal(grid, grid.nodes.copy())
        oracle = np.sqrt(sum(grid.dt * t**2 for t in grid.nodes[:-1]))
        assert l2_time_norm(s) == pytest.approx(oracle, rel=1e-15)

    def test_nonnegative_zero_iff_vanishing_head(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=9)
            assert l2_time_norm(signal(v)) >= 0.0
        # the final node does not enter the quadrature
        v = np.zeros(9)
        v[-1] = 3.0
        assert l2_time_norm(signal(v)) == 0.0
        v[3] = 1e-8
        assert l2_time_norm(signal(v)) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=(2, 33))
            lhs = l2_time_norm(signal(a + b))
            rhs = l2_time_norm(signal(a)) + l2_time_norm(signal(b))
            assert lhs <= rhs * (1 + 1e-12)


class TestLinfTimeNorm:
    def test_zero(self):
        assert linf_time_norm(signal(np.zeros(4))) == 0.0

    def test_sign_symmetry(self):
        assert linf_time_norm(signal([-3.0, 1.0, 2.0])) == 3.0

    def test_scan_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=1000)
        best = 0.0
        for x in v:
            best = max(best, abs(x))
        assert linf_time_norm(signal(v)) == best


class TestTimeAverage:
    def test_constant(self):
        assert time_average(signal(np.full(10, 2.5)), (0.2, 0.7)) == pytest.approx(2.5)

    def test_full_window(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=17)
        assert time_average(signal(v), (0.0, 1.0)) == pytest.approx(np.mean(v))

    def test_tail_window_matches_filter_oracle(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(1.0, 1000)
        v = rng.normal(size=1000)
        s = OutputSignal(grid, v)
        mask = (grid.nodes >= 0.9) & (grid.nodes <= 1.0)
        assert time_average(s, (0.9, 1.0)) == pytest.approx(np.mean(v[mask]), rel=1e-14)

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty time window"):
            time_average(signal(np.ones(5)), (0.26, 0.49))


class TestParameterBox:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ParameterBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_contains_and_clip(self):
        box = ParameterBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert box.contains([0.5, 0.0])
        assert not box.contains([1.5, 0.0])
        assert np.allclose(box.clip([2.0, -3.0]), [1.0, -1.0])
        with pytest.raises(ValueError):
            box.validate([2.0, 0.0])

    def test_sampling_deterministic(self):
        box = ParameterBox(np.array([0.0]), np.array([1.0]))
        a = [box.sample(np.random.default_rng(7)) for _ in range(3)]
        b = [box.sample(np.random.default_rng(7)) for _ in range(3)]
        assert np.array_equal(a, b)
        assert all(box.contains(x) for x in a)

    def test_unit_map(self):
        box = ParameterBox(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(box.to_unit([1.0, 4.0]), [0.0, 1.0])


class TestContainers:
    def test_trajectory_row_count(self):
        grid = TimeGrid(1.0, 5)
        Trajectory(grid, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros((4, 3)))

    def test_signal_length(self):
        with pytest.raises(ValueError):
            OutputSignal(TimeGrid(1.0, 5), np.zeros(4))

    def test_signal_subtraction_needs_same_grid(self):
        a = signal(np.ones(5))
        b = OutputSignal(TimeGrid(2.0, 5), np.ones(5))
        with pytest.raises(ValueError):
            a - b
        c = signal(np.full(5, 0.25))
        assert np.allclose((a - c).values, 0.75)
