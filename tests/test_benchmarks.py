"""Benchmark function values and registry behaviour."""

import numpy as np
import pytest

from fdo_mlp.benchmarks import (benchmark_names, get_benchmark, rastrigin,
                                rosenbrock, sphere)


class TestSphere:
    def test_global_minimum(self):
        assert sphere([0.0, 0.0, 0.0]) == 0.0

    def test_values(self):
        assert sphere([1.0, 2.0]) == 5.0
        assert sphere([-3.0]) == 9.0
        assert sphere([[1.0, 2.0], [0.0, -1.0]]).tolist() == [5.0, 1.0]
        assert sphere([[-3.0], [2.0], [0.0]]).tolist() == [9.0, 4.0, 0.0]


class TestRastrigin:
    def test_global_minimum(self):
        assert rastrigin([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_unit_point(self):
        # cos(2*pi) = 1, so 10 + 1 - 10.
        assert rastrigin([1.0]) == pytest.approx(1.0, abs=1e-10)

    def test_half_point(self):
        # cos(pi) = -1, so 10 + 0.25 + 10.
        assert rastrigin([0.5]) == pytest.approx(20.25, abs=1e-12)
        np.testing.assert_allclose(rastrigin([[0.5], [1.0], [0.0]]),
                                   [20.25, 1.0, 0.0], atol=1e-10)


class TestRosenbrock:
    def test_global_minimum(self):
        assert rosenbrock([1.0, 1.0]) == 0.0

    def test_values(self):
        assert rosenbrock([0.0, 0.0]) == 1.0
        assert rosenbrock([1.0, 2.0]) == 100.0
        assert rosenbrock([[0.0, 0.0], [1.0, 2.0], [1.0, 1.0]]).tolist() == [
            1.0, 100.0, 0.0]

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            rosenbrock([1.0])
        with pytest.raises(ValueError):
            rosenbrock([[1.0], [2.0]])


class TestRegistry:
    def test_names(self):
        assert benchmark_names() == ["rastrigin", "rosenbrock", "sphere"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("ackley", 3)

    def test_minimum_at_argmin(self):
        minimizers = {"sphere": 0.0, "rastrigin": 0.0, "rosenbrock": 1.0}
        assert sorted(minimizers) == benchmark_names()
        for name, fill in minimizers.items():
            bench = get_benchmark(name, 6)
            assert abs(bench.evaluate(np.full(6, fill))) < 1e-12

    def test_deterministic_and_pure(self):
        """Also: a (k, d) matrix gives each row's own value, bit for bit."""
        rng = np.random.default_rng(3)
        for name in benchmark_names():
            for dimension in (1 if name != "rosenbrock" else 2, 5, 10, 741):
                bench = get_benchmark(name, dimension)
                for _ in range(20):
                    x = rng.uniform(*bench.default_bounds, dimension)
                    assert bench.evaluate(x) == bench.evaluate(x.copy())
                for k in (1, 2, 40):
                    matrix = rng.uniform(*bench.default_bounds, (k, dimension))
                    values = bench.evaluate(matrix)
                    assert values.shape == (k,)
                    assert values.tolist() == [bench.evaluate(row) for row in matrix]

    def test_rosenbrock_dimension_guard(self):
        with pytest.raises(ValueError):
            get_benchmark("rosenbrock", 1)
