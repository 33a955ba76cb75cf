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


def sum_sphere(x):
    return np.sum(x * x, axis=-1)


def sum_rastrigin(x):
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def sum_rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2, axis=-1)


class TestReductionBits:
    """Each function reduces with np.add.reduce, the ufunc np.sum wraps; the
    np.sum forms above, as first written, are the bitwise reference."""

    QUIET = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310])
    LOUD = np.array([np.inf, -np.inf, np.nan, -np.nan])

    @pytest.mark.parametrize("function, reference", [
        (sphere, sum_sphere), (rastrigin, sum_rastrigin), (rosenbrock, sum_rosenbrock)])
    @pytest.mark.parametrize("shape", [(30, 10), (40, 741), (10,), (741,)])
    def test_bits_match_np_sum_form(self, function, reference, shape):
        """Signed zeros and subnormals in about a fifth of the entries, and
        infinities and NaN in about one entry of every other row; one row
        of the matrices holds signed zeros and subnormals alone. A (d,)
        position still gives a numpy float64 scalar."""
        rng = np.random.default_rng(shape[-1])
        x = rng.uniform(-5.0, 5.0, shape)
        for specials, share in ((self.QUIET, 0.2), (self.LOUD, 0.5 / shape[-1])):
            mask = rng.uniform(size=shape) < share
            x[mask] = rng.choice(specials, int(mask.sum()))
        if x.ndim == 2:
            x[0] = rng.choice(self.QUIET, shape[1])
        with np.errstate(all="ignore"):
            actual, expected = function(x), reference(x)
        assert type(actual) is type(expected)
        assert type(actual) is (np.ndarray if x.ndim == 2 else np.float64)
        assert np.shape(actual) == shape[:-1]
        np.testing.assert_array_equal(np.asarray(actual).view(np.int64),
                                      np.asarray(expected).view(np.int64))


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
