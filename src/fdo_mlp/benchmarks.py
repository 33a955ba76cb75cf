"""Classical test objectives for validating the optimizer.

Three shapes cover the cases that matter for a sanity check: one convex
bowl (sphere), one highly multimodal surface (rastrigin), and one curved
narrow valley (rosenbrock). Each maps one ``(d,)`` point to a scalar and a
``(k, d)`` matrix to one value per row, so it serves directly as an FDO
objective. Rows are reduced by ``np.add.reduce``, the ufunc reduction that
``np.sum`` wraps in Python: the same bits at a fraction of the cost per call,
which counts for an optimizer that calls the objective every phase. The
registry is a plain dict so more functions can be added without touching
the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class BenchmarkFunction:
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    default_bounds: tuple[float, float]


def sphere(x):
    """Sum of squared components; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)


def rastrigin(x):
    """10*d + sum(x_i^2 - 10*cos(2*pi*x_i)); minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def rosenbrock(x):
    """Sum of 100*(x_{i+1} - x_i^2)^2 + (1 - x_i)^2; minimum 0 at all ones."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("rosenbrock needs at least 2 dimensions")
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2, axis=-1)


_REGISTRY: dict[str, tuple[Callable[[np.ndarray], np.ndarray], tuple[float, float], int]] = {
    # name: (function, default bounds, minimum dimension)
    "sphere": (sphere, (-100.0, 100.0), 1),
    "rastrigin": (rastrigin, (-5.12, 5.12), 1),
    "rosenbrock": (rosenbrock, (-5.0, 10.0), 2),
}


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str, dimension: int) -> BenchmarkFunction:
    """Look up a registered benchmark, checking that it takes ``dimension``."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}")
    func, bounds, min_dim = _REGISTRY[name]
    if dimension < min_dim:
        raise ValueError(f"{name} needs dimension >= {min_dim}")
    return BenchmarkFunction(name=name, evaluate=func, default_bounds=bounds)
