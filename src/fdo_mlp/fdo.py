"""Fitness Dependent Optimizer (FDO) for box-constrained minimization.

FDO keeps a population of scouts, each holding one candidate solution. Every
iteration each scout proposes a displacement ("pace"): its magnitude scales
with the fitness weight, the ratio of the global best objective value to the
scout's own value, and its direction is randomized per dimension. A proposal
is accepted only when it strictly improves the scout; otherwise the
displacement behind the scout's last accepted move is retried, and failing
that the scout keeps its current state. The global best is replaced only by
a strictly better solution, so the recorded convergence curve never
increases.

The swarm is held as arrays with one row per scout (:class:`Swarm`), and
each iteration runs in two batched phases. First every scout's pace is
computed from one ``(population, dimension)`` block of draws and the global
best as of the start of the iteration, and every first proposal is
evaluated in scout order. Then the stored pace is retried for the rejected
scouts only, again in scout order. Finally the global best is refreshed.

The objective is treated as a black box ``vector -> float`` and is called
one row at a time. No scout's proposal depends on another scout's outcome
within an iteration, so the two-phase schedule gives exactly the results,
random stream and evaluation count of moving the scouts one after another
(proposal, then retry, then the next scout). Only the order of the calls
within an iteration differs from that schedule (all first proposals, then
the retries), which an impure objective alone can notice. The rows passed
in are views into the swarm's arrays: an objective must neither modify nor
keep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

Objective = Callable[[np.ndarray], float]

#: Seed used whenever the caller does not supply one, so quickstart runs are
#: reproducible by default.
DEFAULT_SEED = 42


class EvaluationError(RuntimeError):
    """Raised when the objective returns a non-finite value.

    Non-finite objective values are treated as bugs in the fitness function
    rather than as infinitely bad solutions, so they surface immediately.
    The offending position (and, when raised from :func:`optimize`, the
    iteration index) is attached for diagnosis.
    """

    def __init__(self, message: str, position: np.ndarray | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.position = position
        self.iteration = iteration


@dataclass(eq=False)
class Swarm:
    """Every scout as one row of ``positions`` ``(P, d)``, with its cached
    objective value in ``fitness`` ``(P,)`` and the displacement behind its
    last accepted move in ``last_pace`` ``(P, d)`` (zero until the first
    one), plus the global best found so far as a position ``(d,)`` owned by
    the swarm and its objective value."""

    positions: np.ndarray
    fitness: np.ndarray
    last_pace: np.ndarray
    best_position: np.ndarray
    best_fitness: float


@dataclass(frozen=True)
class FdoConfig:
    """Optimizer settings.

    Args:
        bounds: One ``(lower, upper)`` pair per dimension. ``lower == upper``
            pins that coordinate; ``lower > upper`` is rejected.
        population: Number of scouts. Fewer than five noticeably hurts
            search quality; one is the hard minimum.
        max_iterations: Iteration budget. Zero is allowed and returns the
            best of the initial population.
        weight_factor: Trades convergence pressure against coverage, in
            [0, 1]. Zero (the default) gives the most stable search.
        seed: Seed for the random stream when none is passed explicitly.
    """

    bounds: tuple[tuple[float, float], ...]
    population: int = 30
    max_iterations: int = 100
    weight_factor: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) == 0:
            raise ValueError("bounds must cover at least one dimension")
        for i, (lo, hi) in enumerate(bounds):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"bounds for dimension {i} must be finite")
            if lo > hi:
                raise ValueError(f"bounds for dimension {i} are reversed: ({lo}, {hi})")
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not 0.0 <= self.weight_factor <= 1.0:
            raise ValueError("weight_factor must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @cached_property
    def _box(self) -> np.ndarray:
        """The bounds as a read-only ``(d, 2)`` array, built once."""
        box = np.array(self.bounds, dtype=float)
        box.flags.writeable = False
        return box


@dataclass(frozen=True)
class ConvergenceCurve:
    """Global-best objective value after each iteration, oldest first."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def is_non_increasing(self) -> bool:
        return all(b <= a for a, b in zip(self.values, self.values[1:]))


@dataclass(eq=False)
class OptimizationResult:
    best_position: np.ndarray
    best_fitness: float
    curve: ConvergenceCurve
    iterations_run: int
    evaluations: int


def uniform_bounds(lower: float, upper: float, dimension: int) -> tuple[tuple[float, float], ...]:
    """Repeat one (lower, upper) pair across ``dimension`` dimensions."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    return tuple((float(lower), float(upper)) for _ in range(dimension))


def clamp_to_bounds(position: np.ndarray,
                    bounds: Sequence[tuple[float, float]] | np.ndarray) -> np.ndarray:
    """Project every component of a ``(d,)`` position, or of every row of a
    ``(k, d)`` matrix of positions, into its [lower, upper] range."""
    position = np.asarray(position, dtype=float)
    box = np.asarray(bounds, dtype=float)
    d = box.shape[0]
    if position.ndim not in (1, 2) or position.shape[-1] != d:
        raise ValueError(f"position has shape {position.shape} but bounds cover "
                         f"{d} dimensions: expected ({d},) or (k, {d})")
    return np.clip(position, box[:, 0], box[:, 1])


def fitness_weight(fitness: np.ndarray | float, global_best_fitness: float,
                   wf: float) -> np.ndarray:
    """Fitness weight fw = |global best / fitness| - wf, per scout.

    A zero fitness gives inf (or NaN when the global best is zero too).
    Both lie outside the open interval (0, 1), so such a scout takes the
    random-pace rule of :func:`compute_pace`; no warning is raised.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(global_best_fitness / np.asarray(fitness, dtype=float)) - wf


def compute_pace(positions: np.ndarray, best_position: np.ndarray,
                 fw: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Displacement of every scout (row) given its fitness weight.

    ``r`` holds one draw in [-1, 1] per scout and dimension. For fw outside
    the open interval (0, 1) the pace is the scout's own position scaled
    componentwise by r. Otherwise each component moves toward the global
    best (r < 0) or away from it (r >= 0) by fw times the distance along
    that axis.
    """
    if positions.shape[1:] != best_position.shape:
        raise ValueError("scouts and global best have different dimensions")
    toward = (0.0 < fw) & (fw < 1.0)
    pace = positions - best_position
    # Random-rule rows are overwritten below; a zero factor keeps their
    # inf or NaN fw out of the arithmetic.
    pace *= np.where(toward, fw, 0.0)[:, None]
    np.negative(pace, out=pace, where=r < 0.0)
    np.multiply(positions, r, out=pace, where=~toward[:, None])
    return pace


def _evaluate(objective: Objective, position: np.ndarray) -> float:
    value = float(objective(position))
    if not math.isfinite(value):
        raise EvaluationError(
            f"objective returned non-finite value {value!r}",
            position=position.copy())
    return value


def _evaluate_rows(objective: Objective, rows: np.ndarray) -> np.ndarray:
    """Objective value of every row, evaluated in row order."""
    return np.array([_evaluate(objective, row) for row in rows])


def _refresh_best(swarm: Swarm) -> None:
    """Replace the global best by the first scout strictly better than it."""
    i = int(np.argmin(swarm.fitness))
    if swarm.fitness[i] < swarm.best_fitness:
        swarm.best_position = swarm.positions[i].copy()
        swarm.best_fitness = float(swarm.fitness[i])


def initialize_swarm(config: FdoConfig, objective: Objective,
                     rng: np.random.Generator) -> Swarm:
    """Sample the initial population uniformly inside the box.

    Every scout's fitness is evaluated and its stored pace starts at zero.
    The global best is the first scout with the lowest fitness.
    """
    box = config._box
    shape = (config.population, config.dimension)
    positions = rng.uniform(box[:, 0], box[:, 1], shape)
    fitness = _evaluate_rows(objective, positions)
    swarm = Swarm(positions, fitness, np.zeros(shape), positions[0].copy(),
                  float(fitness[0]))
    _refresh_best(swarm)
    return swarm


def _first_proposals(swarm: Swarm, objective: Objective, config: FdoConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Phase one: every scout proposes position + pace and keeps it, with
    its pace, on strict improvement. Returns the rejected scouts' indices."""
    fw = fitness_weight(swarm.fitness, swarm.best_fitness, config.weight_factor)
    pace = compute_pace(swarm.positions, swarm.best_position, fw,
                        rng.uniform(-1.0, 1.0, swarm.positions.shape))
    candidates = clamp_to_bounds(swarm.positions + pace, config._box)
    values = _evaluate_rows(objective, candidates)
    accepted = values < swarm.fitness
    rows = accepted[:, None]
    np.copyto(swarm.positions, candidates, where=rows)
    np.copyto(swarm.last_pace, pace, where=rows)
    np.copyto(swarm.fitness, values, where=accepted)
    return np.flatnonzero(~accepted)


def _retries(swarm: Swarm, objective: Objective, config: FdoConfig,
             rejected: np.ndarray) -> None:
    """Phase two: each rejected scout retries its stored pace and moves on
    strict improvement; the pace in use is the stored one, so it stays."""
    retries = clamp_to_bounds(
        swarm.positions[rejected] + swarm.last_pace[rejected], config._box)
    values = _evaluate_rows(objective, retries)
    better = values < swarm.fitness[rejected]
    moved = rejected[better]
    swarm.positions[moved] = retries[better]
    swarm.fitness[moved] = values[better]


def step(swarm: Swarm, objective: Objective, config: FdoConfig,
         rng: np.random.Generator) -> int:
    """Advance every scout by one move attempt and refresh the global best.

    Per scout: propose position + pace and accept it only on strict
    improvement, storing the pace for reuse; on rejection retry the stored
    pace; on a second rejection the scout keeps its state. Paces use the
    global best as of the start of the iteration; the global best itself is
    refreshed only after all scouts have moved, and ties keep the incumbent.
    The swarm is updated in place; returns the number of evaluations made.
    """
    rejected = _first_proposals(swarm, objective, config, rng)
    if rejected.size:
        _retries(swarm, objective, config, rejected)
    _refresh_best(swarm)
    return len(swarm.fitness) + rejected.size


def optimize(objective: Objective, config: FdoConfig,
             rng: np.random.Generator | None = None) -> OptimizationResult:
    """Run FDO for ``config.max_iterations`` iterations.

    The curve records the global-best value after each iteration, so its
    length equals the number of iterations run. Evaluation errors raised
    mid-run carry the iteration index. When ``rng`` is omitted a fresh
    generator is seeded from ``config.seed``; identical config and seed give
    identical results.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    swarm = initialize_swarm(config, objective, rng)
    evaluations = config.population
    values: list[float] = []
    for iteration in range(config.max_iterations):
        try:
            evaluations += step(swarm, objective, config, rng)
        except EvaluationError as err:
            err.iteration = iteration
            raise
        values.append(swarm.best_fitness)
    return OptimizationResult(
        best_position=swarm.best_position.copy(),
        best_fitness=swarm.best_fitness,
        curve=ConvergenceCurve(tuple(values)),
        iterations_run=len(values),
        evaluations=evaluations,
    )
