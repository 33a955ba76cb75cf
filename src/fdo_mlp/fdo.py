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
evaluated. Then the stored pace is retried for the rejected scouts only.
Finally the global best is refreshed.

The objective is a black box from a ``(k, d)`` matrix of positions, one
row per scout, to ``k`` values, and is called once per phase: once for the
initial population, then once for the first proposals and at most once for
the retries of each iteration. The matrix may be a view into the swarm's
arrays: an objective must neither modify nor keep it. A row's value must
depend on that row alone, and the same row gives the same value on every
call.

A scout whose retry was rejected and that has not moved since retries the
same clamped position against the same fitness, so its retry is not passed
to the objective again: the outcome, a rejection, is known. Such a retry
still counts as an evaluation of FDO's rule. No scout's proposal depends
on another scout's outcome within an iteration, so the two-phase schedule
gives exactly the results, random stream and evaluation count of moving
the scouts one after another (proposal, then retry, then the next scout),
and passes the objective only the retries that such a run could not answer
from a scout's record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]

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
    the swarm and its objective value.

    ``retry_open`` ``(P,)`` is False for a scout whose retry was evaluated
    and rejected from its current position with its current pace, so the
    retry's value is known not to improve it; True means the retry must be
    evaluated."""

    positions: np.ndarray
    fitness: np.ndarray
    last_pace: np.ndarray
    best_position: np.ndarray
    best_fitness: float
    retry_open: np.ndarray


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
        # _limits: the lower and the upper bounds as two read-only,
        # contiguous (d,) rows, which every step clamps against
        rows = tuple(np.array(column, dtype=float) for column in zip(*bounds))
        for row in rows:
            row.flags.writeable = False
        object.__setattr__(self, "_limits", rows)

    @property
    def dimension(self) -> int:
        return len(self.bounds)


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


def _clamp_in_place(rows: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray) -> np.ndarray:
    """Clamp ``rows`` into [lower, upper] in place and return it.

    Against contiguous ``(d,)`` bound rows this costs a fraction of
    ``np.clip`` against the strided columns of a ``(d, 2)`` box. It gives
    the bits of ``np.clip(rows, lower, upper)`` on NaN, infinities,
    subnormals and signed zeros, which ``tests/test_fdo.py`` pins.
    """
    np.maximum(rows, lower, out=rows)
    return np.minimum(rows, upper, out=rows)


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

    ``positions`` is ``(P, d)``, ``best_position`` ``(d,)``, ``fw`` holds
    one weight per scout ``(P,)`` and ``r`` one draw in [-1, 1] per scout
    and dimension ``(P, d)``. The shapes are not checked: the step's own
    arrays always have them. For fw outside the open interval (0, 1) the
    pace is the scout's own position scaled componentwise by r. Otherwise
    each component moves toward the global best (r < 0) or away from it
    (r >= 0) by fw times the distance along that axis.
    """
    toward = (0.0 < fw) & (fw < 1.0)
    # -fw where r < 0, else fw; + 0.0 reads a -0 draw as r >= 0. Random-rule
    # rows get a zero factor, keeping their inf or NaN fw out of the
    # arithmetic; they are overwritten below.
    factor = r + 0.0
    np.copysign(np.where(toward, fw, 0.0)[:, None], factor, out=factor)
    pace = positions - best_position
    pace *= factor
    np.multiply(positions, r, out=pace, where=~toward[:, None])
    return pace


def _evaluate_rows(objective: Objective, rows: np.ndarray) -> np.ndarray:
    """Objective value of every row of ``rows``, from one call.

    The values are copied into a fresh array, so an objective may reuse its
    result buffer. Any shape other than one value per row is a contract
    error; the first non-finite value raises :class:`EvaluationError` with
    its row's position.
    """
    values = np.array(objective(rows), dtype=float)
    if values.shape != (len(rows),):
        raise ValueError(
            f"objective returned shape {values.shape} for positions of shape "
            f"{rows.shape}: expected ({len(rows)},), one value per row")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(
            f"objective returned non-finite value {float(values[i])!r}",
            position=rows[i].copy())
    return values


def _refresh_best(swarm: Swarm) -> None:
    """Replace the global best by the first scout strictly better than it."""
    i = int(swarm.fitness.argmin())
    if swarm.fitness[i] < swarm.best_fitness:
        swarm.best_position = swarm.positions[i].copy()
        swarm.best_fitness = float(swarm.fitness[i])


def initialize_swarm(config: FdoConfig, objective: Objective,
                     rng: np.random.Generator) -> Swarm:
    """Sample the initial population uniformly inside the box.

    Every scout's fitness is evaluated, its stored pace starts at zero and
    its retry is open. The global best is the first scout with the lowest
    fitness.
    """
    lower, upper = config._limits
    shape = (config.population, config.dimension)
    positions = rng.uniform(lower, upper, shape)
    fitness = _evaluate_rows(objective, positions)
    swarm = Swarm(positions, fitness, np.zeros(shape), positions[0].copy(),
                  float(fitness[0]), np.ones(config.population, dtype=bool))
    _refresh_best(swarm)
    return swarm


def step(swarm: Swarm, objective: Objective, config: FdoConfig,
         rng: np.random.Generator) -> int:
    """Advance every scout by one move attempt and refresh the global best.

    Per scout: propose position + pace and accept it only on strict
    improvement, storing the pace for reuse and reopening the scout's retry;
    on rejection retry the stored pace; on a second rejection, ties
    included, the scout keeps its state and its retry closes until it next
    accepts a proposal. Paces use the global best as of the start of the
    iteration; the global best itself is refreshed only after all scouts
    have moved, and ties keep the incumbent. A closed retry is not passed
    to the objective again: its value is known and cannot improve the
    scout. The swarm is updated in place; returns the number of evaluations
    FDO's rule makes, one per scout plus one per rejected proposal, known
    retries included.
    """
    lower, upper = config._limits
    fw = fitness_weight(swarm.fitness, swarm.best_fitness, config.weight_factor)
    pace = compute_pace(swarm.positions, swarm.best_position, fw,
                        rng.uniform(-1.0, 1.0, swarm.positions.shape))
    candidates = _clamp_in_place(swarm.positions + pace, lower, upper)
    values = _evaluate_rows(objective, candidates)
    accepted = values < swarm.fitness
    rows = accepted[:, None]
    # masked copies take half the time of row indexing at d = 10 and <1 % of a d = 741 run
    np.copyto(swarm.positions, candidates, where=rows)
    np.copyto(swarm.last_pace, pace, where=rows)
    np.copyto(swarm.fitness, values, where=accepted)
    swarm.retry_open |= accepted
    rejected = ~accepted
    retrying = (rejected & swarm.retry_open).nonzero()[0]
    if retrying.size:
        # take gathers the (P, d) rows with less per-call overhead than indexing;
        # for the 1-D fitness gather below, indexing is the faster of the two
        retries = swarm.positions.take(retrying, axis=0)
        retries += swarm.last_pace.take(retrying, axis=0)
        _clamp_in_place(retries, lower, upper)
        values = _evaluate_rows(objective, retries)
        better = values < swarm.fitness[retrying]
        swarm.retry_open[retrying] = better
        moved = retrying[better]
        swarm.positions[moved] = retries[better]
        swarm.fitness[moved] = values[better]
    _refresh_best(swarm)
    return len(swarm.fitness) + int(np.count_nonzero(rejected))


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
