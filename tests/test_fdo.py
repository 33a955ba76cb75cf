"""Tests for the core optimizer: pace rules, acceptance protocol, invariants."""

import tracemalloc

import numpy as np
import pytest

from fdo_mlp.fdo import (ConvergenceCurve, EvaluationError, FdoConfig, Swarm,
                         _clamp_in_place, compute_pace,
                         fitness_weight, initialize_swarm, optimize, step,
                         uniform_bounds)


def sphere(x):
    """One value per row of a (k, d) matrix; a scalar for one (d,) position."""
    return np.sum(np.asarray(x) ** 2, axis=-1)


def row_form(objective):
    """An objective written for one position, applied to each row in order."""
    return lambda positions: np.array([objective(x) for x in positions])


class FakeRng:
    """Replays queued uniform draws so branch behaviour can be pinned."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, size=None):
        value = np.asarray(self.draws.pop(0), dtype=float)
        if size is not None:
            expected = (size,) if isinstance(size, int) else tuple(size)
            if value.shape != expected:
                raise AssertionError(f"expected {expected} draws, stub has {value.shape}")
        return value


class RecordingRng:
    """A real generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def uniform(self, low, high, size=None):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)


def one_scout(position, fitness, best_position, best_fitness, last_pace=None):
    position = np.array([position], dtype=float)
    pace = np.zeros_like(position) if last_pace is None else np.array([last_pace], dtype=float)
    return Swarm(position, np.array([fitness], dtype=float), pace,
                 np.array(best_position, dtype=float), best_fitness, np.ones(1, dtype=bool))


def masked_negate_pace(positions, best_position, fw, r):
    """compute_pace as first written, with a masked negate: the bitwise
    reference for the branch-free form."""
    toward = (0.0 < fw) & (fw < 1.0)
    pace = positions - best_position
    pace *= np.where(toward, fw, 0.0)[:, None]
    np.negative(pace, out=pace, where=r < 0.0)
    np.multiply(positions, r, out=pace, where=~toward[:, None])
    return pace


def clip_clamp(position, bounds):
    """The clamp as first written, with np.clip against the columns of a
    (d, 2) box: the bitwise reference for the in-place maximum and minimum."""
    box = np.asarray(bounds, dtype=float)
    return np.clip(np.asarray(position, dtype=float), box[:, 0], box[:, 1])


def assert_same_bits(actual, expected):
    """Equal as int64 bit patterns, so -0 differs from +0 and NaN's sign and
    payload count; assert_array_equal sees neither."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == float
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


#: Signed zeros and subnormals, sprinkled into the bitwise guard inputs.
TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310])


def sprinkle(rng, values, specials, share):
    """Overwrite about ``share`` of ``values`` with draws from ``specials``."""
    mask = rng.uniform(size=values.shape) < share
    values[mask] = rng.choice(specials, int(mask.sum()))


def reference_optimize(objective, config):
    """The per-scout sequential schedule the batched step must reproduce:
    each scout draws its own r, proposes, and retries before the next one.

    A retry already rejected from the scout's current position with its
    current pace is evaluated anyway, to prove that its value is, bit for
    bit, the one recorded at that rejection and no improvement; it counts
    as an evaluation but not as an objective call, which the batched step
    skips. Returns the curve, the best, its value, the evaluations and the
    objective calls."""
    rng = np.random.default_rng(config.seed)
    lower, upper = np.asarray(config.bounds).T
    positions, fitness, paces = [], [], []
    for _ in range(config.population):
        positions.append(rng.uniform(lower, upper))
        fitness.append(float(objective(positions[-1])))
        paces.append(np.zeros(config.dimension))
    b = int(np.argmin(fitness))
    best, best_fitness = positions[b].copy(), fitness[b]
    known = [None] * config.population
    curve, evaluations, calls = [], config.population, config.population
    for _ in range(config.max_iterations):
        for i in range(config.population):
            fw = None if fitness[i] == 0.0 else abs(best_fitness / fitness[i]) - config.weight_factor
            r = rng.uniform(-1.0, 1.0, config.dimension)
            if fw is None or not 0.0 < fw < 1.0:
                pace = positions[i] * r
            else:
                diff = (positions[i] - best) * fw
                pace = np.where(r < 0.0, -diff, diff)
            candidate = np.clip(positions[i] + pace, lower, upper)
            value = float(objective(candidate))
            evaluations += 1
            calls += 1
            if value < fitness[i]:
                positions[i], fitness[i], paces[i] = candidate, value, pace
                known[i] = None
                continue
            retry = np.clip(positions[i] + paces[i], lower, upper)
            value = float(objective(retry))
            evaluations += 1
            if known[i] is not None:
                assert value.hex() == known[i] and value >= fitness[i]
                continue
            calls += 1
            if value < fitness[i]:
                positions[i], fitness[i] = retry, value
            else:
                known[i] = value.hex()
        for i in range(config.population):
            if fitness[i] < best_fitness:
                best, best_fitness = positions[i].copy(), fitness[i]
        curve.append(best_fitness)
    return curve, best, best_fitness, evaluations, calls


class TestFdoConfig:
    def test_zero_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            FdoConfig(bounds=((0.0, 1.0),), population=0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            FdoConfig(bounds=((1.0, -1.0),))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds must cover at least one dimension"):
            FdoConfig(bounds=())

    @pytest.mark.parametrize("bound", [np.inf, -np.inf, np.nan])
    def test_non_finite_bound_names_dimension(self, bound):
        with pytest.raises(ValueError, match="bounds for dimension 1 must be finite"):
            FdoConfig(bounds=((0.0, 1.0), (0.0, bound)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            FdoConfig(bounds=((0.0, 1.0),), seed=-1)

    def test_uniform_bounds_below_one_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            uniform_bounds(-1.0, 1.0, 0)

    def test_degenerate_bounds_allowed(self):
        config = FdoConfig(bounds=((0.0, 0.0),))
        assert config.dimension == 1

    def test_weight_factor_range(self):
        with pytest.raises(ValueError, match="weight_factor"):
            FdoConfig(bounds=((0.0, 1.0),), weight_factor=1.5)

    def test_zero_iterations_allowed(self):
        assert FdoConfig(bounds=((0.0, 1.0),), max_iterations=0).max_iterations == 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            FdoConfig(bounds=((0.0, 1.0),), max_iterations=-1)

    def test_bound_rows_are_built_by_the_constructor(self):
        """Threads sharing a config, as crossval's folds do, never race to
        build the rows: they exist before any access."""
        assert "_limits" in vars(FdoConfig(bounds=((-1.0, 2.0),)))

    def test_bound_rows_are_cached_contiguous_and_read_only(self):
        config = FdoConfig(bounds=((-1.0, 2.0), (0.0, 0.0), (-3.5, 4.0)))
        lower, upper = config._limits
        for row, expected in ((lower, [-1.0, 0.0, -3.5]), (upper, [2.0, 0.0, 4.0])):
            assert row.shape == (3,) and row.dtype == float
            assert row.flags.c_contiguous and not row.flags.writeable
            np.testing.assert_array_equal(row, expected)
        again = config._limits
        assert again[0] is lower and again[1] is upper
        with pytest.raises(ValueError, match="read-only"):
            lower[0] = 5.0

    def test_optimize_leaves_bound_rows_unchanged(self):
        config = FdoConfig(bounds=((-5.0, 5.0), (-0.0, -0.0), (1.0, 3.0)),
                           population=8, max_iterations=30, seed=4)
        lower, upper = config._limits
        before = lower.copy(), upper.copy()
        optimize(sphere, config)
        assert config._limits[0] is lower and config._limits[1] is upper
        assert_same_bits(lower, before[0])
        assert_same_bits(upper, before[1])


def clamp(rows, bounds):
    """The step's in-place clamp of a fresh array against a config's bound
    rows: a (d,) position or each row of a (k, d) matrix."""
    return _clamp_in_place(np.array(rows, dtype=float), *FdoConfig(bounds=bounds)._limits)


class TestClamp:
    def test_above_upper(self):
        np.testing.assert_array_equal(clamp([5.0], [(-1, 1)]), [1.0])

    def test_interior_unchanged(self):
        np.testing.assert_array_equal(clamp([0.5], [(-1, 1)]), [0.5])

    def test_componentwise(self):
        np.testing.assert_array_equal(
            clamp([-3.0, 0.0, 3.0], [(-1, 1)] * 3), [-1.0, 0.0, 1.0])

    def test_matrix_clamps_every_row(self):
        clamped = clamp([[5.0, -5.0], [0.5, 2.0], [-2.0, 0.0]], [(-1, 1), (-3, 1)])
        np.testing.assert_array_equal(clamped, [[1.0, -3.0], [0.5, 1.0], [-1.0, 0.0]])

    def test_one_by_one_matrix_is_one_row(self):
        np.testing.assert_array_equal(clamp([[5.0]], [(-1, 1)]), [[1.0]])

    @pytest.mark.parametrize("shape", [(30, 10), (40, 741)])
    def test_bits_match_clip_on_special_values(self, shape):
        """Signed zeros, subnormals, NaN of either sign and infinities, in
        free and in pinned (lower == upper) dimensions with signed-zero
        bounds, give np.clip's bits through the in-place clamp the step uses
        with the config's bound rows."""
        rng = np.random.default_rng(shape[1])
        pairs = [(-1.0, 1.0), (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0),
                 (5e-324, 5e-324), (-5e-324, 5e-324), (-0.0, 2.0), (-2.0, 0.0),
                 (3.0, 3.0)]
        bounds = [pairs[i % len(pairs)] for i in range(shape[1])]
        specials = np.concatenate([TINY, [np.nan, -np.nan, np.inf, -np.inf, 2.0, -3.0]])
        positions = rng.uniform(-4.0, 4.0, shape)
        sprinkle(rng, positions, specials, 0.5)
        expected = clip_clamp(positions, bounds)
        rows = positions.copy()
        assert _clamp_in_place(rows, *FdoConfig(bounds=bounds)._limits) is rows
        assert_same_bits(rows, expected)


class TestFitnessWeight:
    def test_equal_fitnesses_give_one(self):
        assert fitness_weight(5.0, 5.0, 0.0) == 1.0

    def test_ratio(self):
        assert fitness_weight(10.0, 1.0, 0.0) == pytest.approx(0.1)

    def test_zero_current_takes_random_branch(self):
        """A zero fitness gives a weight outside (0, 1) (inf, or NaN when the
        best is zero too), so the pace is the position scaled by r."""
        fw = fitness_weight(np.array([0.0, 0.0]), 1.0, 0.0)
        assert np.isinf(fw).all()
        assert np.isnan(fitness_weight(0.0, 0.0, 0.0))
        positions = np.array([[2.0, -3.0], [1.0, 4.0]])
        r = np.array([[0.5, -0.5], [-0.25, 1.0]])
        for weights in (fw, fitness_weight(np.zeros(2), 0.0, 0.0)):
            pace = compute_pace(positions, np.zeros(2), weights, r)
            np.testing.assert_array_equal(pace, positions * r)

    def test_weight_factor_subtracts(self):
        assert fitness_weight(2.0, 1.0, 0.25) == pytest.approx(0.25)

    def test_batch_matches_scalar_rule(self):
        fitness = np.array([4.0, -2.0, 1e-300, 7.5])
        fw = fitness_weight(fitness, 1.5, 0.3)
        assert fw.tolist() == [abs(1.5 / f) - 0.3 for f in fitness.tolist()]


class TestComputePace:
    def test_random_pace_branch(self):
        # fw == 1 routes to the multiplicative rule with per-dimension r.
        pace = compute_pace(np.array([[2.0, -3.0]]), np.array([0.0, 0.0]),
                            np.array([1.0]), np.array([[0.5, -0.5]]))
        np.testing.assert_allclose(pace, [[1.0, 1.5]])

    def test_toward_best_branch(self):
        pace = compute_pace(np.array([[4.0]]), np.array([2.0]),
                            np.array([0.5]), np.array([[-0.3]]))
        np.testing.assert_allclose(pace, [[-1.0]])

    def test_away_from_best_branch(self):
        pace = compute_pace(np.array([[4.0]]), np.array([2.0]),
                            np.array([0.5]), np.array([[0.3]]))
        np.testing.assert_allclose(pace, [[1.0]])

    def test_branch_totality_fuzz(self):
        """Every fw in [0, inf), inf and NaN produce a finite pace; each row
        follows its own branch inside one batch."""
        rng = np.random.default_rng(7)
        position = np.array([1.5, -2.0, 0.5])
        best = np.array([0.5, 0.5, 0.5])
        fws = np.array([np.nan, np.inf, 0.0, 1.0, 1.0 + 1e-12]
                       + list(rng.uniform(0, 10, 200)))
        positions = np.tile(position, (fws.size, 1))
        r = np.random.default_rng(1).uniform(-1, 1, positions.shape)
        pace = compute_pace(positions, best, fws, r)
        assert pace.shape == positions.shape
        assert np.isfinite(pace).all()
        for fw, row, draws in zip(fws, pace, r):
            if not 0.0 < fw < 1.0:
                expected = position * draws
            else:
                diff = (position - best) * fw
                expected = np.where(draws < 0.0, -diff, diff)
            np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize("shape", [(30, 10), (40, 741)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_masked_negate_form(self, shape, seed):
        """Signed zeros and subnormals in positions, best and r, and fw of
        0, -0, 1, inf, NaN and negative beside fw in (0, 1), subnormal
        included, give the masked-negate form's bits."""
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-3.0, 3.0, shape)
        best = rng.uniform(-3.0, 3.0, shape[1])
        r = rng.uniform(-1.0, 1.0, shape)
        for values in (positions, best, r):
            sprinkle(rng, values, TINY, 0.2)
        same = rng.uniform(size=shape) < 0.1
        positions[same] = np.broadcast_to(best, shape)[same]
        fw = rng.uniform(0.0, 1.0, shape[0])
        sprinkle(rng, fw, np.array([0.0, -0.0, 1.0, np.inf, np.nan, -0.5, 5e-324,
                                    1.0 - 2.0 ** -53, 2.0]), 0.5)
        expected = masked_negate_pace(positions, best, fw, r)
        assert_same_bits(compute_pace(positions, best, fw, r), expected)

    @pytest.mark.parametrize("shape", [(30, 10), (40, 741)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unvalidated_pace_gives_compute_pace_bits(self, shape, seed):
        """compute_pace checks no shapes and writes only its own result: on
        test_bits_match_masked_negate_form's inputs, handed over read-only
        and in Fortran order, it gives the bits it gives on C-ordered
        writable copies, and leaves its inputs as they were."""
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-3.0, 3.0, shape)
        best = rng.uniform(-3.0, 3.0, shape[1])
        r = rng.uniform(-1.0, 1.0, shape)
        for values in (positions, best, r):
            sprinkle(rng, values, TINY, 0.2)
        same = rng.uniform(size=shape) < 0.1
        positions[same] = np.broadcast_to(best, shape)[same]
        fw = rng.uniform(0.0, 1.0, shape[0])
        sprinkle(rng, fw, np.array([0.0, -0.0, 1.0, np.inf, np.nan, -0.5, 5e-324,
                                    1.0 - 2.0 ** -53, 2.0]), 0.5)
        inputs = [a.copy() for a in (positions, best, fw, r)]
        expected = compute_pace(*inputs)
        frozen = [np.asfortranarray(a) for a in (positions, best, fw, r)]
        for a in frozen:
            a.flags.writeable = False
        assert_same_bits(compute_pace(*frozen), expected)
        for before, after in zip(inputs, frozen):
            assert_same_bits(after, before)

    def test_allocates_one_temporary_beside_the_pace(self):
        """At (40, 741), d of the MLP workload, compute_pace's peak stays
        below three (P, d) float arrays: the returned pace and one signed
        factor, with no third block for the sign."""
        rng = np.random.default_rng(5)
        shape = (40, 741)
        positions = rng.uniform(-3.0, 3.0, shape)
        best = rng.uniform(-3.0, 3.0, shape[1])
        fw = rng.uniform(0.0, 1.0, shape[0])
        fw[::7] = np.inf
        r = rng.uniform(-1.0, 1.0, shape)
        compute_pace(positions, best, fw, r)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            compute_pace(positions, best, fw, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * positions.nbytes


class TestInitializeSwarm:
    def test_degenerate_box_forces_single_point(self):
        config = FdoConfig(bounds=((0.0, 0.0),), population=5, seed=123)
        swarm = initialize_swarm(config, sphere, np.random.default_rng(123))
        np.testing.assert_array_equal(swarm.positions, np.zeros((5, 1)))
        np.testing.assert_array_equal(swarm.last_pace, np.zeros((5, 1)))
        assert swarm.best_fitness == 0.0

    def test_uniform_sampling_respects_bounds(self):
        config = FdoConfig(bounds=uniform_bounds(-1, 1, 2), population=30)
        swarm = initialize_swarm(config, sphere, np.random.default_rng(5))
        assert swarm.positions.shape == (30, 2)
        assert swarm.fitness.shape == (30,)
        assert (swarm.positions >= -1).all() and (swarm.positions <= 1).all()

    def test_same_seed_gives_identical_swarm(self):
        config = FdoConfig(bounds=uniform_bounds(-3, 3, 4), population=10)
        one = initialize_swarm(config, sphere, np.random.default_rng(42))
        two = initialize_swarm(config, sphere, np.random.default_rng(42))
        np.testing.assert_array_equal(one.positions, two.positions)
        np.testing.assert_array_equal(one.fitness, two.fitness)

    def test_best_is_first_lowest_and_owned(self):
        config = FdoConfig(bounds=uniform_bounds(-3, 3, 2), population=6)
        values = iter([5.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        swarm = initialize_swarm(config, row_form(lambda x: next(values)),
                                 np.random.default_rng(3))
        np.testing.assert_array_equal(swarm.best_position, swarm.positions[1])
        assert swarm.best_fitness == 1.0 and type(swarm.best_fitness) is float
        swarm.positions[1] += 1.0
        assert not np.array_equal(swarm.best_position, swarm.positions[1])

    def test_non_finite_objective_raises_with_position(self):
        config = FdoConfig(bounds=uniform_bounds(-1, 1, 2), population=3)
        with pytest.raises(EvaluationError) as excinfo:
            initialize_swarm(config, row_form(lambda x: float("nan")),
                             np.random.default_rng(0))
        assert excinfo.value.position is not None


class TestStep:
    def test_hand_traced_rejection(self):
        """Worse candidate, then a no-op stored-pace retry: scout must stay."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([2.0], 4.0, [1.0], 1.0)
        calls = []

        def traced(x):
            calls.append(float(x[0]))
            return sphere(x)

        # fw = |1/4| = 0.25, r = 0.5 >= 0 -> pace 0.25 * (2 - 1) = 0.25;
        # candidate 2.25 has fitness 5.0625 > 4 -> rejected; stored zero pace
        # retries x = 2 with fitness 4, not a strict improvement -> stay.
        assert step(swarm, row_form(traced), config, FakeRng([[[0.5]]])) == 2
        assert calls == [2.25, 2.0]
        np.testing.assert_array_equal(swarm.positions, [[2.0]])
        assert swarm.fitness.tolist() == [4.0]
        np.testing.assert_array_equal(swarm.last_pace, [[0.0]])

    def test_retry_tie_keeps_scout(self):
        """A retry that only matches the scout's fitness is not a move."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([2.0], 4.0, [1.0], 1.0, last_pace=[-4.0])
        calls = []

        def traced(x):
            calls.append(float(x[0]))
            return sphere(x)

        # Proposal 2.25 as above is rejected; the retry 2 - 4 = -2 ties at 4.
        step(swarm, row_form(traced), config, FakeRng([[[0.5]]]))
        assert calls == [2.25, -2.0]
        np.testing.assert_array_equal(swarm.positions, [[2.0]])
        np.testing.assert_array_equal(swarm.last_pace, [[-4.0]])

    def test_tied_retry_is_not_passed_again(self):
        """A retry that only ties closes the scout: on its next rejected
        proposal the retry is counted but no retry row reaches the objective."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([2.0], 4.0, [1.0], 1.0, last_pace=[-4.0])
        assert swarm.retry_open.tolist() == [True]
        calls = []

        def traced(x):
            calls.append(x[:, 0].tolist())
            return sphere(x)

        # Both steps propose 2.25 and reject it; the first retry -2 ties at 4.
        assert step(swarm, traced, config, FakeRng([[[0.5]]])) == 2
        assert swarm.retry_open.tolist() == [False]
        assert step(swarm, traced, config, FakeRng([[[0.5]]])) == 2
        assert calls == [[2.25], [-2.0], [2.25]]
        np.testing.assert_array_equal(swarm.positions, [[2.0]])
        assert swarm.fitness.tolist() == [4.0]

    def test_accepted_proposal_reopens_retry(self):
        """A closed scout that accepts a first proposal has a new position
        and pace, so its next rejection is retried again."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([2.0], 4.0, [1.0], 1.0, last_pace=[-4.0])
        calls = []

        def traced(x):
            calls.append(x[:, 0].tolist())
            return sphere(x)

        # The tied retry -2 closes the scout; then r = -0.9 moves it toward
        # the best by 0.25 to 1.75 with pace -0.25; then the proposal is
        # rejected and the retry 1.75 - 0.25 = 1.5 is evaluated and taken.
        rng = FakeRng([[[0.5]], [[-0.9]], [[0.5]]])
        assert step(swarm, traced, config, rng) == 2
        assert step(swarm, traced, config, rng) == 1
        assert swarm.retry_open.tolist() == [True]
        assert step(swarm, traced, config, rng) == 2
        assert len(calls) == 5 and calls[1] == [-2.0] and calls[4] == [1.5]
        np.testing.assert_array_equal(swarm.positions, [[1.5]])
        np.testing.assert_array_equal(swarm.last_pace, [[-0.25]])

    def test_tie_with_global_best_keeps_incumbent(self):
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([-1.0], 1.0, [1.0], 1.0)
        # fw = 1 -> random pace -1 * 0.5: candidate -1.5 rejected, the zero
        # retry keeps -1, whose fitness ties with the best at +1.
        step(swarm, sphere, config, FakeRng([[[0.5]]]))
        np.testing.assert_array_equal(swarm.best_position, [1.0])
        assert swarm.best_fitness == 1.0

    def test_accepted_move_stores_pace(self):
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1)
        swarm = one_scout([4.0], 16.0, [1.0], 1.0)
        # fw = 1/16; r < 0 moves toward best: pace = -(4-1)/16 = -0.1875.
        assert step(swarm, sphere, config, FakeRng([[[-0.9]]])) == 1
        np.testing.assert_allclose(swarm.positions, [[3.8125]])
        np.testing.assert_allclose(swarm.fitness, [3.8125 ** 2])
        np.testing.assert_allclose(swarm.last_pace, [[-0.1875]])

    def test_no_scout_fitness_increases(self):
        """Acceptance safety over many random steps."""
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 4), population=12, seed=9)
        rng = np.random.default_rng(9)
        swarm = initialize_swarm(config, sphere, rng)
        for _ in range(30):
            before = swarm.fitness.copy()
            step(swarm, sphere, config, rng)
            assert (swarm.fitness <= before).all()

    def test_positions_stay_in_box(self):
        config = FdoConfig(bounds=uniform_bounds(-0.5, 0.5, 3), population=8, seed=2)
        rng = np.random.default_rng(2)
        swarm = initialize_swarm(config, sphere, rng)
        for _ in range(25):
            step(swarm, sphere, config, rng)
            assert (swarm.positions >= -0.5).all()
            assert (swarm.positions <= 0.5).all()

    def test_global_best_never_worsens(self):
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=10, seed=4)
        rng = np.random.default_rng(4)
        swarm = initialize_swarm(config, sphere, rng)
        for _ in range(20):
            previous = swarm.best_fitness
            step(swarm, sphere, config, rng)
            assert swarm.best_fitness <= previous
            assert swarm.best_fitness <= swarm.fitness.min()

    def test_one_draw_block_and_one_retry_per_rejection(self):
        """An iteration draws one (P, d) block, evaluates every first
        proposal, then counts one retry per rejected proposal. The objective
        sees exactly the retries of the rejected scouts whose retry has not
        been rejected since their last move; the others are known."""
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=9, seed=6)
        swarm = initialize_swarm(config, sphere, np.random.default_rng(6))
        rng = RecordingRng(60)
        closed = np.zeros(9, dtype=bool)
        retried = skipped = 0
        for _ in range(5):
            before = swarm.fitness.copy()
            calls = []

            def traced(x):
                calls.append(sphere(x))
                return calls[-1]

            rng.sizes.clear()
            made = step(swarm, row_form(traced), config, rng)
            assert rng.sizes == [(9, 3)]
            rejected_mask = np.array(calls[:9]) >= before
            rejected = int(np.sum(rejected_mask))
            assert made == 9 + rejected
            evaluated = np.flatnonzero(rejected_mask & ~closed)
            assert len(calls) == 9 + evaluated.size
            closed[~rejected_mask] = False
            closed[evaluated] = np.array(calls[9:]) >= before[evaluated]
            retried += rejected
            skipped += rejected - evaluated.size
        assert retried > 0 and skipped > 0

    def test_retry_phase_error_carries_position_and_iteration(self):
        """Iteration 0 accepts a move of pace -1 (to x = 1); iteration 1
        rejects its proposal and the retry x = 1 + (-1) = 0 is non-finite."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=1,
                           max_iterations=5)
        calls = []

        def objective(x):
            calls.append(float(x[0]))
            return float("inf") if x[0] == 0.0 else sphere(x)

        # fw = |4/4| = 1 -> random pace 2 * -0.5 = -1; then 1 * 0.5 = 0.5.
        rng = FakeRng([[[2.0]], [[-0.5]], [[0.5]]])
        with pytest.raises(EvaluationError) as excinfo:
            optimize(row_form(objective), config, rng)
        assert calls == [2.0, 1.0, 1.5, 0.0]
        np.testing.assert_array_equal(excinfo.value.position, [0.0])
        assert excinfo.value.iteration == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_fitness_swarm_steps_without_warnings(self):
        config = FdoConfig(bounds=((0.0, 0.0), (-1.0, 1.0)), population=4, seed=1)
        swarm = Swarm(np.zeros((4, 2)), np.zeros(4), np.zeros((4, 2)),
                      np.zeros(2), 0.0, np.ones(4, dtype=bool))
        rng = np.random.default_rng(1)
        for _ in range(3):
            assert step(swarm, sphere, config, rng) == 8
        np.testing.assert_array_equal(swarm.positions, np.zeros((4, 2)))
        # Zero and non-zero fitness side by side, with a zero global best.
        swarm = Swarm(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, -0.5]]),
                      np.array([0.0, 1.0, 0.0, 0.25]), np.zeros((4, 2)),
                      np.zeros(2), 0.0, np.ones(4, dtype=bool))
        step(swarm, sphere, config, rng)
        assert swarm.best_fitness == 0.0

    def test_batched_schedule_matches_per_scout_reference(self):
        cases = [(sphere, (-100, 100), 10, 12, 0.0, 0), (sphere, (-3, 3), 3, 1, 0.0, 5),
                 (lambda x: np.sum(np.floor(np.abs(x)), axis=-1), (-3, 3), 2, 6, 0.2, 6)]
        for objective, (lo, hi), d, population, wf, seed in cases:
            config = FdoConfig(bounds=uniform_bounds(lo, hi, d), population=population,
                               max_iterations=40, weight_factor=wf, seed=seed)
            rows = []

            def counted(x, objective=objective):
                rows.append(len(x))
                return objective(x)

            result = optimize(counted, config)
            curve, best, best_fitness, evaluations, calls = reference_optimize(
                objective, config)
            assert list(result.curve.values) == curve
            assert result.best_position.tobytes() == best.tobytes()
            assert result.best_fitness == best_fitness
            assert result.evaluations == evaluations
            assert sum(rows) == calls < evaluations


class TestObjectiveCalls:
    def test_one_call_per_phase(self):
        """One call for the population, one for every iteration's first
        proposals and one for its retries when any rejected scout's retry
        is not yet known to fail."""
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=9,
                           max_iterations=30, seed=6)
        shapes = []

        def recorded(x):
            shapes.append(x.shape)
            return sphere(x)

        result = optimize(recorded, config)
        rng = np.random.default_rng(config.seed)
        swarm = initialize_swarm(config, sphere, rng)
        replayed = []

        def replay(x):
            replayed.append(x.shape)
            return sphere(x)

        with_retries = 0
        for _ in range(config.max_iterations):
            calls = len(replayed)
            step(swarm, replay, config, rng)
            with_retries += len(replayed) - calls - 1
        assert 0 < with_retries <= config.max_iterations
        assert len(shapes) == 1 + config.max_iterations + with_retries
        assert all(len(shape) == 2 and shape[1] == 3 for shape in shapes)
        assert sum(rows for rows, _ in shapes) == 392 < result.evaluations == 431
        assert shapes[:2] == [(9, 3), (9, 3)]

    def test_scalar_result_rejected_with_both_shapes(self):
        config = FdoConfig(bounds=uniform_bounds(-100, 100, 10), population=30)
        with pytest.raises(ValueError, match=r"shape \(\).*\(30, 10\).*\(30,\)"):
            optimize(lambda x: float(np.sum(x * x)), config)
        with pytest.raises(ValueError, match=r"shape \(30, 1\)"):
            optimize(lambda x: sphere(x)[:, None], config)

    def test_reused_result_buffer_leaves_fitness_intact(self):
        """The values are copied out of the objective's result, so an
        objective that hands back the same buffer every call is safe."""
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 4), population=10, seed=3)
        buffer = np.empty(config.population)

        def reusing(x):
            out = buffer[:len(x)]
            out[:] = sphere(x)
            return out

        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        swarm = initialize_swarm(config, reusing, rng)
        reference = initialize_swarm(config, sphere, reference_rng)
        for _ in range(15):
            assert step(swarm, reusing, config, rng) == step(
                reference, sphere, config, reference_rng)
            np.testing.assert_array_equal(swarm.fitness, reference.fitness)
            np.testing.assert_array_equal(swarm.fitness, sphere(swarm.positions))
        assert not np.shares_memory(swarm.fitness, buffer)

    def test_non_finite_retry_row_names_that_row(self):
        """Three rejected proposals, then retries at 2.5, 3.25 and 4.125:
        the middle one is NaN and the error carries its position."""
        config = FdoConfig(bounds=uniform_bounds(-10, 10, 1), population=3)
        swarm = Swarm(np.array([[2.0], [3.0], [4.0]]), np.array([4.0, 9.0, 16.0]),
                      np.array([[0.5], [0.25], [0.125]]), np.array([1.0]), 1.0,
                      np.ones(3, dtype=bool))
        calls = []

        def objective(x):
            calls.append(x[:, 0].tolist())
            return np.where(x[:, 0] == 3.25, np.nan, sphere(x))

        # fw = 1/4, 1/9, 1/16 and r = 0.5 move each scout away from the best.
        with pytest.raises(EvaluationError, match="nan") as excinfo:
            step(swarm, objective, config, FakeRng([[[0.5], [0.5], [0.5]]]))
        assert len(calls) == 2 and calls[1] == [2.5, 3.25, 4.125]
        np.testing.assert_array_equal(excinfo.value.position, [3.25])


class TestOptimize:
    def test_zero_iterations_returns_initial_best(self):
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=10,
                           max_iterations=0, seed=11)
        result = optimize(sphere, config)
        swarm = initialize_swarm(config, sphere, np.random.default_rng(11))
        assert result.best_fitness == swarm.best_fitness
        np.testing.assert_array_equal(result.best_position, swarm.best_position)
        assert result.curve.values == ()
        assert result.iterations_run == 0
        assert result.evaluations == 10

    def test_determinism(self):
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 4), population=8,
                           max_iterations=40, seed=21)
        a = optimize(sphere, config)
        b = optimize(sphere, config)
        np.testing.assert_array_equal(a.best_position, b.best_position)
        assert a.best_fitness == b.best_fitness
        assert a.curve.values == b.curve.values
        assert a.evaluations == b.evaluations

    def test_curve_non_increasing_and_sized(self):
        for seed in range(5):
            config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=6,
                               max_iterations=30, seed=seed)
            result = optimize(sphere, config)
            assert len(result.curve) == 30 == result.iterations_run
            assert result.curve.is_non_increasing()

    def test_evaluation_budget(self):
        config = FdoConfig(bounds=uniform_bounds(-5, 5, 3), population=7,
                           max_iterations=25, seed=3)
        result = optimize(sphere, config)
        assert result.evaluations <= 7 * (1 + 2 * 25)

    def test_error_carries_iteration(self):
        countdown = [12]

        def flaky(x):
            countdown[0] -= 1
            return float("inf") if countdown[0] <= 0 else sphere(x)

        config = FdoConfig(bounds=uniform_bounds(-5, 5, 2), population=5,
                           max_iterations=50, seed=1)
        with pytest.raises(EvaluationError) as excinfo:
            optimize(row_form(flaky), config)
        assert excinfo.value.iteration is not None

    def test_converges_on_sphere(self):
        config = FdoConfig(bounds=uniform_bounds(-100, 100, 5), population=20,
                           max_iterations=200, seed=0)
        result = optimize(sphere, config)
        assert result.best_fitness < 1e-6


class TestConvergenceCurve:
    def test_non_increasing_check(self):
        assert ConvergenceCurve((3.0, 2.0, 2.0, 1.0)).is_non_increasing()
        assert not ConvergenceCurve((1.0, 2.0)).is_non_increasing()
