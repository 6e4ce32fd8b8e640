"""Seeding, RNG streams, geometry and bounds primitives."""

import math

import numpy as np
import pytest

from swarmopt.core import (
    Bacterium,
    ConfigurationError,
    EmptyNeighbourhoodError,
    OptimizationMode,
    RngStream,
    SearchSpace,
    better_than,
    derive_seed,
    error_rate,
    euclidean_distance,
    k_nearest,
    quality_key,
    repair_bounds,
    seed_population,
)


def test_derive_seed_is_stable():
    assert derive_seed(1001, "sphere", "abco", 0) == derive_seed(1001, "sphere", "abco", 0)


def test_derive_seed_fits_64_bits():
    for run in range(20):
        seed = derive_seed(7, "ackley", "pso", run)
        assert 0 <= seed < 2**64


def test_derive_seed_separates_cells():
    seeds = {
        derive_seed(base, fn, algo, run)
        for base in (0, 1)
        for fn in ("sphere", "ackley")
        for algo in ("abco", "pso")
        for run in range(25)
    }
    assert len(seeds) == 2 * 2 * 2 * 25


def test_rng_stream_replays():
    a, b = RngStream(99), RngStream(99)
    assert np.array_equal(a.uniform(size=10), b.uniform(size=10))
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))


def test_rng_stream_seeds_disagree():
    assert not np.array_equal(RngStream(1).uniform(size=8), RngStream(2).uniform(size=8))


def test_search_space_validation():
    with pytest.raises(ConfigurationError):
        SearchSpace(0, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        SearchSpace(2, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        SearchSpace(2, float("nan"), 1.0)


def test_search_space_contains():
    space = SearchSpace(2, -5.0, 5.0)
    assert space.contains((0.0, 5.0))
    assert not space.contains((0.0, 5.1))


def test_seed_population_layout():
    space = SearchSpace(3, -2.0, 4.0)
    population = seed_population(space, 12, lambda p: float(np.sum(p)), RngStream(5))
    assert len(population) == 12
    for member in population:
        assert space.contains(member.position)
        assert member.solution == pytest.approx(float(np.sum(member.position)))
        assert member.best_solution == member.solution
        assert member.previous_best_solution == member.solution
        assert np.array_equal(member.best_position, member.position)
        # memory must not alias the live position
        assert member.best_position is not member.position


def test_seed_population_rejects_empty():
    with pytest.raises(ConfigurationError):
        seed_population(SearchSpace(2, 0.0, 1.0), 0, lambda p: 0.0, RngStream(1))


def test_euclidean_distance():
    assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        euclidean_distance((0, 0), (0, 0, 0))


def test_quality_key_duality():
    assert better_than(1.0, 2.0, OptimizationMode.MIN)
    assert better_than(2.0, 1.0, OptimizationMode.MAX)
    assert not better_than(1.0, 1.0, OptimizationMode.MIN)
    values = [3.0, -1.0, 2.5]
    by_min = sorted(values, key=lambda v: quality_key(v, OptimizationMode.MIN))
    by_max = sorted(values, key=lambda v: quality_key(v, OptimizationMode.MAX))
    assert by_min == [-1.0, 2.5, 3.0]
    assert by_max == [3.0, 2.5, -1.0]


def test_quality_key_ranks_non_finite_values_worst():
    nan, inf = float("nan"), float("inf")
    values = [nan, 2.0, -inf, -1.0, inf, 1e308]
    for mode in OptimizationMode:
        keys = quality_key(np.array(values), mode)
        assert keys.tolist() == [quality_key(v, mode) for v in values]
        order = np.argsort(keys, kind="stable").tolist()
        finite = [i for i in order if math.isfinite(values[i])]
        assert order == finite + [0, 2, 4]
        for bad in (nan, inf, -inf):
            assert better_than(-1e308, bad, mode) and better_than(1e308, bad, mode)
            assert not better_than(bad, 0.0, mode)
            assert not better_than(bad, nan, mode) and not better_than(nan, bad, mode)


def _brute_force_neighbours(positions, subject, k):
    distances = [
        (float(np.linalg.norm(np.asarray(p) - np.asarray(positions[subject]))), i)
        for i, p in enumerate(positions)
        if i != subject
    ]
    distances.sort()
    return [(i, d) for d, i in distances[:k]]


def test_k_nearest_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(50):
        size = int(rng.integers(2, 12))
        positions = rng.uniform(-5, 5, size=(size, 3))
        subject = int(rng.integers(size))
        k = int(rng.integers(1, size + 2))
        got = k_nearest(positions, subject, k)
        want = _brute_force_neighbours(positions, subject, k)
        assert [i for i, _ in got] == [i for i, _ in want]


def test_k_nearest_breaks_ties_by_index():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    neighbours = k_nearest(positions, 0, 3)
    assert [i for i, _ in neighbours] == [1, 2, 3]


def _brute_force_order(positions, subject):
    # NaN distances sort last; equal distances keep index order.
    keyed = []
    for i, point in enumerate(positions):
        if i != subject:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(point, positions[subject])))
            keyed.append((math.isnan(d), 0.0 if math.isnan(d) else d, i))
    return [i for *_, i in sorted(keyed)]


def test_k_nearest_orders_duplicates_and_nan_rows_like_brute_force():
    nan = float("nan")
    positions = np.array([
        [1.0, 1.0], [0.0, 0.0], [nan, 0.0], [1.0, 1.0], [2.0, 1.0], [0.0, 2.0], [nan, nan],
    ])
    for subject in range(len(positions)):
        for k in (1, 3, len(positions)):
            got = k_nearest(positions, subject, k)
            assert [i for i, _ in got] == _brute_force_order(positions, subject)[:k]
    # Row 0 duplicates subject 3 from a lower index, so it comes first at distance 0.
    assert k_nearest(positions, 3, 1) == [(0, 0.0)]


def test_k_nearest_clamps_and_rejects():
    positions = np.zeros((3, 2))
    assert len(k_nearest(positions, 0, 10)) == 2
    with pytest.raises(EmptyNeighbourhoodError):
        k_nearest(np.zeros((1, 2)), 0, 1)
    with pytest.raises(ConfigurationError):
        k_nearest(positions, 0, 0)
    with pytest.raises(ValueError):
        k_nearest(positions, 5, 1)


def test_k_nearest_accepts_bacteria():
    members = [
        Bacterium(np.array([float(i), 0.0]), 0.0, np.array([float(i), 0.0]), 0.0, 0.0)
        for i in range(4)
    ]
    assert [i for i, _ in k_nearest(members, 0, 2)] == [1, 2]


def test_repair_bounds_passthrough_consumes_nothing():
    space = SearchSpace(2, -1.0, 1.0)
    rng = RngStream(3)
    before = RngStream(3).uniform(size=4)
    repaired = repair_bounds(np.array([0.5, -0.5]), space, rng)
    assert np.array_equal(repaired, [0.5, -0.5])
    # an untouched repair must leave the stream where it started
    assert np.array_equal(rng.uniform(size=4), before)


def test_repair_bounds_resamples_violations():
    space = SearchSpace(3, -1.0, 1.0)
    for seed in range(30):
        repaired = repair_bounds(np.array([-3.0, 0.25, 9.0]), space, RngStream(seed))
        assert space.contains(repaired)
        assert repaired[1] == 0.25


def test_repair_bounds_catches_nan():
    space = SearchSpace(2, -1.0, 1.0)
    repaired = repair_bounds(np.array([float("nan"), 0.0]), space, RngStream(8))
    assert space.contains(repaired)


def test_repair_bounds_draws_in_ascending_coordinate_order():
    space = SearchSpace(4, -1.0, 1.0)
    repaired = repair_bounds(np.array([float("nan"), 0.5, 3.0, -1.5]), space, RngStream(21))
    reference = RngStream(21)
    first, second, third = (reference.uniform(-1.0, 1.0) for _ in range(3))
    assert repaired.tolist() == [first, 0.5, second, third]


def test_repair_bounds_shape_check():
    with pytest.raises(ValueError):
        repair_bounds(np.zeros(3), SearchSpace(2, -1.0, 1.0), RngStream(1))


def test_error_rate():
    assert error_rate(-0.9, -1.0) == pytest.approx(0.1)
    assert error_rate(3.0, 3.0) == 0.0
