"""Seeding, RNG streams, geometry and bounds primitives."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt.benchmarks import spec_of
from swarmopt.core import (
    ConfigurationError,
    EmptyNeighbourhoodError,
    OptimizationMode,
    RngStream,
    SearchSpace,
    derive_seed,
    error_rate,
    evaluate_rows,
    k_nearest,
    minimised,
    quality_key,
    rank_neighbours,
    repair_bounds,
    seed_population,
)
import oracle
from oracle import (
    inside,
    neighbour_layouts,
    neighbour_order,
    neighbours,
    repaired,
    repaired_row_major,
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


def test_seed_population_layout():
    space = SearchSpace(3, -2.0, 4.0)
    positions, values = seed_population(space, 12, lambda p: float(np.sum(p)), RngStream(5))
    assert positions.shape == (12, 3) and values.shape == (12,)
    assert inside(space, positions).all()
    for position, value in zip(positions, values):
        assert value == pytest.approx(float(np.sum(position)))
    # one (size, dim) uniform draw, as PSO and ACO seeded before sharing it
    reference = RngStream(5).generator
    assert np.array_equal(positions, -2.0 + 6.0 * reference.uniform(size=(12, 3)))


def test_evaluate_rows_reads_batch_and_falls_back_to_rows():
    rows = np.arange(6.0).reshape(3, 2)
    seen = []

    def evaluator(point):
        seen.append(point.tolist())
        return point[0] - 3.0 * point[1]

    # Without a batch form: one call per row, in row order.
    assert evaluate_rows(evaluator, rows).tolist() == [-3.0, -7.0, -11.0]
    assert seen == rows.tolist()
    evaluator.batch = lambda matrix: np.full(len(matrix), 5)
    values = evaluate_rows(evaluator, rows)
    assert values.dtype == np.float64 and values.tolist() == [5.0, 5.0, 5.0]
    assert len(seen) == 3
    negated, _ = minimised(replace(spec_of("sphere"), evaluator=evaluator,
                                   mode=OptimizationMode.MAX))
    assert evaluate_rows(negated, rows).tolist() == [-5.0, -5.0, -5.0]
    del evaluator.batch
    negated, _ = minimised(replace(spec_of("sphere"), evaluator=evaluator,
                                   mode=OptimizationMode.MAX))
    assert not hasattr(negated, "batch")
    assert evaluate_rows(negated, rows).tolist() == [3.0, 7.0, 11.0]
    assert len(seen) == 6


def test_seed_population_rejects_empty():
    with pytest.raises(ConfigurationError):
        seed_population(SearchSpace(2, 0.0, 1.0), 0, lambda p: 0.0, RngStream(1))


def test_quality_key_duality():
    assert quality_key(1.0) < quality_key(2.0)
    assert not quality_key(1.0) < quality_key(1.0)
    values = [3.0, -1.0, 2.5]
    assert sorted(values, key=quality_key) == [-1.0, 2.5, 3.0]

    spec = spec_of("sphere")
    assert minimised(spec) == (spec.evaluator, 1.0)
    negated, sign = minimised(replace(spec, evaluator=lambda p: p[0],
                                      mode=OptimizationMode.MAX))
    assert sign == -1.0
    by_max = sorted(values, key=lambda v: quality_key(negated([v])))
    assert by_max == [3.0, 2.5, -1.0]
    assert [sign * negated([v]) for v in values] == values
    assert minimised(replace(spec, mode="max"))[1] == -1.0
    with pytest.raises(ValueError):
        minimised(replace(spec, mode="up"))


def test_quality_key_ranks_non_finite_values_worst():
    nan, inf = float("nan"), float("inf")
    values = [nan, 2.0, -inf, -1.0, inf, 1e308]
    keys = quality_key(np.array(values))
    assert keys.tolist() == [quality_key(v) for v in values]
    assert keys.tolist() == [oracle.quality_key(v) for v in values]
    order = np.argsort(keys, kind="stable").tolist()
    finite = [i for i in order if math.isfinite(values[i])]
    assert order == finite + [0, 2, 4]
    for bad in (nan, inf, -inf):
        for good in (-1e308, 1e308, 0.0):
            assert quality_key(good) < quality_key(bad)
            assert not quality_key(bad) < quality_key(good)
        assert not quality_key(bad) < quality_key(nan)
        assert not quality_key(nan) < quality_key(bad)


def test_k_nearest_matches_brute_force():
    # Indices and distances bit for bit: random sizes and k at d = 3, then
    # every subject of 25 rows in each neighbour layout at d = 1-10.
    rng = np.random.default_rng(17)
    for _ in range(50):
        size = int(rng.integers(2, 12))
        positions = rng.uniform(-5, 5, size=(size, 3))
        subject = int(rng.integers(size))
        k = int(rng.integers(1, size + 2))
        assert k_nearest(positions, subject, k) == neighbours(positions, subject, k)
    for dim in range(1, 11):
        for positions in neighbour_layouts(25, dim, np.random.default_rng(100 + dim)):
            for subject in range(25):
                got, want = k_nearest(positions, subject, 24), neighbours(positions, subject, 24)
                assert [i for i, _ in got] == [i for i, _ in want]
                assert np.array([d for _, d in got]).tobytes() == np.array(
                    [d for _, d in want]).tobytes(), (dim, subject)


def test_k_nearest_breaks_ties_by_index():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    neighbours = k_nearest(positions, 0, 3)
    assert [i for i, _ in neighbours] == [1, 2, 3]


def test_k_nearest_orders_duplicates_and_nan_rows_like_brute_force():
    nan = float("nan")
    positions = np.array([
        [1.0, 1.0], [0.0, 0.0], [nan, 0.0], [1.0, 1.0], [2.0, 1.0], [0.0, 2.0], [nan, nan],
    ])
    for subject in range(len(positions)):
        for k in (1, 3, len(positions)):
            got = k_nearest(positions, subject, k)
            assert [i for i, _ in got] == [i for i, _ in neighbours(positions, subject, k)]
    # Row 0 duplicates subject 3 from a lower index, so it comes first at distance 0.
    assert k_nearest(positions, 3, 1) == [(0, 0.0)]


def ranking_rows():
    """(row, subject) pairs: duplicates at distance 0 below and above the
    subject, all-equal rows, rows with a few distinct values, and rows
    holding nan or +inf, the subject's own entry included."""
    nan, inf = math.nan, math.inf
    yield [0.0, 0.0, 0.0, 0.0, 0.0], 2
    yield [0.0, 1.5, 0.0, 0.0, 2.5, 0.0, 1.5], 3
    yield [0.0, 1.5, 0.0, 0.0, 2.5, 0.0, 1.5], 0
    yield [2.0, 0.0, 1.0, 0.0, 0.0, 1.0], 4
    yield [nan, 0.0, 1.0], 1
    yield [1.0, 0.0, nan, 0.5], 1
    yield [1.0, nan, 0.0, 0.5], 1
    yield [inf, 0.0, inf, inf], 1
    yield [1.0, 0.0, inf, inf], 1
    yield [inf, nan, 0.0, 3.0, nan], 2
    draw = np.random.default_rng(23)
    for size in (*range(1, 10), 100):
        for value in (0.0, 1.25, nan, inf):
            yield [value] * size, int(draw.integers(size))
        for _ in range(60):
            values = draw.choice([0.0, 0.5, 1.0, 2.0, nan, inf], size=size,
                                 p=[0.3, 0.2, 0.2, 0.2, 0.05, 0.05])
            yield values.tolist(), int(draw.integers(size))
            yield draw.uniform(0.0, 5.0, size).tolist(), int(draw.integers(size))


def test_rank_neighbours_argmin_path_equals_the_stable_sort():
    for values, subject in ranking_rows():
        size = len(values)
        for k in sorted({1, 2, 3, max(1, size - 1), size, size + 3}):
            row = np.array(values)
            assert rank_neighbours(row, subject, k) == neighbour_order(
                values, subject, k), (values, subject, k)


def test_k_nearest_clamps_and_rejects():
    positions = np.zeros((3, 2))
    assert len(k_nearest(positions, 0, 10)) == 2
    with pytest.raises(EmptyNeighbourhoodError):
        k_nearest(np.zeros((1, 2)), 0, 1)
    with pytest.raises(ConfigurationError):
        k_nearest(positions, 0, 0)
    with pytest.raises(ValueError):
        k_nearest(positions, 5, 1)


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
        assert inside(space, repaired)
        assert repaired[1] == 0.25


def test_repair_bounds_catches_nan():
    space = SearchSpace(2, -1.0, 1.0)
    repaired = repair_bounds(np.array([float("nan"), 0.0]), space, RngStream(8))
    assert inside(space, repaired)


def test_repair_bounds_draws_in_ascending_coordinate_order():
    space = SearchSpace(4, -1.0, 1.0)
    rng = RngStream(21)
    point = [float("nan"), 0.5, 3.0, -1.5]
    reference = RngStream(21)
    assert repair_bounds(np.array(point), space, rng).tolist() == repaired(
        point, space, reference.repairs)
    assert rng.repairs.bit_generator.state == reference.repairs.bit_generator.state
    assert rng.generator.bit_generator.state == RngStream(21).generator.bit_generator.state


def test_repair_stream_is_a_pure_function_of_the_seed():
    for seed in (0, 1, 21, 2**64 - 2):
        draws = RngStream(seed).repairs.random(8)
        assert np.array_equal(draws, RngStream(seed).repairs.random(8))
        assert not np.array_equal(draws, RngStream(seed).generator.random(8))
        assert not np.array_equal(draws, RngStream(seed + 1).repairs.random(8))
        # The search stream is PCG64 on the seed itself.
        assert np.array_equal(RngStream(seed).generator.random(8),
                              np.random.Generator(np.random.PCG64(seed)).random(8))


def test_repair_bounds_shape_check():
    rng = RngStream(1)
    for shape in [(), (3,), (1,), (0,), (4, 3), (2, 1), (2, 2, 2)]:
        with pytest.raises(ValueError, match=r"shape .* expected \(2,\) or \(m, 2\)"):
            repair_bounds(np.zeros(shape), SearchSpace(2, -1.0, 1.0), rng)
    assert rng.repairs.bit_generator.state == RngStream(1).repairs.bit_generator.state


@pytest.mark.parametrize("dim", range(1, 7))
def test_repair_bounds_matrix_is_one_scalar_draw_per_coordinate_row_major(dim):
    # Rows over a box widened by half a width per side, with nan, infinite
    # and boundary coordinates scattered in; a third of the batches lie
    # wholly inside, boundaries included, and draw nothing.
    draw = np.random.default_rng(40 + dim)
    drawn = 0
    for case in range(30):
        space = SearchSpace(dim, float(draw.uniform(-9.0, -0.1)), float(draw.uniform(0.1, 9.0)))
        width = space.upper - space.lower
        rows = int(draw.integers(0, 40))
        wholly_inside = case % 3 == 0
        margin = 0.0 if wholly_inside else width / 2
        points = draw.uniform(space.lower - margin, space.upper + margin, size=(rows, dim))
        specials = [space.lower, space.upper]
        if not wholly_inside:
            specials += [np.nan, np.inf, -np.inf]
        odd = draw.random(points.shape) < 0.1
        points[odd] = draw.choice(specials, size=int(odd.sum()))
        before = points.copy()
        rng, reference = RngStream(case), RngStream(case)
        repaired = repair_bounds(points, space, rng)
        expected = repaired_row_major(points, space, reference.repairs)
        assert repaired.shape == points.shape
        assert repaired.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), case
        assert rng.repairs.bit_generator.state == reference.repairs.bit_generator.state
        assert rng.generator.bit_generator.state == RngStream(case).generator.bit_generator.state
        if wholly_inside:
            assert rng.repairs.bit_generator.state == RngStream(case).repairs.bit_generator.state
        assert np.array_equal(points, before, equal_nan=True)
        assert not np.shares_memory(repaired, points)
        assert inside(space, repaired).all()
        drawn += int(np.count_nonzero(repaired != before))
    assert drawn > 100


def test_repair_bounds_point_equals_its_one_row_batch():
    space = SearchSpace(5, -1.0, 1.0)
    point = np.array([np.inf, 0.5, np.nan, -1.5, 1.0])
    single, batch = RngStream(6), RngStream(6)
    repaired = repair_bounds(point, space, single)
    assert repaired.shape == (5,)
    assert repaired.tobytes() == repair_bounds(point[None], space, batch)[0].tobytes()
    assert single.repairs.bit_generator.state == batch.repairs.bit_generator.state


def test_error_rate():
    assert error_rate(-0.9, -1.0) == pytest.approx(0.1)
    assert error_rate(3.0, 3.0) == 0.0
