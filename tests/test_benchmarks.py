"""Benchmark registry: domains, published optima, spot values, column forms."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt.benchmarks import evaluate, list_functions, spec_of
from swarmopt.core import (
    OptimizationMode,
    RngStream,
    UnknownFunctionError,
    evaluate_rows,
    minimised,
)
from oracle import COLUMN_CASES, inside, probe_rows

EXPECTED_DOMAINS = {
    "ackley": (-5.0, 5.0),
    "schaffer": (-100.0, 100.0),
    "rastrigin": (-5.12, 5.12),
    "holders_table": (-10.0, 10.0),
    "rosenbrock": (-5.0, 10.0),
    "sphere": (-100.0, 100.0),
    "booth": (-10.0, 10.0),
    "easom": (-100.0, 100.0),
    "himmelblau": (-5.0, 5.0),
    "goldstein_price": (-2.0, 2.0),
}


def test_registry_lists_ten_functions():
    names = list_functions()
    assert len(names) == 10
    assert set(names) == set(EXPECTED_DOMAINS)


def test_registry_domains():
    for name, (lower, upper) in EXPECTED_DOMAINS.items():
        spec = spec_of(name)
        assert spec.space.dim == 2
        assert (spec.space.lower, spec.space.upper) == (lower, upper)
        assert spec.mode is OptimizationMode.MIN


def test_unknown_function_raises():
    with pytest.raises(UnknownFunctionError):
        spec_of("griewank")
    with pytest.raises(UnknownFunctionError):
        evaluate("griewank", (0.0, 0.0))


def test_known_minima_at_argmin():
    for name in list_functions():
        spec = spec_of(name)
        tolerance = 2e-4 if name == "holders_table" else 1e-6
        value = spec.evaluator(np.asarray(spec.known_argmin, dtype=float))
        assert abs(value - spec.known_minimum) <= tolerance, name


def test_argmin_inside_domain():
    for name in list_functions():
        spec = spec_of(name)
        assert inside(spec.space, spec.known_argmin), name


def test_spot_values():
    assert evaluate("sphere", (3.0, 4.0)) == pytest.approx(25.0)
    assert evaluate("booth", (0.0, 0.0)) == pytest.approx(74.0)
    assert evaluate("himmelblau", (0.0, 0.0)) == pytest.approx(170.0)
    assert evaluate("goldstein_price", (0.0, 0.0)) == pytest.approx(600.0)
    assert evaluate("rastrigin", (1.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
    assert evaluate("rosenbrock", (0.0, 0.0)) == pytest.approx(1.0)


def test_random_points_never_beat_minimum():
    rng = RngStream(123)
    for name in list_functions():
        spec = spec_of(name)
        points = rng.uniform(spec.space.lower, spec.space.upper, size=(200, spec.space.dim))
        values = np.array([spec.evaluator(p) for p in points])
        assert np.all(values >= spec.known_minimum - 1e-9), name


def test_evaluators_reject_bad_shape():
    with pytest.raises(ValueError):
        evaluate("booth", (1.0, 2.0, 3.0))
    # rastrigin and sphere take any dimension, rosenbrock any from 2 up
    assert evaluate("sphere", (1.0, 2.0, 2.0)) == pytest.approx(9.0)
    with pytest.raises(ValueError, match="rosenbrock takes 2 or more coordinates, got 1"):
        evaluate("rosenbrock", (1.0,))


@pytest.mark.parametrize("name,dim", COLUMN_CASES)
def test_column_form_equals_scalar_form_bit_for_bit(name, dim):
    rows = probe_rows(name, dim)
    for mode in OptimizationMode:
        evaluator, _ = minimised(replace(spec_of(name), mode=mode))
        assert hasattr(evaluator, "batch")
        columns = evaluate_rows(evaluator, rows)
        scalars = np.array([evaluator(row) for row in rows])
        assert columns.shape == (len(rows),)
        differ = np.flatnonzero(columns.view(np.uint64) != scalars.view(np.uint64))
        assert differ.size == 0, (mode, rows[differ[:3]], columns[differ[:3]],
                                  scalars[differ[:3]])


def miscount_message(evaluator, point):
    with pytest.raises(ValueError) as raised:
        evaluator(point)
    return str(raised.value)


@pytest.mark.parametrize("name", list_functions())
def test_scalar_evaluator_reads_lists_tuples_and_arrays_alike(name):
    evaluator = spec_of(name).evaluator
    dims = [dim for case, dim in COLUMN_CASES if case == name]
    for dim in dims:
        for row in probe_rows(name, dim, 300):
            value = np.float64(evaluator(row)).tobytes()
            for point in (row.tolist(), tuple(row.tolist())):
                assert np.float64(evaluator(point)).tobytes() == value, point
    # Integer coordinates are read as floats on every path: from 2**53 + 1
    # up, integer arithmetic would round differently.
    integers = [2 ** 53 + 1, -3, 5][: dims[0]]
    outcomes = [outcome(evaluator, point) for point in (integers, tuple(integers),
                                                        np.array(integers, dtype=float))]
    keys = [o.tobytes() if isinstance(o, np.ndarray) else o for o in outcomes]
    assert keys[0] == keys[1] == keys[2], outcomes
    for count in {0, 1, 2, 3} - set(dims):
        row = np.linspace(-1.0, 1.0, count)
        message = miscount_message(evaluator, row)
        assert message.startswith(f"{name} takes ") and message.endswith(f"got {count}")
        assert miscount_message(evaluator, row.tolist()) == message
        assert miscount_message(evaluator, tuple(row.tolist())) == message


# Squares of 1e-160 are subnormal; squares from 1e150 up take the element
# loop, and those of 1e155 overflow; 1e4 overflows holders_table's exp.
# math.sin and math.cos raise ValueError at ±inf where np.sin and np.cos
# return nan, so coordinates that are infinite or whose squares overflow go
# only to the objectives that take no sine or cosine.
EXTREMES = (0.0, 1e-160, -3e-155, 2.5, -7.25, 1e4, 1e149, -1e149, 1e151, -1e151, math.nan)
OVERFLOWING = (1e155, math.inf, -math.inf)
TAKE_OVERFLOWING = ("booth", "goldstein_price", "himmelblau", "rosenbrock", "sphere")


def outcome(evaluate, rows):
    """What an evaluation returns, or the type of the exception it raises."""
    try:
        return np.asarray(evaluate(rows), dtype=float)
    except Exception as error:
        return type(error)


@pytest.mark.parametrize("name,dim", COLUMN_CASES)
def test_column_form_equals_scalar_form_at_extreme_coordinates(name, dim):
    values = EXTREMES + (OVERFLOWING if name in TAKE_OVERFLOWING else ())
    if dim <= 2:
        rows = np.array(list(itertools.product(values, repeat=dim)))
    else:
        rows = RngStream(dim).generator.choice(values, size=(400, dim))
    evaluator = spec_of(name).evaluator
    assert evaluator.batch(rows[:0]).shape == (0,)
    # numpy warns where Python's float arithmetic returns inf or nan
    # silently; the forms are compared on what they return or raise.
    with np.errstate(over="ignore", invalid="ignore"):
        for size in (1, 5, len(rows)):
            for start in range(0, len(rows), size):
                batch = rows[start:start + size]
                scalars = [outcome(evaluator, row) for row in batch]
                columns = outcome(evaluator.batch, batch)
                raised = [kind for kind in scalars if isinstance(kind, type)]
                if raised:
                    assert columns is raised[0] and set(raised) == {OverflowError}, batch
                    continue
                scalars = np.array(scalars)
                # A nan's sign bit follows operand order and carries no value.
                same = (columns.view(np.uint64) == scalars.view(np.uint64)) | (
                    np.isnan(columns) & np.isnan(scalars))
                assert same.all(), (batch[~same], columns[~same], scalars[~same])


@pytest.mark.parametrize("name", ["booth", "rosenbrock", "himmelblau"])
def test_squares_past_the_float_range_raise_overflow_error_on_both_forms(name):
    evaluator = spec_of(name).evaluator
    row = np.array([1.0, 1e200])
    with pytest.raises(OverflowError):
        evaluator(row)
    with pytest.raises(OverflowError):
        evaluator.batch(row[None, :])
    with pytest.raises(OverflowError):
        evaluator.batch(np.vstack([np.zeros((4, 2)), row]))


@pytest.mark.parametrize(
    "name,shape,needle",
    [
        ("booth", (4, 3), "booth takes 2 coordinates, got 3"),
        ("easom", (4, 1), "easom takes 2 coordinates, got 1"),
        ("rastrigin", (4, 0), "rastrigin takes 1 or more coordinates, got 0"),
        ("rosenbrock", (4, 1), "rosenbrock takes 2 or more coordinates, got 1"),
        ("sphere", (4,), r"sphere takes an \(m, d\) batch, got shape \(4,\)"),
    ],
)
def test_batch_shape_errors_name_the_function(name, shape, needle):
    with pytest.raises(ValueError, match=needle):
        spec_of(name).evaluator.batch(np.zeros(shape))
