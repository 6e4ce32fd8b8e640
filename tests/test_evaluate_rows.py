"""Batch evaluation: registry runs equal the same runs made row by row.

The registry's evaluators carry a column form, which core.evaluate_rows
uses; a wrapped evaluator carries none, so the optimizers call it once per
row. Both paths must give the same run, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import OptimizationMode, RngStream, SearchSpace

RUNNERS = {
    "abco": (run_abco, AbcoConfig(size=12, iterations=30, explore_steps=2)),
    "pso": (run_pso, PsoConfig(size=12, iterations=30)),
    "aco": (run_acor, AcorConfig(size=12, iterations=30)),
}


def counted(spec):
    """`spec` with its evaluator wrapped to count calls, and the count."""
    calls = [0]
    inner = spec.evaluator

    def evaluator(point):
        calls[0] += 1
        return inner(point)

    return replace(spec, evaluator=evaluator), calls


def outcome(runner, spec, cfg, seed):
    rng = RngStream(seed)
    result = runner(spec, cfg, rng)
    return (
        repr(result.best_value),
        result.best_position.tobytes(),
        result.evaluations,
        result.iterations_executed,
        result.early_stopped,
        [repr(v) for v in result.diagnostics["best_history"]],
        rng.generator.bit_generator.state,
        rng.repairs.bit_generator.state,
    ), result


def assert_paths_agree(spec, algorithm, cfg=None, seed=11):
    runner, default = RUNNERS[algorithm]
    cfg = cfg or default
    assert hasattr(spec.evaluator, "batch")
    wrapped, calls = counted(spec)
    assert not hasattr(wrapped.evaluator, "batch")
    batched, result = outcome(runner, spec, cfg, seed)
    row_by_row, _ = outcome(runner, wrapped, cfg, seed)
    assert batched == row_by_row
    assert calls[0] == result.evaluations


@pytest.mark.parametrize("mode", list(OptimizationMode))
@pytest.mark.parametrize("algorithm", list(RUNNERS))
@pytest.mark.parametrize("name", list_functions())
def test_batch_and_row_paths_give_identical_runs(name, algorithm, mode):
    assert_paths_agree(replace(spec_of(name), mode=mode), algorithm)


@pytest.mark.parametrize("mode", list(OptimizationMode))
def test_lone_survivor_reseeds_identically_on_both_paths(mode):
    # survivor_count is 1, so reproduce reseeds through seed_population.
    cfg = AbcoConfig(size=12, iterations=30, survivor_fraction=0.05)
    assert cfg.survivor_count == 1
    assert_paths_agree(replace(spec_of("himmelblau"), mode=mode), "abco", cfg)


@pytest.mark.parametrize("dim", [1, 6])
@pytest.mark.parametrize("algorithm", list(RUNNERS))
@pytest.mark.parametrize("name", ["sphere", "rastrigin"])
def test_any_dimension_objectives_agree_on_both_paths(name, algorithm, dim):
    spec = spec_of(name)
    spec = replace(spec, space=SearchSpace(dim, spec.space.lower, spec.space.upper))
    assert_paths_agree(spec, algorithm)


@pytest.mark.parametrize("mode", list(OptimizationMode))
@pytest.mark.parametrize("algorithm", list(RUNNERS))
def test_history_holds_one_float_per_improvement(algorithm, mode):
    runner, cfg = RUNNERS[algorithm]
    spec = replace(spec_of("rastrigin"), mode=mode)
    history = runner(spec, cfg, RngStream(3)).diagnostics["best_history"]
    sign = -1.0 if mode is OptimizationMode.MAX else 1.0
    improvements = sum(sign * later < sign * earlier
                       for earlier, later in zip(history, history[1:]))
    assert 0 < improvements < len(history) - 1
    assert len({id(value) for value in history}) == improvements + 1


@pytest.mark.parametrize("algorithm", list(RUNNERS))
@pytest.mark.parametrize("name", ["rastrigin", "ackley"])
def test_no_optimizer_writes_to_a_batch_after_evaluating_it(name, algorithm):
    # An evaluator may keep the batch it is passed: every array handed to
    # the column form must still hold what it held when it was evaluated.
    spec = spec_of(name)
    inner, kept = spec.evaluator, []

    def evaluator(point):
        return inner(point)

    def batch(rows):
        kept.append((rows, rows.copy()))
        return inner.batch(rows)

    evaluator.batch = batch
    runner, cfg = RUNNERS[algorithm]
    runner(replace(spec, evaluator=evaluator), cfg, RngStream(5))
    assert len(kept) > cfg.iterations
    for rows, copy in kept:
        assert np.array_equal(rows, copy)


@pytest.mark.parametrize("algorithm", list(RUNNERS))
def test_a_column_form_of_the_wrong_shape_is_refused(algorithm):
    # One value for m rows would broadcast into PSO's swarm unnoticed.
    spec = spec_of("sphere")
    inner = spec.evaluator

    def evaluator(point):
        return inner(point)

    evaluator.batch = lambda rows: inner.batch(rows)[:1]
    runner, cfg = RUNNERS[algorithm]
    cfg = replace(cfg, size=10, iterations=5)
    with pytest.raises(ValueError, match=r"shape \(1,\), expected \(10,\)"):
        runner(replace(spec, evaluator=evaluator), cfg, RngStream(1))
