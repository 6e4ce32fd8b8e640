"""The run driver: one seeding, champion, history and result for every optimizer."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import spec_of
from swarmopt.core import (
    OptimizationMode,
    RngStream,
    Run,
    SearchSpace,
    drive,
    minimised,
    seed_population,
)
from oracle import adhoc_objective

MIN, MAX = OptimizationMode.MIN, OptimizationMode.MAX

RUNNERS = {
    "abco": (run_abco, AbcoConfig(size=10, iterations=40)),
    "pso": (run_pso, PsoConfig(size=10, iterations=40)),
    "aco": (run_acor, AcorConfig(size=10, iterations=40)),
}


def objective_of(landscape, mode):
    spec = spec_of("rastrigin")
    if landscape == "flat":  # freezes the colony, so it stops at its first checkpoint
        spec = replace(spec, evaluator=lambda point: 2.0)
    return replace(spec, mode=mode)


@pytest.mark.parametrize("landscape", ["rastrigin", "flat"])
@pytest.mark.parametrize("mode", [MIN, MAX])
@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_every_history_is_the_seeded_best_then_one_entry_per_iteration(name, mode, landscape):
    runner, cfg = RUNNERS[name]
    objective = objective_of(landscape, mode)
    result = runner(objective, cfg, RngStream(11))
    history = result.diagnostics["best_history"]
    evaluate, sign = minimised(objective)
    _, seeded = seed_population(objective.space, cfg.size, evaluate, RngStream(11))
    assert len(history) == result.iterations_executed + 1
    assert history[0] == sign * seeded.min()
    assert history[-1] == result.best_value
    assert result.early_stopped == (name == "abco" and landscape == "flat")
    # One float object is repeated until the best improves.
    assert all(later is earlier for earlier, later in zip(history, history[1:])
               if later == earlier)


@pytest.mark.parametrize("mode", [MIN, MAX])
def test_drive_crowns_an_all_nan_seed_and_a_finite_offer_replaces_it(mode):
    space = SearchSpace(2, -1.0, 1.0)
    objective = adhoc_objective(space, lambda point: math.nan, mode)
    sign = minimised(objective)[1]
    seen = []

    def search(run, evaluate, positions, values):
        seen.append((run.global_best_position.copy(), positions[0].copy()))
        run.offer(math.inf, np.ones(2))
        yield
        run.evaluations += 1
        run.offer(0.5, np.full(2, 0.5))
        yield

    result = drive(objective, 3, RngStream(4), search)
    (champion, first_seeded), = seen
    assert np.array_equal(champion, first_seeded)
    history = result.diagnostics["best_history"]
    assert math.isnan(history[0]) and math.isnan(history[1])
    assert history[2] == result.best_value == sign * 0.5
    assert np.array_equal(result.best_position, [0.5, 0.5])
    assert (result.iterations_executed, result.evaluations) == (2, 4)
    assert not result.early_stopped


def test_offer_keeps_the_first_position_on_a_tie_and_reported_until_it_improves():
    position = np.zeros(2)
    run = Run(global_best_value=1.0, global_best_position=position.copy(), sign=-1.0,
              reported=-1.0)
    reported = run.reported
    for value in (1.0, 2.0, math.nan):
        run.offer(value, np.ones(2))
        assert np.array_equal(run.global_best_position, position)
        assert run.reported is reported
    found = np.full(2, 0.25)
    run.offer(0.25, found)
    found[:] = 9.0  # the champion holds a copy
    assert np.array_equal(run.global_best_position, [0.25, 0.25])
    assert run.global_best_value == 0.25 and run.reported == -0.25

    # Non-finite values tie with each other.
    run = Run(global_best_value=math.nan, global_best_position=position.copy())
    for value in (math.inf, -math.inf, math.nan):
        run.offer(value, np.ones(2))
        assert np.array_equal(run.global_best_position, position)


def test_offer_best_crowns_the_first_lowest_key_and_a_fresh_run_takes_any_first_offer():
    rows = np.arange(10.0).reshape(5, 2)
    run = Run()
    run.offer_best(np.full(5, math.nan), rows)
    assert math.isnan(run.global_best_value)
    assert np.array_equal(run.global_best_position, rows[0])

    # Finite rows beat nan and ±inf, and a tie keeps the first row.
    run.offer_best(np.array([math.inf, 3.0, math.nan, -math.inf, 3.0]), rows)
    assert run.global_best_value == 3.0 == run.reported
    assert np.array_equal(run.global_best_position, rows[1])
    run.offer_best(np.array([3.0, math.nan, 3.0, 3.0, math.inf]), rows)
    assert np.array_equal(run.global_best_position, rows[1])
    run.offer_best(np.array([math.nan, 4.0, -1.0, 2.0, -1.0]), rows)
    assert run.global_best_value == -1.0
    assert np.array_equal(run.global_best_position, rows[2])

    # A fresh run's first offer is its champion, whatever the value.
    run = Run(sign=-1.0)
    run.offer(math.inf, rows[3])
    assert run.global_best_value == math.inf and run.reported == -math.inf
    assert np.array_equal(run.global_best_position, rows[3])
