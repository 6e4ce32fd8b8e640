"""Colony optimizer stages, configuration arithmetic, early stopping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt.abco import (
    AbcoConfig,
    RunState,
    early_stop_check,
    exploit_stage,
    explore_stage,
    move_toward,
    reproduce_stage,
    run_abco,
    tumble_step,
)
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import (
    Bacterium,
    ConfigurationError,
    OptimizationMode,
    RngStream,
    SearchSpace,
    derive_seed,
    quality_key,
    seed_population,
)
from swarmopt.harness import ABCO_KEYS, abco_preset

SPACE = SearchSpace(2, -5.0, 5.0)


def sphere(p):
    return float(np.dot(p, p))


def member_at(x, y, value):
    position = np.array([x, y], dtype=float)
    return Bacterium(
        position=position,
        solution=value,
        best_position=position.copy(),
        best_solution=value,
        previous_best_solution=value,
    )


def fresh_state(population):
    best = min(population, key=lambda m: m.best_solution)
    return RunState(
        population=population,
        iteration=1,
        global_best_value=best.best_solution,
        global_best_position=best.best_position.copy(),
    )


# --- configuration ---------------------------------------------------------

def test_config_defaults_validate():
    cfg = AbcoConfig()
    assert cfg.size == 25
    assert cfg.iterations == 100
    assert cfg.mode is OptimizationMode.MIN


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(size=0), "size"),
        (dict(iterations=0), "iterations"),
        (dict(step_size=0.0), "step_size"),
        (dict(explore_steps=0), "explore_steps"),
        (dict(exploit_steps=-1), "exploit_steps"),
        (dict(tumble_steps=0), "tumble_steps"),
        (dict(improvement_threshold=-0.1), "improvement_threshold"),
        (dict(survivor_fraction=0.0), "survivor_fraction"),
        (dict(survivor_fraction=1.5), "survivor_fraction"),
        (dict(neighbor_count=0), "neighbor_count"),
        (dict(generation_gap=0.0), "generation_gap"),
        (dict(generation_gap=101.0), "generation_gap"),
        (dict(unchanged_threshold=0.0), "unchanged_threshold"),
    ],
)
def test_config_rejects_bad_values(kwargs, needle):
    with pytest.raises(ConfigurationError, match=needle):
        AbcoConfig(**kwargs)


def test_survivor_count_rounds_half_up():
    assert AbcoConfig(size=10, survivor_fraction=0.8).survivor_count == 8
    assert AbcoConfig(size=25, survivor_fraction=0.3).survivor_count == 8
    assert AbcoConfig(size=25, survivor_fraction=0.5).survivor_count == 13
    assert AbcoConfig(size=3, survivor_fraction=0.01).survivor_count == 1


def test_checkpoint_period():
    assert AbcoConfig(iterations=200, generation_gap=25.0).checkpoint_period == 50
    assert AbcoConfig(iterations=100, generation_gap=25.0).checkpoint_period == 25
    assert AbcoConfig(iterations=10, generation_gap=25.0).checkpoint_period == 3
    assert AbcoConfig(iterations=3, generation_gap=1.0).checkpoint_period == 1


def test_config_accepts_mode_string():
    assert AbcoConfig(mode="max").mode is OptimizationMode.MAX


# --- movement primitives ---------------------------------------------------

def test_move_toward_unit_step():
    assert np.allclose(move_toward((0.0, 0.0), (3.0, 0.0), 1.0), (1.0, 0.0))


def test_move_toward_lands_without_overshoot():
    assert np.array_equal(move_toward((0.0, 0.0), (0.5, 0.0), 1.0), (0.5, 0.0))


def test_move_toward_identity():
    assert np.array_equal(move_toward((2.0, 2.0), (2.0, 2.0), 1.0), (2.0, 2.0))


def test_move_toward_never_passes_target():
    rng = np.random.default_rng(4)
    for _ in range(200):
        current = rng.uniform(-5, 5, 3)
        target = rng.uniform(-5, 5, 3)
        step = float(rng.uniform(0.01, 3.0))
        moved = move_toward(current, target, step)
        before = np.linalg.norm(target - current)
        after = np.linalg.norm(target - moved)
        assert after <= before + 1e-12
        assert np.linalg.norm(moved - current) <= step + 1e-12


def test_tumble_step_has_exact_norm():
    cfg = AbcoConfig(step_size=1.0)
    rng = RngStream(11)
    wide = SearchSpace(2, -1e6, 1e6)
    for _ in range(100):
        member = member_at(0.0, 0.0, 0.0)
        moved = tumble_step(member, cfg, wide, rng)
        assert np.linalg.norm(moved - member.position) == pytest.approx(1.0, abs=1e-12)


def test_tumble_step_respects_bounds():
    cfg = AbcoConfig(step_size=1.0)
    rng = RngStream(12)
    for _ in range(100):
        member = member_at(4.9, 0.0, 0.0)
        assert SPACE.contains(tumble_step(member, cfg, SPACE, rng))


# --- explore ---------------------------------------------------------------

def test_explore_updates_personal_bests_downward():
    cfg = AbcoConfig(size=8, explore_steps=2, tumble_steps=2)
    rng = RngStream(21)
    population = seed_population(SPACE, cfg.size, sphere, rng)
    before = [m.best_solution for m in population]
    state = fresh_state(population)
    explore_stage(state, cfg, sphere, SPACE, rng)
    for member, old in zip(state.population, before):
        assert member.best_solution <= old
        assert SPACE.contains(member.position)
        assert member.best_solution <= member.solution


def test_explore_threshold_gates_directed_steps():
    counts = []
    for threshold in (0.0, 0.5, math.inf):
        cfg = AbcoConfig(size=8, improvement_threshold=threshold)
        rng = RngStream(33)
        state = fresh_state(seed_population(SPACE, cfg.size, sphere, rng))
        explore_stage(state, cfg, sphere, SPACE, rng)
        counts.append(state.diagnostics.get("directed_steps", 0))
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] == 0
    assert counts[0] > 0


def test_explore_rolls_back_non_finite():
    def holed(p):
        if abs(p[0]) < 0.5:
            return float("nan")
        return sphere(p)

    cfg = AbcoConfig(size=10, explore_steps=3)
    rng = RngStream(2)
    population = [m for m in seed_population(SPACE, 30, sphere, rng) if abs(m.position[0]) >= 0.5][:10]
    state = fresh_state(population)
    explore_stage(state, cfg, holed, SPACE, rng)
    assert state.diagnostics.get("rolled_back_moves", 0) > 0
    for member in state.population:
        assert math.isfinite(member.solution)
        assert abs(member.position[0]) >= 0.5


# --- exploit ---------------------------------------------------------------

def tilted(p):
    # f(0,0)=7, f(1,0)=5, f(0,1)=9
    return 7.0 - 2.0 * p[0] + 2.0 * p[1]


def test_exploit_moves_to_best_neighbour():
    population = [member_at(0, 0, 7.0), member_at(1, 0, 5.0), member_at(0, 1, 9.0)]
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1)
    state = fresh_state(population)
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert np.allclose(state.population[0].position, (1.0, 0.0))
    assert state.population[0].solution == pytest.approx(5.0)


def test_exploit_max_mode_inverts_target():
    population = [member_at(0, 0, 7.0), member_at(1, 0, 5.0), member_at(0, 1, 9.0)]
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1, mode="max")
    state = fresh_state(population)
    state.global_best_value = 9.0
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert np.allclose(state.population[0].position, (0.0, 1.0))


def test_exploit_holds_when_already_best():
    population = [member_at(1, 0, 5.0), member_at(0, 0, 7.0), member_at(0, 1, 9.0)]
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1)
    state = fresh_state(population)
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert np.array_equal(state.population[0].position, (1.0, 0.0))


def test_exploit_single_member_is_noop():
    population = [member_at(0, 0, 7.0)]
    cfg = AbcoConfig(size=1, exploit_steps=1)
    state = fresh_state(population)
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert state.diagnostics.get("exploit_skipped") == 1
    assert np.array_equal(state.population[0].position, (0.0, 0.0))


# --- reproduce -------------------------------------------------------------

def test_reproduce_conserves_size_and_bounds():
    cfg = AbcoConfig(size=10, survivor_fraction=0.8, neighbor_count=2)
    rng = RngStream(40)
    state = fresh_state(seed_population(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    assert len(state.population) == cfg.size
    for member in state.population:
        assert SPACE.contains(member.position)


def test_reproduce_keeps_exactly_the_best():
    cfg = AbcoConfig(size=12, survivor_fraction=0.5, neighbor_count=3)
    rng = RngStream(41)
    population = seed_population(SPACE, cfg.size, sphere, rng)
    oracle = sorted(
        range(len(population)),
        key=lambda i: (quality_key(population[i].solution, cfg.mode), i),
    )[: cfg.survivor_count]
    expected = [id(population[i]) for i in oracle]
    state = fresh_state(population)
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    survivors = [id(m) for m in state.population[: cfg.survivor_count]]
    assert survivors == expected


def test_reproduce_replacements_start_fresh():
    cfg = AbcoConfig(size=10, survivor_fraction=0.6, neighbor_count=2)
    rng = RngStream(42)
    state = fresh_state(seed_population(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    for member in state.population[cfg.survivor_count :]:
        assert member.best_solution == member.solution
        assert member.previous_best_solution == member.solution
        assert np.array_equal(member.best_position, member.position)
        assert member.solution == pytest.approx(sphere(member.position))


def test_reproduce_replacement_is_convex_combination():
    cfg = AbcoConfig(size=6, survivor_fraction=0.5, neighbor_count=2)
    rng = RngStream(43)
    state = fresh_state(seed_population(SPACE, cfg.size, sphere, rng))
    survivors_box_low = min(m.position.min() for m in state.population)
    survivors_box_high = max(m.position.max() for m in state.population)
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    for member in state.population[cfg.survivor_count :]:
        assert member.position.min() >= survivors_box_low - 1e-12
        assert member.position.max() <= survivors_box_high + 1e-12


def test_reproduce_single_survivor_reseeds():
    cfg = AbcoConfig(size=4, survivor_fraction=0.01, neighbor_count=2)
    rng = RngStream(44)
    state = fresh_state(seed_population(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    assert len(state.population) == 4
    for member in state.population:
        assert SPACE.contains(member.position)


# --- early stop ------------------------------------------------------------

def stagnant_state(size=10, iteration=0):
    population = [member_at(float(i), 0.0, float(i)) for i in range(size)]
    state = fresh_state(population)
    state.iteration = iteration
    return state


def test_early_stop_fires_only_at_checkpoints():
    cfg = AbcoConfig(size=10, iterations=200, generation_gap=25.0, unchanged_threshold=80.0)
    state = stagnant_state()
    fired = []
    for iteration in range(1, 201):
        state.iteration = iteration
        if early_stop_check(state, cfg):
            fired.append(iteration)
            break
    assert fired == [50]


def test_early_stop_thresholds():
    cfg = AbcoConfig(size=20, iterations=100, generation_gap=25.0, unchanged_threshold=80.0)
    state = stagnant_state(size=20, iteration=25)
    # 17/20 = 85% unchanged -> stop
    for member in state.population[:3]:
        member.best_solution -= 1.0
    assert early_stop_check(state, cfg) is True

    state = stagnant_state(size=20, iteration=25)
    # 10/20 = 50% -> continue and refresh snapshots
    for member in state.population[:10]:
        member.best_solution -= 1.0
    assert early_stop_check(state, cfg) is False
    assert all(m.previous_best_solution == m.best_solution for m in state.population)


def test_early_stop_exact_threshold_continues():
    cfg = AbcoConfig(size=10, iterations=100, generation_gap=25.0, unchanged_threshold=80.0)
    state = stagnant_state(iteration=25)
    for member in state.population[:2]:
        member.best_solution -= 1.0
    # exactly 80% is not "more than" the threshold
    assert early_stop_check(state, cfg) is False


def test_early_stop_skips_final_iteration():
    cfg = AbcoConfig(size=10, iterations=100, generation_gap=25.0, unchanged_threshold=80.0)
    state = stagnant_state(iteration=100)
    assert early_stop_check(state, cfg) is False


# --- full runs -------------------------------------------------------------

def test_run_abco_is_deterministic():
    cfg = AbcoConfig(size=10, iterations=15)
    objective = spec_of("rastrigin")
    a = run_abco(objective, cfg, RngStream(77))
    b = run_abco(objective, cfg, RngStream(77))
    assert a.best_value == b.best_value
    assert a.iterations_executed == b.iterations_executed
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.best_position, b.best_position)


def test_run_abco_history_is_monotone():
    cfg = AbcoConfig(size=12, iterations=20)
    result = run_abco(spec_of("ackley"), cfg, RngStream(5))
    history = result.diagnostics["best_history"]
    assert len(history) == result.iterations_executed
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert spec_of("ackley").space.contains(result.best_position)


def test_run_abco_stops_on_stagnation():
    class Flat:
        space = SPACE
        evaluator = staticmethod(lambda p: 1.0)

    cfg = AbcoConfig(size=6, iterations=20, generation_gap=25.0, unchanged_threshold=80.0)
    result = run_abco(Flat(), cfg, RngStream(3))
    assert result.early_stopped
    assert result.iterations_executed == cfg.checkpoint_period
    assert result.best_value == 1.0  # global best seeded from the population


def test_run_abco_max_mode_negates_min_mode():
    neg = lambda p: -sphere(p)

    class Neg:
        space = SPACE
        evaluator = staticmethod(neg)

    class Pos:
        space = SPACE
        evaluator = staticmethod(sphere)

    cfg_min = AbcoConfig(size=6, iterations=8)
    cfg_max = AbcoConfig(size=6, iterations=8, mode="max")
    low = run_abco(Pos(), cfg_min, RngStream(9))
    high = run_abco(Neg(), cfg_max, RngStream(9))
    assert high.best_value == pytest.approx(-low.best_value)
    assert np.array_equal(high.best_position, low.best_position)
    assert high.iterations_executed == low.iterations_executed


def test_run_abco_reports_the_best_value_it_evaluated():
    # Reproduction culls by current value; a member holding the best
    # personal record must not take that record with it.
    runs = [(fn, 10, 30, derive_seed(0, fn, "abco", i))
            for fn in list_functions() for i in range(4)]
    runs.append(("easom", 25, 100, 17650024986009573162))
    for function_id, size, iterations, seed in runs:
        spec = spec_of(function_id)
        lowest = [math.inf]

        def observed(point, inner=spec.evaluator):
            value = inner(point)
            if math.isfinite(value):
                lowest[0] = min(lowest[0], value)
            return value

        preset = {ABCO_KEYS[k]: v for k, v in abco_preset(function_id).items()}
        cfg = AbcoConfig(**preset, size=size, iterations=iterations)
        result = run_abco(replace(spec, evaluator=observed), cfg, RngStream(seed))
        assert result.best_value == lowest[0], (function_id, size, seed)
