"""Colony optimizer stages, configuration arithmetic, early stopping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt import abco
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
    better_than,
    derive_seed,
    k_nearest,
    quality_key,
    repair_bounds,
    seed_population,
)
from swarmopt.harness import ABCO_KEYS, abco_preset
from test_acceptance import random_case

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


def one_tumble_step_per_member(population, cfg, space, rng):
    """The reference draw order for a round: tumble_step per member."""
    return [tumble_step(member, cfg, space, rng) for member in population]


def snapshot(state, rng):
    members = state.population
    return (
        np.array([m.position for m in members]).tobytes(),
        np.array([m.best_position for m in members]).tobytes(),
        np.array([(m.solution, m.best_solution) for m in members]).tobytes(),
        state.evaluations,
        state.diagnostics,
        rng.generator.bit_generator.state,
    )


def batched_and_reference(monkeypatch, explore):
    """snapshot after explore(), batched and with tumble_step per member."""
    batched = explore()
    with monkeypatch.context() as patch:
        patch.setattr(abco, "_tumble_round", one_tumble_step_per_member)
        reference = explore()
    return batched, reference


def test_explore_batches_draw_the_stream_of_one_tumble_step_per_member(monkeypatch):
    # step_size reaches 1.5 box widths, so many tumbles leave the box and
    # the batch rewinds; a nan region adds rollbacks.
    fallbacks, tumbles = [], 0
    monkeypatch.setattr(abco, "tumble_step",
                        lambda *args: fallbacks.append(1) or tumble_step(*args))
    for case in range(60):
        space, evaluator, cfg, _ = random_case(4_400 + case)
        cut = space.upper - (space.upper - space.lower) / 8

        def holed(p, f=evaluator):
            return float("nan") if case % 3 == 0 and p[0] > cut else f(p)

        def explore():
            rng = RngStream(case)
            state = fresh_state(seed_population(space, cfg.size, holed, rng))
            explore_stage(state, cfg, holed, space, rng)
            return snapshot(state, rng)

        batched, reference = batched_and_reference(monkeypatch, explore)
        assert batched == reference, case
        tumbles += cfg.size * cfg.explore_steps * cfg.tumble_steps
    assert 0 < len(fallbacks) < tumbles


class ZeroDirectionStream(RngStream):
    """A stream whose draw of one given direction comes back all zero."""

    def __init__(self, seed, direction):
        super().__init__(seed)
        self.direction = direction
        self.zeroed = 0

    def standard_normal(self, size=None):
        draws = self.generator.standard_normal(size)
        rows = draws.reshape(-1, len(self.direction))
        hits = (rows == self.direction).all(axis=1)
        rows[hits] = 0.0
        self.zeroed += int(hits.sum())
        return draws


def test_explore_redraws_a_zero_direction_like_tumble_step(monkeypatch):
    # No tumble leaves the box, so the eleventh direction drawn is member
    # 2's in the second round; it comes back zero and is redrawn.
    cfg = AbcoConfig(size=8, step_size=0.5, explore_steps=1, tumble_steps=2)
    zero_row = RngStream(5).standard_normal((11, 2))[10]
    streams = []

    def explore():
        rng = ZeroDirectionStream(5, zero_row)
        streams.append(rng)
        population = [member_at(0.2 * i - 0.7, 0.1 * i, 0.0) for i in range(cfg.size)]
        state = fresh_state(population)
        explore_stage(state, cfg, sphere, SPACE, rng)
        return snapshot(state, rng)

    batched, reference = batched_and_reference(monkeypatch, explore)
    assert all(rng.zeroed > 0 for rng in streams)
    assert batched == reference


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


def test_exploit_queries_positions_moved_earlier_in_the_pass():
    # Member 0 steps from (0, 0) to (1, 0), toward member 2's memory. That
    # puts it nearer member 1 than member 3 is, so member 1 follows member
    # 0's fresh best; against member 0's old position member 3 would be
    # nearest, and its worse memory would hold member 1 in place.
    population = [member_at(0, 0, 10.0), member_at(0.8, -1.9, 8.0),
                  member_at(2, 0, 0.0), member_at(0.8, -3.9, 9.0)]
    cfg = AbcoConfig(size=4, neighbor_count=1, exploit_steps=1)
    state = fresh_state(population)
    exploit_stage(state, cfg, lambda p: 3.0, SPACE, RngStream(1))
    assert np.array_equal(population[0].position, (1.0, 0.0))
    expected = move_toward((0.8, -1.9), (1.0, 0.0), cfg.step_size)
    assert np.array_equal(population[1].position, expected)
    assert population[1].best_solution == 3.0


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


# --- stage equivalence -----------------------------------------------------

def _bump(diagnostics, name):
    diagnostics[name] = diagnostics.get(name, 0) + 1


def reference_exploit(state, cfg, objective, space, rng):
    """The exploit pass member by member: k_nearest, better_than,
    move_toward, repair_bounds, then evaluate."""
    population = state.population
    positions = np.array([member.position for member in population])
    for _ in range(cfg.exploit_steps):
        for index, member in enumerate(population):
            target_index, target_value = None, member.best_solution
            for neighbour_index, _ in k_nearest(positions, index, cfg.neighbor_count):
                candidate = population[neighbour_index].best_solution
                if better_than(candidate, target_value, cfg.mode):
                    target_index, target_value = neighbour_index, candidate
            if target_index is None:
                continue
            target = population[target_index].best_position
            moved = repair_bounds(move_toward(member.position, target, cfg.step_size), space, rng)
            value = float(objective(moved))
            state.evaluations += 1
            if not math.isfinite(value):
                _bump(state.diagnostics, "rolled_back_moves")
                continue
            member.position = moved
            positions[index] = moved
            member.solution = value
            _bump(state.diagnostics, "exploit_moves")
            if better_than(value, member.best_solution, cfg.mode):
                member.best_solution = value
                member.best_position = moved.copy()
    return state


def reference_reproduce(state, cfg, objective, space, rng):
    """Reproduction building and evaluating one replacement row at a time."""
    ranked = sorted(state.population, key=lambda m: quality_key(m.solution, cfg.mode))
    survivors = ranked[: cfg.survivor_count]
    retained = len(survivors)
    needed = cfg.size - retained
    replacements = []
    if needed > 0 and retained == 1:
        replacements = seed_population(space, needed, objective, rng)
        state.evaluations += needed
    elif needed > 0:
        count = min(cfg.neighbor_count, retained - 1)
        total = count * (count + 1) / 2.0
        for i in range(needed):
            guide = i % retained
            start = min(max(guide - (count + 1) // 2, 0), retained - 1 - count)
            chosen = [j for j in range(start, start + count + 1) if j != guide]
            position = np.zeros(space.dim)
            for rank, j in enumerate(chosen, start=1):
                weight = (count - rank + 1) / total
                position += weight * survivors[j].position
            value = float(objective(position))
            state.evaluations += 1
            replacements.append(Bacterium(position, value, position.copy(), value, value))
    state.population = survivors + replacements
    return state


@pytest.mark.parametrize("stage, reference", [
    (exploit_stage, reference_exploit),
    (reproduce_stage, reference_reproduce),
])
def test_stage_matches_its_member_by_member_reference(monkeypatch, stage, reference):
    # Every other case explores and seeds a box a quarter width wider on
    # each side, so exploit steps leave the real box and are repaired; a
    # nan region in a third of the cases gives nan bests and rollbacks.
    repairs, stage_repairs = [], 0
    monkeypatch.setattr(abco, "repair_bounds",
                        lambda *args: repairs.append(1) or repair_bounds(*args))
    for case in range(60):
        space, evaluator, cfg, _ = random_case(5_500 + case)
        width = space.upper - space.lower
        wide = SearchSpace(space.dim, space.lower - width / 4, space.upper + width / 4)
        start_space = wide if case % 2 else space
        cut = space.upper - width / 8

        def holed(p, f=evaluator):
            return float("nan") if case % 3 == 0 and p[0] > cut else f(p)

        def run(step):
            rng = RngStream(case)
            state = fresh_state(seed_population(start_space, cfg.size, holed, rng))
            explore_stage(state, cfg, holed, start_space, rng)
            repairs.clear()
            step(state, cfg, holed, space, rng)
            return snapshot(state, rng)

        staged = run(stage)
        stage_repairs += len(repairs)
        assert staged == run(reference), case
    if stage is exploit_stage:
        assert stage_repairs > 0


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
