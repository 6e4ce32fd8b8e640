"""Colony optimizer stages, configuration arithmetic, early stopping."""

import itertools
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from swarmopt import abco
from swarmopt.abco import (
    AbcoConfig,
    Colony,
    early_stop_check,
    exploit_stage,
    explore_stage,
    reproduce_stage,
    run_abco,
    tumble_step,
)
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import (
    ConfigurationError,
    OptimizationMode,
    RngStream,
    SearchSpace,
    derive_seed,
    euclidean,
    minimised,
    rank_neighbours,
    seed_population,
)
from oracle import (
    adhoc_objective,
    colony_at,
    counting_repairs,
    distances,
    fresh_state,
    inside,
    member_rows,
    move_step,
    neighbour_layouts,
    neighbour_order,
    preset_colony,
    reference_exploit,
    reference_explore,
    reference_reproduce,
    seeded,
    snapshot,
    sphere,
    squared_norm,
    stage_case,
    survivors,
    tumble_round,
    with_column_form,
)

SPACE = SearchSpace(2, -5.0, 5.0)
BLOCK = abco._BLOCK_SIZE


# --- configuration ---------------------------------------------------------

def test_config_defaults_validate():
    cfg = AbcoConfig()
    assert cfg.size == 25
    assert cfg.iterations == 100
    with pytest.raises(TypeError, match="mode"):
        AbcoConfig(mode="max")


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(size=0), "size"),
        (dict(iterations=0), "iterations"),
        (dict(step_size=0.0), "step_size"),
        (dict(explore_steps=0), "explore_steps"),
        (dict(exploit_steps=-1), "exploit_steps"),
        (dict(tumble_steps=0), "tumble_steps"),
        (dict(step_size=math.nan), "step_size"),
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


# --- movement primitives ---------------------------------------------------

def exploit_two(current, target, step, space=None, stage=exploit_stage):
    """Member 0 at `current` stepping toward member 1's memory at `target`,
    the only neighbour and a better one, in one exploit pass; member 1
    holds. Returns member 0's landing and the snapshot after the pass."""
    current, target = np.array(current, dtype=float), np.array(target, dtype=float)
    space = space or SearchSpace(len(current), -20.0, 20.0)
    state = fresh_state(Colony.fresh(np.array([current, target]), np.array([1.0, 0.0])))
    rng = RngStream(7)
    cfg = AbcoConfig(size=2, neighbor_count=1, exploit_steps=1, step_size=step)
    stage(state, cfg, lambda p: 0.5, space, rng)
    return state.population.positions[0], snapshot(state, rng)


@pytest.mark.parametrize("dim", [2, 3])
def test_exploit_steps_toward_its_target_and_never_past_it(dim):
    pad = [0.0] * (dim - 2)
    assert np.allclose(exploit_two([0.0, 0.0, *pad], [3.0, 0.0, *pad], 1.0)[0], (1.0, 0.0, *pad))
    assert np.array_equal(exploit_two([0.0, 0.0, *pad], [0.5, 0.0, *pad], 1.0)[0],
                          (0.5, 0.0, *pad))
    assert np.array_equal(exploit_two([2.0, 2.0, *pad], [2.0, 2.0, *pad], 1.0)[0],
                          (2.0, 2.0, *pad))
    rng = np.random.default_rng(4)
    for _ in range(200):
        current, target = rng.uniform(-5, 5, (2, dim))
        step = float(rng.uniform(0.01, 3.0))
        moved = exploit_two(current, target, step)[0]
        assert np.linalg.norm(target - moved) <= np.linalg.norm(target - current) + 1e-12
        assert np.linalg.norm(moved - current) <= step + 1e-12


def test_exploit_step_is_the_oracles_move_step_bit_for_bit():
    # Both branches of the oracle's move_step, and its reach boundary, at
    # d = 2 (exploit's plane path) and every other d up to 10 (its general
    # path); scales 10^-3 to 10 keep every landing inside the box.
    rng = np.random.default_rng(41)
    branches = {True: 0, False: 0}
    for dim in range(1, 11):
        for case in range(400):
            current = rng.uniform(-5.0, 5.0, dim)
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            target = current + scale * rng.uniform(-1.0, 1.0, dim)
            if case == 0:
                target = current.copy()
            distance = math.sqrt(squared_norm(target - current))
            step = distance if case == 1 else float(rng.uniform(0.01, 3.0))
            moved, after = exploit_two(current, target, step)
            assert moved.tobytes() == np.array(move_step(current, target, step)).tobytes(), (dim, case)
            assert after == exploit_two(current, target, step, stage=reference_exploit)[1]
            branches[distance <= step] += 1
    assert min(branches.values()) > 500


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("current, target, expected", [
    ((-4.0, 0.0), (-6.0, 0.0), (-5.0, 0.0)),    # a step onto lower
    ((0.0, 4.0), (0.0, 6.0), (0.0, 5.0)),       # a step onto upper
    ((4.5, -4.5), (5.0, -5.0), (5.0, -5.0)),    # the target, on both bounds
    ((-4.5, 0.0), (-6.5, 0.0), None),           # a step past lower
    ((1.0, 4.5), (1.0, 6.5), None),             # a step past upper
])
def test_exploit_repairs_only_a_landing_past_a_bound(monkeypatch, dim, current, target, expected):
    # Unit steps in the box [-5, 5]; a landing on a bound is inside it.
    pad = (0.0,) * (dim - 2)
    current, target = (*current, *pad), (*target, *pad)
    space = SearchSpace(dim, -5.0, 5.0)
    counts = counting_repairs(monkeypatch, abco)
    moved, after = exploit_two(current, target, 1.0, space)
    assert after == exploit_two(current, target, 1.0, space, reference_exploit)[1]
    untouched = RngStream(7).repairs.bit_generator.state
    if expected is None:
        assert counts == [1] and after[6] != untouched
        assert inside(space, moved)
    else:
        assert counts == [] and after[6] == untouched
        assert moved.tobytes() == np.array(move_step(current, target, 1.0)).tobytes()
        assert np.array_equal(moved, (*expected, *pad))


def test_dot_norm_equals_matmul_norm():
    # Exploit's offset.dot(offset) is the BLAS call that the oracle's
    # squared_norm, offset @ offset, makes: they agree bit for bit.
    rng = np.random.default_rng(43)
    for dim in range(1, 11):
        scales = 10.0 ** rng.uniform(-4.0, 2.0, (5000, 1))
        offsets = scales * rng.uniform(-1.0, 1.0, (5000, dim))
        dots = np.array([offset.dot(offset) for offset in offsets])
        matmuls = np.array([squared_norm(offset) for offset in offsets])
        assert dots.tobytes() == matmuls.tobytes(), dim


def test_tumble_step_has_exact_norm():
    cfg = AbcoConfig(step_size=1.0)
    rng = RngStream(11)
    wide = SearchSpace(2, -1e6, 1e6)
    for _ in range(100):
        position = np.zeros(2)
        moved = tumble_step(position, cfg, wide, rng)
        assert np.linalg.norm(moved - position) == pytest.approx(1.0, abs=1e-12)


def test_tumble_step_respects_bounds():
    cfg = AbcoConfig(step_size=1.0)
    rng = RngStream(12)
    for _ in range(100):
        assert inside(SPACE, tumble_step(np.array([4.9, 0.0]), cfg, SPACE, rng))


# --- colony ----------------------------------------------------------------

def test_fresh_colony_memory_starts_at_birth():
    positions, values = seed_population(SPACE, 12, sphere, RngStream(5))
    colony = Colony.fresh(positions, values)
    assert len(colony) == 12
    assert np.array_equal(colony.best_values, colony.values)
    assert np.array_equal(colony.snapshot, colony.values)
    assert np.array_equal(colony.best_positions, colony.positions)
    # memory must not alias the live arrays
    assert not np.shares_memory(colony.best_positions, colony.positions)
    assert not np.shares_memory(colony.best_values, colony.values)
    assert not np.shares_memory(colony.snapshot, colony.best_values)


# --- explore ---------------------------------------------------------------

def test_explore_updates_personal_bests_downward():
    cfg = AbcoConfig(size=8, explore_steps=2, tumble_steps=2)
    rng = RngStream(21)
    colony = seeded(SPACE, cfg.size, sphere, rng)
    before = colony.best_values.copy()
    state = fresh_state(colony)
    explore_stage(state, cfg, sphere, SPACE, rng)
    colony = state.population
    assert (colony.best_values <= before).all()
    assert inside(SPACE, colony.positions).all()
    assert (colony.best_values <= colony.values).all()


def test_explore_rolls_back_non_finite():
    def holed(p):
        if abs(p[0]) < 0.5:
            return float("nan")
        return sphere(p)

    cfg = AbcoConfig(size=10, explore_steps=3)
    rng = RngStream(2)
    positions, values = seed_population(SPACE, 30, sphere, rng)
    rows = np.flatnonzero(np.abs(positions[:, 0]) >= 0.5)[:10]
    state = fresh_state(Colony.fresh(positions[rows], values[rows]))
    explore_stage(state, cfg, holed, SPACE, rng)
    assert state.diagnostics.get("rolled_back_moves", 0) > 0
    assert np.isfinite(state.population.values).all()
    assert (np.abs(state.population.positions[:, 0]) >= 0.5).all()


def test_explore_batches_draw_the_stream_of_one_tumble_step_per_member(monkeypatch):
    # step_size reaches 1.5 box widths, so many tumbles leave the box and
    # are repaired; a nan region adds rollbacks, which end a chain at the
    # round that holds one. Each case runs with the plain
    # evaluator and with a column form. Only the plain run counts the rows
    # it repairs.
    repairs, tumbles, fallbacks = [], 0, 0
    for case in range(60):
        space, evaluator, cfg, _ = stage_case(4_400 + case)
        cut = space.upper - (space.upper - space.lower) / 8

        def holed(p, f=evaluator):
            return float("nan") if case % 3 == 0 and p[0] > cut else f(p)

        def explore(stage, objective):
            rng = RngStream(case)
            state = fresh_state(seeded(space, cfg.size, holed, rng))
            stage(state, cfg, objective, space, rng)
            return snapshot(state, rng)

        reference = explore(reference_explore, holed)
        with monkeypatch.context() as patch:
            counts = counting_repairs(patch, abco)
            assert explore(explore_stage, holed) == reference, case
        repairs += counts
        assert explore(explore_stage, with_column_form(holed)) == reference, case
        fallbacks += "rolled_back_moves" in reference[4]
        tumbles += cfg.size * cfg.explore_steps * cfg.tumble_steps
    assert 0 < sum(repairs) < tumbles
    assert 10 < fallbacks < 50


SUM_FORMS = ("rastrigin", "sphere", "rosenbrock")


def test_explore_evaluates_an_all_finite_stage_in_one_column_call(monkeypatch):
    # The sum forms at every dimension they take up to 6 and the rest at 2,
    # in both modes, with steps from 1e-4 to 1.6 box widths so that some
    # rounds leave the box and some do not. The round-by-round path is the
    # same evaluator without its column form.
    repairs, repaired, rounds = counting_repairs(monkeypatch, abco), 0, 0
    cases = [(name, dim) for name in SUM_FORMS for dim in range(1 + (name == "rosenbrock"), 7)]
    cases += [(name, 2) for name in list_functions() if name not in SUM_FORMS]
    for case, (name, dim) in enumerate(cases):
        draw = np.random.default_rng(7_700 + case)
        spec = spec_of(name)
        space = SearchSpace(dim, spec.space.lower, spec.space.upper)
        mode = OptimizationMode.MAX if case % 2 else OptimizationMode.MIN
        evaluator = minimised(replace(spec, space=space, mode=mode))[0]
        cfg = AbcoConfig(size=int(draw.integers(1, 30)),
                         step_size=10 ** draw.uniform(-4, 0.2) * (space.upper - space.lower),
                         explore_steps=int(draw.integers(1, 5)),
                         tumble_steps=int(draw.integers(1, 4)))
        calls = []

        def point_form(point, f=evaluator):
            return f(point)

        def column_form(point, f=evaluator):
            return f(point)

        column_form.batch = lambda rows, f=evaluator: calls.append(len(rows)) or f.batch(rows)

        def explore(objective, stages=3):
            rng = RngStream(case)
            state = fresh_state(seeded(space, cfg.size, evaluator, rng))
            for stage in range(stages):
                explore_stage(state, cfg, objective, space, rng)
                if objective is column_form:
                    assert len(calls) == stage + 1, (name, dim)
            return snapshot(state, rng)

        expected = explore(point_form)
        repairs.clear()
        assert explore(column_form) == expected, (name, dim)
        assert calls == [cfg.size * cfg.explore_steps * cfg.tumble_steps] * 3
        assert "rolled_back_moves" not in expected[4]
        # A chain repairs only rounds that left the box.
        assert all(repairs), (name, dim)
        repaired += len(repairs)
        rounds += len(calls) * cfg.explore_steps * cfg.tumble_steps
    assert 0.1 * rounds < repaired < 0.9 * rounds


def point_key(point):
    return np.asarray(point, dtype=float).tobytes()


def test_explore_falls_back_exactly_past_a_nan_and_raises_only_where_rounds_do():
    # nan at a third of the members' round-1 landings rolls those members
    # back, so the run-ahead chain tumbles on from points the round-by-round
    # path never leaves from. The column form raises OverflowError at just
    # the rows only the chain reaches: the stage must not raise and must end
    # as the round-by-round path does.
    space = SearchSpace(3, -2.0, 2.0)
    cfg = AbcoConfig(size=12, step_size=1.5, explore_steps=2, tumble_steps=2)

    def explore(objective):
        rng = RngStream(31)
        state = fresh_state(seeded(space, cfg.size, sphere, rng))
        try:
            explore_stage(state, cfg, objective, space, rng)
        finally:
            outcome.append(snapshot(state, rng))

    outcome, chain, seen = [], [], []
    explore(with_column_form(lambda p: chain.append(point_key(p)) or sphere(p)))
    holes = set(chain[: cfg.size : 3])

    def holed(p):
        return math.nan if point_key(p) in holes else sphere(p)

    explore(lambda p: seen.append(point_key(p)) or holed(p))
    expected = outcome[-1]
    only_ahead = set(chain) - set(seen)
    assert len(chain) == 4 * cfg.size and len(seen) == len(chain)
    assert expected[4] == {"rolled_back_moves": 4} and only_ahead

    def trapped(p):
        if point_key(p) in only_ahead:
            raise OverflowError("a row only the run-ahead chain reaches")
        return holed(p)

    explore(with_column_form(trapped))
    assert outcome[-1] == expected
    # A row the round-by-round path reaches raises on both paths, which
    # stop in the same state; with no nan the run-ahead call itself raises.
    for base, last in ((holed, seen[-1]), (sphere, chain[-1])):
        def failing(p, base=base, last=last):
            if point_key(p) == last:
                raise OverflowError("a row every path reaches")
            return base(p)

        for objective in (failing, with_column_form(failing)):
            with pytest.raises(OverflowError, match="every path"):
                explore(objective)
        assert outcome[-1] == outcome[-2]
        assert outcome[-1][3] == 3 * cfg.size


def test_explore_keeps_the_exact_prefix_before_a_non_finite_round():
    # nan and inf at a third of one round's landings: the rounds up to that
    # one are evaluated only in the first chain's call and committed from it,
    # the later rounds once more in one chained call, and the stage ends
    # as the round-by-round path does, repair stream included.
    space = SearchSpace(3, -2.0, 2.0)

    rechained = twice = 0
    for case in range(30):
        draw = np.random.default_rng(900 + case)
        cfg = AbcoConfig(size=int(draw.integers(2, 20)), step_size=float(draw.uniform(0.2, 3.0)),
                         explore_steps=int(draw.integers(1, 4)),
                         tumble_steps=int(draw.integers(1, 4)))
        size, rounds = cfg.size, cfg.explore_steps * cfg.tumble_steps
        calls = []

        def counting(evaluator):
            def point_form(point):
                return evaluator(point)

            def column_form(rows):
                calls.append([point_key(row) for row in rows])
                return np.array([float(evaluator(row)) for row in rows])

            point_form.batch = column_form
            return point_form

        def explore(objective):
            rng = RngStream(case)
            state = fresh_state(seeded(space, size, sphere, rng))
            explore_stage(state, cfg, objective, space, rng)
            return snapshot(state, rng)

        explore(counting(sphere))
        chain, first, bad = calls[0], 0, case % rounds  # first: the round the chain starts at
        prefix, holes, shape = chain[: (bad + 1) * size], {}, [rounds * size]
        rechained += rounds - bad - 1

        def holed(p):
            return holes.get(point_key(p), sphere(p))

        # Then, if rounds follow the holed one, holes in a later round of the
        # chain they run in as well, so the loop chains again twice.
        for _ in range(2):
            rows = chain[(bad - first) * size:(bad - first + 1) * size]
            holes.update({row: math.nan if member % 2 else math.inf
                          for member, row in enumerate(rows) if member % 3 == 0})
            expected = explore(holed)
            calls.clear()
            assert explore(counting(holed)) == expected, case
            assert expected[4] == {"rolled_back_moves": len(holes)}, case
            shape += [(rounds - bad - 1) * size] * (bad < rounds - 1)
            assert [len(rows) for rows in calls] == shape, case
            evaluated = Counter(row for rows in calls for row in rows)
            assert all(evaluated[row] == 1 for row in prefix), case
            if bad == rounds - 1:
                break
            chain, first, bad = calls[-1], bad + 1, min(bad + 1 + case % 2, rounds - 1)
        twice += len(shape) == 3
    assert rechained > 10 and twice > 3


def test_explore_round_repairs_row_major_on_the_repair_stream(monkeypatch):
    # A step of up to a box width sends many rows of the round outside.
    repaired_rows = counting_repairs(monkeypatch, abco)
    for case in range(40):
        draw = np.random.default_rng(9_100 + case)
        dim, size = int(draw.integers(1, 7)), int(draw.integers(2, 40))
        space = SearchSpace(dim, -2.0, 3.0)
        cfg = AbcoConfig(size=size, step_size=float(draw.uniform(0.5, 5.0)),
                         explore_steps=1, tumble_steps=1)
        positions = draw.uniform(space.lower, space.upper, size=(size, dim))
        seen = []
        rng = RngStream(case)
        explore_stage(fresh_state(Colony.fresh(positions.copy(), np.zeros(size))), cfg,
                      lambda p: seen.append(p.copy()) or 1.0, space, rng)

        reference = RngStream(case)
        expected = tumble_round(positions, cfg.step_size, space, reference)
        assert np.array(seen).tobytes() == expected.tobytes(), case
        assert rng.generator.bit_generator.state == reference.generator.bit_generator.state
        assert rng.repairs.bit_generator.state == reference.repairs.bit_generator.state
    assert sum(repaired_rows) > 200


class ZeroDirectionStream(RngStream):
    """A stream whose draws of the given direction rows come back all zero."""

    def __init__(self, seed, directions):
        super().__init__(seed)
        self.directions = np.asarray(directions)
        self.zeroed = 0

    def standard_normal(self, size=None):
        draws = self.generator.standard_normal(size)
        rows = draws.reshape(-1, self.directions.shape[1])
        hits = (rows[:, None, :] == self.directions[None]).all(axis=2).any(axis=1)
        rows[hits] = 0.0
        self.zeroed += int(hits.sum())
        return draws


def test_explore_redraws_zero_directions_after_the_batch_in_row_order():
    # No tumble leaves the box. Members 5 and 2 draw zero directions in
    # one round; each is redrawn after that round's batch, member 2
    # first, and nothing touches the repair stream. In the last of two
    # rounds the redraws come from beyond the stage's single draw; in the
    # first of three they come from inside it, and push the later rounds
    # past it.
    for tumble_steps, zero_round in ((2, 1), (3, 0)):
        cfg = AbcoConfig(size=8, step_size=0.5, explore_steps=1, tumble_steps=tumble_steps)
        draws = RngStream(5).standard_normal((cfg.size * tumble_steps, 2))
        rng = ZeroDirectionStream(5, draws[[cfg.size * zero_round + 5, cfg.size * zero_round + 2]])
        colony = colony_at(*[(0.2 * i - 0.7, 0.1 * i, 0.0) for i in range(cfg.size)])
        positions = colony.positions.copy()
        state = fresh_state(colony)
        explore_stage(state, cfg, sphere, SPACE, rng)

        reference = RngStream(5)
        for round_index in range(tumble_steps):
            zero_rows = [2, 5] if round_index == zero_round else []
            directions = reference.standard_normal((cfg.size, 2))
            directions[zero_rows] = 0.0
            for row in zero_rows:
                directions[row] = reference.standard_normal(2)
            positions = np.array([
                position + (cfg.step_size / math.sqrt(squared_norm(direction))) * direction
                for position, direction in zip(positions, directions)])
        assert rng.zeroed == 2
        assert np.array_equal(state.population.positions, positions)
        assert rng.generator.bit_generator.state == reference.generator.bit_generator.state
        assert rng.repairs.bit_generator.state == RngStream(5).repairs.bit_generator.state


# --- exploit ---------------------------------------------------------------

def tilted(p):
    # f(0,0)=7, f(1,0)=5, f(0,1)=9
    return 7.0 - 2.0 * p[0] + 2.0 * p[1]


def test_exploit_moves_to_best_neighbour():
    colony = colony_at((0, 0, 7.0), (1, 0, 5.0), (0, 1, 9.0))
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1)
    state = fresh_state(colony)
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert np.allclose(state.population.positions[0], (1.0, 0.0))
    assert state.population.values[0] == pytest.approx(5.0)


def test_exploit_max_mode_inverts_target():
    # run_abco hands the stages a max-mode objective negated
    colony = colony_at((0, 0, -7.0), (1, 0, -5.0), (0, 1, -9.0))
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1)
    state = fresh_state(colony)
    exploit_stage(state, cfg, lambda p: -tilted(p), SPACE, RngStream(1))
    assert np.allclose(state.population.positions[0], (0.0, 1.0))


def test_exploit_holds_when_already_best():
    colony = colony_at((1, 0, 5.0), (0, 0, 7.0), (0, 1, 9.0))
    cfg = AbcoConfig(size=3, neighbor_count=2, exploit_steps=1)
    state = fresh_state(colony)
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert np.array_equal(state.population.positions[0], (1.0, 0.0))


def test_exploit_queries_positions_moved_earlier_in_the_pass():
    # Member 0 steps from (0, 0) to (1, 0), toward member 2's memory. That
    # puts it nearer member 1 than member 3 is, so member 1 follows member
    # 0's fresh best; against member 0's old position member 3 would be
    # nearest, and its worse memory would hold member 1 in place.
    colony = colony_at((0, 0, 10.0), (0.8, -1.9, 8.0), (2, 0, 0.0), (0.8, -3.9, 9.0))
    cfg = AbcoConfig(size=4, neighbor_count=1, exploit_steps=1)
    state = fresh_state(colony)
    exploit_stage(state, cfg, lambda p: 3.0, SPACE, RngStream(1))
    assert np.array_equal(colony.positions[0], (1.0, 0.0))
    expected = move_step([0.8, -1.9], [1.0, 0.0], cfg.step_size)
    assert np.array_equal(colony.positions[1], expected)
    assert colony.best_values[1] == 3.0


def test_exploit_single_member_is_noop():
    cfg = AbcoConfig(size=1, exploit_steps=1)
    state = fresh_state(colony_at((0, 0, 7.0)))
    exploit_stage(state, cfg, tilted, SPACE, RngStream(1))
    assert state.diagnostics.get("exploit_skipped") == 1
    assert np.array_equal(state.population.positions[0], (0.0, 0.0))


def test_population_of_one_warns_once_per_run(caplog):
    cfg = AbcoConfig(size=1, iterations=20)
    with caplog.at_level(logging.WARNING, logger="swarmopt.abco"):
        result = run_abco(spec_of("booth"), cfg, RngStream(4))
    assert [r.getMessage() for r in caplog.records] == [
        "exploit stage skipped: population of one has no neighbours"]
    assert result.iterations_executed > 1
    assert result.diagnostics["exploit_skipped"] == result.iterations_executed


@pytest.mark.parametrize("dim", range(1, 11))
def test_ranking_matches_k_nearest(dim):
    # At 400 rows every fifth subject is checked.
    rng = np.random.default_rng(dim)
    for size in (2, 3, 25, 400):
        subjects = sorted({*range(0, size, 5 if size == 400 else 1), size - 1})
        for positions in neighbour_layouts(size, dim, rng):
            for subject in subjects:
                row = distances(positions, subject)
                order = neighbour_order(row, subject, size)
                for k in (1, 2, size):
                    assert rank_neighbours(np.array(row), subject, k) == order[:k], (size, subject)


def einsum_distances(positions, subject):
    deltas = positions - positions[subject]
    return np.sqrt(np.einsum("ij,ij->i", deltas, deltas))


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 25])
@pytest.mark.parametrize("dim", range(1, 11))
def test_distances_add_squares_in_coordinate_order(dim, size, monkeypatch):
    # Checked bit for bit: every row exploit ranks by, the block's moved
    # columns included, at sizes either side of block edges. For d <= 2 one
    # addition of two rounded squares gives the same bits in any order, so
    # einsum's kernel agrees there too.
    def expected(positions, subject):
        reference = np.array(distances(positions, subject))
        if dim <= 2:
            assert einsum_distances(positions, subject).tobytes() == reference.tobytes()
        return reference.tobytes()

    rng = np.random.default_rng(100 * size + dim)
    ranked = []

    def recording(row, subject, k):
        ranked.append((subject, row.copy(), colony.positions.copy()))
        return rank_neighbours(row, subject, k)

    monkeypatch.setattr(abco, "rank_neighbours", recording)
    cfg = AbcoConfig(size=size, neighbor_count=3, exploit_steps=2, step_size=0.5)
    space = SearchSpace(dim, -5.0, 5.0)
    patched = 0  # rows ranked after a move earlier in their block
    for positions in neighbour_layouts(size, dim, rng):
        colony = Colony.fresh(positions.copy(), np.array([sphere(p) for p in positions]))
        state = fresh_state(colony)
        ranked.clear()
        exploit_stage(state, cfg, sphere, space, RngStream(dim))
        assert len(ranked) == cfg.exploit_steps * size
        for subject, row, at in ranked:
            assert row.tobytes() == expected(at, subject)
            if subject % BLOCK == 0:
                block_start = at
            patched += not np.array_equal(at, block_start)
    assert patched > 0


# --- reproduce -------------------------------------------------------------

def test_reproduce_conserves_size_and_bounds():
    cfg = AbcoConfig(size=10, survivor_fraction=0.8, neighbor_count=2)
    rng = RngStream(40)
    state = fresh_state(seeded(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    assert len(state.population) == cfg.size
    assert inside(SPACE, state.population.positions).all()


def test_reproduce_keeps_exactly_the_best():
    cfg = AbcoConfig(size=12, survivor_fraction=0.5, neighbor_count=3)
    rng = RngStream(41)
    colony = seeded(SPACE, cfg.size, sphere, rng)
    rows = member_rows(colony)
    expected = [rows[i] for i in survivors(colony.values, cfg.survivor_count)]
    state = fresh_state(colony)
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    assert member_rows(state.population)[: cfg.survivor_count] == expected


def test_reproduce_replacements_start_fresh():
    cfg = AbcoConfig(size=10, survivor_fraction=0.6, neighbor_count=2)
    rng = RngStream(42)
    state = fresh_state(seeded(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    colony = state.population
    born = slice(cfg.survivor_count, None)
    assert np.array_equal(colony.best_values[born], colony.values[born])
    assert np.array_equal(colony.snapshot[born], colony.values[born])
    assert np.array_equal(colony.best_positions[born], colony.positions[born])
    for position, value in zip(colony.positions[born], colony.values[born]):
        assert value == pytest.approx(sphere(position))


def test_reproduce_replacement_is_convex_combination():
    cfg = AbcoConfig(size=6, survivor_fraction=0.5, neighbor_count=2)
    rng = RngStream(43)
    state = fresh_state(seeded(SPACE, cfg.size, sphere, rng))
    survivors_box_low = state.population.positions.min()
    survivors_box_high = state.population.positions.max()
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    born = state.population.positions[cfg.survivor_count :]
    assert born.min() >= survivors_box_low - 1e-12
    assert born.max() <= survivors_box_high + 1e-12


def test_reproduce_single_survivor_reseeds():
    cfg = AbcoConfig(size=4, survivor_fraction=0.01, neighbor_count=2)
    rng = RngStream(44)
    state = fresh_state(seeded(SPACE, cfg.size, sphere, rng))
    reproduce_stage(state, cfg, sphere, SPACE, rng)
    assert len(state.population) == 4
    assert inside(SPACE, state.population.positions).all()


# --- stage equivalence -----------------------------------------------------

@pytest.mark.parametrize("stage, reference", [
    (explore_stage, reference_explore),
    (exploit_stage, reference_exploit),
    (reproduce_stage, reference_reproduce),
])
def test_stage_matches_its_member_by_member_reference(monkeypatch, stage, reference):
    # Every other case explores and seeds a box a quarter width wider on
    # each side, so exploit steps leave the real box and are repaired; a
    # nan region in a third of the cases gives nan bests and rollbacks,
    # and values rounded down to halves in another third give exact ties.
    repairs, stage_repairs, plans = counting_repairs(monkeypatch, abco), 0, []
    planned = abco._regeneration_plan

    def recorded_plan(needed, retained, neighbour_count):
        plan = planned(needed, retained, neighbour_count)
        plans.append((needed, retained, cfg.neighbor_count, plan))
        return plan

    monkeypatch.setattr(abco, "_regeneration_plan", recorded_plan)
    for case in range(60):
        space, evaluator, cfg, _ = stage_case(5_500 + case)
        width = space.upper - space.lower
        wide = SearchSpace(space.dim, space.lower - width / 4, space.upper + width / 4)
        start_space = wide if case % 2 else space
        cut = space.upper - width / 8

        def holed(p, f=evaluator):
            if case % 3 == 0 and p[0] > cut:
                return float("nan")
            return math.floor(2.0 * f(p)) / 2.0 if case % 3 == 1 else f(p)

        def run(step, objective):
            rng = RngStream(case)
            state = fresh_state(seeded(start_space, cfg.size, holed, rng))
            explore_stage(state, cfg, holed, start_space, rng)
            repairs.clear()
            step(state, cfg, objective, space, rng)
            return snapshot(state, rng)

        expected = run(reference, holed)
        # With a column form explore chains every round left, and chains
        # again after a nan.
        for objective in (holed, with_column_form(holed)):
            assert run(stage, objective) == expected, case
            stage_repairs += sum(repairs)
    if stage is exploit_stage:
        assert stage_repairs > 0
    if stage is reproduce_stage:
        # The cases reach k clipped to 1 by two survivors, k at or above the
        # survivors, and guides that wrap; the cached plans are read-only.
        assert any(retained == 2 and k > 1 for _, retained, k, _ in plans)
        assert any(k >= retained for _, retained, k, _ in plans)
        assert any(needed > retained for needed, retained, _, _ in plans)
        assert not any(ranks.flags.writeable for *_, plan in plans for _, ranks in plan)


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 25, 100])
def test_exploit_matches_its_reference_across_row_blocks(monkeypatch, size):
    # Each block of BLOCK rows is built where the members stand at its
    # start, and a move reaches the block's later rows one entry at a time:
    # sizes either side of one and two blocks, d = 1-6 and k = 1, 2, 5, 15. Every other
    # case seeds a box a quarter width wider on each side, so steps leave
    # the real box and are repaired; a nan region in a third of the cases
    # gives nan bests and rollbacks, and values rounded down to halves in
    # another third give exact ties.
    repairs, repaired, moves, rollbacks = counting_repairs(monkeypatch, abco), 0, 0, 0
    for case, (dim, k) in enumerate(itertools.product(range(1, 7), (1, 2, 5, 15))):
        draw = np.random.default_rng(1_000 * size + case)
        space = SearchSpace(dim, -2.0, 3.0)
        start_space = SearchSpace(dim, -3.25, 4.25) if case % 2 else space
        centre = draw.uniform(-2.0, 3.0, dim).tolist()
        cfg = AbcoConfig(size=size, neighbor_count=k, exploit_steps=2,
                         step_size=float(draw.uniform(0.1, 2.0)))

        def bowl(p, centre=centre, case=case):
            if case % 3 == 0 and p[0] > 2.0:
                return math.nan
            total = 0.0
            for x, c in zip(p, centre):
                total += (x - c) * (x - c)
            return math.floor(2.0 * total) / 2.0 if case % 3 == 1 else total

        def run(stage):
            rng = RngStream(case)
            state = fresh_state(seeded(start_space, size, bowl, rng))
            repairs.clear()
            stage(state, cfg, bowl, space, rng)
            return snapshot(state, rng)

        expected = run(reference_exploit)
        assert run(exploit_stage) == expected, (dim, k)
        moves += expected[4].get("exploit_moves", 0)
        rollbacks += expected[4].get("rolled_back_moves", 0)
        repaired += sum(repairs)
    assert moves > size and rollbacks > 0 and repaired > 0


def test_exploit_builds_each_block_of_rows_in_one_call(monkeypatch):
    # A pass calls euclidean once per BLOCK members and never for more rows,
    # so no (n, n) matrix is built; every pass here moves more members than
    # that count, so a call per move would exceed it.
    shapes = []

    def recording(*points):
        rows = euclidean(*points)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(abco, "euclidean", recording)
    for size, dim in ((100, 2), (25, 3), (400, 10), (BLOCK + 1, 1)):
        space = SearchSpace(dim, -5.0, 5.0)
        cfg = AbcoConfig(size=size, neighbor_count=2, step_size=0.05)
        rng = RngStream(size + dim)
        state = fresh_state(seeded(space, size, sphere, rng))
        blocks = [min(BLOCK, size - start) for start in range(0, size, BLOCK)]
        for _ in range(3):
            shapes.clear()
            before = state.diagnostics.get("exploit_moves", 0)
            exploit_stage(state, cfg, sphere, space, rng)
            moved = state.diagnostics["exploit_moves"] - before
            assert shapes == [(rows, size) for rows in blocks], (size, dim)
            assert len(shapes) < moved, (size, dim, moved)


# --- early stop ------------------------------------------------------------

def stagnant_state(size=10, iteration=0):
    state = fresh_state(colony_at(*[(i, 0.0, i) for i in range(size)]))
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
    state.population.best_values[:3] -= 1.0
    assert early_stop_check(state, cfg) is True

    state = stagnant_state(size=20, iteration=25)
    # 10/20 = 50% -> continue and refresh snapshots
    state.population.best_values[:10] -= 1.0
    assert early_stop_check(state, cfg) is False
    assert np.array_equal(state.population.snapshot, state.population.best_values)


def test_early_stop_exact_threshold_continues():
    cfg = AbcoConfig(size=10, iterations=100, generation_gap=25.0, unchanged_threshold=80.0)
    state = stagnant_state(iteration=25)
    state.population.best_values[:2] -= 1.0
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
    assert len(history) == result.iterations_executed + 1
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert inside(spec_of("ackley").space, result.best_position)


def test_run_abco_stops_on_stagnation():
    cfg = AbcoConfig(size=6, iterations=20, generation_gap=25.0, unchanged_threshold=80.0)
    result = run_abco(adhoc_objective(SPACE, lambda p: 1.0), cfg, RngStream(3))
    assert result.early_stopped
    assert result.iterations_executed == cfg.checkpoint_period
    assert result.best_value == 1.0  # global best seeded from the population


def test_run_abco_max_mode_negates_min_mode():
    cfg = AbcoConfig(size=6, iterations=8)
    low = run_abco(adhoc_objective(SPACE, sphere), cfg, RngStream(9))
    high = run_abco(adhoc_objective(SPACE, lambda p: -sphere(p), OptimizationMode.MAX), cfg,
                    RngStream(9))
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

        cfg = preset_colony(function_id, size, iterations=iterations)
        result = run_abco(replace(spec, evaluator=observed), cfg, RngStream(seed))
        assert result.best_value == lowest[0], (function_id, size, seed)
