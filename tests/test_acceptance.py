"""Acceptance suite: the release checks, one test per numbered criterion.

Criteria 1-2 pin the benchmark registry to its published optima. Criteria
3-4 reproduce the headline error-rate comparison at desk scale. Criterion 5
replaces absolute runtime claims with scaling properties. Criterion 6 is a
family of randomized invariant suites (100+ cases each). Criteria 7-8 pin
determinism and the early-stopping schedule.
"""

from dataclasses import replace

import numpy as np

from swarmopt.abco import (
    AbcoConfig,
    RunState,
    early_stop_check,
    exploit_stage,
    explore_stage,
    reproduce_stage,
    run_abco,
)
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import evaluate, list_functions, spec_of
from swarmopt.core import (
    RngStream,
    SearchSpace,
    derive_seed,
    error_rate,
    k_nearest,
    minimised,
    quality_key,
)
from swarmopt.harness import ExperimentConfig, cli_main, read_results, run_experiment
from oracle import (
    MAX,
    MIN,
    adhoc_objective,
    colony_at,
    fresh_state,
    inside,
    member_rows,
    neighbours,
    preset_colony,
    random_case,
    random_objective,
    seeded,
    stage_case,
    survivors,
)


# --- criterion 1: the registry hits its published minima ---------------------

def test_criterion_1_known_minima_match_within_tolerance():
    for name in list_functions():
        spec = spec_of(name)
        tolerance = 2e-4 if name == "holders_table" else 1e-6
        residual = abs(evaluate(name, spec.known_argmin) - spec.known_minimum)
        assert residual <= tolerance, f"{name}: residual {residual}"


# --- criterion 2: nothing in-bounds beats the known minimum ------------------

def test_criterion_2_random_sampling_never_beats_known_minimum():
    for index, name in enumerate(list_functions()):
        spec = spec_of(name)
        stream = RngStream(derive_seed(20_000, name, "lower-bound", index))
        points = stream.uniform(spec.space.lower, spec.space.upper, size=(1000, spec.space.dim))
        values = np.array([evaluate(name, point) for point in points])
        assert np.all(values >= spec.known_minimum - 1e-9), name


# --- criterion 3: colony error bands at population 25 ------------------------

def test_criterion_3_colony_mean_error_bands():
    bands = {
        "rastrigin": 1e-2,
        "schaffer": 1e-2,
        "goldstein_price": 1e-2,
        "rosenbrock": 5e-2,
        "himmelblau": 5e-2,
    }
    functions = list(bands)
    cfg = ExperimentConfig(
        experiment_id="acceptance-colony",
        base_seed=1002,
        iterations=100,
        runs_per_cell=50,
        functions=functions,
        algorithms=["abco"],
        abco={fn: preset_colony(fn, 25) for fn in functions},
        pso=PsoConfig(),
        aco=AcorConfig(),
    )
    records = run_experiment(cfg)
    assert not any(r.failed for r in records)
    for function_id, band in bands.items():
        errors = [r.error for r in records if r.function == function_id]
        assert len(errors) == 50
        mean_error = float(np.mean(errors))
        assert mean_error <= band, f"{function_id}: mean error {mean_error} > {band}"


# --- criterion 4: baseline error bands ---------------------------------------

def test_criterion_4_baseline_mean_error_bands():
    cfg = ExperimentConfig(
        experiment_id="acceptance-baselines",
        base_seed=1001,
        iterations=100,
        runs_per_cell=50,
        functions=["sphere", "ackley"],
        algorithms=["pso", "aco"],
        abco={},
        pso=PsoConfig(size=100),
        aco=AcorConfig(size=100),
    )
    records = run_experiment(cfg)
    assert not any(r.failed for r in records)
    for function_id in cfg.functions:
        for algorithm_id in cfg.algorithms:
            errors = [r.error for r in records
                      if r.function == function_id and r.algorithm == algorithm_id]
            assert len(errors) == 50
            mean_error = float(np.mean(errors))
            assert mean_error <= 1e-3, (
                f"{function_id}/{algorithm_id}: mean error {mean_error}")

    # at population 25 the swarm reliably stalls on rastrigin's local basins
    objective = spec_of("rastrigin")
    swarm = PsoConfig(size=25, iterations=100)
    errors = [
        error_rate(
            run_pso(objective, swarm,
                    RngStream(derive_seed(1002, "rastrigin", "pso", i))).best_value,
            objective.known_minimum,
        )
        for i in range(50)
    ]
    trapped_mean = float(np.mean(errors))
    assert 0.1 <= trapped_mean <= 3.0, f"rastrigin/pso mean error {trapped_mean}"


# --- criterion 5: cost scales with population size ----------------------------

def test_criterion_5_runtime_and_evaluations_scale_with_population():
    objective = spec_of("sphere")
    mean_runtime = {}
    mean_evaluations = {}
    for size in (25, 100):
        # Percentages cannot exceed a threshold of 100: no early stop.
        cfg = preset_colony("sphere", size, iterations=100, unchanged_threshold=100.0)
        results = [
            run_abco(objective, cfg,
                     RngStream(derive_seed(1001, "sphere", "abco", i)))
            for i in range(3)
        ]
        assert all(not r.early_stopped for r in results)
        assert all(r.iterations_executed == 100 for r in results)
        mean_runtime[size] = float(np.mean([r.runtime_seconds for r in results]))
        mean_evaluations[size] = float(np.mean([r.evaluations for r in results]))

    assert mean_runtime[25] < mean_runtime[100]
    # quadrupling the population must at least quadruple the evaluation bill
    assert mean_evaluations[100] / mean_evaluations[25] >= 4.0


# --- criterion 6: invariant suites, 100+ randomized cases each ----------------

def test_criterion_6_bounds_hold_after_every_stage():
    for case in range(100):
        space, evaluator, cfg, stream = stage_case(6_100 + case)
        state = fresh_state(seeded(space, cfg.size, evaluator, stream))
        for stage in (explore_stage, exploit_stage, reproduce_stage):
            stage(state, cfg, evaluator, space, stream)
            assert inside(space, state.population.positions).all(), stage.__name__
            assert inside(space, state.population.best_positions).all(), stage.__name__


def test_criterion_6_best_values_never_worsen():
    # stage level: explore and exploit keep every member's record, and
    # reproduction never touches a survivor's memory
    for case in range(100):
        space, evaluator, cfg, stream = stage_case(6_200 + case)
        state = fresh_state(seeded(space, cfg.size, evaluator, stream))
        for stage in (explore_stage, exploit_stage):
            colony = state.population
            before = colony.best_values.copy()
            stage(state, cfg, evaluator, space, stream)
            assert state.population is colony and len(colony) == len(before)
            for old, new in zip(before.tolist(), colony.best_values.tolist()):
                assert not quality_key(old) < quality_key(new)
        kept = set(member_rows(state.population))
        reproduce_stage(state, cfg, evaluator, space, stream)
        for row in member_rows(state.population)[: cfg.survivor_count]:
            assert row in kept

    # run level: the reported trajectory is monotone and ends at the result
    for case in range(30):
        objective, cfg, stream = random_objective(6_250 + case)
        _, sign = minimised(objective)
        result = run_abco(objective, cfg, stream)
        history = result.diagnostics["best_history"]
        assert len(history) == result.iterations_executed + 1
        for earlier, later in zip(history, history[1:]):
            assert not quality_key(sign * earlier) < quality_key(sign * later)
        assert result.best_value == history[-1]


def test_criterion_6_population_size_is_conserved_through_reproduction():
    for case in range(120):
        space, evaluator, cfg, stream = stage_case(6_300 + case)
        state = fresh_state(seeded(space, cfg.size, evaluator, stream))
        explore_stage(state, cfg, evaluator, space, stream)
        reproduce_stage(state, cfg, evaluator, space, stream)
        colony = state.population
        assert len(colony) == cfg.size
        born = slice(cfg.survivor_count, None)
        # regenerated members start their memory from birth
        assert np.array_equal(colony.best_values[born], colony.values[born])
        assert np.array_equal(colony.snapshot[born], colony.values[born])
        assert np.array_equal(colony.best_positions[born], colony.positions[born])
        assert not np.shares_memory(colony.best_positions, colony.positions)


def test_criterion_6_survivors_equal_sort_oracle_prefix():
    for case in range(120):
        space, evaluator, cfg, stream = stage_case(6_400 + case)
        state = fresh_state(seeded(space, cfg.size, evaluator, stream))
        colony = state.population
        if case % 3 == 0:
            # inject duplicated objective values to exercise tie stability
            tie_pool = (1.0, 2.0)
            for index in range(len(colony)):
                colony.values[index] = tie_pool[index % len(tie_pool)]
        rows = member_rows(colony)
        expected = [rows[index] for index in survivors(colony.values, cfg.survivor_count)]
        reproduce_stage(state, cfg, evaluator, space, stream)
        actual = member_rows(state.population)[: cfg.survivor_count]
        assert actual == expected


def test_criterion_6_k_nearest_matches_brute_force():
    for case in range(120):
        draw = np.random.default_rng(6_500 + case)
        count = int(draw.integers(2, 11))
        dim = int(draw.integers(1, 4))
        points = draw.uniform(-5, 5, size=(count, dim))
        subject = int(draw.integers(0, count))
        requested = int(draw.integers(1, count + 3))
        assert k_nearest(points, subject, requested) == neighbours(points, subject, requested)


def test_criterion_6_min_max_duality():
    # negating the objective and flipping the spec's mode must mirror every
    # decision, so both runs land on the same positions with opposite signs
    def negated(evaluator):
        return lambda point: -evaluator(point)

    for case in range(60):
        space, evaluator, cfg, _ = random_case(6_600 + case)
        seed = 6_600_000 + case
        low = run_abco(adhoc_objective(space, evaluator, MIN), cfg, RngStream(seed))
        high = run_abco(adhoc_objective(space, negated(evaluator), MAX), cfg,
                        RngStream(seed))
        assert high.best_value == -low.best_value
        assert np.array_equal(high.best_position, low.best_position)
        assert high.iterations_executed == low.iterations_executed
        assert high.evaluations == low.evaluations
        assert high.early_stopped == low.early_stopped

    for case in range(30):
        space, evaluator, _, _ = random_case(6_700 + case)
        seed = 6_700_000 + case
        swarm = PsoConfig(size=5, iterations=8)
        low = run_pso(adhoc_objective(space, evaluator, MIN), swarm, RngStream(seed))
        high = run_pso(adhoc_objective(space, negated(evaluator), MAX), swarm,
                       RngStream(seed))
        assert high.best_value == -low.best_value
        assert np.array_equal(high.best_position, low.best_position)

    for case in range(30):
        space, evaluator, _, _ = random_case(6_800 + case)
        seed = 6_800_000 + case
        archive = AcorConfig(size=5, iterations=8, sample_count=4)
        low = run_acor(adhoc_objective(space, evaluator, MIN), archive, RngStream(seed))
        high = run_acor(adhoc_objective(space, negated(evaluator), MAX), archive,
                        RngStream(seed))
        assert high.best_value == -low.best_value
        assert np.array_equal(high.best_position, low.best_position)


def test_criterion_6_early_stop_only_at_checkpoints_strictly_above_threshold():
    # direct oracle on the checkpoint test itself
    for case in range(140):
        draw = np.random.default_rng(6_900 + case)
        size = int(draw.integers(1, 9))
        unchanged_count = int(draw.integers(0, size + 1))
        population = colony_at(*[(0.0, 0.0, j) for j in range(size)])
        for j in range(unchanged_count, size):
            population.snapshot[j] = float(j) - 1.0
        percent = unchanged_count / size * 100.0

        iterations = int(draw.integers(10, 51))
        cfg = AbcoConfig(
            size=size,
            iterations=iterations,
            generation_gap=float(draw.uniform(10.0, 80.0)),
            unchanged_threshold=(
                percent if case % 4 == 0 and percent > 0.0
                else float(draw.uniform(30.0, 99.0))
            ),
        )
        iteration = int(draw.integers(1, iterations + 1))
        state = RunState(
            population=population,
            iteration=iteration,
            global_best_value=0.0,
            global_best_position=np.zeros(2),
        )
        snapshots = population.snapshot.tolist()
        at_checkpoint = (iteration % cfg.checkpoint_period == 0
                         and iteration < iterations)
        expected = at_checkpoint and percent > cfg.unchanged_threshold
        assert early_stop_check(state, cfg) == expected
        if at_checkpoint and not expected:
            # surviving a checkpoint refreshes every snapshot
            assert population.snapshot.tolist() == population.best_values.tolist()
        elif not at_checkpoint:
            assert population.snapshot.tolist() == snapshots

    # run level: a constant objective freezes every record immediately, so
    # the run must stop at the first checkpoint, and a threshold of 100 can
    # never be exceeded
    for case in range(30):
        draw = np.random.default_rng(7_100 + case)
        space = SearchSpace(2, -3.0, 3.0)
        cfg = AbcoConfig(
            size=int(draw.integers(2, 7)),
            iterations=int(draw.integers(20, 61)),
            generation_gap=float(draw.uniform(10.0, 45.0)),
            unchanged_threshold=100.0 if case % 5 == 0 else float(draw.uniform(40.0, 95.0)),
        )
        result = run_abco(
            adhoc_objective(space, lambda point: 3.5, MIN), cfg,
            RngStream(7_100_000 + case),
        )
        if cfg.unchanged_threshold == 100.0:
            assert not result.early_stopped
            assert result.iterations_executed == cfg.iterations
        else:
            assert result.early_stopped
            assert result.iterations_executed == cfg.checkpoint_period


# --- criterion 7: repeated runs are byte-identical ----------------------------

def test_criterion_7_cli_run_is_deterministic(tmp_path, capsys):
    def without_runtime_column(path):
        return "\n".join(
            line.rsplit(",", 1)[0] for line in path.read_text().splitlines()
        ).encode()

    for algorithm, function in (("abco", "rastrigin"), ("pso", "booth"), ("aco", "ackley")):
        first = tmp_path / f"{algorithm}_first.csv"
        second = tmp_path / f"{algorithm}_second.csv"
        common = [
            "run", "--algorithm", algorithm, "--function", function,
            "--pop-size", "8", "--iters", "15", "--runs", "4", "--seed", "321",
        ]
        assert cli_main(common + ["--out", str(first)]) == 0
        assert cli_main(common + ["--out", str(second)]) == 0
        assert without_runtime_column(first) == without_runtime_column(second)
        assert len(read_results(first)) == 4
    capsys.readouterr()


# --- criterion 8: the stagnation example stops on schedule ---------------------

def test_criterion_8_stagnant_population_stops_at_iteration_50():
    cfg = AbcoConfig(size=6, iterations=200, generation_gap=25.0,
                     unchanged_threshold=80.0)
    assert cfg.checkpoint_period == 50

    state = RunState(
        population=colony_at(*[(0.0, 0.0, 1.0 + j) for j in range(cfg.size)]),
        iteration=0,
        global_best_value=1.0,
        global_best_position=np.zeros(2),
    )
    first_stop = None
    for iteration in range(1, cfg.iterations + 1):
        state.iteration = iteration
        if early_stop_check(state, cfg):
            first_stop = iteration
            break
    assert first_stop == 50

    # the full run agrees: a constant landscape freezes everything
    space = SearchSpace(2, -3.0, 3.0)
    result = run_abco(
        adhoc_objective(space, lambda point: 2.0, MIN),
        replace(cfg, size=10),
        RngStream(88),
    )
    assert result.early_stopped
    assert result.iterations_executed == 50
