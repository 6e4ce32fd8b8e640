"""The three workloads: their inputs, timed passes and output checks.

Each workload is closed-loop with a single caller: the benchmark makes one
call into swarmopt, waits for it, then makes the next. Work comes in whole
rounds, and a pass keeps starting rounds until its time is up, so the mix
of functions and algorithms is the same in every run whatever its length.

Checks run after the timed part. Every optimizer run is replayed with an
evaluator that counts calls and keeps the lowest value, and the replay must
equal the timed run bit for bit before its invariants are checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import reference
from speed import SpeedTrack
from tracing import Api
from swarmopt import RngStream, spec_of

clock = time.perf_counter

SWEEP_RUNS_PER_CELL = 1
# Calibration runs per speed sample on sweep, where one sample opens each
# sweep of about 4 s (see speed.SpeedTrack).
SWEEP_CALIBRATION_LOOPS = 3

# A colony run that, at the program's current revision, reports a best
# above the lowest value it evaluated: reproduce_stage culls members by
# current value before the global best is refreshed, so a culled member's
# personal best can go unrecorded. Its inputs do not depend on --seed, so
# it fails in every round; it is counted in `failed`, and the day the
# fault is fixed it stops failing.
CANARY = ("abco", "easom", 17650024986009573162)


def derive_seed(base_seed: int, function_id: str, algorithm_id: str, run_index: int) -> int:
    """Per-run seed, transcribed from the documented harness scheme."""
    text = f"{base_seed}:{function_id}:{algorithm_id}:{run_index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def generated_config(workload: str, seed: int) -> dict:
    """The experiment config a workload hands to `load_config`."""
    common = {
        "experiment_id": workload,
        "iter": 100,
        "runs_per_cell": 1,
        "functions": list(reference.FUNCTION_IDS),
    }
    if workload == "colony_large":
        return {**common, "base_seed": seed, "algorithms": ["abco"], "abco": {"size": 100}}
    if workload == "baselines":
        return {**common, "base_seed": seed, "algorithms": ["pso", "aco"],
                "pso": {"size": 100}, "aco": {"size": 100}}
    return {**common, "base_seed": 1000 * seed, "runs_per_cell": SWEEP_RUNS_PER_CELL,
            "algorithms": ["abco", "pso", "aco"], "abco": {"size": 25},
            "pso": {"size": 100}, "aco": {"size": 100},
            "population_overrides": {"sphere": 15}}


def expected_size(config: dict, algorithm: str, function_id: str) -> int:
    if algorithm == "abco":
        return config.get("population_overrides", {}).get(function_id, config["abco"]["size"])
    return config[algorithm]["size"]


def cell_config(cfg, algorithm: str, function_id: str):
    if algorithm == "abco":
        return cfg.abco[function_id]
    return cfg.pso if algorithm == "pso" else cfg.aco


# ---------------------------------------------------------------------------
# checks


def fingerprint(result) -> tuple:
    """Everything a run reports except its runtime, in exact form."""
    return (
        repr(result.best_value),
        result.best_position.tobytes(),
        result.evaluations,
        result.iterations_executed,
        result.early_stopped,
        tuple(map(repr, result.diagnostics.get("best_history", ()))),
    )


def check_run(algorithm: str, function_id: str, cell, result, seen) -> tuple[list[str], bool]:
    """Invariants of one run, given what its evaluator observed.

    Returns the problems found and whether the run shows the known fault of
    a reported best above the lowest value evaluated (colony runs only;
    every other invariant must hold for the run to be classed so).
    """
    problems = []
    best, position = result.best_value, result.best_position
    if not reference.in_box(function_id, position):
        problems.append(f"best_position {position} outside the box")
    elif not reference.close(reference.value(function_id, position), best):
        problems.append(f"reference gives {reference.value(function_id, position)!r} "
                        f"at best_position, run reports {best!r}")
    if best < reference.EXACT_MINIMUM[function_id] - 1e-12:
        problems.append(f"best {best!r} below the true minimum")
    history = list(result.diagnostics.get("best_history", ()))
    if not history or any(later > earlier for earlier, later in zip(history, history[1:])):
        problems.append("best_history gets worse")
    elif history[-1] != best:
        problems.append(f"best_history ends at {history[-1]!r}, best is {best!r}")
    if result.evaluations != seen[0]:
        problems.append(f"reports {result.evaluations} evaluations, made {seen[0]}")

    if algorithm == "pso":
        expected = cell.size * (cell.iterations + 1)
    elif algorithm == "aco":
        samples = cell.sample_count if cell.sample_count is not None else (
            25 if cell.size >= 100 else 5)
        expected = cell.size + samples * cell.iterations
    else:
        expected = None
    if expected is not None and result.evaluations != expected:
        problems.append(f"{algorithm} made {result.evaluations} evaluations, expected {expected}")
    if algorithm == "abco":
        period = max(1, math.floor(cell.generation_gap / 100.0 * cell.iterations + 0.5))
        stopped = result.iterations_executed
        if result.early_stopped and (stopped % period or stopped >= cell.iterations):
            problems.append(f"early stop at iteration {stopped}, not a checkpoint")
        if not result.early_stopped and stopped != cell.iterations:
            problems.append(f"ran {stopped} of {cell.iterations} iterations without stopping")
    elif result.iterations_executed != cell.iterations or result.early_stopped:
        problems.append("baseline did not run its full budget")

    missed = False
    if best != seen[1]:
        if algorithm == "abco" and best > seen[1] and not problems:
            missed = True
        else:
            problems.append(f"reports best {best!r}, lowest evaluated {seen[1]!r}")
    return problems, missed


def replay(task, api: Api | None = None):
    """One optimizer run with an observing evaluator: (result, observed)."""
    algorithm, function_id, cell, seed = task
    api = api or Api()
    spec, seen = api.objective(spec_of(function_id))
    return api.runners[algorithm](spec, cell, RngStream(seed)), seen


def replay_all(tasks, api: Api | None = None):
    """Replays in-process through `api`, or in a pool of the benchmark's own.

    The pool forks its workers: a spawn or forkserver pool would also start
    multiprocessing's resource tracker, a helper process that outlives the
    pool and is only stopped when the interpreter exits.
    """
    if api is not None:
        return [replay(task, api) for task in tasks]
    workers = max(1, min(2, os.cpu_count() or 1))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(replay, tasks))


@dataclass
class Verdict:
    """Outcome of the checks over one benchmark run."""

    attempted: int = 0
    failed: int = 0
    colony_runs: int = 0
    missed_best: int = 0
    problems: list = field(default_factory=list)

    def run(self, label, algorithm, function_id, cell, result, seen, canary=False):
        problems, missed = check_run(algorithm, function_id, cell, result, seen)
        self.problems += [f"{label}: {p}" for p in problems]
        if canary:
            self.failed += missed
            return
        if algorithm == "abco":
            self.colony_runs += 1
            self.missed_best += missed

    def expect(self, condition: bool, message: str):
        if not condition:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# serial workloads: colony_large and baselines


@dataclass
class Outcome:
    round: int
    algorithm: str
    function: str
    cell: object
    seed: int
    result: object
    wall_s: float
    seen: list | None
    segment: int
    scaled_s: float = 0.0


def round_tasks(cfg, round_index: int):
    return [
        (algorithm, function_id, cell_config(cfg, algorithm, function_id),
         derive_seed(cfg.base_seed, function_id, algorithm, round_index))
        for function_id in cfg.functions
        for algorithm in cfg.algorithms
    ]


def serial_pass(cfg, variants, seconds):
    """Run whole rounds until `seconds` pass.

    Returns the outcomes per variant and the rounds done. Each outcome's
    `scaled_s` is its time at nominal machine speed (see speed.py).

    `variants` is a list of (api, tracer or None). Every run is made once
    per variant, back to back, so a plain and a traced variant see the
    same machine conditions. A traced variant observes its evaluations.
    """
    outcomes = [[] for _ in variants]
    track = SpeedTrack()
    done = 0
    start = clock()
    while True:
        for algorithm, function_id, cell, seed in round_tasks(cfg, done):
            segment = track.mark()
            for index, (api, tracer) in enumerate(variants):
                spec, seen = spec_of(function_id), None
                if tracer is not None:
                    spec, seen = api.objective(spec)
                with tracer.installed() if tracer is not None else nullcontext():
                    began = clock()
                    result = api.runners[algorithm](spec, cell, RngStream(seed))
                    elapsed = clock() - began
                outcomes[index].append(Outcome(done, algorithm, function_id, cell, seed,
                                               result, elapsed, seen, segment))
        done += 1
        if clock() - start >= seconds:
            break
    track.close()
    for outcome in (o for per_variant in outcomes for o in per_variant):
        outcome.scaled_s = outcome.wall_s * track.scale(outcome.segment)
    return outcomes, done


def check_serial(outcomes, verdict: Verdict, replays=None):
    """Checks on a serial pass; without `replays` the pass observed itself."""
    if replays is None:
        replays = [(o.result, o.seen) for o in outcomes]
    for outcome, (result, seen) in zip(outcomes, replays):
        label = f"{outcome.function}/{outcome.algorithm} round {outcome.round}"
        verdict.expect(fingerprint(result) == fingerprint(outcome.result),
                       f"{label}: replay differs from the timed run")
        verdict.run(label, outcome.algorithm, outcome.function, outcome.cell,
                    outcome.result, seen)


def serial_digest(outcomes) -> str:
    lines = [
        f"{o.function},{o.algorithm},{o.cell.size},{o.round},{o.seed},"
        f"{o.result.best_value!r},{o.result.evaluations},{o.result.iterations_executed},"
        f"{o.result.early_stopped}"
        for o in outcomes if o.round == 0
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def latency_ms(samples_by_algorithm: dict, q: int) -> float:
    """Per-algorithm percentile of run latency, averaged over algorithms.

    Each algorithm's runs form their own cluster (a PSO run is ~3x faster
    than an ACO run), so a percentile of the pooled runs would sit in the
    gap between clusters and jump with every outlier.
    """
    picks = [
        statistics.median(samples) if q == 50
        else statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
        for samples in samples_by_algorithm.values()
    ]
    return 1e3 * statistics.fmean(picks)


def by_algorithm(pairs) -> dict:
    grouped = {}
    for algorithm, seconds in pairs:
        grouped.setdefault(algorithm, []).append(seconds)
    return grouped


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepRound:
    round: int
    cfg: object
    records: list
    read_back: list
    table: str
    records_csv: object
    error_csv: object
    pool_wall_s: float
    wall_s: float
    segment: int
    scale: float = 1.0


def sweep_pass(cfg, apis, workdir, seconds):
    """Whole sweeps through harness until `seconds` pass; like serial_pass.

    Round r runs the config with base_seed + r once per api in `apis`.
    """
    sweeps = [[] for _ in apis]
    track = SpeedTrack(loops=SWEEP_CALIBRATION_LOOPS)
    done = 0
    start = clock()
    while True:
        round_cfg = dataclasses.replace(cfg, base_seed=cfg.base_seed + done)
        segment = track.mark()
        for index, api in enumerate(apis):
            began = clock()
            records = api.run_experiment(round_cfg)
            pooled = clock()
            stem = workdir / f"api{index}_round{done}"
            records_csv = stem.with_name(stem.name + "_records.csv")
            error_csv = stem.with_name(stem.name + "_error_summary.csv")
            api.write_results(records, records_csv)
            api.write_summary(records, "error", error_csv)
            api.write_summary(records, "runtime_seconds",
                              stem.with_name(stem.name + "_runtime_summary.csv"))
            read_back = api.read_results(records_csv)
            table = api.render_table(read_back)
            sweeps[index].append(SweepRound(done, round_cfg, records, read_back, table,
                                            records_csv, error_csv, pooled - began,
                                            clock() - began, segment))
        done += 1
        if clock() - start >= seconds:
            break
    track.close()
    for sweep in (s for per_api in sweeps for s in per_api):
        sweep.scale = track.scale(sweep.segment)
    return sweeps, done


def sweep_tasks(sweep: SweepRound):
    return [
        (r.algorithm, r.function, cell_config(sweep.cfg, r.algorithm, r.function), r.seed)
        for r in sweep.records
    ]


def check_sweep(sweep: SweepRound, config: dict, replays, verdict: Verdict):
    """Output checks on one sweep round, given replays of its records."""
    label = f"sweep round {sweep.round}"
    records = sweep.records
    expected = [(f, a, i) for f in config["functions"] for a in config["algorithms"]
                for i in range(config["runs_per_cell"])]
    verdict.expect([(r.function, r.algorithm, r.run_index) for r in records] == expected,
                   f"{label}: records are not the full grid in canonical order")
    verdict.expect(sweep.read_back == records
                   and [r.failed for r in sweep.read_back] == [r.failed for r in records],
                   f"{label}: read_results(write_results(records)) differs from records")
    for record, (result, seen) in zip(records, replays):
        where = f"{label} {record.function}/{record.algorithm} run {record.run_index}"
        published = reference.FUNCTIONS[record.function][3]
        verdict.expect(
            record.seed == derive_seed(sweep.cfg.base_seed, record.function,
                                       record.algorithm, record.run_index)
            and record.pop_size == expected_size(config, record.algorithm, record.function)
            and record.true_minimum == published
            and record.error == abs(record.best_value - published)
            and not record.failed,
            f"{where}: record fields disagree with the config or the reference")
        verdict.expect(
            (repr(record.best_value), record.evaluations, record.iterations_executed,
             record.early_stopped)
            == (repr(result.best_value), result.evaluations, result.iterations_executed,
                result.early_stopped),
            f"{where}: in-process replay differs from the pooled run")
        verdict.run(where, record.algorithm, record.function,
                    cell_config(sweep.cfg, record.algorithm, record.function), result, seen)
    summary = {}
    with open(sweep.error_csv) as handle:
        next(handle)
        for line in handle:
            fields = line.rstrip("\n").split(",")
            summary[(fields[0], fields[1])] = (float(fields[4]), int(fields[6]))
    for (function_id, algorithm), (mean, n) in summary.items():
        errors = [r.error for r in records
                  if r.function == function_id and r.algorithm == algorithm]
        verdict.expect(n == len(errors) and math.isclose(mean, math.fsum(errors) / n,
                                                         rel_tol=1e-9),
                       f"{label}: error summary for {function_id}/{algorithm} is off")
    verdict.expect(len(summary) == len(config["functions"]) * len(config["algorithms"]),
                   f"{label}: error summary has {len(summary)} rows")
    verdict.expect(all(f in sweep.table for f in config["functions"]),
                   f"{label}: rendered table is missing a function")


def sweep_digest(sweep: SweepRound) -> str:
    """sha256 of the records CSV with the runtime_seconds column dropped."""
    with open(sweep.records_csv) as handle:
        rows = [line.rstrip("\n").rsplit(",", 1)[0] for line in handle]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
