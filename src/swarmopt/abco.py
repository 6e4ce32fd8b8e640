"""Bacterial colony optimizer: explore, exploit and reproduce stages.

Each iteration runs the three stages in order, refreshes the global best
from the population's personal bests, then checks the stagnation
checkpoint. Randomness is consumed in a fixed order: the seeding batch;
then per explore round and member the tumble direction normals plus one
uniform per out-of-bounds coordinate; the exploit stage draws one uniform
per out-of-bounds coordinate of a step; the reproduce stage draws only
when a lone survivor forces fresh reseeding.

Explore draws a round's normals in one batch, rewound at the first member
that needs more draws. numpy fills a batch with the same sequential
normals as single draws, so that is the stream of one tumble_step each.
Exploit queries k_nearest per member on one live position matrix and
repairs only steps that leave the box. Reproduce builds its replacements
in k matrix steps with the same per-element arithmetic as row by row.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Bacterium,
    OptimizationMode,
    OptimizerResult,
    RngStream,
    SearchSpace,
    at_least,
    check_fields,
    k_nearest,
    non_negative,
    param,
    positive,
    quality_key,
    repair_bounds,
    seed_population,
    up_to,
)

__all__ = [
    "AbcoConfig",
    "RunState",
    "tumble_step",
    "explore_stage",
    "move_toward",
    "exploit_stage",
    "reproduce_stage",
    "early_stop_check",
    "run_abco",
]

logger = logging.getLogger(__name__)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


@dataclass
class AbcoConfig:
    """Tunables for one colony run.

    size: population size.
    iterations: iteration budget.
    step_size: tumble displacement and cap on exploit moves.
    explore_steps: explore passes per iteration.
    exploit_steps: exploit passes per iteration.
    tumble_steps: tumble rounds per explore pass.
    improvement_threshold: minimum gain counted as a directed step.
    survivor_fraction: fraction of the population retained at reproduction.
    neighbor_count: neighbours considered for exploitation and regeneration.
    generation_gap: percent of the budget between stagnation checkpoints.
    unchanged_threshold: percent of frozen personal bests that stops the run.
    mode: whether smaller or larger objective values win.
    """

    size: int = param(25, key="size", check=at_least(1), integer=True)
    iterations: int = param(100, check=at_least(1))
    step_size: float = param(1.0, key="N_s", check=positive)
    explore_steps: int = param(4, key="N_explor", check=at_least(1), integer=True)
    exploit_steps: int = param(1, key="N_explt", check=non_negative, integer=True)
    tumble_steps: int = param(1, key="N_tum", check=at_least(1), integer=True)
    improvement_threshold: float = param(0.05, key="e", check=non_negative)
    survivor_fraction: float = param(0.8, key="s", check=up_to(1))
    neighbor_count: int = param(2, key="k", check=at_least(1), integer=True)
    generation_gap: float = param(25.0, key="generation_gap", check=up_to(100))
    unchanged_threshold: float = param(80.0, key="unchanged_threshold", check=up_to(100))
    mode: OptimizationMode = OptimizationMode.MIN

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = OptimizationMode(self.mode)
        check_fields(type(self), vars(self))

    @property
    def survivor_count(self) -> int:
        """Members retained at reproduction: max(1, round-half-up of the split)."""
        return max(1, _round_half_up(self.survivor_fraction * self.size))

    @property
    def checkpoint_period(self) -> int:
        """Iterations between stagnation checks."""
        return max(1, _round_half_up(self.generation_gap / 100.0 * self.iterations))


@dataclass
class RunState:
    """Mutable state of one run between stages."""

    population: list[Bacterium]
    iteration: int
    global_best_value: float
    global_best_position: np.ndarray
    early_stopped: bool = False
    iterations_executed: int = 0
    evaluations: int = 0
    diagnostics: dict = field(default_factory=dict)


def _tally(diagnostics: dict, **counts: int):
    """Add each nonzero count to its diagnostics counter."""
    for name, count in counts.items():
        if count:
            diagnostics[name] = diagnostics.get(name, 0) + count


def tumble_step(
    bacterium: Bacterium, cfg: AbcoConfig, space: SearchSpace, rng: RngStream
) -> np.ndarray:
    """New position after one tumble: a step_size hop in a random direction.

    The direction comes from normalised standard normals, redrawn in the
    (measure-zero) case of an all-zero draw, so it is isotropic in any
    dimension. The result is repaired into bounds.
    """
    norm = 0.0
    while norm == 0.0:
        direction = rng.standard_normal(space.dim)
        norm = math.sqrt(direction @ direction)
    moved = bacterium.position + (cfg.step_size / norm) * direction
    return repair_bounds(moved, space, rng)


def _tumble_round(population, cfg: AbcoConfig, space: SearchSpace, rng: RngStream) -> np.ndarray:
    """Every member's tumble_step move for one round, as matrix rows.

    The rows draw one batch. The first row that needs more draws (out of
    bounds, or a zero direction) rewinds the stream to the batch start,
    redraws the rows before it and takes tumble_step; a new batch follows.
    """
    positions = np.array([member.position for member in population])
    size, dim = positions.shape
    moved = np.empty_like(positions)
    bit_generator = rng.generator.bit_generator
    start = 0
    while start < size:
        saved = bit_generator.state
        directions = rng.standard_normal((size - start, dim))
        # Stacked matmul gives the same squared norm as direction @ direction.
        squared = (directions[:, None, :] @ directions[:, :, None]).ravel()
        # A zero direction makes a nan row, which fails the bounds test too.
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = positions[start:] + (cfg.step_size / np.sqrt(squared))[:, None] * directions
        settled = ((steps >= space.lower) & (steps <= space.upper)).all(axis=1)
        accepted = len(settled) if settled.all() else int(settled.argmin())
        moved[start:start + accepted] = steps[:accepted]
        start += accepted
        if start < size:
            bit_generator.state = saved
            rng.standard_normal((accepted, dim))
            moved[start] = tumble_step(population[start], cfg, space, rng)
            start += 1
    return moved


def move_toward(current, target, step_size: float) -> np.ndarray:
    """Step from current toward target by at most step_size, never past it.

    Returns target itself once it is within reach, and current when the two
    coincide.
    """
    current = np.asarray(current, dtype=float)
    target = np.asarray(target, dtype=float)
    if current.shape != target.shape:
        raise ValueError(f"vector length mismatch: {current.shape} vs {target.shape}")
    offset = target - current
    distance = math.sqrt(offset @ offset)
    if distance <= step_size:
        return target.copy()
    return current + (step_size / distance) * offset


def explore_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Random-walk passes with personal-best tracking.

    Per member per tumble round: tumble, evaluate, measure the gain against
    the personal best before touching it, and record any strict gain as the
    new personal best. A gain above improvement_threshold is counted as a
    directed step. A non-finite evaluation rolls the member back to where
    the round started. Gains are differences of quality keys, so one
    subtraction serves both modes.
    """
    mode = cfg.mode
    threshold = cfg.improvement_threshold
    population = state.population
    best_keys = quality_key(np.array([m.best_solution for m in population]), mode).tolist()
    directed = rolled_back = 0
    for _ in range(cfg.explore_steps):
        for _ in range(cfg.tumble_steps):
            rows = _tumble_round(population, cfg, space, rng)
            values = [float(objective(moved)) for moved in rows]
            state.evaluations += len(values)
            keys = quality_key(np.array(values), mode).tolist()
            for index, (member, moved, value) in enumerate(zip(population, rows, values)):
                if not math.isfinite(value):
                    rolled_back += 1
                    continue
                member.position = moved
                member.solution = value
                gain = best_keys[index] - keys[index]
                if gain > 0.0:
                    member.best_solution = value
                    member.best_position = moved.copy()
                    best_keys[index] = keys[index]
                if gain > threshold:
                    # The crossing is counted but moves nothing: it fires only
                    # when the personal best has just moved to the current
                    # position, so a directed step there would stay put.
                    directed += 1
    _tally(state.diagnostics, rolled_back_moves=rolled_back, directed_steps=directed)
    return state


def exploit_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Pull each member toward the best find among its k nearest neighbours.

    The target is the strongest personal best held within the member's
    spatial neighbourhood; movement happens only when that memory is
    strictly better than the member's own, so local champions hold their
    ground. Members update sequentially, so later members see earlier
    moves within the same pass. A step between two in-box points leaves
    the box only by rounding, so only a step with a coordinate outside the
    box goes through repair_bounds, which would draw nothing for the rest.
    """
    population = state.population
    if len(population) < 2:
        logger.warning("exploit stage skipped: population of one has no neighbours")
        _tally(state.diagnostics, exploit_skipped=1)
        return state
    mode = cfg.mode
    k = min(cfg.neighbor_count, len(population) - 1)
    step_size = cfg.step_size
    lower, upper = space.lower, space.upper
    positions = np.array([member.position for member in population])
    best_keys = quality_key(np.array([m.best_solution for m in population]), mode).tolist()
    moves = rolled_back = 0
    for _ in range(cfg.exploit_steps):
        for index, member in enumerate(population):
            target_index = None
            target_key = best_keys[index]
            for neighbour_index, _ in k_nearest(positions, index, k):
                if best_keys[neighbour_index] < target_key:
                    target_index = neighbour_index
                    target_key = best_keys[neighbour_index]
            if target_index is None:
                continue
            moved = move_toward(member.position, population[target_index].best_position, step_size)
            if not all(lower <= x <= upper for x in moved.tolist()):
                moved = repair_bounds(moved, space, rng)
            value = float(objective(moved))
            state.evaluations += 1
            if not math.isfinite(value):
                rolled_back += 1
                continue
            member.position = moved
            positions[index] = moved
            member.solution = value
            moves += 1
            key = quality_key(value, mode)
            if key < best_keys[index]:
                member.best_solution = value
                member.best_position = moved.copy()
                best_keys[index] = key
    _tally(state.diagnostics, exploit_moves=moves, rolled_back_moves=rolled_back)
    return state


def reproduce_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Keep the best slice of the population and regenerate the rest.

    Survivors are the top survivor_fraction under the mode's ordering of
    current solutions (stable, so ties keep their original order). Each
    replacement takes a guide from the survivors round-robin and places
    itself at the linear-rank-weighted average of the k survivors closest
    to the guide in that ranking (ties toward the better side), best of
    the chosen weighted heaviest; with a single survivor the replacements
    reseed uniformly instead. Replacements start their personal-best
    memory from their own birth position.
    """
    mode = cfg.mode
    ranked = sorted(state.population, key=lambda member: quality_key(member.solution, mode))
    survivors = ranked[: cfg.survivor_count]
    retained = len(survivors)
    needed = cfg.size - retained

    replacements: list[Bacterium] = []
    if needed > 0:
        if retained == 1:
            replacements = seed_population(space, needed, objective, rng)
            state.evaluations += needed
        else:
            neighbour_count = min(cfg.neighbor_count, retained - 1)
            weight_total = neighbour_count * (neighbour_count + 1) / 2.0
            guides = np.arange(needed) % retained
            # The neighbour_count ranks nearest each guide, ties toward the
            # better side: a window of neighbour_count + 1 consecutive ranks
            # holding the guide, shifted to fit inside the survivors, with
            # the guide taken out. ranked[] is best-first, so each row of
            # chosen is in ascending solution rank.
            starts = np.minimum(np.maximum(guides - (neighbour_count + 1) // 2, 0),
                                retained - 1 - neighbour_count)
            window = starts[:, None] + np.arange(neighbour_count + 1)
            chosen = window[window != guides[:, None]].reshape(needed, neighbour_count)
            # One weighted rank at a time over all rows: per element the
            # same additions in the same order as a per-row sum.
            survivor_positions = np.array([member.position for member in survivors])
            positions = np.zeros((needed, space.dim))
            for rank in range(1, neighbour_count + 1):
                weight = (neighbour_count - rank + 1) / weight_total
                positions += weight * survivor_positions[chosen[:, rank - 1]]
            for position in positions:
                value = float(objective(position))
                state.evaluations += 1
                replacements.append(
                    Bacterium(
                        position=position,
                        solution=value,
                        best_position=position.copy(),
                        best_solution=value,
                        previous_best_solution=value,
                    )
                )
    state.population = survivors + replacements
    return state


def early_stop_check(state: RunState, cfg: AbcoConfig) -> bool:
    """Stagnation checkpoint; True when the run should stop now.

    Only iterations that are positive multiples of the checkpoint period
    count, and the final iteration is excluded because the budget ends
    there anyway. At a checkpoint the run stops when the percentage of
    members whose personal best exactly equals its snapshot exceeds
    unchanged_threshold; otherwise every snapshot is refreshed.
    """
    period = cfg.checkpoint_period
    if state.iteration % period != 0 or state.iteration >= cfg.iterations:
        return False
    population = state.population
    unchanged = sum(
        1 for member in population if member.best_solution == member.previous_best_solution
    )
    percent = unchanged / len(population) * 100.0
    state.diagnostics.setdefault("checkpoints", []).append((state.iteration, percent))
    if percent > cfg.unchanged_threshold:
        return True
    for member in population:
        member.previous_best_solution = member.best_solution
    return False


def _refresh_global_best(state: RunState, mode: OptimizationMode):
    keys = quality_key(np.array([m.best_solution for m in state.population]), mode)
    best = int(keys.argmin())
    if keys[best] < quality_key(state.global_best_value, mode):
        champion = state.population[best]
        state.global_best_value = champion.best_solution
        state.global_best_position = champion.best_position.copy()


def run_abco(objective, cfg: AbcoConfig, rng: RngStream) -> OptimizerResult:
    """Seed the colony, iterate the three stages, report the best find.

    `objective` is an ObjectiveSpec; its evaluator and space drive the run
    while cfg.mode decides the direction of improvement. The global best
    starts from the seeded population and is refreshed before and after
    reproduction each iteration, so it is the best value ever evaluated.
    """
    started = time.perf_counter()
    space = objective.space
    evaluator = objective.evaluator
    mode = cfg.mode

    population = seed_population(space, cfg.size, evaluator, rng)
    champion = min(population, key=lambda member: quality_key(member.best_solution, mode))
    state = RunState(
        population=population,
        iteration=0,
        global_best_value=champion.best_solution,
        global_best_position=champion.best_position.copy(),
        evaluations=cfg.size,
        diagnostics={"best_history": []},
    )

    for iteration in range(1, cfg.iterations + 1):
        state.iteration = iteration
        explore_stage(state, cfg, evaluator, space, rng)
        exploit_stage(state, cfg, evaluator, space, rng)
        # Reproduction culls by current value, which can drop the member
        # holding the best personal record, so record it first.
        _refresh_global_best(state, mode)
        reproduce_stage(state, cfg, evaluator, space, rng)
        _refresh_global_best(state, mode)
        state.diagnostics["best_history"].append(state.global_best_value)
        state.iterations_executed = iteration
        if early_stop_check(state, cfg):
            state.early_stopped = True
            break

    return OptimizerResult(
        best_value=state.global_best_value,
        best_position=state.global_best_position.copy(),
        iterations_executed=state.iterations_executed,
        evaluations=state.evaluations,
        early_stopped=state.early_stopped,
        runtime_seconds=time.perf_counter() - started,
        diagnostics=state.diagnostics,
    )
