"""Bacterial colony optimizer: explore, exploit and reproduce stages.

The colony is one Colony of arrays, a row per member: positions, values,
personal bests and the checkpoint snapshot. Every stage reads and writes
those arrays directly. The stages minimise: core.drive, which seeds the
colony and keeps the champion, history and result, hands run_abco the
evaluator from core.minimised, so a max-mode objective reaches them
negated. Each iteration runs the three stages in order, offering the best
personal best as champion (Run.offer_best) before and after reproduce,
then checks the stagnation checkpoint.
Search randomness is consumed in a fixed order: the seeding batch; then
per explore round one (size, dim) batch of direction normals, then a
redraw of each all-zero row in row order; reproduce draws only when a
lone survivor forces fresh reseeding. A stage's rounds are drawn in one
call, which is that round-by-round stream: a zero row is redrawn from the
rows that follow it (see _tumble_steps). Repairs draw from the stream's
repair generator, row by row: for an explore round in one repair_bounds
call, which draws only if the round left the box; in exploit per step.

tumble_step is _tumble_steps for one member and one round, then a
repair. numpy fills a batch with the same sequential normals as single
draws, so a round without zero rows draws what one tumble_step per member
would.
Exploit builds each block of _BLOCK_SIZE members' rows from a (d, n) copy
of the positions at the block's start, and the members' coordinates as
Python floats from one tolist. A move stays a list of Python floats up to
its entries in the block's later rows; only one that leaves the box is
repaired, then it is evaluated. At d = 2, every bundled function's, the
entries, the step and the bounds test are unrolled, bit for bit the loops
other dimensions take; the step's squared norm stays the BLAS
offset.dot(offset), which a Python o0 * o0 + o1 * o1 misses on about one
offset in six.
Reproduce builds its replacements in k matrix steps with the same
per-element arithmetic as row by row, and evaluates them in one
core.evaluate_rows call. Explore runs one loop of chained rounds, each
chain one core.evaluate_rows call: every round left with a column form,
one round without; it commits up to the first round with a non-finite value.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OptimizerResult,
    RngStream,
    Run,
    SearchSpace,
    at_least,
    check_fields,
    drive,
    euclidean,
    evaluate_rows,
    k_nearest,  # noqa: F401 - perfbench/tracing.py patches abco.k_nearest by name
    non_negative,
    param,
    positive,
    quality_key,
    rank_neighbours,
    repair_bounds,
    seed_population,
    up_to,
)

__all__ = [
    "AbcoConfig",
    "Colony",
    "RunState",
    "tumble_step",
    "explore_stage",
    "exploit_stage",
    "reproduce_stage",
    "early_stop_check",
    "run_abco",
]

logger = logging.getLogger(__name__)

# Members whose exploit rows one euclidean call builds. Re-timed with the
# plane step, run_abco over the ten functions against 8: 4 ran 1.02-1.10x,
# 16 0.99-1.01x at n = 100 and 0.96-0.98x at n = 25, 32 1.04-1.06x at n = 100.
_BLOCK_SIZE = 8


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


@dataclass
class AbcoConfig:
    """Tunables for one colony run. The direction is the objective's mode.

    size: population size.
    iterations: iteration budget.
    step_size: tumble displacement and cap on exploit moves.
    explore_steps: explore passes per iteration.
    exploit_steps: exploit passes per iteration.
    tumble_steps: tumble rounds per explore pass.
    survivor_fraction: fraction of the population retained at reproduction.
    neighbor_count: neighbours considered for exploitation and regeneration.
    generation_gap: percent of the budget between stagnation checkpoints.
    unchanged_threshold: percent of frozen personal bests that stops the run.
    """

    size: int = param(25, key="size", check=at_least(1), integer=True)
    iterations: int = param(100, check=at_least(1), integer=True)
    step_size: float = param(1.0, key="N_s", check=positive)
    explore_steps: int = param(4, key="N_explor", check=at_least(1), integer=True)
    exploit_steps: int = param(1, key="N_explt", check=non_negative, integer=True)
    tumble_steps: int = param(1, key="N_tum", check=at_least(1), integer=True)
    survivor_fraction: float = param(0.8, key="s", check=up_to(1))
    neighbor_count: int = param(2, key="k", check=at_least(1), integer=True)
    generation_gap: float = param(25.0, key="generation_gap", check=up_to(100))
    unchanged_threshold: float = param(80.0, key="unchanged_threshold", check=up_to(100))

    def __post_init__(self):
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
class Colony:
    """The population as arrays, one row per member.

    positions and values are where each member is and what it scored;
    best_positions and best_values its personal best. snapshot holds the
    personal best values at the last stagnation checkpoint: it only changes
    at checkpoints or when a member is born.
    """

    positions: np.ndarray
    values: np.ndarray
    best_positions: np.ndarray
    best_values: np.ndarray
    snapshot: np.ndarray

    @classmethod
    def fresh(cls, positions: np.ndarray, values: np.ndarray) -> Colony:
        """Members born at `positions`, their memory starting there."""
        return cls(positions, values, positions.copy(), values.copy(), values.copy())

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RunState(Run):
    """Mutable state of one run between stages: a Run and the colony it seeded."""

    population: Colony | None = None


def _tally(diagnostics: dict, **counts: int):
    """Add each nonzero count to its diagnostics counter."""
    for name, count in counts.items():
        if count:
            diagnostics[name] = diagnostics.get(name, 0) + count


def tumble_step(
    position: np.ndarray, cfg: AbcoConfig, space: SearchSpace, rng: RngStream
) -> np.ndarray:
    """Where `position` lands after one tumble: _tumble_steps' hop for one
    member and one round, repaired into bounds on the repair stream."""
    step = _tumble_steps(cfg.step_size, 1, 1, space.dim, rng)[0, 0]
    return repair_bounds(position + step, space, rng)


def _tumble_steps(step_size: float, rounds: int, size: int, dim: int,
                  rng: RngStream) -> np.ndarray:
    """(rounds, size, dim) tumble displacements: step_size hops along random directions.

    Each direction is a draw of standard normals, normalised, and redrawn in
    the (measure-zero) case of an all-zero draw, so it is isotropic in any
    dimension. The stream is the round-by-round one: per round a (size, dim)
    batch of directions, then each all-zero row redrawn in order. All rounds
    are one draw; only if a row's squared norm is zero is it re-read that
    way, a redraw taking the draw's next row and, past its end, a new one.
    """
    directions = rng.standard_normal((rounds, size, dim))
    # Stacked matmul gives the same squared norm as direction @ direction.
    squares = (directions[..., None, :] @ directions[..., :, None])[..., 0, 0]
    if not squares.all():
        rows = itertools.chain(directions.reshape(-1, dim).copy(),
                               map(rng.standard_normal, itertools.repeat(dim)))
        for batch in directions:
            batch[...] = [next(rows) for _ in range(size)]
            for row in batch:
                while row @ row == 0.0:
                    row[...] = next(rows)
        squares = (directions[..., None, :] @ directions[..., :, None])[..., 0, 0]
    return (step_size / np.sqrt(squares))[..., None] * directions


def explore_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Random-walk passes with personal-best tracking.

    Per member per tumble round: tumble, evaluate, and record a value
    strictly below the personal best's quality key as the new personal
    best, so a non-finite personal best yields to any finite value. A
    non-finite evaluation rolls the member back to where the round started.
    Every round's steps are drawn first. Then each pass of one loop chains
    rounds from the colony's positions as if none rolled back (every round
    left with a column form, else one), evaluates the chain in one call and
    commits it up to and including its first round that holds a non-finite
    value, where the chain stops being exact; the next pass starts after
    that round. After a raise, the rest of the stage chains one round a pass.
    """
    colony = state.population
    size = len(colony)
    steps = _tumble_steps(cfg.step_size, cfg.explore_steps * cfg.tumble_steps, size,
                          space.dim, rng)
    chained = getattr(objective, "batch", None) is not None
    while len(steps):
        rounds = steps if chained else steps[:1]
        saved = rng.repairs.bit_generator.state
        landings, position = np.empty_like(rounds), colony.positions
        for landing, step in zip(landings, rounds):
            position = np.add(position, step, out=landing)
            if not (space.lower <= position.min() and position.max() <= space.upper):
                landing[...] = repair_bounds(position, space, rng)
        try:
            values = evaluate_rows(objective, landings.reshape(-1, space.dim))
        except Exception:  # raised again if a chain of one round reaches its row
            if len(rounds) == 1:
                raise
            rng.repairs.bit_generator.state, chained = saved, False
            continue
        values = values.reshape(len(rounds), size)
        finite = np.isfinite(values)
        last, keys = len(rounds) - 1, values
        if not finite.all():
            last = int(finite.all(axis=1).argmin())
            keys = quality_key(values[:last + 1])
            if last < len(rounds) - 1:
                rng.repairs.bit_generator.state = saved  # the same points redraw the same
                for before, step in zip([colony.positions, *landings[:last]], rounds[:last + 1]):
                    repair_bounds(before + step, space, rng)
        # Each member's first minimum over the rounds, as strict < round by round.
        first, members = keys.argmin(axis=0), np.arange(size)
        improved = keys[first, members] < quality_key(colony.best_values)
        np.copyto(colony.best_positions, landings[first, members], where=improved[:, None])
        np.copyto(colony.best_values, values[first, members], where=improved)
        if finite[last].all():
            colony.positions[...], colony.values[...] = landings[last], values[last]
        else:  # a non-finite row stays where the round started
            if last:
                colony.positions[...], colony.values[...] = landings[last - 1], values[last - 1]
            np.copyto(colony.positions, landings[last], where=finite[last, :, None])
            np.copyto(colony.values, values[last], where=finite[last])
            _tally(state.diagnostics, rolled_back_moves=size - int(np.count_nonzero(finite[last])))
        state.evaluations += (last + 1) * size
        steps = steps[last + 1:]
    return state


def exploit_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Pull each member toward the best find among its k nearest neighbours.

    The target is the strongest personal best held within the member's
    spatial neighbourhood; movement happens only when that memory is
    strictly better than the member's own, so local champions hold their
    ground. Members update sequentially, so later members see earlier
    moves within the same pass: a block of _BLOCK_SIZE members ranks rows
    one euclidean call builds where every member stands at the block's
    start, and the block's earlier moves reach them as Python-float
    entries in euclidean's operations and order. A step ends on the target
    once within reach, else at c + (step_size / distance) * o per
    coordinate, distance from the BLAS offset.dot(offset); at d = 2 both
    are unrolled. A step between two in-box points leaves the box only by
    rounding, so only a step with a coordinate outside the box goes
    through repair_bounds, which would draw nothing for the rest.
    """
    colony = state.population
    size = len(colony)
    if size < 2:
        _tally(state.diagnostics, exploit_skipped=1)
        return state
    step_size, neighbour_count = cfg.step_size, cfg.neighbor_count
    lower, upper, plane = space.lower, space.upper, space.dim == 2
    positions, best_positions = colony.positions, colony.best_positions
    best_keys = quality_key(colony.best_values).tolist()
    moves = rolled_back = 0
    for _, start in itertools.product(range(cfg.exploit_steps), range(0, size, _BLOCK_SIZE)):
        columns = positions.T.copy()
        rows = euclidean(columns[:, None], columns[:, start:start + _BLOCK_SIZE, None])
        block = positions[start:start + _BLOCK_SIZE]
        pending = []  # (index, landing) of this block's moves
        # A pending move's entry repeats core.euclidean's operations in its
        # order, (0.0 + a * a) + b * b being a * a + b * b in the plane.
        for index, row, current, here in zip(range(start, size), rows, block, block.tolist()):
            if plane:
                h0, h1 = here
                for mover, (q0, q1) in pending:
                    a, b = h0 - q0, h1 - q1
                    row[mover] = math.sqrt(a * a + b * b)
            else:
                for mover, landing in pending:
                    total = 0.0
                    for p, q in zip(here, landing):
                        total += (p - q) * (p - q)
                    row[mover] = math.sqrt(total)
            target_index = None
            target_key = best_keys[index]
            for neighbour_index in rank_neighbours(row, index, neighbour_count):
                if best_keys[neighbour_index] < target_key:
                    target_index = neighbour_index
                    target_key = best_keys[neighbour_index]
            if target_index is None:
                continue
            target = best_positions[target_index]
            offset = target - current
            distance = math.sqrt(offset.dot(offset))  # BLAS: a Python sum rounds differently
            if distance <= step_size:
                moved = target.tolist()
            elif plane:
                scale, (o0, o1) = step_size / distance, offset.tolist()
                moved = [h0 + scale * o0, h1 + scale * o1]
            else:
                moved = [c + step_size / distance * o for c, o in zip(here, offset.tolist())]
            if not (lower <= moved[0] <= upper and lower <= moved[1] <= upper if plane
                    else all(lower <= x <= upper for x in moved)):
                moved = repair_bounds(moved, space, rng).tolist()
            value = float(objective(moved))
            state.evaluations += 1
            if not math.isfinite(value):
                rolled_back += 1
                continue
            positions[index] = moved
            pending.append((index, moved))
            colony.values[index] = value
            moves += 1
            # A finite value is its own quality key.
            if value < best_keys[index]:
                best_positions[index] = moved
                colony.best_values[index] = value
                best_keys[index] = value
    _tally(state.diagnostics, exploit_moves=moves, rolled_back_moves=rolled_back)
    return state


@functools.lru_cache(maxsize=64)
def _regeneration_plan(needed: int, retained: int, neighbour_count: int) -> tuple:
    """Per chosen rank, best first: its weight and the read-only (needed,)
    survivor ranks it reads, one per replacement. Shared by every call."""
    weight_total = neighbour_count * (neighbour_count + 1) / 2.0
    guides = np.arange(needed) % retained
    # The neighbour_count ranks nearest each guide, ties toward the better
    # side: a window of neighbour_count + 1 consecutive ranks holding the
    # guide, shifted to fit inside the survivors, with the guide taken out.
    # Survivors are best-first, so each row of chosen is in ascending value rank.
    starts = np.minimum(np.maximum(guides - (neighbour_count + 1) // 2, 0),
                        retained - 1 - neighbour_count)
    window = starts[:, None] + np.arange(neighbour_count + 1)
    chosen = window[window != guides[:, None]].reshape(needed, neighbour_count).T.copy()
    chosen.flags.writeable = False
    return tuple(((neighbour_count - rank) / weight_total, ranks)
                 for rank, ranks in enumerate(chosen))


def reproduce_stage(state: RunState, cfg: AbcoConfig, objective, space, rng) -> RunState:
    """Keep the best slice of the population and regenerate the rest.

    Survivors are the survivor_fraction with the lowest current values
    (stable, so ties keep their original order), moved to the front in
    rank order. Each replacement takes a guide from the survivors
    round-robin and places itself at the linear-rank-weighted average of
    the k survivors closest to the guide in that ranking (ties toward the
    better side), best of the chosen weighted heaviest; with a single
    survivor the replacements reseed uniformly instead. Replacements start
    their personal-best memory from their own birth position. Which ranks
    each replacement averages, and their weights, depend only on (needed,
    retained, k), so _regeneration_plan builds them once per shape and
    caches them, their index arrays read-only. Every caller passes a colony
    of cfg.size members, as seeding makes it, and the stage keeps them in
    place: survivors go to the front rows of each array, replacements after.
    """
    colony = state.population
    kept = np.argsort(quality_key(colony.values), kind="stable")[: cfg.survivor_count]
    retained = len(kept)
    for array in vars(colony).values():
        array[:retained] = array[kept]
    needed = cfg.size - retained
    if needed > 0:
        if retained == 1:
            positions, values = seed_population(space, needed, objective, rng)
        else:
            # One weighted rank at a time over all rows: per element the
            # same additions in the same order as a per-row sum.
            plan = _regeneration_plan(needed, retained, min(cfg.neighbor_count, retained - 1))
            positions = np.zeros((needed, space.dim))
            for weight, ranks in plan:
                positions += weight * colony.positions[ranks]
            values = evaluate_rows(objective, positions)
        state.evaluations += needed
        born = slice(retained, None)
        colony.positions[born] = colony.best_positions[born] = positions
        colony.values[born] = colony.best_values[born] = colony.snapshot[born] = values
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
    colony = state.population
    unchanged = int(np.count_nonzero(colony.best_values == colony.snapshot))
    percent = unchanged / len(colony) * 100.0
    state.diagnostics.setdefault("checkpoints", []).append((state.iteration, percent))
    if percent > cfg.unchanged_threshold:
        return True
    colony.snapshot = colony.best_values.copy()
    return False


def run_abco(objective, cfg: AbcoConfig, rng: RngStream) -> OptimizerResult:
    """Seed the colony, iterate the three stages, report the best find.

    `objective` is an ObjectiveSpec; its evaluator and space drive the run
    and its mode decides the direction of improvement. core.drive seeds
    the colony and keeps the champion and history; the colony's best
    personal best is offered (Run.offer_best) before and after reproduction
    each iteration, so the champion is the best value ever evaluated. A
    population of one warns once per run that exploit is skipped.
    """
    space = objective.space
    if cfg.size < 2:
        logger.warning("exploit stage skipped: population of one has no neighbours")

    def search(state, evaluate, positions, values):
        # The stages write to the colony's positions, and the evaluator may keep the seeding
        # batch. Every stage writes the colony in place, so `colony` stays the run's colony.
        colony = state.population = Colony.fresh(positions.copy(), values)
        for state.iteration in range(1, cfg.iterations + 1):
            explore_stage(state, cfg, evaluate, space, rng)
            exploit_stage(state, cfg, evaluate, space, rng)
            # Reproduction culls by current value, which can drop the member
            # holding the best personal record, so offer it first.
            state.offer_best(colony.best_values, colony.best_positions)
            reproduce_stage(state, cfg, evaluate, space, rng)
            state.offer_best(colony.best_values, colony.best_positions)
            yield
            if early_stop_check(state, cfg):
                state.early_stopped = True
                return

    return drive(objective, cfg.size, rng, search, RunState())
