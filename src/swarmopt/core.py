"""Shared primitives: search space, population seeding, seeded randomness, run driver.

Everything stochastic in this package draws from an explicitly seeded
RngStream, never from global numpy state, so any run can be replayed bit
for bit. Search draws and bounds repairs come from two independent
generators, each consumed in a documented fixed order (population seeding
first, then the per-iteration stage order defined by each optimizer), which
is what makes the experiment harness deterministic. All three optimizers
seed through seed_population, so every run starts from the same kind of
(size, dim) uniform draw. Every batch of points they evaluate goes
through evaluate_rows, which takes an evaluator's column form when it
carries one; evaluation draws nothing, so either path leaves the streams
alike. Every batch of points they repair goes through one repair_bounds
call, which draws all of its resampled coordinates at once in the order
one scalar draw per coordinate, row by row, would take them. Neighbours
rank in (distance, index) order, nan last (rank_neighbours). drive runs
every optimizer under one protocol (seeding, champion, history, result);
each supplies only its iteration step. Run.offer is the champion rule, and
Run.offer_best offers a batch's first row with the lowest quality key.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "ConfigurationError",
    "param",
    "check_fields",
    "UnknownFunctionError",
    "EmptyNeighbourhoodError",
    "OptimizationMode",
    "SearchSpace",
    "RngStream",
    "OptimizerResult",
    "Run",
    "drive",
    "derive_seed",
    "minimised",
    "evaluate_rows",
    "quality_key",
    "seed_population",
    "euclidean",
    "rank_neighbours",
    "k_nearest",
    "repair_bounds",
    "error_rate",
]


class ConfigurationError(ValueError):
    """A parameter value is outside its documented range."""


def param(default, *, key: str | None = None, check=None, integer: bool = False):
    """A config dataclass field declared with its config-file key and check.

    `key` is how a config file or `--param` spells the field; a field
    without one cannot be set from a config block. `check` is one of the
    checks below, run by check_fields: a function of (value, all field
    values, spell) returning whether the value holds and what was expected.
    `integer` marks a count, which must be a numbers.Integral.
    """
    metadata = {"check": check, "integer": integer}
    if key is not None:
        metadata["key"] = key
    return field(default=default, metadata=metadata)


def at_least(bound):
    """Check value >= bound; a str bound names another field of the config."""
    def check(value, values, spell):
        if isinstance(bound, str):
            return value >= values[bound], f"at least {spell(bound)} ({values[bound]})"
        return value >= bound, f"at least {bound}"
    return check


def up_to(high):
    """Check 0 < value <= high."""
    return lambda value, values, spell: (0 < value <= high, f"in (0, {high}]")


def positive(value, values, spell):
    return value > 0, "positive"


def non_negative(value, values, spell):
    return value >= 0, "non-negative"


@functools.cache
def _declared_checks(cls) -> tuple:
    return tuple((f.name, f.metadata["check"], f.default is None, f.metadata["integer"])
                 for f in fields(cls) if f.metadata.get("check") is not None)


def check_fields(cls, values: dict, spell=lambda name: name) -> None:
    """Run the checks declared on the fields of config dataclass `cls`.

    `values` maps every field name to its value. Fields are checked in
    declaration order, and the first failure raises ConfigurationError
    naming the field through `spell`, so a caller can report the key the
    user wrote. A None value passes where the field's default is None.
    Any other value must be a numbers.Real and not a bool, and a count a
    numbers.Integral (numpy scalars are both); a value that is not Integral
    must be finite.
    """
    for name, check, optional, integer in _declared_checks(cls):
        value = values[name]
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{spell(name)} expects a number, got {value!r}")
        if integer and not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{spell(name)} expects an integer, got {value!r}")
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ConfigurationError(f"{spell(name)} must be finite, got {value}")
        holds, expectation = check(value, values, spell)
        if not holds:
            raise ConfigurationError(f"{spell(name)} must be {expectation}, got {value}")


class UnknownFunctionError(LookupError):
    """A benchmark function id is not in the registry."""


class EmptyNeighbourhoodError(ValueError):
    """A neighbourhood query was made against a population of one."""


class OptimizationMode(Enum):
    """Direction of improvement: smaller is better, or larger is better."""

    MIN = "min"
    MAX = "max"


def minimised(objective):
    """The objective's evaluator as one to minimise, and the sign that undoes it.

    Every optimizer minimises internally. In max mode this hands back the
    negated evaluator, with a negated `batch` if it has one (see
    evaluate_rows), and sign -1.0; multiplying a minimised value by the
    sign gives back the value the objective returned. Negation is exact in
    IEEE arithmetic, so minimising -f orders every pair of values as
    maximising f does. A mode given as "min" or "max" is read as the enum.
    """
    evaluator = objective.evaluator
    if OptimizationMode(objective.mode) is OptimizationMode.MAX:
        def negated(point):
            return -evaluator(point)

        if hasattr(evaluator, "batch"):
            negated.batch = lambda rows: -evaluate_rows(evaluator, rows)
        return negated, -1.0
    return evaluator, 1.0


def evaluate_rows(evaluator, rows) -> np.ndarray:
    """The (m,) values of `evaluator` at the m rows of `rows`.

    An evaluator may carry a column form as its `batch` attribute, taking
    the (m, d) matrix and returning what m calls in row order would, bit
    for bit; the registry's evaluators do. It must be pure, the same rows
    giving the same values with no side effects: explore evaluates a chain
    of rounds in one call and discards its landings past the first round
    with a non-finite value, or all of them after a raise. An
    evaluator may keep the batch it is passed: no optimizer writes to it
    afterwards. Without a column form, and so for any wrapped evaluator,
    every row is one call, in row order. A column form's values must have
    shape (m,), or ValueError is raised.
    """
    batch = getattr(evaluator, "batch", None)
    if batch is None:
        return np.array([float(evaluator(row)) for row in rows])
    values = np.asarray(batch(rows), dtype=float)
    if values.shape != (len(rows),):
        raise ValueError(f"column form returned shape {values.shape}, expected ({len(rows)},)")
    return values


def quality_key(value):
    """Sort key that places smaller objective values first under ascending order.

    Takes a float or an array. nan and ±inf all map to +inf, so they rank
    after every finite value and tie with each other.
    """
    if isinstance(value, np.ndarray):
        return np.where(np.isfinite(value), value, np.inf)
    return value if math.isfinite(value) else math.inf


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box; the same scalar bounds apply to every coordinate."""

    dim: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"dim must be at least 1, got {self.dim}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigurationError(
                f"bounds must be finite, got [{self.lower}, {self.upper}]"
            )
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"lower bound must be below upper bound, got [{self.lower}, {self.upper}]"
            )


def derive_seed(base_seed: int, function_id: str, algorithm_id: str, run_index: int) -> int:
    """Stable 64-bit child seed for one run of one algorithm on one function.

    Hashing the labels keeps the child streams statistically independent
    and collision-free across cells without coordinating counters.
    """
    text = f"{base_seed}:{function_id}:{algorithm_id}:{run_index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """Seeded random source owned by exactly one run.

    All stochastic routines in this package take one of these and consume
    draws in a documented order; sharing a stream between concurrent runs
    would break replayability. Search draws come from `generator`, PCG64 on
    the seed; repair_bounds draws only from `repairs`, PCG64 on the seed's
    first SeedSequence child, so no search draw depends on a repair.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))
        self.repairs = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed).spawn(1)[0]))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


@dataclass
class OptimizerResult:
    """Outcome of a single optimizer run."""

    best_value: float
    best_position: np.ndarray
    iterations_executed: int
    evaluations: int
    early_stopped: bool
    runtime_seconds: float
    diagnostics: dict = field(default_factory=dict)


def seed_population(
    space: SearchSpace, size: int, objective, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter `size` points uniformly over the space and evaluate them.

    Returns the (size, dim) positions and their (size,) values, evaluated
    in row order. Positions come from a single (size, dim) uniform draw, so
    the layout is a pure function of the stream state.
    """
    if size < 1:
        raise ConfigurationError(f"population size must be at least 1, got {size}")
    positions = rng.uniform(space.lower, space.upper, size=(size, space.dim))
    return positions, evaluate_rows(objective, positions)


@dataclass(kw_only=True)
class Run:
    """What drive shares with a search: the champion (the best minimised value
    evaluated, and where), `reported` (its value times `sign`, the objective's
    own), evaluations counted from seeding on, and the early-stop flag."""

    iteration: int = 0
    evaluations: int = 0
    global_best_value: float = math.inf
    global_best_position: np.ndarray | None = None
    sign: float = 1.0
    reported: float = math.inf
    early_stopped: bool = False
    diagnostics: dict = field(default_factory=dict)

    def offer(self, value: float, position) -> None:
        """Make (value, position) the champion if there is none yet or its quality
        key is strictly lower: ties keep the first position, and `reported` is a
        new float only when the champion changes."""
        if (self.global_best_position is None
                or quality_key(value) < quality_key(self.global_best_value)):
            self.global_best_value = value
            self.global_best_position = position.copy()
            self.reported = self.sign * value

    def offer_best(self, values: np.ndarray, positions: np.ndarray) -> None:
        """Offer the first of the (m,) `values` with the lowest quality key, at its row."""
        best = int(quality_key(values).argmin())
        self.offer(values.item(best), positions[best])


def drive(objective, size: int, rng: RngStream, search, run: Run | None = None) -> OptimizerResult:
    """One run of an optimizer on ObjectiveSpec `objective`: seed, iterate, report.

    drive minimises the objective, draws and evaluates the seeding batch of
    `size` points first, and offers its best row, which Run.offer crowns even
    if no value is finite. The generator `search(run, evaluate, positions,
    values)` gets `run` (a fresh Run by default), the minimised evaluator and
    that batch; it counts its evaluations, offers its finds, and yields once
    per iteration. diagnostics["best_history"] is the seeded best, then
    `run.reported` after each iteration: iterations_executed is its length - 1.
    """
    started = time.perf_counter()
    evaluate, sign = minimised(objective)
    positions, values = seed_population(objective.space, size, evaluate, rng)
    run = Run() if run is None else run
    run.sign, run.evaluations = sign, size
    run.offer_best(values, positions)
    history = run.diagnostics["best_history"] = [run.reported]
    for _ in search(run, evaluate, positions, values):
        history.append(run.reported)
    return OptimizerResult(
        best_value=run.reported,
        best_position=run.global_best_position.copy(),
        iterations_executed=len(history) - 1,
        evaluations=run.evaluations,
        early_stopped=run.early_stopped,
        runtime_seconds=time.perf_counter() - started,
        diagnostics=run.diagnostics,
    )


def euclidean(others, subjects) -> np.ndarray:
    """Distances between coordinate-major (d, ...) points: squares added in coordinate order.
    abco.exploit_stage repeats this order in Python floats, unrolled as
    math.sqrt(a * a + b * b) at d = 2 and summed from 0.0 in a loop
    otherwise, so change all three together."""
    deltas = others - subjects
    deltas *= deltas
    total = deltas[0]
    for coordinate in range(1, len(deltas)):
        total += deltas[coordinate]
    return np.sqrt(total, out=total)


def k_nearest(population, subject_index: int, k: int) -> list[tuple[int, float]]:
    """The k nearest other members, nearest first, as (index, distance) pairs.

    Returns min(k, size - 1) pairs. Distance ties break toward the lower
    index so downstream stages stay deterministic. `population` is the
    (size, dim) matrix of member positions; distances are euclidean's.
    """
    matrix = np.asarray(population, dtype=float)
    size = matrix.shape[0]
    if size < 2:
        raise EmptyNeighbourhoodError("a population of one has no neighbours")
    if not 0 <= subject_index < size:
        raise ValueError(f"subject_index {subject_index} out of range for size {size}")
    if k < 1:
        raise ConfigurationError(f"neighbour count must be at least 1, got {k}")
    distances = euclidean(matrix.T, matrix[subject_index, :, None])
    return [(index, distances.item(index))
            for index in rank_neighbours(distances.copy(), subject_index, k)]


# Masked argmins rank a 100-row faster than a stable sort up to this k (timeit: 1.3, 1.7 us
# at k = 1, 2 against 1.9; 2.2 against 2.0 at k = 5); sphere's k = 15 ran 1.09-1.15x slower.
_ARGMIN_RANKS = 2


def rank_neighbours(distances: np.ndarray, subject_index: int, k: int) -> list[int]:
    """k_nearest's indices: the first min(k, size - 1) other members of the
    subject's (size,) row in (distance, index) order, nan last. Consumes the
    row: up to _ARGMIN_RANKS picks are argmins masked with +inf, as is the
    subject; a larger k, or a nan or +inf pick, leaves the rest to a stable sort."""
    k, nearest = min(k, len(distances) - 1), []
    if k <= _ARGMIN_RANKS:
        distances[subject_index] = math.inf
        for _ in range(k):
            index = int(distances.argmin())
            if not distances.item(index) < math.inf:
                break
            nearest.append(index)
            distances[index] = math.inf
        else:
            return nearest
    ranked = [index for index in distances.argsort(kind="stable")[: k + 1].tolist()
              if index != subject_index and index not in nearest]
    return nearest + ranked[: k - len(nearest)]


def repair_bounds(points, space: SearchSpace, rng: RngStream) -> np.ndarray:
    """Copy of `points` with every out-of-bounds coordinate resampled.

    `points` is one (dim,) point or an (m, dim) matrix. In-bounds
    coordinates pass through untouched; violating ones, nan included, are
    redrawn uniformly from [lower, upper] in one draw on the stream's
    `repairs` generator, row by row and ascending within a row. A batch
    draw gives what one scalar draw per coordinate in that order would.
    """
    repaired = np.array(points, dtype=float)
    if repaired.ndim not in (1, 2) or repaired.shape[-1] != space.dim:
        raise ValueError(f"points have shape {repaired.shape}, "
                         f"expected ({space.dim},) or (m, {space.dim})")
    outside = ~((repaired >= space.lower) & (repaired <= space.upper))
    count = int(np.count_nonzero(outside))
    if count:
        repaired[outside] = rng.repairs.uniform(space.lower, space.upper, count)
    return repaired


def error_rate(found: float, true_optimum: float) -> float:
    """Absolute gap between a found objective value and the known optimum."""
    return abs(float(found) - float(true_optimum))
