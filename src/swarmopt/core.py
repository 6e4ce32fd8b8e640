"""Shared primitives: search space, population types, seeded randomness.

Everything stochastic in this package draws from an explicitly seeded
RngStream, never from global numpy state, so any run can be replayed bit
for bit. Draws are consumed in a documented fixed order (population
seeding first, then the per-iteration stage order defined by each
optimizer), which is what makes the experiment harness deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import math
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
    "Bacterium",
    "RngStream",
    "OptimizerResult",
    "derive_seed",
    "better_than",
    "quality_key",
    "seed_population",
    "euclidean_distance",
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
    `integer` marks a count, for which a config block must give an integer.
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
    return tuple((f.name, f.metadata["check"], f.default is None)
                 for f in fields(cls) if f.metadata.get("check") is not None)


def check_fields(cls, values: dict, spell=lambda name: name) -> None:
    """Run the checks declared on the fields of config dataclass `cls`.

    `values` maps every field name to its value. Fields are checked in
    declaration order, and the first failure raises ConfigurationError
    naming the field through `spell`, so a caller can report the key the
    user wrote. A None value passes where the field's default is None.
    """
    for name, check, optional in _declared_checks(cls):
        value = values[name]
        if value is None and optional:
            continue
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


def better_than(candidate: float, incumbent: float, mode: OptimizationMode) -> bool:
    """True when `candidate` is a strictly better objective value than `incumbent`.

    This is quality_key's order: any finite value beats nan and ±inf.
    """
    return quality_key(candidate, mode) < quality_key(incumbent, mode)


def quality_key(value, mode: OptimizationMode):
    """Sort key that places better objective values first under ascending order.

    Takes a float or an array. nan and ±inf all map to +inf, so they rank
    after every finite value and tie with each other. Negation is exact in
    IEEE arithmetic, so min-mode sorts on f and max-mode sorts on -f order
    identically when f is negated. This is what keeps the two modes mirror
    images of each other.
    """
    key = value if mode is OptimizationMode.MIN else -value
    if isinstance(key, np.ndarray):
        return np.where(np.isfinite(key), key, np.inf)
    return key if math.isfinite(key) else math.inf


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

    def contains(self, position) -> bool:
        """True when every coordinate lies inside the box."""
        arr = np.asarray(position, dtype=float)
        return bool(np.all(arr >= self.lower) and np.all(arr <= self.upper))


@dataclass
class Bacterium:
    """One population member with its personal-best memory.

    previous_best_solution is the snapshot taken at the last stagnation
    checkpoint; it only changes at checkpoints or when the member is
    created.
    """

    position: np.ndarray
    solution: float
    best_position: np.ndarray
    best_solution: float
    previous_best_solution: float


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
    would break replayability.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

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


def seed_population(space: SearchSpace, size: int, objective, rng: RngStream) -> list[Bacterium]:
    """Scatter `size` members uniformly over the space and evaluate them.

    Positions come from a single (size, dim) uniform draw, so the layout is
    a pure function of the stream state. Personal bests start at the seeded
    position.
    """
    if size < 1:
        raise ConfigurationError(f"population size must be at least 1, got {size}")
    positions = rng.uniform(space.lower, space.upper, size=(size, space.dim))
    population = []
    for row in positions:
        position = row.copy()
        value = float(objective(position))
        population.append(
            Bacterium(
                position=position,
                solution=value,
                best_position=position.copy(),
                best_solution=value,
                previous_best_solution=value,
            )
        )
    return population


def euclidean_distance(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _position_matrix(population) -> np.ndarray:
    if isinstance(population, np.ndarray):
        return population
    if len(population) > 0 and isinstance(population[0], Bacterium):
        return np.array([member.position for member in population])
    return np.asarray(population, dtype=float)


def k_nearest(population, subject_index: int, k: int) -> list[tuple[int, float]]:
    """The k nearest other members, nearest first, as (index, distance) pairs.

    Returns min(k, size - 1) pairs. Distance ties break toward the lower
    index so downstream stages stay deterministic. Accepts a list of
    Bacterium or a plain (size, dim) position array.
    """
    matrix = _position_matrix(population)
    size = matrix.shape[0]
    if size < 2:
        raise EmptyNeighbourhoodError("a population of one has no neighbours")
    if not 0 <= subject_index < size:
        raise ValueError(f"subject_index {subject_index} out of range for size {size}")
    if k < 1:
        raise ConfigurationError(f"neighbour count must be at least 1, got {k}")
    deltas = matrix - matrix[subject_index]
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    # A stable sort keeps equal distances in index order. Ties or a nan row
    # can put the subject past the first k + 1; then the last of them goes.
    nearest = distances.argsort(kind="stable")[: k + 1].tolist()
    if subject_index in nearest:
        nearest.remove(subject_index)
    else:
        nearest.pop()
    return [(index, distances.item(index)) for index in nearest]


def repair_bounds(position, space: SearchSpace, rng: RngStream) -> np.ndarray:
    """Copy of `position` with every out-of-bounds coordinate resampled.

    In-bounds coordinates pass through untouched; violating ones are
    redrawn uniformly from [lower, upper] one at a time in ascending
    coordinate order, which keeps the draw sequence replayable.
    """
    repaired = np.array(position, dtype=float)
    if repaired.shape != (space.dim,):
        raise ValueError(
            f"position has shape {repaired.shape}, expected ({space.dim},)"
        )
    lower, upper = space.lower, space.upper
    for i, value in enumerate(repaired.tolist()):
        if not lower <= value <= upper:
            repaired[i] = rng.uniform(lower, upper)
    return repaired


def error_rate(found: float, true_optimum: float) -> float:
    """Absolute gap between a found objective value and the known optimum."""
    return abs(float(found) - float(true_optimum))
