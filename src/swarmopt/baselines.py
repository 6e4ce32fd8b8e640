"""Particle-swarm and continuous ant-colony baselines.

Both optimizers share the colony's RNG, bounds-repair and result types so
that cross-algorithm comparisons differ only in search logic. Randomness is
consumed in a fixed order. PSO: the seeding batch, then per iteration one
(size,) uniform batch scaling the personal pull and one scaling the global
pull, a single scalar per particle shared across coordinates as in the
original bird-flock formulation (per-coordinate scaling converges too
sharply on multimodal landscapes at small populations to match the
reference behaviour this suite is checked against).
ACO: the seeding batch, then per ant one uniform for guide selection,
dim standard normals for the coordinate draws, and one uniform per
out-of-bounds coordinate during repair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    OptimizationMode,
    OptimizerResult,
    RngStream,
    at_least,
    better_than,
    check_fields,
    param,
    positive,
    quality_key,
    repair_bounds,
)

__all__ = [
    "PsoConfig",
    "AcorConfig",
    "inertia_weight",
    "rank_weights",
    "merge_archive",
    "run_pso",
    "run_acor",
]


@dataclass
class PsoConfig:
    """Global-best particle swarm tunables.

    The inertia weight decays linearly from inertia_max at the first
    iteration to inertia_min at the last one.
    """

    size: int = param(25, key="size", check=at_least(1), integer=True)
    iterations: int = param(100, check=at_least(1))
    local_coefficient: float = param(1.9, key="c1", check=positive)
    global_coefficient: float = param(1.9, key="c2", check=positive)
    inertia_min: float = param(0.4, key="w_min", check=positive)
    inertia_max: float = param(0.5, key="w_max", check=at_least("inertia_min"))

    def __post_init__(self):
        check_fields(type(self), vars(self))


@dataclass
class AcorConfig:
    """Continuous ant-colony tunables over a ranked solution archive.

    sample_count defaults by archive size when omitted: 25 for archives of
    100 or more, 5 below that. intent_factor is the selection-pressure q of
    the rank-Gaussian guide weights; deviation_ratio scales mean archive
    distances into per-coordinate sampling deviations.
    """

    size: int = param(25, key="size", check=at_least(2), integer=True)
    iterations: int = param(100, check=at_least(1))
    sample_count: int | None = param(None, key="sample_count", check=at_least(1), integer=True)
    intent_factor: float = param(0.5, key="intent_factor", check=positive)
    deviation_ratio: float = param(1.0, key="zeta", check=positive)

    def __post_init__(self):
        check_fields(type(self), vars(self))

    @property
    def resolved_sample_count(self) -> int:
        if self.sample_count is not None:
            return self.sample_count
        return 25 if self.size >= 100 else 5


def inertia_weight(cfg: PsoConfig, iteration_index: int) -> float:
    """Linear decay; a single-iteration budget stays at inertia_max."""
    if cfg.iterations == 1:
        return cfg.inertia_max
    span = cfg.inertia_max - cfg.inertia_min
    return cfg.inertia_max - span * iteration_index / (cfg.iterations - 1)


def run_pso(objective, cfg: PsoConfig, rng: RngStream) -> OptimizerResult:
    """Canonical global-best PSO with linearly decaying inertia.

    Velocities start at zero. Positions are clamped to the search box and
    the velocity component of any clamped coordinate is zeroed, so the
    swarm cannot ride an overshoot outside the bounds.
    """
    started = time.perf_counter()
    space = objective.space
    evaluate = objective.evaluator
    mode = objective.mode

    positions = space.lower + (space.upper - space.lower) * rng.uniform(
        size=(cfg.size, space.dim)
    )
    values = np.array([float(evaluate(p)) for p in positions])
    velocities = np.zeros_like(positions)
    evaluations = cfg.size

    best_positions = positions.copy()
    best_values = values.copy()
    champion = int(np.argmin(quality_key(best_values, mode)))
    global_value = float(best_values[champion])
    global_position = best_positions[champion].copy()
    history = [global_value]

    for t in range(cfg.iterations):
        w = inertia_weight(cfg, t)
        local_pull = rng.uniform(size=(cfg.size, 1))
        global_pull = rng.uniform(size=(cfg.size, 1))
        velocities = (
            w * velocities
            + cfg.local_coefficient * local_pull * (best_positions - positions)
            + cfg.global_coefficient * global_pull * (global_position - positions)
        )
        positions = positions + velocities
        outside = (positions < space.lower) | (positions > space.upper)
        positions = np.clip(positions, space.lower, space.upper)
        velocities[outside] = 0.0

        values = np.array([float(evaluate(p)) for p in positions])
        evaluations += cfg.size
        improved = quality_key(values, mode) < quality_key(best_values, mode)
        best_values = np.where(improved, values, best_values)
        best_positions[improved] = positions[improved]

        champion = int(np.argmin(quality_key(best_values, mode)))
        if better_than(float(best_values[champion]), global_value, mode):
            global_value = float(best_values[champion])
            global_position = best_positions[champion].copy()
        history.append(global_value)

    return OptimizerResult(
        best_value=global_value,
        best_position=global_position.copy(),
        iterations_executed=cfg.iterations,
        evaluations=evaluations,
        early_stopped=False,
        runtime_seconds=time.perf_counter() - started,
        diagnostics={"best_history": history},
    )


def rank_weights(size: int, intent_factor: float) -> np.ndarray:
    """Normalized Gaussian-by-rank guide weights for an archive of `size`."""
    if size < 2:
        raise ConfigurationError(f"size must be at least 2, got {size}")
    if intent_factor <= 0:
        raise ConfigurationError(f"intent_factor must be positive, got {intent_factor}")
    ranks = np.arange(size, dtype=float)
    spread = intent_factor * size
    raw = np.exp(-(ranks**2) / (2.0 * spread**2)) / (spread * math.sqrt(2.0 * math.pi))
    return raw / raw.sum()


def merge_archive(
    positions: np.ndarray,
    values: np.ndarray,
    sample_positions: np.ndarray,
    sample_values: np.ndarray,
    mode: OptimizationMode,
    keep: int,
):
    """Best `keep` of archive plus samples, archive entries first on ties."""
    all_positions = np.concatenate([positions, sample_positions])
    all_values = np.concatenate([values, sample_values])
    # A stable sort on the keys keeps archive entries first on ties.
    chosen = np.argsort(quality_key(all_values, mode), kind="stable")[:keep]
    return all_positions[chosen], all_values[chosen]


def run_acor(objective, cfg: AcorConfig, rng: RngStream) -> OptimizerResult:
    """Continuous ant-colony optimization over a ranked solution archive.

    Each ant picks a guide by rank-Gaussian weights and samples every
    coordinate from a normal centred on the guide, with deviation equal to
    deviation_ratio times the mean absolute archive distance on that
    coordinate. Samples are repaired into bounds, evaluated, and merged;
    the archive keeps the best `size` entries and stays sorted by quality.
    """
    started = time.perf_counter()
    space = objective.space
    evaluate = objective.evaluator
    mode = objective.mode
    n = cfg.size

    positions = space.lower + (space.upper - space.lower) * rng.uniform(size=(n, space.dim))
    values = np.array([float(evaluate(p)) for p in positions])
    evaluations = n
    order = np.argsort(quality_key(values, mode), kind="stable")
    positions, values = positions[order], values[order]

    weights = rank_weights(n, cfg.intent_factor)
    cumulative = np.cumsum(weights)
    sample_count = cfg.resolved_sample_count
    history = [float(values[0])]

    for _ in range(cfg.iterations):
        sample_positions = np.empty((sample_count, space.dim))
        sample_values = np.empty(sample_count)
        for ant in range(sample_count):
            guide = int(np.searchsorted(cumulative, rng.uniform(), side="right"))
            guide = min(guide, n - 1)
            deviations = (
                cfg.deviation_ratio
                * np.sum(np.abs(positions - positions[guide]), axis=0)
                / (n - 1)
            )
            drawn = positions[guide] + deviations * rng.standard_normal(space.dim)
            drawn = repair_bounds(drawn, space, rng)
            sample_positions[ant] = drawn
            sample_values[ant] = float(evaluate(drawn))
            evaluations += 1
        positions, values = merge_archive(
            positions, values, sample_positions, sample_values, mode, n
        )
        history.append(float(values[0]))

    return OptimizerResult(
        best_value=float(values[0]),
        best_position=positions[0].copy(),
        iterations_executed=cfg.iterations,
        evaluations=evaluations,
        early_stopped=False,
        runtime_seconds=time.perf_counter() - started,
        diagnostics={"best_history": history},
    )
