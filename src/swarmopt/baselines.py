"""Particle-swarm and continuous ant-colony baselines.

Both optimizers share the colony's RNG, bounds-repair and result types so
that cross-algorithm comparisons differ only in search logic. Randomness is
consumed in a fixed order. PSO: the seeding batch, then per iteration one
(size,) uniform batch scaling the personal pull and one scaling the global
pull, drawn in that stream order as one (2, size, 1) batch. Each is a
single scalar per particle shared across coordinates, as in the original
bird-flock formulation (per-coordinate scaling converges too sharply on
multimodal landscapes at small populations to match the reference
behaviour this suite is checked against).
ACO: the seeding batch, then per iteration one (sample_count,) uniform
batch for the ants' guides and one (sample_count, dim) normal batch. The
archive is fixed within an iteration, as in ACO_R, and deviations are
computed only for the guides the ants picked, from one (archive, coord,
guide) array. Summing its archive axis adds rows in order, as a per-guide
np.sum(axis=0) does at dim >= 2; at dim 1, where numpy sums pairwise,
each guide's distances are summed over one contiguous row. The samples
are repaired in one core.repair_bounds call, which redraws only the
coordinates outside the box, in ant order. Each is a search under
core.drive, which seeds it, minimises the objective, keeps the champion
and history and reports the objective's own values; each evaluates an
iteration's points in one core.evaluate_rows call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    OptimizerResult,
    RngStream,
    at_least,
    check_fields,
    drive,
    evaluate_rows,
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
    swarm cannot ride an overshoot outside the bounds. Velocities and
    personal bests are updated in arrays the run allocates once; each
    iteration's positions are a new array, since the evaluator may keep it.
    """
    space = objective.space

    def search(run, evaluate, positions, values):
        velocities, pull = np.zeros_like(positions), np.empty_like(positions)
        best_positions, best_values = positions.copy(), values.copy()
        best_keys = quality_key(best_values)
        for t in range(cfg.iterations):
            w = inertia_weight(cfg, t)
            # Two (size, 1) uniform batches: random() is uniform(0, 1) without its 0 + 1 * u.
            local_pull, global_pull = rng.generator.random((2, cfg.size, 1))
            # The velocity update in place, each product and sum as written out:
            # w * v + (c1 * local_pull) * (best - x) + (c2 * global_pull) * (g - x).
            velocities *= w
            np.subtract(best_positions, positions, out=pull)
            pull *= cfg.local_coefficient * local_pull
            velocities += pull
            np.subtract(run.global_best_position, positions, out=pull)
            pull *= cfg.global_coefficient * global_pull
            velocities += pull
            # A fresh array: the evaluator may keep the one it was handed.
            positions = positions + velocities
            outside = (positions < space.lower) | (positions > space.upper)
            np.maximum(positions, space.lower, out=positions)
            np.minimum(positions, space.upper, out=positions)
            velocities[outside] = 0.0

            values = evaluate_rows(evaluate, positions)
            run.evaluations += cfg.size
            keys = quality_key(values)
            improved = keys < best_keys
            np.copyto(best_values, values, where=improved)
            np.copyto(best_keys, keys, where=improved)
            np.copyto(best_positions, positions, where=improved[:, None])
            champion = int(best_keys.argmin())
            run.offer(best_values.item(champion), best_positions[champion])
            yield

    return drive(objective, cfg.size, rng, search)


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
    keep: int,
):
    """Lowest `keep` of archive plus samples, archive entries first on ties."""
    all_positions = np.concatenate([positions, sample_positions])
    all_values = np.concatenate([values, sample_values])
    # A stable sort on the keys keeps archive entries first on ties.
    chosen = np.argsort(quality_key(all_values), kind="stable")[:keep]
    return all_positions[chosen], all_values[chosen]


def _deviation_sums(positions: np.ndarray, guides: np.ndarray) -> np.ndarray:
    """Row i is np.sum(np.abs(positions - positions[guides[i]]), axis=0), bit for bit."""
    if positions.shape[1] == 1:
        column = positions[:, 0]
        return np.abs(column[guides][:, None] - column[None, :]).sum(axis=1)[:, None]
    return np.abs(positions[:, :, None] - positions[guides].T.copy()[None]).sum(axis=0).T


def run_acor(objective, cfg: AcorConfig, rng: RngStream) -> OptimizerResult:
    """Continuous ant-colony optimization over a ranked solution archive.

    Each ant picks a guide by rank-Gaussian weights and samples every
    coordinate from a normal centred on the guide, with deviation equal to
    deviation_ratio times the mean absolute archive distance on that
    coordinate. Samples are repaired into bounds, evaluated, and merged;
    the archive keeps the best `size` entries and stays sorted by quality.
    """
    space, n = objective.space, cfg.size

    def search(run, evaluate, positions, values):
        order = np.argsort(quality_key(values), kind="stable")
        positions, values = positions[order], values[order]
        cumulative = np.cumsum(rank_weights(n, cfg.intent_factor))
        sample_count = cfg.resolved_sample_count
        for _ in range(cfg.iterations):
            picks = rng.generator.random(sample_count)
            guides = np.minimum(np.searchsorted(cumulative, picks, side="right"), n - 1)
            deviations = cfg.deviation_ratio * _deviation_sums(positions, guides) / (n - 1)
            normals = rng.generator.standard_normal((sample_count, space.dim))
            samples = repair_bounds(positions[guides] + deviations * normals, space, rng)
            sample_values = evaluate_rows(evaluate, samples)
            run.evaluations += sample_count
            positions, values = merge_archive(positions, values, samples, sample_values, n)
            # Ties keep the archive entry first, so the head is the champion.
            run.offer(values.item(0), positions[0])
            yield

    return drive(objective, n, rng, search)
