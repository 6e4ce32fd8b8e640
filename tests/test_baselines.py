"""Swarm and archive baselines: configs, inertia, weights, full runs."""

import numpy as np
import pytest

from swarmopt import baselines
from swarmopt.baselines import (
    AcorConfig,
    PsoConfig,
    inertia_weight,
    merge_archive,
    rank_weights,
    run_acor,
    run_pso,
)
from swarmopt.benchmarks import spec_of
from swarmopt.core import ConfigurationError, OptimizationMode, RngStream, SearchSpace
from oracle import (
    adhoc_objective,
    counting_repairs,
    guide_weights,
    inside,
    per_ant_acor,
    per_particle_pso,
    sphere,
)


# --- configs ---------------------------------------------------------------

def test_pso_config_defaults_match_published_values():
    cfg = PsoConfig()
    assert cfg.local_coefficient == pytest.approx(1.9)
    assert cfg.global_coefficient == pytest.approx(1.9)
    assert cfg.inertia_min == pytest.approx(0.4)
    assert cfg.inertia_max == pytest.approx(0.5)


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(size=0), "size"),
        (dict(iterations=0), "iterations"),
        (dict(local_coefficient=0.0), "local_coefficient"),
        (dict(global_coefficient=-1.0), "global_coefficient"),
        (dict(inertia_min=0.0), "inertia_min"),
        (dict(inertia_max=0.3, inertia_min=0.4), "inertia_max"),
    ],
)
def test_pso_config_rejects(kwargs, needle):
    with pytest.raises(ConfigurationError, match=needle):
        PsoConfig(**kwargs)


def test_acor_config_defaults_and_sample_rule():
    cfg = AcorConfig()
    assert cfg.intent_factor == pytest.approx(0.5)
    assert cfg.deviation_ratio == pytest.approx(1.0)
    assert AcorConfig(size=100).resolved_sample_count == 25
    assert AcorConfig(size=25).resolved_sample_count == 5
    assert AcorConfig(size=40, sample_count=12).resolved_sample_count == 12


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(size=1), "size"),
        (dict(sample_count=0), "sample_count"),
        (dict(intent_factor=0.0), "intent_factor"),
        (dict(deviation_ratio=0.0), "deviation_ratio"),
    ],
)
def test_acor_config_rejects(kwargs, needle):
    with pytest.raises(ConfigurationError, match=needle):
        AcorConfig(**kwargs)


# --- pso -------------------------------------------------------------------

def test_inertia_weight_endpoints():
    cfg = PsoConfig(iterations=100)
    assert inertia_weight(cfg, 0) == pytest.approx(cfg.inertia_max)
    assert inertia_weight(cfg, 99) == pytest.approx(cfg.inertia_min)
    midpoint = inertia_weight(PsoConfig(iterations=3), 1)
    assert midpoint == pytest.approx(0.45)
    assert inertia_weight(PsoConfig(iterations=1), 0) == pytest.approx(0.5)


def test_pso_single_particle_is_a_fixed_point():
    # with one particle the personal and global pulls are both zero, so a
    # zero-velocity start never moves
    space = SearchSpace(2, -5.0, 5.0)
    cfg = PsoConfig(size=1, iterations=25)
    result = run_pso(adhoc_objective(space, sphere), cfg, RngStream(13))
    seeded = (-5.0 + 10.0 * RngStream(13).uniform(size=(1, 2)))[0]
    assert np.array_equal(result.best_position, seeded)
    history = result.diagnostics["best_history"]
    assert all(v == history[0] for v in history)


def test_pso_is_deterministic_and_bounded():
    objective = spec_of("rastrigin")
    cfg = PsoConfig(size=12, iterations=30)
    a = run_pso(objective, cfg, RngStream(55))
    b = run_pso(objective, cfg, RngStream(55))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_position, b.best_position)
    assert inside(objective.space, a.best_position)
    history = a.diagnostics["best_history"]
    assert all(y <= x + 1e-15 for x, y in zip(history, history[1:]))


def test_pso_max_mode_negates_min_mode():
    space = SearchSpace(2, -5.0, 5.0)
    cfg = PsoConfig(size=8, iterations=12)
    low = run_pso(adhoc_objective(space, sphere), cfg, RngStream(7))
    high = run_pso(
        adhoc_objective(space, lambda p: -sphere(p), OptimizationMode.MAX),
        cfg,
        RngStream(7),
    )
    assert high.best_value == pytest.approx(-low.best_value)
    assert np.array_equal(high.best_position, low.best_position)


def test_pso_improves_on_sphere():
    result = run_pso(spec_of("sphere"), PsoConfig(size=20, iterations=60), RngStream(2))
    assert result.best_value < 1e-3
    assert result.evaluations == 20 + 20 * 60


# --- acor ------------------------------------------------------------------

def test_rank_weights_form_a_distribution():
    for size in (2, 5, 25, 100):
        weights = rank_weights(size, 0.5)
        assert weights.shape == (size,)
        assert np.all(weights > 0)
        assert np.all(np.isfinite(weights))
        assert np.sum(weights) == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)  # best rank carries most weight


def test_rank_weights_match_gaussian_kernel():
    size, q = 5, 0.5
    weights = rank_weights(size, q)
    spread = q * size
    raw = np.exp(-np.arange(size) ** 2 / (2.0 * spread**2))
    assert np.allclose(weights, raw / raw.sum())


@pytest.mark.parametrize("intent_factor", [0.01, 0.1, 0.5, 1.0])
def test_rank_weights_equal_the_libm_reference_bit_for_bit(intent_factor):
    for size in range(2, 101):
        expected = np.array(guide_weights(size, intent_factor))
        assert rank_weights(size, intent_factor).tobytes() == expected.tobytes(), size


def test_rank_weights_reject_degenerate_input():
    with pytest.raises(ConfigurationError):
        rank_weights(1, 0.5)
    with pytest.raises(ConfigurationError):
        rank_weights(5, 0.0)


def test_merge_archive_keeps_the_best_sorted():
    rng = np.random.default_rng(3)
    for _ in range(50):
        keep = int(rng.integers(2, 8))
        archive = rng.uniform(-1, 1, size=(keep, 2))
        archive_values = np.sort(rng.uniform(0, 10, size=keep))
        samples = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), 2))
        sample_values = rng.uniform(0, 10, size=samples.shape[0])
        positions, values = merge_archive(
            archive, archive_values, samples, sample_values, keep
        )
        pool = np.concatenate([archive_values, sample_values])
        assert np.array_equal(values, np.sort(pool)[:keep])
        assert positions.shape == (keep, 2)


def test_merge_archive_prefers_incumbents_on_ties():
    archive = np.array([[1.0, 1.0]])
    samples = np.array([[2.0, 2.0]])
    positions, values = merge_archive(
        archive, np.array([5.0]), samples, np.array([5.0]), 1
    )
    assert np.array_equal(positions[0], [1.0, 1.0])
    assert values[0] == 5.0


def test_acor_tiny_box_pins_the_archive():
    # a box a few dozen ulps wide forces near-zero sampling deviations, so
    # the archive cannot drift; the best value lands within one box-width
    # of the corner optimum and stays inside bounds
    space = SearchSpace(2, 0.5, 0.5 + 1e-13)
    cfg = AcorConfig(size=4, iterations=5, sample_count=3)
    result = run_acor(adhoc_objective(space, sphere), cfg, RngStream(1))
    assert inside(space, result.best_position)
    assert result.best_value == pytest.approx(0.5, abs=1e-12)


def test_acor_is_deterministic_and_bounded():
    objective = spec_of("booth")
    cfg = AcorConfig(size=10, iterations=30, sample_count=5)
    a = run_acor(objective, cfg, RngStream(19))
    b = run_acor(objective, cfg, RngStream(19))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_position, b.best_position)
    assert inside(objective.space, a.best_position)
    history = a.diagnostics["best_history"]
    assert all(y <= x + 1e-15 for x, y in zip(history, history[1:]))


def test_acor_max_mode_negates_min_mode():
    space = SearchSpace(2, -5.0, 5.0)
    cfg = AcorConfig(size=6, iterations=10, sample_count=4)
    low = run_acor(adhoc_objective(space, sphere), cfg, RngStream(23))
    high = run_acor(
        adhoc_objective(space, lambda p: -sphere(p), OptimizationMode.MAX),
        cfg,
        RngStream(23),
    )
    assert high.best_value == pytest.approx(-low.best_value)
    assert np.array_equal(high.best_position, low.best_position)


def test_acor_improves_on_sphere():
    result = run_acor(spec_of("sphere"), AcorConfig(size=20, iterations=60), RngStream(4))
    assert result.best_value < 1e-2
    assert result.evaluations == 20 + 5 * 60


def quadratic_case(draw, case):
    """A box, and a quadratic whose centre may lie up to half a box width
    outside it, so a swarm crowds an edge; in a third of the cases it is nan
    past a cut on the first coordinate. Odd cases maximise its negation."""
    dim = int(draw.integers(1, 7))
    lower, upper = float(draw.uniform(-8.0, -0.5)), float(draw.uniform(0.5, 8.0))
    width = upper - lower
    center = draw.uniform(lower - width / 2, upper + width / 2, size=dim)
    cut = float(draw.uniform(lower, upper))
    sign = -1.0 if case % 2 else 1.0

    def quadratic(p):
        return float("nan") if case % 3 == 0 and p[0] > cut else sign * float(
            (p - center) @ (p - center))

    mode = OptimizationMode.MAX if case % 2 else OptimizationMode.MIN
    return SearchSpace(dim, lower, upper), quadratic, mode


def assert_replays(runner, reference, space, evaluate, mode, cfg, seed):
    """Run `runner` and its `reference` on one stream seed each and require the
    same evaluated points and values, best, position, evaluations, history and
    final stream states, bit for bit. Returns what was evaluated, as (m, d + 1)."""
    runs = []
    for run in (runner, reference):
        seen = []

        def recorded(point, seen=seen):
            value = evaluate(point)
            seen.append(np.append(point, value).tobytes())
            return value

        rng = RngStream(seed)
        result = run(adhoc_objective(space, recorded, mode), cfg, rng)
        if run is runner:
            result = (result.best_value, result.best_position, result.evaluations,
                      result.diagnostics["best_history"])
        best, position, evaluations, history = result
        runs.append((seen, np.array([best, *history]).tobytes(), np.asarray(position).tobytes(),
                     evaluations, rng.generator.bit_generator.state,
                     rng.repairs.bit_generator.state))
    assert runs[0] == runs[1]
    assert runs[0][3] == len(runs[0][0])
    return np.frombuffer(b"".join(runs[0][0])).reshape(-1, space.dim + 1)


def test_acor_matches_its_per_ant_reference(monkeypatch):
    repairs, samples = counting_repairs(monkeypatch, baselines), 0
    for case in range(60):
        draw = np.random.default_rng(7_000 + case)
        space, quadratic, mode = quadratic_case(draw, case)
        cfg = AcorConfig(size=int(draw.integers(2, 121)), iterations=int(draw.integers(2, 7)),
                         sample_count=int(draw.integers(1, 31)),
                         intent_factor=float(draw.uniform(0.05, 1.0)),
                         deviation_ratio=float(draw.uniform(0.5, 2.5)))
        seed = int(draw.integers(0, 2**63))
        seen = assert_replays(run_acor, per_ant_acor, space, quadratic, mode, cfg, seed)
        samples += len(seen) - cfg.size
    # both paths run: samples inside the box pass through, the rest are repaired
    assert samples // 3 < sum(repairs) < samples - samples // 3


def test_pso_matches_its_per_particle_reference():
    # Coefficients and inertia are drawn too; sizes run from 1 to 40.
    walls = nans = evaluations = 0
    for case in range(60):
        draw = np.random.default_rng(7_500 + case)
        space, quadratic, mode = quadratic_case(draw, case)
        inertia_min = float(draw.uniform(0.1, 0.9))
        cfg = PsoConfig(size=int(draw.integers(1, 41)), iterations=int(draw.integers(1, 9)),
                        local_coefficient=float(draw.uniform(0.5, 2.5)),
                        global_coefficient=float(draw.uniform(0.5, 2.5)),
                        inertia_min=inertia_min,
                        inertia_max=inertia_min + float(draw.uniform(0.0, 0.5)))
        seed = int(draw.integers(0, 2**63))
        seen = assert_replays(run_pso, per_particle_pso, space, quadratic, mode, cfg, seed)
        points, values = seen[cfg.size:, :-1], seen[cfg.size:, -1]
        walls += int(((points == space.lower) | (points == space.upper)).any(axis=1).sum())
        nans += int(np.isnan(values).sum())
        evaluations += len(values)
    # the swarm hits the box's walls and the nan region
    assert evaluations // 10 < walls < evaluations - evaluations // 10
    assert nans > evaluations // 20


def test_acor_iteration_repairs_row_major_on_the_repair_stream(monkeypatch):
    # Centred on an edge with wide deviations, many samples leave the box.
    repaired_rows = counting_repairs(monkeypatch, baselines)
    for case in range(40):
        draw = np.random.default_rng(9_300 + case)
        dim = int(draw.integers(1, 7))
        space = SearchSpace(dim, -2.0, 3.0)
        cfg = AcorConfig(size=int(draw.integers(2, 60)), iterations=1,
                         sample_count=int(draw.integers(1, 30)),
                         deviation_ratio=float(draw.uniform(1.0, 4.0)))

        def edge(p):
            return float((p - space.upper) @ (p - space.upper))

        assert_replays(run_acor, per_ant_acor, space, edge, OptimizationMode.MIN, cfg, case)
    assert sum(repaired_rows) > 200


@pytest.mark.parametrize("dim", range(1, 7))
def test_deviation_sums_round_like_per_guide_np_sum(dim):
    # Pins numpy's reduction order: pairwise for a 1-D column (blocks of 8
    # up to 128 values, split above), row by row over axis 0 otherwise.
    # Guides are every member once, a few with repeats, more guides than
    # members, and one member picked by every ant.
    draw = np.random.default_rng(dim)
    picks = np.random.default_rng(100 + dim)
    for size in (2, 3, 7, 8, 9, 16, 17, 25, 100, 128, 129, 200):
        scales = 10.0 ** draw.uniform(-4.0, 4.0, size=(size, 1))
        positions = draw.normal(size=(size, dim)) * scales
        positions[draw.integers(0, size, size=size // 3)] = positions[-1]
        if size == 17:  # a nan makes every sum on its coordinate nan
            positions[size // 2, dim - 1] = np.nan
        for guides in (np.arange(size), picks.integers(0, size, size=size // 4 + 1),
                       picks.integers(0, size, size=2 * size + 3), np.full(5, size - 1)):
            expected = [np.sum(np.abs(positions - positions[g]), axis=0) for g in guides]
            np.testing.assert_array_equal(
                baselines._deviation_sums(positions, guides), expected)
