"""The suite's reference definitions and shared builders, each defined once.

Every exactness test compares swarmopt against a definition here, and no
test module imports another (tests/test_layout.py checks both). Each
definition is written plainly, member by member and in Python floats. The
one exception is the colony's squared norm, squared_norm: the BLAS dot
`v @ v`, which _step_toward and explore take, is defined here once. No
definition calls the swarmopt function it is the reference for:
_step_toward, tumble_step, k_nearest, rank_neighbours, euclidean,
_distance_matrix, repair_bounds and rank_weights are not imported.
"""

import bisect
import itertools
import math
import struct
from dataclasses import fields, replace

import numpy as np

from swarmopt.abco import AbcoConfig, Colony, RunState
from swarmopt.benchmarks import ObjectiveSpec, list_functions, spec_of
from swarmopt.core import OptimizationMode, RngStream, SearchSpace, minimised, seed_population
from swarmopt.harness import abco_preset

MIN, MAX = OptimizationMode.MIN, OptimizationMode.MAX


# --- definitions -------------------------------------------------------------

def quality_key(value: float) -> float:
    """A value if finite, else +inf: nan and ±inf rank after every finite
    value and tie with each other."""
    return value if math.isfinite(value) else math.inf


def distances(positions, subject: int) -> list[float]:
    """Distances from member `subject` to every member: the squared
    coordinate differences added in coordinate order, then math.sqrt."""
    points = np.asarray(positions, dtype=float).tolist()
    row = []
    for point in points:
        total = 0.0
        for q, p in zip(point, points[subject]):
            total += (q - p) * (q - p)
        row.append(math.sqrt(total))
    return row


def neighbour_order(row, subject: int, k: int) -> list[int]:
    """The first min(k, n - 1) members other than `subject` by (nan last,
    distance, index), from the subject's (n,) distance row."""
    row = np.asarray(row, dtype=float).tolist()
    others = [i for i in range(len(row)) if i != subject]
    others.sort(key=lambda i: (math.isnan(row[i]), 0.0 if math.isnan(row[i]) else row[i], i))
    return others[:k]


def neighbours(positions, subject: int, k: int) -> list[tuple[int, float]]:
    """The k nearest other members as (index, distance), in neighbour_order."""
    row = distances(positions, subject)
    return [(i, row[i]) for i in neighbour_order(row, subject, k)]


def squared_norm(vector) -> float:
    """The colony's squared norm of a (d,) vector: the BLAS dot `v @ v`."""
    vector = np.array(vector, dtype=float)
    return float(vector @ vector)


def move_step(current, target, step_size: float) -> list[float]:
    """Where a member at `current` lands stepping toward `target`: the target
    once within reach, else current + (step_size / d) * offset per
    coordinate, with d the square root of the offset's squared_norm."""
    current = np.asarray(current, dtype=float).tolist()
    target = np.asarray(target, dtype=float).tolist()
    offset = [t - c for c, t in zip(current, target)]
    distance = math.sqrt(squared_norm(offset))
    if distance <= step_size:
        return target
    return [c + (step_size / distance) * o for c, o in zip(current, offset)]


def repaired(point, space: SearchSpace, repairs) -> list[float]:
    """`point` with each coordinate outside the box, nan included, replaced
    by the next scalar repairs.uniform(lower, upper), ascending."""
    return [x if space.lower <= x <= space.upper else repairs.uniform(space.lower, space.upper)
            for x in np.asarray(point, dtype=float).tolist()]


def repaired_row_major(rows, space: SearchSpace, repairs) -> np.ndarray:
    """`rows` repaired one row after another."""
    rows = np.asarray(rows, dtype=float)
    fixed = [repaired(row, space, repairs) for row in rows]
    return np.array(fixed, dtype=float).reshape(rows.shape)


def tumble_round(positions, step_size: float, space: SearchSpace, rng: RngStream) -> np.ndarray:
    """One explore round's landings, member by member: standard_normal(dim),
    redrawn while its squared_norm is zero, then position + (step_size /
    norm) * direction, then repaired_row_major on the repair stream."""
    landings = []
    for position in np.asarray(positions, dtype=float).tolist():
        direction = rng.standard_normal(space.dim)
        while squared_norm(direction) == 0.0:
            direction = rng.standard_normal(space.dim)
        scale = step_size / math.sqrt(squared_norm(direction))
        landings.append([p + scale * d for p, d in zip(position, direction.tolist())])
    return repaired_row_major(landings, space, rng.repairs)


def survivors(values, count: int) -> list[int]:
    """The sort oracle's prefix: the `count` lowest quality keys, ties in index order."""
    values = np.asarray(values, dtype=float).tolist()
    return sorted(range(len(values)), key=lambda i: (quality_key(values[i]), i))[:count]


# --- member-by-member stages and runs -------------------------------------------

def _bump(diagnostics, name):
    diagnostics[name] = diagnostics.get(name, 0) + 1


def reference_explore(state, cfg, objective, space, rng):
    """The explore pass member by member after each tumble_round: evaluate,
    roll back a non-finite value, keep a strictly lower quality key."""
    colony = state.population
    for _ in range(cfg.explore_steps * cfg.tumble_steps):
        for index, moved in enumerate(tumble_round(colony.positions, cfg.step_size, space, rng)):
            value = float(objective(moved))
            state.evaluations += 1
            if not math.isfinite(value):
                _bump(state.diagnostics, "rolled_back_moves")
                continue
            colony.positions[index] = moved
            colony.values[index] = value
            if value < quality_key(float(colony.best_values[index])):
                colony.best_values[index] = value
                colony.best_positions[index] = moved
    return state


def reference_exploit(state, cfg, objective, space, rng):
    """The exploit pass member by member: the neighbours of the current
    positions, the first strictly lower quality key as target, move_step,
    repaired, then evaluated."""
    colony = state.population
    for _ in range(cfg.exploit_steps):
        for index in range(len(colony)):
            target_index, target_key = None, quality_key(float(colony.best_values[index]))
            for neighbour, _ in neighbours(colony.positions, index, cfg.neighbor_count):
                if quality_key(float(colony.best_values[neighbour])) < target_key:
                    target_index = neighbour
                    target_key = quality_key(float(colony.best_values[neighbour]))
            if target_index is None:
                continue
            moved = repaired(move_step(colony.positions[index], colony.best_positions[target_index],
                                       cfg.step_size), space, rng.repairs)
            value = float(objective(moved))
            state.evaluations += 1
            if not math.isfinite(value):
                _bump(state.diagnostics, "rolled_back_moves")
                continue
            colony.positions[index] = moved
            colony.values[index] = value
            _bump(state.diagnostics, "exploit_moves")
            if value < quality_key(float(colony.best_values[index])):
                colony.best_values[index] = value
                colony.best_positions[index] = moved
    return state


def reference_reproduce(state, cfg, objective, space, rng):
    """Reproduction building and evaluating one replacement row at a time,
    and assembling the new colony one member record at a time."""
    colony = state.population
    kept = survivors(colony.values, cfg.survivor_count)
    retained, needed = len(kept), cfg.size - len(kept)
    born = []
    if needed > 0 and retained == 1:
        born = [[float(x) for x in row]
                for row in rng.generator.uniform(space.lower, space.upper, (needed, space.dim))]
    elif needed > 0:
        count = min(cfg.neighbor_count, retained - 1)
        total = count * (count + 1) / 2.0
        for i in range(needed):
            guide = i % retained
            start = min(max(guide - (count + 1) // 2, 0), retained - 1 - count)
            chosen = [j for j in range(start, start + count + 1) if j != guide]
            position = [0.0] * space.dim
            for rank, j in enumerate(chosen, start=1):
                weight = (count - rank + 1) / total
                position = [p + weight * x
                            for p, x in zip(position, colony.positions[kept[j]].tolist())]
            born.append(position)
    state.evaluations += needed
    records = [(colony.positions[i], colony.values[i], colony.best_positions[i],
                colony.best_values[i], colony.snapshot[i]) for i in kept]
    for position in born:
        value = float(objective(np.array(position)))
        records.append((position, value, position, value, value))
    state.population = Colony(*(np.array(column, dtype=float) for column in zip(*records)))
    return state


def guide_weights(size: int, intent_factor: float) -> list[float]:
    """ACO's guide weight per archive rank: libm's exp of the rank's
    Gaussian exponent over spread * sqrt(2 pi), each entry then over the
    entries' np.sum."""
    spread = intent_factor * size
    raw = [math.exp(-(rank * rank) / (2.0 * spread**2)) / (spread * math.sqrt(2.0 * math.pi))
           for rank in map(float, range(size))]
    total = float(np.sum(raw))
    return [value / total for value in raw]


def per_ant_acor(objective, cfg, rng):
    """run_acor's loop one ant at a time: the iteration's guide uniforms
    first, then per ant a bisected guide, a per-guide np.sum of archive
    distances, its normals and the repaired sample; the archive keeps the
    survivors of itself followed by the samples."""
    space, n = objective.space, cfg.size
    evaluate, sign = minimised(objective)
    positions = space.lower + (space.upper - space.lower) * rng.generator.random((n, space.dim))
    values = np.array([float(evaluate(p)) for p in positions])
    order = survivors(values, n)
    positions, values = positions[order], values[order]
    cumulative = np.cumsum(guide_weights(n, cfg.intent_factor)).tolist()
    history = [sign * float(values[0])]
    evaluations = n
    for _ in range(cfg.iterations):
        samples, sample_values = [], []
        for uniform in rng.generator.random(cfg.resolved_sample_count).tolist():
            guide = min(bisect.bisect_right(cumulative, uniform), n - 1)
            deviations = (cfg.deviation_ratio
                          * np.sum(np.abs(positions - positions[guide]), axis=0) / (n - 1))
            drawn = positions[guide] + deviations * rng.standard_normal(space.dim)
            samples.append(repaired(drawn, space, rng.repairs))
            sample_values.append(float(evaluate(np.array(samples[-1]))))
            evaluations += 1
        positions = np.concatenate([positions, samples])
        values = np.concatenate([values, sample_values])
        order = survivors(values, n)
        positions, values = positions[order], values[order]
        history.append(sign * float(values[0]))
    return sign * values[0], positions[0], evaluations, history


def per_particle_pso(objective, cfg, rng):
    """run_pso one particle and coordinate at a time, in Python floats.

    The seeding batch is one (size, dim) uniform draw evaluated row by row;
    each iteration draws random(2 * size), the personal pulls then the
    global ones. Per coordinate v = v * w, then v + (b - x) * (c1 * u1),
    then v + (g - x) * (c2 * u2); the landing is clamped into the box with
    its velocity zeroed. A personal best and then the champion change only
    on a strictly lower quality key.
    """
    space, n = objective.space, cfg.size
    evaluate, sign = minimised(objective)
    positions = rng.generator.uniform(space.lower, space.upper, (n, space.dim)).tolist()
    values = [float(evaluate(np.array(x))) for x in positions]
    velocities = [[0.0] * space.dim for _ in range(n)]
    bests, best_values = [list(x) for x in positions], list(values)
    champion = min(range(n), key=lambda i: quality_key(values[i]))
    best, best_value = list(positions[champion]), values[champion]
    history, evaluations = [sign * best_value], n
    span = cfg.inertia_max - cfg.inertia_min
    for t in range(cfg.iterations):
        w = cfg.inertia_max
        if cfg.iterations > 1:
            w = cfg.inertia_max - span * t / (cfg.iterations - 1)
        pulls = rng.generator.random(2 * n).tolist()
        for i, (x, v, b) in enumerate(zip(positions, velocities, bests)):
            local, social = cfg.local_coefficient * pulls[i], cfg.global_coefficient * pulls[n + i]
            for c in range(space.dim):
                v[c] = v[c] * w
                v[c] = v[c] + (b[c] - x[c]) * local
                v[c] = v[c] + (best[c] - x[c]) * social
                x[c] = x[c] + v[c]
                if x[c] < space.lower:
                    x[c], v[c] = space.lower, 0.0
                elif x[c] > space.upper:
                    x[c], v[c] = space.upper, 0.0
        values = [float(evaluate(np.array(x))) for x in positions]
        evaluations += n
        for i, value in enumerate(values):
            if quality_key(value) < quality_key(best_values[i]):
                bests[i], best_values[i] = list(positions[i]), value
        champion = min(range(n), key=lambda i: quality_key(best_values[i]))
        if quality_key(best_values[champion]) < quality_key(best_value):
            best, best_value = list(bests[champion]), best_values[champion]
        history.append(sign * best_value)
    return sign * best_value, np.array(best), evaluations, history


# --- builders ------------------------------------------------------------------

def adhoc_objective(space: SearchSpace, evaluator, mode=MIN) -> ObjectiveSpec:
    return ObjectiveSpec(name="adhoc", space=space, known_minimum=0.0,
                         known_argmin=(0.0,) * space.dim, evaluator=evaluator, mode=mode)


def sphere(p):
    return float(np.dot(p, p))


def inside(space, points):
    """Whether every coordinate lies in the box, over the last axis: one
    bool for a (dim,) point, one per row of a matrix. nan is outside."""
    points = np.asarray(points, dtype=float)
    return ((points >= space.lower) & (points <= space.upper)).all(axis=-1)


def counting_repairs(monkeypatch, module) -> list[int]:
    """Wrap module.repair_bounds to append, per call, how many of the rows
    handed to it lie outside the box; returns that list."""
    counts, repair = [], module.repair_bounds

    def counted(points, space, rng):
        counts.append(int(np.count_nonzero(~inside(space, points))))
        return repair(points, space, rng)

    monkeypatch.setattr(module, "repair_bounds", counted)
    return counts


def with_column_form(evaluator):
    """`evaluator` carrying a column form built from its row calls, so
    explore_stage chains every round left in one call."""
    def point_form(point):
        return evaluator(point)

    point_form.batch = lambda rows: np.array([float(evaluator(row)) for row in rows])
    return point_form


def member_rows(colony: Colony) -> list[bytes]:
    """Each member's whole record (position, value, personal best and
    snapshot) as bytes, so a member can be followed through a reorder."""
    arrays = vars(colony).values()
    return [b"".join(array[i].tobytes() for array in arrays) for i in range(len(colony))]


def snapshot(state, rng):
    """Everything a stage may change: the colony, counts, diagnostics and both streams."""
    colony = state.population
    return (
        colony.positions.tobytes(),
        colony.best_positions.tobytes(),
        np.column_stack((colony.values, colony.best_values, colony.snapshot)).tobytes(),
        state.evaluations,
        state.diagnostics,
        rng.generator.bit_generator.state,
        rng.repairs.bit_generator.state,
    )


def colony_at(*members) -> Colony:
    """A colony of (x, y, value) members whose memory is where they stand."""
    rows = np.array(members, dtype=float).reshape(-1, 3)
    return Colony.fresh(rows[:, :2].copy(), rows[:, 2].copy())


def seeded(space, size, objective, rng) -> Colony:
    return Colony.fresh(*seed_population(space, size, objective, rng))


def fresh_state(colony: Colony) -> RunState:
    """A run at iteration 1 over `colony`, its best personal best the champion."""
    best = int(np.argmin([quality_key(v) for v in colony.best_values.tolist()]))
    return RunState(population=colony, iteration=1,
                    global_best_value=float(colony.best_values[best]),
                    global_best_position=colony.best_positions[best].copy())


def neighbour_layouts(size, dim, rng):
    """Uniform rows, rows repeating a few points, and integer-grid rows."""
    uniform = rng.uniform(-5.0, 5.0, (size, dim))
    repeated = uniform[rng.integers(0, max(1, size // 3), size)]
    grid = rng.integers(-2, 3, (size, dim)).astype(float)
    return uniform, repeated, grid


def random_objective(case_seed: int):
    """One randomized colony setup: objective, config, stream.

    The evaluator is a shifted quadratic with a linear tilt, smooth and
    free of ties, and the direction is drawn too. step_size may exceed the
    box width to stress repair.
    """
    draw = np.random.default_rng(case_seed)
    lower = float(draw.uniform(-8.0, -0.5))
    upper = float(draw.uniform(0.5, 8.0))
    dim = int(draw.integers(1, 4))
    space = SearchSpace(dim, lower, upper)
    center = draw.uniform(lower, upper, size=dim)
    slope = draw.uniform(-1.0, 1.0, size=dim)

    def evaluator(point):
        offset = np.asarray(point, dtype=float) - center
        return float(offset @ offset + slope @ offset)

    steps = dict(
        size=int(draw.integers(2, 9)),
        iterations=int(draw.integers(4, 12)),
        step_size=float(draw.uniform(0.1, 1.5 * (upper - lower))),
        explore_steps=int(draw.integers(1, 3)),
        exploit_steps=int(draw.integers(1, 3)),
        tumble_steps=int(draw.integers(1, 3)),
    )
    # The draw of a parameter since removed, kept so that every later draw,
    # and the cases built from them, stay where they were.
    draw.uniform(0.0, 0.5)
    cfg = AbcoConfig(
        **steps,
        survivor_fraction=0.05 if case_seed % 5 == 0 else float(draw.uniform(0.2, 1.0)),
        neighbor_count=int(draw.integers(1, 6)),
        generation_gap=float(draw.uniform(10.0, 60.0)),
        unchanged_threshold=float(draw.uniform(40.0, 100.0)),
    )
    mode = MIN if draw.uniform() < 0.5 else MAX
    stream = RngStream(int(draw.integers(0, 2**63)))
    return adhoc_objective(space, evaluator, mode), cfg, stream


def random_case(case_seed: int):
    """random_objective's case as space, evaluator, config and stream.

    The evaluator is the objective's own; callers set the direction.
    """
    objective, cfg, stream = random_objective(case_seed)
    return objective.space, objective.evaluator, cfg, stream


def stage_case(case_seed: int):
    """random_objective's case as run_abco hands it to the colony stages:
    space, the evaluator from minimised, config and stream."""
    objective, cfg, stream = random_objective(case_seed)
    return objective.space, minimised(objective)[0], cfg, stream


def preset_colony(function_id: str, size: int, **overrides) -> AbcoConfig:
    """The bundled per-function colony preset at `size`, with field overrides."""
    names = {f.metadata["key"]: f.name for f in fields(AbcoConfig) if "key" in f.metadata}
    preset = {names[key]: value for key, value in abco_preset(function_id).items()}
    return AbcoConfig(**{**preset, "size": size, **overrides})


def resized_spec(function_id: str, dim: int) -> ObjectiveSpec:
    """A registry function that takes any dimension, in `dim` dimensions."""
    spec = spec_of(function_id)
    space = SearchSpace(dim, spec.space.lower, spec.space.upper)
    return replace(spec, space=space, known_argmin=spec.known_argmin[:1] * dim)


COLUMN_CASES = (
    [(name, 2) for name in list_functions()]
    + [(name, dim) for name in ("rastrigin", "sphere") for dim in (1, 3, 4, 5, 6)]
    + [("rosenbrock", dim) for dim in (3, 4, 5, 6)]
)


def probe_rows(name: str, dim: int, count: int = 20_000) -> np.ndarray:
    """Uniform rows over the box widened by a quarter width on each side,
    then the argmin, the origin and the corners of both boxes."""
    space = spec_of(name).space
    quarter = (space.upper - space.lower) / 4.0
    wide = (space.lower - quarter, space.upper + quarter)
    uniform = RngStream(dim * 1000 + len(name)).uniform(*wide, size=(count, dim))
    special = [np.resize(spec_of(name).known_argmin, dim), np.zeros(dim)]
    special += [corner for bounds in ((space.lower, space.upper), wide)
                for corner in itertools.product(bounds, repeat=dim)]
    return np.vstack([uniform, np.array(special, dtype=float)])


def recording(spec, sink):
    """`spec` whose evaluator feeds each point and the value it returns into sha256 `sink`."""
    inner = spec.evaluator

    def evaluator(point):
        value = inner(point)
        sink.update(np.asarray(point, dtype=float).tobytes())
        sink.update(struct.pack("<d", float(value)))
        return value

    return replace(spec, evaluator=evaluator)


def fold(sink, result):
    """Fold a run's evaluations, iterations and early-stop flag into `sink`."""
    sink.update(struct.pack(
        "<qq?", result.evaluations, result.iterations_executed, result.early_stopped))
