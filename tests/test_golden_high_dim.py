"""Golden trajectory digest in six dimensions.

test_golden draws its dimensions from 1 to 3 and test_golden_population
stays at 2, so a batched kernel that handled only short rows could pass
both. This digest replays the three any-dimension functions (sphere,
rastrigin, rosenbrock) at dimension 6 with every optimizer, on their usual
bounds, hashed the same way as test_golden and tied to the same libm and
PCG64 stream.
"""

import hashlib
from dataclasses import replace

from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import spec_of
from swarmopt.core import RngStream, SearchSpace, derive_seed
from swarmopt.harness import ABCO_KEYS, abco_preset
from test_golden import _fold, _recording

GOLDEN_HIGH_DIM_DIGEST = "5438d706463c31b41d7fbac3b34692cf2e41f2f3eb3c58409298aa1703e665bf"

DIM = 6
FUNCTIONS = ("sphere", "rastrigin", "rosenbrock")
POPULATION = 30
ITERATIONS = 20
SEEDS_PER_CELL = 2


def high_dim_spec(function_id: str):
    spec = spec_of(function_id)
    space = SearchSpace(DIM, spec.space.lower, spec.space.upper)
    return replace(spec, space=space,
                   known_argmin=spec.known_argmin[:1] * DIM)


def high_dim_digest() -> str:
    sink = hashlib.sha256()
    for function_id in FUNCTIONS:
        spec = high_dim_spec(function_id)
        colony = {ABCO_KEYS[k]: v for k, v in abco_preset(function_id).items()}
        configs = {
            "abco": (run_abco, AbcoConfig(**colony, size=POPULATION, iterations=ITERATIONS)),
            "pso": (run_pso, PsoConfig(size=POPULATION, iterations=ITERATIONS)),
            "aco": (run_acor, AcorConfig(size=POPULATION, iterations=ITERATIONS)),
        }
        for algorithm_id, (runner, cfg) in configs.items():
            for run_index in range(SEEDS_PER_CELL):
                seed = derive_seed(DIM, function_id, algorithm_id, run_index)
                _fold(sink, runner(_recording(spec, sink), cfg, RngStream(seed)))
    return sink.hexdigest()


def test_high_dim_digest_is_unchanged():
    assert high_dim_digest() == GOLDEN_HIGH_DIM_DIGEST
