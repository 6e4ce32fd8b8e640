"""Golden trajectory digest in six dimensions.

test_golden draws its dimensions from 1 to 3 and test_golden_population
stays at 2, so a batched kernel that handled only short rows could pass
both. This digest replays the three any-dimension functions (sphere,
rastrigin, rosenbrock) at dimension 6 with every optimizer, on their usual
bounds, hashed the same way as test_golden and tied to the same libm and
PCG64 stream.
"""

import hashlib

from swarmopt.abco import run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.core import RngStream, derive_seed
from oracle import fold, preset_colony, recording, resized_spec

GOLDEN_HIGH_DIM_DIGEST = "5438d706463c31b41d7fbac3b34692cf2e41f2f3eb3c58409298aa1703e665bf"

DIM = 6
FUNCTIONS = ("sphere", "rastrigin", "rosenbrock")
POPULATION = 30
ITERATIONS = 20
SEEDS_PER_CELL = 2


def high_dim_digest() -> str:
    sink = hashlib.sha256()
    for function_id in FUNCTIONS:
        spec = resized_spec(function_id, DIM)
        configs = {
            "abco": (run_abco, preset_colony(function_id, POPULATION, iterations=ITERATIONS)),
            "pso": (run_pso, PsoConfig(size=POPULATION, iterations=ITERATIONS)),
            "aco": (run_acor, AcorConfig(size=POPULATION, iterations=ITERATIONS)),
        }
        for algorithm_id, (runner, cfg) in configs.items():
            for run_index in range(SEEDS_PER_CELL):
                seed = derive_seed(DIM, function_id, algorithm_id, run_index)
                fold(sink, runner(recording(spec, sink), cfg, RngStream(seed)))
    return sink.hexdigest()


def test_high_dim_digest_is_unchanged():
    assert high_dim_digest() == GOLDEN_HIGH_DIM_DIGEST
