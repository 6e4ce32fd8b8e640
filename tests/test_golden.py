"""Golden trajectory digest: every evaluated point and value, pinned.

A fixed, fast set of runs is replayed with an evaluator that feeds each
point it is asked about, and the value it returns, into one sha256. The
run's evaluation count, iteration count and early-stop flag join the hash;
the reported best does not, so a fix to how the best is recorded leaves the
digest alone while any change to the search trajectory moves it.

The digest is pinned to this platform's libm (the objectives use math.exp,
math.cos and friends) and to numpy's PCG64 and SeedSequence. A different
libm or a numpy that changes PCG64, SeedSequence or its uniform/normal
transforms can legitimately move it; a refactor of swarmopt must not.
"""

import hashlib

from swarmopt.abco import run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import OptimizationMode, RngStream, derive_seed
from oracle import adhoc_objective, fold, preset_colony, random_case, recording

GOLDEN_DIGEST = "a2caa0136fbca6d0103a97e6ce8b6153078894282d8a4dd16b9d029366540059"

POPULATION = 10
ITERATIONS = 30
SEEDS_PER_CELL = 2
MAX_MODE_CASES = 30


def trajectory_digest() -> str:
    sink = hashlib.sha256()
    for function_id in list_functions():
        spec = spec_of(function_id)
        configs = {
            "abco": (run_abco, preset_colony(function_id, POPULATION, iterations=ITERATIONS)),
            "pso": (run_pso, PsoConfig(size=POPULATION, iterations=ITERATIONS)),
            "aco": (run_acor, AcorConfig(size=POPULATION, iterations=ITERATIONS)),
        }
        for algorithm_id, (runner, cfg) in configs.items():
            for run_index in range(SEEDS_PER_CELL):
                seed = derive_seed(0, function_id, algorithm_id, run_index)
                fold(sink, runner(recording(spec, sink), cfg, RngStream(seed)))

    for case in range(MAX_MODE_CASES):
        space, evaluator, cfg, stream = random_case(9_000 + case)
        objective = adhoc_objective(space, lambda p, f=evaluator: -f(p),
                                    OptimizationMode.MAX)
        fold(sink, run_abco(recording(objective, sink), cfg, stream))
    return sink.hexdigest()


def test_trajectory_digest_is_unchanged():
    assert trajectory_digest() == GOLDEN_DIGEST
