"""Golden trajectory digest: every evaluated point and value, pinned.

A fixed, fast set of runs is replayed with an evaluator that feeds each
point it is asked about, and the value it returns, into one sha256. The
run's evaluation count, iteration count and early-stop flag join the hash;
the reported best does not, so a fix to how the best is recorded leaves the
digest alone while any change to the search trajectory moves it.

The digest is pinned to this platform's libm (the objectives use math.exp,
math.cos and friends) and to numpy's PCG64 stream. A different libm or a
numpy that changes PCG64 or its uniform/normal transforms can legitimately
move it; a refactor of swarmopt must not.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np

from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import OptimizationMode, RngStream, derive_seed
from swarmopt.harness import ABCO_KEYS, abco_preset
from test_acceptance import adhoc_objective, random_case

GOLDEN_DIGEST = "020b148285f4a0a560b9b0b82e3c7ed3e5d090840c99b4a8f2edd39b03f589b9"

POPULATION = 10
ITERATIONS = 30
SEEDS_PER_CELL = 2
MAX_MODE_CASES = 30


def _recording(spec, sink):
    inner = spec.evaluator

    def evaluator(point):
        value = inner(point)
        sink.update(np.asarray(point, dtype=float).tobytes())
        sink.update(struct.pack("<d", float(value)))
        return value

    return replace(spec, evaluator=evaluator)


def _fold(sink, result):
    sink.update(struct.pack(
        "<qq?", result.evaluations, result.iterations_executed, result.early_stopped))


def trajectory_digest() -> str:
    sink = hashlib.sha256()
    for function_id in list_functions():
        spec = spec_of(function_id)
        colony = {ABCO_KEYS[k]: v for k, v in abco_preset(function_id).items()}
        configs = {
            "abco": (run_abco, AbcoConfig(**colony, size=POPULATION, iterations=ITERATIONS)),
            "pso": (run_pso, PsoConfig(size=POPULATION, iterations=ITERATIONS)),
            "aco": (run_acor, AcorConfig(size=POPULATION, iterations=ITERATIONS)),
        }
        for algorithm_id, (runner, cfg) in configs.items():
            for run_index in range(SEEDS_PER_CELL):
                seed = derive_seed(0, function_id, algorithm_id, run_index)
                _fold(sink, runner(_recording(spec, sink), cfg, RngStream(seed)))

    for case in range(MAX_MODE_CASES):
        space, evaluator, cfg, stream = random_case(9_000 + case)
        objective = adhoc_objective(space, lambda p, f=evaluator: -f(p),
                                    OptimizationMode.MAX)
        cfg = replace(cfg, mode=OptimizationMode.MAX)
        _fold(sink, run_abco(_recording(objective, sink), cfg, stream))
    return sink.hexdigest()


def test_trajectory_digest_is_unchanged():
    assert trajectory_digest() == GOLDEN_DIGEST
