"""Golden PSO digest: the search stream alone.

PSO clamps into the box and never calls repair_bounds, so every draw it
makes comes from the search stream, RngStream.generator. This digest
replays PSO on all ten functions at populations 10 and 100, then sphere
and rastrigin at every dimension from 1 to 6 and rosenbrock from 2 to 6,
two derived seeds each. Any change to how the search stream is seeded or
consumed moves it; a change confined to bounds repair must not. It hashes
the same things as test_golden and is tied to the same libm and PCG64
stream.
"""

import hashlib

from swarmopt.baselines import PsoConfig, run_pso
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import RngStream, derive_seed
from oracle import fold, recording, resized_spec

GOLDEN_PSO_DIGEST = "b82d413415059ff9bf23ecac4a929ccccb1050948fc53e408eea248f33787f52"

POPULATIONS = (10, 100)
ITERATIONS = 20
SEEDS_PER_CELL = 2
RESIZED = {"sphere": range(1, 7), "rastrigin": range(1, 7), "rosenbrock": range(2, 7)}


def pso_digest() -> str:
    cases = [(spec_of(function_id), size)
             for size in POPULATIONS for function_id in list_functions()]
    cases += [(resized_spec(function_id, dim), POPULATIONS[0])
              for function_id, dims in RESIZED.items() for dim in dims]
    sink = hashlib.sha256()
    for spec, size in cases:
        cfg = PsoConfig(size=size, iterations=ITERATIONS)
        for run_index in range(SEEDS_PER_CELL):
            seed = derive_seed(size * spec.space.dim, spec.name, "pso", run_index)
            fold(sink, run_pso(recording(spec, sink), cfg, RngStream(seed)))
    return sink.hexdigest()


def test_pso_digest_is_unchanged():
    assert pso_digest() == GOLDEN_PSO_DIGEST
