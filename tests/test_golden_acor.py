"""Golden ACO digest at the benchmark's population of 100.

test_golden runs ACO at population 10 with five ants an iteration. This
digest replays ACO at population 100, which resolves sample_count to 25
ants an iteration, the shape the bench times: all ten functions at their
own dimension, then sphere and rastrigin at dimensions 1 and 3 and
rosenbrock at dimension 3, so both ways of summing archive deviations (one
coordinate, and several) are pinned. It hashes the same things as
test_golden and is tied to the same libm and PCG64 stream.
"""

import hashlib

from swarmopt.baselines import AcorConfig, run_acor
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import RngStream, derive_seed
from oracle import fold, recording, resized_spec

GOLDEN_ACOR_DIGEST = "115c8845d6adea6c0c104bbd17b6fb1f6c10b735a998d88de3364729ba515289"

POPULATION = 100
ITERATIONS = 20
SEEDS_PER_CELL = 2
RESIZED = (("sphere", 1), ("rastrigin", 1), ("sphere", 3), ("rastrigin", 3),
           ("rosenbrock", 3))


def acor_digest() -> str:
    cfg = AcorConfig(size=POPULATION, iterations=ITERATIONS)
    assert cfg.resolved_sample_count == 25
    cases = [spec_of(function_id) for function_id in list_functions()]
    cases += [resized_spec(function_id, dim) for function_id, dim in RESIZED]
    sink = hashlib.sha256()
    for spec in cases:
        for run_index in range(SEEDS_PER_CELL):
            seed = derive_seed(spec.space.dim, spec.name, "aco", run_index)
            fold(sink, run_acor(recording(spec, sink), cfg, RngStream(seed)))
    return sink.hexdigest()


def test_acor_digest_is_unchanged():
    assert acor_digest() == GOLDEN_ACOR_DIGEST
