"""Golden colony digest at the benchmark's population of 100.

test_golden pins trajectories at population 10, where a neighbour query
sorts only nine others. This digest replays every bundled colony preset at
population 100, so the large-population neighbour query, exploit moves and
reproduction windows are pinned too. It hashes the same things as
test_golden (every evaluated point and value, then evaluations, iterations
and the early-stop flag) and is tied to the same libm and PCG64 stream.
"""

import hashlib

from swarmopt.abco import run_abco
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import RngStream, derive_seed
from oracle import fold, preset_colony, recording

GOLDEN_POPULATION_DIGEST = "13d5fa384f2241198e6fd95b4d4bbf3ae9af4f073a3c719a70fea5e64537a058"

POPULATION = 100
ITERATIONS = 10


def population_digest() -> str:
    sink = hashlib.sha256()
    for function_id in list_functions():
        cfg = preset_colony(function_id, POPULATION, iterations=ITERATIONS)
        seed = derive_seed(0, function_id, "abco", 0)
        fold(sink, run_abco(recording(spec_of(function_id), sink), cfg, RngStream(seed)))
    return sink.hexdigest()


def test_population_digest_is_unchanged():
    assert population_digest() == GOLDEN_POPULATION_DIGEST
