"""Golden records digest for each bundled experiment.

The trajectory goldens pin the optimizers; this pins what the harness
writes. Each bundled experiment runs with one run per cell on one worker,
its records go through write_results, and the CSV minus the
runtime_seconds column is hashed. Seeds, cell order, reported bests,
errors, counts and float formatting are all in the file, so drift in any
of them moves the digest, where comparing a sweep with a second run of
itself cannot. Tied to the same libm and PCG64 stream as test_golden.
"""

import csv
import hashlib
from dataclasses import replace

import pytest

from swarmopt.harness import (
    BUNDLED_EXPERIMENTS,
    load_config,
    run_experiment,
    write_results,
)

GOLDEN_RECORDS_DIGESTS = {
    "experiment1": "1807b6c744e7efef56e7dac9551159ccd50358d768c2bea61e280749d3dc8c06",
    "experiment2": "e8685e6e860ea885384f5ce9b25820ed619f5d4ba734820ab409cd13015d0632",
    "experiment3": "e717c49a1167394ddfb598e35b1b9ea616089f765322021c778166b37d48831b",
}


def records_digest(experiment_id: str, out_path) -> str:
    cfg = replace(load_config(experiment_id), runs_per_cell=1)
    write_results(run_experiment(cfg), out_path)
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    dropped = rows[0].index("runtime_seconds")
    sink = hashlib.sha256()
    for row in rows:
        sink.update((",".join(row[:dropped] + row[dropped + 1:]) + "\n").encode())
    return sink.hexdigest()


@pytest.mark.parametrize("experiment_id", BUNDLED_EXPERIMENTS)
def test_records_digest_is_unchanged(experiment_id, tmp_path, monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    digest = records_digest(experiment_id, tmp_path / "records.csv")
    assert digest == GOLDEN_RECORDS_DIGESTS[experiment_id]
