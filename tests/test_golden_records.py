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
    "experiment1": "443cffe5cf98e05f0867d00726f55359d56d5641753fa0e507f9690e14a4f86f",
    "experiment2": "9f9d3128be026c99286b665612a6016ea88b6b48e40b52bd5f722268d6c6901a",
    "experiment3": "7d81e2b7c3c15957c515c3078ceec730ab39e96ffc847c68318e803dab911e63",
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
