"""What replays bit for bit on any x86-64 host: the PSO and ACO goldens,
ACO's guide weights and the registry's column forms.

Each case starts a child interpreter with one environment variable set:
OPENBLAS_CORETYPE picks OpenBLAS's kernel, and NPY_DISABLE_CPU_FEATURES
caps numpy's SIMD dispatch level. The child runs the two golden tests,
which assert their digests, and reports the digests of `digests()`, which
must equal this process's. The variables are set for the child alone. A
kernel case is skipped unless numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, and
a dispatch case where numpy refuses the setting (a feature in its baseline).
The colony and records goldens still depend on the BLAS kernel and are not
replayed here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmopt
from swarmopt.baselines import rank_weights
from swarmopt.benchmarks import spec_of
from swarmopt.core import evaluate_rows, minimised
from oracle import COLUMN_CASES, guide_weights, probe_rows

TESTS = Path(__file__).resolve().parent
GOLDENS = [str(TESTS / name) for name in ("test_golden_pso.py", "test_golden_acor.py")]
AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
CASES = ([("OPENBLAS_CORETYPE", kernel) for kernel in ("SkylakeX", "Haswell", "Nehalem")]
         + [("NPY_DISABLE_CPU_FEATURES", AVX512),
            ("NPY_DISABLE_CPU_FEATURES", AVX512 + " X86_V3")])
INTENT_FACTORS = (0.01, 0.1, 0.5, 1.0)

# argv: this file, then the golden test files to run.
CHILD = """
import json, runpy, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
for path in sys.argv[2:]:
    for name, test in runpy.run_path(path).items():
        if name.startswith("test_"):
            test()
print(json.dumps({"digests": runpy.run_path(sys.argv[1])["digests"](),
                  "dispatch": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}))
"""


def digests() -> dict:
    """sha256 of rank_weights at archive sizes 2-100 and of every column
    form on 500 of the oracle's probe rows and their special points; each
    equals its reference first (the oracle's weights, the scalar form)."""
    weights = hashlib.sha256()
    for intent_factor in INTENT_FACTORS:
        for size in range(2, 101):
            computed = rank_weights(size, intent_factor).tobytes()
            assert computed == np.array(guide_weights(size, intent_factor)).tobytes()
            weights.update(computed)
    columns = hashlib.sha256()
    for name, dim in COLUMN_CASES:
        evaluator, _ = minimised(spec_of(name))
        rows = probe_rows(name, dim, 500)
        values = evaluate_rows(evaluator, rows).tobytes()
        assert values == np.array([evaluator(row) for row in rows]).tobytes(), (name, dim)
        columns.update(values)
    return {"rank_weights": weights.hexdigest(), "columns": columns.hexdigest()}


@pytest.fixture(scope="module")
def expected():
    return digests()


def dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.parametrize("variable,value", CASES, ids=[value for _, value in CASES])
def test_goldens_and_libm_paths_replay_under_every_kernel_and_dispatch_level(
        variable, value, expected):
    if variable == "OPENBLAS_CORETYPE" and not dynamic_openblas():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    path = os.pathsep.join([str(Path(swarmopt.__file__).parents[1]), str(TESTS)])
    child = subprocess.run([sys.executable, "-c", CHILD, __file__, *GOLDENS],
                           env={**os.environ, variable: value, "PYTHONPATH": path},
                           capture_output=True, text=True, timeout=300)
    if "You cannot disable CPU feature" in child.stderr:
        pytest.skip(f"numpy refuses {variable}={value}")
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["digests"] == expected
    if variable == "NPY_DISABLE_CPU_FEATURES":
        assert not set(value.split()) & set(report["dispatch"])
