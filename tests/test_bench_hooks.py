"""The names perfbench's tracer patches are still the ones a run calls.

perfbench/tracing.py wraps module globals of abco and baselines by name; a
refactor that stops calling one of them would leave its span at zero
without failing anything but the benchmark. This runs one tiny run of
each optimizer under the tracer and checks the spans were entered.
"""

import importlib
from pathlib import Path

from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import spec_of
from swarmopt.core import RngStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_spans_are_entered_by_every_optimizer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    objective = spec_of("rastrigin")
    with tracing.Tracer().installed() as tracer:
        run_abco(objective, AbcoConfig(size=6, iterations=3), RngStream(1))
        run_pso(objective, PsoConfig(size=6, iterations=3), RngStream(2))
        run_acor(objective, AcorConfig(size=6, iterations=3), RngStream(3))
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    for name in ("abco.explore", "abco.exploit", "abco.reproduce", "abco.early_stop_check",
                 "baselines.merge_archive"):
        assert calls[name] >= 3, name
