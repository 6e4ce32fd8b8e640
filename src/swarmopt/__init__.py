"""Swarm optimizers (bacterial colony, PSO, continuous ACO) with a benchmark harness."""

from .core import (
    ConfigurationError,
    OptimizationMode,
    OptimizerResult,
    RngStream,
    SearchSpace,
    UnknownFunctionError,
    derive_seed,
    error_rate,
)
from .benchmarks import ObjectiveSpec, evaluate, list_functions, spec_of
from .abco import AbcoConfig, run_abco
from .baselines import AcorConfig, PsoConfig, run_acor, run_pso
from .harness import (
    ExperimentConfig,
    RunRecord,
    StatsSummary,
    aggregate_stats,
    cli_main,
    load_config,
    read_results,
    render_table,
    run_experiment,
    write_results,
)

__version__ = "0.1.0"
