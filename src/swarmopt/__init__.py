"""Swarm optimizers (bacterial colony, PSO, continuous ACO) with a benchmark harness."""

from .core import (
    ConfigurationError,
    EmptyNeighbourhoodError,
    OptimizationMode,
    OptimizerResult,
    RngStream,
    SearchSpace,
    UnknownFunctionError,
    derive_seed,
    error_rate,
    k_nearest,
    repair_bounds,
    seed_population,
)
from .benchmarks import ObjectiveSpec, evaluate, list_functions, spec_of
from .abco import (
    AbcoConfig,
    Colony,
    RunState,
    early_stop_check,
    explore_stage,
    exploit_stage,
    move_toward,
    reproduce_stage,
    run_abco,
    tumble_step,
)
from .baselines import (
    AcorConfig,
    PsoConfig,
    inertia_weight,
    merge_archive,
    rank_weights,
    run_acor,
    run_pso,
)
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
