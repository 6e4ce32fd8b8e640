"""Experiment orchestration: configs, seeded sweeps, statistics, CSV, CLI.

Experiments are described by JSON files with the following keys (all except
experiment_id and base_seed optional):

    experiment_id       string naming the experiment
    base_seed           integer; every run's seed is derived from it
    iter                iteration budget for all algorithms (default 100)
    runs_per_cell       repetitions per (function, algorithm) cell (default 50)
    functions           list of benchmark ids (default: the full registry)
    algorithms          list drawn from abco / pso / aco (default: all three)
    abco                colony parameters, either flat {N_s, N_explor, N_explt,
                        N_tum, e, s, k, generation_gap, unchanged_threshold,
                        size} applied to every function, or keyed by function
                        id with per-function blocks; unset fields fall back to
                        the bundled per-function presets
    pso                 {c1, c2, w_min, w_max, size}
    aco                 {sample_count, intent_factor, zeta, size}
    population_overrides  map function id -> colony size, overriding the
                        colony population for that function only (the
                        stress-test experiment shrinks sphere to 15 while the
                        baselines keep their own sizes)

Config files keep the short parameter spellings used in the literature; each
optimizer config field declares its spelling and range check, and load_config
translates to the descriptive field names and reports errors by spelling. Three
configs ship with the package (experiment1/2/3: all algorithms at population
100, all at 25, and colony 25 vs baselines 100) along with per-function
colony presets.

Runs are independent and may execute in parallel; SWARM_OPT_THREADS caps the
worker count (0 or unset picks the CPU count). Determinism does not depend
on scheduling: each run's seed is derived up front from (base_seed,
function, algorithm, run_index) and records are sorted into canonical
function-major order before any output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .abco import AbcoConfig, run_abco
from .baselines import AcorConfig, PsoConfig, run_acor, run_pso
from .benchmarks import list_functions, spec_of
from .core import ConfigurationError, RngStream, check_fields, derive_seed, error_rate

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "StatsSummary",
    "load_config",
    "run_experiment",
    "aggregate_stats",
    "write_results",
    "read_results",
    "render_table",
    "cli_main",
    "main",
]

ALGORITHMS = ("abco", "pso", "aco")

BUNDLED_EXPERIMENTS = ("experiment1", "experiment2", "experiment3")

_CONFIG_CLASSES = {"abco": AbcoConfig, "pso": PsoConfig, "aco": AcorConfig}

# Per config class: every field by name, and config-file key -> field for
# the fields a config block may set, read off the field declarations.
_DECLARED = {cls: {f.name: f for f in fields(cls)} for cls in _CONFIG_CLASSES.values()}
_FIELDS = {
    cls: {f.metadata["key"]: f for f in declared.values() if "key" in f.metadata}
    for cls, declared in _DECLARED.items()
}
ABCO_KEYS = {key: f.name for key, f in _FIELDS[AbcoConfig].items()}


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: one optimizer config per cell."""

    experiment_id: str
    base_seed: int
    iterations: int
    runs_per_cell: int
    functions: list[str]
    algorithms: list[str]
    abco: dict[str, AbcoConfig]
    pso: PsoConfig
    aco: AcorConfig
    population_overrides: dict[str, int] = field(default_factory=dict)


@dataclass
class RunRecord:
    """One optimizer run, in the shape of one results-CSV row.

    error is |best_value - true_minimum|. failed marks a run that raised;
    its numeric result fields hold nan/zero and it is excluded from
    statistics. The flag itself is not a CSV column: a nan best_value marks
    the row, and read_results restores the flag from it.
    """

    experiment_id: str
    function: str
    algorithm: str
    pop_size: int
    run_index: int
    seed: int
    best_value: float
    true_minimum: float
    error: float
    evaluations: int
    iterations_executed: int
    early_stopped: bool
    runtime_seconds: float
    failed: bool = field(default=False, compare=False)


# One records-CSV column per RunRecord field, in declaration order.
_CSV_FIELDS = [f for f in fields(RunRecord) if f.name != "failed"]
CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)
_CSV_PARSERS = {"str": str, "int": int, "float": float, "bool": lambda text: text == "true"}


@dataclass
class StatsSummary:
    best: float
    worst: float
    mean: float
    std: float
    n: int


def aggregate_stats(values) -> StatsSummary:
    """Best/worst/mean/std over one metric; std divides by n, not n-1."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("aggregate_stats needs at least one value")
    return StatsSummary(
        best=float(data.min()),
        worst=float(data.max()),
        mean=float(data.mean()),
        std=float(data.std()),
        n=int(data.size),
    )


# ---------------------------------------------------------------------------
# config loading


def _preset_root():
    return resources.files("swarmopt") / "presets"


def _load_preset(relative: str) -> dict:
    return json.loads((_preset_root() / relative).read_text())


def abco_preset(function_id: str) -> dict:
    """The bundled per-function colony parameters, in config spelling."""
    spec_of(function_id)
    return _load_preset(f"abco/{function_id}.json")


def _check_block(location: str, name: str, block, cls) -> dict:
    """Validate one algorithm block's keys and value types."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{location}: {name} must be an object")
    for key, value in block.items():
        declared = _FIELDS[cls].get(key)
        if declared is None:
            raise ConfigurationError(f"{location}: unknown key {name}.{key}")
        if value is None and declared.default is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{location}: {name}.{key} expects a number, got {value!r}")
    return dict(block)


def _build(cls, block: dict, location: str, prefix: str, **fixed):
    """Construct `cls` from a checked block in config spelling plus `fixed`
    field values. A range error names the key the user wrote."""
    kwargs = {_FIELDS[cls][key].name: value for key, value in block.items()}
    kwargs.update(fixed)
    declared = _DECLARED[cls]
    values = {name: f.default for name, f in declared.items()} | kwargs
    try:
        check_fields(cls, values, lambda name: declared[name].metadata.get("key", name))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{location}: {prefix}{exc}") from None
    return cls(**kwargs)


def _positive_int(location: str, key: str, value, *, minimum=1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{location}: {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{location}: {key} must be >= {minimum}, got {value}")
    return value


def _id_list(location: str, key: str, value, known, default) -> list[str]:
    if value is None:
        return list(default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{location}: {key} must be a list of ids")
    for v in value:
        if v not in known:
            raise ConfigurationError(f"{location}: {key} contains unknown id {v!r}")
    if len(set(value)) != len(value):
        raise ConfigurationError(f"{location}: {key} contains duplicate ids")
    return list(value)


_TOP_KEYS = {
    "experiment_id", "base_seed", "iter", "runs_per_cell", "functions",
    "algorithms", "abco", "pso", "aco", "population_overrides",
}


def load_config(source) -> ExperimentConfig:
    """Parse an experiment description from a file path or a bundled name.

    The bundled names are experiment1, experiment2 and experiment3. Raises
    ConfigurationError naming the offending key on any invalid entry.
    """
    path = Path(source)
    if path.is_file():
        location = path.name
        raw = json.loads(path.read_text())
    elif str(source) in BUNDLED_EXPERIMENTS:
        location = f"{source}.json"
        raw = _load_preset(f"{source}.json")
    else:
        raise FileNotFoundError(f"no config file or bundled experiment named {source!r}")

    if not isinstance(raw, dict):
        raise ConfigurationError(f"{location}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"{location}: unknown key {key}")

    experiment_id = raw.get("experiment_id")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise ConfigurationError(f"{location}: experiment_id must be a non-empty string")
    base_seed = raw.get("base_seed")
    if isinstance(base_seed, bool) or not isinstance(base_seed, int):
        raise ConfigurationError(f"{location}: base_seed must be an integer")
    iterations = _positive_int(location, "iter", raw.get("iter", 100))
    runs_per_cell = _positive_int(location, "runs_per_cell", raw.get("runs_per_cell", 50))

    functions = _id_list(location, "functions", raw.get("functions"),
                         set(list_functions()), list_functions())
    algorithms = _id_list(location, "algorithms", raw.get("algorithms"),
                          set(ALGORITHMS), ALGORITHMS)

    overrides_raw = raw.get("population_overrides", {})
    if not isinstance(overrides_raw, dict):
        raise ConfigurationError(f"{location}: population_overrides must be an object")
    overrides = {}
    for fn, size in overrides_raw.items():
        if fn not in set(list_functions()):
            raise ConfigurationError(
                f"{location}: population_overrides names unknown function {fn!r}")
        overrides[fn] = _positive_int(location, f"population_overrides.{fn}", size)

    # The colony block comes in two shapes: flat parameters for every
    # function, or per-function sub-blocks. Both may appear together; the
    # per-function entries win.
    abco_raw = raw.get("abco", {})
    if not isinstance(abco_raw, dict):
        raise ConfigurationError(f"{location}: abco must be an object")
    known = set(list_functions())
    flat = _check_block(location, "abco",
                        {k: v for k, v in abco_raw.items() if k not in known}, AbcoConfig)
    per_function = {fn: _check_block(location, f"abco.{fn}", block, AbcoConfig)
                    for fn, block in abco_raw.items() if fn in known}

    abco_configs = {}
    for fn in functions:
        merged = {**abco_preset(fn), **flat, **per_function.get(fn, {})}
        if fn in overrides:
            merged["size"] = overrides[fn]
        prefix = f"abco.{fn}." if fn in per_function else "abco."
        abco_configs[fn] = _build(AbcoConfig, merged, location, prefix, iterations=iterations)

    pso_block = _check_block(location, "pso", raw.get("pso", {}), PsoConfig)
    pso_config = _build(PsoConfig, pso_block, location, "pso.", iterations=iterations)
    aco_block = _check_block(location, "aco", raw.get("aco", {}), AcorConfig)
    aco_config = _build(AcorConfig, aco_block, location, "aco.", iterations=iterations)

    return ExperimentConfig(
        experiment_id=experiment_id,
        base_seed=base_seed,
        iterations=iterations,
        runs_per_cell=runs_per_cell,
        functions=functions,
        algorithms=algorithms,
        abco=abco_configs,
        pso=pso_config,
        aco=aco_config,
        population_overrides=overrides,
    )


# ---------------------------------------------------------------------------
# execution

_RUNNERS = {"abco": run_abco, "pso": run_pso, "aco": run_acor}


def _execute_run(task) -> RunRecord:
    experiment_id, function_id, algorithm_id, run_index, seed, cfg = task
    objective = spec_of(function_id)
    failed = RunRecord(
        experiment_id=experiment_id,
        function=function_id,
        algorithm=algorithm_id,
        pop_size=cfg.size,
        run_index=run_index,
        seed=seed,
        best_value=float("nan"),
        true_minimum=objective.known_minimum,
        error=float("nan"),
        evaluations=0,
        iterations_executed=0,
        early_stopped=False,
        runtime_seconds=0.0,
        failed=True,
    )
    try:
        result = _RUNNERS[algorithm_id](objective, cfg, RngStream(seed))
        return replace(
            failed,
            best_value=result.best_value,
            error=error_rate(result.best_value, objective.known_minimum),
            evaluations=result.evaluations,
            iterations_executed=result.iterations_executed,
            early_stopped=result.early_stopped,
            runtime_seconds=result.runtime_seconds,
            failed=False,
        )
    except Exception as exc:  # noqa: BLE001 - one bad run must not kill the sweep
        print(f"warning: {function_id}/{algorithm_id} run {run_index} failed: {exc}",
              file=sys.stderr)
        return failed


def _cell_config(cfg: ExperimentConfig, function_id: str, algorithm_id: str):
    if algorithm_id == "abco":
        return cfg.abco[function_id]
    if algorithm_id == "pso":
        return cfg.pso
    return cfg.aco


def _worker_count(task_count: int) -> int:
    raw = os.environ.get("SWARM_OPT_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"SWARM_OPT_THREADS must be an integer, got {raw!r}") from None
    else:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, task_count))


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute every (function, algorithm, run) cell of the experiment.

    Seeds are derived up front, so results do not depend on how many
    workers execute the runs. Failed runs are flagged and the sweep
    continues. Records come back sorted function-major, then algorithm,
    then run index, following the config's own ordering.
    """
    tasks = []
    for function_id in cfg.functions:
        for algorithm_id in cfg.algorithms:
            cell_cfg = _cell_config(cfg, function_id, algorithm_id)
            for run_index in range(cfg.runs_per_cell):
                seed = derive_seed(cfg.base_seed, function_id, algorithm_id, run_index)
                tasks.append((cfg.experiment_id, function_id, algorithm_id,
                              run_index, seed, cell_cfg))

    workers = _worker_count(len(tasks))
    if workers == 1:
        records = [_execute_run(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_execute_run, tasks, chunksize=4))

    function_rank = {fn: i for i, fn in enumerate(cfg.functions)}
    algorithm_rank = {algo: i for i, algo in enumerate(cfg.algorithms)}
    records.sort(key=lambda r: (function_rank[r.function],
                                algorithm_rank[r.algorithm], r.run_index))
    return records


# ---------------------------------------------------------------------------
# output

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(records, out_path) -> None:
    """Write records as CSV. Floats are printed with repr so that reading
    the file back reproduces them bit for bit."""
    out_path = Path(out_path)
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for record in records:
            writer.writerow([_format_value(getattr(record, f.name)) for f in _CSV_FIELDS])


def read_results(in_path) -> list[RunRecord]:
    """Records from a CSV written by write_results; a malformed row raises
    ValueError naming the file and line."""
    in_path = Path(in_path)
    with open(in_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{in_path.name}: unrecognised results header")
        records = []
        for row in reader:
            where = f"{in_path.name}:{reader.line_num}"
            if len(row) != len(_CSV_FIELDS):
                raise ValueError(f"{where}: expected {len(_CSV_FIELDS)} fields, got {len(row)}")
            values = {}
            for declared, text in zip(_CSV_FIELDS, row):
                try:
                    values[declared.name] = _CSV_PARSERS[declared.type](text)
                except ValueError:
                    raise ValueError(f"{where}: {declared.name} expects "
                                     f"{declared.type}, got {text!r}") from None
            records.append(RunRecord(**values, failed=math.isnan(values["best_value"])))
    return records


def _ordered_unique(items) -> list:
    seen = {}
    for item in items:
        seen.setdefault(item, None)
    return list(seen)


def summarize(records, metric: str) -> list[tuple[str, str, StatsSummary]]:
    """Per-cell statistics of one metric ('error' or 'runtime_seconds'),
    in function-major order. Failed runs are excluded."""
    live = [r for r in records if not r.failed]
    rows = []
    for function_id in _ordered_unique(r.function for r in live):
        for algorithm_id in _ordered_unique(r.algorithm for r in live):
            values = [getattr(r, metric) for r in live
                      if r.function == function_id and r.algorithm == algorithm_id]
            if values:
                rows.append((function_id, algorithm_id, aggregate_stats(values)))
    return rows


def write_summary(records, metric: str, out_path) -> None:
    with open(Path(out_path), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["function", "algorithm", "best", "worst", "mean", "std", "n"])
        for function_id, algorithm_id, stats in summarize(records, metric):
            writer.writerow([function_id, algorithm_id, repr(stats.best),
                             repr(stats.worst), repr(stats.mean), repr(stats.std),
                             stats.n])


_STAT_NAMES = ("best", "worst", "mean", "std")


def render_table(records) -> str:
    """Text table of per-function statistics: for each function, error and
    runtime rows (best/worst/mean/std) with one column per algorithm; the
    best entry in each row is starred. Lower is better for every row, std
    included (it measures reliability across runs)."""
    if not records:
        raise ValueError("render_table needs at least one record")
    live = [r for r in records if not r.failed]
    functions = _ordered_unique(r.function for r in live)
    algorithms = _ordered_unique(r.algorithm for r in live)

    lines = []
    for function_id in functions:
        subset = [r for r in live if r.function == function_id]
        present = [a for a in algorithms if any(r.algorithm == a for r in subset)]
        headers = []
        for algorithm_id in present:
            sizes = sorted({r.pop_size for r in subset if r.algorithm == algorithm_id})
            headers.append(f"{algorithm_id} (n={','.join(map(str, sizes))})")

        grid = []
        for metric in ("error", "runtime_seconds"):
            stats = {a: aggregate_stats([getattr(r, metric) for r in subset
                                         if r.algorithm == a]) for a in present}
            label = "error" if metric == "error" else "runtime"
            for stat_name in _STAT_NAMES:
                row_values = [getattr(stats[a], stat_name) for a in present]
                best = min(row_values)
                cells = [f"{v:.6g}" + ("*" if v == best else "") for v in row_values]
                grid.append((label if stat_name == "best" else "", stat_name, cells))

        widths = [max(len(headers[i]), max(len(row[2][i]) for row in grid))
                  for i in range(len(present))]
        lines.append(function_id)
        lines.append("  {:8s} {:6s} {}".format(
            "", "", "  ".join(h.ljust(w) for h, w in zip(headers, widths))))
        for label, stat_name, cells in grid:
            lines.append("  {:8s} {:6s} {}".format(
                label, stat_name,
                "  ".join(c.ljust(w) for c, w in zip(cells, widths))))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# command line

def _parse_param(text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigurationError(f"--param expects key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _single_cell_config(algorithm: str, function: str, args) -> object:
    """Resolve the optimizer config for the `run` subcommand: bundled
    preset (colony) or defaults, then --pop-size/--iters/--param."""
    cls = _CONFIG_CLASSES[algorithm]
    overrides = dict(_parse_param(p) for p in args.param or [])
    if args.pop_size is not None:
        overrides["size"] = args.pop_size
    for key in overrides:
        if key not in _FIELDS[cls]:
            raise ConfigurationError(
                f"unknown parameter {key!r} for {algorithm} "
                f"(valid: {', '.join(sorted(_FIELDS[cls]))})")
    block = abco_preset(function) if algorithm == "abco" else {}
    block.update(_check_block("run", algorithm, overrides, cls))
    return _build(cls, block, "run", f"{algorithm}.", iterations=args.iters)


def _cmd_list(_args) -> int:
    print("functions:")
    for name in list_functions():
        print(f"  {name}")
    print("algorithms:")
    for name in ALGORITHMS:
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    spec_of(args.function)
    cfg = _single_cell_config(args.algorithm, args.function, args)
    experiment_id = f"run-{args.algorithm}-{args.function}"
    tasks = [(experiment_id, args.function, args.algorithm, i,
              derive_seed(args.seed, args.function, args.algorithm, i), cfg)
             for i in range(args.runs)]
    records = [_execute_run(t) for t in tasks]
    if args.out:
        write_results(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    live = [r for r in records if not r.failed]
    if live:
        stats = aggregate_stats([r.error for r in live])
        runtime = aggregate_stats([r.runtime_seconds for r in live])
        print(f"{args.function}/{args.algorithm} over {stats.n} runs: "
              f"error best {stats.best:.6g}, worst {stats.worst:.6g}, "
              f"mean {stats.mean:.6g}, std {stats.std:.6g}; "
              f"mean runtime {runtime.mean:.4f}s")
    failed = len(records) - len(live)
    if failed:
        print(f"{failed} runs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / f"{cfg.experiment_id}_records.csv"
    error_path = out_dir / f"{cfg.experiment_id}_error_summary.csv"
    runtime_path = out_dir / f"{cfg.experiment_id}_runtime_summary.csv"
    write_results(records, records_path)
    write_summary(records, "error", error_path)
    write_summary(records, "runtime_seconds", runtime_path)
    print(f"wrote {records_path}, {error_path} and {runtime_path}")
    print()
    print(render_table(records), end="")
    failed = sum(r.failed for r in records)
    if failed:
        print(f"{failed} runs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_table(args) -> int:
    records = read_results(args.infile)
    print(render_table(records), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmopt",
        description="Benchmark harness for the bundled swarm optimizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark functions and algorithms")

    run_p = sub.add_parser("run", help="run one (function, algorithm) cell")
    run_p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--function", required=True)
    run_p.add_argument("--pop-size", type=int, default=None)
    run_p.add_argument("--iters", type=int, default=100)
    run_p.add_argument("--runs", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=None, help="write per-run records CSV here")
    run_p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a preset field, repeatable")

    exp_p = sub.add_parser("experiment", help="run a configured experiment")
    exp_p.add_argument("--config", required=True,
                       help="config file path or bundled name "
                            "(experiment1, experiment2, experiment3)")
    exp_p.add_argument("--out-dir", default=".")

    table_p = sub.add_parser("table", help="summarize a records CSV")
    table_p.add_argument("--in", dest="infile", required=True)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "table": _cmd_table,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    except (ConfigurationError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
