"""Experiment orchestration: configs, seeded sweeps, statistics, CSV, CLI.

Experiments are described by JSON files with the following keys (all except
experiment_id and base_seed optional):

    experiment_id       string naming the experiment and its output files,
                        so a plain file name: no / or \\ or NUL, not . or ..
    base_seed           integer; every run's seed is derived from it
    iter                iteration budget for all algorithms (default 100)
    runs_per_cell       repetitions per (function, algorithm) cell (default 50)
    functions           list of benchmark ids (default: the full registry)
    algorithms          list drawn from abco / pso / aco (default: all three)
    abco                colony parameters, either flat {N_s, N_explor, N_explt,
                        N_tum, s, k, generation_gap, unchanged_threshold,
                        size} applied to every function, or keyed by function
                        id with per-function blocks; unset fields fall back to
                        the bundled colony preset, then to AbcoConfig's defaults
    pso                 {c1, c2, w_min, w_max, size}
    aco                 {sample_count, intent_factor, zeta, size}
    population_overrides  map function id -> colony size: abco.<fn>.size
                        under another name, kept for existing configs

Config files keep the short parameter spellings used in the literature; each
optimizer config field declares its spelling and range check, and load_config
translates to the descriptive field names. One builder resolves every
optimizer config from blocks in layers, a later layer winning: for the
colony the bundled preset (presets/abco.json:<fn>, empty for a function it
does not tune), then the flat abco block, then abco.<fn>, then
population_overrides.<fn> as size; pso and aco are one block each.
`swarmopt run` builds a one-cell config, {experiment_id: run-<algo>-<fn>,
base_seed: --seed, iter: --iters, runs_per_cell: --runs, functions: [fn],
algorithms: [algo], <algo>: {--param..., size: --pop-size}}, and checks
and runs it as a file's. An unknown key is refused where it is given;
values are checked by core.check_fields once the config is resolved, and
an error names the key by the block that set it last (abco.s, not
abco.sphere.s); a field no block set goes by its key. Every float must be
finite. Three configs ship with the package (experiment1/2/3:
all algorithms at population 100, all at 25, and colony 25, sphere's 15,
vs baselines 100) along with presets/abco.json, the colony parameters tuned
for himmelblau and sphere.

Runs are independent and may execute in parallel; SWARM_OPT_THREADS caps the
worker count (0 or unset picks the CPU count, and a negative count raises
ConfigurationError). Determinism does not depend on scheduling: each run's
seed is derived up front from (base_seed, function, algorithm, run_index)
and records come back in canonical function-major order, the order the
tasks are built in.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources
from itertools import groupby
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


@dataclass
class RunRecord:
    """One optimizer run, in the shape of one results-CSV row.

    error is |best_value - true_minimum|. A run that raised (its numeric
    result fields hold nan/zero) or that reported a nan best has a nan
    best_value, which is what `failed` reads, in memory and read back from
    CSV alike; failed runs are excluded from statistics.
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

    @property
    def failed(self) -> bool:
        return math.isnan(self.best_value)

    def __eq__(self, other):
        # repr prints floats as write_results does, so nan fields compare equal.
        return type(other) is RunRecord and repr(self) == repr(other)


# One records-CSV column per RunRecord field, in declaration order.
_CSV_FIELDS = fields(RunRecord)
CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)
_CSV_PARSERS = {"str": str, "int": int, "float": float,
                "bool": {"true": True, "false": False}.__getitem__}


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


def _load_preset(relative: str) -> dict:
    return json.loads((resources.files("swarmopt") / "presets" / relative).read_text())


@functools.cache
def _abco_presets() -> dict:
    """presets/abco.json, parsed once per process; read it through abco_preset."""
    return _load_preset("abco.json")


def abco_preset(function_id: str) -> dict:
    """The bundled colony parameters tuned for one function, in config
    spelling; empty for a function that runs on AbcoConfig's defaults. A
    fresh dict per call, so no caller can change the shared table."""
    spec_of(function_id)
    return dict(_abco_presets().get(function_id, {}))


def _resolve(cls, location: str, layers, **fixed):
    """Construct `cls` from `layers`, (name, block) pairs in config spelling
    where a later block wins, plus `fixed` field values.

    An unknown key is refused in the block that gives it. Values are
    checked by check_fields on the resolved config, so an error names a
    field by the block that set it last (`abco.s`, `abco.sphere.s`); a
    field that no block set goes by its config key.
    """
    values = {f.name: f.default for f in fields(cls)}
    spelling = {f.name: f.metadata.get("key", f.name) for f in fields(cls)}
    keyed = {f.metadata["key"]: f.name for f in fields(cls) if "key" in f.metadata}
    for name, block in layers:
        if not isinstance(block, dict):
            raise ConfigurationError(f"{location}: {name} must be an object")
        for key, value in block.items():
            if key not in keyed:
                raise ConfigurationError(f"{location}: unknown key {name}.{key}")
            values[keyed[key]] = value
            spelling[keyed[key]] = f"{name}.{key}"
    values.update(fixed)
    try:
        check_fields(cls, values, spelling.__getitem__)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{location}: {exc}") from None
    return cls(**values)


def _positive_int(location: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{location}: {key} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{location}: {key} must be >= 1, got {value}")
    return value


def _id_list(location: str, key: str, value, known, default) -> list[str]:
    if value is None:
        return list(default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{location}: {key} must be a list of ids")
    if not value:
        raise ConfigurationError(f"{location}: {key} must name at least one id")
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
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{location}: {exc}") from None
    elif str(source) in BUNDLED_EXPERIMENTS:
        location = f"{source}.json"
        raw = _load_preset(f"{source}.json")
    else:
        raise FileNotFoundError(f"no config file or bundled experiment named {source!r}")
    return _parse_config(raw, location)


def _parse_config(raw, location: str) -> ExperimentConfig:
    """Validate a raw experiment description, as read from JSON; every
    error message starts with `location`."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{location}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"{location}: unknown key {key}")

    experiment_id = raw.get("experiment_id")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise ConfigurationError(f"{location}: experiment_id must be a non-empty string")
    # The id names the output files, so it must not reach another directory
    # or hold a character no file name can.
    if any(c in experiment_id for c in "/\\\0") or experiment_id in (".", ".."):
        raise ConfigurationError(
            f"{location}: experiment_id must be a plain file name, got {experiment_id!r}")
    base_seed = raw.get("base_seed")
    if isinstance(base_seed, bool) or not isinstance(base_seed, int):
        raise ConfigurationError(f"{location}: base_seed must be an integer")
    iterations = _positive_int(location, "iter", raw.get("iter", 100))
    runs_per_cell = _positive_int(location, "runs_per_cell", raw.get("runs_per_cell", 50))

    known = set(list_functions())
    functions = _id_list(location, "functions", raw.get("functions"), known, list_functions())
    algorithms = _id_list(location, "algorithms", raw.get("algorithms"),
                          set(ALGORITHMS), ALGORITHMS)

    overrides = raw.get("population_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigurationError(f"{location}: population_overrides must be an object")
    for fn in overrides:
        if fn not in known:
            raise ConfigurationError(
                f"{location}: population_overrides names unknown function {fn!r}")

    # The colony block comes in two shapes: flat parameters for every
    # function, or per-function sub-blocks. Both may appear together; the
    # per-function entries win. Blocks for functions that do not run are
    # checked all the same.
    abco_raw = raw.get("abco", {})
    if not isinstance(abco_raw, dict):
        raise ConfigurationError(f"{location}: abco must be an object")
    flat = {k: v for k, v in abco_raw.items() if k not in known}
    abco_configs = {}
    for fn in dict.fromkeys([*functions, *(k for k in abco_raw if k in known), *overrides]):
        layers = [(f"presets/abco.json:{fn}", abco_preset(fn)), ("abco", flat),
                  (f"abco.{fn}", abco_raw.get(fn, {}))]
        if fn in overrides:
            layers.append((f"population_overrides.{fn}", {"size": overrides[fn]}))
        abco_configs[fn] = _resolve(AbcoConfig, location, layers, iterations=iterations)

    return ExperimentConfig(
        experiment_id=experiment_id,
        base_seed=base_seed,
        iterations=iterations,
        runs_per_cell=runs_per_cell,
        functions=functions,
        algorithms=algorithms,
        abco={fn: abco_configs[fn] for fn in functions},
        pso=_resolve(PsoConfig, location, [("pso", raw.get("pso", {}))], iterations=iterations),
        aco=_resolve(AcorConfig, location, [("aco", raw.get("aco", {}))], iterations=iterations),
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
        )
    except Exception as exc:  # noqa: BLE001 - one bad run must not kill the sweep
        print(f"warning: {function_id}/{algorithm_id} run {run_index} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return failed


def _worker_count(task_count: int) -> int:
    raw = os.environ.get("SWARM_OPT_THREADS", "").strip() or "0"
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"SWARM_OPT_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ConfigurationError(f"SWARM_OPT_THREADS must be 0 or more, got {raw!r}")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, task_count))


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute every (function, algorithm, run) cell of the experiment.

    Seeds are derived up front, so results do not depend on how many
    workers execute the runs. Failed runs are flagged and the sweep
    continues. Records come back function-major, then algorithm, then run
    index, following the config's own ordering: the tasks are built in that
    order, and both paths return their results in task order.
    """
    tasks = []
    for function_id in cfg.functions:
        for algorithm_id in cfg.algorithms:
            cell_cfg = (cfg.abco[function_id] if algorithm_id == "abco"
                        else getattr(cfg, algorithm_id))
            for run_index in range(cfg.runs_per_cell):
                seed = derive_seed(cfg.base_seed, function_id, algorithm_id, run_index)
                tasks.append((cfg.experiment_id, function_id, algorithm_id,
                              run_index, seed, cell_cfg))

    workers = _worker_count(len(tasks))
    if workers == 1:
        return [_execute_run(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # a serial sweep never imports it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_run, tasks))


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
                except (ValueError, KeyError):
                    raise ValueError(f"{where}: {declared.name} expects "
                                     f"{declared.type}, got {text!r}") from None
            records.append(RunRecord(**values))
    return records


def _cells(records) -> dict:
    """Live records grouped by (function, algorithm) in one pass; each cell
    maps to its sorted population sizes and its error and runtime_seconds
    statistics. Cells run function-major, functions and algorithms each in
    order of first appearance among the live records."""
    live = [r for r in records if not r.failed]
    groups = {}
    for record in live:
        groups.setdefault((record.function, record.algorithm), []).append(record)
    functions = list(dict.fromkeys(r.function for r in live))
    algorithms = list(dict.fromkeys(r.algorithm for r in live))
    order = sorted(groups, key=lambda cell: (functions.index(cell[0]), algorithms.index(cell[1])))
    return {cell: (sorted({r.pop_size for r in groups[cell]}),
                   {metric: aggregate_stats([getattr(r, metric) for r in groups[cell]])
                    for metric in ("error", "runtime_seconds")})
            for cell in order}


def write_summary(records, metric: str, out_path) -> None:
    """Write each cell's statistics of one metric ('error' or
    'runtime_seconds') as CSV, in function-major order, failed runs
    excluded."""
    with open(Path(out_path), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["function", "algorithm", "best", "worst", "mean", "std", "n"])
        for (function_id, algorithm_id), (_, stats) in _cells(records).items():
            summary = stats[metric]
            writer.writerow([function_id, algorithm_id, repr(summary.best),
                             repr(summary.worst), repr(summary.mean), repr(summary.std),
                             summary.n])


def render_table(records) -> str:
    """Text table of per-function statistics: for each function, error and
    runtime rows (best/worst/mean/std) with one column per algorithm; the
    best entry in each row is starred. Lower is better for every row, std
    included (it measures reliability across runs)."""
    if not records:
        raise ValueError("render_table needs at least one record")
    lines = []
    for function_id, group in groupby(_cells(records).items(),
                                      key=lambda item: item[0][0]):
        present = [(algorithm_id, *summary) for (_, algorithm_id), summary in group]
        # The header row, then best/worst/mean/std of error and of runtime.
        grid = [("", "", [f"{a} (n={','.join(map(str, sizes))})" for a, sizes, _ in present])]
        for metric, label in (("error", "error"), ("runtime_seconds", "runtime")):
            for stat_name in ("best", "worst", "mean", "std"):
                row_values = [getattr(stats[metric], stat_name) for _, _, stats in present]
                best = min(row_values)
                texts = [f"{v:.6g}" + ("*" if v == best else "") for v in row_values]
                grid.append((label if stat_name == "best" else "", stat_name, texts))
        widths = [max(len(row[2][i]) for row in grid) for i in range(len(present))]
        lines.append(function_id)
        lines += ["  {:8s} {:6s} {}".format(label, stat_name, "  ".join(
                      text.ljust(width) for text, width in zip(texts, widths)))
                  for label, stat_name, texts in grid]
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


def _prepare_outputs(*paths) -> None:
    """Make each output file's directory, and refuse one that names a
    directory itself, before any run rather than after the last."""
    for path in map(Path, paths):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        path.parent.mkdir(parents=True, exist_ok=True)


def _cmd_list(_args) -> int:
    print("functions:", *(f"  {name}" for name in list_functions()), sep="\n")
    print("algorithms:", *(f"  {name}" for name in ALGORITHMS), sep="\n")
    return 0


def _cmd_run(args) -> int:
    _positive_int("run", "--runs", args.runs)
    _positive_int("run", "--iters", args.iters)
    if args.pop_size is not None:
        _positive_int("run", "--pop-size", args.pop_size)
    spec_of(args.function)
    block = dict(_parse_param(p) for p in args.param or [])
    if args.pop_size is not None:
        block["size"] = args.pop_size
    cfg = _parse_config({
        "experiment_id": f"run-{args.algorithm}-{args.function}",
        "base_seed": args.seed, "iter": args.iters, "runs_per_cell": args.runs,
        "functions": [args.function], "algorithms": [args.algorithm],
        args.algorithm: block}, "run")
    if args.out:
        _prepare_outputs(args.out)
    records = run_experiment(cfg)
    if args.out:
        write_results(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    for _, stats in _cells(records).values():
        error, runtime = stats["error"], stats["runtime_seconds"]
        print(f"{args.function}/{args.algorithm} over {error.n} runs: "
              f"error best {error.best:.6g}, worst {error.worst:.6g}, "
              f"mean {error.mean:.6g}, std {error.std:.6g}; "
              f"mean runtime {runtime.mean:.4f}s")
    return _exit_status(records)


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    paths = [Path(args.out_dir) / f"{cfg.experiment_id}_{name}.csv"
             for name in ("records", "error_summary", "runtime_summary")]
    _prepare_outputs(*paths)
    records = run_experiment(cfg)
    records_path, error_path, runtime_path = paths
    write_results(records, records_path)
    write_summary(records, "error", error_path)
    write_summary(records, "runtime_seconds", runtime_path)
    print(f"wrote {records_path}, {error_path} and {runtime_path}")
    print()
    print(render_table(records), end="")
    return _exit_status(records)


def _exit_status(records) -> int:
    """1, after saying how many runs failed, if any did; else 0."""
    failed = sum(r.failed for r in records)
    if failed:
        print(f"{failed} runs failed", file=sys.stderr)
    return int(failed > 0)


def _cmd_table(args) -> int:
    records = read_results(args.infile)
    print(render_table(records), end="")
    return _exit_status(records)


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
