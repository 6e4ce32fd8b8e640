"""Experiment harness: config loading, sweeps, statistics, CSV, CLI."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from swarmopt import harness
from swarmopt.abco import AbcoConfig, run_abco
from swarmopt.baselines import AcorConfig, PsoConfig, run_acor, run_pso
from swarmopt.benchmarks import list_functions, spec_of
from swarmopt.core import ConfigurationError, RngStream, derive_seed
from swarmopt.harness import (
    RunRecord,
    abco_preset,
    aggregate_stats,
    cli_main,
    load_config,
    read_results,
    render_table,
    run_experiment,
    write_results,
)


def tiny_config(tmp_path, **extra):
    """A two-function, fast-running experiment description on disk."""
    raw = {
        "experiment_id": "tiny",
        "base_seed": 99,
        "iter": 5,
        "runs_per_cell": 2,
        "functions": ["booth", "himmelblau"],
        "algorithms": ["abco", "pso", "aco"],
        "abco": {"size": 6},
        "pso": {"size": 6},
        "aco": {"size": 6},
    }
    raw.update(extra)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    return path


def stable_fields(record):
    """Everything except runtime, which varies between executions."""
    return (
        record.experiment_id, record.function, record.algorithm,
        record.pop_size, record.run_index, record.seed, record.best_value,
        record.true_minimum, record.error, record.evaluations,
        record.iterations_executed, record.early_stopped, record.failed,
    )


# --- statistics --------------------------------------------------------------

def test_aggregate_stats_known_values():
    stats = aggregate_stats([1.0, 2.0, 3.0])
    assert (stats.best, stats.worst, stats.mean) == (1.0, 3.0, 2.0)
    assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0))
    assert stats.n == 3

    flat = aggregate_stats([0.0, 0.0, 0.0])
    assert (flat.best, flat.worst, flat.mean, flat.std) == (0.0, 0.0, 0.0, 0.0)

    mixed = aggregate_stats([0.1, 0.0, 0.3])
    assert mixed.best == 0.0
    assert mixed.worst == 0.3
    assert mixed.mean == pytest.approx(0.13333333333333333)


def test_aggregate_stats_is_duplication_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = list(rng.uniform(-5, 5, size=int(rng.integers(1, 12))))
        once = aggregate_stats(values)
        twice = aggregate_stats(values + values)
        assert twice.best == once.best
        assert twice.worst == once.worst
        assert twice.mean == pytest.approx(once.mean)
        assert twice.std == pytest.approx(once.std)
        assert twice.n == 2 * once.n


def test_aggregate_stats_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_stats([])


# --- config loading ----------------------------------------------------------

def test_bundled_presets_cover_every_function():
    for name in list_functions():
        preset = abco_preset(name)
        assert set(preset) == {
            "N_s", "N_explor", "N_explt", "N_tum", "e", "s", "k",
            "generation_gap", "unchanged_threshold",
        }
    assert abco_preset("sphere")["N_tum"] == 3
    assert abco_preset("sphere")["k"] == 15
    assert abco_preset("ackley")["e"] == 0.05


def test_bundled_experiment_configs_resolve():
    exp2 = load_config("experiment2")
    assert exp2.experiment_id == "experiment2"
    assert exp2.base_seed == 1002
    assert exp2.iterations == 100
    assert exp2.runs_per_cell == 50
    assert exp2.functions == list_functions()
    assert exp2.algorithms == ["abco", "pso", "aco"]
    assert all(cfg.size == 25 for cfg in exp2.abco.values())
    assert exp2.pso.size == 25
    assert exp2.aco.size == 25
    assert exp2.aco.resolved_sample_count == 5

    exp1 = load_config("experiment1")
    assert all(cfg.size == 100 for cfg in exp1.abco.values())
    assert exp1.aco.resolved_sample_count == 25

    exp3 = load_config("experiment3")
    assert exp3.abco["sphere"].size == 15
    assert exp3.abco["booth"].size == 25
    assert exp3.pso.size == 100
    assert exp3.aco.size == 100


def test_preset_parameters_reach_the_colony_configs():
    cfg = load_config("experiment2")
    sphere = cfg.abco["sphere"]
    assert sphere.tumble_steps == 3
    assert sphere.improvement_threshold == pytest.approx(0.4)
    assert sphere.survivor_fraction == pytest.approx(0.5)
    assert sphere.neighbor_count == 15
    ackley = cfg.abco["ackley"]
    assert ackley.tumble_steps == 1
    assert ackley.neighbor_count == 2
    assert all(c.iterations == 100 for c in cfg.abco.values())
    assert cfg.pso.iterations == 100


def test_flat_and_per_function_colony_blocks_merge(tmp_path):
    path = tiny_config(
        tmp_path,
        functions=["booth", "sphere"],
        abco={"size": 8, "s": 0.5, "sphere": {"k": 3}},
    )
    cfg = load_config(path)
    assert cfg.abco["booth"].survivor_fraction == pytest.approx(0.5)
    assert cfg.abco["sphere"].survivor_fraction == pytest.approx(0.5)
    assert cfg.abco["sphere"].neighbor_count == 3
    assert cfg.abco["booth"].neighbor_count == 2  # preset value kept
    assert cfg.abco["booth"].size == 8
    assert cfg.abco["sphere"].size == 8


def test_population_overrides_only_touch_the_colony(tmp_path):
    path = tiny_config(tmp_path, population_overrides={"booth": 4})
    cfg = load_config(path)
    assert cfg.abco["booth"].size == 4
    assert cfg.abco["himmelblau"].size == 6
    assert cfg.pso.size == 6
    assert cfg.aco.size == 6


def test_defaults_fill_missing_optional_keys(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"experiment_id": "bare", "base_seed": 5}))
    cfg = load_config(path)
    assert cfg.iterations == 100
    assert cfg.runs_per_cell == 50
    assert cfg.functions == list_functions()
    assert cfg.algorithms == list(harness.ALGORITHMS)
    assert cfg.pso.size == 25


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ({"abco": {"s": 0.0}}, r"abco\.s"),
        ({"abco": {"sphere": {"s": 1.5}}}, r"abco\.sphere\.s"),
        ({"abco": {"bogus_key": 1}}, r"abco\.bogus_key"),
        ({"abco": {"sphere": {"bogus": 1}}}, r"abco\.sphere\.bogus"),
        ({"pso": {"w_max": 0.1}}, r"pso\.w_max"),
        ({"pso": {"inertia_max": 0.9}}, r"pso\.inertia_max"),
        ({"aco": {"zeta": -1.0}}, r"aco\.zeta"),
        ({"functions": ["booth", "nope"]}, "nope"),
        ({"functions": ["booth", "booth"]}, "duplicate"),
        ({"algorithms": ["abco", "gradient"]}, "gradient"),
        ({"population_overrides": {"nope": 5}}, "nope"),
        ({"population_overrides": {"sphere": 0}}, r"population_overrides\.sphere"),
        ({"iter": 0}, "iter"),
        ({"runs_per_cell": "many"}, "runs_per_cell"),
        ({"surprise": 1}, "surprise"),
    ],
)
def test_load_config_names_the_offending_key(tmp_path, mutation, needle):
    raw = {"experiment_id": "x", "base_seed": 1, "functions": ["booth", "sphere"]}
    raw.update(mutation)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match=needle):
        load_config(path)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ({"abco": {"size": 1.5}}, "abco.size expects an integer, got 1.5"),
        ({"abco": {"N_explor": 1.5}}, "abco.N_explor expects an integer, got 1.5"),
        ({"abco": {"N_explt": 2.0}}, "abco.N_explt expects an integer, got 2.0"),
        ({"abco": {"booth": {"N_tum": 1.5}}}, "abco.booth.N_tum expects an integer, got 1.5"),
        ({"abco": {"k": 1.5}}, "abco.k expects an integer, got 1.5"),
        ({"pso": {"size": 6.5}}, "pso.size expects an integer, got 6.5"),
        ({"aco": {"size": 6.0}}, "aco.size expects an integer, got 6.0"),
        ({"aco": {"sample_count": 2.5}}, "aco.sample_count expects an integer, got 2.5"),
    ],
)
def test_load_config_rejects_fractional_counts(tmp_path, mutation, needle):
    path = tiny_config(tmp_path, **mutation)
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    assert str(err.value) == f"tiny.json: {needle}"


def test_cli_run_rejects_fractional_counts(capsys):
    assert cli_main([
        "run", "--algorithm", "abco", "--function", "booth",
        "--param", "N_explor=1.5",
    ]) == 1
    assert "error: run: abco.N_explor expects an integer, got 1.5" in capsys.readouterr().err
    assert cli_main([
        "run", "--algorithm", "aco", "--function", "booth",
        "--param", "sample_count=2.5",
    ]) == 1
    assert "error: run: aco.sample_count expects an integer, got 2.5" in capsys.readouterr().err


def test_config_errors_use_config_spellings(tmp_path):
    path = tiny_config(tmp_path, pso={"w_max": 0.1})
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    message = str(err.value)
    assert "w_min" in message  # not the internal inertia_min name
    assert "inertia" not in message


def test_missing_base_seed_and_bad_source_are_rejected(tmp_path):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"experiment_id": "x"}))
    with pytest.raises(ConfigurationError, match="base_seed"):
        load_config(path)
    with pytest.raises(FileNotFoundError):
        load_config("experiment99")


# --- seeds -------------------------------------------------------------------

def test_derived_seeds_never_collide_within_an_experiment():
    for cfg_name in harness.BUNDLED_EXPERIMENTS:
        cfg = load_config(cfg_name)
        seeds = {
            derive_seed(cfg.base_seed, fn, algo, run)
            for fn in cfg.functions
            for algo in cfg.algorithms
            for run in range(cfg.runs_per_cell)
        }
        assert len(seeds) == len(cfg.functions) * len(cfg.algorithms) * cfg.runs_per_cell


# --- execution ---------------------------------------------------------------

def test_run_experiment_covers_every_cell_in_order(tmp_path, monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    cfg = load_config(tiny_config(tmp_path))
    records = run_experiment(cfg)
    assert len(records) == 2 * 3 * 2
    expected_order = [
        (fn, algo, run)
        for fn in cfg.functions
        for algo in cfg.algorithms
        for run in range(cfg.runs_per_cell)
    ]
    assert [(r.function, r.algorithm, r.run_index) for r in records] == expected_order
    for record in records:
        assert record.experiment_id == "tiny"
        assert record.seed == derive_seed(99, record.function, record.algorithm,
                                          record.run_index)
        assert not record.failed
        assert record.error >= 0.0
        assert record.evaluations > 0
        assert record.runtime_seconds >= 0.0


def test_run_experiment_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    cfg = load_config(tiny_config(tmp_path))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert [stable_fields(r) for r in first] == [stable_fields(r) for r in second]


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    cfg = load_config(tiny_config(tmp_path))
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    serial = run_experiment(cfg)
    monkeypatch.setenv("SWARM_OPT_THREADS", "2")
    pooled = run_experiment(cfg)
    assert [stable_fields(r) for r in serial] == [stable_fields(r) for r in pooled]


def test_failed_runs_are_flagged_not_fatal(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")

    def explode(objective, cfg, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(harness._RUNNERS, "pso", explode)
    cfg = load_config(tiny_config(tmp_path))
    records = run_experiment(cfg)
    assert len(records) == 12
    broken = [r for r in records if r.algorithm == "pso"]
    assert all(r.failed and math.isnan(r.best_value) and math.isnan(r.error)
               for r in broken)
    assert all(not r.failed for r in records if r.algorithm != "pso")
    assert "boom" in capsys.readouterr().err


def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "3")
    assert harness._worker_count(10) == 3
    assert harness._worker_count(2) == 2  # capped by the task count
    monkeypatch.setenv("SWARM_OPT_THREADS", "0")
    assert harness._worker_count(1) == 1
    monkeypatch.setenv("SWARM_OPT_THREADS", "four")
    with pytest.raises(ConfigurationError, match="SWARM_OPT_THREADS"):
        harness._worker_count(10)


# --- csv ---------------------------------------------------------------------

def test_results_round_trip_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    cfg = load_config(tiny_config(tmp_path))
    records = run_experiment(cfg)
    out = tmp_path / "records.csv"
    write_results(records, out)
    assert out.read_text().splitlines()[0] == harness.CSV_HEADER
    loaded = read_results(out)
    assert loaded == records
    assert [r.failed for r in loaded] == [r.failed for r in records]


def test_failed_rows_survive_the_round_trip(tmp_path):
    record = RunRecord(
        experiment_id="x", function="booth", algorithm="pso", pop_size=5,
        run_index=0, seed=1, best_value=float("nan"), true_minimum=0.0,
        error=float("nan"), evaluations=0, iterations_executed=0,
        early_stopped=False, runtime_seconds=0.0, failed=True,
    )
    out = tmp_path / "failed.csv"
    write_results([record], out)
    loaded = read_results(out)
    assert loaded[0].failed
    assert math.isnan(loaded[0].best_value)


def nan_on_a_quarter(spec):
    """spec with an objective that returns nan on the top quarter of x0."""
    cut = spec.space.upper - (spec.space.upper - spec.space.lower) / 4

    def evaluator(point, inner=spec.evaluator):
        return math.nan if point[0] > cut else inner(point)

    return replace(spec, evaluator=evaluator)


def test_nan_best_is_failed_in_memory_and_after_the_round_trip(tmp_path, monkeypatch):
    # himmelblau returns nan on the whole box, so its runs report a nan best
    # without raising; booth returns nan on a quarter of it.
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    real_spec_of = harness.spec_of

    def patchy_spec(function_id):
        spec = real_spec_of(function_id)
        if function_id == "himmelblau":
            return replace(spec, evaluator=lambda point: math.nan)
        return nan_on_a_quarter(spec)

    monkeypatch.setattr(harness, "spec_of", patchy_spec)
    records = run_experiment(load_config(tiny_config(tmp_path)))
    out = tmp_path / "records.csv"
    write_results(records, out)
    flags = [r.failed for r in records]
    assert flags == [math.isnan(r.best_value) for r in records]
    assert [r.failed for r in read_results(out)] == flags
    assert any(flags) and not all(flags)


def test_every_optimizer_reports_the_lowest_finite_value_it_evaluated():
    # nan on a quarter of the box must neither win a ranking nor hold one
    # against a finite find.
    runners = {
        "abco": (run_abco, AbcoConfig(size=8, iterations=15)),
        "pso": (run_pso, PsoConfig(size=8, iterations=15)),
        "aco": (run_acor, AcorConfig(size=8, iterations=15)),
    }
    for function_id in list_functions():
        spec = nan_on_a_quarter(spec_of(function_id))
        for algorithm_id, (runner, cfg) in runners.items():
            for run_index in range(3):
                lowest = [math.inf]

                def observed(point, inner=spec.evaluator):
                    value = inner(point)
                    if math.isfinite(value):
                        lowest[0] = min(lowest[0], value)
                    return value

                seed = derive_seed(5, function_id, algorithm_id, run_index)
                result = runner(replace(spec, evaluator=observed), cfg, RngStream(seed))
                assert result.best_value == lowest[0], (function_id, algorithm_id, run_index)


def test_read_results_rejects_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)


def test_read_results_names_the_malformed_line(tmp_path):
    record = fabricated_records()[0]
    good = tmp_path / "good.csv"
    write_results([record], good)
    header, row = good.read_text().splitlines()

    short = tmp_path / "bad.csv"
    short.write_text(f"{header}\n{row}\n1,2,3,4\n")
    with pytest.raises(ValueError, match=r"^bad\.csv:3: expected 13 fields, got 4$"):
        read_results(short)

    fields = row.split(",")
    fields[3] = "many"
    wordy = tmp_path / "wordy.csv"
    wordy.write_text(f"{header}\n{','.join(fields)}\n")
    with pytest.raises(ValueError, match=r"^wordy\.csv:2: pop_size .*'many'"):
        read_results(wordy)


# --- table -------------------------------------------------------------------

def fabricated_records():
    rows = []
    for algorithm, errors, runtime in (
        ("abco", [0.1, 0.2, 0.3], 0.05),
        ("pso", [0.4, 0.5, 0.6], 0.01),
    ):
        for index, error in enumerate(errors):
            rows.append(RunRecord(
                experiment_id="t", function="booth", algorithm=algorithm,
                pop_size=25, run_index=index, seed=index, best_value=error,
                true_minimum=0.0, error=error, evaluations=10,
                iterations_executed=5, early_stopped=False,
                runtime_seconds=runtime,
            ))
    return rows


def test_render_table_shape_and_stars():
    text = render_table(fabricated_records())
    lines = text.splitlines()
    assert lines[0] == "booth"
    assert "abco (n=25)" in lines[1] and "pso (n=25)" in lines[1]
    # error and runtime each get best/worst/mean/std
    labels = [line.split()[0] for line in lines[2:10]]
    assert labels == ["error", "worst", "mean", "std", "runtime", "worst", "mean", "std"]
    error_best = lines[2]
    assert "0.1*" in error_best and "0.4" in error_best and "0.4*" not in error_best
    runtime_mean = lines[8]
    assert "0.01*" in runtime_mean


def test_render_table_lists_mixed_population_sizes():
    rows = fabricated_records()
    for extra_index, size in enumerate((15, 15)):
        rows.append(RunRecord(
            experiment_id="t", function="booth", algorithm="abco",
            pop_size=size, run_index=10 + extra_index, seed=0, best_value=0.2,
            true_minimum=0.0, error=0.2, evaluations=10, iterations_executed=5,
            early_stopped=False, runtime_seconds=0.02,
        ))
    assert "abco (n=15,25)" in render_table(rows)


def test_render_table_rejects_empty_input():
    with pytest.raises(ValueError):
        render_table([])


# --- cli ---------------------------------------------------------------------

def test_cli_list_names_everything(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in list_functions():
        assert name in out
    for name in harness.ALGORITHMS:
        assert name in out


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["bogus"]) == 2
    assert cli_main(["table", "--in", str(tmp_path / "absent.csv")]) == 1
    assert cli_main(["run", "--algorithm", "pso", "--function", "nachos"]) == 1
    assert cli_main([
        "run", "--algorithm", "pso", "--function", "booth",
        "--param", "warp=9",
    ]) == 1
    capsys.readouterr()
    assert cli_main([
        "run", "--algorithm", "pso", "--function", "booth",
        "--param", "c1=abc",
    ]) == 1
    assert "error: run: pso.c1 expects a number" in capsys.readouterr().err
    assert cli_main([
        "run", "--algorithm", "abco", "--function", "booth",
        "--param", "k=[1]",
    ]) == 1
    assert "error: run: abco.k expects a number" in capsys.readouterr().err


def test_cli_run_writes_records(tmp_path, capsys):
    out = tmp_path / "cell.csv"
    code = cli_main([
        "run", "--algorithm", "pso", "--function", "booth",
        "--pop-size", "6", "--iters", "5", "--runs", "3",
        "--seed", "17", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "booth/pso over 3 runs" in printed
    records = read_results(out)
    assert len(records) == 3
    assert all(r.pop_size == 6 and r.algorithm == "pso" for r in records)
    assert records[0].seed == derive_seed(17, "booth", "pso", 0)


def test_cli_run_param_overrides_reach_the_optimizer(tmp_path, capsys):
    out = tmp_path / "cell.csv"
    code = cli_main([
        "run", "--algorithm", "abco", "--function", "sphere",
        "--pop-size", "6", "--iters", "4", "--runs", "1",
        "--param", "N_tum=2", "--param", "e=0.1", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    assert read_results(out)[0].evaluations > 0


def test_cli_experiment_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    config_path = tiny_config(tmp_path)
    out_dir = tmp_path / "results"
    assert cli_main(["experiment", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "booth" in printed and "himmelblau" in printed
    records_csv = out_dir / "tiny_records.csv"
    assert records_csv.is_file()
    assert (out_dir / "tiny_error_summary.csv").is_file()
    assert (out_dir / "tiny_runtime_summary.csv").is_file()
    assert len(read_results(records_csv)) == 12

    # the table subcommand reproduces the same rendering from the file
    assert cli_main(["table", "--in", str(records_csv)]) == 0
    assert "booth" in capsys.readouterr().out


def test_summary_files_have_expected_header(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    config_path = tiny_config(tmp_path)
    out_dir = tmp_path / "results"
    cli_main(["experiment", "--config", str(config_path), "--out-dir", str(out_dir)])
    capsys.readouterr()
    lines = (out_dir / "tiny_error_summary.csv").read_text().splitlines()
    assert lines[0] == "function,algorithm,best,worst,mean,std,n"
    assert len(lines) == 1 + 2 * 3  # two functions, three algorithms
    first = lines[1].split(",")
    assert first[0] == "booth" and first[1] == "abco" and first[6] == "2"
