"""Experiment harness: config loading, sweeps, statistics, CSV, CLI."""

import hashlib
import json
import math
from dataclasses import fields, replace

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
    write_summary,
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

# The colony parameters the bundled preset tunes; every other function runs
# on AbcoConfig's defaults.
TUNED = {
    "himmelblau": {"survivor_fraction": 0.3, "neighbor_count": 5},
    "sphere": {"tumble_steps": 3, "survivor_fraction": 0.5, "neighbor_count": 15},
}


def captured_runs(monkeypatch) -> list:
    """The configs cli_main hands to run_experiment, which runs none of them."""
    configs = []
    monkeypatch.setattr(harness, "run_experiment", lambda cfg: configs.append(cfg) or [])
    return configs


def test_bundled_preset_pins_each_functions_colony_config(monkeypatch):
    exp2 = load_config("experiment2")
    configs = captured_runs(monkeypatch)
    for name in list_functions():
        expected = AbcoConfig(size=25, iterations=100, **TUNED.get(name, {}))
        assert exp2.abco[name] == expected
        assert cli_main(["run", "--algorithm", "abco", "--function", name]) == 0
        assert configs.pop().abco[name] == expected
    assert abco_preset("ackley") == {}
    assert abco_preset("sphere") == {"N_tum": 3, "s": 0.5, "k": 15}


def test_load_config_parses_the_colony_presets_once(monkeypatch):
    reads, load = [], harness._load_preset
    monkeypatch.setattr(harness, "_load_preset", lambda name: reads.append(name) or load(name))
    harness._abco_presets.cache_clear()
    for name in harness.BUNDLED_EXPERIMENTS:
        load_config(name)
    assert reads.count("abco.json") == 1
    # Each lookup is a fresh dict, so a caller's edit reaches no later one.
    abco_preset("sphere")["k"] = 1
    assert abco_preset("sphere")["k"] == 15
    assert load_config("experiment2").abco["sphere"].neighbor_count == 15


def test_bundled_preset_keys_are_registry_functions_with_valid_blocks():
    # .get(fn, {}) never raises, so a misspelt id would drop its tuning silently.
    table = harness._load_preset("abco.json")
    assert set(table) <= set(list_functions())
    for name, block in table.items():
        assert block
        harness._resolve(AbcoConfig, "abco.json", [(name, block)])


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
    assert cfg.abco["booth"].neighbor_count == 2  # default kept: booth has no preset block
    assert cfg.abco["booth"].size == 8
    assert cfg.abco["sphere"].size == 8


def test_population_overrides_only_touch_the_colony(tmp_path):
    path = tiny_config(tmp_path, population_overrides={"booth": 4})
    cfg = load_config(path)
    assert cfg.abco["booth"].size == 4
    assert cfg.abco["himmelblau"].size == 6
    assert cfg.pso.size == 6
    assert cfg.aco.size == 6
    # the alias is abco.<fn>.size under another name
    assert load_config(tiny_config(tmp_path, abco={"size": 6, "booth": {"size": 4}})) == cfg


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
        ({"functions": ["booth"], "population_overrides": {"sphere": 0}},
         r"population_overrides\.sphere"),
        # the key is named by the block that gave it, not the last block read
        ({"functions": ["sphere"], "abco": {"s": 0.0, "sphere": {"k": 3}}},
         r"^bad\.json: abco\.s must be in \(0, 1\], got 0\.0$"),
        # blocks for functions that do not run are range-checked too
        ({"functions": ["booth"], "abco": {"sphere": {"s": 5.0, "k": 0}}},
         r"^bad\.json: abco\.sphere\.s must be in \(0, 1\], got 5\.0$"),
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


@pytest.mark.parametrize("block,needle", [
    ({"e": 0.05}, "abco.e"),
    ({"booth": {"e": 0.4}}, "abco.booth.e"),
])
def test_the_retired_improvement_threshold_is_an_unknown_key(tmp_path, capsys, block, needle):
    # `e` gated a directed step that no run takes, so it was removed.
    with pytest.raises(ConfigurationError) as err:
        load_config(tiny_config(tmp_path, abco=block))
    assert str(err.value) == f"tiny.json: unknown key {needle}"
    assert cli_main(["run", "--algorithm", "abco", "--function", "booth",
                     "--param", "e=0.05"]) == 1
    assert "run: unknown key abco.e" in capsys.readouterr().err


FLOAT_FIELDS = [(cls, f.name) for cls in (AbcoConfig, PsoConfig, AcorConfig)
                for f in fields(cls) if f.type == "float"]


def test_every_float_field_is_listed():
    assert len(FLOAT_FIELDS) == 10


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_config_fields_must_be_finite(cls, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value}$"):
        cls(**{name: value})


def test_non_finite_values_are_rejected_from_files_and_params(tmp_path, capsys):
    with pytest.raises(ConfigurationError) as err:
        load_config(tiny_config(tmp_path, pso={"c1": math.inf}))
    assert str(err.value) == "tiny.json: pso.c1 must be finite, got inf"
    assert cli_main(["run", "--algorithm", "aco", "--function", "booth",
                     "--param", "intent_factor=Infinity"]) == 1
    assert capsys.readouterr().err == "error: run: aco.intent_factor must be finite, got inf\n"


@pytest.mark.parametrize("experiment_id", ["sub/run", "../x", "sub\\run", ".", "..", "a\u0000b"])
def test_experiment_id_must_be_a_plain_file_name(tmp_path, monkeypatch, capsys, experiment_id):
    monkeypatch.setattr(harness, "run_experiment", lambda cfg: pytest.fail("a run started"))
    path = tiny_config(tmp_path, experiment_id=experiment_id)
    out_dir = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: tiny.json: experiment_id must be a plain file name, got {experiment_id!r}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["functions", "algorithms"])
def test_load_config_rejects_an_empty_id_list(tmp_path, capsys, key):
    path = tiny_config(tmp_path, **{key: []})
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    assert str(err.value) == f"tiny.json: {key} must name at least one id"
    out_dir = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    assert f"{key} must name at least one id" in capsys.readouterr().err
    assert not out_dir.exists()


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


def test_malformed_json_names_its_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment_id": "x", }')
    with pytest.raises(ConfigurationError, match=r"^broken\.json: Expecting property name"):
        load_config(path)
    assert cli_main(["experiment", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: broken.json: Expecting property name")


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


def test_failure_warning_names_the_exception_type(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    real_spec_of = harness.spec_of

    def dividing_spec(function_id):
        return replace(real_spec_of(function_id), evaluator=lambda point: 1 / 0)

    monkeypatch.setattr(harness, "spec_of", dividing_spec)
    cfg = load_config(tiny_config(tmp_path, functions=["booth"], algorithms=["aco"],
                                  runs_per_cell=1))
    [record] = run_experiment(cfg)
    assert record.failed
    assert capsys.readouterr().err == (
        "warning: booth/aco run 0 failed: ZeroDivisionError: division by zero\n")


def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.setenv("SWARM_OPT_THREADS", "3")
    assert harness._worker_count(10) == 3
    assert harness._worker_count(2) == 2  # capped by the task count
    monkeypatch.setenv("SWARM_OPT_THREADS", "0")
    assert harness._worker_count(1) == 1
    monkeypatch.setenv("SWARM_OPT_THREADS", "four")
    with pytest.raises(ConfigurationError, match="SWARM_OPT_THREADS"):
        harness._worker_count(10)
    monkeypatch.setenv("SWARM_OPT_THREADS", "-1")
    with pytest.raises(ConfigurationError, match="SWARM_OPT_THREADS must be 0 or more, got '-1'"):
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

    # a boolean cell is exactly true or false, not anything else read as false
    for cell in ("True", "1", "yes", ""):
        fields = row.split(",")
        fields[11] = cell
        loose = tmp_path / "loose.csv"
        loose.write_text(f"{header}\n{','.join(fields)}\n")
        with pytest.raises(ValueError, match=rf"^loose\.csv:2: early_stopped .*'{cell}'$"):
            read_results(loose)


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


def varied_records():
    """Records out of canonical order: failed runs, a cell with no live run,
    mixed population sizes, tied statistics, and an algorithm (aco) that
    first appears on the second function but ranks after pso on the first."""
    layout = [("booth", "abco", 25), ("himmelblau", "aco", 100),
              ("himmelblau", "pso", 25), ("booth", "pso", 25), ("booth", "aco", 100),
              ("booth", "abco", 15), ("easom", "pso", 25), ("easom", "aco", 100)]
    rows = []
    for index, (function, algorithm, size) in enumerate(layout * 3):
        error = (index % 5) * 10.0 ** (index % 4 - 2)
        failed = (function, algorithm) == ("easom", "aco") or index % 7 == 3
        best = math.nan if failed else error - 1.5
        rows.append(RunRecord(
            experiment_id="t", function=function, algorithm=algorithm,
            pop_size=size, run_index=index, seed=index, best_value=best,
            true_minimum=-1.5, error=math.nan if failed else error,
            evaluations=10 + index, iterations_executed=5, early_stopped=index % 2 == 0,
            runtime_seconds=0.01 * (1 + index % 3) / 3.0, failed=failed,
        ))
    return rows


# Digests of what write_summary and render_table gave for varied_records()
# before they shared one grouping by cell.
SUMMARY_OUTPUT_DIGESTS = {
    "error": "086d019561341f10cf9886745cd27e5fb1c2c47ee1065e96938cb97d5859f678",
    "runtime_seconds": "f9eca14a1c2a54f4bacdf494891e3f681f1d97fee4836ed22f082e7103d8a284",
    "table": "10294b8da17cc2992b1350951d3401d748b22fa621fa5a51b28352b887a50101",
}


def test_summaries_and_table_are_byte_identical_on_a_fixed_record_set(tmp_path):
    records = varied_records()
    for metric in ("error", "runtime_seconds"):
        path = tmp_path / f"{metric}.csv"
        write_summary(records, metric, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SUMMARY_OUTPUT_DIGESTS[metric]
    table = render_table(records).encode()
    assert hashlib.sha256(table).hexdigest() == SUMMARY_OUTPUT_DIGESTS["table"]
    # booth's rows follow the algorithms' first appearance over all live
    # records (abco, aco, pso), not within booth (abco, pso, aco).
    rows = (tmp_path / "error.csv").read_text().splitlines()[1:]
    assert [tuple(row.split(",")[:2]) for row in rows] == [
        ("booth", "abco"), ("booth", "aco"), ("booth", "pso"),
        ("himmelblau", "aco"), ("himmelblau", "pso"), ("easom", "pso")]


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
    out = tmp_path / "f.csv"
    for runs in ("0", "-2"):
        assert cli_main([
            "run", "--algorithm", "pso", "--function", "booth",
            "--runs", runs, "--out", str(out),
        ]) == 1
        assert f"error: run: --runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert not out.exists()
    for flag in ("--iters", "--pop-size"):
        assert cli_main([
            "run", "--algorithm", "pso", "--function", "booth",
            flag, "0", "--out", str(out),
        ]) == 1
        assert f"error: run: {flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


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


def test_cli_run_makes_the_out_directory_before_any_run(tmp_path, monkeypatch, capsys):
    configs = captured_runs(monkeypatch)
    out = tmp_path / "missing" / "deeper" / "cell.csv"
    argv = ["run", "--algorithm", "pso", "--function", "booth", "--runs", "2"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert len(configs) == 1 and read_results(out) == []
    capsys.readouterr()
    # A parent that is a file fails before the cell runs.
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    assert cli_main(argv + ["--out", str(blocked / "cell.csv")]) == 1
    assert "File exists" in capsys.readouterr().err
    assert len(configs) == 1


def test_cli_run_refuses_an_out_that_is_a_directory_before_any_run(
        tmp_path, monkeypatch, capsys):
    configs = captured_runs(monkeypatch)
    assert cli_main(["run", "--algorithm", "pso", "--function", "booth", "--iters", "2",
                     "--runs", "2", "--out", str(tmp_path)]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert configs == []


def test_cli_run_param_overrides_reach_the_optimizer(tmp_path, capsys):
    out = tmp_path / "cell.csv"
    code = cli_main([
        "run", "--algorithm", "abco", "--function", "sphere",
        "--pop-size", "6", "--iters", "4", "--runs", "1",
        "--param", "N_tum=2", "--param", "s=0.5", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    assert read_results(out)[0].evaluations > 0


def test_cli_run_param_takes_what_a_config_abco_block_takes(monkeypatch, capsys):
    configs = captured_runs(monkeypatch)
    assert cli_main(["run", "--algorithm", "abco", "--function", "sphere",
                     "--param", "k=4", "--param", 'sphere={"k": 3, "size": 9}',
                     "--pop-size", "12"]) == 0
    assert (configs[0].abco["sphere"].neighbor_count, configs[0].abco["sphere"].size) == (3, 9)
    # A block for a function that does not run is checked, and changes nothing.
    assert cli_main(["run", "--algorithm", "abco", "--function", "booth",
                     "--param", 'sphere={"k": 3}', "--pop-size", "12"]) == 0
    assert configs[1].abco["booth"] == AbcoConfig(size=12, iterations=100)
    assert cli_main(["run", "--algorithm", "abco", "--function", "booth",
                     "--param", 'sphere={"k": 0}']) == 1
    assert "error: run: abco.sphere.k must be" in capsys.readouterr().err


def test_cli_run_honours_swarm_opt_threads(monkeypatch, capsys):
    monkeypatch.setenv("SWARM_OPT_THREADS", "-1")
    assert cli_main(["run", "--algorithm", "pso", "--function", "booth"]) == 1
    assert capsys.readouterr().err == "error: SWARM_OPT_THREADS must be 0 or more, got '-1'\n"


@pytest.mark.parametrize("experiment,function,algorithm,pop_size", [
    ("experiment3", "sphere", "abco", 15),
    ("experiment3", "booth", "aco", 100),
    ("experiment2", "ackley", "pso", 25),
])
def test_cli_run_reproduces_a_slice_of_an_experiment(
        tmp_path, monkeypatch, capsys, experiment, function, algorithm, pop_size):
    monkeypatch.setenv("SWARM_OPT_THREADS", "1")
    cfg = load_config(experiment)
    argv = ["run", "--algorithm", algorithm, "--function", function,
            "--pop-size", str(pop_size), "--iters", str(cfg.iterations),
            "--runs", "2", "--seed", str(cfg.base_seed)]
    configs = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda run_cfg: configs.append(run_cfg) or run_experiment(run_cfg))

    out = tmp_path / "cell.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()

    def cell(experiment):
        return experiment.abco[function] if algorithm == "abco" else getattr(experiment, algorithm)

    assert cell(configs[0]) == cell(cfg)
    sliced = run_experiment(replace(cfg, functions=[function], algorithms=[algorithm],
                                    runs_per_cell=2))

    def comparable(record):
        return replace(record, experiment_id="", runtime_seconds=0.0)

    assert [comparable(r) for r in read_results(out)] == [comparable(r) for r in sliced]


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

    # the summaries and table written from one grouping match the public
    # functions on the records read back
    records = read_results(records_csv)
    for metric, name in (("error", "error"), ("runtime_seconds", "runtime")):
        write_summary(records, metric, tmp_path / "expected.csv")
        assert ((out_dir / f"tiny_{name}_summary.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
    assert printed.endswith("\n\n" + render_table(records))

    # the table subcommand reproduces the same rendering from the file
    assert cli_main(["table", "--in", str(records_csv)]) == 0
    assert capsys.readouterr().out == render_table(records)


def test_cli_experiment_refuses_an_out_dir_that_is_a_file_before_any_run(
        tmp_path, monkeypatch, capsys):
    configs = captured_runs(monkeypatch)
    out_dir = tmp_path / "results"
    out_dir.write_text("")
    assert cli_main(["experiment", "--config", str(tiny_config(tmp_path)),
                     "--out-dir", str(out_dir)]) == 1
    assert "File exists" in capsys.readouterr().err
    assert configs == []


@pytest.mark.parametrize("name", ["records", "error_summary", "runtime_summary"])
def test_cli_experiment_refuses_an_output_that_is_a_directory_before_any_run(
        tmp_path, monkeypatch, capsys, name):
    configs = captured_runs(monkeypatch)
    (tmp_path / f"tiny_{name}.csv").mkdir()
    assert cli_main(["experiment", "--config", str(tiny_config(tmp_path)),
                     "--out-dir", str(tmp_path)]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert configs == []


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
