"""swarmopt benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload colony_large --seed 1 --seconds 15 --trace 0

--trace 0 times the workload untraced and reports the end-to-end metrics;
--trace 1 runs it twice, plain and traced, and reports the per-layer
metrics with the tracing overhead. Either way the outputs are checked
after the timed part, human-readable notes go to standard output, and the
last line is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import reference  # noqa: E402  (needs nothing from swarmopt)

WORKLOADS = ("colony_large", "baselines", "sweep")

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "evals_per_s": "evals/s",
    "run_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "benchmarks.evals": "count",
    "benchmarks.eval_us": "us",
    "core.k_nearest.calls": "count",
    "core.k_nearest.us": "us",
    "core.repair_bounds.calls": "count",
    "core.repair_bounds.us": "us",
    "core.seed_population.ms": "ms",
    "abco.explore.ms_per_iter": "ms",
    "abco.exploit.ms_per_iter": "ms",
    "abco.reproduce.ms_per_iter": "ms",
    "abco.early_stop_check.us_per_iter": "us",
    "abco.explore.evals": "count",
    "abco.exploit.evals": "count",
    "abco.reproduce.evals": "count",
    "abco.explore.improve_ratio": "ratio",
    "abco.exploit.move_ratio": "ratio",
    "abco.explore.directed_steps": "count",
    "abco.missed_best_ratio": "ratio",
    "baselines.pso.self_ms_per_run": "ms",
    "baselines.aco.self_ms_per_run": "ms",
    "baselines.merge_archive.us": "us",
    "harness.load_config.ms": "ms",
    "harness.pool_overhead_s": "s",
    "harness.worker_busy_ratio": "ratio",
    "harness.write_results.ms": "ms",
    "harness.read_results.ms": "ms",
    "harness.summaries.ms": "ms",
    "harness.records_bytes": "bytes",
    "quality.mean_error": "objective",
    "trace.overhead_ratio": "ratio",
}

# Set-up is timed in two batches of this many fresh interpreters, one before
# and one after the timed pass, so its median spans the host's speed phases.
SETUP_BATCH = 6
LOAD_SAMPLES = 5

# Timed in a fresh interpreter, so module import is paid every time.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from swarmopt.harness import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def measure_setup(config_path: Path) -> list[float]:
    """Seconds to import swarmopt and resolve the workload's config, once
    per fresh interpreter in a batch of SETUP_BATCH.

    Unlike the run timings this is not scaled by the calibration loop: a
    fresh interpreter's import is file and unmarshal work that the loop,
    running in this process, does not track.
    """
    samples = []
    for _ in range(SETUP_BATCH):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus `pool_workers` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def mean_error(results) -> float:
    """Mean |best - published minimum| over (function, result) pairs."""
    return statistics.fmean(
        abs(result.best_value - reference.FUNCTIONS[function_id][3])
        for function_id, result in results
    )


def latency_notes(wl, samples_by_algorithm) -> list[str]:
    notes = []
    for algorithm, samples in samples_by_algorithm.items():
        line = f"  {algorithm}: n={len(samples)} p50={1e3 * statistics.median(samples):.2f} ms"
        if len(samples) >= 100:  # at least ten runs beyond the 90th percentile
            line += f" p90={wl.latency_ms({algorithm: samples}, 90):.2f} ms"
        notes.append(line)
    return notes


def layer_metrics(tracer, verdict, results, *, overhead, rounds=0, sweeps=(), workers=0):
    """Per-layer figures from a tracer's spans and the traced results."""

    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0, 0])

    def per_call(name, scale, self_time=False):
        calls, total, own, _ = stat(name)
        return scale * (own if self_time else total) / calls if calls else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    colony = stat("abco.run")[0]
    runs = colony + stat("baselines.pso")[0] + stat("baselines.aco")[0]
    directed = sum(r.diagnostics.get("directed_steps", 0) for _, r in results)
    busy = sum(r.runtime_seconds for s in sweeps for r in s.records)
    capacity = sum(s.pool_wall_s for s in sweeps) * workers
    return {
        "benchmarks.evals": ratio(stat("benchmarks.eval")[0], runs),
        "benchmarks.eval_us": per_call("benchmarks.eval", 1e6),
        "core.k_nearest.calls": ratio(stat("core.k_nearest")[0], runs),
        "core.k_nearest.us": per_call("core.k_nearest", 1e6),
        "core.repair_bounds.calls": ratio(stat("core.repair_bounds")[0], runs),
        "core.repair_bounds.us": per_call("core.repair_bounds", 1e6),
        "core.seed_population.ms": per_call("core.seed_population", 1e3),
        "abco.explore.ms_per_iter": per_call("abco.explore", 1e3, self_time=True),
        "abco.exploit.ms_per_iter": per_call("abco.exploit", 1e3, self_time=True),
        "abco.reproduce.ms_per_iter": per_call("abco.reproduce", 1e3, self_time=True),
        "abco.early_stop_check.us_per_iter": per_call("abco.early_stop_check", 1e6),
        "abco.explore.evals": ratio(stat("abco.explore")[3], colony),
        "abco.exploit.evals": ratio(stat("abco.exploit")[3], colony),
        "abco.reproduce.evals": ratio(stat("abco.reproduce")[3], colony),
        "abco.explore.improve_ratio": ratio(tracer.improvements, tracer.tumbles),
        "abco.exploit.move_ratio": ratio(tracer.moves, tracer.visited),
        "abco.explore.directed_steps": ratio(directed, colony),
        "abco.missed_best_ratio": ratio(verdict.missed_best, verdict.colony_runs),
        "baselines.pso.self_ms_per_run": per_call("baselines.pso", 1e3, self_time=True),
        "baselines.aco.self_ms_per_run": per_call("baselines.aco", 1e3, self_time=True),
        "baselines.merge_archive.us": per_call("baselines.merge_archive", 1e6),
        "harness.load_config.ms": per_call("harness.load_config", 1e3),
        "harness.pool_overhead_s": ratio(capacity - busy, len(sweeps)),
        "harness.worker_busy_ratio": ratio(busy, capacity),
        "harness.write_results.ms": per_call("harness.write_results", 1e3),
        "harness.read_results.ms": per_call("harness.read_results", 1e3),
        "harness.summaries.ms": ratio(1e3 * stat("harness.write_summary")[1], rounds),
        "harness.records_bytes": ratio(sum(s.records_csv.stat().st_size for s in sweeps),
                                       len(sweeps)),
        "quality.mean_error": mean_error(results) if results else 0.0,
        "trace.overhead_ratio": overhead,
    }


def run_serial(args, wl, config_path, verdict):
    from tracing import Api, Tracer

    plain = Api()
    cfg = plain.load_config(config_path)
    if not args.trace:
        setup = measure_setup(config_path)
        (outcomes,), rounds = wl.serial_pass(cfg, [(plain, None)], args.seconds)
        rss = peak_rss_mb(0)
        setup_s = statistics.median(setup + measure_setup(config_path))
        raw = sum(o.wall_s for o in outcomes)
        wall = sum(o.scaled_s for o in outcomes)
        replays = wl.replay_all([(o.algorithm, o.function, o.cell, o.seed) for o in outcomes])
        wl.check_serial(outcomes, verdict, replays)
        verdict.attempted = len(outcomes)
        latencies = wl.by_algorithm((o.algorithm, o.scaled_s) for o in outcomes)
        metrics = {
            "setup_s": setup_s,
            "runs_per_s": len(outcomes) / wall,
            "evals_per_s": sum(o.result.evaluations for o in outcomes) / wall,
            "run_ms_p50": wl.latency_ms(latencies, 50),
            "peak_rss_mb": rss,
        }
        notes = [f"rounds: {rounds}, {len(outcomes)} runs take {raw:.3f} s raw, "
                 f"{wall:.3f} s at nominal speed"]
        notes += latency_notes(wl, latencies)
    else:
        tracer = Tracer()
        traced = Api(tracer)
        for _ in range(LOAD_SAMPLES):
            traced.load_config(config_path)
        (untraced, outcomes), rounds = wl.serial_pass(
            cfg, [(plain, None), (traced, tracer)], args.seconds)
        plain_wall = sum(o.wall_s for o in untraced)
        wall = sum(o.wall_s for o in outcomes)
        for a, b in zip(untraced, outcomes):
            verdict.expect(wl.fingerprint(a.result) == wl.fingerprint(b.result),
                           f"{a.function}/{a.algorithm}: traced run differs from plain run")
        wl.check_serial(outcomes, verdict)
        verdict.attempted = len(untraced) + len(outcomes)
        metrics = layer_metrics(tracer, verdict, [(o.function, o.result) for o in outcomes],
                                overhead=wall / plain_wall)
        notes = [f"rounds: {rounds}, runs take {plain_wall:.3f} s plain, {wall:.3f} s traced"]
    notes.append(f"digest: {wl.serial_digest(outcomes)}")
    notes.append(f"mean_error: {mean_error([(o.function, o.result) for o in outcomes])!r}")
    return metrics, notes


def run_sweep(args, wl, config, config_path, workdir, verdict):
    from tracing import Api, Tracer

    workers = max(1, min(2, os.cpu_count() or 1))
    os.environ["SWARM_OPT_THREADS"] = str(workers)
    plain = Api()
    cfg = plain.load_config(config_path)

    def check_canaries(count, api=None):
        algorithm, function_id, seed = wl.CANARY
        cell = wl.cell_config(cfg, algorithm, function_id)
        for result, seen in wl.replay_all([(algorithm, function_id, cell, seed)] * count, api):
            verdict.run("canary", algorithm, function_id, cell, result, seen, canary=True)

    def check_sweeps(sweeps, replays):
        offset = 0
        for sweep in sweeps:
            wl.check_sweep(sweep, config, replays[offset:offset + len(sweep.records)], verdict)
            offset += len(sweep.records)

    if not args.trace:
        setup = measure_setup(config_path)
        (sweeps,), rounds = wl.sweep_pass(cfg, [plain], workdir, args.seconds)
        rss = peak_rss_mb(workers)
        setup_s = statistics.median(setup + measure_setup(config_path))
        raw = sum(s.wall_s for s in sweeps)
        wall = sum(s.wall_s * s.scale for s in sweeps)
        check_canaries(rounds, plain)
        check_sweeps(sweeps, wl.replay_all([t for s in sweeps for t in wl.sweep_tasks(s)]))
        records = [r for sweep in sweeps for r in sweep.records]
        verdict.attempted = len(records) + rounds
        latencies = wl.by_algorithm((r.algorithm, r.runtime_seconds * s.scale)
                                    for s in sweeps for r in s.records)
        busy = sum(r.runtime_seconds for r in records)
        capacity = sum(s.pool_wall_s for s in sweeps) * workers
        metrics = {
            "setup_s": setup_s,
            "runs_per_s": len(records) / wall,
            "evals_per_s": sum(r.evaluations for r in records) / wall,
            "run_ms_p50": wl.latency_ms(latencies, 50),
            "peak_rss_mb": rss,
        }
        notes = [f"rounds: {rounds} sweeps of {len(sweeps[0].records)} runs on {workers} "
                 f"workers take {raw:.3f} s raw, {wall:.3f} s at nominal speed",
                 f"pool overhead: {(capacity - busy) / rounds:.3f} s per sweep, "
                 f"busy ratio {busy / capacity:.3f}"]
        notes += latency_notes(wl, latencies)
    else:
        tracer = Tracer()
        traced = Api(tracer)
        for _ in range(LOAD_SAMPLES):
            traced.load_config(config_path)
        (untraced, sweeps), rounds = wl.sweep_pass(cfg, [plain, traced], workdir, args.seconds)
        plain_wall = sum(s.wall_s for s in untraced)
        wall = sum(s.wall_s for s in sweeps)
        for a, b in zip(untraced, sweeps):
            verdict.expect(
                [dataclasses.replace(r, runtime_seconds=0.0) for r in a.records]
                == [dataclasses.replace(r, runtime_seconds=0.0) for r in b.records],
                f"sweep round {a.round}: traced records differ from plain records")
        tasks = [task for sweep in sweeps for task in wl.sweep_tasks(sweep)]
        with tracer.installed():
            replays = wl.replay_all(tasks, traced)
        check_sweeps(sweeps, replays)
        check_canaries(2 * rounds, plain)
        verdict.attempted = 2 * (sum(len(s.records) for s in sweeps) + rounds)
        metrics = layer_metrics(
            tracer, verdict,
            [(task[1], result) for task, (result, _) in zip(tasks, replays)],
            overhead=wall / plain_wall, rounds=rounds, sweeps=sweeps, workers=workers)
        notes = [f"rounds: {rounds}, sweeps take {plain_wall:.3f} s plain, "
                 f"{wall:.3f} s traced"]
    notes.append(f"digest: {wl.sweep_digest(sweeps[0])}")
    notes.append("mean_error: "
                 f"{mean_error([(r.function, r) for s in sweeps for r in s.records])!r}")
    notes.append(f"canary: {verdict.failed} of {verdict.attempted} runs failed")
    return metrics, notes


def stop_helper_processes():
    """Stop multiprocessing's forkserver and resource tracker, if started.

    The benchmark's own pool forks, but a pool under another start method
    (the default one in harness, on newer Pythons) starts these helpers, and
    they outlive the pool. Each `_stop` waits for its helper to exit and
    does nothing when the helper is not running.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    try:
        return bench(argv)
    finally:
        stop_helper_processes()


def bench(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swarmopt" / "__init__.py").is_file():
        print(f"error: no swarmopt package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    import workloads as wl
    from swarmopt import evaluate, list_functions

    verdict = wl.Verdict()
    verdict.problems += reference.self_check(evaluate, list_functions, args.seed)
    config = wl.generated_config(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        config_path = workdir / f"{args.workload}.json"
        config_path.write_text(json.dumps(config))
        if args.workload == "sweep":
            metrics, notes = run_sweep(args, wl, config, config_path, workdir, verdict)
        else:
            metrics, notes = run_serial(args, wl, config_path, verdict)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload: {args.workload} seed: {args.seed} trace: {args.trace}")
    for line in notes:
        print(line)
    if verdict.colony_runs:
        print(f"known fault: {verdict.missed_best} of {verdict.colony_runs} colony runs "
              "report a best above the lowest value they evaluated")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for problem in verdict.problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
