"""Spans around the calls into each swarmopt module, kept in memory.

The benchmark owns all instrumentation: nothing in swarmopt is edited. A
Tracer wraps public functions at the names their callers look them up by
(abco imports k_nearest, repair_bounds and seed_population from core, so
those are patched in abco's namespace; baselines likewise for
repair_bounds and merge_archive). Spans are aggregated as they close into
per-name calls, total time, self time (total minus the time of nested
spans) and objective evaluations made inside the span, so a traced run
holds a few counters, not millions of span records.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager

from swarmopt import abco, baselines, harness


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s, evals]
        self.evals = 0
        self._child_time = [0.0]
        # Explore/exploit bookkeeping read off the stage arguments.
        self.tumbles = 0
        self.improvements = 0
        self.visited = 0
        self.moves = 0
        self._pending = None

    def span(self, name, fn):
        """`fn` wrapped so each call records one span named `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child_time = self._child_time
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            evals_before = tracer.evals
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = child_time.pop()
                child_time[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
                stat[3] += tracer.evals - evals_before

        return traced

    def evaluator(self, fn):
        """An objective wrapped as the `benchmarks.eval` span."""
        stat = self.stats.setdefault("benchmarks.eval", [0, 0.0, 0.0, 0])
        child_time = self._child_time
        clock = time.perf_counter
        tracer = self

        def traced(point):
            start = clock()
            value = fn(point)
            elapsed = clock() - start
            child_time[-1] += elapsed
            tracer.evals += 1
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed
            return value

        return traced

    def _settle_tumble(self):
        # Exactly one evaluation follows each tumble, and only it can move
        # that member's personal best, so a changed best is one improvement.
        if self._pending is not None:
            member, before = self._pending
            if member.best_solution != before:
                self.improvements += 1
            self._pending = None

    def _tumble(self, fn):
        def traced(bacterium, *args):
            self._settle_tumble()
            self._pending = (bacterium, bacterium.best_solution)
            self.tumbles += 1
            return fn(bacterium, *args)

        return traced

    def _explore(self, fn):
        def stage(state, cfg, *args):
            try:
                return fn(state, cfg, *args)
            finally:
                self._settle_tumble()

        return self.span("abco.explore", stage)

    def _exploit(self, fn):
        def stage(state, cfg, *args):
            if len(state.population) >= 2:
                self.visited += cfg.exploit_steps * len(state.population)
            before = state.diagnostics.get("exploit_moves", 0)
            try:
                return fn(state, cfg, *args)
            finally:
                self.moves += state.diagnostics.get("exploit_moves", 0) - before

        return self.span("abco.exploit", stage)

    @contextmanager
    def installed(self):
        """Patch the module-level names the optimizers call through."""
        patches = [
            (abco, "k_nearest", self.span("core.k_nearest", abco.k_nearest)),
            (abco, "repair_bounds", self.span("core.repair_bounds", abco.repair_bounds)),
            (baselines, "repair_bounds", self.span("core.repair_bounds", baselines.repair_bounds)),
            (abco, "seed_population", self.span("core.seed_population", abco.seed_population)),
            (abco, "tumble_step", self._tumble(abco.tumble_step)),
            (abco, "explore_stage", self._explore(abco.explore_stage)),
            (abco, "exploit_stage", self._exploit(abco.exploit_stage)),
            (abco, "reproduce_stage", self.span("abco.reproduce", abco.reproduce_stage)),
            (abco, "early_stop_check", self.span("abco.early_stop_check", abco.early_stop_check)),
            (baselines, "merge_archive", self.span("baselines.merge_archive", baselines.merge_archive)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapped in patches:
                setattr(module, name, wrapped)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)


class Api:
    """The public entry points the benchmark calls, traced or plain."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        entries = {
            "run_abco": ("abco.run", abco.run_abco),
            "run_pso": ("baselines.pso", baselines.run_pso),
            "run_acor": ("baselines.aco", baselines.run_acor),
            "load_config": ("harness.load_config", harness.load_config),
            "run_experiment": ("harness.run_experiment", harness.run_experiment),
            "write_results": ("harness.write_results", harness.write_results),
            "write_summary": ("harness.write_summary", harness.write_summary),
            "read_results": ("harness.read_results", harness.read_results),
            "render_table": ("harness.render_table", harness.render_table),
        }
        for attribute, (span, fn) in entries.items():
            setattr(self, attribute, tracer.span(span, fn) if tracer else fn)
        self.runners = {"abco": self.run_abco, "pso": self.run_pso, "aco": self.run_acor}

    def objective(self, spec):
        """`spec` with its evaluator counted, and traced when tracing is on.

        Returns the spec to pass to an optimizer and a two-element list the
        wrapper keeps current: [evaluations, lowest finite value].
        """
        seen = [0, math.inf]
        inner = spec.evaluator

        def observed(point):
            value = inner(point)
            seen[0] += 1
            if value < seen[1] and value != -math.inf:
                seen[1] = value
            return value

        evaluator = self.tracer.evaluator(observed) if self.tracer else observed
        return dataclasses.replace(spec, evaluator=evaluator), seen
