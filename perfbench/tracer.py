"""Spans and counters around the pipeline's layers, recorded from outside it.

:class:`Tracer` replaces, for the life of a ``with`` block, the names the
pipeline resolves at call time (module globals and class attributes) with
wrappers that record a span per call: layer, start, end, parent span and the
Spark jobs the call launched. Jobs are attributed with a per-span Spark job
group read back through ``statusTracker().getJobIdsForGroup``; a child's jobs
belong to the child only. The benchmark's own call sites open spans with
:meth:`Tracer.span`. Nothing under ``src/`` is edited.

Spans stay in memory until the run ends; :meth:`Tracer.layer_metrics`
folds them into the per-layer metrics of ``BENCHMARK.json``. Its
``tracing.overhead_s`` is the wrappers' own time outside the spans they
record, measured in the traced run itself; comparing the traced pass with
an untraced run of the same seed takes two runs, so one run cannot report
it.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass

import pandas as pd

from workloads import trace_fingerprint

JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    jobs: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_engine(c: Counter, trace, args, kwargs) -> None:
    for key, n in trace_fingerprint(trace).items():
        c[f"engine.{key}"] += n


def _count_load(c: Counter, trace, args, kwargs) -> None:
    c["engine.cache_hits"] += 1


def _count_stats(c: Counter, out, args, kwargs) -> None:
    c["stats.calls"] += 1
    if isinstance(out, pd.DataFrame):
        c["stats.rows_out"] += len(out)


def _pricing_counter(tables: int):
    """Counter for a pricing function that prices ``tables`` assignment
    tables of (queries x ticks) cells each (simulate_batch_switch: 2)."""
    def count(c: Counter, res, args, kwargs) -> None:
        c["pricing.calls"] += 1
        c["pricing.cells"] += tables * len(res.latencies) * (int(args[0]["iter"].max()) + 1)
    return count


def _count_mape(c: Counter, fired, args, kwargs) -> None:
    c["mape.decisions"] += 1
    c["mape.fired"] += int(bool(fired))


def _count_qcut(c: Counter, res, args, kwargs) -> None:
    rounds = len(res.perturbation_steps)
    c["qcut.runs"] += 1
    c["qcut.rounds"] += rounds
    c["qcut.clusters"] += len(res.clusters)
    # stopped before the round cap with spread queries left: the wall-clock
    # time_budget cut the ILS short (cost 0 ends the ILS early by itself)
    c["qcut.budget_hits"] += int(rounds < kwargs.get("max_rounds", 50) and res.cost_final > 0)


def _count_moves(c: Counter, out, args, kwargs) -> None:
    c["moves.calls"] += 1
    c["moves.vertices"] += int(out[1])


class Tracer:
    """Records spans at layer boundaries of one benchmark process."""

    def __init__(self, spark_context):
        self.sc = spark_context
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, layer: str) -> tuple[int, str | None]:
        idx = len(self.spans)
        prev_group = self.sc.getLocalProperty(JOB_GROUP)
        self.sc.setLocalProperty(JOB_GROUP, f"span-{idx}")
        self.spans.append(
            Span(layer, 0.0, self._stack[-1] if self._stack else None)
        )
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx, prev_group

    def _close(self, idx: int, prev_group: str | None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        span.jobs = len(self.sc.statusTracker().getJobIdsForGroup(f"span-{idx}"))
        self.sc.setLocalProperty(JOB_GROUP, prev_group)

    @contextlib.contextmanager
    def span(self, layer: str):
        """Span around one of the benchmark's own calls into a layer."""
        t_in = time.perf_counter()
        idx, prev = self._open(layer)
        try:
            yield
        finally:
            self._close(idx, prev)
            s = self.spans[idx]
            self.overhead_s += (time.perf_counter() - t_in) - s.duration

    def _wrap(self, layer: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            idx, prev = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, prev)
            if count is not None:
                count(self.counts, out, args, kwargs)
            self.overhead_s += (time.perf_counter() - t_in) - self.spans[idx].duration
            return out

        return wrapper

    def patch(self, owner, name: str, layer: str, count=None) -> None:
        """Route ``owner.name`` (a module global or class attribute) through
        a span of ``layer`` until the ``with`` block ends."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(layer, raw.__func__, count))
        else:
            new = self._wrap(layer, raw, count)
        self._patched.append((owner, name, raw))
        setattr(owner, name, new)

    def __enter__(self) -> "Tracer":
        import repro.controller.simulator as simulator
        import repro.experiments as experiments
        from repro.controller.adaptivity import AdaptiveController
        from repro.controller.stats import TraceStats
        from repro.engine.trace import Trace

        # names as the pipeline resolves them: trace_for calls the edges_df
        # and run_queries bound in repro.experiments; run_experiment calls
        # the pricing, Q-cut and move functions bound in the simulator
        self.patch(experiments, "edges_df", "engine")
        self.patch(experiments, "run_queries", "engine", _count_engine)
        self.patch(Trace, "save", "engine")
        self.patch(Trace, "load", "engine.load", _count_load)
        for m in ("__init__", "close", "active_counts", "message_counts", "scope_vertices"):
            self.patch(TraceStats, m, "stats", _count_stats)
        self.patch(simulator, "simulate_batch", "pricing", _pricing_counter(1))
        self.patch(simulator, "simulate_batch_switch", "pricing", _pricing_counter(2))
        self.patch(AdaptiveController, "should_repartition", "mape", _count_mape)
        self.patch(simulator, "run_qcut", "qcut", _count_qcut)
        self.patch(simulator, "_apply_qcut_moves", "moves", _count_moves)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched.clear()

    # -- report --------------------------------------------------------------
    def layer_metrics(self, pass_start: float, pass_end: float) -> dict[str, float]:
        """Per-layer wall time, Spark jobs and counters over all spans, and
        the share of the timed pass that top-level spans cover."""
        wall: Counter = Counter()
        jobs: Counter = Counter()
        calls: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            wall[s.layer] += s.duration
            jobs[s.layer] += s.jobs
            calls[s.layer] += 1
            if s.parent is not None:
                child_s[s.parent] += s.duration
        sim_self = sum(
            s.duration - child_s[i] for i, s in enumerate(self.spans) if s.layer == "simulator"
        )
        covered = sum(
            s.duration for s in self.spans
            if s.parent is None and s.start >= pass_start and s.end <= pass_end
        )
        c = self.counts
        steps = c["engine.supersteps"]
        return {
            "roadnet.wall_s": wall["roadnet"],
            "queries.wall_s": wall["queries"],
            "engine.wall_s": wall["engine"],
            "engine.supersteps": steps,
            "engine.spark_jobs": jobs["engine"],
            "engine.jobs_per_superstep": jobs["engine"] / steps if steps else 0.0,
            "engine.activation_rows": c["engine.activation_rows"],
            "engine.message_rows": c["engine.message_rows"],
            "engine.cache_hits": c["engine.cache_hits"],
            "engine.cache_load_s": wall["engine.load"],
            "stats.wall_s": wall["stats"],
            "stats.calls": c["stats.calls"],
            "stats.spark_jobs": jobs["stats"],
            "stats.rows_out": c["stats.rows_out"],
            "pricing.wall_s": wall["pricing"],
            "pricing.calls": c["pricing.calls"],
            "pricing.cells": c["pricing.cells"],
            "mape.decisions": c["mape.decisions"],
            "mape.fired": c["mape.fired"],
            "qcut.wall_s": wall["qcut"],
            "qcut.runs": c["qcut.runs"],
            "qcut.rounds": c["qcut.rounds"],
            "qcut.clusters": c["qcut.clusters"],
            "qcut.budget_hits": c["qcut.budget_hits"],
            "moves.wall_s": wall["moves"],
            "moves.calls": c["moves.calls"],
            "moves.vertices": c["moves.vertices"],
            "simulator.self_s": sim_self,
            "simulator.calls": calls["simulator"],
            "spans.coverage": covered / (pass_end - pass_start),
            "tracing.overhead_s": self.overhead_s,
        }
