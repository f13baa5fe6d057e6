"""Which functions of the program each layer's spans wrap, and the
metrics the benchmark reports.

:func:`install` wraps the public entry points of every layer named in
``perfbench/README.md``; the traced run calls it before the workload and
removes the patches afterwards.  :data:`END_TO_END` and
:data:`PER_LAYER` are the metric names and units the benchmark prints;
``BENCHMARK.json`` lists the same names (a test checks that).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.tracing import Patches, Tracer

#: Codec modules under ``repro.protocols``.
CODECS = ("tds", "postgres", "mysql", "resp", "mongo_wire", "bson",
          "http11")
#: DBMSs of the deployment plan (one honeypot family each).
DBMSS = ("mssql", "mysql", "postgresql", "redis", "mongodb",
         "elasticsearch")
#: ``AnalysisStore`` methods and the span each call records.
STORE_SPANS = (("events", "store.scan"), ("profiles", "store.profiles"),
               ("classifications", "store.classify"), ("tf", "store.tf"),
               ("linkage", "store.linkage"), ("rows", "store.query"),
               ("query", "store.query"))

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric.  A workload
#: reports 0 for a layer it does not run (see README.md).
PER_LAYER = (
    ("schedule.plan_s", "s", "lower"),
    ("schedule.world_s", "s", "lower"),
    ("schedule.compile_s", "s", "lower"),
    ("schedule.visits", "count", "higher"),
    ("schedule.select_calls", "count", "lower"),
    ("actor.self_s", "s", "lower"),
    *((f"codec.{codec}.{kind}", unit, "lower") for codec in CODECS
      for kind, unit in (("self_s", "s"), ("calls", "count"))),
    *((f"honeypot.{dbms}.{kind}", unit, "lower") for dbms in DBMSS
      for kind, unit in (("self_s", "s"), ("calls", "count"))),
    ("honeypot.bytes_in", "B", "higher"),
    ("honeypot.bytes_out", "B", "higher"),
    ("emit.self_s", "s", "lower"),
    ("emit.events", "count", "higher"),
    ("replay.pull_s", "s", "lower"),
    ("shard.wall_max_s", "s", "lower"),
    ("shard.wall_sum_s", "s", "lower"),
    ("shard.events_skew", "ratio", "lower"),
    ("transport.wait_s", "s", "lower"),
    ("transport.outcome_bytes", "B", "lower"),
    ("sink.many_s", "s", "lower"),
    ("sink.close_s", "s", "lower"),
    ("writer.cpu_s", "s", "lower"),
    ("writer.wall_s", "s", "lower"),
    ("writer.rows.low", "count", "higher"),
    ("writer.rows.midhigh", "count", "higher"),
    ("db.bytes", "B", "lower"),
    ("checkpoint.count", "count", "higher"),
    ("checkpoint.s", "s", "lower"),
    ("commit.s", "s", "lower"),
    ("journal.bytes", "B", "lower"),
    ("store.scan_s", "s", "lower"),
    ("store.profiles_s", "s", "lower"),
    ("store.classify_s", "s", "lower"),
    ("store.tf_s", "s", "lower"),
    ("store.linkage_s", "s", "lower"),
    ("store.query_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("report.warm_wall_s", "s", "lower"),
    ("store.scans", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("cache.bytes", "B", "lower"),
    ("rss.driver_mb", "MB", "lower"),
    ("rss.workers_mb", "MB", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_ops_ratio", "ratio", "lower"),
)


@dataclass
class Probe:
    """What the wrappers observe besides spans."""

    #: Every replay engine ``build_engine`` returned during the run.
    engines: list = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    #: Pickled size of every outcome a multi-worker engine yielded.
    outcome_bytes: int = 0
    #: ``(thread CPU s, wall s)`` of each SQLite conversion, measured
    #: on its writer thread.
    writers: list = field(default_factory=list)


_DONE = object()


def _traced_replay(replay, ships_outcomes: bool, tracer: Tracer,
                   probe: Probe):
    """``engine.replay`` with one ``replay.pull`` span per outcome.

    The engine is called inside the first pull, because the eager
    sharded engine does all of its pool work in that call.  Each pulled
    visit starts a new trace id, so the spans of one visit -- its
    replay and the driver's handling of its events -- share one.
    """
    pull = tracer.name_id("replay.pull")
    measure = tracer.name_id("bench.outcome_bytes")

    @functools.wraps(replay)
    def traced(*args, **kwargs):
        stream = None
        while True:
            tracer.trace_id += 1
            index = tracer.enter(pull)
            try:
                if stream is None:
                    stream = iter(replay(*args, **kwargs))
                outcome = next(stream, _DONE)
            finally:
                tracer.exit(index)
            if outcome is _DONE:
                return
            probe.bytes_in += outcome.bytes_in
            probe.bytes_out += outcome.bytes_out
            if ships_outcomes:
                # Benchmark work, kept in its own span so it is neither
                # a layer's time nor unattributed driver time.
                index = tracer.enter(measure)
                probe.outcome_bytes += len(
                    pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
                tracer.exit(index)
            yield outcome

    return traced


def _engine_probe(build_engine, tracer: Tracer, probe: Probe):
    @functools.wraps(build_engine)
    def build(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        probe.engines.append(engine)
        engine.replay = _traced_replay(engine.replay, engine.workers > 1,
                                       tracer, probe)
        return engine

    return build


def _wire_span(method, tracer: Tracer):
    """A ``MemoryWire`` method recording ``honeypot.<dbms>`` spans."""
    ids = {dbms: tracer.name_id(f"honeypot.{dbms}") for dbms in DBMSS}

    @functools.wraps(method)
    def traced(wire, *args):
        if not tracer.recording():
            return method(wire, *args)
        dbms = wire.honeypot.dbms
        nid = ids.get(dbms)
        if nid is None:
            nid = ids[dbms] = tracer.name_id(f"honeypot.{dbms}")
        index = tracer.enter(nid)
        try:
            return method(wire, *args)
        finally:
            tracer.exit(index)

    return traced


def _writer_probe(convert, probe: Probe):
    """A conversion entry point timed on the thread that runs it."""
    @functools.wraps(convert)
    def measured(*args, **kwargs):
        wall = time.perf_counter()
        cpu = time.thread_time()
        try:
            return convert(*args, **kwargs)
        finally:
            probe.writers.append((time.thread_time() - cpu,
                                  time.perf_counter() - wall))

    return measured


def _codec_entry_points(module):
    """Public functions and public parser methods defined in ``module``."""
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield None, name, value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attribute, member in vars(value).items():
                if not attribute.startswith("_") and \
                        inspect.isfunction(member):
                    yield value, attribute, member


def install(tracer: Tracer, patches: Patches, probe: Probe) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro import cli
    from repro.agents import population
    from repro.core.store import AnalysisStore
    from repro.deployment import checkpoint, plan, replay
    from repro.honeypots.base import HoneypotSession, MemoryWire
    from repro.pipeline import convert, sinks

    codecs = {name: importlib.import_module(f"repro.protocols.{name}")
              for name in CODECS}
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]

    def span(name):
        return lambda original: tracer.wrap(name, original)

    def everywhere(function, make):
        patches.replace_everywhere(function, modules, make)

    everywhere(plan.build_plan, span("schedule.plan"))
    everywhere(population.build_world, span("schedule.world"))
    everywhere(replay.compile_visits, span("schedule.compile"))
    everywhere(replay.build_engine,
               lambda original: _engine_probe(original, tracer, probe))

    for method in ("connect", "send", "close"):
        patches.replace(MemoryWire, method,
                        lambda original: _wire_span(original, tracer))
    patches.replace(HoneypotSession, "log", span("emit"))
    for name, module in codecs.items():
        for owner, attribute, function in list(_codec_entry_points(module)):
            if owner is None:
                everywhere(function, span(f"codec.{name}"))
            else:
                patches.replace(owner, attribute, span(f"codec.{name}"))

    patches.replace(sinks.TeeSink, "many", span("sink.many"))
    patches.replace(sinks.SQLiteWriterSink, "close", span("sink.close"))
    patches.replace(sinks.SQLiteWriterSink, "commit", span("sink.commit"))
    for function in (convert.convert_to_sqlite, convert.convert_durable):
        everywhere(function, lambda original: _writer_probe(original, probe))
    patches.replace(checkpoint.Checkpointer, "maybe_checkpoint",
                    span("checkpoint"))
    patches.replace(checkpoint.Checkpointer, "complete", span("checkpoint"))

    for method, name in STORE_SPANS:
        patches.replace(AnalysisStore, method, span(name))
    everywhere(cli.report_text, span("report"))


def _self(summary: dict, name: str) -> float:
    return summary.get(name, {}).get("self_s", 0.0)


def _calls(summary: dict, name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def run_metrics(summary: dict, probe: Probe, result) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_experiment``.

    ``summary`` is :func:`~perfbench.tracing.summarize` of its spans,
    with the benchmark's own root span named ``run``.
    """
    from repro.pipeline.convert import count_events

    engine = probe.engines[-1]
    sharded = engine.workers > 1
    metrics = {
        "schedule.plan_s": _self(summary, "schedule.plan"),
        "schedule.world_s": _self(summary, "schedule.world"),
        "schedule.compile_s": _self(summary, "schedule.compile"),
        "schedule.visits": result.visits_total,
        "schedule.select_calls": result.plan.select_calls,
        # Serial pulls replay the visit on this thread; what is left
        # after its honeypot, codec and emission children is the
        # actor/client simulation.  A sharded pull only waits.
        "actor.self_s": 0.0 if sharded else _self(summary, "replay.pull"),
        "honeypot.bytes_in": probe.bytes_in,
        "honeypot.bytes_out": probe.bytes_out,
        "emit.self_s": _self(summary, "emit"),
        "emit.events": _calls(summary, "emit"),
        "replay.pull_s": summary.get("replay.pull", {}).get("total_s", 0.0),
        "transport.outcome_bytes": probe.outcome_bytes,
        "sink.many_s": _self(summary, "sink.many"),
        "sink.close_s": _self(summary, "sink.close"),
        "writer.cpu_s": sum(cpu for cpu, _ in probe.writers),
        "writer.wall_s": sum(wall for _, wall in probe.writers),
        "writer.rows.low": count_events(result.low_db),
        "writer.rows.midhigh": count_events(result.midhigh_db),
        "db.bytes": (Path(result.low_db).stat().st_size
                     + Path(result.midhigh_db).stat().st_size),
        "checkpoint.count": result.checkpoints_taken,
        "checkpoint.s": _self(summary, "checkpoint"),
        "commit.s": _self(summary, "sink.commit"),
        "journal.bytes": (Path(result.journal_path).stat().st_size
                          if result.journal_path else 0),
        "unattributed_s": _self(summary, "run"),
    }
    for codec in CODECS:
        metrics[f"codec.{codec}.self_s"] = _self(summary, f"codec.{codec}")
        metrics[f"codec.{codec}.calls"] = _calls(summary, f"codec.{codec}")
    for dbms in DBMSS:
        metrics[f"honeypot.{dbms}.self_s"] = _self(summary,
                                                   f"honeypot.{dbms}")
        metrics[f"honeypot.{dbms}.calls"] = _calls(summary,
                                                   f"honeypot.{dbms}")
    shards = (engine.stats or {}).get("shards") or []
    if shards:
        walls = [shard["wall_seconds"] for shard in shards]
        events = [shard["events"] for shard in shards]
        metrics["shard.wall_max_s"] = max(walls)
        metrics["shard.wall_sum_s"] = sum(walls)
        metrics["shard.events_skew"] = (max(events)
                                        / statistics.mean(events))
        metrics["transport.wait_s"] = (metrics["replay.pull_s"]
                                       - metrics["shard.wall_max_s"])
    return metrics


def report_metrics(summary: dict, stores_stats: list[dict],
                   cache_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced cold + warm report pair.

    ``stores_stats`` holds ``AnalysisStore.stats`` of every store the
    two passes used; the benchmark's root spans are named ``pass``.
    """
    metrics = {
        "store.scan_s": _self(summary, "store.scan"),
        "store.profiles_s": _self(summary, "store.profiles"),
        "store.classify_s": _self(summary, "store.classify"),
        "store.tf_s": _self(summary, "store.tf"),
        "store.linkage_s": _self(summary, "store.linkage"),
        "store.query_s": _self(summary, "store.query"),
        "report.self_s": _self(summary, "report"),
        "store.scans": sum(stats["scans"] for stats in stores_stats),
        "store.hits": sum(stats["hits"] for stats in stores_stats),
        "store.misses": sum(stats["misses"] for stats in stores_stats),
        "cache.bytes": cache_bytes,
        "unattributed_s": _self(summary, "pass"),
    }
    return metrics
