"""Replay engines: serial and sharded execution of the visit schedule.

The compiled schedule is a time-ordered list of
``(offset, actor_ip, sequence, Visit)`` tuples.  A replay engine turns
it into an ordered stream of :class:`VisitOutcome` objects -- one per
visit, carrying the events the visit emitted, its byte counters, and
its failure (if the visit crashed and was quarantined).  The driver
consumes that stream once, feeding events straight into the sink
pipeline.

Two engines:

* :class:`SerialExecutor` -- one thread, visits in schedule order; the
  exact behavior of the original monolithic loop.
* :class:`ShardedExecutor` -- partitions the schedule by *target
  honeypot* (``crc32(target_key) % workers``), replays each shard on
  its own worker, and merges the per-shard outcome streams back into
  canonical ``(offset, ip, seq)`` order as they arrive.

Partitioning by target is what makes the parallel run *deterministic*
with respect to the serial one.  The actor side is stateless across
visits: every per-visit random stream derives from
``{seed}:{ip}:{seq}`` (visit RNGs) or ``{seed}:{site}:{ip}:{seq}``
(keyed fault decisions such as ``visit.crash``), so a visit's behavior
does not depend on where or when its actor's other visits run.  The
honeypot side is *stateful* across sessions -- attacks wipe keyspaces,
drop ransom notes, load modules, and later visitors (e.g. the
fake-data-aware scouts that ``TYPE`` every surviving key) react to
what they find -- so correctness requires that each honeypot see
exactly the serial session sequence.  Keeping every visit to a target
on one worker, replayed in canonical ``(offset, ip, seq)`` order,
gives each honeypot the same session history as the serial engine;
with both sides pinned, shard assignment cannot change any visit's
outcome and the merged stream is element-for-element the serial
stream.

Workers prefer a ``fork``-context process pool (each worker inherits
the already-built plan and schedule copy-on-write); where ``fork`` is
unavailable the engine falls back to threads, whose per-shard runtime
contexts install thread-locally (see :mod:`repro.runtime`).  Either way
a worker ships its outcomes in batches of :data:`OUTCOME_BATCH` visits
(a forked worker over its shard's own pipe, so a worker that dies even
mid-message gives the driver an end of file, not a partial read that
blocks for good), and the driver runs a streaming k-way
merge over the per-shard streams: an outcome is yielded as soon as
every unfinished shard has one buffered, so the sink pipeline (and
SQLite conversion behind it) overlaps the replay instead of waiting for
the slowest shard.  Across a process boundary each event travels as a
plain tuple (:meth:`VisitOutcome.__reduce__`), which pickles in C.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import random
import signal
import sys
import time
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro import obs
from repro.agents.base import Visit, VisitContext
from repro.agents.population import World
from repro.clients.wire import Wire, WireError
from repro.deployment.plan import DeploymentPlan
from repro.honeypots.base import MemoryWire, SessionContext
from repro.netsim.clock import EXPERIMENT_START, SimClock
from repro.obs import live as obs_live
from repro.obs import logging as obs_logging
from repro.pipeline.logstore import LogEvent
from repro.resilience import faults
from repro.runtime import worker_context

__all__ = [
    "OpsOptions", "ScheduledVisit", "VisitOutcome", "ReplayEngine",
    "SerialExecutor", "ShardedExecutor", "WorkerLostError",
    "build_engine", "compile_visits", "schedule_digest", "shard_of",
]


class WorkerLostError(RuntimeError):
    """A shard worker process died mid-replay (e.g. SIGKILL).

    Raised by the driver-side merge instead of the raw
    ``BrokenProcessPool`` so callers (``repro chaos`` auto-recovery,
    tests) can distinguish "a worker was killed -- resume" from a
    programming error.
    """

#: One schedule entry: (time offset, actor IP, per-actor sequence, visit).
ScheduledVisit = tuple[float, str, int, Visit]


def compile_visits(world: World, plan: DeploymentPlan,
                   seed: int) -> list[ScheduledVisit]:
    """Expand all actors into one time-ordered visit schedule."""
    schedule: list[ScheduledVisit] = []
    for actor in world.actors:
        for sequence, visit in enumerate(actor.compile(plan, seed)):
            schedule.append((visit.time_offset, actor.ip, sequence, visit))
    schedule.sort(key=lambda item: (item[0], item[1], item[2]))
    return schedule


def schedule_digest(schedule: Sequence[ScheduledVisit]) -> str:
    """Content digest of a compiled schedule's identity columns.

    Recorded in the run journal header and recomputed on resume: equal
    digests prove the recompiled schedule is the one the checkpoints
    were taken against (same seed, scale, and population code), which
    is what licenses fast-forwarding past a watermark.
    """
    import hashlib

    digest = hashlib.sha256()
    for offset, actor_ip, sequence, visit in schedule:
        digest.update(f"{offset!r}:{actor_ip}:{sequence}:"
                      f"{visit.target_key}\n".encode("utf-8"))
    return digest.hexdigest()


def shard_of(target_key: str, workers: int) -> int:
    """Deterministic shard assignment (stable across processes/runs).

    Keyed on the visit's target honeypot: honeypots carry cross-session
    state, so all sessions of one honeypot must replay on one worker
    (see the module docstring's determinism argument).
    """
    return zlib.crc32(target_key.encode("utf-8")) % workers


@dataclass(slots=True)
class VisitOutcome:
    """Everything one replayed visit produced."""

    offset: float
    actor_ip: str
    sequence: int
    target_key: str
    events: list[LogEvent]
    bytes_in: int = 0
    bytes_out: int = 0
    #: ``"ExceptionType: message"`` when the visit crashed (its events
    #: then belong in the dead letter, not the pipeline).
    failure: str | None = None
    #: True when a resume fast-forwarded this visit: its events are
    #: already durable on disk, so ``events`` is stripped (saving the
    #: cross-process copy) and only ``events_count`` survives for the
    #: run-wide accounting.
    committed: bool = False
    #: Event count recorded before a committed outcome's events were
    #: stripped; ``None`` for live outcomes.
    events_count: int | None = None

    @property
    def key(self) -> tuple[float, str, int]:
        return (self.offset, self.actor_ip, self.sequence)

    def event_total(self) -> int:
        """Events this visit generated, whether or not still attached."""
        return (self.events_count if self.events_count is not None
                else len(self.events))

    def __reduce__(self):
        # Events pickle as plain tuples; see _rebuild_outcome.
        return (_rebuild_outcome,
                (self.offset, self.actor_ip, self.sequence,
                 self.target_key, [tuple(event) for event in self.events],
                 self.bytes_in, self.bytes_out, self.failure,
                 self.committed, self.events_count))


def _rebuild_outcome(offset, actor_ip, sequence, target_key, events,
                     *rest) -> VisitOutcome:
    """Unpickle a :class:`VisitOutcome`, re-typing each plain tuple as a
    :class:`LogEvent` without re-running its constructor."""
    new = LogEvent._from_tuple
    return VisitOutcome(offset, actor_ip, sequence, target_key,
                        [new(event) for event in events], *rest)


@dataclass(slots=True)
class _DriverWire:
    """A MemoryWire wrapper that surfaces server-side closes and the
    ``wire.disconnect`` injection site to the visiting script."""

    inner: MemoryWire
    fault_plan: faults.FaultPlan

    def connect(self) -> bytes:
        return self.inner.connect()

    def send(self, data: bytes) -> bytes:
        if self.inner.server_closed:
            raise WireError("connection closed by server")
        if not self.fault_plan.is_noop:
            self.fault_plan.maybe_raise(
                "wire.disconnect",
                lambda: WireError("connection reset by peer (injected)"))
        return self.inner.send(data)

    def close(self) -> None:
        self.inner.close()


def _replay_visit(plan: DeploymentPlan, clock: SimClock, seed: int,
                  offset: float, actor_ip: str, sequence: int,
                  visit: Visit, span: Callable,
                  rng: random.Random | None = None) -> VisitOutcome:
    """Replay one visit into a private buffer; never raises.

    Crash containment: a session/script exception marks the outcome
    failed (its events travel with it, for the dead letter) and the
    replay continues -- one poisoned session must never abort the whole
    deployment window.

    Ambient state (the fault plan, the telemetry bundle) is resolved
    once here and threaded through the visit's wires, so the
    per-message ``send()`` hot path never touches a thread-local.  The
    visit key is formatted once and shared by the RNG seed and the
    keyed ``visit.crash`` draw -- ``f"{seed}:{visit_key}"`` is
    character-identical to the historical ``f"{seed}:{ip}:{seq}"``
    derivation, and re-seeding a loop-reused ``rng`` is CPython's own
    ``Random(str)`` construction path, so every random stream is
    unchanged.
    """
    clock.seek(EXPERIMENT_START + timedelta(seconds=offset))
    visit_key = f"{actor_ip}:{sequence}"
    if rng is None:
        rng = random.Random(f"{seed}:{visit_key}")
    else:
        rng.seed(f"{seed}:{visit_key}")
    events: list[LogEvent] = []
    open_wires: list[MemoryWire] = []
    metrics = obs.current().metrics
    fault_plan = faults.current()

    def opener(target_key: str, *, _ip=actor_ip, _rng=rng) -> Wire:
        target = plan.by_key(target_key)
        context = SessionContext(
            src_ip=_ip, src_port=_rng.randint(1024, 65535),
            clock=clock, sink=events.append)
        wire = MemoryWire(target.honeypot, context, fault_plan)
        open_wires.append(wire)
        return _DriverWire(wire, fault_plan)

    failure: str | None = None
    try:
        with span("replay.visit", actor=actor_ip,
                  target=visit.target_key, seq=sequence):
            if not fault_plan.is_noop:
                fault_plan.maybe_raise("visit.crash", key=visit_key)
            visit.script(VisitContext(opener=opener,
                                      target_key=visit.target_key,
                                      rng=rng))
    except Exception as error:
        failure = f"{type(error).__name__}: {error}"
    # Close any connection the script left dangling, and fold the
    # per-session byte counters into the visit totals.
    bytes_in = 0
    bytes_out = 0
    for wire in open_wires:
        try:
            wire.close()
        except Exception:
            metrics.inc("resilience.close_errors")
        bytes_in += wire.context.bytes_in
        bytes_out += wire.context.bytes_out
    return VisitOutcome(offset=offset, actor_ip=actor_ip,
                        sequence=sequence, target_key=visit.target_key,
                        events=events, bytes_in=bytes_in,
                        bytes_out=bytes_out, failure=failure)


@dataclass
class OpsOptions:
    """Driver-provided live-ops wiring for one replay.

    Everything is optional and additive: with the default options a
    replay behaves exactly as before (no bus, no shard tracing, no
    flight dumps), so live telemetry can never perturb the event
    stream -- it only *observes* the worker registries.
    """

    #: Stream shard metrics deltas to the parent over the bus.
    live: bool = False
    #: Seconds between shard delta emissions.
    emit_interval: float = 0.5
    #: Parent-side live aggregate (shared with ``/metrics``); the
    #: executor builds one if live is on and none is given.
    aggregator: "obs_live.LiveAggregator | None" = None
    #: Runs on the bus drainer thread after each fold (progress lines,
    #: incremental snapshots); exceptions are contained by the bus.
    on_message: "Callable | None" = None
    #: Give each shard a real tracer and stitch its spans back into
    #: the driver timeline (shard-prefixed pids in the Chrome export).
    trace_shards: bool = False
    #: Directory for crash flight dumps (``flight_shard<k>.jsonl``).
    flight_dir: Path | None = None
    #: Correlation id bound into every worker ops-log record.
    run_id: str | None = None
    #: Resume watermark ``(offset, ip, seq)``: visits at or below it
    #: fast-forward (honeypot state + RNG/fault accounting rebuilt,
    #: events stripped as already durable).
    watermark: tuple[float, str, int] | None = None


@dataclass
class _WorkerOps:
    """The picklable slice of :class:`OpsOptions` a worker needs
    (the bus queue rides separately: inherited over fork, passed by
    reference to threads)."""

    tracing: bool = False
    emit_interval: float = 0.5
    flight_dir: str | None = None
    run_id: str | None = None
    watermark: tuple[float, str, int] | None = None
    #: ``proc.kill`` evaluates only in forked workers (a serial or
    #: thread "worker" is the driver -- killing it is not a recoverable
    #: chaos scenario); the seeded victim draw needs the worker count.
    kill_armed: bool = False
    workers: int = 1


class ReplayEngine:
    """Turns a compiled schedule into an ordered outcome stream."""

    name = "abstract"
    workers = 1
    #: Populated by :meth:`replay` with the manifest's ``replay``
    #: section (shard sizes, per-shard wall times, transport wait).
    stats: dict | None = None

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        raise NotImplementedError


class SerialExecutor(ReplayEngine):
    """Single-threaded replay in schedule order (the reference engine).

    The driver's own registry *is* the live aggregate here -- metrics
    land in it as visits replay -- so the bus is never needed; the ops
    options only contribute the flight-dump coverage the driver
    already arms process-wide.
    """

    name = "serial"

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        self.stats = {"executor": self.name, "workers": 1}
        watermark = ops.watermark if ops is not None else None
        clock = SimClock()
        span = telemetry.tracer.span
        rng = random.Random()  # reused: re-seeded per visit
        for offset, actor_ip, sequence, visit in schedule:
            if watermark is not None and \
                    (offset, actor_ip, sequence) <= watermark:
                yield _fast_forward_visit(plan, clock, seed, offset,
                                          actor_ip, sequence, visit, rng)
            else:
                yield _replay_visit(plan, clock, seed, offset, actor_ip,
                                    sequence, visit, span, rng)


def _fast_forward_visit(plan: DeploymentPlan, clock: SimClock, seed: int,
                        offset: float, actor_ip: str, sequence: int,
                        visit: Visit,
                        rng: random.Random | None = None) -> VisitOutcome:
    """Re-replay an already-committed visit during a resume.

    Honeypots are stateful across sessions, so the only way to put the
    fleet back into its pre-crash state is to replay the committed
    prefix -- with the same per-visit RNG derivation and keyed fault
    decisions, so the rebuilt state is bit-for-bit what the original
    run produced.  Metrics and tracing are muted (the run journal
    restores the driver-side snapshot instead, avoiding double
    counting), fault-plan counters still advance (chaos accounting must
    span the crash boundary), and the events are stripped: they are
    already fsync-durable on disk, which is what the checkpoint proved.
    """
    with obs.install_local(obs.NULL_TELEMETRY):
        outcome = _replay_visit(plan, clock, seed, offset, actor_ip,
                                sequence, visit,
                                obs.NULL_TELEMETRY.tracer.span, rng)
    outcome.events_count = len(outcome.events)
    outcome.events = []
    outcome.committed = True
    return outcome


@dataclass
class _ShardResult:
    """What one worker ships back to the driver."""

    shard: int
    wall_seconds: float
    #: :meth:`repro.runtime.RunContext.report` of the worker.
    report: dict
    #: Shard totals, counted in the worker (the outcomes themselves
    #: went to the driver as they replayed).
    visits: int = 0
    events: int = 0
    quarantined: int = 0


#: Copy-on-write state for fork-pool workers, set by the parent
#: immediately before the pool is created (workers inherit it).
_FORK_STATE: dict | None = None

#: Visits per outcome message: large enough that transport and pickle
#: overhead amortize, small enough that the driver's merge (and the
#: SQLite writers behind it) never wait long for a shard's next outcome.
OUTCOME_BATCH = 128


def _replay_shard(plan: DeploymentPlan, shard: int,
                  schedule: Sequence[ScheduledVisit], seed: int,
                  telemetry_enabled: bool,
                  fault_payload: dict | None,
                  ops: _WorkerOps, bus_queue,
                  send: Callable[[tuple], None]) -> _ShardResult:
    """Replay one shard under its own thread-local runtime context.

    Outcomes go to the driver through ``send`` as they replay: one
    ``("batch", shard, outcomes)`` message per :data:`OUTCOME_BATCH`
    visits, the last one partial, then one ``("done", shard)`` marker.
    """
    context = worker_context(telemetry_enabled, fault_payload,
                             tracing=ops.tracing)
    telemetry = context.telemetry
    emitter = None
    if bus_queue is not None and telemetry_enabled:
        emitter = obs_live.ShardEmitter(shard, telemetry.metrics,
                                        bus_queue.put,
                                        interval=ops.emit_interval)
    correlation = {"shard": shard}
    if ops.run_id is not None:
        correlation["run_id"] = ops.run_id
    flight_path = (Path(ops.flight_dir) / f"flight_shard{shard}.jsonl"
                   if ops.flight_dir is not None and telemetry_enabled
                   else None)
    watermark = (tuple(ops.watermark) if ops.watermark is not None
                 else None)
    start = time.perf_counter()
    batch: list[VisitOutcome] = []
    visits = events_total = quarantined = 0
    with context.activate_local(), obs_logging.bind(**correlation):
        shard_plan = faults.current()
        kill_armed = ops.kill_armed and shard_plan is not faults.NULL_PLAN
        if kill_armed:
            # Every worker derives the same seeded victim; only the
            # victim shard ever evaluates the site, so the kill point
            # is reproducible and exactly one worker dies.
            victim = random.Random(
                f"{shard_plan.seed}:proc.kill:victim").randrange(
                    max(1, ops.workers))
            kill_armed = victim == shard
        logger = telemetry.logger
        logger.info("shard.start", visits=len(schedule),
                    resuming=watermark is not None)
        with (telemetry.flight.armed(flight_path) if flight_path
              else _NO_FLIGHT):
            span = telemetry.tracer.span
            clock = SimClock()
            rng = random.Random()  # reused: re-seeded per visit
            for offset, actor_ip, sequence, visit in schedule:
                committed = (watermark is not None and
                             (offset, actor_ip, sequence) <= watermark)
                if kill_armed and not committed and \
                        shard_plan.should_fire("proc.kill"):
                    logger.error("proc.kill", actor=actor_ip,
                                 seq=sequence,
                                 target=visit.target_key)
                    os.kill(os.getpid(), signal.SIGKILL)
                if committed:
                    outcome = _fast_forward_visit(plan, clock, seed,
                                                  offset, actor_ip,
                                                  sequence, visit, rng)
                else:
                    outcome = _replay_visit(plan, clock, seed, offset,
                                            actor_ip, sequence, visit,
                                            span, rng)
                visits += 1
                events_total += outcome.event_total()
                if outcome.failure is not None:
                    quarantined += 1
                    if not committed:
                        logger.warning("visit.quarantined",
                                       actor=actor_ip, seq=sequence,
                                       target=visit.target_key,
                                       failure=outcome.failure)
                if emitter is not None:
                    emitter.advance(outcome.event_total())
                batch.append(outcome)
                if len(batch) == OUTCOME_BATCH:
                    send(("batch", shard, batch))
                    batch = []
        if batch:
            send(("batch", shard, batch))
        send(("done", shard))
        if emitter is not None:
            emitter.flush()
        logger.info("shard.done", visits=visits, events=events_total)
    return _ShardResult(shard=shard,
                        wall_seconds=time.perf_counter() - start,
                        report=context.report(), visits=visits,
                        events=events_total, quarantined=quarantined)


class _NoFlight:
    """Placeholder context when no flight dump path is configured."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NO_FLIGHT = _NoFlight()


def _check_futures(futures) -> None:
    """Surface a dead worker while the streaming merge is idle.

    SIGKILLing a pool worker breaks every pending future; without this
    check the merge would poll its queue forever.
    """
    for future in futures:
        if future.done() and future.exception() is not None:
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                raise WorkerLostError(
                    "shard worker process died mid-replay") from error
            raise error


def _merge_ready(buffers: list[deque], done: list[bool]
                 ) -> Iterator[VisitOutcome]:
    """Pop buffered outcomes in canonical order while that is safe.

    Each shard's stream is canonically ordered, so once every
    unfinished shard has an outcome buffered the smallest head is
    globally minimal; when all shards are done this drains everything.
    """
    while True:
        best = None
        for index, buffer in enumerate(buffers):
            if buffer:
                if best is None or buffer[0].key < buffers[best][0].key:
                    best = index
            elif not done[index]:
                return
        if best is None:
            return
        yield buffers[best].popleft()


def _replay_shard_forked(shard: int) -> _ShardResult:
    state = _FORK_STATE
    assert state is not None, "fork state not set before pool creation"
    # Only the driver may hold read ends: if it abandons the merge and
    # closes them, a send blocked on a full pipe fails (EPIPE) instead
    # of hanging the pool's shutdown.
    for reader in state["readers"]:
        reader.close()
    return _replay_shard(state["plan"], shard, state["shards"][shard],
                         state["seed"], state["telemetry_enabled"],
                         state["fault_payload"], state["ops"],
                         state["bus_queue"], state["writers"][shard].send)


def _pipe_receiver(readers: list) -> Callable[[float], list]:
    """Receive from the shards' pipes: each call waits up to ``timeout``
    and returns one message from every pipe that had one ready.

    A pipe whose shard is done leaves the wait set.  Only workers hold
    write ends, so once a worker has died and the pool has terminated
    the rest, every read ends -- even one that stopped mid-message.
    """
    open_readers = dict(enumerate(readers))

    def receive(timeout: float) -> list:
        messages = []
        for reader in multiprocessing.connection.wait(
                list(open_readers.values()), timeout):
            try:
                message = reader.recv()
            except (EOFError, OSError) as error:
                raise WorkerLostError(
                    "shard worker process died mid-replay") from error
            if message[0] == "done":
                del open_readers[message[1]]
            messages.append(message)
        return messages
    return receive


def _queue_receiver(out_queue) -> Callable[[float], list]:
    """Receive from the thread pool's shared queue, one message a call."""
    def receive(timeout: float) -> list:
        try:
            return [out_queue.get(timeout=timeout)]
        except queue_module.Empty:
            return []
    return receive


class ShardedExecutor(ReplayEngine):
    """Partition-by-target replay on a worker pool, merged canonically
    while the shards stream their outcomes in.

    ``pool`` selects the worker flavor: ``"fork"`` (process pool,
    copy-on-write state -- the default where available), ``"thread"``
    (in-process, useful where fork is not), or ``"auto"``.
    """

    name = "sharded"

    def __init__(self, workers: int, *, pool: str = "auto"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pool not in ("auto", "fork", "thread"):
            raise ValueError(f"unknown pool {pool!r}")
        if pool == "auto":
            pool = ("fork" if "fork"
                    in multiprocessing.get_all_start_methods()
                    else "thread")
        self.workers = workers
        self.pool = pool
        #: Parent-side live bus of the most recent replay (``None``
        #: unless :class:`OpsOptions` enabled streaming telemetry).
        self.live_bus: "obs_live.LiveBus | None" = None

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        """Replay the shards on the pool, yielding outcomes in canonical
        order as they arrive (see :func:`_merge_ready`).

        A worker death surfaces as :class:`WorkerLostError` instead of
        a hang.
        """
        global _FORK_STATE
        shards = [[] for _ in range(self.workers)]
        for entry in schedule:
            shards[shard_of(entry[3].target_key, self.workers)].append(entry)
        fault_payload = None
        driver_plan = faults.current()
        if driver_plan is not faults.NULL_PLAN:
            fault_payload = driver_plan.payload()

        kill_armed = (self.pool == "fork" and
                      "proc.kill" in driver_plan.sites)
        bus = None
        worker_ops = _WorkerOps(kill_armed=kill_armed, workers=self.workers)
        if ops is not None:
            if ops.live and telemetry.enabled:
                bus = obs_live.LiveBus(self._make_queue(),
                                       aggregator=ops.aggregator,
                                       on_message=ops.on_message)
                bus.start()
            worker_ops = _WorkerOps(
                tracing=ops.trace_shards and telemetry.enabled,
                emit_interval=ops.emit_interval,
                flight_dir=(str(ops.flight_dir)
                            if ops.flight_dir is not None else None),
                run_id=ops.run_id,
                watermark=ops.watermark,
                kill_armed=kill_armed,
                workers=self.workers)
        self.live_bus = bus
        bus_queue = bus.queue if bus is not None else None

        buffers: list[deque] = [deque() for _ in shards]
        done = [False] * len(shards)
        wait_seconds = 0.0
        batches = 0
        try:
            readers = writers = []
            if self.pool == "thread":
                pool = ThreadPoolExecutor(max_workers=self.workers)
                out_queue = queue_module.Queue()
                receive = _queue_receiver(out_queue)

                def submit(index: int):
                    return pool.submit(_replay_shard, plan, index,
                                       shards[index], seed,
                                       telemetry.enabled, fault_payload,
                                       worker_ops, bus_queue, out_queue.put)
            else:
                # Workers inherit plan + shards copy-on-write, so nothing
                # is rebuilt and only outcomes cross the process
                # boundary.  Each worker replays against its own
                # (inherited, fresh) honeypot fleet.
                readers, writers = zip(*(multiprocessing.Pipe(duplex=False)
                                         for _ in shards))
                receive = _pipe_receiver(readers)
                _FORK_STATE = {
                    "plan": plan, "shards": shards, "seed": seed,
                    "telemetry_enabled": telemetry.enabled,
                    "fault_payload": fault_payload, "ops": worker_ops,
                    "bus_queue": bus_queue, "readers": readers,
                    "writers": writers}
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"))

                def submit(index: int):
                    return pool.submit(_replay_shard_forked, index)

            with pool:
                futures = [submit(index) for index in range(len(shards))]
                # A fork pool starts all its workers on the first
                # submit; from here on only they hold write ends.
                for writer in writers:
                    writer.close()
                pending = len(shards)
                try:
                    while pending:
                        waited = time.perf_counter()
                        messages = receive(0.25)
                        wait_seconds += time.perf_counter() - waited
                        if not messages:
                            _check_futures(futures)
                            continue
                        for message in messages:
                            if message[0] == "done":
                                done[message[1]] = True
                                pending -= 1
                            else:
                                buffers[message[1]].extend(message[2])
                                batches += 1
                        yield from _merge_ready(buffers, done)
                finally:
                    for reader in readers:
                        reader.close()
                try:
                    results = [future.result() for future in futures]
                except BrokenProcessPool as error:
                    raise WorkerLostError(
                        "shard worker process died mid-replay") \
                        from error
        finally:
            _FORK_STATE = None
            # Every worker's final flush was queued before its future
            # resolved, so stopping here folds the complete stream.
            if bus is not None:
                bus.stop()

        live_stats, stitched_spans = self._absorb_results(
            results, telemetry, driver_plan, worker_ops, bus)
        self.stats = {
            "executor": self.name,
            "workers": self.workers,
            "pool": self.pool,
            # Driver time blocked receiving outcomes, and the outcome
            # batches it received (``"done"`` markers not counted).
            "wait_seconds": wait_seconds,
            "batches": batches,
            "live": live_stats,
            "stitched_spans": stitched_spans,
            "shards": [{
                "shard": result.shard,
                "visits": result.visits,
                "events": result.events,
                "quarantined_visits": result.quarantined,
                "wall_seconds": result.wall_seconds,
            } for result in sorted(results, key=lambda r: r.shard)],
        }

    def _absorb_results(self, results, telemetry, driver_plan,
                        worker_ops, bus):
        """Fold each worker's metrics and fault counters back into the
        driver's ambient runtime so run-wide accounting stays exact.
        (The live aggregate is display-side only; this end-of-run merge
        stays the single source of truth for the manifest.)"""
        merged_reports = obs.MetricsRegistry() if telemetry.enabled \
            else None
        for result in results:
            metrics = result.report.get("metrics")
            if metrics:
                telemetry.metrics.merge(metrics)
                if merged_reports is not None:
                    merged_reports.merge(metrics)
            fault_counts = result.report.get("faults")
            if fault_counts:
                driver_plan.absorb(fault_counts)

        stitched_spans = 0
        if worker_ops is not None and worker_ops.tracing:
            # Stitch per-shard traces into one timeline: the driver's
            # spans stay on Chrome pid 1, each shard gets its own
            # process lane.
            telemetry.tracer.process_names.setdefault(1, "driver")
            for result in sorted(results, key=lambda r: r.shard):
                spans = result.report.get("spans") or []
                stitched_spans += telemetry.tracer.absorb(
                    spans, pid=result.shard + 2,
                    name=f"shard {result.shard}")

        live_stats = None
        if bus is not None:
            progress = bus.aggregator.progress()
            live_stats = {
                "emissions": progress["emissions"],
                "callback_errors": bus.callback_errors,
                # The delta-merge invariant, checked on every live run:
                # folding the streamed deltas must reconstruct exactly
                # the end-of-run merged registry (counters+histograms).
                "equals_merged": obs_live.counters_equal(
                    bus.aggregator.snapshot(),
                    merged_reports.snapshot()),
            }
        return live_stats, stitched_spans

    def _make_queue(self):
        """A bus queue workers of this pool flavor can reach: plain
        in-process for threads, a fork-context pipe for processes."""
        if self.pool == "thread":
            return queue_module.Queue()
        return multiprocessing.get_context("fork").SimpleQueue()


def resolve_workers(requested: "int | str", *,
                    cores: int | None = None) -> int:
    """Resolve a ``--workers`` request into a concrete worker count.

    ``"auto"`` resolves to ``min(requested_cores, cpu_count)`` -- i.e.
    one worker per available core, and never more than the host can
    actually run (on a single-core host that is serial replay, the
    faster configuration there per ``BENCH_replay.json``).  An explicit
    integer is honored verbatim, but when it shards on a single-core
    host -- where sharding measured 0.75x serial -- a warning goes to
    stderr and the ``replay.single_core_sharding`` counter, so users
    do not silently pessimize their runs.
    """
    if cores is None:
        cores = os.cpu_count() or 1
    if requested == "auto":
        return max(1, cores)
    try:
        workers = int(requested)
    except (TypeError, ValueError):
        raise ValueError(f"workers must be an integer >= 1 or 'auto', "
                         f"got {requested!r}") from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', "
                         f"got {requested!r}")
    if workers > 1 and cores == 1:
        obs.current().metrics.inc("replay.single_core_sharding",
                                  workers=workers)
        obs.current().logger.warning("replay.single_core_sharding",
                                     workers=workers, cores=cores)
        print(f"warning: --workers {workers} shards the replay on a "
              f"single-core host, which benchmarks slower than serial "
              f"(see BENCH_replay.json); use --workers auto to match "
              f"the hardware", file=sys.stderr)
    return workers


def build_engine(workers: int, executor: str = "auto",
                 pool: str = "auto") -> ReplayEngine:
    """Resolve ``ExperimentConfig.workers``/``executor``/``pool``
    into an engine."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor == "auto":
        executor = "sharded" if workers > 1 else "serial"
    if executor == "serial":
        return SerialExecutor()
    if executor == "sharded":
        return ShardedExecutor(workers, pool=pool)
    raise ValueError(f"unknown executor {executor!r} "
                     "(expected auto, serial, or sharded)")
