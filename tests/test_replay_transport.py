"""The shard transport: outcome wire format and the streaming merge.

Sharded replay ships every visit outcome from its worker to the driver
in batches of ``OUTCOME_BATCH`` visits, with each event pickled as a
plain tuple, and the driver merges the per-shard streams back into
canonical order as they arrive.  These tests pin the wire format (the
events that come out are the events that went in, byte-for-byte in
every serialization), the merge's edge cases (empty shards, shards that
end exactly on or before a batch boundary), and recovery from a worker
killed in the middle of a batch.
"""

import hashlib
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.agents.population import build_world
from repro.deployment import ExperimentConfig, run_experiment
from repro.deployment.plan import build_plan
from repro.deployment.replay import (OUTCOME_BATCH, SerialExecutor,
                                     ShardedExecutor, VisitOutcome,
                                     WorkerLostError, compile_visits,
                                     shard_of)
from repro.obs import report as obs_report
from repro.pipeline.convert import count_events, prefix_digest
from repro.pipeline.logstore import LogEvent
from repro.resilience import faults
from repro.resilience.deadletter import DeadLetterWriter

SEED = 2024
REPO_ROOT = Path(__file__).resolve().parents[1]

EVENT = LogEvent(timestamp=1700000000.125, honeypot_id="low-mysql-007",
                 honeypot_type="qeeqbox", dbms="mysql", interaction="low",
                 config="default", src_ip="198.51.100.7", src_port=40123,
                 event_type="login_attempt", action="LOGIN",
                 username="root", password="pässwörd\"1",
                 raw="\x00\x01 raw ✓")
SPARSE_EVENT = LogEvent(1.5, "mid-redis-001", "redis_honeypot", "redis",
                        "medium", "fake_data", "203.0.113.9", 6379,
                        "command")

# Golden serializations, recorded with the frozen-dataclass LogEvent this
# named tuple replaced: neither the raw logs nor any repr may change.
EVENT_REPR = (
    "LogEvent(timestamp=1700000000.125, honeypot_id='low-mysql-007', "
    "honeypot_type='qeeqbox', dbms='mysql', interaction='low', "
    "config='default', src_ip='198.51.100.7', src_port=40123, "
    "event_type='login_attempt', action='LOGIN', username='root', "
    "password='pässwörd\"1', raw='\\x00\\x01 raw ✓')")
EVENT_JSON = (
    '{"timestamp":1700000000.125,"honeypot_id":"low-mysql-007",'
    '"honeypot_type":"qeeqbox","dbms":"mysql","interaction":"low",'
    '"config":"default","src_ip":"198.51.100.7","src_port":40123,'
    '"event_type":"login_attempt","action":"LOGIN","username":"root",'
    '"password":"pässwörd\\"1","raw":"\\u0000\\u0001 raw ✓"}')
SPARSE_REPR = (
    "LogEvent(timestamp=1.5, honeypot_id='mid-redis-001', "
    "honeypot_type='redis_honeypot', dbms='redis', interaction='medium', "
    "config='fake_data', src_ip='203.0.113.9', src_port=6379, "
    "event_type='command', action=None, username=None, password=None, "
    "raw=None)")
SPARSE_JSON = (
    '{"timestamp":1.5,"honeypot_id":"mid-redis-001",'
    '"honeypot_type":"redis_honeypot","dbms":"redis",'
    '"interaction":"medium","config":"fake_data","src_ip":"203.0.113.9",'
    '"src_port":6379,"event_type":"command","action":null,'
    '"username":null,"password":null,"raw":null}')
DEAD_LETTER_LINE = (
    '{"kind":"visit","reason":"RuntimeError: boom","actor":"198.51.100.7",'
    '"seq":3,"target":"low/multi/1/mysql","offset":12.5,"events":['
    + EVENT_JSON + "," + SPARSE_JSON + "]}\n")

#: Pickled size (highest protocol) of :func:`sixteen_event_outcome`
#: when each event pickled through the dataclass ``__getstate__``.
DATACLASS_PICKLED_BYTES = 1308

#: sha256 of ``quarantine.jsonl`` of a ``visit-crash`` chaos run at
#: seed 2024, scale 5e-4, recorded with the dataclass LogEvent.
VISIT_CRASH_DEAD_LETTER_SHA256 = (
    "967bdb4b10d8b8ed5d48809293256ba1f4606d642fa5511e7325b8bdfdf3b626")


def sixteen_event_outcome() -> VisitOutcome:
    events = [LogEvent(1700000000.0 + i / 8, f"low-mysql-{i % 3:03d}",
                       "qeeqbox", "mysql", "low", "default", "198.51.100.7",
                       40000 + i, "login_attempt", "LOGIN", "root",
                       f"pw{i}", None)
              for i in range(16)]
    return VisitOutcome(offset=12.5, actor_ip="198.51.100.7", sequence=3,
                        target_key="low-mysql-000:mysql", events=events,
                        bytes_in=100, bytes_out=200)


class TestLogEventFormat:
    def test_repr_matches_golden(self):
        assert repr(EVENT) == EVENT_REPR
        assert repr(SPARSE_EVENT) == SPARSE_REPR

    def test_to_json_matches_golden(self):
        assert EVENT.to_json() == EVENT_JSON
        assert SPARSE_EVENT.to_json() == SPARSE_JSON

    def test_from_json_round_trips(self):
        assert repr(LogEvent.from_json(EVENT_JSON)) == EVENT_REPR
        assert LogEvent.from_json(SPARSE_JSON) == SPARSE_EVENT

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            EVENT.src_ip = "192.0.2.1"
        with pytest.raises(AttributeError):
            EVENT.new_field = 1

    def test_dead_letter_bytes_match_golden(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        with DeadLetterWriter(path) as writer:
            writer.quarantine("visit", "RuntimeError: boom",
                              actor="198.51.100.7", seq=3,
                              target="low/multi/1/mysql", offset=12.5,
                              events=[EVENT, SPARSE_EVENT])
        assert path.read_text(encoding="utf-8") == DEAD_LETTER_LINE


class TestOutcomePickling:
    @pytest.mark.parametrize("outcome", [
        VisitOutcome(1.0, "198.51.100.7", 0, "low/multi/1/mysql",
                     [EVENT, SPARSE_EVENT], bytes_in=10, bytes_out=20),
        VisitOutcome(2.0, "198.51.100.7", 1, "low/multi/1/mysql",
                     [EVENT], failure="RuntimeError: boom"),
        VisitOutcome(3.0, "198.51.100.7", 2, "low/multi/1/mysql", [],
                     committed=True, events_count=7),
    ], ids=["live", "failed", "committed"])
    def test_round_trip(self, outcome):
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            restored = pickle.loads(pickle.dumps(outcome, protocol))
            assert restored == outcome
            assert all(type(event) is LogEvent
                       for event in restored.events)
            assert restored.event_total() == outcome.event_total()

    def test_events_travel_as_plain_tuples(self):
        outcome = sixteen_event_outcome()
        size = len(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        assert size < DATACLASS_PICKLED_BYTES
        # Events are anonymous tuples on the wire: only the rebuild
        # function is named, never the event class.
        assert pickle.dumps(outcome).count(b"LogEvent") == 0


def fresh_schedule(scale=0.0001):
    """Plan and schedule built fresh: honeypots mutate during replay."""
    plan = build_plan(seed=SEED)
    world = build_world(seed=SEED, volume_scale=scale)
    return plan, compile_visits(world, plan, SEED)


def first_per_shard(quotas: list[int]):
    """Selector keeping, in canonical order, the first ``quotas[k]``
    visits of shard ``k`` (with ``len(quotas)`` workers)."""
    def select(schedule):
        taken = [0] * len(quotas)
        subset = []
        for entry in schedule:
            shard = shard_of(entry[3].target_key, len(quotas))
            if taken[shard] < quotas[shard]:
                taken[shard] += 1
                subset.append(entry)
        assert taken == quotas, "schedule too small for the quotas"
        return subset
    return select


def few_targets(count: int):
    """Selector keeping every visit to the first ``count`` targets."""
    def select(schedule):
        targets = []
        for entry in schedule:
            if entry[3].target_key not in targets:
                targets.append(entry[3].target_key)
            if len(targets) == count:
                break
        return [entry for entry in schedule
                if entry[3].target_key in targets]
    return select


class TestStreamingMergeEdges:
    @pytest.mark.parametrize("select,workers", [
        # More workers than targets: some shards are empty.
        (few_targets(2), 8),
        # Shards ending exactly on a batch boundary.
        (first_per_shard([2 * OUTCOME_BATCH, OUTCOME_BATCH]), 2),
        # A shard with fewer visits than one batch next to a longer one.
        (first_per_shard([OUTCOME_BATCH // 3, OUTCOME_BATCH + 7]), 2),
    ], ids=["empty-shard", "exact-batches", "sub-batch"])
    def test_thread_pool_yields_the_serial_stream(self, select, workers):
        plan, schedule = fresh_schedule()
        reference = list(SerialExecutor().replay(
            select(schedule), plan, SEED, obs.NULL_TELEMETRY))
        plan, schedule = fresh_schedule()
        engine = ShardedExecutor(workers, pool="thread")
        merged = list(engine.replay(select(schedule), plan, SEED,
                                    obs.NULL_TELEMETRY))

        assert reference
        assert merged == reference
        shards = engine.stats["shards"]
        assert len(shards) == workers
        if workers > 2:
            assert any(shard["visits"] == 0 for shard in shards)
        # One message per started batch; never an empty trailing one.
        assert engine.stats["batches"] == sum(
            math.ceil(shard["visits"] / OUTCOME_BATCH) for shard in shards)
        assert engine.stats["wait_seconds"] >= 0


class TestWorkerKilledMidBatch:
    def test_raises_worker_lost_then_resumes_identically(
            self, tmp_path_factory):
        scale = 0.0002
        reference = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=scale,
            output_dir=tmp_path_factory.mktemp("kill-ref")))
        # The victim dies after two full batches, with a third one half
        # built and not yet shipped.
        kill_after = 2 * OUTCOME_BATCH + OUTCOME_BATCH // 2
        plan = faults.plan_from_dict(
            {"proc.kill": {"probability": 1.0, "max_fires": 1,
                           "start_after": kill_after}},
            seed=SEED, name="worker-kill")
        out = tmp_path_factory.mktemp("kill-mid-batch")
        with pytest.raises(WorkerLostError):
            run_experiment(ExperimentConfig(
                seed=SEED, volume_scale=scale, output_dir=out,
                fault_plan=plan, workers=2, pool="fork",
                checkpoint_interval=0.05))
        resumed = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=scale, output_dir=out, workers=2,
            pool="fork", checkpoint_interval=0.05, resume="latest"))
        assert resumed.conservation_ok
        for got, want in ((resumed.low_db, reference.low_db),
                          (resumed.midhigh_db, reference.midhigh_db)):
            rows = count_events(want)
            assert count_events(got) == rows
            assert prefix_digest(got, rows) == prefix_digest(want, rows)


class TestAbandonedMerge:
    def test_closing_the_stream_early_releases_blocked_workers(self):
        # A consumer that stops early (a sink error) closes the stream
        # while the workers are blocked on full pipes: their sends must
        # fail so that the pool can shut down.
        plan, schedule = fresh_schedule()
        stream = ShardedExecutor(2, pool="fork").replay(
            schedule, plan, SEED, obs.NULL_TELEMETRY)
        next(stream)
        time.sleep(0.5)
        closer = threading.Thread(target=stream.close, daemon=True)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()


#: Stalls the driver once, waits until a worker is blocked writing a
#: batch into its full pipe, and SIGKILLs it there: part of a message
#: is left behind, as when the kernel's OOM killer strikes mid-send.
_KILLED_MID_SEND = """
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

from repro.deployment import ExperimentConfig, replay, run_experiment

merge_ready = replay._merge_ready
stalled = []


def blocked_writer():
    for child in multiprocessing.active_children():
        try:
            for task in Path(f"/proc/{child.pid}/task").iterdir():
                if "pipe_write" in (task / "wchan").read_text():
                    return child
        except OSError:
            continue
    return None


def stalled_merge_ready(buffers, done):
    if not stalled:
        stalled.append(True)
        deadline = time.monotonic() + 30
        while (victim := blocked_writer()) is None:
            if time.monotonic() > deadline:
                raise RuntimeError("no worker blocked on a full pipe")
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
        print("killed mid-send", flush=True)
    return merge_ready(buffers, done)


replay._merge_ready = stalled_merge_ready
# A batch larger than a pipe holds cannot be written whole while the
# driver stalls, so the victim dies with part of one in the pipe.
replay.OUTCOME_BATCH = 1024
try:
    run_experiment(ExperimentConfig(
        seed=int(sys.argv[2]), volume_scale=0.0002, output_dir=sys.argv[1],
        workers=2, pool="fork"))
except replay.WorkerLostError:
    print("worker lost")
"""


class TestWorkerKilledMidSend:
    @pytest.mark.skipif(not Path("/proc/self/wchan").exists(),
                        reason="needs /proc/<pid>/wchan")
    def test_kill_mid_message_is_worker_lost(self, tmp_path):
        # The partial message must not block the driver's read for good:
        # it gets an end of file once the pool has reaped the workers,
        # and reports the lost worker.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            [sys.executable, "-c", _KILLED_MID_SEND, str(tmp_path),
             str(SEED)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            stdout, _ = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            stdout = b"driver hung"
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        assert stdout.decode().split() == ["killed", "mid-send",
                                           "worker", "lost"]


class TestDeadLetterBytes:
    def test_visit_crash_dead_letter_is_unchanged(self, tmp_path):
        result = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=5e-4, output_dir=tmp_path,
            fault_plan=faults.load_plan("visit-crash", seed=SEED)))
        assert result.quarantined_visits > 0
        digest = hashlib.sha256(
            (tmp_path / "quarantine.jsonl").read_bytes()).hexdigest()
        assert digest == VISIT_CRASH_DEAD_LETTER_SHA256


class TestStatsSummary:
    def test_prints_transport_wait_line(self):
        text = obs_report.format_summary({
            "schema": obs_report.SCHEMA,
            "replay": {"executor": "sharded", "workers": 2,
                       "pool": "fork", "wait_seconds": 1.25,
                       "batches": 336,
                       "shards": [{"shard": 0, "visits": 3, "events": 9,
                                   "wall_seconds": 0.5}]}})
        assert "transport wait: 1.250 s over 336 batches" in text
        assert "merge:" not in text
