"""Tests of the benchmark itself: span arithmetic, the correctness gate,
wrapper install/removal, determinism of the work counters, and the
agreement of ``BENCHMARK.json`` with the metrics the code prints.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, gate, layers, run, tracing

ROOT = Path(__file__).resolve().parent.parent
#: Small enough for a test, large enough that every layer does work.
SCALE = 2e-5
SEED = 7
#: Work counters that must repeat exactly between two runs of the same
#: code, seed and scale (prefixes cover the per-codec/per-DBMS families).
DETERMINISTIC = ("schedule.visits", "schedule.select_calls",
                 "honeypot.", "emit.events", "writer.rows.",
                 "transport.outcome_bytes", "store.scans")


def deterministic(name: str) -> bool:
    """Whether ``name`` is one of the :data:`DETERMINISTIC` counters."""
    if name.endswith("_s"):
        return False
    return any(name == entry or (entry.endswith(".")
                                 and name.startswith(entry))
               for entry in DETERMINISTIC)


class TickClock:
    """A clock that advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_of_nested_spans():
    # root [0, 20]: a [1, 6] holds a1 [2, 3]; b [8, 16] holds b1
    # [9, 14], which holds b1x [10, 11] and b1y [12, 13].
    starts = [0, 1, 2, 8, 9, 10, 12]
    ends = [20, 6, 3, 16, 14, 11, 13]
    parents = [-1, 0, 1, 0, 3, 4, 4]
    assert tracing.self_times(starts, ends, parents) == [
        20 - 5 - 8, 5 - 1, 1, 8 - 5, 5 - 2, 1, 1]


def test_self_times_count_overlapping_and_clipped_children_once():
    # Children [2, 6] and [4, 9] overlap on [4, 6]; [8, 15] sticks out
    # of its parent [1, 12] and is clipped to [8, 12].
    starts = [1, 2, 4, 8]
    ends = [12, 6, 9, 15]
    parents = [-1, 0, 0, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs[0] == 11 - (12 - 2)
    assert selfs[1:] == [4, 5, 7]


def test_tracer_records_nested_calls_and_summarizes_self_time():
    tracer = tracing.Tracer(clock=TickClock())

    inner = tracer.wrap("inner", lambda: None)

    def middle():
        inner()
        inner()

    middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        middle()
    summary = tracing.summarize(tracer)
    # Ticks: root opens 1; middle 2; inner 3-4 and 5-6; middle closes
    # 7; root 8.
    assert summary["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert summary["middle"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert summary["root"] == {"calls": 1, "self_s": 2.0, "total_s": 7.0}
    assert list(tracer.parents) == [-1, 0, 1, 1]


def test_tracer_ignores_other_threads():
    import threading

    tracer = tracing.Tracer()
    traced = tracer.wrap("work", lambda: 42)
    results = []
    worker = threading.Thread(target=lambda: results.append(traced()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert results == [42] and len(tracer) == 0
    assert traced() == 42 and len(tracer) == 1


def test_install_and_remove_restore_every_function():
    from repro.deployment import experiment, plan
    from repro.honeypots.base import MemoryWire
    from repro.protocols import tds

    send = vars(MemoryWire)["send"]
    build_prelogin = tds.build_prelogin
    build_plan = plan.build_plan
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    layers.install(tracer, patches, layers.Probe())
    try:
        installed = list(patches.records)
        assert len(installed) > 50
        for owner, attribute, original in installed:
            assert vars(owner)[attribute] is not original
        # Name imports are patched too, not only defining modules.
        assert experiment.build_plan is not build_plan
        assert experiment.build_plan is plan.build_plan
        tds.build_prelogin()
        assert tracer.names[tracer.name_ids[-1]] == "codec.tds"
    finally:
        patches.remove()
    assert patches.all_restored()
    for owner, attribute, original in installed:
        assert vars(owner)[attribute] is original
    assert vars(MemoryWire)["send"] is send
    assert tds.build_prelogin is build_prelogin
    assert experiment.build_plan is build_plan


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of each workload at a tiny scale."""
    base = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for name in ("run-serial", "run-sharded", "run-durable"):
        for attempt in (0, 1):
            out = base / f"{name}-{attempt}"
            spec = {"seed": SEED, "scale": SCALE, "out": str(out),
                    "trace": True, "spans": str(out / "spans.npz"),
                    **run.WORKLOADS[name]}
            runs.setdefault(name, []).append(child.run_once(spec))
    db_dir = base / "run-serial-0"
    for attempt in (0, 1):
        runs.setdefault("report", []).append(child.report_once(
            {"db_dir": str(db_dir), "scale": SCALE, "trace": True,
             "spans": str(base / f"report-{attempt}.npz")}))
    return runs, db_dir


def test_deterministic_counters_repeat_exactly(traced_runs):
    runs, _ = traced_runs
    for name, (first, second) in runs.items():
        counters = {key: value for key, value in first["layers"].items()
                    if deterministic(key)}
        assert counters, name
        assert counters == {key: second["layers"][key]
                            for key in counters}, name
        assert first["restored"] and second["restored"]
    serial = runs["run-serial"][0]["layers"]
    assert serial["schedule.visits"] > 0
    assert serial["emit.events"] == (serial["writer.rows.low"]
                                     + serial["writer.rows.midhigh"])
    assert all(serial[f"honeypot.{dbms}.calls"] > 0
               for dbms in layers.DBMSS)
    assert all(serial[f"codec.{codec}.calls"] > 0
               for codec in layers.CODECS)
    assert serial["unattributed_s"] > 0
    sharded = runs["run-sharded"][0]["layers"]
    assert sharded["transport.outcome_bytes"] > 0
    assert sharded["shard.wall_max_s"] > 0
    durable = runs["run-durable"][0]["layers"]
    assert durable["checkpoint.count"] >= 1 and durable["journal.bytes"] > 0
    report = runs["report"][0]["layers"]
    assert report["store.scans"] == 2
    assert runs["report"][0]["texts"][0] == runs["report"][0]["texts"][1]


def test_all_workloads_store_the_same_rows(traced_runs):
    runs, _ = traced_runs
    digests = [rep["digests"] for name in ("run-serial", "run-sharded",
                                            "run-durable")
               for rep in runs[name]]
    assert all(digest == digests[0] for digest in digests)
    for rep in runs["run-serial"]:
        assert gate.conservation_problems(rep) == []


def test_gate_catches_one_flipped_row(traced_runs, tmp_path):
    runs, db_dir = traced_runs
    reference = runs["run-serial"][0]
    copies = {}
    for tier in ("low", "midhigh"):
        copies[tier] = tmp_path / f"{tier}.sqlite"
        shutil.copyfile(db_dir / f"{tier}.sqlite", copies[tier])
    assert gate.db_digests(copies["low"], copies["midhigh"]) == \
        reference["digests"]
    connection = sqlite3.connect(copies["midhigh"])
    connection.execute("UPDATE events SET src_port = src_port + 1 "
                       "WHERE id = 17")
    connection.commit()
    connection.close()
    flipped = gate.db_digests(copies["low"], copies["midhigh"])
    assert flipped["low"] == reference["digests"]["low"]
    assert flipped["midhigh"] != reference["digests"]["midhigh"]

    state = gate.State(tmp_path / "state.json", "key")
    assert state.check("digests", reference["digests"]) is None
    assert state.check("digests", flipped) is not None
    assert state.check("digests", reference["digests"]) is None


def test_conservation_problems():
    rep = {"events_generated": 10, "events_total": 9,
           "events_quarantined": 0, "quarantined_visits": 0,
           "digests": {"low": [4, "a"], "midhigh": [5, "b"]}}
    assert len(gate.conservation_problems(rep)) == 1
    rep.update(events_quarantined=1, quarantined_visits=1)
    assert gate.conservation_problems(rep) == ["1 visits quarantined"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode not in (0, None)
    assert "correct" not in result.stdout
