#!/usr/bin/env python3
"""The repository benchmark: a whole ``repro run`` / ``repro report``
end to end, and each layer of it on its own.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run-serial --seed 2024 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Every workload replays seed ``--seed`` at volume scale 2e-3.
``--trace 0`` measures the end-to-end metrics with tracing and
telemetry off; ``--trace 1`` adds one traced repetition and prints the
per-layer metrics.  Every repetition runs in a fresh process
(``perfbench/child.py``) and every run passes the correctness gate
(``perfbench/gate.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every output was correct, 1 when the gate failed, and 2 when
the benchmark could not run at all.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
#: Scratch databases, gate state, spans and result rows (git-ignored).
WORK = ROOT / ".perfbench"
#: Bytecode of every module the measured processes import, the standard
#: library's too, so no ``__pycache__`` left in ``src/`` is ever read.
PYCACHE = WORK / "pycache"

#: Replay configuration of each workload; ``report`` replays serially
#: once, as set-up, to produce the databases it analyses.
WORKLOADS = {
    "run-serial": {"workers": 1, "checkpoint_interval": 0.0},
    "run-sharded": {"workers": 2, "checkpoint_interval": 0.0},
    "run-durable": {"workers": 2, "checkpoint_interval": 1.0},
    "report": {"workers": 1, "checkpoint_interval": 0.0},
}
#: Volume scale of every workload: 42,912 visits at seed 2024.
SCALE = 2e-3
#: Import-only processes started per untraced run, so ``setup_s`` is a
#: median of several samples even when one repetition fills
#: ``--seconds``.
SETUP_SAMPLES = 5
#: Wall-clock budget of one workload in one mode.
DEADLINE_S = 170.0
PAGE = os.sysconf("SC_PAGE_SIZE")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


class TreeSampler:
    """Polls the proportional set size (Pss) of a process and all its
    descendants.

    Memory is read from ``/proc`` by this process, outside the program,
    so forked replay workers count too.  Pss divides each shared page
    among the processes that map it, so the copy-on-write pages a forked
    worker shares with the driver are counted once.  Reading it walks
    the page tables, hence the coarse interval.
    """

    def __init__(self, pid: int, interval: float = 0.2):
        self.pid = pid
        self.interval = interval
        self.peak_total = 0
        self.peak_driver = 0
        self.peak_workers = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _tree(self) -> list[int]:
        pids = [self.pid]
        for pid in pids:
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        pids.extend(int(child)
                                    for child in handle.read().split())
                except OSError:
                    pass
        return pids

    @staticmethod
    def _memory(pid: int) -> int:
        """Pss of ``pid`` in bytes; its resident set size where the
        kernel has no ``smaps_rollup``; 0 once it has exited."""
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        return int(line.split()[1]) * 1024
        except FileNotFoundError:
            pass
        except (OSError, ValueError):
            return 0
        try:
            with open(f"/proc/{pid}/statm") as handle:
                return int(handle.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            return 0

    def _poll(self) -> None:
        while True:
            pids = self._tree()
            driver = self._memory(pids[0])
            workers = sum(self._memory(pid) for pid in pids[1:])
            self.peak_driver = max(self.peak_driver, driver)
            self.peak_workers = max(self.peak_workers, workers)
            self.peak_total = max(self.peak_total, driver + workers)
            if self._stop.wait(self.interval):
                return


def measure(spec: dict, deadline: float) -> dict:
    """Run one child process; returns its JSON result plus ``setup_s``
    and the memory figures sampled from outside."""
    spec = dict(spec, root=str(ROOT))
    env = child_env()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    start = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, start_new_session=True)
    sampler = TreeSampler(process.pid)
    sampler.start()
    timer = threading.Timer(timeout, _kill_group, (process.pid,))
    timer.start()
    try:
        stdout = process.stdout.read()
        _, status, _ = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        sampler.stop()
        if process.returncode is None:
            _kill_group(process.pid)
            process.wait()
        else:
            # Forked replay workers are gone once the child has exited
            # cleanly; after a failure, make sure of it.
            _kill_group(process.pid)
        process.stdout.close()
    if process.returncode != 0:
        raise BenchError(f"{spec['mode']} process exited with status "
                         f"{process.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{spec['mode']} process printed no result")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    out["peak_rss_mb"] = sampler.peak_total / 2**20
    out["rss_driver_mb"] = sampler.peak_driver / 2**20
    out["rss_workers_mb"] = sampler.peak_workers / 2**20
    return out


def child_env() -> dict:
    """Environment of the measured processes: bytecode only from (and
    to) ``PYCACHE``."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_bytecode(deadline: float) -> None:
    """Compile the program into ``PYCACHE`` and start one unmeasured
    process, which caches the standard library it imports.  So
    ``setup_s`` always loads cached bytecode, whatever ran in the
    checkout before."""
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, check=True,
                       timeout=max(deadline - time.monotonic(), 1))
    except (OSError, subprocess.SubprocessError) as error:
        raise BenchError(f"could not compile the program: {error}")
    measure({"mode": "imports"}, deadline)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Run:
    """One invocation of one workload: its repetitions and gate."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 work: Path, state, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.state = state
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        #: Timed repetitions behind each median.
        self.samples = 0
        self.problems: list[str] = []
        self._outputs = 0

    def run_spec(self, *, trace: bool = False) -> dict:
        self._outputs += 1
        name = "report-db" if self.workload == "report" else self.workload
        return {"mode": "run", "seed": self.seed, "scale": SCALE,
                "out": str(self.work / f"{name}-{self._outputs}"),
                "trace": trace,
                "spans": str(WORK / "spans" / f"{self.workload}.npz"),
                **WORKLOADS[self.workload]}

    def replay(self, *, trace: bool = False, keep: bool = False,
               count: bool = True) -> dict:
        """One ``run_experiment`` repetition, gated.  With ``count`` its
        visits are this run's operations; otherwise a failed gate only
        marks the run incorrect."""
        spec = self.run_spec(trace=trace)
        try:
            rep = measure(spec, self.deadline)
        finally:
            if not keep:
                shutil.rmtree(spec["out"], ignore_errors=True)
        rep["out"] = spec["out"]
        problems = gate.conservation_problems(rep)
        mismatch = self.state.check("digests", rep["digests"])
        if mismatch:
            problems.append(mismatch)
        if trace and not rep["restored"]:
            problems.append("traced run left a wrapped function behind")
        self.problems += [f"{self.workload} seed {self.seed}: {problem}"
                          for problem in problems]
        if count:
            self.attempted += rep["visits_total"]
            self.failed += (rep["visits_total"] if problems
                            else rep["quarantined_visits"])
        rep["correct"] = not problems
        return rep

    def report_pass(self, db_dir: str, *, trace: bool = False) -> dict:
        """One cold + warm report pair, gated."""
        pair = measure({"mode": "report", "db_dir": db_dir,
                        "scale": SCALE, "trace": trace,
                        "spans": str(WORK / "spans" / "report.npz")},
                       self.deadline)
        self.attempted += 2
        problems = []
        cold, warm = pair["texts"]
        if cold != warm:
            problems.append("warm report text differs from cold")
        for text in (cold, warm):
            mismatch = self.state.check("report_text", text)
            if mismatch:
                problems.append(mismatch)
                break
        if trace and not pair["restored"]:
            problems.append("traced run left a wrapped function behind")
        if problems:
            self.failed += 2
            self.problems += [f"report seed {self.seed}: {problem}"
                              for problem in problems]
        return pair

    def setup_samples(self) -> list[float]:
        return [measure({"mode": "imports"}, self.deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES)]

    def until_filled(self, repeat, elapsed) -> list[dict]:
        """Repeat ``repeat()`` until ``elapsed`` of the results covers
        ``--seconds`` (at least once)."""
        results = []
        measured = 0.0
        while not results or measured < self.seconds:
            results.append(repeat())
            measured += elapsed(results[-1])
        self.samples = len(results)
        return results


def measure_run(run: Run, trace: bool) -> tuple[dict, dict]:
    """``(end-to-end, per-layer)`` metrics of a ``run-*`` workload."""
    reps = run.until_filled(run.replay, lambda rep: rep["wall_s"])
    setups = [rep["setup_s"] for rep in reps]
    end_to_end = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "events_per_s": statistics.median(
            rep["events_total"] / rep["wall_s"] for rep in reps),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }
    per_layer = {}
    if trace:
        traced = run.replay(trace=True)
        per_layer.update(traced["layers"])
        per_layer["trace.overhead_s"] = traced["wall_s"] - \
            end_to_end["wall_s"]
    else:
        setups += run.setup_samples()
    end_to_end["setup_s"] = statistics.median(setups)
    per_layer["rss.driver_mb"] = statistics.median(
        rep["rss_driver_mb"] for rep in reps)
    per_layer["rss.workers_mb"] = statistics.median(
        rep["rss_workers_mb"] for rep in reps)
    return end_to_end, per_layer


def measure_report(run: Run, trace: bool) -> tuple[dict, dict]:
    """``(end-to-end, per-layer)`` metrics of the ``report`` workload."""
    # Set-up: a serial run produces the databases the report analyses.
    setup = run.replay(keep=True, count=False)
    try:
        pairs = run.until_filled(
            lambda: run.report_pass(setup["out"]),
            lambda pair: pair["cold_wall_s"] + pair["warm_wall_s"])
        rows = sum(rows for rows, _ in setup["digests"].values())
        for pair in pairs:
            if pair["rows"] != rows:
                run.problems.append(f"report read {pair['rows']} rows, "
                                    f"the set-up run stored {rows}")
        imports = [setup["setup_s"]] + [pair["setup_s"] for pair in pairs]
        end_to_end = {
            "wall_s": statistics.median(pair["cold_wall_s"]
                                        for pair in pairs),
            "events_per_s": statistics.median(
                pair["rows"] / pair["cold_wall_s"] for pair in pairs),
            "cpu_s": statistics.median(pair["cold_cpu_s"]
                                       for pair in pairs),
            "peak_rss_mb": statistics.median(pair["peak_rss_mb"]
                                             for pair in pairs),
        }
        per_layer = {}
        if trace:
            traced = run.report_pass(setup["out"], trace=True)
            per_layer.update(traced["layers"])
            per_layer["trace.overhead_s"] = (
                traced["cold_wall_s"] + traced["warm_wall_s"]
                - statistics.median(pair["cold_wall_s"]
                                    + pair["warm_wall_s"]
                                    for pair in pairs))
        else:
            imports += run.setup_samples()
    finally:
        shutil.rmtree(setup["out"], ignore_errors=True)
    if not setup["correct"]:
        # Every pass analysed databases that failed the gate.
        run.failed = run.attempted
    # Interpreter start and imports, plus producing the databases.
    end_to_end["setup_s"] = statistics.median(imports) + setup["wall_s"]
    per_layer["report.warm_wall_s"] = statistics.median(
        pair["warm_wall_s"] for pair in pairs)
    per_layer["rss.driver_mb"] = statistics.median(
        pair["rss_driver_mb"] for pair in pairs)
    per_layer["rss.workers_mb"] = statistics.median(
        pair["rss_workers_mb"] for pair in pairs)
    return end_to_end, per_layer


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def run_one(workload: str, args, trace: bool, source: str) -> dict:
    """Measure one workload in one mode; returns its result row."""
    key = f"{source}:{args.seed}:{SCALE!r}"
    state = gate.State(WORK / "state.json", key)
    work = WORK / f"work-{os.getpid()}"
    run = Run(workload, args.seed, args.seconds, work, state,
              time.monotonic() + DEADLINE_S)
    try:
        if workload == "report":
            end_to_end, per_layer = measure_report(run, trace)
        else:
            end_to_end, per_layer = measure_run(run, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    per_layer["failed_ops_ratio"] = run.failed / run.attempted
    units = dict((name, unit) for name, unit, _ in
                 layers.END_TO_END + layers.PER_LAYER)
    names = [name for name, _, _ in
             (layers.PER_LAYER if trace else layers.END_TO_END)]
    values = per_layer if trace else end_to_end
    metrics = {name: {"value": values.get(name, 0), "unit": units[name]}
               for name in names}
    return {
        "workload": workload, "trace": int(trace), "seed": args.seed,
        "scale": SCALE, "seconds": args.seconds,
        "git_sha": git_sha(), "source_digest": source,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": not run.problems, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "samples": run.samples,
        "metrics": metrics,
    }


def print_row(row: dict) -> None:
    mode = "per-layer (traced)" if row["trace"] else "end-to-end"
    print(f"== {row['workload']} {mode}: seed {row['seed']}, scale "
          f"{row['scale']}, {row['cpu_count']} CPUs, python "
          f"{row['python']}; medians of {row['samples']} timed "
          f"repetitions")
    for name, metric in row["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted {row['attempted']}, failed {row['failed']}, "
          f"failed_ops_ratio {row['failed'] / row['attempted']:.6g}")
    for problem in row["problems"]:
        print(f"  GATE FAILED: {problem}")
    print("row " + json.dumps(row, sort_keys=True), flush=True)
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so every child
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    source = gate.source_digest(ROOT)
    if args.workload == "all":
        plan = [(workload, trace) for workload in WORKLOADS
                for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    rows = []
    try:
        warm_bytecode(time.monotonic() + DEADLINE_S)
        for workload, trace in plan:
            rows.append(run_one(workload, args, trace, source))
            print_row(rows[-1])
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if len(rows) == 1:
        metrics = rows[0]["metrics"]
    else:
        metrics = {f"{row['workload']}/{name}": metric for row in rows
                   for name, metric in row["metrics"].items()}
    correct = all(row["correct"] for row in rows)
    print(json.dumps({"correct": correct,
                      "attempted": sum(row["attempted"] for row in rows),
                      "failed": sum(row["failed"] for row in rows),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


sys.dont_write_bytecode = True
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import gate, layers  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
