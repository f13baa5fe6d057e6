"""One measured process of the benchmark.

``perfbench/run.py`` starts this script once per repetition, so each
repetition pays interpreter start and imports (its set-up) in a fresh
process, and its CPU time and memory can be read from outside::

    python3 perfbench/child.py '<json spec>'

The spec names the checkout ``root`` and a ``mode``:

* ``imports`` -- start, import the program, exit (a set-up sample);
* ``run`` -- one ``run_experiment`` with the spec's workers and
  checkpoint interval, then the databases' digests;
* ``report`` -- one cold ``report_text`` over fresh stores with the
  analysis cache cleared, then one warm pass over fresh stores.

With ``"trace": true`` the layer wrappers are installed around the
timed call and removed after it.  The last line of standard output is
one JSON object; ``ready`` in it is the ``time.monotonic()`` reading
taken once the imports are done.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children (the
    replay workers, which the pool joins before the run returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _import_program(root: Path) -> None:
    sys.path[0] = str(root)
    sys.path.insert(0, str(root / "src"))
    import repro.cli  # noqa: F401  (part of the measured set-up)
    import repro.core.store  # noqa: F401
    import repro.deployment  # noqa: F401
    import repro.pipeline.convert  # noqa: F401

    source = Path(repro.cli.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported the program from {source}, not from "
                         f"the checkout's src/")


def run_once(spec: dict) -> dict:
    from repro import deployment

    from perfbench import gate

    config = deployment.ExperimentConfig(
        seed=spec["seed"], volume_scale=spec["scale"],
        output_dir=Path(spec["out"]), workers=spec["workers"],
        checkpoint_interval=spec["checkpoint_interval"])
    traced = bool(spec.get("trace"))
    if traced:
        from perfbench import layers, tracing

        tracer = tracing.Tracer()
        patches = tracing.Patches()
        probe = layers.Probe()
        layers.install(tracer, patches, probe)
    cpu = _cpu_seconds()
    start = time.perf_counter()
    try:
        if traced:
            with tracer.span("run"):
                result = deployment.run_experiment(config)
        else:
            result = deployment.run_experiment(config)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
    finally:
        if traced:
            patches.remove()
    out = {"wall_s": wall, "cpu_s": cpu,
           "visits_total": result.visits_total,
           "events_total": result.events_total,
           "events_generated": result.events_generated,
           "events_quarantined": result.events_quarantined,
           "quarantined_visits": result.quarantined_visits,
           "digests": gate.db_digests(result.low_db, result.midhigh_db)}
    if traced:
        out["restored"] = patches.all_restored()
        out["spans"] = len(tracer)
        out["layers"] = layers.run_metrics(tracing.summarize(tracer),
                                           probe, result)
        tracer.dump(Path(spec["spans"]))
    return out


def _cache_bytes(stores) -> int:
    return sum(path.stat().st_size for store in stores
               if store.cache_dir.is_dir()
               for path in store.cache_dir.iterdir())


def report_once(spec: dict) -> dict:
    import hashlib

    from repro import cli
    from repro.core.store import AnalysisStore
    from repro.pipeline.convert import count_events

    db_dir = Path(spec["db_dir"])
    dbs = (db_dir / "low.sqlite", db_dir / "midhigh.sqlite")
    traced = bool(spec.get("trace"))
    if traced:
        from perfbench import layers, tracing

        tracer = tracing.Tracer()
        patches = tracing.Patches()
        layers.install(tracer, patches, layers.Probe())
    out: dict = {"rows": sum(count_events(path) for path in dbs),
                 "texts": []}
    stats = []
    try:
        for phase in ("cold", "warm"):
            stores = [AnalysisStore(path) for path in dbs]
            if phase == "cold":
                for store in stores:
                    store.clear_cache()
            cpu = _cpu_seconds()
            start = time.perf_counter()
            if traced:
                tracer.trace_id += 1
                with tracer.span("pass"):
                    text = cli.report_text(*stores, spec["scale"])
            else:
                text = cli.report_text(*stores, spec["scale"])
            out[f"{phase}_wall_s"] = time.perf_counter() - start
            out[f"{phase}_cpu_s"] = _cpu_seconds() - cpu
            for store in stores:
                store.close()
                stats.append(store.stats)
            if phase == "cold":
                out["cache_bytes"] = _cache_bytes(stores)
            out["texts"].append(
                hashlib.sha256(text.encode("utf-8")).hexdigest())
    finally:
        if traced:
            patches.remove()
    if traced:
        out["restored"] = patches.all_restored()
        out["spans"] = len(tracer)
        out["layers"] = layers.report_metrics(tracing.summarize(tracer),
                                              stats, out["cache_bytes"])
        tracer.dump(Path(spec["spans"]))
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    _import_program(Path(spec["root"]))
    ready = time.monotonic()
    mode = spec["mode"]
    if mode == "imports":
        out = {}
    elif mode == "run":
        out = run_once(spec)
    elif mode == "report":
        out = report_once(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["ready"] = ready
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
