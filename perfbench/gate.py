"""The benchmark's correctness gate.

Every measured run checks its outputs outside the timed region:

* the chained content digest of each database
  (:func:`repro.pipeline.convert.prefix_digest` over all rows) must be
  the same for every repetition, traced or not, and for every workload
  that produced databases from the same seed, scale and source tree;
* conservation must hold, ``events_generated == events_total +
  events_quarantined``, and no visit may be quarantined;
* the report text must be byte-identical between cold and warm passes,
  across passes, and across invocations.

Values seen by earlier invocations are kept in a small state file in
the checkout, keyed by a digest of the program's source, so that
``run-serial``, ``run-sharded``, ``run-durable`` and ``report`` runs of
one seed are checked against each other even though each workload runs
as its own command.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["State", "conservation_problems", "db_digests", "source_digest"]


def db_digests(low_db: str | Path, midhigh_db: str | Path) -> dict:
    """``{"low": [rows, digest], "midhigh": [rows, digest]}``."""
    from repro.pipeline.convert import count_events, prefix_digest

    digests = {}
    for tier, path in (("low", low_db), ("midhigh", midhigh_db)):
        rows = count_events(path)
        digests[tier] = [rows, prefix_digest(path, rows)]
    return digests


def conservation_problems(rep: dict) -> list[str]:
    """What is wrong with one run's event accounting (empty if fine)."""
    problems = []
    if rep["events_generated"] != rep["events_total"] + \
            rep["events_quarantined"]:
        problems.append(
            f"conservation broken: generated {rep['events_generated']} != "
            f"stored {rep['events_total']} + quarantined "
            f"{rep['events_quarantined']}")
    if rep["quarantined_visits"]:
        problems.append(f"{rep['quarantined_visits']} visits quarantined")
    stored = sum(rows for rows, _ in rep["digests"].values())
    if stored != rep["events_total"]:
        problems.append(f"databases hold {stored} rows, run stored "
                        f"{rep['events_total']}")
    return problems


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources (paths and bytes)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class State:
    """Reference values shared by the invocations in one checkout."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def check(self, name: str, value) -> str | None:
        """Compare ``value`` with the recorded ``name``; record it if
        nothing is recorded yet.  Returns a problem, or ``None``."""
        state = self._load()
        entry = state.setdefault(self.key, {})
        if name in entry:
            if entry[name] != value:
                return (f"{name} differs from an earlier run of the same "
                        f"source, seed and scale: {value!r} != "
                        f"{entry[name]!r}")
            return None
        entry[name] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(f".tmp.{os.getpid()}")
        scratch.write_text(json.dumps(state, indent=1, sort_keys=True),
                           encoding="utf-8")
        os.replace(scratch, self.path)
        return None
