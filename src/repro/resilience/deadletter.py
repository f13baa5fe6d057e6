"""Dead-letter JSONL sink for quarantined work.

When crash containment pulls a poisoned visit (or any other unit of
work) out of the main data path, its events and failure reason land
here instead of vanishing -- the file is the audit trail that makes the
conservation invariant ``generated == stored + quarantined`` checkable,
and each record carries enough context to replay the failure.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from repro import obs

if TYPE_CHECKING:
    from repro.pipeline.logstore import LogEvent


class DeadLetterWriter:
    """Append-only writer of one JSON object per quarantined record.

    The file is created lazily on the first quarantine, so clean runs
    leave no empty dead-letter file behind.

    ``resume=(bytes, count)`` continues an existing file the resume
    preparation already truncated to its committed length;
    :meth:`commit` fsyncs and reports the committed state for a
    run-journal checkpoint.
    """

    def __init__(self, path: str | Path, *,
                 resume: tuple[int, int] | None = None):
        self.path = Path(path)
        self.count = resume[1] if resume else 0
        self._committed_bytes = resume[0] if resume else 0
        self._append = resume is not None
        self._handle: IO[str] | None = None

    def quarantine(self, kind: str, reason: str, *,
                   events: Iterable[LogEvent] = (),
                   **context: object) -> dict:
        """Record one quarantined unit; returns the record written."""
        record = {
            "kind": kind,
            "reason": reason,
            **context,
            "events": [event._asdict() for event in events],
        }
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path,
                                "a" if self._append else "w",
                                encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":"),
                                      ensure_ascii=False) + "\n")
        self._handle.flush()
        self.count += 1
        obs.current().metrics.inc("resilience.dead_letters", kind=kind)
        return record

    def commit(self) -> dict:
        """Fsync the file; returns ``{"bytes": int, "count": int}``."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._committed_bytes = self.path.stat().st_size
        return {"bytes": self._committed_bytes, "count": self.count}

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "DeadLetterWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_dead_letters(path: str | Path) -> list[dict]:
    """Load every record of a dead-letter file (for tests and triage)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
