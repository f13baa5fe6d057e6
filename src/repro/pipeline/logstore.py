"""Structured honeypot log events.

Each honeypot in the paper logs to its own ``.log``/``.json`` files; here
every honeypot emits :class:`LogEvent` records into a :class:`LogStore`,
which can persist them as JSON-lines files (the raw-log stage of the
paper's pipeline) for conversion into SQLite.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from repro import obs


class EventType(str, enum.Enum):
    """Kinds of honeypot observations."""

    CONNECT = "connect"
    DISCONNECT = "disconnect"
    LOGIN_ATTEMPT = "login_attempt"
    COMMAND = "command"
    QUERY = "query"
    HTTP_REQUEST = "http_request"
    MALFORMED = "malformed"


class LogEvent(NamedTuple):
    """One observation made by a honeypot.

    A named tuple: immutable, and cheap to ship across the shard process
    boundary as a plain ``tuple`` (see ``VisitOutcome.__reduce__``).

    Attributes
    ----------
    timestamp:
        POSIX timestamp (simulated clock).
    honeypot_id:
        Unique deployment instance, e.g. ``"low-mysql-007"``.
    honeypot_type:
        Software identity, e.g. ``"qeeqbox"`` or ``"sticky_elephant"``.
    dbms:
        Emulated service: ``mysql`` / ``postgresql`` / ``redis`` /
        ``mssql`` / ``elasticsearch`` / ``mongodb``.
    interaction:
        ``low`` / ``medium`` / ``high``.
    config:
        Deployment configuration label (``default``, ``fake_data``,
        ``login_disabled``, ``multi``, ``single``).
    src_ip / src_port:
        The client endpoint.
    event_type:
        The :class:`EventType` value.
    action:
        Normalized action token used as the clustering "term", e.g.
        ``"SET"``, ``"COPY FROM PROGRAM"``, ``"GET /_nodes"``.
    username / password:
        Captured credentials for login attempts.
    raw:
        Raw payload excerpt (truncated) for manual inspection.
    """

    timestamp: float
    honeypot_id: str
    honeypot_type: str
    dbms: str
    interaction: str
    config: str
    src_ip: str
    src_port: int
    event_type: str
    action: str | None = None
    username: str | None = None
    password: str | None = None
    raw: str | None = None

    #: Re-type a tuple already in field order as a ``LogEvent`` without
    #: ``__new__``'s argument binding: the one positional constructor
    #: of the per-event hot paths (``HoneypotSession.log``, outcome
    #: unpickling).  It checks nothing, so callers pass every field.
    _from_tuple = classmethod(tuple.__new__)

    def to_json(self) -> str:
        """Serialize as a single JSON line (fields in declaration order)."""
        return json.dumps(self._asdict(), separators=(",", ":"),
                          ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "LogEvent":
        """Parse a JSON line back into an event."""
        data = json.loads(line)
        return cls(**data)


#: Callable honeypots use to emit events.
EventSink = Callable[[LogEvent], None]


def consolidated_group_name(event: LogEvent) -> str:
    """The consolidated raw-log file an event belongs to.

    One definition shared by :meth:`LogStore.write_consolidated` and the
    streaming ``RawLogSink``: checkpoint/resume records committed byte
    offsets *per group file name*, so the grouping must be identical no
    matter which writer produced the file.
    """
    return f"{event.interaction}-{event.dbms}-{event.config}.jsonl"

#: Maximum stored length of the raw payload excerpt.
MAX_RAW = 2048


def truncate_raw(raw: bytes | str | None) -> str | None:
    """Clamp a raw payload for logging, decoding bytes leniently.

    Actual clippings are counted in the installed telemetry registry:
    ``logstore.raw_truncated`` is the number of clipped payloads and
    ``logstore.raw_truncated_bytes`` the payload bytes the capture
    dropped -- measured pre-decode (the wire size of a ``bytes``
    payload; UTF-8 size of a ``str`` one), minus the UTF-8 size of the
    excerpt that was kept.
    """
    if raw is None:
        return None
    if isinstance(raw, bytes):
        raw_bytes = len(raw)
        raw = raw.decode("utf-8", "replace")
    else:
        raw_bytes = None
    if len(raw) > MAX_RAW:
        kept = raw[:MAX_RAW]
        if raw_bytes is None:
            raw_bytes = len(raw.encode("utf-8"))
        metrics = obs.current().metrics
        metrics.inc("logstore.raw_truncated")
        metrics.inc("logstore.raw_truncated_bytes",
                    raw_bytes - len(kept.encode("utf-8")))
        return kept
    return raw


class LogStore:
    """Collects events in memory and persists them as JSON lines.

    The paper consolidates the logs of all honeypots sharing a
    configuration into a single file; :meth:`write_consolidated` mirrors
    that, grouping by ``(interaction, dbms, config)``.
    """

    def __init__(self) -> None:
        self._events: list[LogEvent] = []
        #: Lifetime append count -- unlike ``len()``, never reduced by
        #: :meth:`drain_from`, so ``total_appended == len(store) +
        #: quarantined`` is the store-level conservation invariant.
        self.total_appended = 0
        #: Malformed JSONL lines skipped by :meth:`read_consolidated`,
        #: as ``{"path", "line", "raw"}`` records.
        self.skipped_lines: list[dict] = []

    def append(self, event: LogEvent) -> None:
        """Record one event (usable directly as an :data:`EventSink`)."""
        self._events.append(event)
        self.total_appended += 1

    def extend(self, events: Iterable[LogEvent]) -> None:
        """Record many events."""
        before = len(self._events)
        self._events.extend(events)
        self.total_appended += len(self._events) - before

    def drain_from(self, start: int) -> list[LogEvent]:
        """Remove and return every event from index ``start`` on.

        Crash containment uses this to pull a quarantined visit's
        events back out of the store; :attr:`total_appended` still
        counts them as generated.
        """
        drained = self._events[start:]
        del self._events[start:]
        return drained

    def events(self) -> list[LogEvent]:
        """All recorded events, in arrival order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LogEvent]:
        return iter(self._events)

    def write_consolidated(self, directory: str | Path) -> list[Path]:
        """Write one ``.jsonl`` file per (interaction, dbms, config).

        Returns the paths written, sorted.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        groups: dict[str, list[LogEvent]] = {}
        for event in self._events:
            groups.setdefault(consolidated_group_name(event),
                              []).append(event)
        paths = []
        for name, events in sorted(groups.items()):
            path = directory / name
            with open(path, "w", encoding="utf-8") as handle:
                for event in events:
                    handle.write(event.to_json() + "\n")
            paths.append(path)
        return paths

    @classmethod
    def read_consolidated(cls, directory: str | Path) -> "LogStore":
        """Load every ``.jsonl`` file under ``directory``.

        Malformed lines (truncated writes, disk corruption) are skipped
        and quarantined into :attr:`skipped_lines` -- counted as
        ``logstore.malformed_lines`` in the installed metrics -- so one
        damaged file never blocks converting the rest of a capture.
        """
        store = cls()
        for path in sorted(Path(directory).glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        store.append(LogEvent.from_json(line))
                    except (TypeError, ValueError):
                        store.skipped_lines.append(
                            {"path": str(path), "line": lineno,
                             "raw": line[:200]})
                        obs.current().metrics.inc(
                            "logstore.malformed_lines")
        return store
