"""Simulated wall clock.

Every timestamp in the reproduction flows from a :class:`SimClock` so that
the 20-day deployment window of the paper (March 22 -- April 11, 2024) can
be replayed deterministically and quickly.  Honeypots, agents, and the log
pipeline never call ``time.time()`` or ``datetime.now()`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

#: Start of the paper's deployment window (March 22nd, 2024, UTC).
EXPERIMENT_START = datetime(2024, 3, 22, 0, 0, 0, tzinfo=timezone.utc)

#: End of the paper's deployment window (April 11th, 2024, UTC).
EXPERIMENT_END = datetime(2024, 4, 11, 0, 0, 0, tzinfo=timezone.utc)

#: Length of the deployment, in days.
EXPERIMENT_DAYS = (EXPERIMENT_END - EXPERIMENT_START).days


@dataclass
class SimClock:
    """A monotonically advancing simulated clock.

    Parameters
    ----------
    start:
        Initial simulated time.  Defaults to the paper's deployment start.

    Examples
    --------
    >>> clock = SimClock()
    >>> clock.now().isoformat()
    '2024-03-22T00:00:00+00:00'
    >>> clock.advance(seconds=90)
    >>> clock.elapsed().total_seconds()
    90.0
    """

    start: datetime = EXPERIMENT_START
    _current: datetime = field(init=False)
    _timestamp: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.start.tzinfo is None:
            raise ValueError("SimClock requires a timezone-aware start time")
        self._current = self.start

    def now(self) -> datetime:
        """Return the current simulated time."""
        return self._current

    def timestamp(self) -> float:
        """Return the current simulated time as a POSIX timestamp.

        The conversion is cached until the clock next moves: replay
        seeks once per visit but stamps every event, so this is called
        ~257k times per run against a handful of distinct instants.
        """
        ts = self._timestamp
        if ts is None:
            ts = self._timestamp = self._current.timestamp()
        return ts

    def advance(self, *, days: float = 0, hours: float = 0,
                minutes: float = 0, seconds: float = 0) -> None:
        """Advance the clock by the given offset.

        Raises
        ------
        ValueError
            If the total offset is negative; simulated time never rewinds.
        """
        delta = timedelta(days=days, hours=hours, minutes=minutes,
                          seconds=seconds)
        if delta < timedelta(0):
            raise ValueError("cannot advance the clock backwards")
        self._current += delta
        self._timestamp = None

    def seek(self, target: datetime) -> None:
        """Jump forward to ``target``.

        Raises
        ------
        ValueError
            If ``target`` lies before the current simulated time.
        """
        if target < self._current:
            raise ValueError(
                f"cannot seek backwards: {target} < {self._current}")
        self._current = target
        self._timestamp = None

    def elapsed(self) -> timedelta:
        """Return the time elapsed since the clock was created."""
        return self._current - self.start

    def day_index(self) -> int:
        """Return the zero-based day of the experiment for the current time."""
        return self.elapsed().days

    def hour_index(self) -> int:
        """Return the zero-based hour of the experiment for the current time."""
        return int(self.elapsed().total_seconds() // 3600)
