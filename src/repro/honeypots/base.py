"""Honeypot session framework.

A honeypot is a factory of :class:`HoneypotSession` objects.  Sessions
are plain byte-stream state machines -- ``connect() -> greeting bytes``,
``receive(data) -> reply bytes`` -- so the same session code runs over

* real TCP via :mod:`repro.honeypots.tcp` (examples, integration tests),
* the in-process :class:`MemoryWire` used by the fast experiment driver.

Every observable action is emitted as a :class:`~repro.pipeline.logstore.LogEvent`
through the session's :class:`SessionContext`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.netsim.clock import SimClock
from repro.pipeline.logstore import (EventSink, EventType, LogEvent,
                                     truncate_raw)
from repro.resilience import faults


@dataclass(slots=True)
class SessionContext:
    """Everything a session needs to observe its peer and log events.

    The trailing fields are per-session telemetry counters, maintained
    by the transports (:class:`MemoryWire`, the TCP server) and
    :meth:`HoneypotSession.log`; drivers fold them into run totals.
    """

    src_ip: str
    src_port: int
    clock: SimClock
    sink: EventSink
    #: Bytes received from / sent to the client on this session.
    bytes_in: int = 0
    bytes_out: int = 0
    #: Log events emitted by this session.
    events: int = 0


@dataclass(frozen=True)
class HoneypotInfo:
    """Static identity of one deployed honeypot instance."""

    honeypot_id: str
    honeypot_type: str
    dbms: str
    interaction: str
    config: str
    port: int


class HoneypotSession(abc.ABC):
    """One client connection against one honeypot instance."""

    def __init__(self, info: HoneypotInfo, context: SessionContext):
        self.info = info
        self.context = context
        #: Set by the session (or transport) when the connection is
        #: done; transports must stop reading once it is true.
        self.closed = False
        self._disconnect_logged = False
        # Session-constant LogEvent fields (honeypot_id .. src_port),
        # bound once: log() only adds the per-event fields (~257k events
        # per run).
        self._fields = (info.honeypot_id, info.honeypot_type, info.dbms,
                        info.interaction, info.config, context.src_ip,
                        context.src_port)

    # -- transport interface --------------------------------------------------

    def connect(self) -> bytes:
        """Open the session; returns the server greeting (may be empty)."""
        self.log(EventType.CONNECT)
        return self.on_connect()

    def receive(self, data: bytes) -> bytes:
        """Feed client bytes; returns the server reply (may be empty).

        Sessions signal connection teardown by setting :attr:`closed`;
        transports must stop reading afterwards.
        """
        if self.closed:
            return b""
        return self.on_data(data)

    def disconnect(self) -> None:
        """Close the session (idempotent).

        Runs even when the session closed *itself* earlier (e.g. after
        denying a login), so the disconnect is always logged exactly
        once per connection.
        """
        if not self._disconnect_logged:
            self._disconnect_logged = True
            self.closed = True
            self.on_disconnect()
            self.log(EventType.DISCONNECT)

    # -- honeypot behavior ------------------------------------------------------

    def on_connect(self) -> bytes:
        """Produce the protocol greeting; default none."""
        return b""

    @abc.abstractmethod
    def on_data(self, data: bytes) -> bytes:
        """Handle client bytes and produce the reply."""

    def on_disconnect(self) -> None:
        """Hook for teardown; default no-op."""

    # -- logging ----------------------------------------------------------------

    def log(self, event_type: EventType, *, action: str | None = None,
            username: str | None = None, password: str | None = None,
            raw: bytes | str | None = None) -> None:
        """Emit one :class:`LogEvent` for this session."""
        context = self.context
        context.events += 1
        context.sink(LogEvent._from_tuple((
            context.clock.timestamp(), *self._fields, event_type.value,
            action, username, password,
            None if raw is None else truncate_raw(raw))))


class Honeypot(abc.ABC):
    """A deployed honeypot instance: static info + session factory."""

    #: Software identity, e.g. ``"qeeqbox"``; set by subclasses.
    honeypot_type: str = "generic"
    #: Emulated DBMS; set by subclasses.
    dbms: str = "generic"
    #: Interaction level; set by subclasses.
    interaction: str = "low"
    #: Default TCP port of the emulated service; set by subclasses.
    default_port: int = 0

    def __init__(self, honeypot_id: str, *, config: str = "default",
                 port: int | None = None):
        self.info = HoneypotInfo(
            honeypot_id=honeypot_id,
            honeypot_type=self.honeypot_type,
            dbms=self.dbms,
            interaction=self.interaction,
            config=config,
            port=port if port is not None else self.default_port,
        )

    @abc.abstractmethod
    def new_session(self, context: SessionContext) -> HoneypotSession:
        """Create a session for one incoming connection."""


@dataclass(slots=True)
class MemoryWire:
    """In-process client side of a honeypot session.

    Mirrors a blocking socket API: :meth:`connect`, :meth:`send` (returns
    the server's reply bytes), :meth:`close`.  Used by attacker agents in
    fast simulation mode, and by unit tests.
    """

    honeypot: Honeypot
    context: SessionContext
    #: Fault plan applied to payloads in flight.  ``None`` (the default)
    #: resolves the ambient plan lazily on first :meth:`send`; the
    #: replay driver passes the per-visit plan explicitly so the ~134k
    #: sends per run skip the ambient lookup -- and skip ``mangle()``
    #: entirely when the plan is the no-op singleton.
    fault_plan: faults.FaultPlan | None = None
    _session: HoneypotSession | None = field(default=None, init=False)
    _greeting: bytes = field(default=b"", init=False)

    def connect(self) -> bytes:
        """Open the connection; returns the server greeting."""
        if self._session is not None:
            raise RuntimeError("wire already connected")
        self._session = self.honeypot.new_session(self.context)
        self._greeting = self._session.connect()
        self.context.bytes_out += len(self._greeting)
        return self._greeting

    def send(self, data: bytes) -> bytes:
        """Send bytes; returns whatever the server replies.

        The fault plan may corrupt or truncate the payload in flight
        (``wire.corrupt`` / ``wire.truncate``) -- the in-memory analogue
        of a hostile or lossy network path.
        """
        if self._session is None:
            raise RuntimeError("wire not connected")
        plan = self.fault_plan
        if plan is None:  # ambient semantics for tests / TCP transports
            plan = faults.current()
        if not plan.is_noop:
            data = plan.mangle("wire", data)
        self.context.bytes_in += len(data)
        reply = self._session.receive(data)
        self.context.bytes_out += len(reply)
        return reply

    @property
    def server_closed(self) -> bool:
        """Whether the server has torn the connection down."""
        return self._session is not None and self._session.closed

    def close(self) -> None:
        """Close the connection (client side)."""
        if self._session is not None:
            self._session.disconnect()
