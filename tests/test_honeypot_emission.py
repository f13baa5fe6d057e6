"""``HoneypotSession.log`` emits events equal to keyword-built ones."""

import pytest

from repro import obs
from repro.honeypots.base import HoneypotInfo, HoneypotSession
from repro.pipeline.logstore import MAX_RAW, EventType, LogEvent

INFO = HoneypotInfo(honeypot_id="low-mssql-003", honeypot_type="qeeqbox",
                    dbms="mssql", interaction="low", config="default",
                    port=1433)

RAWS = {
    "none": None,
    "bytes": b"\x10\x01\xff\xfeSELECT 1",
    "str": "GET /_nodes HTTP/1.1",
    "long-bytes": b"\xc3\xa9" * (MAX_RAW + 5),
    "long-str": "x" * (MAX_RAW + 9),
}


class _Session(HoneypotSession):
    def on_data(self, data: bytes) -> bytes:
        return b""


def _excerpt(raw):
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", "replace")
    return None if raw is None else raw[:MAX_RAW]


@pytest.mark.parametrize("event_type", list(EventType))
@pytest.mark.parametrize("raw_kind", list(RAWS))
def test_log_equals_keyword_built_event(event_type, raw_kind,
                                        session_context, log_store, clock):
    raw = RAWS[raw_kind]
    session = _Session(INFO, session_context)
    clock.advance(seconds=17)
    telemetry = obs.Telemetry(enabled=True)
    with obs.install(telemetry):
        session.log(event_type, action="login", username="sa",
                    password="P@ss", raw=raw)
    (event,) = log_store
    assert type(event) is LogEvent
    assert event == LogEvent(
        timestamp=clock.timestamp(), honeypot_id=INFO.honeypot_id,
        honeypot_type=INFO.honeypot_type, dbms=INFO.dbms,
        interaction=INFO.interaction, config=INFO.config,
        src_ip=session_context.src_ip, src_port=session_context.src_port,
        event_type=event_type.value, action="login", username="sa",
        password="P@ss", raw=_excerpt(raw))
    assert type(event.event_type) is str
    assert session_context.events == 1
    clipped = raw_kind.startswith("long")
    assert telemetry.metrics.counter_value(
        "logstore.raw_truncated") == int(clipped)


def test_log_defaults_are_none(session_context, log_store):
    _Session(INFO, session_context).log(EventType.CONNECT)
    (event,) = log_store
    assert event[-4:] == (None, None, None, None)
    assert event.to_json() == LogEvent(*event[:9]).to_json()
