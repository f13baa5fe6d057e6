"""Low-interaction honeypots (the Qeeqbox tier of the paper).

Each honeypot completes the protocol's connection phase far enough to
capture credentials, then denies access.  No post-login interaction is
possible -- exactly the "login screen without an access granting
password" behavior the paper describes.
"""

from __future__ import annotations

from repro.honeypots.base import (Honeypot, HoneypotSession, HoneypotInfo,
                                  SessionContext)
from repro.pipeline.logstore import EventType
from repro.protocols import mysql, postgres as pg, resp, tds
from repro.protocols.errors import ProtocolError


class LowInteractionMySQL(Honeypot):
    """MySQL credential-capture honeypot (port 3306).

    Uses the auth-switch-to-cleartext trick so cooperating brute-force
    clients reveal plaintext passwords.
    """

    honeypot_type = "qeeqbox"
    dbms = "mysql"
    interaction = "low"
    default_port = 3306

    def new_session(self, context: SessionContext) -> HoneypotSession:
        return _MySQLSession(self.info, context)


class _MySQLSession(HoneypotSession):

    _SALT = b"\x2f\x55\x3e\x44\x17\x6b\x04\x30\x5a\x7e" \
            b"\x19\x42\x6c\x22\x61\x5b\x38\x47\x0d\x24"

    def __init__(self, info: HoneypotInfo, context: SessionContext):
        super().__init__(info, context)
        self._reader = mysql.PacketReader()
        self._username: str | None = None

    def on_connect(self) -> bytes:
        return mysql.frame(
            mysql.build_handshake_v10("8.0.36", 1001, self._SALT), 0)

    def on_data(self, data: bytes) -> bytes:
        try:
            packets = self._reader.feed(data)
        except ProtocolError:
            self.log(EventType.MALFORMED, raw=data)
            self.closed = True
            return b""
        out = bytearray()
        for _sequence_id, payload in packets:
            out += self._handle(payload)
            if self.closed:
                break
        return bytes(out)

    def _handle(self, payload: bytes) -> bytes:
        if self._username is None:
            try:
                response = mysql.parse_handshake_response(payload)
            except ProtocolError:
                self.log(EventType.MALFORMED, raw=payload)
                self.closed = True
                return b""
            self._username = response.username
            return mysql.frame(mysql.build_auth_switch_request(
                mysql.CLEAR_PASSWORD_PLUGIN), 2)
        password = mysql.parse_clear_password(payload)
        self.log(EventType.LOGIN_ATTEMPT, action="login",
                 username=self._username, password=password)
        err = mysql.build_err(
            mysql.ER_ACCESS_DENIED, "28000",
            f"Access denied for user '{self._username}' (using password: "
            f"{'YES' if password else 'NO'})")
        self.closed = True
        return mysql.frame(err, 4)


class LowInteractionPostgres(Honeypot):
    """PostgreSQL credential-capture honeypot (port 5432)."""

    honeypot_type = "qeeqbox"
    dbms = "postgresql"
    interaction = "low"
    default_port = 5432

    def new_session(self, context: SessionContext) -> HoneypotSession:
        return _PostgresLowSession(self.info, context)


class _PostgresLowSession(HoneypotSession):

    def __init__(self, info: HoneypotInfo, context: SessionContext):
        super().__init__(info, context)
        self._stream = pg.PgStream(expect_startup=True)
        self._user: str | None = None

    def on_data(self, data: bytes) -> bytes:
        try:
            messages = self._stream.feed(data)
        except ProtocolError:
            self.log(EventType.MALFORMED, raw=data)
            self.closed = True
            return b""
        out = bytearray()
        for message in messages:
            out += self._handle(message)
            if self.closed:
                break
        return bytes(out)

    def _handle(self, message: object) -> bytes:
        if isinstance(message, pg.SSLRequest):
            return b"N"
        if isinstance(message, pg.StartupMessage):
            self._user = message.user or ""
            return pg.build_authentication_request(
                pg.AUTH_CLEARTEXT_PASSWORD)
        if isinstance(message, pg.FrontendMessage):
            if message.type_code == b"p":
                password = message.payload.rstrip(b"\x00").decode(
                    "utf-8", "replace")
                self.log(EventType.LOGIN_ATTEMPT, action="login",
                         username=self._user, password=password)
                self.closed = True
                return pg.build_error_response(
                    "FATAL", "28P01",
                    f'password authentication failed for user '
                    f'"{self._user}"')
            if message.type_code == b"X":
                self.closed = True
                return b""
        self.log(EventType.MALFORMED, raw=repr(message))
        self.closed = True
        return b""


class LowInteractionRedis(Honeypot):
    """Redis honeypot that demands authentication for everything."""

    honeypot_type = "qeeqbox"
    dbms = "redis"
    interaction = "low"
    default_port = 6379

    def new_session(self, context: SessionContext) -> HoneypotSession:
        return _RedisLowSession(self.info, context)


class _RedisLowSession(HoneypotSession):

    def __init__(self, info: HoneypotInfo, context: SessionContext):
        super().__init__(info, context)
        self._parser = resp.RespParser()

    def on_disconnect(self) -> None:
        pending = self._parser.take_pending()
        if pending:
            self.log(EventType.MALFORMED, raw=pending)

    def on_data(self, data: bytes) -> bytes:
        try:
            values = self._parser.feed(data)
        except ProtocolError:
            self.log(EventType.MALFORMED, raw=data)
            return resp.encode(resp.Error(
                "ERR Protocol error: unbalanced quotes in request"))
        out = bytearray()
        for value in values:
            try:
                tokens = resp.command_tokens(value)
            except ProtocolError:
                self.log(EventType.MALFORMED, raw=repr(value))
                continue
            out += self._handle(tokens)
        return bytes(out)

    def _handle(self, tokens: list[bytes]) -> bytes:
        name = tokens[0].upper().decode("utf-8", "replace")
        if name == "AUTH" and len(tokens) >= 2:
            # AUTH password, or AUTH username password (Redis 6 ACL).
            if len(tokens) >= 3:
                username = tokens[1].decode("utf-8", "replace")
                password = tokens[2].decode("utf-8", "replace")
            else:
                username = "default"
                password = tokens[1].decode("utf-8", "replace")
            self.log(EventType.LOGIN_ATTEMPT, action="AUTH",
                     username=username, password=password)
            return resp.encode(resp.Error(
                "WRONGPASS invalid username-password pair or user is "
                "disabled."))
        self.log(EventType.COMMAND, action=name,
                 raw=b" ".join(tokens))
        return resp.encode(resp.Error(
            "NOAUTH Authentication required."))


class LowInteractionMSSQL(Honeypot):
    """Microsoft SQL Server credential-capture honeypot (port 1433)."""

    honeypot_type = "qeeqbox"
    dbms = "mssql"
    interaction = "low"
    default_port = 1433

    def new_session(self, context: SessionContext) -> HoneypotSession:
        return _MSSQLSession(self.info, context)


#: The framed PRELOGIN reply: version 16.0, encryption not supported.
_PRELOGIN_REPLY = tds.frame(tds.PKT_RESPONSE, tds.build_prelogin({
    tds.PRELOGIN_VERSION: b"\x10\x00\x10\x00\x00\x00",
    tds.PRELOGIN_ENCRYPTION: bytes([tds.ENCRYPT_NOT_SUP]),
}))


class _MSSQLSession(HoneypotSession):

    def __init__(self, info: HoneypotInfo, context: SessionContext):
        super().__init__(info, context)
        self._reader = tds.PacketReader()

    def on_data(self, data: bytes) -> bytes:
        try:
            packets = self._reader.feed(data)
        except ProtocolError:
            self.log(EventType.MALFORMED, raw=data)
            self.closed = True
            return b""
        out = bytearray()
        for packet_type, payload in packets:
            out += self._handle(packet_type, payload)
            if self.closed:
                break
        return bytes(out)

    def _handle(self, packet_type: int, payload: bytes) -> bytes:
        if packet_type == tds.PKT_PRELOGIN:
            return _PRELOGIN_REPLY
        if packet_type == tds.PKT_LOGIN7:
            try:
                login = tds.parse_login7(payload)
            except ProtocolError:
                self.log(EventType.MALFORMED, raw=payload)
                self.closed = True
                return b""
            self.log(EventType.LOGIN_ATTEMPT, action="login",
                     username=login.username, password=login.password)
            tokens = (tds.build_error_token(
                tds.MSSQL_LOGIN_FAILED,
                f"Login failed for user '{login.username}'.")
                + tds.build_done_token(status=0x02))
            self.closed = True
            return tds.frame(tds.PKT_RESPONSE, tokens)
        self.log(EventType.MALFORMED, raw=payload)
        self.closed = True
        return b""
