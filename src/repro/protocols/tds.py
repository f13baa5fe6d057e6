"""Tabular Data Stream (TDS) -- the Microsoft SQL Server protocol.

Implements the login phase used by MSSQL brute-forcers: packet framing,
PRELOGIN negotiation, the LOGIN7 packet (with the standard password
obfuscation, so honeypots recover cleartext credentials), and the server
token stream (LOGINACK / ERROR / DONE).

Wire format reference: MS-TDS specification,
https://learn.microsoft.com/en-us/openspecs/windows_protocols/ms-tds/
"""

from __future__ import annotations

import struct
from codecs import utf_16_le_decode as _utf16_decode
from codecs import utf_16_le_encode as _utf16_encode
from dataclasses import dataclass, field

from repro.protocols.errors import ProtocolError

# Packet types.
PKT_SQL_BATCH = 0x01
PKT_RESPONSE = 0x04
PKT_LOGIN7 = 0x10
PKT_PRELOGIN = 0x12

# Status flags.
STATUS_EOM = 0x01

# PRELOGIN option tokens.
PRELOGIN_VERSION = 0x00
PRELOGIN_ENCRYPTION = 0x01
PRELOGIN_INSTOPT = 0x02
PRELOGIN_THREADID = 0x03
PRELOGIN_MARS = 0x04
PRELOGIN_TERMINATOR = 0xFF

# Encryption negotiation values.
ENCRYPT_OFF = 0x00
ENCRYPT_NOT_SUP = 0x02

# Response stream tokens.
TOKEN_LOGINACK = 0xAD
TOKEN_ERROR = 0xAA
TOKEN_DONE = 0xFD

#: TDS 7.4.
TDS_VERSION_74 = 0x74000004

#: Login failed for user ... error number.
MSSQL_LOGIN_FAILED = 18456

_HEADER = struct.Struct(">BBHHBB")
_MAX_PACKET = 32768


def frame(packet_type: int, payload: bytes, *, status: int = STATUS_EOM,
          spid: int = 0, packet_id: int = 1) -> bytes:
    """Wrap ``payload`` in a TDS packet header."""
    length = len(payload) + _HEADER.size
    if length > _MAX_PACKET:
        raise ValueError("TDS payload exceeds maximum packet size")
    return _HEADER.pack(packet_type, status, length, spid, packet_id,
                        0) + payload


@dataclass
class PacketReader:
    """Incremental splitter for the TDS packet stream."""

    _buffer: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Add bytes; return completed ``(packet_type, payload)`` packets.

        Multi-packet messages (status without EOM) are concatenated until
        the EOM packet arrives.
        """
        self._buffer += data
        packets: list[tuple[int, bytes]] = []
        partial: dict[int, bytearray] = {}
        while len(self._buffer) >= _HEADER.size:
            packet_type, status, length, _spid, _pid, _win = _HEADER.unpack(
                self._buffer[:_HEADER.size])
            if not _HEADER.size <= length <= _MAX_PACKET:
                raise ProtocolError(f"invalid TDS packet length {length}")
            if len(self._buffer) < length:
                break
            payload = bytes(self._buffer[_HEADER.size:length])
            del self._buffer[:length]
            chunk = partial.setdefault(packet_type, bytearray())
            chunk += payload
            if status & STATUS_EOM:
                packets.append((packet_type, bytes(chunk)))
                del partial[packet_type]
        # Stash unfinished multi-packet messages back for the next feed.
        for packet_type, chunk in partial.items():
            # Rebuild a non-EOM header so the next feed resumes cleanly.
            self._buffer[:0] = _HEADER.pack(
                packet_type, 0, len(chunk) + _HEADER.size, 0, 1, 0) + chunk
        return packets


def build_prelogin(options: dict[int, bytes] | None = None) -> bytes:
    """Encode a PRELOGIN payload (unframed).

    ``options`` maps option tokens to their raw data; defaults to a
    typical client offer (version 0, encryption not supported).
    """
    if options is None:
        return _DEFAULT_PRELOGIN
    items = sorted(options.items())
    header_size = len(items) * 5 + 1
    header = bytearray()
    body = bytearray()
    offset = header_size
    for token, data in items:
        header += struct.pack(">BHH", token, offset, len(data))
        body += data
        offset += len(data)
    header.append(PRELOGIN_TERMINATOR)
    return bytes(header + body)


_DEFAULT_PRELOGIN = build_prelogin({
    PRELOGIN_VERSION: struct.pack(">IH", 0x0F000000, 0),
    PRELOGIN_ENCRYPTION: bytes([ENCRYPT_NOT_SUP]),
})


def parse_prelogin(payload: bytes) -> dict[int, bytes]:
    """Decode a PRELOGIN payload into its option map."""
    options: dict[int, bytes] = {}
    offset = 0
    while True:
        if offset >= len(payload):
            raise ProtocolError("unterminated PRELOGIN option list")
        token = payload[offset]
        if token == PRELOGIN_TERMINATOR:
            break
        try:
            data_offset, data_len = struct.unpack_from(">HH", payload,
                                                       offset + 1)
        except struct.error as exc:
            raise ProtocolError("truncated PRELOGIN option") from exc
        if data_offset + data_len > len(payload):
            raise ProtocolError("PRELOGIN option data out of bounds")
        options[token] = payload[data_offset:data_offset + data_len]
        offset += 5
    return options


@dataclass(frozen=True)
class Login7:
    """Decoded LOGIN7 packet (the fields honeypots care about)."""

    tds_version: int
    hostname: str
    username: str
    password: str
    app_name: str
    server_name: str
    library_name: str
    database: str


#: Total length, then the fixed fields (TDS version first).
_LOGIN7_HEAD = struct.Struct("<IIIIIIIBBBBiI")
#: Nine (offset, length) slots: hostname, username, password, app name,
#: server name, unused, library name, language, database.
_LOGIN7_SLOTS = struct.Struct("<18H")
_LOGIN7_SLOTS_AT = _LOGIN7_HEAD.size
#: ClientID (6), SSPI, AtchDBFile, ChangePassword (4 each), SSPILong (4).
_LOGIN7_TAIL = bytes(22)
_LOGIN7_DATA_AT = _LOGIN7_SLOTS_AT + _LOGIN7_SLOTS.size + len(_LOGIN7_TAIL)

#: LOGIN7 password obfuscation: each byte's nibbles are swapped and the
#: result XORed with 0xA5.
_OBFUSCATE = bytes(((b << 4 | b >> 4) & 0xFF) ^ 0xA5 for b in range(256))
_DEOBFUSCATE = bytes.maketrans(_OBFUSCATE, bytes(range(256)))


def obfuscate_password(password: str) -> bytes:
    """Apply the LOGIN7 password obfuscation to UCS-2 encoded text."""
    return _utf16_encode(password)[0].translate(_OBFUSCATE)


def deobfuscate_password(data: bytes) -> str:
    """Invert :func:`obfuscate_password`."""
    return _utf16_decode(data.translate(_DEOBFUSCATE), "replace", True)[0]


def build_login7(username: str, password: str, *, hostname: str = "client",
                 app_name: str = "osql", server_name: str = "",
                 library_name: str = "ODBC", database: str = "",
                 tds_version: int = TDS_VERSION_74) -> bytes:
    """Encode a LOGIN7 payload (unframed).

    Slot lengths are ``len()`` of each string: a non-BMP character
    counts once, though it encodes to two UTF-16 code units.
    """
    strings = (hostname, username, password, app_name, server_name, "",
               library_name, "", database)
    data = [_utf16_encode(value)[0] for value in strings]
    data[2] = data[2].translate(_OBFUSCATE)
    slots = []
    offset = _LOGIN7_DATA_AT
    for value, encoded in zip(strings, data):
        slots += (offset, len(value))
        offset += len(encoded)
    return b"".join((
        _LOGIN7_HEAD.pack(offset, tds_version, 4096, 0x07000000, 100, 0,
                          0xE0, 0x03, 0, 0, 0, 0, 0x0409),
        _LOGIN7_SLOTS.pack(*slots), _LOGIN7_TAIL, *data))


def parse_login7(payload: bytes) -> Login7:
    """Decode a LOGIN7 payload, de-obfuscating the password."""
    if len(payload) < _LOGIN7_SLOTS_AT + _LOGIN7_SLOTS.size:
        raise ProtocolError("truncated LOGIN7 packet")
    total_length, tds_version = _LOGIN7_HEAD.unpack_from(payload)[:2]
    if total_length > len(payload):
        raise ProtocolError("LOGIN7 length exceeds payload")
    slots = _LOGIN7_SLOTS.unpack_from(payload, _LOGIN7_SLOTS_AT)
    text = [_utf16_decode(payload[slots[i]:slots[i] + 2 * slots[i + 1]],
                          "replace", True)[0] for i in (0, 2, 6, 8, 12, 16)]
    password = deobfuscate_password(payload[slots[4]:slots[4] + 2 * slots[5]])
    return Login7(tds_version, text[0], text[1], password, *text[2:])


_TOKEN_HEAD = struct.Struct("<BH")
_ERROR_HEAD = struct.Struct("<IBBH")


def build_error_token(number: int, message: str, *, state: int = 1,
                      severity: int = 14,
                      server_name: str = "MSSQLSERVER") -> bytes:
    """Encode an ERROR token (0xAA) for the response stream."""
    body = b"".join((
        _ERROR_HEAD.pack(number, state, severity, len(message)),
        _utf16_encode(message)[0], bytes((len(server_name),)),
        _utf16_encode(server_name)[0],
        bytes(5)))                     # proc name length, line number
    return _TOKEN_HEAD.pack(TOKEN_ERROR, len(body)) + body


def build_loginack_token(program_name: str = "Microsoft SQL Server",
                         tds_version: int = TDS_VERSION_74) -> bytes:
    """Encode a LOGINACK token (0xAD)."""
    prog = _utf16_encode(program_name)[0]
    body = bytearray()
    body += bytes([1])                     # interface: SQL_TSQL
    body += struct.pack(">I", tds_version)
    body += bytes([len(program_name)]) + prog
    body += bytes([16, 0, 0, 0])           # server version
    return bytes([TOKEN_LOGINACK]) + struct.pack("<H", len(body)) + bytes(
        body)


def build_done_token(*, status: int = 0, row_count: int = 0) -> bytes:
    """Encode a DONE token (0xFD)."""
    return bytes([TOKEN_DONE]) + struct.pack("<HHQ", status, 0, row_count)


@dataclass(frozen=True)
class ErrorToken:
    """Decoded ERROR token."""

    number: int
    state: int
    severity: int
    message: str


def parse_tokens(payload: bytes) -> list[object]:
    """Decode a response token stream into typed tokens.

    Returns :class:`ErrorToken` instances, the string ``"LOGINACK"`` and
    ``"DONE"`` markers; unknown tokens raise :class:`ProtocolError`.
    """
    tokens: list[object] = []
    offset = 0
    while offset < len(payload):
        token = payload[offset]
        if token == TOKEN_ERROR:
            (length,) = struct.unpack_from("<H", payload, offset + 1)
            body = payload[offset + 3:offset + 3 + length]
            number, state, severity = struct.unpack_from("<IBB", body, 0)
            (msg_len,) = struct.unpack_from("<H", body, 6)
            message = _utf16_decode(body[8:8 + msg_len * 2], "replace",
                                    True)[0]
            tokens.append(ErrorToken(number, state, severity, message))
            offset += 3 + length
        elif token == TOKEN_LOGINACK:
            (length,) = struct.unpack_from("<H", payload, offset + 1)
            tokens.append("LOGINACK")
            offset += 3 + length
        elif token == TOKEN_DONE:
            tokens.append("DONE")
            offset += 1 + 12
        else:
            raise ProtocolError(f"unsupported TDS token {token:#x}")
    return tokens
