"""Tests for the TDS (MSSQL) codec."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.honeypots import LowInteractionMSSQL
from repro.honeypots.base import MemoryWire
from repro.protocols import tds
from repro.protocols.errors import ProtocolError


class TestFraming:
    def test_frame_and_read(self):
        reader = tds.PacketReader()
        packets = reader.feed(tds.frame(tds.PKT_PRELOGIN, b"x"))
        assert packets == [(tds.PKT_PRELOGIN, b"x")]

    def test_partial_packets_buffer(self):
        reader = tds.PacketReader()
        data = tds.frame(tds.PKT_LOGIN7, b"abcdef")
        assert reader.feed(data[:4]) == []
        assert reader.feed(data[4:]) == [(tds.PKT_LOGIN7, b"abcdef")]

    def test_multi_packet_message_reassembled(self):
        part1 = tds.frame(tds.PKT_LOGIN7, b"aaa", status=0)
        part2 = tds.frame(tds.PKT_LOGIN7, b"bbb", status=tds.STATUS_EOM)
        reader = tds.PacketReader()
        assert reader.feed(part1) == []
        assert reader.feed(part2) == [(tds.PKT_LOGIN7, b"aaabbb")]

    def test_invalid_length_raises(self):
        with pytest.raises(ProtocolError):
            tds.PacketReader().feed(b"\x10\x01\x00\x02\x00\x00\x01\x00")


class TestPrelogin:
    def test_roundtrip_default(self):
        options = tds.parse_prelogin(tds.build_prelogin())
        assert tds.PRELOGIN_VERSION in options
        assert options[tds.PRELOGIN_ENCRYPTION] == bytes(
            [tds.ENCRYPT_NOT_SUP])

    def test_roundtrip_custom(self):
        raw = tds.build_prelogin({tds.PRELOGIN_MARS: b"\x00",
                                  tds.PRELOGIN_THREADID: b"\x01\x02"})
        options = tds.parse_prelogin(raw)
        assert options == {tds.PRELOGIN_MARS: b"\x00",
                           tds.PRELOGIN_THREADID: b"\x01\x02"}

    def test_unterminated_option_list_raises(self):
        with pytest.raises(ProtocolError):
            tds.parse_prelogin(b"\x00\x00\x06\x00\x01")


class TestPasswordObfuscation:
    def test_roundtrip(self):
        assert tds.deobfuscate_password(
            tds.obfuscate_password("P@ssw0rd!")) == "P@ssw0rd!"

    def test_empty(self):
        assert tds.obfuscate_password("") == b""

    @given(st.text(max_size=64))
    def test_roundtrip_property(self, password):
        assert tds.deobfuscate_password(
            tds.obfuscate_password(password)) == password


class TestLogin7:
    def test_roundtrip(self):
        raw = tds.build_login7("sa", "123", hostname="WIN-1",
                               app_name="sqlcmd", database="master")
        parsed = tds.parse_login7(raw)
        assert parsed.username == "sa"
        assert parsed.password == "123"
        assert parsed.hostname == "WIN-1"
        assert parsed.app_name == "sqlcmd"
        assert parsed.database == "master"
        assert parsed.tds_version == tds.TDS_VERSION_74

    def test_empty_password(self):
        parsed = tds.parse_login7(tds.build_login7("hbv7", ""))
        assert parsed.username == "hbv7"
        assert parsed.password == ""

    def test_truncated_raises(self):
        raw = tds.build_login7("sa", "x")
        with pytest.raises(ProtocolError):
            tds.parse_login7(raw[:20])

    @given(st.text(alphabet=st.characters(min_codepoint=33,
                                          max_codepoint=0x2FF),
                   min_size=1, max_size=20),
           st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=0x2FF),
                   max_size=30))
    def test_credentials_roundtrip_property(self, username, password):
        parsed = tds.parse_login7(tds.build_login7(username, password))
        assert parsed.username == username
        assert parsed.password == password


class TestTokens:
    def test_error_token_roundtrip(self):
        raw = tds.build_error_token(
            tds.MSSQL_LOGIN_FAILED, "Login failed for user 'sa'.")
        (token,) = tds.parse_tokens(raw)
        assert token.number == tds.MSSQL_LOGIN_FAILED
        assert "Login failed" in token.message
        assert token.severity == 14

    def test_loginack_and_done(self):
        raw = tds.build_loginack_token() + tds.build_done_token()
        tokens = tds.parse_tokens(raw)
        assert tokens == ["LOGINACK", "DONE"]

    def test_unknown_token_raises(self):
        with pytest.raises(ProtocolError):
            tds.parse_tokens(b"\x42\x00\x00")


class TestGoldenBytes:
    """Exact encodings, pinned so a symmetric byte change cannot pass."""

    def test_default_prelogin(self):
        assert tds.build_prelogin().hex() == (
            "00000b00060100110001ff0f000000000002")

    def test_mssql_honeypot_prelogin_reply(self, session_context):
        wire = MemoryWire(LowInteractionMSSQL("hp"), session_context)
        wire.connect()
        reply = wire.send(tds.frame(tds.PKT_PRELOGIN, tds.build_prelogin()))
        assert reply.hex() == (
            "0401001a0000010000000b00060100110001ff10001000000002")

    @pytest.mark.parametrize("args, kwargs, expected", [
        (("sa", "P@ssw0rd!"), {},
         "940000000400007400100000000000076400000000000000e0000000"
         "030000000000000009040000620006006e0002007200090084000400"
         "8c0000008c0000008c00040094000000940000000000000000000000"
         "000000000000000000000000000063006c00690065006e0074007300"
         "6100a0a5a1a592a592a5d2a5a6a582a5e3a5b7a56f00730071006c00"
         "4f00440042004300"),
        (("hbv7", ""), {},
         "860000000400007400100000000000076400000000000000e0000000"
         "030000000000000009040000620006006e0004007600000076000400"
         "7e0000007e0000007e00040086000000860000000000000000000000"
         "000000000000000000000000000063006c00690065006e0074006800"
         "6200760037006f00730071006c004f00440042004300"),
        # A non-BMP character counts once in its slot but is four bytes.
        (("admin", "pw\U0001F600x"), {},
         "920000000400007400100000000000076400000000000000e0000000"
         "030000000000000009040000620006006e0005007800040082000400"
         "8a0000008a0000008a00040092000000920000000000000000000000"
         "000000000000000000000000000063006c00690065006e0074006100"
         "64006d0069006e00a2a5d2a57628a54822a56f00730071006c004f00"
         "440042004300"),
        (("sa", "123"), {"hostname": "WIN-1", "app_name": "sqlcmd",
                         "database": "master"},
         "960000000400007400100000000000076400000000000000e0000000"
         "030000000000000009040000620005006c0002007000030076000600"
         "8200000082000000820004008a0000008a0006000000000000000000"
         "0000000000000000000000000000570049004e002d00310073006100"
         "b6a586a596a5730071006c0063006d0064004f004400420043006d00"
         "61007300740065007200"),
    ], ids=["ascii", "empty-password", "non-bmp-password", "database"])
    def test_login7(self, args, kwargs, expected):
        assert tds.build_login7(*args, **kwargs).hex() == expected

    def test_login_failed_error_token(self):
        raw = tds.build_error_token(tds.MSSQL_LOGIN_FAILED,
                                    "Login failed for user 'sa'.")
        assert raw.hex() == (
            "aa5a0018480000010e1b004c006f00670069006e0020006600610069006c"
            "0065006400200066006f00720020007500730065007200200027007300"
            "610027002e000b4d005300530051004c00530045005200560045005200"
            "0000000000")


class TestObfuscationTable:
    def test_every_byte_matches_the_formula(self):
        # Drive every byte value through the UTF-16 code units 0xNN00.
        values = bytes(range(256))
        text = "".join(chr(b) for b in values)
        obfuscated = tds.obfuscate_password(text)
        assert obfuscated[0::2] == bytes(
            (((b << 4) | (b >> 4)) & 0xFF) ^ 0xA5 for b in values)
        assert set(obfuscated[1::2]) == {0xA5}
        assert tds.deobfuscate_password(obfuscated) == text

    def test_deobfuscation_inverts_every_byte(self):
        plain = bytes(range(256))
        obfuscated = bytes((((b << 4) | (b >> 4)) & 0xFF) ^ 0xA5
                           for b in plain)
        assert tds.deobfuscate_password(obfuscated) == plain.decode(
            "utf-16-le", "replace")

    def test_odd_trailing_byte_becomes_replacement(self):
        assert tds.deobfuscate_password(b"\x01") == "\ufffd"
        assert tds.deobfuscate_password(
            tds.obfuscate_password("ab")[:3]) == "a\ufffd"


class TestLogin7Lenient:
    """Malformed text slots decode with U+FFFD, never raise."""

    def test_slot_with_odd_byte_count(self):
        raw = tds.build_login7("sa", "123", database="master")[:-1]
        raw = struct.pack("<I", len(raw)) + raw[4:]
        parsed = tds.parse_login7(raw)
        assert parsed.database == "maste\ufffd"
        assert (parsed.username, parsed.password) == ("sa", "123")

    def test_lone_surrogate(self):
        raw = bytearray(tds.build_login7("sa", "12"))
        # The slot table starts at byte 40: username +4, password +8.
        (user_pos,) = struct.unpack_from("<H", raw, 44)
        (password_pos,) = struct.unpack_from("<H", raw, 48)
        raw[user_pos:user_pos + 2] = b"\x00\xd8"  # U+D800 for "s"
        raw[password_pos + 1] = 0x28              # obfuscated 0xD8
        parsed = tds.parse_login7(bytes(raw))
        assert parsed.username == "\ufffda"
        assert parsed.password == "\ufffd2"
