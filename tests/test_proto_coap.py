"""Unit tests for the RFC 7252 CoAP codec and resource server."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import Datagram
from repro.proto.coap import (
    ACK,
    CON,
    CONTENT_205,
    GET,
    NOT_FOUND_404,
    CoapDecodeError,
    CoapMessage,
    CoapResourceServer,
    encode_link_format,
    get_request,
    parse_link_format,
)


class TestCodec:
    def test_minimal_roundtrip(self):
        message = CoapMessage(mtype=CON, code=GET, message_id=7,
                              token=b"\x01")
        decoded = CoapMessage.decode(message.encode())
        assert decoded.mtype == CON
        assert decoded.code == GET
        assert decoded.message_id == 7
        assert decoded.token == b"\x01"

    def test_uri_path_options(self):
        request = get_request("/qlink/status", message_id=1)
        decoded = CoapMessage.decode(request.encode())
        assert decoded.uri_path == "/qlink/status"

    def test_payload_marker(self):
        message = CoapMessage(code=CONTENT_205, payload=b"data")
        decoded = CoapMessage.decode(message.encode())
        assert decoded.payload == b"data"

    def test_extended_option_lengths(self):
        # A path segment longer than 12 bytes needs the 13+ext encoding.
        long_segment = "x" * 200
        request = get_request(f"/{long_segment}", message_id=2)
        decoded = CoapMessage.decode(request.encode())
        assert decoded.uri_path == f"/{long_segment}"

    def test_token_too_long_rejected_on_encode(self):
        with pytest.raises(ValueError):
            CoapMessage(token=b"123456789").encode()

    def test_decode_rejects_short(self):
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(b"\x40\x01")

    def test_decode_rejects_wrong_version(self):
        raw = bytearray(CoapMessage().encode())
        raw[0] = (raw[0] & 0x3F) | (2 << 6)
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(bytes(raw))

    def test_decode_rejects_reserved_token_length(self):
        raw = bytearray(CoapMessage().encode())
        raw[0] = (raw[0] & 0xF0) | 0x0F
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(bytes(raw))

    @given(
        message_id=st.integers(0, 0xFFFF),
        token=st.binary(max_size=8),
        segments=st.lists(
            st.text(alphabet="abcdefghij", min_size=1, max_size=30),
            min_size=0, max_size=4),
    )
    def test_roundtrip_property(self, message_id, token, segments):
        path = "/" + "/".join(segments)
        request = dataclasses.replace(
            get_request(path, message_id=message_id), token=token)
        decoded = CoapMessage.decode(request.encode())
        assert decoded.message_id == message_id
        assert decoded.token == token
        assert decoded.uri_path == (path if segments else "/")


class TestLinkFormat:
    def test_roundtrip(self):
        resources = ["/castDeviceSearch", "/qlink/reg"]
        assert parse_link_format(encode_link_format(resources)) == resources

    def test_parse_with_attributes(self):
        payload = b'</sensors/temp>;rt="temperature";ct=0,</config>'
        assert parse_link_format(payload) == ["/sensors/temp", "/config"]

    def test_parse_empty(self):
        assert parse_link_format(b"") == []


class TestResourceServer:
    def _ask(self, server, path, message_id=9):
        request = get_request(path, message_id=message_id)
        datagram = Datagram(src=1, src_port=5000, dst=2, dst_port=5683,
                            payload=request.encode())
        raw = server(datagram)
        return CoapMessage.decode(raw) if raw is not None else None

    def test_well_known_core(self):
        server = CoapResourceServer(["/castDeviceSearch", "/castSetup"])
        response = self._ask(server, "/.well-known/core")
        assert response.code == CONTENT_205
        assert response.mtype == ACK
        assert parse_link_format(response.payload) == \
            ["/castDeviceSearch", "/castSetup"]

    def test_mid_and_token_mirrored(self):
        server = CoapResourceServer(["/a"])
        response = self._ask(server, "/.well-known/core", message_id=77)
        assert response.message_id == 77

    def test_known_resource(self):
        server = CoapResourceServer(["/a"])
        server.payloads = {"/a": b"value"}
        response = self._ask(server, "/a")
        assert response.code == CONTENT_205
        assert response.payload == b"value"

    def test_unknown_resource_404(self):
        server = CoapResourceServer(["/a"])
        response = self._ask(server, "/nope")
        assert response.code == NOT_FOUND_404

    def test_garbage_ignored(self):
        server = CoapResourceServer(["/a"])
        datagram = Datagram(src=1, src_port=5000, dst=2, dst_port=5683,
                            payload=b"\x00")
        assert server(datagram) is None

    def test_non_get_ignored(self):
        server = CoapResourceServer(["/a"])
        message = CoapMessage(code=CONTENT_205, message_id=1)
        datagram = Datagram(src=1, src_port=5000, dst=2, dst_port=5683,
                            payload=message.encode())
        assert server(datagram) is None
