"""Unit tests for the MQTT 3.1.1 codec and broker session."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto.mqtt import (
    ACCEPTED,
    REFUSED_BAD_CREDENTIALS,
    REFUSED_NOT_AUTHORIZED,
    ConnackPacket,
    ConnectPacket,
    MqttBrokerSession,
    MqttDecodeError,
    decode_varint,
    encode_varint,
)

from tests.conftest import mutations_of

#: A valid CONNECT carrying every optional field.
CONNECT = ConnectPacket(client_id="scan", username="u",
                        password="p").encode()


class TestVarint:
    @pytest.mark.parametrize("value,encoded", [
        (0, b"\x00"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (16383, b"\xff\x7f"),
        (268435455, b"\xff\xff\xff\x7f"),
    ])
    def test_spec_vectors(self, value, encoded):
        assert encode_varint(value) == encoded
        assert decode_varint(encoded) == (value, len(encoded))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_varint(268435456)
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(MqttDecodeError):
            decode_varint(b"\x80")

    @given(st.integers(min_value=0, max_value=268435455))
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        assert decode_varint(encoded) == (value, len(encoded))


class TestConnectCodec:
    def test_anonymous_roundtrip(self):
        packet = ConnectPacket(client_id="scan")
        decoded = ConnectPacket.decode(packet.encode())
        assert decoded.client_id == "scan"
        assert decoded.username is None
        assert decoded.password is None
        assert decoded.clean_session

    def test_credentials_roundtrip(self):
        packet = ConnectPacket(client_id="c", username="u", password="p",
                               keepalive=30)
        decoded = ConnectPacket.decode(packet.encode())
        assert (decoded.username, decoded.password) == ("u", "p")
        assert decoded.keepalive == 30

    def test_password_without_username_rejected(self):
        with pytest.raises(ValueError):
            ConnectPacket(client_id="c", password="p").encode()

    def test_wrong_packet_type_rejected(self):
        with pytest.raises(MqttDecodeError):
            ConnectPacket.decode(b"\x20\x02\x00\x00")

    def test_wrong_protocol_level_rejected(self):
        raw = bytearray(ConnectPacket(client_id="c").encode())
        raw[8] = 3  # protocol level byte
        with pytest.raises(MqttDecodeError):
            ConnectPacket.decode(bytes(raw))

    @given(client_id=st.text(max_size=20),
           username=st.one_of(st.none(), st.text(max_size=10)))
    def test_roundtrip_property(self, client_id, username):
        packet = ConnectPacket(client_id=client_id, username=username)
        decoded = ConnectPacket.decode(packet.encode())
        assert decoded.client_id == client_id
        assert decoded.username == username

    @pytest.mark.parametrize("data", [
        b"\x10\x06\x00\x04MQTT",  # no level, flags or keepalive
        b"\x10\x0c\x00\x04MQTT\x04\x82\x00\x3c\x00\x00",  # no username
        b"\x10\x0d\x00\x04MQTT\x04\x02\x00\x3c\x00\x01\xff",  # not UTF-8
    ], ids=["short-body", "missing-field", "bad-utf8"])
    def test_malformed_connect_closes_broker(self, data):
        with pytest.raises(MqttDecodeError):
            ConnectPacket.decode(data)
        session = MqttBrokerSession(require_auth=False)
        assert session.on_data(data) is None
        assert session.closed

    @given(data=mutations_of(CONNECT))
    @settings(max_examples=300, deadline=None)
    def test_decode_mutation_fuzz_raises_only_decode_error(self, data):
        try:
            packet = ConnectPacket.decode(data)
        except MqttDecodeError:
            return
        assert isinstance(packet, ConnectPacket)


class TestConnackCodec:
    def test_roundtrip(self):
        packet = ConnackPacket(return_code=5, session_present=True)
        decoded = ConnackPacket.decode(packet.encode())
        assert decoded == packet

    def test_accepted_property(self):
        def accepted(packet):
            return packet.return_code == ACCEPTED

        assert accepted(ConnackPacket(return_code=ACCEPTED))
        assert not accepted(ConnackPacket(return_code=5))

    def test_rejects_wrong_type(self):
        with pytest.raises(MqttDecodeError):
            ConnackPacket.decode(ConnectPacket(client_id="x").encode())


class TestBrokerSession:
    def test_open_broker_accepts_anonymous(self):
        session = MqttBrokerSession(require_auth=False)
        reply = session.on_data(ConnectPacket(client_id="scan").encode())
        assert ConnackPacket.decode(reply).return_code == ACCEPTED

    def test_secured_broker_refuses_anonymous(self):
        session = MqttBrokerSession(require_auth=True)
        reply = session.on_data(ConnectPacket(client_id="scan").encode())
        assert ConnackPacket.decode(reply).return_code == \
            REFUSED_NOT_AUTHORIZED
        assert session.closed

    def test_secured_broker_rejects_wrong_credentials(self):
        session = MqttBrokerSession(require_auth=True)
        packet = ConnectPacket(client_id="c", username="u", password="guess")
        reply = session.on_data(packet.encode())
        assert ConnackPacket.decode(reply).return_code == \
            REFUSED_BAD_CREDENTIALS

    def test_secured_broker_accepts_right_credentials(self):
        session = MqttBrokerSession(require_auth=True)
        session.username, session.password = "u", "p"
        packet = ConnectPacket(client_id="c", username="u", password="p")
        reply = session.on_data(packet.encode())
        assert ConnackPacket.decode(reply).return_code == ACCEPTED

    def test_garbage_closes_silently(self):
        session = MqttBrokerSession(require_auth=False)
        assert session.on_data(b"GET / HTTP/1.1\r\n\r\n") is None
        assert session.closed
