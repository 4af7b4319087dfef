"""Unit tests for the AMQP 0-9-1 surface."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto.amqp import (
    ACCESS_REFUSED,
    PROTOCOL_HEADER,
    AmqpBrokerSession,
    AmqpDecodeError,
    ConnectionClose,
    ConnectionStart,
    ConnectionStartOk,
    ConnectionTune,
    decode_frame,
    encode_frame,
    parse_method,
)

from tests.conftest import mutations_of

#: Valid encodings of the two methods a broker and a scanner decode
#: from the other side.
START = ConnectionStart("RabbitMQ", ("PLAIN",)).encode()
START_OK = ConnectionStartOk("PLAIN", "guest").encode()


class TestFraming:
    def test_roundtrip(self):
        frame = encode_frame(0, b"payload")
        frame_type, channel, payload = decode_frame(frame)
        assert (frame_type, channel, payload) == (1, 0, b"payload")

    def test_missing_end_octet(self):
        frame = bytearray(encode_frame(0, b"x"))
        frame[-1] = 0x00
        with pytest.raises(AmqpDecodeError):
            decode_frame(bytes(frame))

    def test_truncated(self):
        with pytest.raises(AmqpDecodeError):
            decode_frame(encode_frame(0, b"abcdef")[:-3])


class TestMethods:
    def test_start_roundtrip(self):
        start = ConnectionStart(product="SimRabbit 3.12",
                                mechanisms=("PLAIN", "ANONYMOUS"))
        decoded = parse_method(start.encode())
        assert decoded == start

    def test_start_ok_roundtrip(self):
        start_ok = ConnectionStartOk(mechanism="ANONYMOUS")
        assert parse_method(start_ok.encode()) == start_ok

    def test_tune_roundtrip(self):
        tune = ConnectionTune(channel_max=100, frame_max=4096)
        assert parse_method(tune.encode()) == tune

    def test_close_roundtrip(self):
        close = ConnectionClose(reply_code=ACCESS_REFUSED,
                                reply_text="ACCESS_REFUSED")
        assert parse_method(close.encode()) == close

    def test_unknown_method_rejected(self):
        payload = struct.pack("!HH", 99, 99)
        with pytest.raises(AmqpDecodeError):
            parse_method(encode_frame(0, payload))


class TestTotalDecoder:
    def test_non_utf8_product_is_a_decode_error(self):
        data = START.replace(b"RabbitMQ", b"Rabbit\xffQ")
        with pytest.raises(AmqpDecodeError):
            parse_method(data)

    def test_non_utf8_start_ok_closes_broker(self):
        data = START_OK.replace(b"PLAIN", b"PL\xffIN")
        session = AmqpBrokerSession(require_auth=True)
        session.on_data(PROTOCOL_HEADER)
        assert session.on_data(data) is None
        assert session.closed

    def test_short_tune_is_a_decode_error(self):
        payload = struct.pack("!HH", 10, 30)  # no channel_max/frame_max
        with pytest.raises(AmqpDecodeError):
            parse_method(encode_frame(0, payload))

    @given(data=st.one_of(mutations_of(START), mutations_of(START_OK)))
    @settings(max_examples=300, deadline=None)
    def test_mutation_fuzz_raises_only_decode_error(self, data):
        try:
            parse_method(data)
        except AmqpDecodeError:
            pass


class TestBrokerSession:
    def test_header_then_start(self):
        session = AmqpBrokerSession(require_auth=False)
        reply = session.on_data(PROTOCOL_HEADER)
        start = parse_method(reply)
        assert isinstance(start, ConnectionStart)
        assert "ANONYMOUS" in start.mechanisms

    def test_secured_broker_offers_plain_only(self):
        session = AmqpBrokerSession(require_auth=True)
        start = parse_method(session.on_data(PROTOCOL_HEADER))
        assert start.mechanisms == ("PLAIN",)

    def test_open_broker_tunes_anonymous(self):
        session = AmqpBrokerSession(require_auth=False)
        session.on_data(PROTOCOL_HEADER)
        reply = session.on_data(ConnectionStartOk(mechanism="ANONYMOUS").encode())
        assert isinstance(parse_method(reply), ConnectionTune)

    def test_secured_broker_closes_anonymous(self):
        session = AmqpBrokerSession(require_auth=True)
        session.on_data(PROTOCOL_HEADER)
        reply = session.on_data(ConnectionStartOk(mechanism="ANONYMOUS").encode())
        close = parse_method(reply)
        assert isinstance(close, ConnectionClose)
        assert close.reply_code == ACCESS_REFUSED
        assert session.closed

    def test_wrong_header_echoes_and_closes(self):
        session = AmqpBrokerSession(require_auth=False)
        reply = session.on_data(b"GET / HTTP/1.1\r\n\r\n")
        assert reply == PROTOCOL_HEADER
        assert session.closed

    def test_product_advertised(self):
        session = AmqpBrokerSession(require_auth=False)
        session.product = "TestBroker"
        start = parse_method(session.on_data(PROTOCOL_HEADER))
        assert start.product == "TestBroker"
