"""Unit tests for the RFC 5905 packet codec."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ntp.packet import (
    NTP_UNIX_OFFSET,
    PACKET_SIZE,
    LeapIndicator,
    Mode,
    NtpDecodeError,
    NtpPacket,
    client_request,
    from_ntp_time,
    server_response,
    to_ntp_time,
)


class TestTimestamps:
    def test_epoch_offset(self):
        assert to_ntp_time(0.0) == NTP_UNIX_OFFSET << 32

    def test_fraction_encoding(self):
        stamp = to_ntp_time(0.5)
        assert stamp & 0xFFFFFFFF == 1 << 31

    # Era 0 ends in 2036 when the 32-bit seconds field wraps; the codec
    # masks (correct wire behaviour), so roundtrip only holds inside it.
    @given(st.floats(min_value=0, max_value=float(2**32 - 1 - NTP_UNIX_OFFSET),
                     allow_nan=False))
    def test_roundtrip(self, seconds):
        assert from_ntp_time(to_ntp_time(seconds)) == pytest.approx(
            seconds, abs=1e-6)

    def test_era_rollover_wraps(self):
        wrapped = to_ntp_time(float(2**32 - NTP_UNIX_OFFSET))
        assert wrapped >> 32 == 0


class TestCodec:
    def test_encode_length(self):
        assert len(NtpPacket().encode()) == PACKET_SIZE

    def test_roundtrip_all_fields(self):
        packet = NtpPacket(
            leap=LeapIndicator.LAST_MINUTE_61,
            version=4,
            mode=Mode.SERVER,
            stratum=2,
            poll=10,
            precision=-23,
            root_delay=0x1234,
            root_dispersion=0x5678,
            reference_id=0x47505300,
            reference_timestamp=111,
            origin_timestamp=222,
            receive_timestamp=333,
            transmit_timestamp=444,
        )
        decoded = NtpPacket.decode(packet.encode())
        assert decoded == packet

    def test_extensions_preserved(self):
        packet = NtpPacket(extensions=b"\x01\x02\x03")
        decoded = NtpPacket.decode(packet.encode())
        assert decoded.extensions == b"\x01\x02\x03"

    def test_decode_rejects_short(self):
        with pytest.raises(NtpDecodeError):
            NtpPacket.decode(b"\x00" * 10)

    def test_decode_rejects_version_zero(self):
        raw = bytearray(NtpPacket().encode())
        raw[0] = 0x03  # version bits = 0
        with pytest.raises(NtpDecodeError):
            NtpPacket.decode(bytes(raw))

    def test_encode_rejects_bad_version(self):
        with pytest.raises(ValueError):
            NtpPacket(version=9).encode()

    def test_negative_precision_roundtrip(self):
        packet = NtpPacket(precision=-29)
        assert NtpPacket.decode(packet.encode()).precision == -29

    def test_negative_poll_roundtrip(self):
        # Regression: the seed codec packed poll unsigned (`& 0xFF`),
        # so a sub-second poll exponent of -6 decoded as 250.
        packet = NtpPacket(poll=-6)
        assert NtpPacket.decode(packet.encode()).poll == -6

    def test_nonnegative_poll_wire_bytes_unchanged(self):
        # The signed-poll fix must not move a single wire byte for the
        # non-negative polls every existing golden was built from.
        packet = NtpPacket(poll=10, precision=-23)
        raw = packet.encode()
        assert raw[2] == 10
        assert raw[3] == (-23) & 0xFF

    def test_encode_rejects_out_of_range_poll(self):
        with pytest.raises(ValueError):
            NtpPacket(poll=128).encode()
        with pytest.raises(ValueError):
            NtpPacket(poll=-129).encode()

    @given(
        leap=st.sampled_from(list(LeapIndicator)),
        mode=st.sampled_from(list(Mode)),
        stratum=st.integers(0, 255),
        poll=st.integers(-128, 127),
        timestamps=st.tuples(*[st.integers(0, 2**64 - 1)] * 4),
    )
    def test_roundtrip_property(self, leap, mode, stratum, poll, timestamps):
        packet = NtpPacket(
            leap=leap, mode=mode, stratum=stratum, poll=poll,
            reference_timestamp=timestamps[0],
            origin_timestamp=timestamps[1],
            receive_timestamp=timestamps[2],
            transmit_timestamp=timestamps[3],
        )
        assert NtpPacket.decode(packet.encode()) == packet

    @given(
        leap=st.sampled_from(list(LeapIndicator)),
        version=st.integers(1, 7),
        mode=st.sampled_from(list(Mode)),
        stratum=st.integers(0, 255),
        poll=st.integers(-128, 127),
        precision=st.integers(-128, 127),
        root_delay=st.integers(0, 2**32 - 1),
        root_dispersion=st.integers(0, 2**32 - 1),
        reference_id=st.integers(0, 2**32 - 1),
        timestamps=st.tuples(*[st.integers(0, 2**64 - 1)] * 4),
        extensions=st.binary(max_size=64),
    )
    def test_roundtrip_full_range(self, leap, version, mode, stratum, poll,
                                  precision, root_delay, root_dispersion,
                                  reference_id, timestamps, extensions):
        """Every field over its full wire range survives a round trip."""
        packet = NtpPacket(
            leap=leap, version=version, mode=mode, stratum=stratum,
            poll=poll, precision=precision, root_delay=root_delay,
            root_dispersion=root_dispersion, reference_id=reference_id,
            reference_timestamp=timestamps[0],
            origin_timestamp=timestamps[1],
            receive_timestamp=timestamps[2],
            transmit_timestamp=timestamps[3],
            extensions=extensions,
        )
        assert NtpPacket.decode(packet.encode()) == packet

    @given(data=st.binary(max_size=96))
    def test_decode_fuzz_raises_only_decode_error(self, data):
        """Arbitrary bytes either decode or raise NtpDecodeError — never
        a raw struct.error or bare ValueError."""
        try:
            packet = NtpPacket.decode(data)
        except NtpDecodeError:
            return
        assert isinstance(packet, NtpPacket)
        assert packet.encode() == data


class TestRequestResponse:
    def test_client_request_is_mode3(self):
        request = client_request(100.0)
        assert request.mode is Mode.CLIENT
        assert from_ntp_time(request.transmit_timestamp) == pytest.approx(100.0)

    def test_server_response_mirrors_origin(self):
        request = client_request(100.0)
        response = server_response(request, receive_time=100.1,
                                   transmit_time=100.2)
        assert response.mode is Mode.SERVER
        assert response.origin_timestamp == request.transmit_timestamp
        assert response.stratum == 2

    def test_server_response_caps_version(self):
        request = dataclasses.replace(client_request(0.0), version=7)
        assert server_response(request, 0.0, 0.0).version == 4
