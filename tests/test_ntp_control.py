"""Mode-6 (control) and mode-7 (private/monlist) codecs and dispatch.

Three tiers:

* **Hypothesis round-trips** — every encodable :class:`ControlPacket`,
  :class:`PrivatePacket` and :class:`MonlistEntry` survives
  encode→decode over the full field ranges, and decode fuzz raises
  only :class:`NtpDecodeError` (never a bare ``struct.error``);
* **framing** — fragmentation/reassembly windows tile the payload with
  the RFC 1305 more-bit contract, monlist trains pack 6×72-byte
  entries into 440-byte packets;
* **responder dispatch** — :class:`NtpControlService`, the one
  control-plane responder, answers readvar with its version string,
  serves its monlist table when unpatched and drops mode 7 silently
  when patched; a live :class:`NtpServer` answers neither.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import parse
from repro.ntp.control import (
    CONTROL_HEADER_SIZE,
    ERR_NONE,
    ERR_REQ_DENIED,
    MAX_CONTROL_DATA,
    MONLIST_ENTRIES_PER_PACKET,
    MONLIST_ENTRY_SIZE,
    MONLIST_PACKET_SIZE,
    MONLIST_REQUEST_SIZE,
    OP_READSTAT,
    OP_READVAR,
    ControlDecodeError,
    ControlPacket,
    MonlistEntry,
    PrivateDecodeError,
    PrivatePacket,
    decode_monlist,
    fragment_response,
    is_monlist_request,
    monlist_deny,
    monlist_request,
    monlist_response,
    peek_mode,
    readvar_request,
    reassemble,
)
from repro.ntp.packet import NtpDecodeError
from repro.ntp.server import NtpServer
from repro.ntp.service import NtpControlService
from repro.world.ntpprofiles import NtpServerProfile

SERVER = parse("2001:500::1")
CLIENT = parse("2001:db8::c1")


def readstat_request(sequence=0):
    """The ``ntpq -c as`` request: read association status words."""
    return ControlPacket(opcode=OP_READSTAT, sequence=sequence)


def control_query(network, payload, src=CLIENT, dst=SERVER):
    if network.host(src) is None:
        network.add_host(src)
    return network.udp_request_multi(src, dst, 123, payload)


class TestPeekMode:
    def test_modes(self):
        assert peek_mode(readvar_request().encode()) == 6
        assert peek_mode(monlist_request().encode()) == 7
        assert peek_mode(b"") is None

    def test_time_packet_is_mode_3(self):
        from repro.ntp.packet import client_request

        assert peek_mode(client_request(0.0).encode()) == 3


class TestControlCodec:
    @given(opcode=st.integers(0, 0x1F), sequence=st.integers(0, 0xFFFF),
           status=st.integers(0, 0xFFFF),
           association_id=st.integers(0, 0xFFFF),
           offset=st.integers(0, 0xFFFF),
           data=st.binary(max_size=MAX_CONTROL_DATA),
           response=st.booleans(), error=st.booleans(),
           more=st.booleans(), version=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_full_range(self, opcode, sequence, status,
                                  association_id, offset, data, response,
                                  error, more, version):
        packet = ControlPacket(
            opcode=opcode, sequence=sequence, status=status,
            association_id=association_id, offset=offset, data=data,
            response=response, error=error, more=more, version=version)
        assert ControlPacket.decode(packet.encode()) == packet

    @given(data=st.binary(max_size=2 * CONTROL_HEADER_SIZE))
    @settings(max_examples=200, deadline=None)
    def test_decode_fuzz_raises_only_decode_error(self, data):
        try:
            packet = ControlPacket.decode(data)
        except NtpDecodeError:
            return
        assert isinstance(packet, ControlPacket)

    def test_data_padded_to_32_bits(self):
        wire = ControlPacket(data=b"abcde").encode()
        assert (len(wire) - CONTROL_HEADER_SIZE) % 4 == 0
        assert ControlPacket.decode(wire).data == b"abcde"

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            ControlPacket(opcode=32).encode()
        with pytest.raises(ValueError):
            ControlPacket(sequence=0x10000).encode()
        with pytest.raises(ValueError):
            ControlPacket(version=0).encode()
        with pytest.raises(ValueError):
            ControlPacket(data=b"x" * (MAX_CONTROL_DATA + 1)).encode()

    def test_decode_rejects_wrong_mode(self):
        wire = bytearray(readvar_request().encode())
        wire[0] = (wire[0] & ~0x7) | 7  # mode 7, not 6
        with pytest.raises(ControlDecodeError):
            ControlPacket.decode(bytes(wire))

    def test_decode_rejects_overlong_count(self):
        wire = bytearray(ControlPacket(data=b"abcd").encode())
        wire[11] = 200  # count claims more than present
        with pytest.raises(ControlDecodeError):
            ControlPacket.decode(bytes(wire))

    def test_request_builders(self):
        assert readvar_request(sequence=9).opcode == OP_READVAR
        assert readstat_request().opcode == OP_READSTAT
        assert not readvar_request().response


class TestFragmentation:
    @given(data=st.binary(max_size=3 * MAX_CONTROL_DATA),
           mtu=st.integers(1, MAX_CONTROL_DATA))
    @settings(max_examples=100, deadline=None)
    def test_fragment_reassemble_roundtrip(self, data, mtu):
        fragments = fragment_response(readvar_request(), data, mtu=mtu)
        assert reassemble(fragments) == data
        # Survives the wire and out-of-order arrival too.
        decoded = [ControlPacket.decode(fragment.encode())
                   for fragment in fragments]
        assert reassemble(reversed(decoded)) == data

    def test_more_bit_contract(self):
        fragments = fragment_response(readvar_request(), b"x" * 100, mtu=40)
        assert [f.more for f in fragments] == [True, True, False]
        assert [f.offset for f in fragments] == [0, 40, 80]

    def test_empty_payload_still_responds(self):
        fragments = fragment_response(readstat_request(), b"")
        assert len(fragments) == 1
        assert fragments[0].response and not fragments[0].more

    def test_fragments_mirror_request_identity(self):
        request = ControlPacket(opcode=OP_READVAR, sequence=77,
                                association_id=5)
        for fragment in fragment_response(request, b"y" * 50, mtu=20):
            assert fragment.sequence == 77
            assert fragment.association_id == 5
            assert fragment.opcode == OP_READVAR

    def test_reassemble_rejects_gap(self):
        fragments = fragment_response(readvar_request(), b"z" * 90, mtu=30)
        with pytest.raises(ControlDecodeError):
            reassemble([fragments[0], fragments[2]])

    def test_reassemble_rejects_missing_final(self):
        fragments = fragment_response(readvar_request(), b"z" * 90, mtu=30)
        with pytest.raises(ControlDecodeError):
            reassemble(fragments[:2])  # last one present still says more

    def test_reassemble_rejects_non_response(self):
        with pytest.raises(ControlDecodeError):
            reassemble([readvar_request()])

    def test_reassemble_rejects_empty(self):
        with pytest.raises(ControlDecodeError):
            reassemble([])

    def test_mtu_validation(self):
        with pytest.raises(ValueError):
            fragment_response(readvar_request(), b"", mtu=0)


class TestPrivateCodec:
    @given(request_code=st.integers(0, 0xFF),
           implementation=st.integers(0, 0xFF),
           sequence=st.integers(0, 0x7F), err=st.integers(0, 0xF),
           data=st.binary(max_size=MONLIST_ENTRY_SIZE * 2),
           response=st.booleans(), more=st.booleans(),
           auth=st.booleans(), version=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_full_range(self, request_code, implementation,
                                  sequence, err, data, response, more,
                                  auth, version):
        packet = PrivatePacket(
            request_code=request_code, implementation=implementation,
            sequence=sequence, err=err, nitems=len(data) and 1,
            size=len(data), data=data, response=response, more=more,
            auth=auth, version=version)
        assert PrivatePacket.decode(packet.encode()) == packet

    @given(data=st.binary(max_size=MONLIST_REQUEST_SIZE))
    @settings(max_examples=200, deadline=None)
    def test_decode_fuzz_raises_only_decode_error(self, data):
        try:
            packet = PrivatePacket.decode(data)
        except NtpDecodeError:
            return
        assert isinstance(packet, PrivatePacket)

    def test_sequence_range(self):
        with pytest.raises(ValueError):
            PrivatePacket(sequence=0x80).encode()

    def test_framing_validation(self):
        with pytest.raises(ValueError):
            PrivatePacket(nitems=2, size=72, data=b"").encode()

    def test_request_is_72_bytes(self):
        assert len(monlist_request().encode()) == MONLIST_REQUEST_SIZE

    def test_is_monlist_request(self):
        assert is_monlist_request(monlist_request())
        assert not is_monlist_request(monlist_deny())
        assert not is_monlist_request(PrivatePacket(request_code=1))


class TestMonlistEntry:
    @given(address=st.integers(0, (1 << 128) - 1),
           port=st.integers(0, 0xFFFF), count=st.integers(0, 0xFFFFFFFF),
           mode=st.integers(0, 0xFF), version=st.integers(0, 0xFF),
           last_seen=st.integers(0, 0xFFFFFFFF),
           first_seen=st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_full_range(self, address, port, count, mode,
                                  version, last_seen, first_seen):
        entry = MonlistEntry(
            address=address, port=port, count=count, mode=mode,
            version=version, last_seen=last_seen, first_seen=first_seen)
        wire = entry.encode()
        assert len(wire) == MONLIST_ENTRY_SIZE
        assert MonlistEntry.decode(wire) == entry

    def test_decode_rejects_wrong_size(self):
        with pytest.raises(PrivateDecodeError):
            MonlistEntry.decode(b"\0" * 71)


class TestMonlistTrain:
    def test_empty_table_one_empty_response(self):
        packets = monlist_response([])
        assert len(packets) == 1
        assert packets[0].nitems == 0 and packets[0].err == ERR_NONE
        assert decode_monlist([packets[0].encode()]) == ([], ERR_NONE)

    def test_train_packs_six_entries_per_packet(self):
        entries = [MonlistEntry(address=i) for i in range(13)]
        packets = monlist_response(entries, sequence=5)
        assert [p.nitems for p in packets] == [6, 6, 1]
        assert [p.more for p in packets] == [True, True, False]
        assert all(p.sequence == 5 for p in packets)
        wire = [p.encode() for p in packets]
        assert len(wire[0]) == MONLIST_PACKET_SIZE == 440
        decoded, err = decode_monlist(wire)
        assert err == ERR_NONE
        assert decoded == entries

    @given(count=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_train_roundtrip(self, count):
        entries = [MonlistEntry(address=1 << 64 | i, port=123 + i)
                   for i in range(count)]
        wire = [p.encode() for p in monlist_response(entries)]
        expected = max(
            1, -(-count // MONLIST_ENTRIES_PER_PACKET))
        assert len(wire) == expected
        assert decode_monlist(wire) == (entries, ERR_NONE)

    def test_deny_short_circuits(self):
        entries, err = decode_monlist([monlist_deny(3).encode()])
        assert entries == [] and err == ERR_REQ_DENIED

    def test_rejects_broken_more_chain(self):
        entries = [MonlistEntry(address=i) for i in range(13)]
        wire = [p.encode() for p in monlist_response(entries)]
        with pytest.raises(PrivateDecodeError):
            decode_monlist(wire[:2])  # truncated train still says more

    def test_rejects_non_response(self):
        with pytest.raises(PrivateDecodeError):
            decode_monlist([monlist_request().encode()])

    def test_rejects_empty_train(self):
        with pytest.raises(PrivateDecodeError):
            decode_monlist([])

    def test_amplification_factor(self):
        def amplification_factor(request_bytes, response_bytes):
            """Bytes returned per byte sent: the DRDoS amplification
            metric."""
            if request_bytes <= 0:
                return 0.0
            return response_bytes / request_bytes

        assert amplification_factor(72, 3 * 440) == pytest.approx(18.33, abs=0.01)
        assert amplification_factor(0, 440) == 0.0


def deploy_service(network, *, version="ntpd 4.2.6p5", monlist=True,
                   entries=(), control_mtu=MAX_CONTROL_DATA):
    profile = NtpServerProfile(software_version=version, ntp_version=4,
                               monlist_enabled=monlist)
    service = NtpControlService(profile, list(entries))
    service.control_mtu = control_mtu
    network.add_host(SERVER).bind_udp(123, service)
    return service


class TestServerControlDispatch:
    def test_readvar_reports_version(self, network):
        deploy_service(network, version="ntpd 4.2.6p5")
        payloads = control_query(network, readvar_request().encode())
        data = reassemble([ControlPacket.decode(p) for p in payloads])
        assert b'version="ntpd 4.2.6p5"' in data

    def test_small_mtu_forces_fragment_train(self, network):
        service = deploy_service(network, control_mtu=16)
        payloads = control_query(network, readvar_request().encode())
        assert len(payloads) > 1
        data = reassemble([ControlPacket.decode(p) for p in payloads])
        assert data.decode("ascii") == service.system_variables()

    def test_readstat_answers_empty(self, network):
        deploy_service(network)
        payloads = control_query(network, readstat_request().encode())
        assert len(payloads) == 1
        assert ControlPacket.decode(payloads[0]).data == b""

    def test_unknown_opcode_answers_error(self, network):
        deploy_service(network)
        payloads = control_query(
            network, ControlPacket(opcode=31).encode())
        assert ControlPacket.decode(payloads[0]).error

    def test_response_packets_ignored(self, network):
        deploy_service(network)
        request = ControlPacket(opcode=OP_READVAR, response=True)
        assert control_query(network, request.encode()) == []


class TestServerMonlist:
    ENTRIES = [MonlistEntry(address=CLIENT + index, port=40000 + index,
                            count=index + 1) for index in range(13)]

    def test_unpatched_serves_recent_clients(self, network):
        deploy_service(network, monlist=True, entries=self.ENTRIES)
        payloads = control_query(network, monlist_request(7).encode())
        entries, err = decode_monlist(payloads)
        assert err == ERR_NONE
        assert entries == self.ENTRIES
        assert len(payloads) == 3  # 6+6+1 entry train

    def test_patched_drops_mode7_silently(self, network):
        deploy_service(network, version="ntpd 4.2.8p17", monlist=False,
                       entries=self.ENTRIES)
        assert control_query(network, monlist_request().encode()) == []

    def test_non_monlist_request_denied_explicitly(self, network):
        deploy_service(network, monlist=True)
        payloads = control_query(
            network, PrivatePacket(request_code=1).encode())
        assert decode_monlist(payloads) == ([], ERR_REQ_DENIED)


class TestLiveServerIsTimeOnly:
    def test_control_plane_unanswered(self, network):
        server = NtpServer(network, SERVER, location="X")
        assert control_query(network, readvar_request().encode()) == []
        assert control_query(network, monlist_request().encode()) == []
        # The 12-byte readvar is too short for a mode-3 decode; the
        # 72-byte monlist request decodes, as mode 7.
        assert server.stats.malformed == 1
        assert server.stats.wrong_mode == 1
        assert server.stats.responses == 0
