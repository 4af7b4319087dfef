"""Unit tests for keys, certificates, and the mini TLS handshake."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import parse
from repro.proto.http import HttpRequest, HttpResponse, HttpServerSession
from repro.proto.tls_session import PlainService, TlsService
from repro.tlslib import certificate
from repro.tlslib.certificate import (
    PUBLIC_CA,
    PUBLIC_LIFETIME,
    Certificate,
    CertificateDecodeError,
    issue_public,
    issue_self_signed,
)
from repro.tlslib.handshake import (
    ALERT_HANDSHAKE_FAILURE,
    ALERT_UNRECOGNIZED_NAME,
    HandshakeStatus,
    TlsDecodeError,
    TlsTerminator,
    alert,
    client_hello,
    parse_client_hello,
    perform_handshake,
    server_hello,
)
from repro.tlslib.keys import KeyPool, derive_key, unique_fingerprints

from tests.conftest import mutations_of

#: A valid certificate blob with a SAN list (every field kind present).
CERT = dataclasses.replace(issue_public("example.sim"), not_before=123.0,
                           not_after=123.0 + PUBLIC_LIFETIME)
CERT_BLOB = CERT.encode()


def publicly_trusted(cert):
    return cert.issuer == PUBLIC_CA


def valid_at(cert, now):
    return cert.not_before <= now <= cert.not_after


def matches_hostname(cert, hostname):
    """Simple SAN matching with single-label wildcard support."""
    for name in cert.san or (cert.subject,):
        if name == hostname:
            return True
        if name.startswith("*.") and "." in hostname:
            if hostname.split(".", 1)[1] == name[2:]:
                return True
    return False


def shared_keys(pool):
    """All keys in the shared portion of a key pool."""
    return [pool._pool_key(index) for index in range(pool.size)]


class TestKeys:
    def test_derivation_deterministic(self):
        assert derive_key("a") == derive_key("a")
        assert derive_key("a") != derive_key("b")

    def test_algorithm_in_derivation(self):
        assert derive_key("a", "rsa-2048") != derive_key("a", "ssh-ed25519")

    def test_short_form(self):
        key = derive_key("x")
        assert key.short == key.hex[:8]

    def test_unique_fingerprints(self):
        keys = [derive_key("a"), derive_key("a"), derive_key("b")]
        assert unique_fingerprints(keys) == 2


class TestKeyPool:
    def test_full_reuse_stays_in_pool(self):
        pool = KeyPool("p", size=3, reuse_rate=1.0)
        rng = random.Random(1)
        drawn = {pool.draw(rng).fingerprint for _ in range(50)}
        assert len(drawn) <= 3
        assert drawn <= {k.fingerprint for k in shared_keys(pool)}

    def test_no_reuse_all_unique(self):
        pool = KeyPool("p", size=3, reuse_rate=0.0)
        rng = random.Random(1)
        drawn = [pool.draw(rng).fingerprint for _ in range(20)]
        assert len(set(drawn)) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyPool("p", size=0, reuse_rate=0.5)
        with pytest.raises(ValueError):
            KeyPool("p", size=1, reuse_rate=1.5)


class TestCertificates:
    def test_public_cert_trusted(self):
        cert = issue_public("example.sim")
        assert publicly_trusted(cert)
        assert not cert.self_signed
        assert cert.issuer == PUBLIC_CA

    def test_self_signed(self):
        cert = issue_self_signed("fritz.box")
        assert cert.self_signed
        assert not publicly_trusted(cert)

    def test_expiry(self, monkeypatch):
        monkeypatch.setattr(certificate, "PUBLIC_LIFETIME", 100.0)
        cert = issue_public("x")
        assert valid_at(cert, 50.0)
        assert cert.expired(101.0)
        assert not valid_at(cert, -1.0)

    def test_fingerprint_stable_and_distinct(self):
        cert_a = issue_public("a.sim")
        cert_b = issue_public("b.sim")
        assert cert_a.fingerprint == issue_public("a.sim").fingerprint
        assert cert_a.fingerprint != cert_b.fingerprint

    def test_encode_decode_roundtrip(self):
        decoded = Certificate.decode(CERT.encode())
        assert decoded == CERT

    def test_decode_rejects_garbage(self):
        with pytest.raises(CertificateDecodeError):
            Certificate.decode(b"\x00\x05ab")

    def test_hostname_matching(self):
        cert = Certificate(
            subject="example.sim", issuer=PUBLIC_CA,
            not_before=0, not_after=1, key=derive_key("k"),
            san=("example.sim", "*.cdn.sim"),
        )
        assert matches_hostname(cert, "example.sim")
        assert matches_hostname(cert, "edge1.cdn.sim")
        assert not matches_hostname(cert, "deep.edge1.cdn.sim")
        assert not matches_hostname(cert, "other.sim")

    @given(subject=st.text(min_size=1, max_size=40),
           lifetime=st.floats(min_value=1, max_value=1e9))
    def test_roundtrip_property(self, subject, lifetime):
        cert = dataclasses.replace(issue_self_signed(subject),
                                   not_after=lifetime)
        assert Certificate.decode(cert.encode()) == cert

    def test_non_utf8_field_fails_handshake_as_not_tls(self):
        blob = bytearray(CERT_BLOB)
        blob[2] = 0xFF  # first byte of the subject
        with pytest.raises(CertificateDecodeError):
            Certificate.decode(bytes(blob))

        class Replay:
            def write(self, data):
                flight = server_hello(CERT)
                start = flight.index(CERT_BLOB)
                return flight[:start] + bytes(blob) + flight[start + len(blob):]

        assert perform_handshake(Replay()).status is HandshakeStatus.NOT_TLS

    @given(data=mutations_of(CERT_BLOB))
    @settings(max_examples=300, deadline=None)
    def test_decode_mutation_fuzz_raises_only_decode_error(self, data):
        try:
            cert = Certificate.decode(data)
        except CertificateDecodeError:
            return
        assert isinstance(cert, Certificate)


class TestClientHello:
    def test_sni_roundtrip(self):
        assert parse_client_hello(client_hello("example.sim")) == "example.sim"

    def test_no_sni(self):
        assert parse_client_hello(client_hello(None)) is None

    def test_rejects_http(self):
        with pytest.raises(TlsDecodeError):
            parse_client_hello(b"GET / HTTP/1.1\r\n\r\n")

    def test_non_ascii_sni_gets_handshake_failure(self):
        hello = bytearray(client_hello("example.sim"))
        hello[-1] = 0xFF  # last byte of the SNI
        with pytest.raises(TlsDecodeError):
            parse_client_hello(bytes(hello))
        terminator = TlsTerminator(issue_public("example.sim"))
        assert terminator.respond(bytes(hello)) \
            == alert(ALERT_HANDSHAKE_FAILURE)

    @given(data=mutations_of(client_hello("example.sim")))
    @settings(max_examples=300, deadline=None)
    def test_decode_mutation_fuzz_raises_only_decode_error(self, data):
        try:
            hostname = parse_client_hello(data)
        except TlsDecodeError:
            return
        assert hostname is None or isinstance(hostname, str)


class TestTerminator:
    def test_default_certificate_served(self):
        cert = issue_public("x.sim")
        terminator = TlsTerminator(cert)
        response = terminator.respond(client_hello(None))
        assert response[0] == 22  # handshake record

    def test_sni_required_alerts_without_hostname(self):
        cert = issue_public("cdn.sim")
        terminator = TlsTerminator(None, require_sni=True,
                                   sni_certificates={"cdn.sim": cert})
        response = terminator.respond(client_hello(None))
        assert response[0] == 21  # alert record
        assert response[-1] == ALERT_UNRECOGNIZED_NAME

    def test_sni_required_serves_with_hostname(self):
        cert = issue_public("cdn.sim")
        terminator = TlsTerminator(None, require_sni=True,
                                   sni_certificates={"cdn.sim": cert})
        response = terminator.respond(client_hello("cdn.sim"))
        assert response[0] == 22

    def test_needs_some_certificate(self):
        with pytest.raises(ValueError):
            TlsTerminator(None)


class TestHandshakeOverNetwork:
    SRC = parse("2001:db8::1")
    DST = parse("2001:db8::2")

    def _serve(self, network, terminator):
        network.add_host(self.DST).bind_tcp(
            443, TlsService(terminator, lambda: HttpServerSession("Page")))
        return network.tcp_connect(self.SRC, self.DST, 443)

    def test_successful_handshake_returns_cert(self, network):
        cert = issue_self_signed("fritz.box")
        stream = self._serve(network, TlsTerminator(cert))
        result = perform_handshake(stream)
        assert result.status is HandshakeStatus.OK
        assert result.certificate.fingerprint == cert.fingerprint

    def test_http_after_handshake(self, network):
        cert = issue_self_signed("fritz.box")
        stream = self._serve(network, TlsTerminator(cert))
        perform_handshake(stream)
        raw = stream.write(HttpRequest("GET", "/").encode())
        assert HttpResponse.decode(raw).title == "Page"

    def test_sni_required_alert_surface(self, network):
        cert = issue_public("cdn.sim")
        terminator = TlsTerminator(None, require_sni=True,
                                   sni_certificates={"cdn.sim": cert})
        stream = self._serve(network, terminator)
        result = perform_handshake(stream, hostname=None)
        assert result.status is HandshakeStatus.ALERT
        assert result.alert_description == ALERT_UNRECOGNIZED_NAME

    def test_sni_supplied_succeeds(self, network):
        cert = issue_public("cdn.sim")
        terminator = TlsTerminator(None, require_sni=True,
                                   sni_certificates={"cdn.sim": cert})
        stream = self._serve(network, terminator)
        result = perform_handshake(stream, hostname="cdn.sim")
        assert result.status is HandshakeStatus.OK

    def test_plaintext_server_not_tls(self, network):
        network.add_host(self.DST).bind_tcp(
            443, PlainService(lambda: HttpServerSession("x")))
        stream = network.tcp_connect(self.SRC, self.DST, 443)
        result = perform_handshake(stream)
        assert result.status is HandshakeStatus.NOT_TLS
