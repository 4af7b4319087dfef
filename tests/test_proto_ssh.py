"""Unit tests for the SSH surface: ID strings, key replies, OS extraction."""

import pytest
from hypothesis import given, settings

from repro.proto.ssh import (
    SshDecodeError,
    SshIdentification,
    SshServerSession,
    banner_for,
    debian_patch_level,
    decode_keyreply,
    encode_keyreply,
    extract_os,
)
from repro.tlslib.keys import KeyIdentity, derive_key

from tests.conftest import mutations_of

#: A valid key reply.
KEYREPLY = encode_keyreply(KeyIdentity(fingerprint=b"\x01" * 16,
                                       algorithm="ssh-ed25519"))


class TestIdentification:
    def test_roundtrip_with_comment(self):
        ident = SshIdentification("2.0", "OpenSSH_9.2p1", "Debian-2+deb12u3")
        decoded = SshIdentification.decode(ident.encode())
        assert decoded == ident

    def test_roundtrip_without_comment(self):
        ident = SshIdentification("2.0", "OpenSSH_9.6")
        assert SshIdentification.decode(ident.encode()) == ident

    def test_banner_string(self):
        ident = SshIdentification("2.0", "OpenSSH_9.2p1", "Debian-2")
        assert ident.banner == "SSH-2.0-OpenSSH_9.2p1 Debian-2"

    def test_decode_tolerates_lf_only(self):
        decoded = SshIdentification.decode(b"SSH-2.0-Foo\n")
        assert decoded.software == "Foo"

    def test_decode_rejects_garbage(self):
        with pytest.raises(SshDecodeError):
            SshIdentification.decode(b"HTTP/1.1 200 OK\r\n")

    def test_banner_for(self):
        assert banner_for("OpenSSH_9.6").protocol == "2.0"


class TestKeyReply:
    def test_roundtrip(self):
        key = derive_key("host-1", "ssh-ed25519")
        decoded = decode_keyreply(encode_keyreply(key))
        assert decoded == key

    def test_rejects_missing_magic(self):
        with pytest.raises(SshDecodeError):
            decode_keyreply(b"XXXX\x00\x01a\x00\x01b")

    def test_rejects_truncated(self):
        key = derive_key("host-1")
        raw = encode_keyreply(key)
        with pytest.raises(SshDecodeError):
            decode_keyreply(raw[:-5])

    def test_rejects_non_ascii_algorithm(self):
        data = KEYREPLY.replace(b"ssh-ed25519", b"ssh-ed\xff5519")
        with pytest.raises(SshDecodeError):
            decode_keyreply(data)

    @given(data=mutations_of(KEYREPLY))
    @settings(max_examples=300, deadline=None)
    def test_mutation_fuzz_raises_only_decode_error(self, data):
        try:
            key = decode_keyreply(data)
        except SshDecodeError:
            return
        assert isinstance(key, KeyIdentity)


class TestServerSession:
    def test_greeting_then_keys(self):
        key = derive_key("host-x")
        session = SshServerSession(
            banner_for("OpenSSH_9.2p1", "Debian-2+deb12u3"), key)
        assert session.greeting().startswith(b"SSH-2.0-OpenSSH_9.2p1")
        reply = session.on_data(b"SSH-2.0-Scanner\r\n")
        assert decode_keyreply(reply) == key

    def test_garbage_client_hello_closes(self):
        session = SshServerSession(banner_for("OpenSSH_9.6"), derive_key("k"))
        assert session.on_data(b"\x00\x01") is None
        assert session.closed


class TestOsExtraction:
    @pytest.mark.parametrize("software,comment,expected", [
        ("OpenSSH_9.6p1", "Ubuntu-3ubuntu13.5", "Ubuntu"),
        ("OpenSSH_9.2p1", "Debian-2+deb12u3", "Debian"),
        ("OpenSSH_9.2p1", "Raspbian-2+deb12u2", "Raspbian"),
        ("OpenSSH_9.6", "FreeBSD-20240318", "FreeBSD"),
        ("OpenSSH_9.6", "NetBSD_Secure_Shell", "NetBSD"),
        ("OpenSSH_9.6", None, "other/unknown"),
        ("dropbear_2022.83", None, "other/unknown"),
    ])
    def test_extract(self, software, comment, expected):
        ident = SshIdentification("2.0", software, comment)
        assert extract_os(ident) == expected

    def test_raspbian_before_debian(self):
        """Raspbian banners contain 'deb' strings; Raspbian must win."""
        ident = SshIdentification("2.0", "OpenSSH_9.2p1",
                                  "Raspbian-2+deb12u1")
        assert extract_os(ident) == "Raspbian"


class TestPatchLevel:
    def test_debian_patch(self):
        ident = SshIdentification("2.0", "OpenSSH_9.2p1", "Debian-2+deb12u3")
        assert debian_patch_level(ident) == ("9.2p1", "2+deb12u3")

    def test_ubuntu_patch(self):
        ident = SshIdentification("2.0", "OpenSSH_9.6p1",
                                  "Ubuntu-3ubuntu13.5")
        assert debian_patch_level(ident) == ("9.6p1", "3ubuntu13.5")

    def test_freebsd_hides_patch(self):
        ident = SshIdentification("2.0", "OpenSSH_9.6", "FreeBSD-20240318")
        assert debian_patch_level(ident) is None

    def test_bare_openssh_hides_patch(self):
        ident = SshIdentification("2.0", "OpenSSH_9.6")
        assert debian_patch_level(ident) is None
