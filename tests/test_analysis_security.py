"""Tests for the security analyses (Figures 2-3, the headline gap)."""

import pytest

from repro.analysis import security
from repro.analysis.bundle import run_analysis
from repro.scan.result import BrokerGrab, ScanResults, SshGrab


def _ssh(address, comment, key=b"k", software="OpenSSH_9.2p1", ok=True):
    return SshGrab(address=address, time=0, ok=ok,
                   banner=f"SSH-2.0-{software} {comment}",
                   software=software, comment=comment,
                   key_algorithm="ssh-ed25519",
                   key_fingerprint=key)


def _broker(address, protocol, open_access, port=1883):
    return BrokerGrab(address=address, time=0, port=port, protocol=protocol,
                      ok=True, open_access=open_access)


class TestSshOutdatedness:
    def test_latest_not_outdated(self):
        results = ScanResults()
        results.add(_ssh(1, "Debian-2+deb12u3", key=b"a"))
        report = security.ssh_outdatedness("x", results)
        assert report.assessed == 1
        assert report.outdated == 0

    def test_old_patch_outdated(self):
        results = ScanResults()
        results.add(_ssh(1, "Debian-2+deb12u1", key=b"a"))
        report = security.ssh_outdatedness("x", results)
        assert report.outdated == 1
        assert report.outdated_share == 1.0

    def test_freebsd_unassessable(self):
        results = ScanResults()
        results.add(_ssh(1, "FreeBSD-20240318", key=b"a",
                         software="OpenSSH_9.6"))
        report = security.ssh_outdatedness("x", results)
        assert report.assessed == 0
        assert report.unassessable == 1

    def test_dedup_by_key(self):
        results = ScanResults()
        results.add(_ssh(1, "Debian-2+deb12u1", key=b"shared"))
        results.add(_ssh(2, "Debian-2+deb12u1", key=b"shared"))
        report = security.ssh_outdatedness("x", results, by_key=True)
        assert report.assessed == 1

    def test_by_address_counts_reuse(self):
        """Figure 5's view: key reuse inflates per-address counts."""
        results = ScanResults()
        results.add(_ssh(1, "Debian-2+deb12u1", key=b"shared"))
        results.add(_ssh(2, "Debian-2+deb12u1", key=b"shared"))
        report = security.ssh_outdatedness("x", results, by_key=False)
        assert report.assessed == 2
        assert report.outdated == 2

    def test_failed_grabs_ignored(self):
        results = ScanResults()
        results.add(SshGrab(address=1, time=0, ok=False))
        report = security.ssh_outdatedness("x", results)
        assert report.assessed == 0

    def test_unknown_release_unassessable(self):
        results = ScanResults()
        results.add(_ssh(1, "Debian-99", key=b"a", software="OpenSSH_1.0p1"))
        report = security.ssh_outdatedness("x", results)
        assert report.unassessable == 1


class TestBrokerAccessControl:
    def test_open_vs_controlled(self):
        results = ScanResults()
        results.add(_broker(1, "mqtt", True))
        results.add(_broker(2, "mqtt", False))
        results.add(_broker(3, "mqtt", False))
        report = security.broker_access_control("x", results, "mqtt")
        assert report.total == 3
        assert report.access_control_share == pytest.approx(2 / 3)
        assert report.open_share == pytest.approx(1 / 3)

    def test_tls_variant_merged(self):
        results = ScanResults()
        results.add(_broker(1, "mqtt", True))
        results.add(_broker(2, "mqtts", False, port=8883))
        report = security.broker_access_control("x", results, "mqtt")
        assert report.total == 2

    def test_dedup_by_address(self):
        results = ScanResults()
        results.add(_broker(1, "mqtt", True))
        results.add(_broker(1, "mqtt", True))
        report = security.broker_access_control("x", results, "mqtt")
        assert report.total == 1

    def test_network_grouping(self):
        """Figure 6's view: group by /64 instead of address."""
        results = ScanResults()
        results.add(_broker(0x20010DB8_0000_0000_0000_0000_0000_0001, "mqtt", True))
        results.add(_broker(0x20010DB8_0000_0000_0000_0000_0000_0002, "mqtt", True))
        report = security.broker_access_control("x", results, "mqtt",
                                                by_network=64)
        assert report.total == 1

    def test_unknown_outcomes_separate(self):
        results = ScanResults()
        results.add(_broker(1, "amqp", None, port=5672))
        report = security.broker_access_control("x", results, "amqp")
        assert report.unknown == 1
        assert report.total == 0
        assert report.access_control_share == 0.0


def _secure_share(label, results):
    """One dataset's headline, combined from its Figure-2 and
    Figure-3 reports."""
    return security.SecureShareReport.combine(
        security.ssh_outdatedness(label, results),
        security.broker_access_control(label, results, "mqtt"),
        security.broker_access_control(label, results, "amqp"))


class TestSecureShare:
    def test_combination(self):
        results = ScanResults()
        results.add(_ssh(1, "Debian-2+deb12u3", key=b"a"))   # secure
        results.add(_ssh(2, "Debian-2+deb12u1", key=b"b"))   # outdated
        results.add(_broker(3, "mqtt", False))               # secure
        results.add(_broker(4, "mqtt", True))                # open
        results.add(_broker(5, "amqp", False, port=5672))    # secure
        report = _secure_share("x", results)
        assert report.label == "x"
        assert (report.ssh_assessed, report.ssh_secure) == (2, 1)
        assert (report.brokers_total, report.brokers_secure) == (3, 2)
        assert report.total == 5
        assert report.secure == 3
        assert report.secure_share == 0.6

    def test_empty(self):
        report = _secure_share("x", ScanResults())
        assert report.secure_share == 0.0

    def test_gap_pair(self):
        ntp, hitlist = run_analysis(ScanResults(),
                                    ScanResults()).security_gap()
        assert ntp.label == "ntp"
        assert hitlist.label == "hitlist"


class TestBugfixRegressions:
    def test_key_slot_only_consumed_by_assessable_grab(self):
        """An unassessable first grab must not burn its host key: the
        seed marked the key seen and dropped the later assessable grab."""
        results = ScanResults()
        results.add(_ssh(1, "FreeBSD-20230316", key=b"a"))   # hides level
        results.add(_ssh(2, "Debian-2+deb12u3", key=b"a"))   # assessable
        report = security.ssh_outdatedness("x", results)
        assert report.assessed == 1
        assert report.outdated == 0
        assert report.unassessable == 0

    def test_unassessable_counted_per_key_not_per_grab(self):
        results = ScanResults()
        results.add(_ssh(1, "FreeBSD-20230316", key=b"a"))
        results.add(_ssh(2, "FreeBSD-20230316", key=b"a"))
        results.add(_ssh(3, "FreeBSD-20230316", key=b"b"))
        report = security.ssh_outdatedness("x", results)
        assert report.assessed == 0
        assert report.unassessable == 2

    def test_by_address_still_counts_per_grab(self):
        results = ScanResults()
        results.add(_ssh(1, "FreeBSD-20230316", key=b"a"))
        results.add(_ssh(2, "FreeBSD-20230316", key=b"a"))
        report = security.ssh_outdatedness("x", results, by_key=False)
        assert report.unassessable == 2

    def test_conclusive_tls_verdict_beats_earlier_unknown(self):
        """The TLS variant merges in after plaintext grabs; a conclusive
        verdict there must not be discarded because the plaintext grab
        already marked the address seen."""
        results = ScanResults()
        results.add(_broker(1, "mqtt", None, port=1883))
        results.add(_broker(1, "mqtts", False, port=8883))
        report = security.broker_access_control("x", results, "mqtt")
        assert report.controlled == 1
        assert report.unknown == 0

    def test_conclusive_verdict_not_overwritten_by_unknown(self):
        results = ScanResults()
        results.add(_broker(1, "mqtt", True, port=1883))
        results.add(_broker(1, "mqtts", None, port=8883))
        report = security.broker_access_control("x", results, "mqtt")
        assert report.open_count == 1
        assert report.unknown == 0

    def test_first_conclusive_verdict_wins(self):
        """Two conclusive grabs for one address: first one stands."""
        results = ScanResults()
        results.add(_broker(1, "amqp", False, port=5672))
        results.add(_broker(1, "amqps", True, port=5671))
        report = security.broker_access_control("x", results, "amqp")
        assert report.controlled == 1
        assert report.open_count == 0
