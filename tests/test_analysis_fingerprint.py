"""Tests for dynamic-address host fingerprinting (future-work feature)."""

import pytest

from repro.analysis import fingerprint
from repro.ipv6 import eui64
from repro.ipv6.address import parse, with_iid

P1 = parse("2001:db8:1:1::")
P2 = parse("2001:db8:2:2::")
P3 = parse("2001:db8:3:3::")


def _mac_addr(mac, prefix):
    return with_iid(prefix, eui64.mac_to_iid(mac))


def compare_with_key_bound(report, unique_keys):
    """Relate the fingerprint bounds to the cert/key lower bound.

    The paper observes fewer distinct MACs than certificates/keys; this
    packages both estimates side by side.
    """
    return {
        "fingerprint_lower": float(report.lower_bound),
        "fingerprint_upper": float(report.upper_bound),
        "key_lower_bound": float(unique_keys),
        "identified_hosts": float(report.identified_hosts),
        "dedup_factor": report.deduplication_factor,
    }


class TestDedupAddresses:
    def test_mac_clusters_across_prefixes(self):
        mac = 0xB827EB000001
        report = fingerprint.dedup_addresses([
            _mac_addr(mac, P1), _mac_addr(mac, P2), _mac_addr(mac, P3),
        ])
        assert len(report.clusters) == 1
        cluster = report.clusters[0]
        assert cluster.kind == "mac"
        assert cluster.identity == mac
        assert cluster.address_count == 3
        assert cluster.prefix_count == 3
        assert report.lower_bound == 1
        assert report.upper_bound == 1

    def test_distinct_macs_distinct_hosts(self):
        report = fingerprint.dedup_addresses([
            _mac_addr(0xB827EB000001, P1),
            _mac_addr(0xB827EB000002, P1 + (1 << 64)),
        ])
        assert len(report.clusters) == 2

    def test_local_macs_not_identities(self):
        """Locally administered MACs may be reused: not a fingerprint."""
        local_mac = 0x0255AA000001
        report = fingerprint.dedup_addresses([_mac_addr(local_mac, P1)])
        # Falls through to the stable-IID path (EUI-64-shaped IID is
        # classified as eui64, not stable) -> unattributable.
        assert report.identified_hosts == 0

    def test_stable_iid_tracks_host(self):
        identifier = 0x1234  # structured, non-generic
        report = fingerprint.dedup_addresses([
            with_iid(P1, identifier), with_iid(P2, identifier),
        ])
        assert len(report.clusters) == 1
        assert report.clusters[0].kind == "stable-iid"
        assert report.clusters[0].address_count == 2

    def test_generic_low_iids_not_identities(self):
        """::1 in two networks is two routers, not one moving host."""
        report = fingerprint.dedup_addresses([
            with_iid(P1, 1), with_iid(P2, 1),
        ])
        assert report.identified_hosts == 0
        assert report.unattributable == 2
        assert report.lower_bound == 1
        assert report.upper_bound == 2

    def test_privacy_addresses_unattributable(self):
        report = fingerprint.dedup_addresses([
            with_iid(P1, 0x8D4F19C277ABE03D),
            with_iid(P1, 0x19C277ABE03D8D4F),
        ])
        assert report.unattributable == 2
        assert report.deduplication_factor == pytest.approx(1.0)

    def test_mixed_population_bounds(self):
        mac = 0xB827EB00000A
        addresses = [
            _mac_addr(mac, P1), _mac_addr(mac, P2),   # one host, 2 addrs
            with_iid(P1, 0x4242), with_iid(P3, 0x4242),  # one host, 2 addrs
            with_iid(P2, 0xF00DBEEFCAFE1234),          # privacy sighting
        ]
        report = fingerprint.dedup_addresses(addresses)
        assert report.total_addresses == 5
        assert report.identified_hosts == 2
        assert report.lower_bound == 3   # 2 clusters + >=1 privacy host
        assert report.upper_bound == 3   # 2 clusters + 1 privacy addr
        assert report.deduplication_factor > 1.0

    def test_empty(self):
        report = fingerprint.dedup_addresses([])
        assert report.lower_bound == 0
        assert report.upper_bound == 0
        assert report.deduplication_factor == 1.0


class TestOnCollectedData:
    def test_tightens_bounds_on_real_dataset(self, experiment):
        report = fingerprint.dedup_addresses(
            experiment.ntp_dataset.iter_addresses())
        assert report.total_addresses == len(experiment.ntp_dataset)
        # EUI-64 devices really do appear under several prefixes.
        assert any(cluster.prefix_count > 1 for cluster in report.clusters)
        assert report.upper_bound < report.total_addresses

    def test_compare_with_key_bound(self, experiment):
        report = fingerprint.dedup_addresses(
            experiment.ntp_dataset.iter_addresses())
        keys = len(experiment.ntp_scan.unique_fingerprints("https"))
        summary = compare_with_key_bound(report, keys)
        assert summary["fingerprint_lower"] <= summary["fingerprint_upper"]
        assert summary["dedup_factor"] >= 1.0
