"""The NTP control-plane scan module and the amplification study.

Covers the whole monlist data path: the picklable
:class:`NtpControlService` world hosts, :func:`scan_ntp`'s
readvar+monlist probe, the exposure/amplification analyses, and
``api.amplification``.
"""

from __future__ import annotations

import pickle

import pytest

from repro import api
from repro.analysis import amplification
from repro.analysis.amplification import (
    amplification_distribution,
    amplification_table,
    monlist_exposure,
    version_group,
)
from repro.net.packet import Datagram
from repro.net.simnet import Network
from repro.ntp.control import (
    MONLIST_PACKET_SIZE,
    MONLIST_REQUEST_SIZE,
    monlist_request,
    readvar_request,
)
from repro.ntp.service import control_service_for, seeded_entries
from repro.runtime.registry import ProbeRegistry
from repro.scan.engine import ScanEngine
from repro.scan.modules.ntp import refused_ntp, scan_ntp
from repro.scan.result import NtpGrab, ScanResults
from repro.world.ntpprofiles import profile_for

PREFIX48 = 0x2001_0DB8_00AA << 80
SCANNER = PREFIX48 + (0xFFFF << 64) + 0x5CA7


def deploy_pool(network, seed=7, servers=40, max_entries=24):
    addresses = [PREFIX48 + ((0xA000 + index) << 64) + 1
                 for index in range(servers)]
    network.add_host(SCANNER)
    for address in addresses:
        network.add_host(address).bind_udp(
            123, control_service_for(seed, address,
                                     max_entries=max_entries))
    return addresses


class TestSeededWorld:
    def test_profiles_vary_across_subnets(self):
        # The regression this pins: addresses differing only above bit
        # 64 (the study's server plan) must not share an RNG stream.
        profiles = {profile_for(7, PREFIX48 + ((0xA000 + i) << 64) + 1)
                    for i in range(40)}
        assert len(profiles) > 3

    def test_profile_and_entries_deterministic(self):
        address = PREFIX48 + (0xA003 << 64) + 1
        assert profile_for(7, address) == profile_for(7, address)
        assert seeded_entries(7, address) == seeded_entries(7, address)
        assert profile_for(7, address) != profile_for(8, address) or \
            seeded_entries(7, address) != seeded_entries(8, address)

    def test_service_pickle_roundtrip(self):
        address = PREFIX48 + (0xA001 << 64) + 1
        service = control_service_for(7, address)
        clone = pickle.loads(pickle.dumps(service))
        request = Datagram(src=SCANNER, src_port=50000, dst=address,
                           dst_port=123, payload=monlist_request().encode())
        assert clone(request) == service(request)
        readvar = Datagram(src=SCANNER, src_port=50000, dst=address,
                           dst_port=123,
                           payload=readvar_request().encode())
        assert clone(readvar) == service(readvar)

    def test_entries_bounded_by_max(self):
        for index in range(20):
            address = PREFIX48 + ((0xA000 + index) << 64) + 1
            assert len(seeded_entries(7, address, max_entries=5)) <= 5
        with pytest.raises(ValueError):
            seeded_entries(7, 1, max_entries=-1)


class TestScanNtp:
    def test_exposed_server_yields_amplification(self):
        network = Network()
        addresses = deploy_pool(network, seed=7)
        exposed = [
            address for address in addresses
            if profile_for(7, address).monlist_enabled
            and seeded_entries(7, address, max_entries=24)
        ]
        assert exposed  # the seed must produce some open servers
        grab = scan_ntp(network, SCANNER, exposed[0])
        assert grab.ok and grab.monlist
        assert grab.version == profile_for(7, exposed[0]).software_version
        assert grab.entries == len(
            seeded_entries(7, exposed[0], max_entries=24))
        assert grab.request_bytes == MONLIST_REQUEST_SIZE
        assert grab.response_bytes \
            >= (grab.response_packets - 1) * MONLIST_PACKET_SIZE
        assert grab.amplification > 1.0

    def test_patched_server_answers_readvar_not_monlist(self):
        network = Network()
        addresses = deploy_pool(network, seed=7)
        patched = [address for address in addresses
                   if not profile_for(7, address).monlist_enabled]
        assert patched
        grab = scan_ntp(network, SCANNER, patched[0])
        assert grab.ok and not grab.monlist
        assert grab.entries == 0 and grab.response_bytes == 0
        assert grab.amplification == 0.0
        assert grab.version.startswith("ntpd 4.2.8")

    def test_silent_target_not_responsive(self):
        network = Network()
        network.add_host(SCANNER)
        network.add_host(PREFIX48 + 99)  # host up, port 123 unbound
        grab = scan_ntp(network, SCANNER, PREFIX48 + 99)
        assert not grab.ok and grab.version is None

    def test_results_route_ntp_grabs(self):
        results = ScanResults()
        results.add(NtpGrab(address=1, time=0.0, ok=True))
        assert len(results.grabs("ntp")) == 1


class TestAnalyses:
    def test_version_group_mapping(self):
        assert version_group("xntpd 3.5.9") == "ntpv3"
        assert version_group("ntpd 4.2.6p5") == "ntpd<4.2.7p26"
        assert version_group("ntpd 4.2.8p17") == "ntpd-patched"
        assert version_group("") == "unknown"
        assert version_group("chrony 4.3") == "unknown"

    def grabs(self):
        results = ScanResults()
        results.add(NtpGrab(address=1, time=0.0, ok=True,
                            version="xntpd 3.5.1", monlist=True,
                            entries=12, response_packets=2,
                            request_bytes=72, response_bytes=880))
        results.add(NtpGrab(address=2, time=0.0, ok=True,
                            version="ntpd 4.2.8p10", monlist=False,
                            request_bytes=72))
        results.add(NtpGrab(address=3, time=0.0, ok=False))
        return results

    def test_exposure_counts_responsive_only(self):
        exposure = monlist_exposure("t", self.grabs())
        assert exposure.responsive == 2
        assert exposure.exposed == 1
        assert exposure.exposed_share == 0.5
        assert {row.group for row in exposure.rows} \
            == {"ntpv3", "ntpd-patched"}

    def test_distribution_buckets_exposed_factors(self):
        distribution = amplification_distribution("t", self.grabs())
        assert distribution.samples == 1
        assert distribution.mean == pytest.approx(880 / 72)
        assert sum(bucket.count for bucket in distribution.buckets) == 1

    def test_rejects_unsorted_edges(self, monkeypatch):
        monkeypatch.setattr(amplification, "BUCKET_EDGES", (5.0, 1.0))
        with pytest.raises(ValueError):
            amplification_distribution("t", self.grabs())

    def test_scan_no_server_answered_reports_none(self):
        """A refused probe leaves no grab, so a scan that no server
        answered has no ``ntp`` bucket, and both analyses count zero."""
        network = Network()
        network.add_host(SCANNER)
        network.add_host(PREFIX48 + 99)  # host up, port 123 unbound
        registry = ProbeRegistry()
        registry.register("ntp", scan_ntp, 123, refused=refused_ntp)
        results = ScanEngine(network, SCANNER, registry=registry).run(
            [PREFIX48 + 99, PREFIX48 + 100])
        assert "ntp" not in results.protocols()
        assert monlist_exposure("t", results).responsive == 0
        assert amplification_distribution("t", results).samples == 0

    def test_table_renders_both_reports(self):
        table = amplification_table(
            monlist_exposure("t", self.grabs()),
            amplification_distribution("t", self.grabs()))
        assert "monlist exposure (t)" in table
        assert "amplification factors (t)" in table
        assert "exposed servers: 1" in table


class TestAmplificationApi:
    def test_study_shape(self):
        result = api.amplification(api.AmplificationConfig(servers=32))
        assert result.exposure.responsive == 32
        assert 0 < result.exposure.exposed < 32
        assert result.distribution.samples <= result.exposure.exposed
        assert result.report.command == "amplification"
        assert result.report.tables["rendered"] == result.table
        assert result.report.tables["exposure_total"]["responsive"] == 32

    def test_config_validation(self):
        with pytest.raises(ValueError):
            api.AmplificationConfig(servers=0)
        with pytest.raises(ValueError):
            api.AmplificationConfig(max_entries=-1)
