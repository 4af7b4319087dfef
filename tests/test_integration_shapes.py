"""Paper-shape integration tests.

Each test asserts one qualitative claim of the paper against the shared
small-scale experiment: not the absolute numbers (the substrate is a
simulator), but who wins, in which direction, and by roughly what kind
of factor.  These are the claims the benchmark harness re-reports at
full scale.
"""

import pytest

from repro.analysis import devicetypes, keyreuse, macs, security, structure
from repro.analysis.bundle import run_analysis


class TestTable1Shapes:
    def test_hitlist_covers_more_ases(self, experiment):
        table = experiment.table1()
        assert table.summary_for("hitlist-full").as_count > \
            table.summary_for("ntp").as_count

    def test_ntp_denser_networks(self, experiment):
        """Median IPs per /48 and per AS: NTP >> hitlist (client nets)."""
        table = experiment.table1()
        ntp = table.summary_for("ntp")
        full = table.summary_for("hitlist-full")
        public = table.summary_for("hitlist-public")
        assert ntp.median_ips_per_48 > full.median_ips_per_48
        assert ntp.median_ips_per_as > full.median_ips_per_as
        assert ntp.median_ips_per_as > public.median_ips_per_as

    def test_address_overlap_is_small(self, experiment):
        table = experiment.table1()
        ntp_count = table.summary_for("ntp").address_count
        overlap = table.overlap_for("hitlist-full").address_overlap
        assert overlap < 0.05 * ntp_count

    def test_48_overlap_substantial(self, experiment):
        """Many NTP /48s also appear in the hitlist (R&L's finding)."""
        overlap = experiment.table1().overlap_for("hitlist-full")
        assert overlap.net48_overlap > 10

    def test_rl_overlap_partial(self, experiment):
        """Our data overlaps R&L's but both find exclusive networks."""
        table = experiment.table1()
        overlap = table.overlap_for("rl")
        assert 0 < overlap.net48_overlap < \
            table.summary_for("ntp").net48_count


class TestFigure1Shapes:
    def test_ntp_less_structured_than_hitlist(self, experiment):
        ntp = structure.analyze("ntp", experiment.ntp_dataset.addresses,
                                experiment.world.asdb)
        hitlist = structure.analyze("hl", experiment.hitlist.full,
                                    experiment.world.asdb)
        assert ntp.structured_share < hitlist.structured_share
        assert ntp.high_entropy_share > hitlist.high_entropy_share

    def test_ntp_more_eyeball_ases(self, experiment):
        ntp = structure.analyze("ntp", experiment.ntp_dataset.addresses,
                                experiment.world.asdb)
        hitlist = structure.analyze("hl", experiment.hitlist.full,
                                    experiment.world.asdb)
        assert ntp.eyeball_as_share > hitlist.eyeball_as_share


class TestTable2Shapes:
    def test_hitlist_wins_everything_but_coap(self, experiment):
        ntp, hitlist = experiment.ntp_scan, experiment.hitlist_scan
        for protocol in ("http", "https", "ssh"):
            assert len(hitlist.responsive_addresses(protocol)) > \
                len(ntp.responsive_addresses(protocol)), protocol

    def test_ntp_wins_coap(self, experiment):
        ntp = len(experiment.ntp_scan.responsive_addresses("coap"))
        hitlist = len(experiment.hitlist_scan.responsive_addresses("coap"))
        assert ntp > 3 * hitlist

    def test_ntp_hit_rate_lower(self, experiment):
        assert experiment.ntp_scan.hit_rate() < \
            experiment.hitlist_scan.hit_rate()

    def test_hitlist_https_tls_failures(self, experiment):
        """CDN fronts respond but fail the SNI-less handshake."""
        hitlist = experiment.hitlist_scan
        responsive = len(hitlist.responsive_addresses("https"))
        tls_ok = len(hitlist.tls_addresses("https"))
        assert tls_ok < responsive / 2

    def test_ntp_https_mostly_succeeds(self, experiment):
        """End-user devices (FRITZ!) negotiate TLS without SNI."""
        ntp = experiment.ntp_scan
        responsive = len(ntp.responsive_addresses("https"))
        tls_ok = len(ntp.tls_addresses("https"))
        assert responsive > 0
        assert tls_ok > responsive / 2

    def test_certs_dedup_below_addresses(self, experiment):
        """Unique certs < responsive addresses (rotation double-counts)."""
        ntp = experiment.ntp_scan
        assert 0 < len(ntp.unique_fingerprints("https")) <= \
            len(ntp.tls_addresses("https"))


class TestTable3Shapes:
    @pytest.fixture(scope="class")
    def table3(self, experiment):
        return devicetypes.build_table3(experiment.ntp_scan,
                                        experiment.hitlist_scan)

    def test_fritz_dominates_ntp_http(self, table3):
        top = table3.http_ntp[0]
        assert "FRITZ!Box" in top.members or \
            top.representative == "FRITZ!Box"

    def test_fritz_underrepresented_in_hitlist(self, table3):
        ntp_fritz = table3.http_group_count("ntp", "FRITZ!Box")
        hitlist_fritz = table3.http_group_count("hitlist", "FRITZ!Box")
        assert ntp_fritz > 5 * max(hitlist_fritz, 1)

    def test_dlink_only_via_hitlist(self, table3):
        assert table3.http_group_count("ntp", "D-LINK") == 0
        assert table3.http_group_count("hitlist", "D-LINK") > 0

    def test_raspbian_mostly_via_ntp(self, table3):
        assert table3.ssh_ntp["Raspbian"] > table3.ssh_hitlist["Raspbian"]

    def test_freebsd_mostly_via_hitlist(self, table3):
        assert table3.ssh_hitlist["FreeBSD"] > table3.ssh_ntp["FreeBSD"]

    def test_castdevice_only_via_ntp(self, table3):
        assert table3.coap_ntp["castdevice"] > 0
        assert table3.coap_hitlist["castdevice"] == 0

    def test_underrepresented_devices_found(self, table3):
        findings = devicetypes.new_or_underrepresented(table3)
        assert "http:FRITZ!Box" in findings
        assert "coap:castdevice" in findings


class TestSecurityShapes:
    def test_headline_gap(self, experiment):
        """The 43.5% vs 28.4% claim: NTP-sourced hosts are less secure."""
        ntp, hitlist = run_analysis(experiment.ntp_scan,
                                    experiment.hitlist_scan).security_gap()
        assert ntp.total >= 5 and hitlist.total >= 5
        assert ntp.secure_share < hitlist.secure_share - 0.05

    def test_ssh_more_outdated_via_ntp(self, experiment):
        ntp = security.ssh_outdatedness("ntp", experiment.ntp_scan)
        hitlist = security.ssh_outdatedness("hl", experiment.hitlist_scan)
        assert ntp.outdated_share > hitlist.outdated_share

    def test_mqtt_access_control_gap(self, experiment):
        ntp = security.broker_access_control("ntp", experiment.ntp_scan,
                                             "mqtt")
        hitlist = security.broker_access_control("hl",
                                                 experiment.hitlist_scan,
                                                 "mqtt")
        # Only meaningful with a non-trivial broker sample; the
        # benchmark-scale run asserts this unconditionally.
        if ntp.total >= 8 and hitlist.total >= 8:
            assert ntp.access_control_share < hitlist.access_control_share


class TestAppendixShapes:
    def test_avm_tops_vendor_table(self, experiment):
        report = macs.analyze_dataset(experiment.ntp_dataset,
                                      experiment.world.oui)
        assert report.vendor_rows
        assert "AVM" in report.vendor_rows[0].vendor

    def test_eui64_minority(self, experiment):
        """Most collected addresses are privacy addresses, not EUI-64."""
        report = macs.analyze_dataset(experiment.ntp_dataset,
                                      experiment.world.oui)
        assert 0.02 < report.eui64_share < 0.6

    def test_more_ips_than_macs(self, experiment):
        """Dynamic prefixes: one MAC shows up under several addresses."""
        report = macs.analyze_dataset(experiment.ntp_dataset,
                                      experiment.world.oui)
        assert report.unique_bit_addresses > report.distinct_unique_macs

    def test_india_collects_most(self, experiment):
        counts = experiment.ntp_dataset.per_server_counts()
        assert counts["India"] == max(counts.values())

    def test_keyreuse_worse_via_ntp(self, experiment):
        ntp = keyreuse.analyze("ntp", experiment.ntp_scan,
                               experiment.world.asdb)
        hitlist = keyreuse.analyze("hl", experiment.hitlist_scan,
                                   experiment.world.asdb)
        if ntp.reused_key_count and hitlist.reused_key_count:
            assert ntp.addresses_per_key > hitlist.addresses_per_key
