"""Tests for device-type identification (Table 3 machinery)."""

import pytest

from repro.analysis import devicetypes
from repro.scan.result import CoapGrab, HttpGrab, ScanResults, SshGrab, TlsObservation


def _https(address, title, fingerprint, status=200, ok=True):
    return HttpGrab(address=address, time=0, port=443, ok=ok, status=status,
                    title=title,
                    tls=TlsObservation(ok=True, fingerprint=fingerprint))


def _ssh(address, software, comment, key):
    return SshGrab(address=address, time=0, ok=True,
                   banner=f"SSH-2.0-{software} {comment or ''}".strip(),
                   software=software, comment=comment, key_fingerprint=key)


def _coap(address, resources):
    return CoapGrab(address=address, time=0, ok=True,
                    resources=tuple(resources))


class TestHttpTitles:
    def test_count_by_unique_certificate(self):
        results = ScanResults()
        results.add(_https(1, "FRITZ!Box", b"c1"))
        results.add(_https(2, "FRITZ!Box", b"c1"))  # same device, new addr
        results.add(_https(3, "FRITZ!Box", b"c2"))
        groups = devicetypes.http_title_groups(results)
        assert groups[0].representative == "FRITZ!Box"
        assert groups[0].count == 2

    def test_non_200_excluded(self):
        results = ScanResults()
        results.add(_https(1, "Error", b"c1", status=404))
        assert devicetypes.http_title_groups(results) == []

    def test_failed_tls_excluded(self):
        results = ScanResults()
        results.add(HttpGrab(address=1, time=0, port=443, ok=True,
                             status=200, title="x",
                             tls=TlsObservation(ok=False)))
        assert devicetypes.http_title_groups(results) == []

    def test_no_title_bucket(self):
        results = ScanResults()
        results.add(_https(1, None, b"c1"))
        groups = devicetypes.http_title_groups(results)
        assert groups[0].representative == devicetypes.NO_TITLE

    def test_near_titles_cluster(self):
        results = ScanResults()
        results.add(_https(1, "Plesk Obsidian 18.0.34", b"c1"))
        results.add(_https(2, "Plesk Obsidian 18.0.52", b"c2"))
        groups = devicetypes.http_title_groups(results)
        assert len(groups) == 1
        assert groups[0].count == 2


class TestSshOs:
    def test_count_by_unique_key(self):
        results = ScanResults()
        results.add(_ssh(1, "OpenSSH_9.2p1", "Debian-2", b"k1"))
        results.add(_ssh(2, "OpenSSH_9.2p1", "Debian-2", b"k1"))
        results.add(_ssh(3, "OpenSSH_9.6p1", "Ubuntu-3ubuntu13.5", b"k2"))
        counts = devicetypes.ssh_os_counts(results)
        assert counts["Debian"] == 1
        assert counts["Ubuntu"] == 1

    def test_unknown_os_bucket(self):
        results = ScanResults()
        results.add(_ssh(1, "dropbear_2022.83", None, b"k1"))
        counts = devicetypes.ssh_os_counts(results)
        assert counts["other/unknown"] == 1

    def test_all_buckets_present(self):
        counts = devicetypes.ssh_os_counts(ScanResults())
        assert set(counts) == set(devicetypes.SSH_OS_BUCKETS)


class TestCoapGroups:
    @pytest.mark.parametrize("resources,expected", [
        (("/castDeviceSearch", "/castSetup"), "castdevice"),
        (("/qlink/reg", "/qlink/status"), "qlink"),
        (("/m", "/c", "/t", "/.well-known/core"), "efento"),
        (("/panel/effects", "/panel/state"), "nanoleaf"),
        ((), "empty"),
        (("/.well-known/core",), "empty"),
        (("/maha", "/.well-known/core"), "other"),
    ])
    def test_classification(self, resources, expected):
        assert devicetypes.coap_resource_group(resources) == expected

    def test_counts_dedupe_addresses(self):
        results = ScanResults()
        results.add(_coap(1, ["/castDeviceSearch"]))
        results.add(_coap(1, ["/castDeviceSearch"]))
        results.add(_coap(2, ["/qlink/reg"]))
        counts = devicetypes.coap_group_counts(results)
        assert counts["castdevice"] == 1
        assert counts["qlink"] == 1


class TestTable3:
    def test_build_and_query(self):
        ntp = ScanResults()
        ntp.add(_https(1, "FRITZ!Box", b"c1"))
        hitlist = ScanResults()
        hitlist.add(_https(2, "D-LINK", b"c2"))
        table = devicetypes.build_table3(ntp, hitlist)
        assert table.http_group_count("ntp", "FRITZ!Box") == 1
        assert table.http_group_count("ntp", "D-LINK") == 0
        assert table.http_group_count("hitlist", "D-LINK") == 1

    def test_new_or_underrepresented(self):
        ntp = ScanResults()
        for index in range(10):
            ntp.add(_https(index, "FRITZ!Box", f"c{index}".encode()))
        ntp.add(_ssh(100, "OpenSSH_9.2p1", "Raspbian-2+deb12u3", b"k1"))
        hitlist = ScanResults()
        hitlist.add(_https(200, "FRITZ!Box", b"h1"))
        table = devicetypes.build_table3(ntp, hitlist)
        findings = devicetypes.new_or_underrepresented(table)
        assert "http:FRITZ!Box" in findings
        assert findings["http:FRITZ!Box"] == (10, 1)
        assert "ssh:Raspbian" in findings


class TestCoapMacDedup:
    def test_counts_macs(self):
        from repro.ipv6 import eui64
        from repro.ipv6.address import parse, with_iid

        results = ScanResults()
        prefix = parse("2001:db8::")
        mac = 0xE47001000001
        # Same device at two addresses (prefix churn), plus a privacy one.
        results.add(_coap(with_iid(prefix, eui64.mac_to_iid(mac)),
                          ["/castDeviceSearch"]))
        results.add(_coap(with_iid(parse("2001:db8:1::"),
                                   eui64.mac_to_iid(mac)),
                          ["/castDeviceSearch"]))
        results.add(_coap(parse("2001:db8::abcd:ef01:2345:6789"),
                          ["/qlink/reg"]))
        with_mac, distinct = devicetypes.coap_mac_dedup(results)
        assert with_mac == 2
        assert distinct == 1

    def test_empty(self):
        assert devicetypes.coap_mac_dedup(ScanResults()) == (0, 0)


class TestBugfixRegressions:
    def test_empty_title_distinct_from_missing_tag(self):
        """``<title></title>`` and no tag at all are different devices."""
        results = ScanResults()
        results.add(_https(1, "", b"c1"))      # empty-but-present tag
        results.add(_https(2, None, b"c2"))    # no tag at all
        titles = devicetypes.http_titles_by_certificate(results)
        assert titles[b"c1"] == devicetypes.EMPTY_TITLE
        assert titles[b"c2"] == devicetypes.NO_TITLE
        groups = devicetypes.http_title_groups(results)
        assert {group.representative for group in groups} == \
            {devicetypes.EMPTY_TITLE, devicetypes.NO_TITLE}

    def test_findings_skip_both_titleless_buckets(self):
        results = ScanResults()
        for index in range(12):
            results.add(_https(index, "", f"c{index}".encode()))
            results.add(_https(100 + index, None, f"n{index}".encode()))
        table = devicetypes.build_table3(results, ScanResults())
        assert devicetypes.new_or_underrepresented(table) == {}

    def test_findings_match_hitlist_group_by_membership(self):
        """A hitlist group whose *member* covers the NTP representative
        counts — the seed's exact-representative match scored it zero
        and invented a finding."""
        ntp = ScanResults()
        for index in range(6):
            ntp.add(_https(index, "FRITZ!Box 7590", f"c{index}".encode()))
        hitlist = ScanResults()
        for index in range(3):
            hitlist.add(_https(200 + index, "FRITZ!Box 7490",
                               f"h{index}".encode()))
        hitlist.add(_https(300, "FRITZ!Box 7590", b"h9"))
        table = devicetypes.build_table3(ntp, hitlist)
        # Clustered under the more frequent 7490 representative…
        assert table.http_group("hitlist", "FRITZ!Box 7590").count == 4
        # …so the NTP group is covered: 6 certificates vs 4, no finding.
        findings = devicetypes.new_or_underrepresented(table)
        assert "http:FRITZ!Box 7590" not in findings

    def test_findings_match_hitlist_group_by_threshold(self):
        """No shared member at all, but the representatives are within
        the clustering threshold — still the same device type."""
        ntp = ScanResults()
        for index in range(6):
            ntp.add(_https(index, "FRITZ!Box 7590", f"c{index}".encode()))
        hitlist = ScanResults()
        for index in range(3):
            hitlist.add(_https(200 + index, "FRITZ!Box 7490",
                               f"h{index}".encode()))
        table = devicetypes.build_table3(ntp, hitlist)
        findings = devicetypes.new_or_underrepresented(table)
        assert "http:FRITZ!Box 7590" not in findings

    def test_genuinely_new_group_still_reported(self):
        ntp = ScanResults()
        for index in range(6):
            ntp.add(_https(index, "Industrial PLC gateway",
                           f"c{index}".encode()))
        hitlist = ScanResults()
        hitlist.add(_https(200, "FRITZ!Box 7490", b"h1"))
        table = devicetypes.build_table3(ntp, hitlist)
        findings = devicetypes.new_or_underrepresented(table)
        assert findings["http:Industrial PLC gateway"] == (6, 0)
