"""Table 6 (Appendix C): device groups counted by networks."""

from benchmarks.conftest import write_report
from repro.analysis import aggregate
from repro.report import fmt_int, render_table, shape_check


def _grouped(experiment):
    return {
        "http_ntp": aggregate.group_network_table(
            aggregate.http_title_group_addresses(experiment.ntp_scan)),
        "http_hit": aggregate.group_network_table(
            aggregate.http_title_group_addresses(experiment.hitlist_scan)),
        "ssh_ntp": aggregate.group_network_table(
            aggregate.ssh_os_addresses(experiment.ntp_scan)),
        "ssh_hit": aggregate.group_network_table(
            aggregate.ssh_os_addresses(experiment.hitlist_scan)),
        "coap_ntp": aggregate.group_network_table(
            aggregate.coap_group_addresses(experiment.ntp_scan)),
        "coap_hit": aggregate.group_network_table(
            aggregate.coap_group_addresses(experiment.hitlist_scan)),
    }


def _rows(ntp_groups, hitlist_groups, top=10):
    def total(name):
        return (ntp_groups.get(name, {}).get("IPs", 0)
                + hitlist_groups.get(name, {}).get("IPs", 0))

    # Name breaks ties, so the order does not follow string-set order.
    names = sorted(set(ntp_groups) | set(hitlist_groups),
                   key=lambda name: (-total(name), name))[:top]
    rows = []
    for name in names:
        ntp = ntp_groups.get(name, {})
        hit = hitlist_groups.get(name, {})
        rows.append([name[:40],
                     fmt_int(ntp.get("IPs", 0)), fmt_int(ntp.get("/56", 0)),
                     fmt_int(hit.get("IPs", 0)), fmt_int(hit.get("/56", 0))])
    return rows


def test_table6_network_devices(experiment, benchmark):
    grouped = benchmark(_grouped, experiment)

    text = render_table(
        ["HTML title group", "NTP IPs", "NTP /56", "hitlist IPs",
         "hitlist /56"],
        _rows(grouped["http_ntp"], grouped["http_hit"]),
        title="Table 6 (HTTP) - device groups by networks")
    text += "\n\n" + render_table(
        ["SSH OS", "NTP IPs", "NTP /56", "hitlist IPs", "hitlist /56"],
        _rows(grouped["ssh_ntp"], grouped["ssh_hit"]),
        title="Table 6 (SSH)")
    text += "\n\n" + render_table(
        ["CoAP group", "NTP IPs", "NTP /56", "hitlist IPs", "hitlist /56"],
        _rows(grouped["coap_ntp"], grouped["coap_hit"]),
        title="Table 6 (CoAP)")

    fritz_ips = grouped["http_ntp"].get("FRITZ!Box", {}).get("IPs", 0)
    fritz_56 = grouped["http_ntp"].get("FRITZ!Box", {}).get("/56", 0)
    raspbian_ntp = grouped["ssh_ntp"].get("Raspbian", {}).get("IPs", 0)
    raspbian_hit = grouped["ssh_hit"].get("Raspbian", {}).get("IPs", 0)
    checks = [
        shape_check("FRITZ!Box IPs exceed /56 networks (dynamic prefixes "
                    "double-count devices; paper: 354 934 IPs in 174 852 "
                    "/56s)", fritz_ips > fritz_56 > 0),
        shape_check("Raspbian remains NTP-dominated when counting by "
                    "network", raspbian_ntp > raspbian_hit),
        shape_check("castdevice group still hitlist-invisible by network",
                    grouped["coap_hit"].get("castdevice", {})
                    .get("IPs", 0) == 0),
    ]
    text += "\n\n" + "\n".join(checks)
    write_report("table6_network_devices", text)

    benchmark.extra_info.update({
        "fritz_ips": fritz_ips,
        "fritz_56": fritz_56,
    })
    assert fritz_ips >= fritz_56 > 0
