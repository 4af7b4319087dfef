"""Render a complete study report from a finished study.

One call produces every table and figure of the paper as aligned text —
the same artefacts the benchmark harness writes, but as a library
feature, so a freshly run study can be turned into a full report from
code or via ``python -m repro study --full-report``.  Table 1 and the
:class:`~repro.analysis.bundle.AnalysisBundle` come in as built for the
study's run report (``api.StudyResult.table1`` and ``.analysis``); the
sections only format them.
"""

from __future__ import annotations

from typing import List

from repro.analysis import devicetypes, lifetime, macs, structure
from repro.analysis.bundle import BROKER_PROTOCOLS, SIDES
from repro.report.formatting import (
    fmt_float,
    fmt_int,
    fmt_pct,
    fmt_permille,
    render_table,
)
from repro.scan.result import TLS_PROTOCOLS


def _section(title: str) -> str:
    bar = "#" * 70
    return f"\n{bar}\n## {title}\n{bar}\n"


def render_table1(table) -> str:
    rows = [[s.label, fmt_int(s.address_count), fmt_int(s.net48_count),
             fmt_int(s.as_count), fmt_float(s.median_ips_per_48),
             fmt_float(s.median_ips_per_as)]
            for s in table.summaries]
    text = render_table(
        ["dataset", "IP addresses", "/48 networks", "ASes",
         "median IPs per /48", "median IPs per AS"], rows)
    overlap_rows = [[f"ntp ∩ {o.other_label}", fmt_int(o.address_overlap),
                     fmt_int(o.net48_overlap), fmt_int(o.as_overlap)]
                    for o in table.overlaps]
    return text + "\n\n" + render_table(
        ["overlap", "addresses", "/48 networks", "ASes"], overlap_rows)


def render_figure1(result) -> str:
    from repro.ipv6.iid import CLASSES

    asdb = result.world.asdb
    reports = [structure.analyze("ntp", result.ntp_dataset.addresses, asdb),
               structure.analyze("hitlist-full", result.hitlist.full, asdb),
               structure.analyze("hitlist-public", result.hitlist.public,
                                 asdb)]
    if result.rl_dataset is not None:
        reports.insert(1, structure.analyze(
            "rl", result.rl_dataset.addresses, asdb))
    rows = [[report.label]
            + [fmt_pct(report.class_shares.get(cls, 0.0)) for cls in CLASSES]
            + [fmt_pct(report.eyeball_as_share)]
            for report in reports]
    return render_table(["dataset"] + list(CLASSES) + ["Cable/DSL/ISP"],
                        rows)


def render_table2(result) -> str:
    """Table 2 over the protocols the study scanned."""
    rows = []
    for protocol in result.protocols:
        ntp, hitlist = result.ntp_scan, result.hitlist_scan
        ntp_keys = len(ntp.unique_fingerprints(protocol))
        hit_keys = len(hitlist.unique_fingerprints(protocol))
        rows.append([
            protocol,
            fmt_int(len(ntp.responsive_addresses(protocol))),
            (fmt_int(len(ntp.tls_addresses(protocol)))
             if protocol in TLS_PROTOCOLS else "-"),
            fmt_int(ntp_keys) if ntp_keys else "-",
            fmt_int(len(hitlist.responsive_addresses(protocol))),
            (fmt_int(len(hitlist.tls_addresses(protocol)))
             if protocol in TLS_PROTOCOLS else "-"),
            fmt_int(hit_keys) if hit_keys else "-",
        ])
    text = render_table(
        ["protocol", "NTP #addrs", "NTP w/ TLS", "NTP #certs/keys",
         "hitlist #addrs", "hitlist w/ TLS", "hitlist #certs/keys"], rows)
    text += (f"\n\nhit rates: NTP "
             f"{fmt_permille(result.ntp_scan.hit_rate())} vs hitlist "
             f"{fmt_permille(result.hitlist_scan.hit_rate())}")
    return text


def render_table3(analysis) -> str:
    table = analysis.table3
    seen = set()
    rows = []
    for group in list(table.http_ntp[:10]) + list(table.http_hitlist[:8]):
        if group.representative in seen:
            continue
        seen.add(group.representative)
        rows.append([
            group.representative[:46],
            fmt_int(table.http_group_count("ntp", group.representative)),
            fmt_int(table.http_group_count("hitlist",
                                           group.representative)),
        ])
    text = render_table(["HTML title group", "NTP #certs",
                         "hitlist #certs"], rows)
    text += "\n\n" + render_table(
        ["SSH OS", "NTP #keys", "hitlist #keys"],
        [[name, fmt_int(table.ssh_ntp[name]),
          fmt_int(table.ssh_hitlist[name])]
         for name in devicetypes.SSH_OS_BUCKETS])
    text += "\n\n" + render_table(
        ["CoAP group", "NTP #addrs", "hitlist #addrs"],
        [[name, fmt_int(table.coap_ntp[name]),
          fmt_int(table.coap_hitlist[name])]
         for name in devicetypes.COAP_GROUPS])
    findings = devicetypes.new_or_underrepresented(table)
    total = sum(count for count, _ in findings.values())
    text += (f"\n\n=> {fmt_int(total)} devices in {len(findings)} groups "
             "missed or underrepresented by the hitlist")
    return text


def render_security(analysis, protocols) -> str:
    """Figures 2-3; a broker family shows only when ``protocols``, the
    scanned protocols, hold its plain or TLS variant."""
    rows = [[side, fmt_int(report.assessed), fmt_pct(report.outdated_share)]
            for side, report in analysis.ssh.items()]
    text = render_table(["dataset", "assessed SSH keys", "outdated"], rows)
    rows = []
    for protocol in BROKER_PROTOCOLS:
        if protocol not in protocols and protocol + "s" not in protocols:
            continue
        for side in SIDES:
            report = analysis.brokers[(side, protocol)]
            rows.append([protocol.upper(), side, fmt_int(report.total),
                         fmt_pct(report.access_control_share)])
    text += "\n\n" + render_table(
        ["protocol", "dataset", "brokers", "access control"], rows)
    ntp, hitlist = analysis.security_gap()
    text += (f"\n\nsecure share: hitlist {fmt_pct(hitlist.secure_share)} of "
             f"{fmt_int(hitlist.total)} vs NTP {fmt_pct(ntp.secure_share)} "
             f"of {fmt_int(ntp.total)} (paper: 43.5 % vs 28.4 %)")
    return text


def render_appendices(result, analysis) -> str:
    mac_report = macs.analyze_dataset(result.ntp_dataset, result.world.oui)
    text = render_table(
        ["manufacturer", "#MACs", "#IPs"],
        [[row.vendor[:48], fmt_int(row.mac_count), fmt_int(row.ip_count)]
         for row in mac_report.top_vendors(10)])
    counts = sorted(result.ntp_dataset.per_server_counts().items(),
                    key=lambda item: -item[1])
    text += "\n\n" + render_table(
        ["capture server", "#addresses"],
        [[location, fmt_int(count)] for location, count in counts])
    reuse = analysis.keyreuse["ntp"]
    life = lifetime.analyze(result.ntp_dataset)
    text += (f"\n\nkey reuse (ntp): {fmt_int(reuse.reused_key_count)} keys "
             f"across >2 ASes covering "
             f"{fmt_int(reuse.total_reused_addresses)} addresses")
    text += (f"\naddress lifetimes: "
             f"{fmt_pct(life.single_sighting_share)} single-sighting, "
             f"{fmt_pct(life.long_lived_share)} observed ≥7 days")
    return text


def render_full_report(result, table1, analysis) -> str:
    """The whole study, every table/figure, as one text document.

    ``table1`` and ``analysis`` are the study's Table 1 and its
    analysis bundle with key reuse (see :func:`repro.api.study`).
    """
    parts: List[str] = [
        "TIME TO SCAN — full study report (simulated reproduction)",
        _section("Table 1 — collected datasets"), render_table1(table1),
        _section("Figure 1 — address structure"), render_figure1(result),
        _section("Table 2 — scans by protocol"), render_table2(result),
        _section("Table 3 — device types"), render_table3(analysis),
        _section("Figures 2-3 — security configuration"),
        render_security(analysis, result.protocols),
        _section("Appendices — vendors, per-server volumes, reuse, "
                 "lifetimes"),
        render_appendices(result, analysis),
    ]
    return "\n".join(parts)
