"""Table 3: device-type groups the hitlist misses or underrepresents."""

from benchmarks.conftest import write_report
from repro.analysis import devicetypes
from repro.report import fmt_int, render_table, shape_check


def test_table3_devices(experiment, benchmark):
    table = benchmark(devicetypes.build_table3,
                      experiment.ntp_scan, experiment.hitlist_scan)

    hit_by_group = {g.representative: g.count for g in table.http_hitlist}
    seen = set()
    http_rows = []
    for group in list(table.http_ntp[:10]) + list(table.http_hitlist[:8]):
        if group.representative in seen:
            continue
        seen.add(group.representative)
        http_rows.append([
            group.representative[:48],
            fmt_int(table.http_group_count("ntp", group.representative)),
            fmt_int(table.http_group_count("hitlist", group.representative)),
        ])
    text = render_table(
        ["HTML title group", "NTP #certs", "hitlist #certs"], http_rows,
        title="Table 3 (HTTP) - title groups per unique certificate")

    text += "\n\n" + render_table(
        ["SSH OS", "NTP #keys", "hitlist #keys"],
        [[os_name, fmt_int(table.ssh_ntp[os_name]),
          fmt_int(table.ssh_hitlist[os_name])]
         for os_name in devicetypes.SSH_OS_BUCKETS],
        title="Table 3 (SSH) - OSes per unique host key")

    text += "\n\n" + render_table(
        ["CoAP group", "NTP #addrs", "hitlist #addrs"],
        [[group, fmt_int(table.coap_ntp[group]),
          fmt_int(table.coap_hitlist[group])]
         for group in devicetypes.COAP_GROUPS],
        title="Table 3 (CoAP) - resource groups per address")

    findings = devicetypes.new_or_underrepresented(table)
    total_new = sum(ntp for ntp, _ in findings.values())
    fritz_ntp = table.http_group_count("ntp", "FRITZ!Box")
    fritz_hit = table.http_group_count("hitlist", "FRITZ!Box")
    checks = [
        shape_check("FRITZ!Box dominates NTP-side HTTP (paper: 90.8 %)",
                    table.http_ntp
                    and "FRITZ!Box" in (table.http_ntp[0].representative,)),
        shape_check("FRITZ!Box massively underrepresented in hitlist "
                    "(paper: 257 195 vs 35 841)",
                    fritz_ntp > 5 * max(1, fritz_hit)),
        shape_check("D-LINK found only via the hitlist (paper: 0 vs 46 548)",
                    table.http_group_count("ntp", "D-LINK") == 0
                    < table.http_group_count("hitlist", "D-LINK")),
        shape_check("Raspbian found almost only via NTP (paper: 4 765 vs "
                    "658)", table.ssh_ntp["Raspbian"]
                    > table.ssh_hitlist["Raspbian"]),
        shape_check("FreeBSD found almost only via hitlist (paper: 140 vs "
                    "14 014)", table.ssh_hitlist["FreeBSD"]
                    > table.ssh_ntp["FreeBSD"]),
        shape_check("castdevice CoAP endpoints invisible to the hitlist "
                    "(paper: 2 967 vs 0)",
                    table.coap_ntp["castdevice"] > 0
                    == table.coap_hitlist["castdevice"]),
    ]
    text += "\n\n" + "\n".join(checks)
    text += (f"\n\n=> {fmt_int(total_new)} devices in {len(findings)} "
             "groups missed/underrepresented by the hitlist "
             "(paper: 283 867 in 6+ groups)")
    write_report("table3_devices", text)

    benchmark.extra_info.update({
        "new_or_underrepresented": total_new,
        "fritz_ntp": fritz_ntp,
        "fritz_hitlist": fritz_hit,
    })
    assert fritz_ntp > 5 * max(1, fritz_hit)
    assert table.coap_ntp["castdevice"] > 0


def _synthetic_titles(count, seed=20240720):
    """A deterministic title corpus shaped like real Table-3 input:
    version-variant device families plus a long tail of unique junk."""
    import random

    rng = random.Random(seed)
    families = [
        ("FRITZ!Box {}", ["7590", "7490", "7530", "6660 Cable", "5590"]),
        ("Plesk Obsidian 18.0.{}", [str(n) for n in range(30, 60)]),
        ("D-LINK DIR-{}", [str(n) for n in (615, 825, 842, 867)]),
        ("Welcome to nginx{}", ["!", " on Debian!", " on Ubuntu!"]),
        ("openmediavault Workbench {}", ["", "- login", "- dashboard"]),
        ("RouterOS router configuration page {}", ["v6", "v7"]),
        ("Synology DiskStation DS{}", [str(n) for n in (218, 220, 920)]),
        ("TP-Link Archer C{}", [str(n) for n in (6, 7, 80)]),
    ]
    corpus = []
    for _ in range(count):
        if rng.random() < 0.7:
            pattern, variants = rng.choice(families)
            title = pattern.format(rng.choice(variants)).strip()
        else:
            length = rng.randint(4, 60)
            title = "".join(rng.choice("0123456789abcdef -_/")
                            for _ in range(length))
        corpus.append((title, rng.randint(1, 50)))
    return corpus


def test_table3_clustering_fastpath(benchmark):
    """Banded+pruned clustering vs the unoptimized reference scan
    (the oracle in ``tests/levenshtein_oracle.py``).

    Self-contained (no shared experiment fixture) so CI can run it
    standalone.  Gates: byte-identical groups, never more pairs than
    the plain path, and >= 5x fewer DP cells on this corpus.
    """
    import os
    import time

    from repro.analysis.levenshtein import ClusterStats, cluster_counts
    from tests.levenshtein_oracle import reference_cluster_counts

    count = int(os.environ.get("REPRO_BENCH_TITLES", "1500"))
    corpus = _synthetic_titles(count)

    plain_stats = ClusterStats()
    plain_start = time.perf_counter()
    plain_groups = reference_cluster_counts(corpus, stats=plain_stats)
    plain_seconds = time.perf_counter() - plain_start

    fast_stats = ClusterStats()
    fast_start = time.perf_counter()
    fast_groups = cluster_counts(corpus, stats=fast_stats)
    fast_seconds = time.perf_counter() - fast_start

    def shape(groups):
        return [(g.representative, dict(g.members)) for g in groups]

    assert shape(fast_groups) == shape(plain_groups)
    assert fast_stats.pairs_compared <= plain_stats.pairs_compared
    assert plain_stats.dp_cells >= 5 * fast_stats.dp_cells, (
        f"banded+pruned path saved less than 5x: "
        f"{plain_stats.dp_cells} vs {fast_stats.dp_cells}")

    rows = [
        ["titles fed", fmt_int(len(corpus)), fmt_int(len(corpus))],
        ["groups", fmt_int(len(plain_groups)), fmt_int(len(fast_groups))],
        ["pairs compared", fmt_int(plain_stats.pairs_compared),
         fmt_int(fast_stats.pairs_compared)],
        ["DP cells", fmt_int(plain_stats.dp_cells),
         fmt_int(fast_stats.dp_cells)],
        ["band early-exits", fmt_int(plain_stats.band_exits),
         fmt_int(fast_stats.band_exits)],
        ["candidates pruned", fmt_int(plain_stats.candidates_pruned),
         fmt_int(fast_stats.candidates_pruned)],
        ["wall seconds", f"{plain_seconds:.3f}", f"{fast_seconds:.3f}"],
    ]
    ratio = plain_stats.dp_cells / max(1, fast_stats.dp_cells)
    text = render_table(
        ["clustering", "plain (full DP)", "banded + pruned"], rows,
        title="Table 3 clustering fast path - synthetic corpus")
    text += "\n\n" + "\n".join([
        shape_check("byte-identical groups", True),
        shape_check("banded compares no more pairs than plain",
                    fast_stats.pairs_compared <= plain_stats.pairs_compared),
        shape_check(f">= 5x fewer DP cells (got {ratio:.1f}x)",
                    ratio >= 5.0),
    ])
    write_report("table3_clustering_fastpath", text)

    benchmark.extra_info.update({
        "titles": len(corpus),
        "plain_dp_cells": plain_stats.dp_cells,
        "fast_dp_cells": fast_stats.dp_cells,
        "dp_cell_ratio": round(ratio, 2),
        "plain_pairs": plain_stats.pairs_compared,
        "fast_pairs": fast_stats.pairs_compared,
    })
    benchmark(cluster_counts, corpus)
