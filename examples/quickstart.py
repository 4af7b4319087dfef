#!/usr/bin/env python3
"""Quickstart: source IPv6 addresses from the NTP pool and scan them.

Builds a small simulated Internet, deploys the study's 11 capture
servers into the simulated NTP Pool, collects client addresses for one
week with real-time scanning, and prints what the method discovered.

Run:  python examples/quickstart.py
"""

from repro.core.campaign import CampaignConfig, CollectionCampaign
from repro.core.realtime import RealTimeScanQueue
from repro.ipv6 import format_address
from repro.report import fmt_int, fmt_permille, render_table
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.result import PROTOCOLS
from repro.world import WorldConfig, build_world


def main() -> None:
    print("Building a simulated Internet (scale 0.2) ...")
    world = build_world(WorldConfig(scale=0.2))
    print(f"  {fmt_int(len(world.devices))} devices across "
          f"{fmt_int(len(world.premises))} customer premises and "
          f"{len(world.asdb.systems)} ASes")

    # A scanner in research address space, fed in real time by the
    # collection campaign (embedded mode: the campaign owns the clock).
    research_as = next(s for s in world.asdb.systems
                       if s.category == "Educational/Research")
    scanner = ScanEngine(
        world.network,
        world.allocate_prefix64(research_as.number) | 0x10,
        EngineConfig(drive_clock=False),
    )
    queue = RealTimeScanQueue(scanner)

    print("\nDeploying 11 NTP capture servers into the pool ...")
    campaign = CollectionCampaign(
        world,
        CampaignConfig(days=7, wire_fraction=0.05),
    )
    campaign.dataset.add_new_address_hook(queue.on_sighting)
    print(f"  pool now has {len(campaign.pool.servers)} members "
          f"({len(campaign.capture_servers)} are ours)")

    print("\nCollecting for 7 simulated days (scanning in real time) ...")
    report = campaign.run()

    print(f"  captured {fmt_int(len(report.dataset))} distinct IPv6 "
          f"addresses from {fmt_int(report.dataset.total_requests)} "
          f"NTP requests")
    print(f"  ({fmt_int(report.wire_queries)} full wire round-trips, "
          f"rest via the statistically identical fast path)")

    rows = sorted(report.dataset.per_server_counts().items(),
                  key=lambda item: -item[1])
    print("\n" + render_table(
        ["server location", "distinct addresses"],
        [[loc, fmt_int(count)] for loc, count in rows],
        title="Addresses per capture server (cf. paper Table 7)",
    ))

    results = queue.results
    print("\n" + render_table(
        ["protocol", "responsive addrs", "unique certs/keys"],
        [[proto,
          fmt_int(len(results.responsive_addresses(proto))),
          fmt_int(len(results.unique_fingerprints(proto)))]
         for proto in PROTOCOLS],
        title="Real-time scan results (cf. paper Table 2)",
    ))
    print(f"\nOverall hit rate: {fmt_permille(results.hit_rate())} "
          "(the paper's headline: NTP-sourced addresses are end-user "
          "devices, mostly firewalled)")

    some = sorted(results.responsive_addresses("https"))[:3]
    if some:
        print("\nSample responsive addresses:",
              ", ".join(format_address(a) for a in some))


if __name__ == "__main__":
    main()
