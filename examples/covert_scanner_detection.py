#!/usr/bin/env python3
"""Detecting NTP-sourcing scanners with a telescope (paper Section 5).

Deploys two third-party actors into the simulated NTP Pool — an overt
research scanner ("GT": 15 servers, 1011 ports, scans within the hour)
and a covert one (cloud-hosted, sensitive ports, multi-day delays) —
then runs the paper's telescope: one never-used bait source address per
pool query, a tap on the bait prefix, and behavioural classification of
whoever comes knocking.

Run:  python examples/covert_scanner_detection.py
"""

from repro.core.actors import deploy_section5_actors
from repro.core.campaign import CampaignConfig, CollectionCampaign
from repro.core.detection import ActorDetector
from repro.core.telescope import Telescope
from repro.net.clock import HOUR, EventScheduler
from repro.report import fmt_pct
from repro.world import WorldConfig, build_world


def main() -> None:
    print("Building world and pool ...")
    world = build_world(WorldConfig(scale=0.1))
    campaign = CollectionCampaign(world, CampaignConfig(days=1,
                                                        wire_fraction=0.0))
    scheduler = EventScheduler(world.clock)

    print("Deploying third-party NTP-sourcing actors into the pool ...")
    deploy_section5_actors(world, campaign.pool, scheduler,
                           research_zones=["us", "de", "jp", "gb", "fr"],
                           covert_zones=["us", "nl"])

    print("Running the telescope: one fresh bait address per pool "
          "server, daily, for a week ...")
    telescope = Telescope(world.network)
    # Four settle days after the last sweep catch the covert tail.
    telescope.watch(campaign.pool, scheduler, sweep_days=7, settle_days=4)

    print(f"\n  {len(telescope.baits)} baits sent, "
          f"{fmt_pct(telescope.response_rate())} of queries answered "
          "(paper: ~86 %)")
    print(f"  {len(telescope.events)} inbound scan events captured, "
          f"{fmt_pct(telescope.match_rate())} matched to an NTP query, "
          f"{len(telescope.scatter_events())} scatter events")

    detector = ActorDetector(
        telescope, world.asdb,
        operator_of_server=lambda a: campaign.pool.server(a).operator)
    for verdict in detector.report():
        observation = verdict.observation
        print(f"\nActor {observation.cluster} -> classified as "
              f"**{verdict.kind.upper()}**")
        print(f"  sources addresses from {len(observation.triggering_servers)}"
              f" pool servers (operator tag: "
              f"{', '.join(sorted(observation.server_operators))})")
        print(f"  scanned {observation.addresses_scanned} baits on "
              f"{len(observation.ports)} distinct ports")
        print(f"  median reaction delay {observation.median_delay / HOUR:.1f} h,"
              f" per-address scan duration "
              f"{observation.median_duration / 60:.0f} min")
        for reason in verdict.reasons:
            print(f"    - {reason}")


if __name__ == "__main__":
    main()
