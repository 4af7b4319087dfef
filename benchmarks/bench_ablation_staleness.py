"""Ablation: real-time scanning vs scanning a stale address list.

Section 6 argues that *aggregating NTP-sourced addresses into a list is
not useful* — end-user prefixes churn so fast that the list is outdated
almost immediately.  This bench quantifies that: it collects addresses
with real-time scanning, then re-scans the same address list after the
world has churned for a week, and compares responsive counts.
"""

from benchmarks.conftest import write_report
from repro.core.campaign import CampaignConfig, CollectionCampaign
from repro.core.realtime import RealTimeScanQueue
from repro.report import fmt_int, fmt_pct, render_table, shape_check
from repro.scan.engine import EngineConfig, ScanEngine
from repro.world.population import WorldConfig, build_world


def _run(delay_days: int):
    world = build_world(WorldConfig(scale=0.15))
    engine = ScanEngine(world.network, int("20010db800aa0000", 16) << 64,
                        EngineConfig(drive_clock=False))
    queue = RealTimeScanQueue(engine)
    campaign = CollectionCampaign(
        world, CampaignConfig(days=10, wire_fraction=0.0))
    campaign.dataset.add_new_address_hook(queue.on_sighting)
    campaign.run()
    realtime_hits = {
        protocol: len(queue.results.responsive_addresses(protocol))
        for protocol in ("http", "https", "ssh", "coap")}

    for _ in range(delay_days):
        world.churn.step_day()
    batch_engine = ScanEngine(world.network,
                              int("20010db800ab0000", 16) << 64,
                              EngineConfig(drive_clock=False, seed=7))
    batch = batch_engine.run(sorted(campaign.dataset.addresses),
                             label="stale")
    batch_hits = {protocol: len(batch.responsive_addresses(protocol))
                  for protocol in ("http", "https", "ssh", "coap")}
    return realtime_hits, batch_hits


def test_ablation_staleness(benchmark):
    realtime, stale = benchmark.pedantic(_run, args=(7,), rounds=2,
                                         iterations=1)

    rows = []
    losses = []
    for protocol in ("http", "https", "ssh", "coap"):
        fresh, old = realtime[protocol], stale[protocol]
        loss = 1 - old / fresh if fresh else 0.0
        losses.append(loss)
        rows.append([protocol, fmt_int(fresh), fmt_int(old), fmt_pct(loss)])
    text = render_table(
        ["protocol", "real-time hits", "hits after 7 churn days",
         "lost to staleness"],
        rows, title="Ablation - real-time scanning vs a week-old list")

    checks = [
        shape_check("a stale list loses a large share of end-user hits "
                    "(the paper's 'lists are outdated almost immediately')",
                    max(losses) > 0.2),
        shape_check("real-time scanning finds at least as much everywhere",
                    all(realtime[p] >= stale[p]
                        for p in ("http", "https", "ssh", "coap"))),
    ]
    text += "\n\n" + "\n".join(checks)
    write_report("ablation_staleness", text)

    benchmark.extra_info.update({
        "max_loss": round(max(losses), 4),
    })
    assert max(losses) > 0.1
