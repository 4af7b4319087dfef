"""End-to-end experiment orchestration.

:func:`run_experiment` reproduces the paper's full measurement
timeline on one simulated world:

1. *(optional)* an **R&L-style collection** (their 2022 study) — used
   only for Table 1's overlap rows;
2. a **gap period** in which the world churns on (the two years between
   the studies, compressed);
3. **our collection campaign** with real-time scanning of every newly
   sourced address (three collection weeks, then a final week in which
   collection continues *and* the freshly built full hitlist is scanned
   — matching the paper's August 9–16 window);
4. the assembled :class:`ExperimentResult`, the single object every
   table/figure bench consumes.

Both scan paths run on the staged runtime (`repro.runtime`): the
campaign's dataset publishes ``AddressSighted`` events, the real-time
queue consumes them as a bounded stage, and each path's one
:class:`~repro.scan.engine.ScanEngine` draws its probe set from a
pluggable registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.campaign import CampaignConfig, CollectionCampaign, rl_2022_config
from repro.core.collector import CollectedDataset
from repro.core.comparison import ComparisonTable, DatasetComparison
from repro.core.realtime import RealTimeScanQueue
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.registry import default_registry
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world.hitlist import Hitlist, HitlistConfig, build_hitlist
from repro.world.population import World, WorldConfig, build_world


@dataclass
class ExperimentConfig:
    """Everything needed to run the full study."""

    world: WorldConfig = field(default_factory=WorldConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    hitlist: HitlistConfig = field(default_factory=HitlistConfig)
    #: Run the R&L-style pre-campaign for Table 1's overlap rows.
    include_rl: bool = True
    rl_days: int = 10
    #: Churn-only days between the R&L study and ours.
    gap_days: int = 14
    #: Collection days before the hitlist snapshot + final week.
    lead_days: int = 21
    final_days: int = 7
    scan_seed: int = 0x51AB
    #: Restrict the campaign's probe profile to these protocols (None =
    #: the paper's full eight-protocol registry).
    protocols: Optional[Tuple[str, ...]] = None
    #: Stream the run into a durable :mod:`repro.store` run directory
    #: (None = in-memory only, the seed behaviour).
    store_dir: Optional[str] = None
    #: Collection days between store checkpoints (only meaningful with
    #: ``store_dir``).
    checkpoint_days: int = 7

    def __post_init__(self) -> None:
        # Validation lives on the config (not the CLI handler) so the
        # api facade and direct library construction share it.  Error
        # messages lead with ``field=value`` so CLI exit-2 output names
        # the offending value, not just the field.
        if self.checkpoint_days < 1:
            raise ValueError(
                f"checkpoint_days={self.checkpoint_days}: must be >= 1")
        if self.protocols is not None:
            if not self.protocols:
                raise ValueError(
                    f"protocols={self.protocols!r}: must name at least one "
                    "protocol (or be None for the full registry)")
            unknown = [name for name in self.protocols
                       if name not in PROTOCOLS]
            if unknown:
                raise ValueError(
                    f"protocols={','.join(self.protocols)}: unknown "
                    f"protocol(s) {', '.join(sorted(unknown))}; "
                    f"choose from {', '.join(PROTOCOLS)}")


@dataclass
class ExperimentResult:
    """All artefacts of one experiment run."""

    world: World
    ntp_dataset: CollectedDataset
    ntp_scan: ScanResults
    hitlist: Hitlist
    hitlist_scan: ScanResults
    rl_dataset: Optional[CollectedDataset]
    campaign: CollectionCampaign
    config: ExperimentConfig
    #: The run's metrics registry (every stage/scheduler/probe series).
    metrics: Optional[MetricsRegistry] = None

    def comparison(self) -> DatasetComparison:
        """The Table 1 comparator over every dataset in this run."""
        comparison = DatasetComparison(self.world.asdb)
        comparison.add("ntp", self.ntp_dataset.addresses)
        if self.rl_dataset is not None:
            comparison.add("rl", self.rl_dataset.addresses)
        comparison.add("hitlist-full", self.hitlist.full)
        comparison.add("hitlist-public", self.hitlist.public)
        return comparison

    def table1(self) -> ComparisonTable:
        return self.comparison().table("ntp")


#: The study scanner's self-identifying PTR name (Appendix A.2.2).
SCANNER_PTR_NAME = "ipv6-research-scan.comsys.example.edu"


def _scanner_source(world: World) -> int:
    """Allocate the study's scanner address inside a research AS.

    Placing the scanner in identifiable research address space mirrors
    the paper's ethics setup (reverse-DNS + info pages) and lets the
    Section 5 detector classify our own scans as an overt actor.  The
    study runs *one* scanner identity: allocating a second address
    under the same PTR name is a bug (the seed did exactly that for the
    hitlist engine), so duplicate registration is rejected here.
    """
    for system in world.asdb.systems:
        if system.category == "Educational/Research":
            source = world.allocate_prefix64(system.number) | 0x10
            existing = world.rdns.addresses_of(SCANNER_PTR_NAME)
            if existing:
                raise RuntimeError(
                    f"scanner identity {SCANNER_PTR_NAME!r} already "
                    f"registered to {existing[0]:#x}; reuse that source")
            world.rdns.register(source, SCANNER_PTR_NAME)
            return source
    # Fallback: infrastructure space (no research AS configured).
    return int("20010db8000000000000000000000010", 16)


def run_experiment(config: Optional[ExperimentConfig] = None,
                   metrics: Optional[MetricsRegistry] = None,
                   *, resume: bool = False) -> ExperimentResult:
    """Run the complete study; deterministic in ``config``.

    Every run records into its own :class:`MetricsRegistry` (or the one
    passed as ``metrics``), returned on ``result.metrics`` — identical
    snapshots for identical configs, so runs can be diffed.

    With ``config.store_dir`` set, the run streams into a durable
    :mod:`repro.store` run directory; ``resume=True`` recovers an
    interrupted run from that directory and continues it (deterministic
    replay: the simulation re-runs from genesis, verified record-by-
    record against the surviving log, then keeps going live).
    """
    config = config or ExperimentConfig()
    registry = metrics if metrics is not None else MetricsRegistry()
    with use_registry(registry):
        writer = _open_store_writer(config, resume=resume)
        result = _run_experiment(config, writer)
    result.metrics = registry
    return result


def _open_store_writer(config: ExperimentConfig, *, resume: bool):
    """The run's StoreWriter (None when no store is configured)."""
    if config.store_dir is None:
        if resume:
            raise ValueError(
                "store_dir=None: resuming requires the run directory of "
                "an interrupted store-backed study")
        return None
    import json
    from dataclasses import asdict

    from repro.store.runstore import RunStore
    from repro.store.writer import StoreWriter

    if resume:
        store = RunStore.open(config.store_dir)
        return StoreWriter(store, recovery=store.recover(repair=True))
    store = RunStore.create(
        config.store_dir,
        # JSON round-trip normalizes tuples to lists, so the stored
        # config is exactly what experiment_config_from_document reads.
        config=json.loads(json.dumps(asdict(config))),
        cooldown_ttl=EngineConfig().cooldown,
    )
    return StoreWriter(store)


def experiment_config_from_document(document: dict, *,
                                    store_dir: Optional[str] = None
                                    ) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its stored JSON form.

    Inverse of the ``asdict`` + JSON round-trip persisted in a run
    store's ``meta.json``; ``store_dir`` overrides the recorded path so
    a moved run directory resumes in place.  Keys of settings that no
    longer exist are ignored, except a stored engine-shard count above
    one (see :func:`refuse_sharded_store`).
    """
    refuse_sharded_store(document)
    campaign_doc = dict(document["campaign"])
    campaign_doc["deployment"] = tuple(campaign_doc["deployment"])
    protocols = document.get("protocols")
    return ExperimentConfig(
        world=WorldConfig(**document["world"]),
        campaign=CampaignConfig(**campaign_doc),
        hitlist=HitlistConfig(**document["hitlist"]),
        include_rl=document["include_rl"],
        rl_days=document["rl_days"],
        gap_days=document["gap_days"],
        lead_days=document["lead_days"],
        final_days=document["final_days"],
        scan_seed=document["scan_seed"],
        protocols=tuple(protocols) if protocols is not None else None,
        store_dir=store_dir if store_dir is not None
        else document.get("store_dir"),
        checkpoint_days=document.get("checkpoint_days", 7),
    )


def refuse_sharded_store(document: dict) -> None:
    """Reject a stored config whose engines were split into shards.

    Stores written before the single-engine pipeline may record
    ``scan_shards``.  At 1 it changes nothing.  Above 1 the WAL names
    its engines ``<name>/shardN``, which one engine's verify-replay
    cannot reproduce, so the store is refused before anything is
    replayed or appended.
    """
    shards = document.get("scan_shards", 1)
    if shards != 1:
        raise ValueError(
            f"scan_shards={shards}: the store was written by sharded "
            "scan engines, and one engine per scan path cannot replay "
            "its WAL")


def _campaign_targets(queue: RealTimeScanQueue,
                      hitlist_scan: Optional[ScanResults] = None) -> dict:
    """Cumulative targets-seen denominators for mark records."""
    targets = {"ntp": queue.results.targets_seen}
    if hitlist_scan is not None:
        targets["hitlist"] = hitlist_scan.targets_seen
    return targets


def _checkpoint_state(config: ExperimentConfig, world,
                      campaign: CollectionCampaign,
                      queue: RealTimeScanQueue, engines: list,
                      phase: str, day: int) -> dict:
    """The JSON state snapshot stored in a checkpoint.

    Recovery does not *load* this state (deterministic replay rebuilds
    it); it exists for offline inspection and as the compaction anchor.
    """
    from repro.obs.metrics import current_registry

    report = campaign.report()
    cooldowns: dict = {}
    for engine in engines:
        cooldowns.update(engine.cooldown_snapshots())
    return {
        "phase": phase,
        "day": day,
        "clock": world.clock.now(),
        "campaign": {
            "days_run": report.days_run,
            "addresses": len(campaign.dataset),
            "requests": campaign.dataset.total_requests,
            "wire_queries": report.wire_queries,
            "fast_queries": report.fast_queries,
            "per_server_requests": report.per_server_requests,
        },
        "targets": _campaign_targets(queue),
        "cooldowns": cooldowns,
        "metrics": current_registry().snapshot(),
    }


def _run_experiment(config: ExperimentConfig, writer=None) -> ExperimentResult:
    world = build_world(config.world)

    rl_dataset: Optional[CollectedDataset] = None
    if config.include_rl:
        rl_campaign = CollectionCampaign(world, rl_2022_config(config.rl_days))
        rl_dataset = rl_campaign.run().dataset
        rl_campaign.deregister_all()

    for _ in range(config.gap_days):
        world.churn.step_day()

    from repro.scan.ethics import publish_scanner_identity

    registry = default_registry()
    if config.protocols is not None:
        registry = registry.subset(*config.protocols)

    # One scanner identity serves both scan paths (the paper scans the
    # NTP feed and the hitlist from the same research vantage point).
    scanner_source = _scanner_source(world)
    publish_scanner_identity(world.network, scanner_source, world.rdns,
                             ptr_name=SCANNER_PTR_NAME)
    engine = ScanEngine(
        world.network, scanner_source,
        EngineConfig(drive_clock=False, seed=config.scan_seed),
        registry=registry, name="ntp")
    queue = RealTimeScanQueue(engine)
    campaign = CollectionCampaign(world, config.campaign, scan_queue=queue)
    if writer is not None:
        # The queue subscribed first (campaign construction), so each
        # sighting's admit/grab records land before its sighting record
        # — in both original and replayed runs, since it is the same
        # code path both times.
        engine.attach_store(writer, label="ntp")
        writer.attach(campaign.dataset.bus)
        writer.mark("setup", 0, world.clock.now(), {})

    engines = [engine]
    for phase, days in (("lead", config.lead_days),
                        ("final", config.final_days)):
        if phase == "final":
            # Hitlist snapshot between the lead and final weeks.
            hitlist = build_hitlist(world, config.hitlist)
        for day in range(1, days + 1):
            campaign.advance_days(1)
            if writer is not None:
                writer.mark(phase, day, world.clock.now(),
                            _campaign_targets(queue))
                if day % config.checkpoint_days == 0:
                    writer.checkpoint(lambda: _checkpoint_state(
                        config, world, campaign, queue, engines, phase, day))

    hitlist_engine = ScanEngine(
        world.network, scanner_source,
        EngineConfig(drive_clock=False, seed=config.scan_seed ^ 0xFF),
        registry=registry, name="hitlist")
    if writer is not None:
        hitlist_engine.attach_store(writer, label="hitlist")
        engines.append(hitlist_engine)
    hitlist_scan = hitlist_engine.run(sorted(hitlist.full), label="hitlist")

    if writer is not None:
        writer.mark("done", 0, world.clock.now(),
                    _campaign_targets(queue, hitlist_scan))
        writer.checkpoint(lambda: _checkpoint_state(
            config, world, campaign, queue, engines, "done", 0))
        writer.close()

    return ExperimentResult(
        world=world,
        ntp_dataset=campaign.dataset,
        ntp_scan=queue.results,
        hitlist=hitlist,
        hitlist_scan=hitlist_scan,
        rl_dataset=rl_dataset,
        campaign=campaign,
        config=config,
    )
