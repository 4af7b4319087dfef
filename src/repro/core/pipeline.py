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

Both scan paths are built by one :class:`ScanRig`, which the campaign
daemon (:mod:`repro.service.daemon`) builds too: the campaign's dataset
hands each first sighting to the real-time queue, which scans it in
place, and each path's one :class:`~repro.scan.engine.ScanEngine`
draws its probe set from a pluggable registry.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Dict, Optional, Tuple

from repro.core.campaign import CampaignConfig, CollectionCampaign, rl_2022_config
from repro.core.collector import CollectedDataset
from repro.core.comparison import ComparisonTable, DatasetComparison
from repro.core.realtime import RealTimeScanQueue
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.registry import default_registry
from repro.scan.engine import COOLDOWN, ScanEngine
from repro.scan.ethics import publish_scanner_identity
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
    #: Changes nothing: the scan engine draws no random numbers.  Kept
    #: so stored configs and callers that set it still load.
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
        if self.protocols is None:
            return
        if not self.protocols:
            raise ValueError(
                f"protocols={self.protocols!r}: must name at least one "
                "protocol (or be None for the full registry)")
        unknown = [name for name in self.protocols if name not in PROTOCOLS]
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

    @property
    def protocols(self) -> Tuple[str, ...]:
        """The protocols the study scanned, in scan order."""
        return self.config.protocols or PROTOCOLS


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


class ScanRig:
    """One runner's sourcing→scan path over a built world.

    The batch study (:func:`run_experiment`) and the campaign daemon
    (:class:`~repro.service.daemon.CampaignDaemon`) both build their
    scan path here: the scanner identity, the probe profile
    (``protocols``, None for the full registry), the NTP-fed engine and
    its real-time queue, the collection campaign run under ``campaign``
    (a :class:`~repro.core.campaign.CampaignConfig`), the hitlist
    engine (:meth:`add_hitlist_engine`) and, with a ``writer``, the
    store taps, progress marks and checkpoints.  Without a writer,
    marks and checkpoints do nothing.  ``label`` names the NTP-fed scan
    in engine series, store records and target counts.
    """

    def __init__(self, world: World, campaign: CampaignConfig, *,
                 protocols: Optional[Tuple[str, ...]] = None,
                 label: str = "ntp", writer=None) -> None:
        self.world = world
        self.label = label
        self.writer = writer
        self.registry = default_registry()
        if protocols is not None:
            self.registry = self.registry.subset(*protocols)
        # One scanner identity serves both scan paths (the paper scans
        # the NTP feed and the hitlist from the same research vantage
        # point).
        self.source = _scanner_source(world)
        publish_scanner_identity(world.network, self.source, world.rdns,
                                 ptr_name=SCANNER_PTR_NAME)
        self.hitlist_engine: Optional[ScanEngine] = None
        self.engine = self._engine(label)
        self.queue = RealTimeScanQueue(self.engine,
                                       results=ScanResults(label=label))
        self.campaign = CollectionCampaign(world, campaign)
        dataset = self.campaign.dataset
        dataset.add_new_address_hook(self.queue.on_sighting)
        if writer is not None:
            # After the queue's hook, so each sighting's admit and grab
            # records precede its sighting record: verify-replay
            # regenerates the log in exactly this order.
            dataset.add_new_address_hook(writer.sighting)
            writer.mark("setup", 0, world.clock.now(), {})

    def _engine(self, name: str) -> ScanEngine:
        engine = ScanEngine(self.world.network, self.source,
                            registry=self.registry, name=name)
        if self.writer is not None:
            engine.attach_store(self.writer, label=name)
        return engine

    def add_hitlist_engine(self) -> None:
        """Build the hitlist scan path's engine.

        The daemon builds it with the rig and sweeps with it all
        campaign long, so its cool-down map carries across sweeps.  The
        batch study builds it after its final week.
        """
        self.hitlist_engine = self._engine("hitlist")

    def scan_hitlist(self, hitlist: Hitlist) -> ScanResults:
        """One sweep of the hitlist's full address set."""
        return self.hitlist_engine.run(sorted(hitlist.full), label="hitlist")

    def targets(self, hitlist_seen: Optional[int] = None
                ) -> Dict[str, int]:
        """Cumulative targets-seen denominators, keyed by scan label;
        ``hitlist_seen`` is the hitlist scans' count, if any ran."""
        targets = {self.label: self.queue.results.targets_seen}
        if hitlist_seen is not None:
            targets["hitlist"] = hitlist_seen
        return targets

    def mark(self, phase: str, day: int, targets: Dict[str, int]) -> None:
        """Log a progress mark at the current clock."""
        if self.writer is not None:
            self.writer.mark(phase, day, self.world.clock.now(), targets)

    def checkpoint(self, targets: Dict[str, int]) -> None:
        """Cut a store checkpoint right after a progress mark.

        Its state is the windowed queries' replay anchor: the clock and
        the cumulative ``targets`` denominators there.  Recovery does
        not load it (deterministic replay rebuilds every other piece of
        run state), and recovery, verify and compaction read only the
        checkpoint's seq and chain.
        """
        if self.writer is not None:
            self.writer.checkpoint({"clock": self.world.clock.now(),
                                    "targets": targets})


def run_experiment(config: Optional[ExperimentConfig] = None,
                   *, resume: bool = False) -> ExperimentResult:
    """Run the complete study; deterministic in ``config``.

    Every run records into its own :class:`MetricsRegistry`, returned
    on ``result.metrics`` — identical snapshots for identical configs,
    so runs can be diffed.

    With ``config.store_dir`` set, the run streams into a durable
    :mod:`repro.store` run directory; ``resume=True`` recovers an
    interrupted run from that directory and continues it (deterministic
    replay: the simulation re-runs from genesis, verified record-by-
    record against the surviving log, then keeps going live).
    """
    config = config or ExperimentConfig()
    registry = MetricsRegistry()
    with use_registry(registry):
        writer = None
        if config.store_dir is not None:
            writer = open_store_writer(config, resume=resume)
        elif resume:
            raise ValueError(
                "store_dir=None: resuming requires the run directory of "
                "an interrupted store-backed study")
        result = _run_experiment(config, writer)
    result.metrics = registry
    return result


def open_store_writer(config, *, resume: bool, **wal):
    """A runner's :class:`~repro.store.writer.StoreWriter`.

    Creates a store at ``config.store_dir`` that records ``config``
    (``wal`` passes WAL tuning to :meth:`RunStore.create`), or with
    ``resume`` recovers the store there and starts the writer in verify
    mode.
    """
    from repro.store.runstore import RunStore
    from repro.store.writer import StoreWriter

    if resume:
        store = RunStore.open(config.store_dir)
        return StoreWriter(store, recovery=store.recover(repair=True))
    store = RunStore.create(
        config.store_dir,
        # JSON round-trip normalizes tuples to lists, so the stored
        # config is exactly what config_from_document reads.
        config=json.loads(json.dumps(asdict(config))),
        cooldown_ttl=COOLDOWN,
        **wal,
    )
    return StoreWriter(store)


def config_from_document(cls, document: dict, *,
                         store_dir: Optional[str] = None):
    """Rebuild a stored config dataclass (``cls``) from its JSON form.

    Inverse of the ``asdict`` + JSON round-trip persisted in a run
    store's ``meta.json``: nested config documents become their
    dataclasses, lists become tuples, and keys the document lacks take
    their defaults.  ``store_dir`` overrides the recorded path so a
    moved run directory resumes in place.

    Keys of settings that no longer exist are ignored, except an engine
    shard count.  Stores written before the single-engine pipeline may
    record ``scan_shards``.  At 1 it changes nothing.  Above 1 the WAL
    names its engines ``<name>/shardN``, which one engine's
    verify-replay cannot reproduce, so the store is refused before
    anything is replayed or appended.
    """
    shards = document.get("scan_shards", 1)
    if shards != 1:
        raise ValueError(
            f"scan_shards={shards}: the store was written by sharded "
            "scan engines, and one engine per scan path cannot replay "
            "its WAL")
    values = {}
    for spec in fields(cls):
        if spec.name not in document:
            continue
        value = document[spec.name]
        if is_dataclass(spec.default_factory):
            value = config_from_document(spec.default_factory, value)
        elif isinstance(value, list):
            value = tuple(value)
        values[spec.name] = value
    if store_dir is not None:
        values["store_dir"] = store_dir
    return cls(**values)


def _run_experiment(config: ExperimentConfig, writer=None) -> ExperimentResult:
    world = build_world(config.world)

    rl_dataset: Optional[CollectedDataset] = None
    if config.include_rl:
        rl_campaign = CollectionCampaign(world, rl_2022_config(config.rl_days))
        rl_dataset = rl_campaign.run().dataset
        rl_campaign.deregister_all()

    for _ in range(config.gap_days):
        world.churn.step_day()

    rig = ScanRig(world, config.campaign, protocols=config.protocols,
                  writer=writer)
    for phase, days in (("lead", config.lead_days),
                        ("final", config.final_days)):
        if phase == "final":
            # Hitlist snapshot between the lead and final weeks.
            hitlist = build_hitlist(world, config.hitlist)
        for day in range(1, days + 1):
            rig.campaign.advance_days(1)
            rig.mark(phase, day, rig.targets())
            if day % config.checkpoint_days == 0:
                rig.checkpoint(rig.targets())

    rig.add_hitlist_engine()
    hitlist_scan = rig.scan_hitlist(hitlist)
    # The done mark counts both scans; every batch checkpoint, this
    # last one included, counts the NTP-fed scan only.
    rig.mark("done", 0, rig.targets(hitlist_scan.targets_seen))
    rig.checkpoint(rig.targets())
    if writer is not None:
        writer.close()

    return ExperimentResult(
        world=world,
        ntp_dataset=rig.campaign.dataset,
        ntp_scan=rig.queue.results,
        hitlist=hitlist,
        hitlist_scan=hitlist_scan,
        rl_dataset=rl_dataset,
        campaign=rig.campaign,
        config=config,
    )
