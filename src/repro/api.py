"""Typed library facade over the study's pipelines.

Every CLI subcommand is a thin wrapper over one function here, so
programs embed the reproduction without re-implementing the command
handlers: each entry point accepts a config dataclass, runs inside its
own metrics-registry scope, and returns a result object carrying both
the rich in-memory artefacts and a versioned
:class:`~repro.obs.runreport.RunReport` (config + metrics snapshot +
headline tables) ready for ``repro.io`` serialization or JSON output.

Quickstart::

    from repro import api
    from repro.core.pipeline import ExperimentConfig
    from repro.world.population import WorldConfig

    study = api.study(ExperimentConfig(world=WorldConfig(scale=0.1)))
    print(study.report.tables["hit_rates"])    # headline numbers
    study.analysis.security_gap()              # Figures 2-3 headline
    study.experiment                           # full result object

Every entry point runs in the calling process, with one scan engine per
scan path (DESIGN.md §8).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.analysis import devicetypes
from repro.analysis.bundle import AnalysisBundle, run_analysis, table2_rows
from repro.core.actors import deploy_section5_actors
from repro.core.attribution import AttributionReport, attribute_events
from repro.core.campaign import CampaignConfig, CampaignReport, CollectionCampaign
from repro.core.comparison import ComparisonTable
from repro.core.detection import ActorDetector, ActorVerdict
from repro.core.ecosystem import ScannerPopulation, leak_scenario
from repro.core.pipeline import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.telescope import Telescope
from repro.net.clock import DAY, HOUR, EventScheduler
from repro.obs import MetricsRegistry, RunReport, use_registry
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world.population import World, WorldConfig
from repro.world.population import build_world as _build_world


# -- configs ----------------------------------------------------------------

@dataclass
class CollectConfig:
    """Inputs of a standalone collection campaign run."""

    world: WorldConfig = field(default_factory=WorldConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)


#: Days a telescope run waits after its last sweep, so slow (covert)
#: actors fire their delayed scans.
TELESCOPE_SETTLE_DAYS = 4

#: The same wait for an ecosystem run.
ECOSYSTEM_SETTLE_DAYS = 2


@dataclass
class TelescopeConfig:
    """Inputs of a Section-5 telescope + actor-detection run.

    The two actors deploy into :func:`deploy_section5_actors`' default
    pool zones.
    """

    world: WorldConfig = field(default_factory=WorldConfig)
    #: Daily telescope sweeps over the pool.
    sweep_days: int = 6

    def __post_init__(self) -> None:
        if self.sweep_days < 1:
            raise ValueError(
                f"sweep_days={self.sweep_days}: must be >= 1")


@dataclass
class EcosystemConfig:
    """Inputs of a mixed-population telescope + attribution run.

    Builds on :class:`TelescopeConfig`'s wiring (the same two
    NTP-sourcing actors and daily sweeps) and adds the five-strategy
    leak population of :func:`~repro.core.ecosystem.leak_scenario` plus
    the attribution layer, and waits :data:`ECOSYSTEM_SETTLE_DAYS`
    after the last sweep.  ``window_days`` additionally emits rolling
    attribution windows through the service reader.
    """

    world: WorldConfig = field(default_factory=WorldConfig)
    #: Daily telescope sweeps over the pool.
    sweep_days: int = 4
    #: Rolling attribution windows (simulated days); None disables.
    window_days: Optional[float] = None
    step_days: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sweep_days < 1:
            raise ValueError(
                f"sweep_days={self.sweep_days}: must be >= 1")
        if self.window_days is None:
            if self.step_days is not None:
                raise ValueError(
                    f"step_days={self.step_days}: rolling attribution "
                    "windows need window_days")
        else:
            if self.window_days <= 0:
                raise ValueError(
                    f"window_days={self.window_days}: must be positive")
            if self.step_days is not None and self.step_days <= 0:
                raise ValueError(
                    f"step_days={self.step_days}: must be positive")


@dataclass
class AmplificationConfig:
    """Inputs of the monlist amplification study.

    Builds a dedicated control-plane world: ``servers`` NTP pool
    members, each with the version/patch-level profile
    :func:`repro.world.ntpprofiles.profile_for` assigns and a
    pre-seeded recent-client table, scanned with the ``ntp`` probe
    module (mode-6 readvar + mode-7 monlist).
    """

    #: Pool servers deployed (and scanned).
    servers: int = 96
    seed: int = 20240720
    #: Largest pre-seeded recent-client table per server.
    max_entries: int = 48

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"servers={self.servers}: must be >= 1")
        if self.max_entries < 0:
            raise ValueError(
                f"max_entries={self.max_entries}: must be >= 0")


@dataclass
class AnalyzeConfig:
    """Inputs of an offline re-analysis over saved scan results.

    Two sources: a pair of ``study --out-dir`` JSONL files
    (``ntp_path`` + ``hitlist_path``), or a :mod:`repro.store` run
    directory (``run_dir``) — the latter reads the WAL segments
    directly, so crashed or still-running studies analyze too.
    """

    ntp_path: Optional[str] = None
    hitlist_path: Optional[str] = None
    run_dir: Optional[str] = None
    #: Windowed mode (``analyze --since/--window/--step``): setting
    #: ``window`` switches the run-store path to rolling
    #: :mod:`repro.service.query` tables.  All three are simulated
    #: DAYS; ``since``/``step`` default to 0 / the window span.
    since: Optional[float] = None
    window: Optional[float] = None
    step: Optional[float] = None

    def __post_init__(self) -> None:
        if self.run_dir is None and (self.ntp_path is None
                                     or self.hitlist_path is None):
            raise ValueError(
                f"ntp_path={self.ntp_path!r}, "
                f"hitlist_path={self.hitlist_path!r}: analyze needs both "
                "saved-result paths, or run_dir pointing at a run store")
        if self.run_dir is not None and (self.ntp_path is not None
                                         or self.hitlist_path is not None):
            raise ValueError(
                f"run_dir={self.run_dir!r}: give either a run store or "
                "saved-result paths, not both")
        if self.window is None:
            if self.since is not None:
                raise ValueError(
                    f"since={self.since}: rolling spans need --window")
            if self.step is not None:
                raise ValueError(
                    f"step={self.step}: rolling spans need --window")
        else:
            if self.run_dir is None:
                raise ValueError(
                    f"window={self.window}: windowed analysis replays a "
                    "run store; give run_dir, not saved-result paths")
            if self.window <= 0:
                raise ValueError(
                    f"window={self.window}: must be positive days")
            if self.since is not None and self.since < 0:
                raise ValueError(
                    f"since={self.since}: must be >= 0 days")
            if self.step is not None and self.step <= 0:
                raise ValueError(
                    f"step={self.step}: must be positive days")


# -- results ----------------------------------------------------------------

@dataclass
class WorldResult:
    world: World
    report: RunReport


@dataclass
class CollectResult:
    campaign: CampaignReport
    report: RunReport


@dataclass
class StudyResult:
    experiment: ExperimentResult
    report: RunReport
    #: Table 1 and the analysis bundle the report's tables were
    #: formatted from (``repro study --full-report`` formats them too).
    table1: ComparisonTable
    analysis: AnalysisBundle


@dataclass
class TelescopeResult:
    telescope: Telescope
    verdicts: List[ActorVerdict]
    report: RunReport


@dataclass
class EcosystemResult:
    """A finished mixed-population run with strategy attribution."""

    telescope: Telescope
    population: ScannerPopulation
    attribution: AttributionReport
    verdicts: List[ActorVerdict]
    report: RunReport


@dataclass
class AmplificationResult:
    """A finished monlist amplification study."""

    results: ScanResults
    exposure: "object"       # analysis.amplification.MonlistExposureReport
    distribution: "object"   # analysis.amplification.AmplificationReport
    #: The rendered exposure + distribution artefact (bench-committed).
    table: str
    report: RunReport


@dataclass
class AnalyzeResult:
    ntp_scan: ScanResults
    hitlist_scan: ScanResults
    report: RunReport


@dataclass
class CampaignResult:
    """A finished (or gracefully stopped) longitudinal campaign."""

    daemon: "object"
    report: RunReport


@dataclass
class QueryResult:
    """One windowed query's rolling series + run report."""

    document: dict
    report: RunReport


# -- entry points -----------------------------------------------------------

def build_world(config: Optional[WorldConfig] = None) -> WorldResult:
    """Generate a world and summarize its composition."""
    config = config or WorldConfig()
    with use_registry() as registry:
        world = _build_world(config)
    types = TallyCounter(device.type_name for device in world.devices)
    tables = {
        "composition": [{"type": name, "count": count}
                        for name, count in types.most_common()],
        "summary": {
            "premises": len(world.premises),
            "ases": len(world.asdb.systems),
            "ntp_clients": len(world.ntp_clients()),
            "scannable": len(world.scannable()),
            "dns_named": len(world.dns_named()),
        },
    }
    report = RunReport.build("world", asdict(config), registry, tables)
    return WorldResult(world=world, report=report)


def collect(config: Optional[CollectConfig] = None) -> CollectResult:
    """Run one collection campaign (no scanning)."""
    config = config or CollectConfig()
    with use_registry() as registry:
        world = _build_world(config.world)
        campaign = CollectionCampaign(world, config.campaign)
        campaign_report = campaign.run()
    dataset = campaign_report.dataset
    tables = {
        "per_server": [
            {"location": location, "addresses": count}
            for location, count in sorted(dataset.per_server_counts().items(),
                                          key=lambda item: -item[1])
        ],
        "totals": {
            "addresses": len(dataset),
            "requests": dataset.total_requests,
            "days_run": campaign_report.days_run,
            "wire_queries": campaign_report.wire_queries,
            "fast_queries": campaign_report.fast_queries,
        },
    }
    report = RunReport.build("collect", asdict(config), registry, tables)
    return CollectResult(campaign=campaign_report, report=report)


def study(config: Optional[ExperimentConfig] = None) -> StudyResult:
    """Run the full study pipeline (collection + both scan paths).

    Set ``config.store_dir`` to stream the run into a durable
    :mod:`repro.store` directory that :func:`resume` can continue.
    """
    config = config or ExperimentConfig()
    return _study_result(config, run_experiment(config))


def resume(run_dir: str) -> StudyResult:
    """Continue an interrupted store-backed study to completion.

    Reads the run directory's stored config, replays the surviving WAL
    deterministically (every regenerated record is verified against the
    log), then continues the study live from the exact record where the
    crash cut it off.  The returned report is identical to an
    uninterrupted run's, modulo the ``store_*`` recovery metrics.

    A store written by a study that scanned with several engine shards
    is refused with a ``ValueError`` before anything is replayed or
    appended.
    """
    from repro.core.pipeline import config_from_document
    from repro.service.config import is_service_document
    from repro.store import RunStore

    store = RunStore.open(run_dir)
    if is_service_document(store.meta.get("config", {})):
        raise ValueError(
            f"run_dir={run_dir}: holds a service campaign, not a batch "
            "study; use api.resume_campaign() instead")
    config = config_from_document(ExperimentConfig, store.meta["config"],
                                  store_dir=str(run_dir))
    return _study_result(config, run_experiment(config, resume=True))


def _study_result(config: ExperimentConfig,
                  result: ExperimentResult) -> StudyResult:
    """Build a finished experiment's Table 1 and analysis bundle in its
    metrics registry, and its run report from them."""
    with use_registry(result.metrics):
        table1 = result.table1()
        bundle = run_analysis(result.ntp_scan, result.hitlist_scan,
                              asdb=result.world.asdb)
    report = RunReport.build("study", asdict(config), result.metrics,
                             study_tables(result, table1, bundle))
    return StudyResult(experiment=result, report=report, table1=table1,
                       analysis=bundle)


def study_tables(result: ExperimentResult, table1: ComparisonTable,
                 bundle: AnalysisBundle) -> dict:
    """The headline tables of one experiment, as JSON-shaped rows
    formatted from its Table 1 and analysis bundle."""
    findings = devicetypes.new_or_underrepresented(bundle.table3)
    return {
        "table1": [
            {"label": s.label, "addresses": s.address_count,
             "net48s": s.net48_count, "ases": s.as_count,
             "median_ips_per_48": s.median_ips_per_48,
             "median_ips_per_as": s.median_ips_per_as}
            for s in table1.summaries
        ],
        "table2": table2_rows(result.ntp_scan, result.hitlist_scan,
                              result.config.protocols or PROTOCOLS),
        "hit_rates": {
            "ntp": result.ntp_scan.hit_rate(),
            "hitlist": result.hitlist_scan.hit_rate(),
        },
        "security": bundle.secure_share_rows(),
        "device_gap": {
            "groups": len(findings),
            "devices": sum(count for count, _ in findings.values()),
        },
        "keyreuse": {
            side: {"reused_keys": report.reused_key_count,
                   "reused_addresses": report.total_reused_addresses}
            for side, report in bundle.keyreuse.items()
        },
    }


def telescope(config: Optional[TelescopeConfig] = None) -> TelescopeResult:
    """Deploy third-party actors and run the Section-5 detector.

    This is the actor wiring the CLI used to inline: an overt research
    actor and a covert cloud actor source addresses from the pool, the
    telescope sweeps daily, and the detector classifies whoever scanned
    its baits.
    """
    config = config or TelescopeConfig()
    with use_registry() as registry:
        world = _build_world(config.world)
        campaign = CollectionCampaign(
            world, CampaignConfig(days=1, wire_fraction=0.0))
        scheduler = EventScheduler(world.clock)
        deploy_section5_actors(world, campaign.pool, scheduler)
        scope = Telescope(world.network)
        scope.watch(campaign.pool, scheduler,
                    sweep_days=config.sweep_days,
                    settle_days=TELESCOPE_SETTLE_DAYS)

        detector = ActorDetector(
            scope, world.asdb,
            operator_of_server=lambda a: campaign.pool.server(a).operator)
        verdicts = detector.report()

    tables = {
        "actors": [
            {"actor": verdict.observation.cluster,
             "verdict": verdict.kind,
             "servers": len(verdict.observation.triggering_servers),
             "ports": len(verdict.observation.ports),
             "median_delay_hours": verdict.observation.median_delay / HOUR,
             "sensitive_share": verdict.observation.sensitive_share}
            for verdict in verdicts
        ],
        "telescope": {
            "baits": len(scope.baits),
            "match_rate": scope.match_rate(),
        },
    }
    report = RunReport.build("telescope", asdict(config), registry, tables)
    return TelescopeResult(telescope=scope, verdicts=verdicts, report=report)


def ecosystem(config: Optional[EcosystemConfig] = None) -> EcosystemResult:
    """Run the mixed scanner population and attribute every cluster.

    The telescope wiring of :func:`telescope` — two NTP-sourcing actors
    behind capture servers, daily bait sweeps — plus the five-strategy
    leak population of :mod:`repro.core.ecosystem` aimed at the bait
    /48.  The attribution layer then classifies every source cluster
    and scores itself against the simulation's ground truth; the
    report's ``confusion`` and ``strategy_metrics`` tables carry the
    per-strategy precision/recall and the truth-vs-predicted matrix.
    """
    from repro.net.clock import MINUTE
    from repro.service.query import WindowedAttributionReader

    config = config or EcosystemConfig()
    with use_registry() as registry:
        world = _build_world(config.world)
        campaign = CollectionCampaign(
            world, CampaignConfig(days=1, wire_fraction=0.0))
        scheduler = EventScheduler(world.clock)
        overt, covert = deploy_section5_actors(world, campaign.pool,
                                               scheduler)
        scope = Telescope(world.network)

        population = ScannerPopulation(world.network, scheduler)
        population.add_external("GT", "ntp", overt.scanner_addresses)
        population.add_external("covert", "ntp", covert.scanner_addresses)
        # One eyeball AS per leak strategy: distinct ASes live in
        # distinct /32 blocks, so source /48 clustering keeps the
        # ground truth separable by construction.
        eyeballs = sorted(
            (s for s in world.asdb.systems
             if s.category == "Cable/DSL/ISP"), key=lambda s: s.number)
        if len(eyeballs) < 5:
            raise ValueError(
                f"world has {len(eyeballs)} eyeball ASes; the leak "
                "population needs 5 (raise the world scale)")
        sources = {}
        for strategy, system in zip(
                ("hitlist", "tga", "rdns", "residential",
                 "amplification"), eyeballs):
            base = world.allocate_prefix64(system.number)
            sources[strategy] = [base + offset for offset in range(3)]
        leak_scenario(world.network, scheduler, world.rdns,
                      scope.prefix48, sources=sources, start=10 * MINUTE,
                      population=population)

        scope.watch(campaign.pool, scheduler,
                    sweep_days=config.sweep_days,
                    settle_days=ECOSYSTEM_SETTLE_DAYS)

        detector = ActorDetector(
            scope, world.asdb, rdns=world.rdns,
            operator_of_server=lambda a: campaign.pool.server(a).operator)
        verdicts = detector.report()

        attribution = attribute_events(
            scope.events, truth=population.ground_truth(),
            rdns=world.rdns)

        windows = None
        if config.window_days is not None:
            reader = WindowedAttributionReader(
                scope.events, truth=population.ground_truth(),
                rdns=world.rdns)
            windows = reader.series(
                since=0.0, window=config.window_days * DAY,
                step=(config.step_days or config.window_days) * DAY)

    tables = attribution.tables()
    tables.update({
        "telescope": {
            "baits": len(scope.baits),
            "events": len(scope.events),
            "matched": len(scope.matched_events()),
            "match_rate": scope.match_rate(),
        },
        "population": population.rows(),
        "detector": [
            {"actor": verdict.observation.cluster,
             "verdict": verdict.kind}
            for verdict in verdicts
        ],
    })
    if windows is not None:
        tables["attribution_windows"] = windows
    report = RunReport.build("ecosystem", asdict(config), registry, tables)
    return EcosystemResult(telescope=scope, population=population,
                           attribution=attribution, verdicts=verdicts,
                           report=report)


#: The amplification study's address plan: servers in consecutive
#: subnets of a documentation /48, the scanner outside them.
_AMPLIFICATION_PREFIX48 = 0x2001_0DB8_00AA << 80
_AMPLIFICATION_SCANNER = _AMPLIFICATION_PREFIX48 + (0xFFFF << 64) + 0x5CA7


def amplification(config: Optional[AmplificationConfig] = None
                  ) -> AmplificationResult:
    """Run the monlist amplification study (the Fig 2/3-style tables).

    Deploys ``config.servers`` profiled pool members as
    :class:`~repro.ntp.service.NtpControlService` hosts on a lean
    loss-free network, scans them with the ``ntp`` probe module through
    one :class:`~repro.scan.engine.ScanEngine`, and folds the grabs
    into the monlist-exposure and amplification-factor reports.
    """
    from repro.analysis.amplification import (
        amplification_distribution,
        amplification_table,
        monlist_exposure,
    )
    from repro.net.simnet import Network
    from repro.ntp.service import control_service_for
    from repro.runtime.registry import ProbeRegistry
    from repro.scan.engine import ScanEngine
    from repro.scan.modules.ntp import refused_ntp, scan_ntp

    config = config or AmplificationConfig()
    with use_registry() as registry:
        network = Network()
        network.add_host(_AMPLIFICATION_SCANNER)
        addresses = [
            _AMPLIFICATION_PREFIX48 + ((0xA000 + index) << 64) + 1
            for index in range(config.servers)
        ]
        for address in addresses:
            host = network.add_host(address)
            host.bind_udp(123, control_service_for(
                config.seed, address, max_entries=config.max_entries))
        probes = ProbeRegistry()
        probes.register("ntp", scan_ntp, 123, refused=refused_ntp)
        engine = ScanEngine(network, _AMPLIFICATION_SCANNER,
                            registry=probes, name="amplification")
        results = engine.run(addresses, label="amplification")
        exposure = monlist_exposure("pool", results)
        distribution = amplification_distribution("pool", results)
        table = amplification_table(exposure, distribution)

    tables = {
        "exposure": [
            {"group": row.group, "responsive": row.responsive,
             "exposed": row.exposed, "share": row.exposed_share}
            for row in exposure.rows
        ],
        "exposure_total": {
            "responsive": exposure.responsive,
            "exposed": exposure.exposed,
            "share": exposure.exposed_share,
        },
        "amplification": [
            {"bucket": bucket.label, "servers": bucket.count}
            for bucket in distribution.buckets
        ],
        "amplification_summary": {
            "samples": distribution.samples,
            "mean": distribution.mean,
            "max": distribution.maximum,
        },
        "rendered": table,
    }
    report = RunReport.build("amplification", asdict(config), registry,
                             tables)
    return AmplificationResult(results=results, exposure=exposure,
                               distribution=distribution, table=table,
                               report=report)


def analyze(config: AnalyzeConfig) -> AnalyzeResult:
    """Re-run the analyses over saved scan results or a run store."""
    from repro.io import load_results

    if config.window is not None:
        return _analyze_windowed(config)
    with use_registry() as registry:
        if config.run_dir is not None:
            from repro.store import read_study

            reader = read_study(config.run_dir)
            ntp_scan = reader.scan("ntp")
            hitlist_scan = reader.scan("hitlist")
        else:
            ntp_scan = load_results(config.ntp_path)
            hitlist_scan = load_results(config.hitlist_path)
        registry.counter("analyze_targets_total", source="ntp").inc(
            ntp_scan.targets_seen)
        registry.counter("analyze_targets_total", source="hitlist").inc(
            hitlist_scan.targets_seen)
        # Inside the registry scope so the analysis_* series land in
        # this run's snapshot.  No AS database offline, so the key-reuse
        # sweep is skipped (the bundle's keyreuse dict stays empty).
        bundle = run_analysis(ntp_scan, hitlist_scan)

    tables = {"device_types": bundle.table3_rows(),
              "security": bundle.secure_share_rows()}
    report = RunReport.build("analyze", asdict(config), registry, tables)
    return AnalyzeResult(ntp_scan=ntp_scan, hitlist_scan=hitlist_scan,
                         report=report)


def _analyze_windowed(config: AnalyzeConfig) -> AnalyzeResult:
    """``analyze --window``: rolling service tables over a run store.

    The scan fields of the result are empty placeholders — a windowed
    analysis produces per-window tables, not one merged result set.
    """
    from repro.service.frontend import QueryService

    with use_registry() as registry:
        service = QueryService(config.run_dir,
                               window_days=config.window,
                               step_days=config.step)
        document = service.query(since=config.since)
    tables = {
        "window_query": {
            "horizon_days": document["horizon"],
            "since": document["since"],
            "window": document["window"],
            "step": document["step"],
            "windows": len(document["windows"]),
        },
        "window_series": document["windows"],
    }
    report = RunReport.build("analyze", asdict(config), registry, tables)
    return AnalyzeResult(ntp_scan=ScanResults(label="ntp"),
                         hitlist_scan=ScanResults(label="hitlist"),
                         report=report)


# -- the measurement service -------------------------------------------------

def run_campaign(config) -> CampaignResult:
    """Run a longitudinal service campaign to its configured horizon.

    Takes a :class:`repro.service.ServiceConfig`; ticks the
    :class:`~repro.service.daemon.CampaignDaemon` one simulated day at
    a time to ``campaign_days``, closing the store (final mark +
    checkpoint) on the way out.
    """
    from repro.service.daemon import CampaignDaemon

    with use_registry() as registry:
        daemon = CampaignDaemon.create(config)
        daemon.run()
    report = RunReport.build("daemon", asdict(config), registry,
                             daemon.tables())
    return CampaignResult(daemon=daemon, report=report)


def resume_campaign(run_dir: str) -> CampaignResult:
    """Recover a crashed campaign daemon and run it to completion.

    The deterministic-replay counterpart of :func:`resume` for service
    stores: history is regenerated in verify mode, checked against the
    surviving WAL record-for-record, and the campaign continues live
    from the crash point to its configured horizon.
    """
    from repro.service.daemon import CampaignDaemon

    with use_registry() as registry:
        daemon = CampaignDaemon.resume(run_dir)
        daemon.run()
    report = RunReport.build("daemon", asdict(daemon.config), registry,
                             daemon.tables())
    return CampaignResult(daemon=daemon, report=report)


def query_window(run_dir: str, *, since: float = 0.0,
                 window: Optional[float] = None,
                 step: Optional[float] = None,
                 cache_frames: Optional[int] = None) -> QueryResult:
    """One rolling windowed query against a run store (spans in days).

    ``window``/``step`` default to 7 days each and ``cache_frames`` to
    32 (the constants of :mod:`repro.service.config`); results come
    from bounded checkpoint-anchored replay, never a full-WAL scan.
    """
    from repro.service.frontend import QueryService

    with use_registry() as registry:
        service = QueryService(run_dir, window_days=window,
                               step_days=step, cache_frames=cache_frames)
        document = service.query(since=since)
    inputs = {"run_dir": str(run_dir), "since": since,
              "window": service.window_days, "step": service.step_days}
    report = RunReport.build("query", inputs, registry,
                             {"window_query": document["windows"],
                              "stats": service.stats()})
    return QueryResult(document=document, report=report)


def serve(run_dir: str, *, host: str = "127.0.0.1", port: int = 0,
          window: Optional[float] = None, step: Optional[float] = None,
          cache_frames: Optional[int] = None, daemon=None):
    """Start a :class:`~repro.service.frontend.ServiceServer`.

    Returns the started server (bind address in ``server.address``);
    callers own the serve loop — ``server.serve_forever()`` for a
    foreground CLI, ``server.shutdown()`` (or a ``shutdown`` command
    on the wire) to stop.  ``daemon`` attaches a live
    :class:`CampaignDaemon` whose final checkpoint is flushed on
    graceful shutdown.
    """
    from repro.service.frontend import QueryService, ServiceServer

    service = QueryService(run_dir, window_days=window, step_days=step,
                           cache_frames=cache_frames)
    return ServiceServer(service, host=host, port=port,
                         daemon=daemon).start()


__all__ = [
    "AmplificationConfig",
    "AmplificationResult",
    "AnalyzeConfig",
    "AnalyzeResult",
    "CampaignResult",
    "CollectConfig",
    "CollectResult",
    "EcosystemConfig",
    "EcosystemResult",
    "ExperimentConfig",
    "MetricsRegistry",
    "QueryResult",
    "RunReport",
    "StudyResult",
    "TelescopeConfig",
    "TelescopeResult",
    "WorldResult",
    "amplification",
    "analyze",
    "build_world",
    "collect",
    "ecosystem",
    "query_window",
    "resume",
    "resume_campaign",
    "run_campaign",
    "serve",
    "study",
    "study_tables",
    "telescope",
]
