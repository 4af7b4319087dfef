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
    study.experiment.table1()                  # full result object

Parallel execution is owned by :class:`ExecutionContext`: a context
holds one persistent ``spawn`` worker pool plus its pickle-once
snapshot cache, shared by every ``study``/``study_tables``/``analyze``
/``resume`` call that passes ``ctx=``::

    with api.ExecutionContext(workers=4) as ctx:
        study = api.study(config, ctx=ctx)          # ships world once
        tables = api.study_tables(study.experiment, ctx=ctx)
        again = api.study(config, ctx=ctx)          # reuses the pool

Entry points called with bare ``workers=`` (or a config whose
``parallel_workers``/``workers`` field is positive) delegate to an
implicit default context of that width, kept alive for the process and
closed at interpreter exit — the backward-compatible face of the same
machinery.
"""

from __future__ import annotations

import atexit
from collections import Counter as TallyCounter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import devicetypes
from repro.analysis.parallel import run_analysis
from repro.core.actors import NtpSourcingActor, covert_profile, research_profile
from repro.core.attribution import AttributionReport, attribute_events
from repro.core.campaign import CampaignConfig, CampaignReport, CollectionCampaign
from repro.core.detection import ActorDetector, ActorVerdict
from repro.core.ecosystem import ScannerPopulation, ScenarioConfig, leak_scenario
from repro.core.pipeline import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.telescope import Telescope
from repro.net.clock import DAY, HOUR, EventScheduler
from repro.obs import MetricsRegistry, RunReport, use_registry
from repro.runtime.pool import WorkerPool, resolve_workers
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world.population import World, WorldConfig
from repro.world.population import build_world as _build_world


# -- execution contexts ------------------------------------------------------

class ExecutionContext:
    """Owner of one persistent worker pool and its snapshot cache.

    ``workers=0`` is a valid, fully sequential context (its
    :attr:`pool` is ``None``), so callers can thread one ``ctx``
    through a pipeline unconditionally.  ``workers >= 1`` lazily spawns
    a :class:`~repro.runtime.pool.WorkerPool` of that width (validated
    and CPU-capped by the same :func:`~repro.runtime.pool.
    resolve_workers` path every other worker knob uses) on first use
    and keeps it — and its pickle-once world/results snapshot cache —
    across every ``study``/``study_tables``/``analyze``/``resume``
    call until :meth:`close`.

    Use as a context manager::

        with api.ExecutionContext(workers=4) as ctx:
            first = api.study(config, ctx=ctx)
            tables = api.study_tables(first.experiment, ctx=ctx)
    """

    def __init__(self, workers: int = 0, *,
                 start_method: Optional[str] = None) -> None:
        self.workers = resolve_workers(workers)
        self.start_method = start_method
        self._pool: Optional[WorkerPool] = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The context's persistent pool (``None`` when sequential).

        A pool whose workers died is replaced transparently — the
        :class:`WorkerPool` itself respawns after a break, so the same
        instance normally lives for the context's whole lifetime.
        """
        if self._closed:
            raise RuntimeError(
                "ExecutionContext is closed; create a new one to run "
                "more work")
        if self.workers < 1:
            return None
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(self.workers,
                                    start_method=self.start_method)
        return self._pool

    def stats(self) -> dict:
        """The pool's lifetime counters (spawn generations, batches,
        snapshot ship/reuse tallies); empty before first pooled use."""
        return dict(self._pool.stats) if self._pool is not None else {}

    def close(self) -> None:
        """Join the workers and drop the snapshot cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Implicit contexts backing bare ``workers=`` calls, one per distinct
#: (width, start method).  Persistent on purpose — that is what makes
#: repeated ``api.study(config)`` calls amortize worker spawn — and
#: closed at interpreter exit (tests close them between cases via
#: :func:`shutdown_default_contexts` in the conftest leak guard).
_DEFAULT_CONTEXTS: Dict[tuple, ExecutionContext] = {}


def _default_context(workers: int,
                     start_method: Optional[str] = None) -> ExecutionContext:
    key = (workers, start_method)
    ctx = _DEFAULT_CONTEXTS.get(key)
    if ctx is None or ctx.closed:
        ctx = ExecutionContext(workers, start_method=start_method)
        _DEFAULT_CONTEXTS[key] = ctx
    return ctx


def shutdown_default_contexts() -> None:
    """Close every implicit default :class:`ExecutionContext`.

    Registered ``atexit``; test harnesses with child-process leak
    guards call it explicitly so sanctioned persistent workers are
    joined before the guard counts leftovers.
    """
    while _DEFAULT_CONTEXTS:
        _, ctx = _DEFAULT_CONTEXTS.popitem()
        ctx.close()


atexit.register(shutdown_default_contexts)


def _context_pool(ctx: Optional[ExecutionContext],
                  workers: int) -> Optional[WorkerPool]:
    """The pool a call should run on: the explicit context's, or an
    implicit default context's for bare ``workers=`` calls."""
    if ctx is not None:
        return ctx.pool
    workers = resolve_workers(workers)
    if workers < 1:
        return None
    return _default_context(workers).pool


# -- configs ----------------------------------------------------------------

@dataclass
class CollectConfig:
    """Inputs of a standalone collection campaign run."""

    world: WorldConfig = field(default_factory=WorldConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)


@dataclass
class TelescopeConfig:
    """Inputs of a Section-5 telescope + actor-detection run."""

    world: WorldConfig = field(default_factory=WorldConfig)
    #: Daily telescope sweeps over the pool.
    sweep_days: int = 6
    #: Extra days for slow (covert) actors to fire their delayed scans.
    settle_days: int = 4
    #: Pool zones the overt research actor deploys servers into.
    research_zones: Tuple[str, ...] = ("us", "de", "jp")
    #: Pool zones the covert cloud actor deploys servers into.
    covert_zones: Tuple[str, ...] = ("us", "nl")

    def __post_init__(self) -> None:
        if self.sweep_days < 1:
            raise ValueError(
                f"sweep_days={self.sweep_days}: must be >= 1")
        if self.settle_days < 0:
            raise ValueError(
                f"settle_days={self.settle_days}: must be >= 0")


@dataclass
class EcosystemConfig:
    """Inputs of a mixed-population telescope + attribution run.

    Builds on :class:`TelescopeConfig`'s wiring (the same two
    NTP-sourcing actors and daily sweeps) and adds the five-strategy
    leak population plus the attribution layer.  ``workers`` pools the
    feature extraction exactly like :class:`AnalyzeConfig.workers`;
    ``window_days`` additionally emits rolling attribution windows
    through the service reader.
    """

    world: WorldConfig = field(default_factory=WorldConfig)
    #: Daily telescope sweeps over the pool.
    sweep_days: int = 4
    #: Extra days for slow (covert) actors to fire their delayed scans.
    settle_days: int = 2
    #: Pool zones the overt research actor deploys servers into.
    research_zones: Tuple[str, ...] = ("us", "de", "jp")
    #: Pool zones the covert cloud actor deploys servers into.
    covert_zones: Tuple[str, ...] = ("us", "nl")
    #: The leak population's knobs (target counts, per-actor seeds).
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    #: Attribution extraction pool size (0 = inline, byte-identical).
    workers: int = 0
    #: Rolling attribution windows (simulated days); None disables.
    window_days: Optional[float] = None
    step_days: Optional[float] = None

    def __post_init__(self) -> None:
        self.workers = resolve_workers(self.workers)
        if self.sweep_days < 1:
            raise ValueError(
                f"sweep_days={self.sweep_days}: must be >= 1")
        if self.settle_days < 0:
            raise ValueError(
                f"settle_days={self.settle_days}: must be >= 0")
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
    module (mode-6 readvar + mode-7 monlist).  ``workers`` selects the
    parallel sharded engine; the amplification table is byte-identical
    at any worker count.
    """

    #: Pool servers deployed (and scanned).
    servers: int = 96
    seed: int = 20240720
    #: Largest pre-seeded recent-client table per server.
    max_entries: int = 48
    #: Scan worker processes (0 = in-process sequential engine).
    workers: int = 0
    #: Shard count of the sharded scan engine.
    shards: int = 4

    def __post_init__(self) -> None:
        self.workers = resolve_workers(self.workers)
        if self.servers < 1:
            raise ValueError(f"servers={self.servers}: must be >= 1")
        if self.max_entries < 0:
            raise ValueError(
                f"max_entries={self.max_entries}: must be >= 0")
        if self.shards < 1:
            raise ValueError(f"shards={self.shards}: must be >= 1")


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
    #: Analysis worker-pool size; 0 runs the jobs inline, ``N >= 1``
    #: uses an N-process pool (CPU-capped).  Either way the report is
    #: byte-identical modulo the ``parallel_analysis`` wall-clock
    #: table, which only appears when the pool engages.
    workers: int = 0
    #: Windowed mode (``analyze --since/--window/--step``): setting
    #: ``window`` switches the run-store path to rolling
    #: :mod:`repro.service.query` tables.  All three are simulated
    #: DAYS; ``since``/``step`` default to 0 / the window span.
    since: Optional[float] = None
    window: Optional[float] = None
    step: Optional[float] = None

    def __post_init__(self) -> None:
        # Same validation/cap path as ExperimentConfig.parallel_workers
        # and the CLI --workers flags.
        self.workers = resolve_workers(self.workers)
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


def study(config: Optional[ExperimentConfig] = None, *,
          ctx: Optional[ExecutionContext] = None) -> StudyResult:
    """Run the full study pipeline (collection + both scan paths).

    Set ``config.store_dir`` to stream the run into a durable
    :mod:`repro.store` directory that :func:`resume` can continue.

    With ``config.parallel_workers > 0`` the batch scans and the
    analysis fan-out run on ``ctx``'s persistent pool (an implicit
    process-wide default context when ``ctx`` is omitted): repeated
    studies against one world reuse spawned workers and ship the
    world snapshot once per (world, pool) pair.
    """
    config = config or ExperimentConfig()
    pool = _context_pool(ctx, config.parallel_workers)
    result = run_experiment(config, pool=pool)
    with use_registry(result.metrics):
        tables = study_tables(result, workers=config.parallel_workers,
                              ctx=ctx)
    report = RunReport.build("study", asdict(config), result.metrics, tables)
    return StudyResult(experiment=result, report=report)


def resume(run_dir: str, *,
           ctx: Optional[ExecutionContext] = None) -> StudyResult:
    """Continue an interrupted store-backed study to completion.

    Reads the run directory's stored config, replays the surviving WAL
    deterministically (every regenerated record is verified against the
    log), then continues the study live from the exact record where the
    crash cut it off.  The returned report is identical to an
    uninterrupted run's, modulo the ``store_*`` recovery metrics.
    """
    from repro.core.pipeline import experiment_config_from_document
    from repro.service.config import is_service_document
    from repro.store import RunStore

    store = RunStore.open(run_dir)
    if is_service_document(store.meta.get("config", {})):
        raise ValueError(
            f"run_dir={run_dir}: holds a service campaign, not a batch "
            "study; use api.resume_campaign() instead")
    config = experiment_config_from_document(store.meta["config"],
                                             store_dir=str(run_dir))
    pool = _context_pool(ctx, config.parallel_workers)
    result = run_experiment(config, resume=True, pool=pool)
    with use_registry(result.metrics):
        tables = study_tables(result, workers=config.parallel_workers,
                              ctx=ctx)
    report = RunReport.build("study", asdict(config), result.metrics, tables)
    return StudyResult(experiment=result, report=report)


def study_tables(result: ExperimentResult, *, workers: int = 0,
                 ctx: Optional[ExecutionContext] = None) -> dict:
    """The headline tables of one experiment, as JSON-shaped rows.

    ``workers >= 1`` (or a parallel ``ctx``) fans the independent
    analyses across a worker pool via
    :func:`repro.analysis.parallel.run_analysis`; every table stays
    byte-identical to the sequential path, and the pool's wall-clock
    observability lands in a ``parallel_analysis`` table that
    deterministic-parity checks strip.  Both campaign sides' results
    ship to the pool once per (results, pool) pair, so re-tabulating
    on a shared ``ctx`` skips the serialization pass.
    """
    table1 = result.table1()
    protocols = result.config.protocols or PROTOCOLS
    pool = _context_pool(ctx, workers)
    bundle = run_analysis(result.ntp_scan, result.hitlist_scan,
                          asdb=result.world.asdb, pool=pool)
    ntp_gap, hitlist_gap = bundle.security_gap()
    table3 = bundle.table3
    findings = devicetypes.new_or_underrepresented(table3)
    tables: dict = {}
    if result.parallel is not None:
        # Wall-clock observability of the worker pool.  Kept out of the
        # metrics registry (which records simulated time only) and in
        # its own table so deterministic-parity checks can strip it.
        tables["parallel"] = result.parallel
    if pool is not None:
        # Same rule for the analysis pool's timings.
        tables["parallel_analysis"] = bundle.timing
    tables.update({
        "table1": [
            {"label": s.label, "addresses": s.address_count,
             "net48s": s.net48_count, "ases": s.as_count,
             "median_ips_per_48": s.median_ips_per_48,
             "median_ips_per_as": s.median_ips_per_as}
            for s in table1.summaries
        ],
        "table2": [
            {"protocol": protocol,
             "ntp_responsive":
                 len(result.ntp_scan.responsive_addresses(protocol)),
             "hitlist_responsive":
                 len(result.hitlist_scan.responsive_addresses(protocol))}
            for protocol in protocols
        ],
        "hit_rates": {
            "ntp": result.ntp_scan.hit_rate(),
            "hitlist": result.hitlist_scan.hit_rate(),
        },
        "security": {
            "ntp": {"secure_share": ntp_gap.secure_share,
                    "total": ntp_gap.total},
            "hitlist": {"secure_share": hitlist_gap.secure_share,
                        "total": hitlist_gap.total},
        },
        "device_gap": {
            "groups": len(findings),
            "devices": sum(count for count, _ in findings.values()),
        },
        "keyreuse": {
            side: {"reused_keys": report.reused_key_count,
                   "reused_addresses": report.total_reused_addresses}
            for side, report in bundle.keyreuse.items()
        },
    })
    return tables


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
        research_as = next(s for s in world.asdb.systems
                           if s.category == "Educational/Research")
        clouds = [s for s in world.asdb.systems
                  if s.name.startswith("HyperCloud")]
        NtpSourcingActor(
            world, campaign.pool, scheduler, research_profile("GT"),
            server_base=world.allocate_prefix64(clouds[0].number),
            scanner_base=world.allocate_prefix64(research_as.number),
            zones=list(config.research_zones), seed=1)
        NtpSourcingActor(
            world, campaign.pool, scheduler, covert_profile("covert"),
            server_base=world.allocate_prefix64(clouds[1].number),
            scanner_base=world.allocate_prefix64(clouds[2].number),
            zones=list(config.covert_zones), seed=2)
        scope = Telescope(world.network)
        for _ in range(config.sweep_days):
            scope.sweep(campaign.pool)
            scheduler.run_until(world.clock.now() + DAY)
        scheduler.run_until(world.clock.now() + config.settle_days * DAY)

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


def ecosystem(config: Optional[EcosystemConfig] = None, *,
              ctx: Optional[ExecutionContext] = None) -> EcosystemResult:
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
        research_as = next(s for s in world.asdb.systems
                           if s.category == "Educational/Research")
        clouds = [s for s in world.asdb.systems
                  if s.name.startswith("HyperCloud")]
        overt = NtpSourcingActor(
            world, campaign.pool, scheduler, research_profile("GT"),
            server_base=world.allocate_prefix64(clouds[0].number),
            scanner_base=world.allocate_prefix64(research_as.number),
            zones=list(config.research_zones), seed=1)
        covert = NtpSourcingActor(
            world, campaign.pool, scheduler, covert_profile("covert"),
            server_base=world.allocate_prefix64(clouds[1].number),
            scanner_base=world.allocate_prefix64(clouds[2].number),
            zones=list(config.covert_zones), seed=2)
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
                      scope.prefix48, sources=sources,
                      config=config.scenario, start=10 * MINUTE,
                      population=population)

        for _ in range(config.sweep_days):
            scope.sweep(campaign.pool)
            scheduler.run_until(world.clock.now() + DAY)
        scheduler.run_until(world.clock.now() + config.settle_days * DAY)

        detector = ActorDetector(
            scope, world.asdb, rdns=world.rdns,
            operator_of_server=lambda a: campaign.pool.server(a).operator)
        verdicts = detector.report()

        pool = _context_pool(ctx, config.workers)
        attribution, timing = attribute_events(
            scope.events, truth=population.ground_truth(),
            rdns=world.rdns, pool=pool)

        windows = None
        if config.window_days is not None:
            reader = WindowedAttributionReader(
                scope.events, truth=population.ground_truth(),
                rdns=world.rdns, pool=pool)
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
    if timing is not None:
        tables["parallel_attribution"] = timing
    report = RunReport.build("ecosystem", asdict(config), registry, tables)
    return EcosystemResult(telescope=scope, population=population,
                           attribution=attribution, verdicts=verdicts,
                           report=report)


#: The amplification study's address plan: servers in consecutive
#: subnets of a documentation /48, the scanner outside them.
_AMPLIFICATION_PREFIX48 = 0x2001_0DB8_00AA << 80
_AMPLIFICATION_SCANNER = _AMPLIFICATION_PREFIX48 + (0xFFFF << 64) + 0x5CA7


def amplification(config: Optional[AmplificationConfig] = None, *,
                  ctx: Optional[ExecutionContext] = None
                  ) -> AmplificationResult:
    """Run the monlist amplification study (the Fig 2/3-style tables).

    Deploys ``config.servers`` profiled pool members as picklable
    :class:`~repro.ntp.service.NtpControlService` hosts on a lean
    loss-free network, scans them with the ``ntp`` probe module through
    the sharded engine (parallel when ``config.workers >= 1``), and
    folds the grabs into the monlist-exposure and amplification-factor
    reports.  The rendered table is byte-identical at any worker count.
    """
    from repro.analysis.amplification import (
        amplification_distribution,
        amplification_table,
        monlist_exposure,
    )
    from repro.net.simnet import Network
    from repro.ntp.service import control_service_for
    from repro.runtime.parallel import ParallelShardedScanEngine
    from repro.runtime.registry import ProbeRegistry
    from repro.runtime.sharding import ShardedScanEngine
    from repro.scan.engine import EngineConfig
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
        engine_config = EngineConfig(drive_clock=False)
        pool = _context_pool(ctx, config.workers)
        if pool is not None:
            engine = ParallelShardedScanEngine(
                network, _AMPLIFICATION_SCANNER, engine_config,
                registry=probes, shards=config.shards, pool=pool,
                name="amplification")
        else:
            engine = ShardedScanEngine(
                network, _AMPLIFICATION_SCANNER, engine_config,
                registry=probes, shards=config.shards,
                name="amplification")
        results = engine.run(addresses, label="amplification")
        exposure = monlist_exposure("pool", results)
        distribution = amplification_distribution("pool", results)
        table = amplification_table(exposure, distribution)

    tables: dict = {
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
    if pool is not None and getattr(engine, "last_run_timing", None):
        tables["parallel"] = engine.last_run_timing
    report = RunReport.build("amplification", asdict(config), registry,
                             tables)
    return AmplificationResult(results=results, exposure=exposure,
                               distribution=distribution, table=table,
                               report=report)


def analyze(config: AnalyzeConfig, *,
            ctx: Optional[ExecutionContext] = None) -> AnalyzeResult:
    """Re-run the analyses over saved scan results or a run store.

    ``config.workers`` (or a parallel ``ctx``) selects the worker pool
    exactly like :func:`study_tables`.
    """
    from repro.io import load_results

    if config.window is not None:
        return _analyze_windowed(config, ctx=ctx)
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
        pool = _context_pool(ctx, config.workers)
        bundle = run_analysis(ntp_scan, hitlist_scan, pool=pool)

    table3 = bundle.table3
    ntp_gap, hitlist_gap = bundle.security_gap()
    tables = {
        "device_types": [
            {"group": group.representative, "ntp_certs": group.count,
             "hitlist_certs":
                 table3.http_group_count("hitlist", group.representative)}
            for group in table3.http_ntp[:8]
        ],
        "security": {
            "ntp": {"secure_share": ntp_gap.secure_share,
                    "total": ntp_gap.total},
            "hitlist": {"secure_share": hitlist_gap.secure_share,
                        "total": hitlist_gap.total},
        },
    }
    if pool is not None:
        tables["parallel_analysis"] = bundle.timing
    report = RunReport.build("analyze", asdict(config), registry, tables)
    return AnalyzeResult(ntp_scan=ntp_scan, hitlist_scan=hitlist_scan,
                         report=report)


def _analyze_windowed(config: AnalyzeConfig, *,
                      ctx: Optional[ExecutionContext]) -> AnalyzeResult:
    """``analyze --window``: rolling service tables over a run store.

    The scan fields of the result are empty placeholders — a windowed
    analysis produces per-window tables, not one merged result set.
    """
    from repro.service.frontend import QueryService

    with use_registry() as registry:
        service = QueryService(config.run_dir,
                               window_days=config.window,
                               step_days=config.step, ctx=ctx)
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
                 cache_frames: Optional[int] = None,
                 ctx: Optional[ExecutionContext] = None) -> QueryResult:
    """One rolling windowed query against a run store (spans in days).

    ``window``/``step`` default to the store's recorded service
    defaults (7/7 for batch-study stores); results come from bounded
    checkpoint-anchored replay, never a full-WAL scan.
    """
    from repro.service.frontend import QueryService

    with use_registry() as registry:
        service = QueryService(run_dir, window_days=window,
                               step_days=step, cache_frames=cache_frames,
                               ctx=ctx)
        document = service.query(since=since)
    inputs = {"run_dir": str(run_dir), "since": since,
              "window": service.window_days, "step": service.step_days}
    report = RunReport.build("query", inputs, registry,
                             {"window_query": document["windows"],
                              "stats": service.stats()})
    return QueryResult(document=document, report=report)


def serve(run_dir: str, *, host: str = "127.0.0.1", port: int = 0,
          window: Optional[float] = None, step: Optional[float] = None,
          cache_frames: Optional[int] = None,
          ctx: Optional[ExecutionContext] = None, daemon=None):
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
                           cache_frames=cache_frames, ctx=ctx)
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
    "ExecutionContext",
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
    "shutdown_default_contexts",
    "study",
    "study_tables",
    "telescope",
]
