"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload drives the public :mod:`repro.api` entry points, always
sequentially (``workers=0``):

* ``study`` — one ``api.study`` on the small-study timeline, from world
  build to tables.  Pool resolution and probe dispatch dominate it; it
  never touches the store or the service.
* ``campaign`` — one fresh store-backed ``api.run_campaign`` to its
  horizon, then ``api.resume_campaign`` on a copy of a store that
  set-up crashed mid-campaign: the store's write path and its
  verify-replay.
* ``replay`` — ``api.analyze`` over a store built at set-up by the code
  under test, one cold rolling-window query on a fresh ``QueryService``,
  and a closed loop of warm queries sent to a ``repro serve`` process:
  the store's read path, with no pool resolution and no probing.

Every seed a workload uses (world, campaign, hitlist, scan, drift) is
derived from its one seed argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.io.jsonl import grab_from_json
from repro.net.clock import DAY
from repro.scan.result import ScanResults
from repro.service import ServiceConfig, window_document
from repro.service.frontend import query_server
from repro.store import RunStore, WalReader, fault_injection, latest_checkpoint
from repro.world.hitlist import HitlistConfig
from repro.world.population import WorldConfig

ROOT = Path(__file__).resolve().parent.parent

#: The small-study timeline (``benchmarks/bench_pipeline._small_study``).
STUDY_SCALE = 0.1
#: The service-campaign shape of ``benchmarks/bench_service.py`` (its
#: default hitlist, checkpoints every 3 days, sweeps every 4) at half
#: its length and a smaller world: 4 days instead of 8, scale 0.02
#: instead of 0.05.  Hitlist grabs are still 4 of every 5 WAL records
#: (35k records for seed 1; 70k over 8 days), and a campaign plus its
#: resume takes about 3 s on a two-core host, so a run times several;
#: over 8 days it took 8-15 s, one or two per run, too few for a steady
#: median on a host whose speed drifts.
SERVICE_SCALE = 0.02
CAMPAIGN_DAYS = 4
CHECKPOINT_DAYS = 3
HITLIST_DAYS = 4
#: Segment size of the service test suite.  Every warm query re-reads
#: the segment holding the final checkpoint, up to it, through
#: ``horizon()``: from a few records to over 400, by seed, for a serve
#: p50 of 2 to 17 ms on seeds 1-10.
SEGMENT_RECORDS = 512
#: The set-up crash lands this many appends past the first checkpoint,
#: inside the first hitlist sweep.
CRASH_AFTER_CHECKPOINT = 5000
#: Rolling-window query shape: the 4-day windows every 2 days of the
#: 8-day shape, halved with the campaign (3 windows).
WINDOW_DAYS = 2
STEP_DAYS = 1
#: Closed-loop serve load: one client per core, each waiting for its
#: reply before sending the next query.  The burst is short, so that
#: the seed-dependent tail above moves replay's iteration time by a few
#: percent; with 30 queries per client it moved it by up to 25%.
SERVE_CLIENTS = 2
SERVE_QUERIES_PER_CLIENT = 10


class CheckFailed(Exception):
    """An operation's output failed its check."""


class SimulatedCrash(BaseException):
    """Raised from the fault hook; a BaseException so no handler eats it."""


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def derive_seeds(seed: int) -> Dict[str, int]:
    """Every seed a workload uses, derived from the one seed argument."""
    rng = random.Random(f"perfbench/{seed}")
    return {name: rng.getrandbits(32)
            for name in ("world", "campaign", "hitlist", "scan", "drift")}


def study_config(seed: int) -> ExperimentConfig:
    seeds = derive_seeds(seed)
    return ExperimentConfig(
        world=WorldConfig(seed=seeds["world"], scale=STUDY_SCALE),
        campaign=CampaignConfig(days=14, wire_fraction=0.02,
                                seed=seeds["campaign"]),
        hitlist=HitlistConfig(seed=seeds["hitlist"]),
        rl_days=3, gap_days=3, lead_days=10, final_days=4,
        scan_seed=seeds["scan"],
    )


def service_config(seed: int, store_dir: Path) -> ServiceConfig:
    seeds = derive_seeds(seed)
    return ServiceConfig(
        world=WorldConfig(seed=seeds["world"], scale=SERVICE_SCALE),
        campaign=CampaignConfig(days=10 ** 9, wire_fraction=0.0,
                                seed=seeds["campaign"]),
        hitlist=HitlistConfig(seed=seeds["hitlist"]),
        store_dir=str(store_dir),
        campaign_days=CAMPAIGN_DAYS,
        checkpoint_days=CHECKPOINT_DAYS,
        hitlist_days=HITLIST_DAYS,
        scan_seed=seeds["scan"],
        drift_seed=seeds["drift"],
        segment_max_records=SEGMENT_RECORDS,
    )


class Iteration:
    """One iteration's operations: timings, attempts and failures."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Serve latencies (seconds), one per reply received.
        self.latencies: List[float] = []
        #: Values the traced run reports beside its accumulators.
        self.notes: Dict[str, float] = {}
        #: Wall seconds to reference seconds (see ``calibration.py``).
        self.scale = 1.0

    def op(self, name: str, fn, check=None):
        """Run and time one operation; its result, or None if it failed.

        ``check(result)`` raises :class:`CheckFailed` when the output is
        wrong; the operation then counts as failed.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.traced(name):
                result = fn()
            self.seconds[name] = time.perf_counter() - start
            if check is not None:
                check(result)
        except Exception as error:  # noqa: BLE001 — counted as failed
            self.failed += 1
            self.errors.append(f"{name}: {type(error).__name__}: {error}")
            return None
        return result

    def traced(self, name: str):
        """The tracer's operation context (a no-op when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(name)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Base class: ``prepare`` runs in a fresh set-up process, the rest
    in the measuring process."""

    name = ""
    #: The operations whose wall times sum to one iteration.
    operations: tuple = ()

    def __init__(self, seed: int, inputs: Path, work: Path) -> None:
        self.seed = seed
        self.inputs = inputs
        self.work = work
        #: Canonical JSON of the deterministic outputs, set by the first
        #: iteration; later iterations must reproduce it byte for byte.
        self.reference: Dict[str, str] = {}

    @classmethod
    def prepare(cls, seed: int, directory: Path) -> None:
        """Build the workload's inputs (set-up; timed as ``setup_s``)."""

    def start(self) -> None:
        """Per-run preparation outside any timing."""

    def stop(self) -> None:
        """Stop whatever :meth:`start` started."""

    def iteration(self, it: Iteration, index: int) -> None:
        raise NotImplementedError

    def same_as_first(self, key: str, text: str) -> None:
        expected = self.reference.setdefault(key, text)
        expect(text == expected, f"{key} differs from the first iteration")

    def digest(self) -> str:
        return hashlib.sha256(canonical(self.reference).encode()).hexdigest()


class StudyWorkload(Workload):
    name = "study"
    operations = ("study",)

    def start(self) -> None:
        self.config = study_config(self.seed)

    def iteration(self, it: Iteration, index: int) -> None:
        def check(result) -> None:
            tables = result.report.tables
            rows = {row["label"]: row for row in tables["table1"]}
            expect(rows["ntp"]["addresses"] > 0, "no sourced addresses")
            expect(rows["hitlist-full"]["addresses"] > 0, "empty hitlist")
            for side, rate in tables["hit_rates"].items():
                expect(0.0 < rate < 1.0, f"{side} hit rate {rate}")
            self.same_as_first("study", canonical(tables))

        it.op("study", lambda: api.study(self.config), check)


def _crash_mid_campaign(config: ServiceConfig) -> None:
    """Run ``config``'s campaign until the fault hook kills it."""
    state = {"checkpoints": 0, "appends": 0}

    def hook(point: str, seq: int, acked: int) -> None:
        if point == "checkpoint":
            state["checkpoints"] += 1
        elif point == "post-append" and state["checkpoints"]:
            state["appends"] += 1
            if state["appends"] >= CRASH_AFTER_CHECKPOINT:
                raise SimulatedCrash()

    with fault_injection(hook):
        try:
            api.run_campaign(config)
        except SimulatedCrash:
            return
    raise RuntimeError("the campaign finished before the set-up crash")


def _table_view(tables: dict) -> dict:
    """Campaign tables without the run directory (the one allowed delta)."""
    view = json.loads(json.dumps(tables))
    view["store"].pop("run_dir")
    return view


class CampaignWorkload(Workload):
    name = "campaign"
    operations = ("campaign", "resume")

    @classmethod
    def prepare(cls, seed: int, directory: Path) -> None:
        _crash_mid_campaign(service_config(seed, directory / "crashed"))

    def iteration(self, it: Iteration, index: int) -> None:
        scratch = self.work / f"iteration-{index}"
        fresh, resumed = scratch / "fresh", scratch / "resumed"
        shutil.copytree(self.inputs / "crashed", resumed)
        outcome = {}

        def check_campaign(result) -> None:
            view = _table_view(result.report.tables)
            expect(view["campaign"]["addresses"] > 0, "nothing sourced")
            self.same_as_first("campaign", canonical(view))
            outcome["view"] = view
            outcome["checkpoint"] = latest_checkpoint(fresh / "checkpoints")

        def check_resume(result) -> None:
            expect("view" in outcome, "no uninterrupted run to compare")
            expect(_table_view(result.report.tables) == outcome["view"],
                   "resumed tables differ from the uninterrupted run")
            verify = RunStore.open(resumed).verify()
            expect(verify["ok"], f"verify: {verify['problems'][:3]}")
            expect(verify["cooldown_violations"] == 0, "cooldown violated")
            ours = latest_checkpoint(resumed / "checkpoints")
            theirs = outcome["checkpoint"]
            expect(verify["last_seq"] == theirs.seq == ours.seq,
                   f"last seq {verify['last_seq']} != {theirs.seq}")
            expect(ours.chain == theirs.chain, "chain CRC differs")

        it.op("campaign", lambda: api.run_campaign(
            service_config(self.seed, fresh)), check_campaign)
        it.op("resume", lambda: api.resume_campaign(str(resumed)),
              check_resume)
        if "checkpoint" in outcome:
            inspect = RunStore.open(fresh).inspect()
            it.notes["store.bytes_on_disk"] = inspect["wal_bytes"]
            it.notes["store.records_on_disk"] = outcome["checkpoint"].seq
        shutil.rmtree(scratch)


def full_replay_documents(run_dir: Path, spans) -> List[dict]:
    """Every ``[t0, t1)`` window of ``spans`` by one from-genesis fold.

    Re-implements only the record selection rules, never the tables
    (both sides share ``window_document``), as the service's own golden
    tests do: the bounded replay agrees exactly when anchors, mark
    bracketing and the early stop are all correct.
    """
    folds = [{"results": {}, "baseline": {}, "end": {}, "sightings": 0,
              "addresses": set()} for _ in spans]
    for record in WalReader(Path(run_dir) / "wal").records():
        kind = record.get("t")
        if kind == "grab":
            grab = grab_from_json(record)
            for (t0, t1), fold in zip(spans, folds):
                if t0 <= grab.time < t1:
                    label = record["label"]
                    results = fold["results"].setdefault(
                        label, ScanResults(label=label))
                    results.bucket(grab.protocol).append(grab)
        elif kind == "sighting":
            for (t0, t1), fold in zip(spans, folds):
                if t0 <= record["time"] < t1:
                    fold["sightings"] += 1
                    fold["addresses"].add(record["addr"])
        elif kind == "mark":
            for (t0, t1), fold in zip(spans, folds):
                if record["clock"] <= t0 + 1e-9:
                    fold["baseline"].update(record["targets"])
                if record["clock"] <= t1 + 1e-9:
                    fold["end"].update(record["targets"])
    return [window_document(fold["results"], start=t0, end=t1,
                            targets_start=fold["baseline"],
                            targets_end=fold["end"],
                            sightings=fold["sightings"],
                            addresses=len(fold["addresses"]))
            for (t0, t1), fold in zip(spans, folds)]


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServeProcess:
    """A ``repro serve`` front end in its own process."""

    def __init__(self, run_dir: Path, log_path: Path) -> None:
        self.address = ("127.0.0.1", _free_port())
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(run_dir),
             "--window", str(WINDOW_DAYS), "--step", str(STEP_DAYS),
             "--port", str(self.address[1])],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                socket.create_connection(self.address, timeout=1.0).close()
                return
            except OSError:
                if (self.process.poll() is not None
                        or time.monotonic() > deadline):
                    self.stop()
                    raise RuntimeError(
                        f"repro serve did not start (see {log_path})")
                time.sleep(0.05)

    def stats(self) -> dict:
        reply = query_server(self.address, {"cmd": "stats"})
        if not reply.get("ok"):
            raise RuntimeError(f"stats: {reply}")
        return reply

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                query_server(self.address, {"cmd": "shutdown"}, timeout=10.0)
            except OSError:
                pass
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15.0)
        self._log.close()


def closed_loop(address, request: bytes, clients: int,
                per_client: int) -> tuple:
    """``clients`` connections, each sending its next query only after
    the reply to the previous one.  Returns (latencies, replies,
    errors): seconds per reply, reply line -> count, error messages."""
    latencies: List[float] = []
    replies: Dict[bytes, int] = {}
    errors: List[str] = []
    lock = threading.Lock()

    def client() -> None:
        mine, seen = [], {}
        try:
            with socket.create_connection(address, timeout=30.0) as conn:
                reader = conn.makefile("rb")
                for _ in range(per_client):
                    start = time.perf_counter()
                    conn.sendall(request)
                    line = reader.readline()
                    mine.append(time.perf_counter() - start)
                    if not line.endswith(b"\n"):
                        raise ConnectionError("connection closed mid-reply")
                    seen[line] = seen.get(line, 0) + 1
        except OSError as error:
            with lock:
                errors.append(f"{type(error).__name__}: {error}")
        with lock:
            latencies.extend(mine)
            for line, count in seen.items():
                replies[line] = replies.get(line, 0) + count

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        errors.append("a client did not finish within 120 s")
    return latencies, replies, errors


class ReplayWorkload(Workload):
    name = "replay"
    operations = ("analyze", "query_cold", "serve")

    @classmethod
    def prepare(cls, seed: int, directory: Path) -> None:
        api.run_campaign(service_config(seed, directory / "store"))

    def start(self) -> None:
        self.run_dir = self.inputs / "store"
        spans = []
        t0 = 0.0
        while t0 + WINDOW_DAYS <= CAMPAIGN_DAYS:
            spans.append((t0 * DAY, (t0 + WINDOW_DAYS) * DAY))
            t0 += STEP_DAYS
        self.windows = [canonical(document) for document
                        in full_replay_documents(self.run_dir, spans)]
        self.request = (json.dumps({"cmd": "query", "since": 0.0,
                                    "window": WINDOW_DAYS,
                                    "step": STEP_DAYS}) + "\n").encode()
        self.server: Optional[ServeProcess] = ServeProcess(
            self.run_dir, self.work / "serve.log")

    def stop(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def iteration(self, it: Iteration, index: int) -> None:
        run_dir = str(self.run_dir)

        def check_analyze(result) -> None:
            tables = result.report.tables
            expect(tables["device_types"], "no device types")
            for side, gap in tables["security"].items():
                expect(gap["total"] > 0, f"{side}: nothing assessed")
            self.same_as_first("analyze", canonical(tables))

        def check_query(result) -> None:
            windows = [canonical(document)
                       for document in result.document["windows"]]
            expect(windows == self.windows,
                   "cold windows differ from the full-replay fold")
            # The whole document, as every serve reply must repeat it.
            self.same_as_first("query_cold", canonical(result.document))

        it.op("analyze", lambda: api.analyze(api.AnalyzeConfig(
            run_dir=run_dir)), check_analyze)
        query = it.op("query_cold", lambda: api.query_window(
            run_dir, since=0.0, window=WINDOW_DAYS, step=STEP_DAYS),
            check_query)
        expected = None
        if query is not None:
            expected = {"ok": True,
                        **json.loads(json.dumps(query.document))}
        self._serve(it, expected)

    def _serve(self, it: Iteration, expected: Optional[dict]) -> None:
        """The warm closed-loop serve burst: one operation per reply."""
        before = self.server.stats()
        requests = SERVE_CLIENTS * SERVE_QUERIES_PER_CLIENT
        it.attempted += requests
        start = time.perf_counter()
        with it.traced("serve"):
            burst = closed_loop(self.server.address, self.request,
                                SERVE_CLIENTS, SERVE_QUERIES_PER_CLIENT)
        it.seconds["serve"] = time.perf_counter() - start
        latencies, replies, errors = burst
        after = self.server.stats()
        it.latencies.extend(latencies)
        bad = requests - sum(replies.values())
        for line, count in replies.items():
            try:
                reply = json.loads(line)
            except ValueError:
                reply = None
            if reply != expected:
                bad += count
        if bad:
            it.failed += bad
            it.errors.append(f"serve: {bad} of {requests} replies wrong "
                             f"or missing {errors[:1]}")
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        it.notes["service.cache_hits"] = hits
        it.notes["service.cache_lookups"] = hits + misses
        it.notes["service.query_p50_ms"] = after["latency_p50_ms"]


WORKLOADS = {workload.name: workload
             for workload in (StudyWorkload, CampaignWorkload,
                              ReplayWorkload)}
