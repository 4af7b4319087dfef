"""Outside-in tracing of the program's layer boundaries.

The traced run patches the public entry points of each module
(``world``, ``ntp``, ``core``, ``scan``, ``net``, ``store``, ``io``,
``service``, ``analysis``) with wrappers that live here, so nothing
under ``src/`` changes.  Names bound by ``from x import y`` are patched
at the caller (``repro.core.pipeline.build_world``,
``repro.api.run_analysis``, ``repro.runtime.registry.scan_*`` before a
registry is built, ...).

Three kinds of boundary:

* per-call boundaries fold into ``count``/``total``/``self`` seconds
  accumulators, so memory stays bounded however many calls there are;
* coarse boundaries (operation, tick, window, query) additionally
  record a span (name, start, end, parent span, operation id), kept in
  memory and written out when the run ends;
* counting boundaries (the simulated network) only count calls; their
  time stays in the caller's self time.

Self time is a boundary's time minus the time of the timed boundaries
called inside it.  Wrappers only record while an operation is open
(:meth:`Tracer.operation`), so set-up work and output checks never
reach the accumulators.  They draw no random numbers and pass every
argument and result through unchanged.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The simulated probe modules, in the paper's probe order.
PROTOCOLS = ("http", "https", "ssh", "mqtt", "mqtts", "amqp", "amqps", "coap")

#: Self-time boundaries whose sum is each workload's measured hot spot,
#: and the operation whose traced wall time it is a share of (None:
#: the whole iteration).
HOT_SPOTS = {
    "study": (("ntp.resolve", "ntp.wire", "scan.feed", "scan.run")
              + tuple(f"scan.probe.{p}" for p in PROTOCOLS), None),
    "campaign": (("store.append", "store.crc", "store.sync",
                  "store.checkpoint", "io.grab_encode"), "campaign"),
    "replay": (("store.read", "store.crc_verify", "io.grab_decode"),
               "query_cold"),
}


class Tracer:
    """Accumulators, spans and the patches that feed them."""

    def __init__(self) -> None:
        self.active = False
        #: Open timed boundaries, innermost last: [name, child seconds].
        self._stack: List[list] = []
        #: name -> [calls, total seconds, self seconds]
        self._acc: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[dict] = []
        self._open_spans: List[int] = []
        self._op_id = 0
        #: operation name -> accumulated [calls, total, self] deltas.
        self.per_op: Dict[str, Dict[str, list]] = {}
        #: operation name -> traced wall seconds, summed.
        self.op_seconds: Dict[str, float] = {}

    # -- accumulators --------------------------------------------------

    def acc(self, name: str) -> list:
        entry = self._acc.get(name)
        if entry is None:
            entry = self._acc[name] = [0, 0.0, 0.0]
        return entry

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self._acc.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self._acc.get(name, (0, 0.0, 0.0))[2]

    # -- operations ----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A coarse span around a block (an iteration)."""
        span = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span, start, time.perf_counter())

    @contextmanager
    def operation(self, name: str):
        """One operation of an iteration; the only place wrappers record."""
        self._op_id += 1
        before = {key: list(value) for key, value in self._acc.items()}
        self.active = True
        span = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(span, start, end)
            self.active = False
            self.op_seconds[name] = self.op_seconds.get(name, 0.0) + end - start
            deltas = self.per_op.setdefault(name, {})
            for key, value in self._acc.items():
                old = before.get(key, (0, 0.0, 0.0))
                delta = deltas.setdefault(key, [0, 0.0, 0.0])
                for index in range(3):
                    delta[index] += value[index] - old[index]

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans) + 1, "name": name,
                "op": self._op_id if self.active else None,
                "parent": self._open_spans[-1] if self._open_spans else None}
        self.spans.append(span)
        self._open_spans.append(span["id"])
        return span

    def _close(self, span: dict, start: float, end: float) -> None:
        span["start"], span["end"] = start, end
        self._open_spans.pop()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    # -- wrappers ------------------------------------------------------

    def timed(self, fn: Callable, name, *, span: bool = False,
              after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a timed boundary.

        ``name`` is a string, or a function of ``(args, parent name)``
        choosing the accumulator per call.  ``after(result, args)``
        counts outcomes.
        """
        tracer, stack, clock = self, self._stack, time.perf_counter
        fixed = self.acc(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if fixed is None:
                key = name(args, stack[-1][0] if stack else None)
                entry = tracer.acc(key)
            else:
                key, entry = name, fixed
            frame = [key, 0.0]
            stack.append(frame)
            record = tracer._open(key) if span else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if record is not None:
                    tracer._close(record, start, start + elapsed)
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function; each ``next`` is one timed call."""
        tracer, stack, clock = self, self._stack, time.perf_counter
        entry = self.acc(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                return inner

            def steps():
                try:
                    while True:
                        frame = [name, 0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            stack.pop()
                            entry[1] += elapsed
                            entry[2] += elapsed - frame[1]
                            if stack:
                                stack[-1][1] += elapsed
                        entry[0] += 1
                        yield item
                finally:
                    inner.close()

            return steps()

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so calls are counted, not timed."""
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every traced boundary; call once per process."""
        import repro.api
        import repro.core.pipeline
        import repro.io.jsonl
        import repro.runtime.registry
        import repro.service.daemon
        import repro.service.query
        import repro.store.wal
        import repro.store.writer
        from repro.core.campaign import CollectionCampaign
        from repro.core.collector import CollectedDataset
        from repro.core.pipeline import ExperimentResult
        from repro.core.realtime import RealTimeScanQueue
        from repro.net.simnet import Network
        from repro.ntp.client import NtpClient
        from repro.ntp.pool import NtpPool
        from repro.scan.engine import ScanEngine, ScanScheduler
        from repro.service.daemon import CampaignDaemon
        from repro.service.frontend import QueryService
        from repro.service.query import WindowedStudyReader
        from repro.store.runstore import RunStore
        from repro.store.wal import WalReader, WalWriter
        from repro.store.writer import StoreWriter
        from repro.world.churn import ChurnModel

        def patch(owner, attr, make):
            setattr(owner, attr, make(getattr(owner, attr)))

        timed, count = self.timed, self.count

        # world
        for module in (repro.core.pipeline, repro.service.daemon):
            patch(module, "build_world", lambda f: timed(f, "world.build"))
            patch(module, "build_hitlist", lambda f: timed(f, "world.hitlist"))
        patch(ChurnModel, "step_day", lambda f: timed(f, "world.churn"))

        # ntp
        patch(NtpPool, "resolve", lambda f: timed(f, "ntp.resolve"))
        patch(NtpClient, "query", lambda f: timed(f, "ntp.wire"))

        # core
        patch(CollectionCampaign, "advance_days",
              lambda f: timed(f, "core.campaign"))
        patch(CollectedDataset, "record", lambda f: timed(f, "core.record"))
        patch(RealTimeScanQueue, "mark_dropped",
              lambda f: self.counting(f, "core.realtime_dropped"))

        # scan (and proto, through the probe modules)
        def fed(result, args):
            if result:
                count("scan.scanned")

        def admitted(result, args):
            if not result:
                count("scan.cooldown")

        def probed(result, args):
            if result.ok:
                count("scan.probe_ok")

        patch(ScanEngine, "feed", lambda f: timed(f, "scan.feed", after=fed))
        patch(ScanEngine, "run", lambda f: timed(f, "scan.run"))
        patch(ScanScheduler, "admit",
              lambda f: self._after_only(f, admitted))
        for protocol in PROTOCOLS:
            attr = "scan_" + protocol
            patch(repro.runtime.registry, attr,
                  lambda f, p=protocol: timed(f, "scan.probe." + p,
                                              after=probed))

        # net
        patch(Network, "host", lambda f: self.counting(f, "net.host"))
        patch(Network, "tcp_connect", lambda f: self.counting(f, "net.tcp"))
        patch(Network, "udp_request", lambda f: self.counting(f, "net.udp"))

        # store: write path
        def checkpointed(result, args):
            if result is not None:
                count("store.checkpoint_written")

        patch(WalWriter, "append", lambda f: timed(f, "store.append"))
        patch(WalWriter, "sync", self._sync_wrapper)
        patch(StoreWriter, "checkpoint",
              lambda f: timed(f, "store.checkpoint", after=checkpointed))

        def crc_name(args, parent):
            return "store.crc" if parent == "store.append" else "store.crc_verify"

        for module in (repro.store.wal, repro.store.writer):
            patch(module, "record_crc", lambda f: timed(f, crc_name))

        def emit_name(args, parent):
            return ("store.emit_verify" if args[0].mode == "verify"
                    else "store.emit_live")

        patch(StoreWriter, "emit", lambda f: timed(f, emit_name))

        # store: read path
        patch(WalReader, "records",
              lambda f: self.timed_generator(f, "store.read"))
        patch(RunStore, "recover", lambda f: timed(f, "store.recover"))

        # io
        patch(repro.io.jsonl, "grab_to_json",
              lambda f: timed(f, "io.grab_encode"))
        patch(repro.io.jsonl, "grab_from_json",
              lambda f: timed(f, "io.grab_decode"))

        # service
        def built(frame, args):
            count("service.replayed", frame.replayed)

        patch(CampaignDaemon, "tick",
              lambda f: timed(f, "service.tick", span=True))
        patch(WindowedStudyReader, "window",
              lambda f: timed(f, "service.window", span=True, after=built))
        patch(WindowedStudyReader, "horizon",
              lambda f: timed(f, "service.horizon"))
        patch(QueryService, "query",
              lambda f: timed(f, "service.query", span=True))

        # analysis
        patch(repro.api, "run_analysis", lambda f: timed(f, "analysis.run"))
        patch(ExperimentResult, "table1",
              lambda f: timed(f, "analysis.table1"))
        patch(repro.service.query, "window_document",
              lambda f: timed(f, "analysis.window_document"))

    # -- reporting ------------------------------------------------------

    def layer_metrics(self, workload: str, iterations: int,
                      notes: Dict[str, float], overhead: float
                      ) -> Dict[str, float]:
        """Every per-layer metric of ``BENCHMARK.json``, per traced
        iteration: times are self seconds and counts are per iteration,
        unless the name says otherwise.

        ``notes`` are the workload's own per-run sums (bytes on disk,
        the serve process's cache and latency statistics); layers a
        workload bypasses read 0.  ``overhead`` is the traced
        iteration's time over the untraced baseline's, minus one.
        """
        n = float(iterations)
        counts = self.counts

        def each(value: float) -> float:
            return value / n

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        probes = sum(self.calls("scan.probe." + p) for p in PROTOCOLS)
        scanned = counts.get("scan.scanned", 0)
        windows = self.calls("service.window")
        traced_iter_s = sum(self.op_seconds.values()) / n
        metrics = {
            "world.build_s": each(self.self_s("world.build")),
            "world.churn_s": each(self.self_s("world.churn")),
            "world.hitlist_s": each(self.self_s("world.hitlist")),
            "ntp.resolve_calls": each(self.calls("ntp.resolve")),
            "ntp.resolve_s": each(self.self_s("ntp.resolve")),
            "ntp.wire_queries": each(self.calls("ntp.wire")),
            "ntp.wire_s": each(self.self_s("ntp.wire")),
            "core.campaign_self_s": each(self.self_s("core.campaign")),
            "core.record_calls": each(self.calls("core.record")),
            "core.record_self_s": each(self.self_s("core.record")),
            "core.realtime_dropped":
                each(counts.get("core.realtime_dropped", 0)),
            "scan.targets_offered": each(self.calls("scan.feed")),
            "scan.targets_scanned": each(scanned),
            "scan.cooldown_hits": each(counts.get("scan.cooldown", 0)),
            "scan.probes": each(probes),
            "scan.probe_ok_ratio":
                ratio(counts.get("scan.probe_ok", 0), probes),
            "scan.feed_self_s":
                each(self.self_s("scan.feed") + self.self_s("scan.run")),
        }
        for protocol in PROTOCOLS:
            metrics["scan.probe_s." + protocol] = each(
                self.self_s("scan.probe." + protocol))
        host_lookups = counts.get("net.host", 0)
        metrics.update({
            "net.host_lookups": each(host_lookups),
            "net.tcp_connects": each(counts.get("net.tcp", 0)),
            "net.udp_requests": each(counts.get("net.udp", 0)),
            "net.lookups_per_target": ratio(host_lookups, scanned),
            "store.records_appended": each(self.calls("store.append")),
            "store.bytes_per_record":
                ratio(notes.get("store.bytes_on_disk", 0),
                      notes.get("store.records_on_disk", 0)),
            "store.append_self_s": each(self.self_s("store.append")),
            "store.crc_s": each(self.self_s("store.crc")),
            "store.fsyncs": each(counts.get("store.fsync", 0)),
            "store.sync_s": each(self.self_s("store.sync")),
            "store.checkpoints":
                each(counts.get("store.checkpoint_written", 0)),
            "store.checkpoint_s": each(self.self_s("store.checkpoint")),
            "store.records_read": each(self.calls("store.read")),
            "store.read_s": each(self.self_s("store.read")),
            "store.crc_verify_s": each(self.self_s("store.crc_verify")),
            "store.recover_s": each(self.self_s("store.recover")),
            "store.verify_emits": each(self.calls("store.emit_verify")),
            "store.verify_s": each(self.self_s("store.emit_verify")),
            "io.grab_encode_s": each(self.self_s("io.grab_encode")),
            "io.grab_decode_calls": each(self.calls("io.grab_decode")),
            "io.grab_decode_s": each(self.self_s("io.grab_decode")),
            "service.ticks": each(self.calls("service.tick")),
            "service.tick_self_s": each(self.self_s("service.tick")),
            "service.windows_built": each(windows),
            "service.window_self_s": each(self.self_s("service.window")),
            "service.replayed_per_window":
                ratio(counts.get("service.replayed", 0), windows),
            "service.horizon_s": each(self.self_s("service.horizon")),
            "service.cache_hit_ratio":
                ratio(notes.get("service.cache_hits", 0),
                      notes.get("service.cache_lookups", 0)),
            "service.query_p50_ms": notes.get("service.query_p50_ms", 0.0),
            "service.frontend_wait_ms":
                notes.get("service.frontend_wait_ms", 0.0),
            "analysis.run_s": each(self.self_s("analysis.run")),
            "analysis.table1_s": each(self.self_s("analysis.table1")),
            "analysis.window_document_s":
                each(self.self_s("analysis.window_document")),
            "trace.iter_s": traced_iter_s,
            "trace.hot_share": self.hot_share(workload),
            "trace.overhead": overhead,
        })
        return metrics

    def hot_share(self, workload: str) -> float:
        """The workload's hot-spot self time as a share of the traced
        wall time of the operation it sits in (see :data:`HOT_SPOTS`)."""
        names, operation = HOT_SPOTS[workload]
        if operation is None:
            accumulators, seconds = self._acc, sum(self.op_seconds.values())
        else:
            accumulators = self.per_op.get(operation, {})
            seconds = self.op_seconds.get(operation, 0.0)
        spent = sum(accumulators.get(name, (0, 0.0, 0.0))[2]
                    for name in names)
        return spent / seconds if seconds else 0.0

    def _after_only(self, fn: Callable, after: Callable) -> Callable:
        """Count an outcome of ``fn`` without timing it."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sync_wrapper(self, fn: Callable) -> Callable:
        """``WalWriter.sync`` timed, counting the calls that fsynced."""
        tracer = self
        timed_sync = self.timed(fn, "store.sync")

        def wrapper(writer, *args, **kwargs):
            before = writer.acked_seq
            result = timed_sync(writer, *args, **kwargs)
            if tracer.active and result != before:
                tracer.count("store.fsync")
            return result

        wrapper.__wrapped__ = fn
        return wrapper
