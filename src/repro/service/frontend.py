"""The serve front end: many concurrent windowed queries, one store.

:class:`QueryService` is the thin layer ``repro serve`` (and
``api.query_window``) put between clients and a
:class:`~repro.service.query.WindowedStudyReader`: it resolves
day-denominated query specs against the store's recorded defaults,
shares one reader (window builds are stateless, so concurrent queries
never contend on fold state), and keeps an LRU of materialized window
frames keyed by ``(anchor checkpoint, t0, t1)`` — the key a frame is
*valid* under, since a window's content can only change if a better
anchor appears, and anchors are immutable once cut.

:class:`ServiceServer` wraps the service in a line-oriented JSON TCP
server (one request object per line, one response per line; a line
longer than :data:`MAX_REQUEST_BYTES` gets an error reply and closes
the connection; a client silent for :data:`READ_TIMEOUT` seconds, or
one that resets the connection, is dropped quietly and counted) with a
graceful-shutdown path: a ``shutdown`` command answers, stops
accepting, and — when a live :class:`~repro.service.daemon.
CampaignDaemon` is attached — flushes a final checkpoint before the
process lets go of the store.

House metric rule: registry counters hold only deterministic counts
(queries, frames built, cache hits); wall-clock latency and the
dropped-connection counts live in the ``stats`` reply alone.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.net.clock import DAY
from repro.obs.metrics import current_registry
from repro.service.config import is_service_document
from repro.service.query import WindowedStudyReader, complete_windows
from repro.store.runstore import RunStore

#: Longest request line the server reads, newline included.  Real
#: queries are under 200 bytes; the cap keeps a client that never
#: sends a newline from growing the server's buffer without bound.
MAX_REQUEST_BYTES = 64 * 1024

#: Seconds a connection may sit on one read or one reply write before
#: the server drops it, so a client that never sends a newline (or
#: never reads its reply) cannot hold a server thread for good.
READ_TIMEOUT = 60.0


class RequestError(ValueError):
    """A request line the server cannot take: too long, or not a JSON
    object."""


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


class WindowFrameCache:
    """A small thread-safe LRU of materialized window documents."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity={capacity}: must be >= 1")
        self.capacity = capacity
        self._frames: "OrderedDict[Tuple[str, float, float], Dict]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[str, float, float]) -> Optional[Dict]:
        with self._lock:
            document = self._frames.get(key)
            if document is None:
                self.misses += 1
                return None
            self._frames.move_to_end(key)
            self.hits += 1
            return document

    def put(self, key: Tuple[str, float, float], document: Dict) -> None:
        with self._lock:
            self._frames[key] = document
            self._frames.move_to_end(key)
            while len(self._frames) > self.capacity:
                self._frames.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    def stats(self) -> Dict:
        with self._lock:
            return {"capacity": self.capacity, "frames": len(self._frames),
                    "hits": self.hits, "misses": self.misses}


class QueryService:
    """Windowed queries over one run store, cached and concurrent-safe."""

    def __init__(self, run_dir, *, window_days: Optional[float] = None,
                 step_days: Optional[float] = None,
                 cache_frames: Optional[int] = None) -> None:
        self.store = RunStore.open(run_dir)
        document = self.store.meta.get("config", {})
        service_doc = document if is_service_document(document) else {}
        self.window_days = float(
            window_days if window_days is not None
            else service_doc.get("window", 7))
        self.step_days = float(
            step_days if step_days is not None
            else service_doc.get("step", 7))
        if self.window_days <= 0:
            raise ValueError(
                f"window_days={self.window_days}: must be positive")
        if self.step_days <= 0:
            raise ValueError(f"step_days={self.step_days}: must be positive")
        if cache_frames is None:
            cache_frames = service_doc.get("serve_cache_frames", 32)
        self.reader = WindowedStudyReader(self.store)
        self.cache = WindowFrameCache(cache_frames)
        #: Single-flight build locks: concurrent queries that miss on
        #: the same frame wait for one build instead of replaying the
        #: same WAL span N times.
        self._builds: Dict[Tuple[str, float, float], threading.Lock] = {}
        self._builds_lock = threading.Lock()
        self._latencies: List[float] = []
        self._lock = threading.Lock()
        metrics = current_registry()
        self._m_queries = metrics.counter("service_queries_total")
        self._m_built = metrics.counter("service_frames_built_total")
        self._m_hits = metrics.counter("service_frame_cache_hits_total")

    # -- queries -----------------------------------------------------------

    def frame_document(self, t0: float, t1: float) -> Dict:
        """One window's document (seconds), through the frame cache."""
        anchor = self.reader.anchor_for(t0)
        key = (anchor.name, t0, t1)
        cached = self.cache.get(key)
        if cached is not None:
            self._m_hits.inc()
            return cached
        with self._builds_lock:
            build = self._builds.setdefault(key, threading.Lock())
        with build:
            cached = self.cache.get(key)
            if cached is not None:  # someone built it while we waited
                self._m_hits.inc()
                return cached
            frame = self.reader.window(t0, t1, anchor=anchor)
            self._m_built.inc()
            self.cache.put(key, frame.document)
        with self._builds_lock:
            self._builds.pop(key, None)
        return frame.document

    def query(self, *, since: Optional[float] = None,
              window: Optional[float] = None,
              step: Optional[float] = None) -> Dict:
        """A rolling series of complete windows.  All spans in DAYS."""
        import time

        began = time.perf_counter()
        since_days = float(since if since is not None else 0.0)
        window_days = float(window if window is not None
                            else self.window_days)
        step_days = float(step if step is not None else self.step_days)
        horizon, spans = complete_windows(
            since=since_days * DAY, window=window_days * DAY,
            step=step_days * DAY, horizon=self.reader.horizon)
        windows = [self.frame_document(t0, t1) for t0, t1 in spans]
        self._m_queries.inc()
        with self._lock:
            self._latencies.append(time.perf_counter() - began)
        return {
            "horizon": horizon / DAY,
            "since": since_days,
            "window": window_days,
            "step": step_days,
            "windows": windows,
        }

    def stats(self) -> Dict:
        """Service-side query statistics (wall-clock lives only here)."""
        with self._lock:
            latencies = list(self._latencies)
        return {
            "queries": len(latencies),
            "latency_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "latency_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "cache": self.cache.stats(),
        }


#: Why the server ended a connection early: no complete read or write
#: within :data:`READ_TIMEOUT`, a reset from the client, or a write
#: after the client went away.
DROP_REASONS = ("timeout", "reset", "broken_pipe")


def _error_reply(error: Exception) -> Dict:
    return {"ok": False, "error": f"{type(error).__name__}: {error}"}


class _Handler(socketserver.StreamRequestHandler):
    """One JSON object per line in, one per line out."""

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT  # the socket timeout setup() applies
        super().setup()

    def _reply(self, response: Dict) -> None:
        self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
        self.wfile.flush()

    def handle(self) -> None:
        server: "ServiceServer" = self.server.owner  # type: ignore[attr-defined]
        # A silent, vanished or resetting client ends its connection
        # here, counted, instead of in a socketserver traceback.
        try:
            self._serve(server)
        except socket.timeout:
            server.count_drop("timeout")
        except BrokenPipeError:
            server.count_drop("broken_pipe")
        except (ConnectionResetError, ConnectionAbortedError):
            server.count_drop("reset")

    def _serve(self, server: "ServiceServer") -> None:
        while True:
            raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                self._reply(_error_reply(RequestError(
                    f"request line exceeds {MAX_REQUEST_BYTES} bytes; "
                    "closing the connection")))
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                response = server.dispatch(request)
            except Exception as error:  # noqa: BLE001 — wire boundary
                response = _error_reply(error)
            self._reply(response)
            if response.get("bye"):
                # Tear down off-thread (shutdown() joins the serve loop)
                # and only now that the reply is on the wire: ``repro
                # serve`` exits once teardown ends, killing this thread.
                threading.Thread(target=server.shutdown, daemon=True).start()
                return


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceServer:
    """``repro serve``: a QueryService behind a threaded JSONL socket."""

    def __init__(self, service: QueryService, *, host: str = "127.0.0.1",
                 port: int = 0, daemon=None) -> None:
        self.service = service
        #: A live CampaignDaemon to flush on shutdown (None for a
        #: read-only server over a finished campaign).
        self.daemon = daemon
        self._tcp = _TcpServer((host, port), _Handler)
        self._tcp.owner = self
        self._thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        self._teardown = threading.Lock()
        #: Connections dropped by reason (see :class:`_Handler`).
        self._dropped = dict.fromkeys(DROP_REASONS, 0)
        self._dropped_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._tcp.server_address[:2]

    def count_drop(self, reason: str) -> None:
        with self._dropped_lock:
            self._dropped[reason] += 1

    def dispatch(self, request: Dict) -> Dict:
        if not isinstance(request, dict):
            raise RequestError(
                f"request={json.dumps(request)[:80]}: must be a JSON "
                "object")
        command = request.get("cmd", "query")
        if command == "query":
            document = self.service.query(
                since=request.get("since"),
                window=request.get("window"),
                step=request.get("step"))
            return {"ok": True, **document}
        if command == "stats":
            with self._dropped_lock:
                dropped = dict(self._dropped)
            return {"ok": True, **self.service.stats(), "dropped": dropped}
        if command == "shutdown":
            # The handler starts the teardown once this reply is sent.
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"cmd={command!r}: unknown command "
                                      "(query, stats, shutdown)"}

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(target=self._tcp.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground serve loop (the CLI path); returns after shutdown."""
        if self._thread is None:
            self.start()
        self._shutdown.wait()

    def shutdown(self) -> None:
        """Stop accepting, join the loop, flush the attached daemon.

        Idempotent and synchronizing: a concurrent caller (say, the
        CLI reacting to the same wire ``shutdown`` a handler already
        started) blocks until the first teardown finishes, so when any
        ``shutdown()`` returns the daemon's final checkpoint is on
        disk.
        """
        with self._teardown:
            if self._shutdown.is_set():
                return
            self._shutdown.set()
            self._tcp.shutdown()
            self._tcp.server_close()
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            if self.daemon is not None:
                # Graceful exit: one final mark + checkpoint so the
                # last partial day is anchored before the store is
                # released.
                self.daemon.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def query_server(address: Tuple[str, int], request: Dict, *,
                 timeout: float = 30.0) -> Dict:
    """One request/response round trip against a :class:`ServiceServer`."""
    with socket.create_connection(address, timeout=timeout) as conn:
        conn.sendall(json.dumps(request).encode("utf-8") + b"\n")
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer.decode("utf-8"))
