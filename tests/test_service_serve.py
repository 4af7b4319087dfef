"""Serve front-end tests: concurrency, cache, metrics, shutdown.

The acceptance contract: 16 concurrent windowed queries answer
identically to a sequential one, and the ``service_*`` counters prove
no query fell back to full-WAL replay — frames build once (single
flight), later queries are cache hits, and the total replayed-record
count stays far below queries × log length.
"""

import json
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.net.clock import DAY
from repro.obs import use_registry
from repro.service import QueryService, query_server
from repro.store import RunStore
from repro.store.wal import WalReader

from tests.conftest import service_config


def counter_value(registry, name):
    return sum(entry["value"]
               for entry in registry.snapshot()["counters"]
               if entry["name"] == name)


def test_sixteen_concurrent_queries_without_full_replay(service_run):
    _, run_dir = service_run
    total_records = sum(
        1 for _ in WalReader(RunStore.open(run_dir).wal_dir).records())
    with use_registry() as registry:
        server = api.serve(str(run_dir), window=4, step=2)
        try:
            sequential = query_server(server.address,
                                      {"cmd": "query"}, timeout=120.0)
            assert sequential["ok"] and sequential["windows"]

            def one(_):
                return query_server(server.address, {"cmd": "query"},
                                    timeout=120.0)

            with ThreadPoolExecutor(16) as pool:
                concurrent = list(pool.map(one, range(16)))
        finally:
            server.shutdown()

    golden = json.dumps(sequential, sort_keys=True)
    assert all(json.dumps(response, sort_keys=True) == golden
               for response in concurrent)

    # Frames built exactly once each (single-flight), everything else
    # served from the cache.
    windows = len(sequential["windows"])
    assert counter_value(registry, "service_frames_built_total") == windows
    assert (counter_value(registry, "service_frame_cache_hits_total")
            >= 16 * windows)
    assert counter_value(registry, "service_queries_total") == 17
    # Boundedness: 17 full replays would cost 17 × total × windows; the
    # anchored engine pays roughly one pass per *distinct* frame.
    replayed = counter_value(registry, "service_replay_records_total")
    assert 0 < replayed < 3 * total_records


def test_warm_cache_skips_store_entirely(service_run):
    _, run_dir = service_run
    with use_registry() as registry:
        service = QueryService(str(run_dir), window_days=4, step_days=2)
        service.query()
        built = counter_value(registry, "service_frames_built_total")
        replayed = counter_value(registry, "service_replay_records_total")
        service.query()
        # Second pass: same frames from cache, zero new window replay
        # (the horizon probe re-reads only the post-checkpoint tail,
        # which is empty for a cleanly closed campaign).
        assert (counter_value(registry, "service_frames_built_total")
                == built)
        assert (counter_value(registry, "service_replay_records_total")
                == replayed)
        stats = service.stats()
    assert stats["queries"] == 2
    assert stats["latency_p50_ms"] >= 0.0
    assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]
    assert stats["cache"]["frames"] == len(service.cache)


def test_latency_window_is_bounded(service_run, monkeypatch):
    from repro.service import frontend

    monkeypatch.setattr(frontend, "LATENCY_SAMPLES", 8)
    _, run_dir = service_run
    with use_registry():
        service = QueryService(str(run_dir), window_days=4, step_days=2)
        for _ in range(20):
            service.query()
        stats = service.stats()
    assert len(service._latencies) == 8
    assert stats["queries"] == 20


def test_frame_cache_evicts_least_recent(service_run):
    _, run_dir = service_run
    with use_registry():
        service = QueryService(str(run_dir), window_days=1, step_days=1,
                               cache_frames=2)
        service.frame_document(0.0, 1 * DAY)
        service.frame_document(1 * DAY, 2 * DAY)
        service.frame_document(2 * DAY, 3 * DAY)  # evicts [0, 1)
        assert len(service.cache) == 2
        hits = service.cache.hits
        service.frame_document(0.0, 1 * DAY)      # rebuilt, not a hit
        assert service.cache.hits == hits


def test_each_frame_lookup_counts_one_hit_or_one_miss(service_run):
    """A cold query misses once per window, each miss a build; a repeat
    hits once per window."""
    _, run_dir = service_run
    with use_registry() as registry:
        service = QueryService(str(run_dir), window_days=4, step_days=2)
        windows = len(service.query()["windows"])
        assert windows > 1
        cold = service.stats()["cache"]
        assert (cold["hits"], cold["misses"]) == (0, windows)
        assert (counter_value(registry, "service_frames_built_total")
                == windows)
        service.query()
        warm = service.stats()["cache"]
    assert (warm["hits"], warm["misses"]) == (windows, windows)


def test_racing_lookups_of_a_cold_frame_count_once_each(service_run):
    """Two callers racing for one cold frame: one builds it (a miss),
    the other is served the built frame (a hit)."""
    _, run_dir = service_run
    with use_registry() as registry:
        service = QueryService(str(run_dir), window_days=4, step_days=2)
        build = service.reader.window
        racer = []

        def slow_build(*args, **kwargs):
            # The second caller starts while the first one builds.
            if not racer:
                racer.append(threading.Thread(
                    target=lambda: racer.append(
                        service.frame_document(0.0, 4 * DAY))))
                racer[0].start()
                time.sleep(0.2)
            return build(*args, **kwargs)

        service.reader.window = slow_build
        document = service.frame_document(0.0, 4 * DAY)
        racer[0].join(timeout=60)
        assert racer[1:] == [document]
        assert counter_value(registry, "service_frames_built_total") == 1
    cache = service.stats()["cache"]
    assert (cache["hits"], cache["misses"]) == (1, 1)


def test_unknown_command_is_reported(service_run):
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            response = query_server(server.address, {"cmd": "explode"})
        finally:
            server.shutdown()
    assert not response["ok"]
    assert "cmd='explode'" in response["error"]


def test_bad_query_returns_error_not_disconnect(service_run):
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            response = query_server(server.address,
                                    {"cmd": "query", "window": -1})
        finally:
            server.shutdown()
    assert not response["ok"]
    assert "window=-1" in response["error"]


def test_series_over_the_window_cap_is_refused(service_run, capsys):
    """A client line cannot ask for unbounded replay work: a step that
    would need more than MAX_WINDOWS windows is refused before any
    window is built, the server answers the next query, and
    ``repro analyze`` exits 2."""
    from repro.cli import main
    from repro.service.query import MAX_WINDOWS

    _, run_dir = service_run
    with use_registry() as registry:
        server = api.serve(str(run_dir))
        try:
            refused = query_server(server.address,
                                   {"cmd": "query", "window": 1,
                                    "step": 1e-6}, timeout=10.0)
            built = counter_value(registry, "service_frames_built_total")
            answered = query_server(server.address, {"cmd": "query"},
                                    timeout=120.0)
        finally:
            server.shutdown()
    assert not refused["ok"]
    assert f"more than {MAX_WINDOWS} windows" in refused["error"]
    assert built == 0
    assert answered["ok"] and answered["windows"]

    assert main(["analyze", "--run-dir", str(run_dir), "--window", "1",
                 "--step", "0.0001"]) == 2
    assert f"more than {MAX_WINDOWS} windows" in capsys.readouterr().err


def test_over_long_request_line_is_refused(service_run):
    """A client that sends no newline cannot grow the server's buffer:
    past the line cap it gets one typed error reply and a closed
    connection, and the server keeps answering other clients."""
    from repro.service.frontend import MAX_REQUEST_BYTES

    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            with socket.create_connection(server.address,
                                          timeout=10.0) as conn:
                conn.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
                reader = conn.makefile("rb")
                reply = json.loads(reader.readline())
                try:
                    rest = reader.read()
                except ConnectionResetError:
                    rest = b""
            assert query_server(server.address, {"cmd": "stats"},
                                timeout=10.0)["ok"]
        finally:
            server.shutdown()
    assert not reply["ok"]
    assert reply["error"].startswith("RequestError: ")
    assert rest == b""


def test_non_object_request_gets_typed_error(service_run):
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            response = query_server(server.address, [1], timeout=10.0)
        finally:
            server.shutdown()
    assert response == {"ok": False, "error": "RequestError: request=[1]: "
                                              "must be a JSON object"}


def test_shutdown_reply_is_sent_before_teardown(service_run):
    """``repro serve`` exits as soon as teardown ends, killing handler
    threads, so the ``shutdown`` reply must be on the wire first:
    dispatching it leaves the server serving, and the handler starts
    the teardown once its reply is flushed."""
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            assert server.dispatch({"cmd": "shutdown"}) == {"ok": True,
                                                            "bye": True}
            assert query_server(server.address, {"cmd": "stats"},
                                timeout=10.0)["ok"]
            bye = query_server(server.address, {"cmd": "shutdown"},
                               timeout=10.0)
            assert bye == {"ok": True, "bye": True}
            # The CLI's foreground loop returns once the teardown ran.
            loop = threading.Thread(target=server.serve_forever)
            loop.start()
            loop.join(timeout=10.0)
            assert not loop.is_alive()
        finally:
            server.shutdown()


def test_graceful_shutdown_flushes_live_daemon(tmp_path):
    from repro.service import CampaignDaemon
    from repro.store.checkpoint import list_checkpoints

    run_dir = tmp_path / "live"
    with use_registry():
        daemon = CampaignDaemon.create(service_config(run_dir))
        for _ in range(4):  # mid-campaign: the horizon lies further out
            daemon.tick()
        checkpoints_before = len(list_checkpoints(
            RunStore.open(run_dir).ckpt_dir))

        server = api.serve(str(run_dir), window=2, step=2, daemon=daemon)
        response = query_server(server.address,
                                {"cmd": "query"}, timeout=120.0)
        assert response["ok"]
        assert response["horizon"] == pytest.approx(4.0)
        assert len(response["windows"]) == 2

        bye = query_server(server.address, {"cmd": "shutdown"})
        assert bye["ok"]
        # A direct shutdown() call synchronizes with the wire-initiated
        # teardown — when it returns, the final checkpoint is on disk.
        server.shutdown()

    store = RunStore.open(run_dir)
    assert len(list_checkpoints(store.ckpt_dir)) > checkpoints_before
    verify = store.verify()
    assert verify["ok"], verify["problems"]
    # The flushed checkpoint anchors the whole log: day 4 closed out.
    assert verify["last_seq"] == store.inspect()["latest_checkpoint_seq"]


def _wait_for_drops(server, total, timeout=10.0):
    """Poll ``stats`` until ``total`` connections were dropped."""
    deadline = time.monotonic() + timeout
    while True:
        dropped = query_server(server.address, {"cmd": "stats"},
                               timeout=10.0)["dropped"]
        if sum(dropped.values()) >= total or time.monotonic() > deadline:
            return dropped
        time.sleep(0.05)


def _reset_mid_reply(address):
    """Send a query, then reset the connection before reading a byte."""
    conn = socket.create_connection(address, timeout=10.0)
    reader = conn.makefile("rb")
    # One round trip first, so the server's handler surely owns the
    # connection before the reset arrives.
    conn.sendall(b'{"cmd": "stats"}\n')
    assert json.loads(reader.readline())["ok"]
    conn.sendall(b'{"cmd": "query"}\n')
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    reader.close()
    conn.close()


def test_idle_client_is_dropped(service_run, monkeypatch):
    """A client that connects and never sends a newline loses its
    connection after the read timeout, and the server keeps answering."""
    from repro.service import frontend

    monkeypatch.setattr(frontend, "READ_TIMEOUT", 0.5)
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            with socket.create_connection(server.address,
                                          timeout=10.0) as idle:
                idle.sendall(b'{"cmd": "st')
                assert idle.recv(1) == b""  # the server closed it
            dropped = _wait_for_drops(server, 1)
            answered = query_server(server.address, {"cmd": "query"},
                                    timeout=120.0)
        finally:
            server.shutdown()
    assert dropped == {"timeout": 1, "reset": 0, "broken_pipe": 0}
    assert answered["ok"] and answered["windows"]


def test_client_gone_mid_reply_is_quiet(service_run, capsys):
    """A client that resets before reading its reply ends the
    connection without a traceback on stderr, and is counted."""
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            _reset_mid_reply(server.address)
            dropped = _wait_for_drops(server, 1)
            answered = query_server(server.address, {"cmd": "query"},
                                    timeout=120.0)
        finally:
            server.shutdown()
    assert capsys.readouterr().err == ""
    assert dropped["timeout"] == 0
    assert dropped["reset"] + dropped["broken_pipe"] == 1
    assert answered["ok"] and answered["windows"]


def test_stats_counts_dropped_connections_by_reason(service_run,
                                                    monkeypatch):
    """``stats`` keeps its keys and adds the drops by reason; a client
    that connects and closes without a request (a readiness probe)
    counts as nothing."""
    from repro.service import frontend

    monkeypatch.setattr(frontend, "READ_TIMEOUT", 0.5)
    _, run_dir = service_run
    with use_registry():
        server = api.serve(str(run_dir))
        try:
            socket.create_connection(server.address, timeout=10.0).close()
            with socket.create_connection(server.address,
                                          timeout=10.0) as idle:
                assert idle.recv(1) == b""
            _reset_mid_reply(server.address)
            _wait_for_drops(server, 2)
            stats = query_server(server.address, {"cmd": "stats"},
                                 timeout=10.0)
        finally:
            server.shutdown()
    assert {"queries", "latency_p50_ms", "latency_p99_ms",
            "cache"} <= set(stats)
    dropped = stats["dropped"]
    assert set(dropped) == {"timeout", "reset", "broken_pipe"}
    assert dropped["timeout"] == 1
    assert dropped["reset"] + dropped["broken_pipe"] == 1
