"""Benchmarks of the repro.store write-ahead log.

A store-backed study pays the WAL on every event: one canonical-JSON
encode + CRC + line write per record, an fsync per ack batch, and a
full sequential verify on recovery.  These benches pin the costs that
decide whether ``--store`` is affordable at paper scale: append
throughput (of generic records, and of the refused grabs that make up
most of a campaign's log), checkpoint latency, and recovery-scan speed
and memory as a function of log length.
"""

import shutil
import statistics
import time
import tracemalloc

from benchmarks.conftest import write_report
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.report import fmt_int, render_table
from repro.runtime.registry import default_registry
from repro.store import Checkpoint, RunStore, StoreWriter, WalReader, WalWriter

RECORDS = 20_000


def _payload(i):
    return {"t": "grab", "label": "bench", "type": "http",
            "addr": f"2001:db8::{i:x}", "time": float(i), "ok": True,
            "port": 443, "status": 200, "title": f"Gerät-{i}",
            "server": None, "tls": None}


def _fill(wal_dir, count):
    with use_registry(MetricsRegistry()):
        writer = WalWriter(wal_dir, segment_max_records=4096,
                           fsync_every=256)
        for i in range(count):
            writer.append(_payload(i))
        writer.close()


def test_append_throughput(benchmark, tmp_path):
    counter = [0]

    def setup():
        counter[0] += 1
        wal_dir = tmp_path / f"wal-{counter[0]}"
        return (wal_dir,), {}

    def append_all(wal_dir):
        _fill(wal_dir, RECORDS)
        return RECORDS

    result = benchmark.pedantic(append_all, setup=setup, rounds=3,
                                iterations=1)
    assert result == RECORDS


def test_checkpoint_latency(benchmark, tmp_path):
    run_dir = tmp_path / "run"
    with use_registry(MetricsRegistry()):
        store = RunStore.create(run_dir, config={"bench": True},
                                cooldown_ttl=0.0)
        writer = store.new_writer()
        for i in range(2048):
            writer.append(_payload(i))
        writer.sync()
        state = {"counters": {f"series_{i}": i for i in range(64)}}
        seqs = iter(range(10_000))

        def checkpoint_once():
            store.write_checkpoint(Checkpoint(seq=next(seqs),
                                              chain=writer.chain,
                                              state=state))

        benchmark(checkpoint_once)
        writer.close()


def test_recovery_scan(benchmark, tmp_path):
    wal_dir = tmp_path / "wal"
    _fill(wal_dir, RECORDS)

    def scan():
        with use_registry(MetricsRegistry()):
            reader = WalReader(wal_dir)
            count = sum(1 for _ in reader.records())
        return count, reader.last_seq

    count, last_seq = benchmark(scan)
    assert count == RECORDS and last_seq == RECORDS


def _fill_store(run_dir, count):
    """A run store holding ``count`` records, at its default WAL tuning
    (4,096-record segments, as ``repro study --store`` writes)."""
    with use_registry(MetricsRegistry()):
        store = RunStore.create(run_dir, config={"bench": True},
                                cooldown_ttl=0.0)
        writer = store.new_writer()
        for i in range(count):
            writer.append(_payload(i))
        writer.close()
    return store


def _refused_targets_s(run_dir, count):
    """Seconds to write ``count`` records as the default registry's
    refused grabs, eight per target, through a store writer's refused
    writer (at the store's default WAL tuning)."""
    specs = list(default_registry())
    members = list(range(len(specs)))
    with use_registry(MetricsRegistry()):
        store = RunStore.create(run_dir, config={"bench": True},
                                cooldown_ttl=0.0)
        writer = StoreWriter(store)
        write = writer.refused_sink("bench", specs)
        start = time.perf_counter()
        for target in range(count // len(specs)):
            write((0x20010DB8 << 96) + target * 7919, float(target),
                  members)
        writer.close()
        return time.perf_counter() - start


def _recover_peak(store):
    """Traced peak (bytes above start) of one ``RunStore.recover()``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with use_registry(MetricsRegistry()):
            store.recover()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


#: Timed runs per cell of the scaling report, each on fresh directories.
SCALING_RUNS = 5


def _rate_cell(rates):
    """The median of ``rates``, with the slowest and fastest beside it."""
    return (f"{fmt_int(int(statistics.median(rates)))} "
            f"({fmt_int(min(rates))}-{fmt_int(max(rates))})")


def test_store_scaling_report(tmp_path):
    """Recovery time grows linearly with log length, and its memory
    does not grow with it — table artefact.  Each rate is the median of
    :data:`SCALING_RUNS` runs on fresh directories (min-max beside it),
    because a single run of one cell swings up to 2x on a shared host."""
    rows = []
    recover_medians = []
    peaks = []
    for count in (5_000, 20_000, 80_000):
        append, refused, recover = [], [], []
        for run in range(SCALING_RUNS):
            run_dir = tmp_path / f"run-{count}-{run}"
            start = time.perf_counter()
            store = _fill_store(run_dir, count)
            append.append(int(count / (time.perf_counter() - start)))

            start = time.perf_counter()
            with use_registry(MetricsRegistry()):
                recovery = store.recover()
            recover.append(int(count / (time.perf_counter() - start)))
            assert recovery.last_seq == count

            refused_dir = tmp_path / f"refused-{count}-{run}"
            refused.append(int(count / _refused_targets_s(refused_dir,
                                                          count)))
            if run == 0:
                peaks.append(_recover_peak(store))
            shutil.rmtree(run_dir)
            shutil.rmtree(refused_dir)

        recover_medians.append(statistics.median(recover))
        rows.append([fmt_int(count), _rate_cell(append),
                     _rate_cell(refused), _rate_cell(recover),
                     fmt_int(peaks[-1] // 1024)])

    text = render_table(
        ["records", "append rec/s", "refused rec/s", "recover rec/s",
         "recover peak KiB"],
        rows, title=("Run-store WAL scaling (append + recovery scan; "
                     f"median (min-max) of {SCALING_RUNS} runs)"))
    write_report("store", text)

    # Throughput must not collapse with log length (linear scans only).
    assert recover_medians[-1] > recover_medians[0] / 4
    # Recovery keeps 4 bytes per record, not the records: 16x the log
    # stays within 1.5x the memory.
    assert peaks[-1] <= 1.5 * peaks[0]
