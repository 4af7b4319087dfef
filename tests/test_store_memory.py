"""Resume memory does not grow with the log.

Recovery keeps 4 bytes per surviving record (its CRC), not the record,
and a verify-mode :class:`StoreWriter` checks the replay against those
CRCs.  Logs of ``N`` and ``10 N`` records are written through a
``StoreWriter`` (256-record segments, one checkpoint mid-log); from one
to the other, the traced peak (``tracemalloc``) of
``RunStore.recover()``, and of recover plus a verify-mode writer that
regenerates the log to its end and closes, may grow by at most
``SLOPE`` bytes per added record.  A recovery that kept parsed records
grows by several hundred.
"""

import tracemalloc

import pytest

from repro.obs.metrics import use_registry
from repro.runtime.registry import default_registry
from repro.store import RunStore, StoreWriter

#: The probe whose refused grabs the logs hold.
HTTP = next(spec for spec in default_registry() if spec.name == "http")

#: Records in the short log; the long one holds ten times as many.
N = 1_000
#: Allowed traced-peak growth per added record, in bytes.
SLOPE = 16


def _events(writer: StoreWriter, count: int) -> None:
    """``count`` records of a campaign's kinds, the same each call:
    each target's admission, refused grab and sighting, and a daily
    mark every 99 records; one checkpoint lands mid-log."""
    admit = writer.admit_sink("ntp")
    refused = writer.refused_sink("ntp", HTTP)
    for i in range(count):
        address, now = (0x20010DB8 << 96) + i // 3 * 7919, 60.0 * i
        if i % 99 == 98:
            writer.mark("lead", i // 99, now, {"ntp": i // 3})
        elif i % 3 == 0:
            admit(address, now)
        elif i % 3 == 1:
            refused(address, now)
        else:
            writer.sighting(address, now, "Germany")
        if i == count // 2:
            writer.checkpoint(lambda: {"records": i})


def _traced_peak(action) -> int:
    """Bytes ``action()`` allocates at its peak, above where it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        action()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _peaks(run_dir, count: int) -> dict:
    with use_registry():
        store = RunStore.create(run_dir, config={}, cooldown_ttl=0.0,
                                segment_max_records=256)
        writer = StoreWriter(store)
        _events(writer, count)
        writer.close()

        def resume() -> None:
            replay = StoreWriter(store, recovery=store.recover())
            _events(replay, count)
            assert replay.mode == "live"
            replay.close()

        return {"recover": _traced_peak(store.recover),
                "recover+verify": _traced_peak(resume)}


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    return {count: _peaks(tmp_path_factory.mktemp(f"log-{count}"), count)
            for count in (N, 10 * N)}


@pytest.mark.parametrize("phase", ["recover", "recover+verify"])
def test_resume_peak_grows_by_at_most_slope_per_record(peaks, phase):
    short, long = peaks[N][phase], peaks[10 * N][phase]
    per_record = (long - short) / (9 * N)
    assert per_record <= SLOPE, (
        f"{phase}: traced peak {short / 2**20:.2f} MiB at {N} records, "
        f"{long / 2**20:.2f} MiB at {10 * N}: {per_record:.0f} bytes per "
        f"added record (at most {SLOPE})")
