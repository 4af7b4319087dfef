"""Resume and verify memory do not grow with the log.

Recovery keeps 4 bytes per surviving record (its CRC), not the record,
and a verify-mode :class:`StoreWriter` checks the replay against those
CRCs.  Logs of ``N`` and ``10 N`` records are written through a
``StoreWriter`` (256-record segments, one checkpoint mid-log); from one
to the other, the traced peak (``tracemalloc``) of
``RunStore.recover()``, and of recover plus a verify-mode writer that
regenerates the log to its end and closes, may grow by at most
``SLOPE`` bytes per added record.  A recovery that kept parsed records
grows by several hundred.

``RunStore.verify``'s cooldown check keeps an address's last admission
only while a later admission could still come within the TTL, and it
keeps each checkpoint's seq and chain, not its state.  Over logs of
``ADMITS`` and ``10 ADMITS`` distinct admissions, spaced so that one
TTL window holds ``WINDOW`` of them and checkpointed every
``CHECKPOINT_EVERY``, verify's traced peak may grow by at most
``SLOPE`` bytes per added record; keeping every admission, or every
checkpoint's state, grows by dozens to hundreds.  On stores the writer
produced, its report is the one the unbounded check gave, byte for
byte.
"""

import hashlib
import json
import tracemalloc

import pytest

import repro.store.runstore
from repro import api
from repro.ipv6 import format_address
from repro.obs.metrics import use_registry
from repro.runtime.registry import default_registry
from repro.store import RunStore, StoreWriter, fault_injection
from repro.store.runstore import VERIFY_PRUNE_EVERY
from tests.test_golden_bytes import (
    CAMPAIGN_CRASH_SEQ,
    SimulatedCrash,
    _campaign_config,
    _config,
)

#: The probe whose refused grabs the logs hold.
HTTP = next(spec for spec in default_registry() if spec.name == "http")

#: Records in the short log; the long one holds ten times as many.
N = 1_000
#: Allowed traced-peak growth per added record, in bytes.
SLOPE = 16
#: Admissions in the short admission log (past the first cooldown-map
#: sweep); the long one holds ten times as many.
ADMITS = VERIFY_PRUNE_EVERY + 1_000
#: Admissions inside one cooldown TTL.
WINDOW = 256
#: Admissions between the admission logs' checkpoints.
CHECKPOINT_EVERY = 512


def _events(writer: StoreWriter, count: int) -> None:
    """``count`` records of a campaign's kinds, the same each call:
    each target's admission, refused grab and sighting, and a daily
    mark every 99 records; one checkpoint lands mid-log."""
    admit = writer.admit_sink("ntp")
    refused = writer.refused_sink("ntp", [HTTP])
    for i in range(count):
        address, now = (0x20010DB8 << 96) + i // 3 * 7919, 60.0 * i
        if i % 99 == 98:
            writer.mark("lead", i // 99, now, {"ntp": i // 3})
        elif i % 3 == 0:
            admit(address, now)
        elif i % 3 == 1:
            refused(address, now, [0])
        else:
            writer.sighting(address, now, "Germany")
        if i == count // 2:
            writer.checkpoint({"records": i})


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


def _verify_peak(run_dir, count: int) -> int:
    """Traced peak of ``verify()`` over ``count`` distinct admissions,
    ``WINDOW`` to a TTL, with a checkpoint every ``CHECKPOINT_EVERY``
    whose state holds the TTL window's admissions, as the scheduler's
    cool-down snapshot in checkpoints of older stores did."""
    ttl = 3 * 86400.0
    window = {}
    with use_registry():
        store = RunStore.create(run_dir, config={}, cooldown_ttl=ttl)
        writer = StoreWriter(store)
        admit = writer.admit_sink("ntp")
        for i in range(count):
            address, now = (0x20010DB8 << 96) + i * 7919, i * ttl / WINDOW
            admit(address, now)
            window[format_address(address)] = now
            if len(window) > WINDOW:
                del window[next(iter(window))]
            if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                writer.checkpoint({"cooldown": dict(window)})
        writer.close()
        report = {}
        peak = _traced_peak(lambda: report.update(store.verify()))
    assert report["ok"] and report["records"] == count
    return peak


def test_verify_peak_grows_by_at_most_slope_per_record(tmp_path):
    short = _verify_peak(tmp_path / "short", ADMITS)
    long = _verify_peak(tmp_path / "long", 10 * ADMITS)
    per_record = (long - short) / (9 * ADMITS)
    assert per_record <= SLOPE, (
        f"verify: traced peak {short / 2**20:.2f} MiB at {ADMITS} "
        f"admissions, {long / 2**20:.2f} MiB at {10 * ADMITS}: "
        f"{per_record:.0f} bytes per added record (at most {SLOPE})")


#: sha256 of each golden store's ``verify()`` report (sorted-key JSON),
#: captured when the cooldown check kept every admission.
GOLDEN_VERIFY = {
    "study": "d8835cc12d68ceb743155866b9547179853092d7ee5bf4d2bd0604656cc89ed7",
    "campaign":
        "6beb9ad3fcecbf99c1e65e3e5595cbf4c8af61eecb7a7f7bae62daf0e4fac6af",
    "resumed-campaign":
        "6beb9ad3fcecbf99c1e65e3e5595cbf4c8af61eecb7a7f7bae62daf0e4fac6af",
}


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    """The golden store-backed study, the golden campaign, and that
    campaign crashed mid-sweep and resumed (``tests/test_golden_bytes.py``
    pins their bytes)."""
    root = tmp_path_factory.mktemp("golden")
    api.study(_config(store_dir=str(root / "study"), checkpoint_days=2))
    api.run_campaign(_campaign_config(root / "campaign"))

    def crash(point, seq, acked):
        if point == "post-append" and seq == CAMPAIGN_CRASH_SEQ:
            raise SimulatedCrash()

    with fault_injection(crash):
        with pytest.raises(SimulatedCrash):
            api.run_campaign(_campaign_config(root / "resumed-campaign"))
    api.resume_campaign(str(root / "resumed-campaign"))
    return root


@pytest.mark.parametrize("prune_every", [VERIFY_PRUNE_EVERY, 16])
@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_report_on_golden_stores_is_unchanged(golden_stores,
                                                     monkeypatch, name,
                                                     prune_every):
    monkeypatch.setattr(repro.store.runstore, "VERIFY_PRUNE_EVERY",
                        prune_every)
    report = RunStore.open(golden_stores / name).verify()
    assert report["ok"]
    assert report["records_by_kind"]["admit"] > VERIFY_PRUNE_EVERY
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()
                          ).hexdigest() == GOLDEN_VERIFY[name]
