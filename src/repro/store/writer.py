"""StoreWriter: the stage that streams a run into the store.

In a **fresh** run the writer appends every event straight to the WAL:
sightings (a dataset new-address hook), scheduler admissions and probe
grabs (hooks the engines call), and per-day progress marks.

In a **resumed** run the writer starts in *verify* mode.  Recovery here
is deterministic replay: the whole simulation re-runs from genesis
under the original seed, and every record it regenerates is checked
against the surviving log — sequence numbers and CRCs must match
record-for-record (the compacted prefix is checked via the chain CRC at
the compaction horizon instead, since its records no longer exist).
The instant replay reaches the end of the log, the writer switches to
*live* mode at record granularity and the very same run continues,
appending new records as if the crash never happened.  Any divergence —
a config edit, a code change, a corrupted log — surfaces as a
:class:`~repro.store.wal.RecoveryError` at the first differing record
rather than as silently forked history.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.ipv6 import address as addrmod
from repro.obs.metrics import current_registry
from repro.runtime.stage import Stage
from repro.store.checkpoint import Checkpoint
from repro.store.runstore import Recovery, RunStore
from repro.store.wal import RecoveryError, chain_extend, record_crc


class StoreWriter(Stage):
    """Streams pipeline events into a :class:`RunStore`'s WAL."""

    name = "store-writer"

    def __init__(self, store: RunStore,
                 recovery: Optional[Recovery] = None) -> None:
        super().__init__()
        self.store = store
        self._recovery = recovery
        self._wal = None
        self._seq = 0      # last regenerated/appended seq (verify mode)
        self._chain = 0
        self._cursor = 0   # next recovery record to verify against
        metrics = current_registry()
        self._m_replayed = metrics.counter("store_recovery_replayed_total")
        self._m_chain_checks = metrics.counter("store_chain_checks_total")
        if recovery is None or recovery.last_seq == 0:
            self._mode = "live"
            self._wal = (store.new_writer() if recovery is None
                         else store.writer_for_append(recovery))
        else:
            self._mode = "verify"

    # -- introspection -----------------------------------------------------

    @property
    def mode(self) -> str:
        """``"verify"`` while replaying logged history, ``"live"`` after."""
        return self._mode

    @property
    def last_seq(self) -> int:
        return self._wal.last_seq if self._mode == "live" else self._seq

    @property
    def acked_seq(self) -> int:
        """Durability horizon (replayed history is durable by definition)."""
        return self._wal.acked_seq if self._mode == "live" else self._seq

    # -- the one funnel ----------------------------------------------------

    def emit(self, payload: Dict) -> int:
        """Record one event; returns its sequence number.

        Live mode appends to the WAL.  Verify mode checks the
        regenerated record against logged history and switches to live
        mode when the log runs out.
        """
        self.mark_received()
        if self._mode == "live":
            seq = self._wal.append(payload)
            self.mark_processed()
            return seq
        recovery = self._recovery
        seq = self._seq + 1
        crc = record_crc(seq, payload)
        self._chain = chain_extend(self._chain, crc)
        if seq <= recovery.compacted_through:
            # Compacted prefix: the records are gone; the chain CRC at
            # the horizon is the only (and sufficient) witness.
            if (seq == recovery.compacted_through
                    and self._chain != recovery.chain_at_compaction):
                raise RecoveryError(
                    f"replay diverged inside the compacted prefix: chain "
                    f"mismatch at seq {seq} — the store was written by a "
                    "different config, seed, or code version")
            if seq == recovery.compacted_through:
                self._m_chain_checks.inc()
        else:
            expected = recovery.records[self._cursor]
            if expected["seq"] != seq or expected["crc"] != crc:
                raise RecoveryError(
                    f"replay diverged at seq {seq}: regenerated record "
                    f"(crc {crc}) does not match logged record "
                    f"(seq {expected['seq']}, crc {expected['crc']}) — "
                    "the store was written by a different config, seed, "
                    "or code version")
            self._cursor += 1
        self._seq = seq
        self._m_replayed.inc()
        self.mark_processed()
        if seq == recovery.last_seq:
            self._switch_live()
        return seq

    def _switch_live(self) -> None:
        self._wal = self.store.writer_for_append(self._recovery)
        self._mode = "live"

    # -- event sources -----------------------------------------------------

    def sighting(self, address: int, time: float,
                 server_location: str) -> None:
        """Record one first sighting (a dataset's new-address hook)."""
        self.emit({"t": "sighting",
                   "addr": addrmod.format_address(address),
                   "time": time,
                   "server": server_location})

    def admit_sink(self, engine_name: str) -> Callable[[int, float], None]:
        """A scheduler admit-hook recording admissions for ``engine_name``."""

        def sink(target: int, now: float) -> None:
            self.emit({"t": "admit", "engine": engine_name,
                       "addr": addrmod.format_address(target), "time": now})

        return sink

    def grab_sink(self, label: str) -> Callable[[object], None]:
        """A probe grab-hook recording results under scan ``label``."""
        from repro.io.jsonl import grab_to_json

        def sink(grab) -> None:
            self.emit({"t": "grab", "label": label, **grab_to_json(grab)})

        return sink

    def mark(self, phase: str, day: int, clock: float,
             targets: Dict[str, int]) -> int:
        """A progress mark: phase/day boundary + cumulative denominators."""
        return self.emit({"t": "mark", "phase": phase, "day": day,
                          "clock": clock, "targets": targets})

    # -- durability points -------------------------------------------------

    def checkpoint(self, state_fn: Callable[[], Dict]) -> Optional[Checkpoint]:
        """Sync the WAL and snapshot state.

        ``state_fn`` is a thunk so resumed runs skip the snapshot cost:
        in verify mode the checkpoints already exist for this prefix and
        the call is a no-op.  A checkpoint never compacts: compaction
        trades replayable/analyzable history for disk, so it is only
        ever the explicit ``repro store compact``.
        """
        if self._mode != "live":
            return None
        from repro.store.wal import fault_point

        self._wal.sync()
        checkpoint = Checkpoint(seq=self._wal.last_seq, chain=self._wal.chain,
                                state=state_fn())
        fault_point("checkpoint", checkpoint.seq, self._wal.acked_seq)
        self.store.write_checkpoint(checkpoint)
        return checkpoint

    def close(self) -> None:
        """Final sync + release; errors if replay never caught up."""
        if self._mode == "live":
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            return
        raise RecoveryError(
            f"replay finished at seq {self._seq} but the log continues to "
            f"seq {self._recovery.last_seq} — the store holds more history "
            "than this configuration regenerates")
