"""StoreWriter: streams a run into the store.

In a **fresh** run the writer appends every event straight to the WAL:
sightings (a dataset new-address hook), scheduler admissions and probe
grabs (hooks the engines call), and per-day progress marks.

In a **resumed** run the writer starts in *verify* mode.  Recovery here
is deterministic replay: the whole simulation re-runs from genesis
under the original seed, and every record it regenerates is checked
against the surviving log — sequence numbers and CRCs must match
record-for-record (the compacted prefix is checked via the chain CRC at
the compaction horizon instead, since its records no longer exist).
The log is held as :attr:`Recovery.crcs`, 4 bytes per surviving
record, and released when the writer goes live.
The instant replay reaches the end of the log, the writer switches to
*live* mode at record granularity and the very same run continues,
appending new records as if the crash never happened.  Any divergence —
a config edit, a code change, a corrupted log — surfaces as a
:class:`~repro.store.wal.RecoveryError` at the first differing record
rather than as silently forked history.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Union

from repro.ipv6 import address as addrmod
from repro.obs.metrics import current_registry
from repro.store.checkpoint import Checkpoint
from repro.store.runstore import Recovery, RunStore
from repro.store.wal import (
    RecordTemplate,
    RecoveryError,
    encode_group,
    record_crc,
)

if TYPE_CHECKING:
    from repro.runtime.registry import ProbeSpec


class StoreWriter:
    """Streams pipeline events into a :class:`RunStore`'s WAL."""

    def __init__(self, store: RunStore,
                 recovery: Optional[Recovery] = None) -> None:
        self.store = store
        self._recovery = recovery
        self._wal = None
        self._seq = 0      # last regenerated/appended seq (verify mode)
        self._chain = 0
        self._cursor = 0   # index of the next logged CRC to verify against
        # Every sink's records name their address; a target's admission,
        # grabs and sighting arrive together, so one entry saves most
        # of the formatting.
        self._last_address: Optional[int] = None
        self._last_text = ""
        self._sighting = RecordTemplate(
            {"t": "sighting", "addr": "::", "time": 0.0, "server": ""},
            ("addr", "server", "time"))
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

    def emit(self, payload: Union[Dict, RecordTemplate,
                                  Sequence[RecordTemplate]], *holes) -> int:
        """Record one event, a payload dict or a template followed by its
        hole values, or a group of templates sharing them (see
        :meth:`WalWriter.append`); returns the last record's sequence
        number.

        Live mode appends to the WAL.  Verify mode checks each
        regenerated record, in order, against logged history and
        switches to live mode at the record where the log ends,
        appending the rest of a group live.
        """
        if self._mode == "live":
            return self._wal.append(payload, *holes)
        recovery = self._recovery
        seq = self._seq + 1
        if isinstance(payload, dict):
            crcs = (record_crc(seq, payload).encode("ascii"),)
        else:
            crcs = [crc for crc, _, _ in encode_group(
                seq, (payload,) if isinstance(payload, RecordTemplate)
                else payload, holes)]
        checked = 0
        try:
            for crc in crcs:
                self._check(seq, crc, recovery)
                checked += 1
                if seq == recovery.last_seq:
                    self._switch_live()
                    break
                seq += 1
        finally:
            self._m_replayed.inc(checked)
        if checked < len(crcs):
            return self._wal.append(payload[checked:], *holes)
        return self._seq

    def _check(self, seq: int, crc: bytes, recovery: Recovery) -> None:
        """Verify mode: the regenerated record ``seq`` with CRC ``crc``
        (its 8 hex digits, as stored) against logged history."""
        if seq <= recovery.compacted_through:
            # Compacted prefix: the records are gone; the chain CRC at
            # the horizon is the only (and sufficient) witness.
            self._chain = zlib.crc32(crc, self._chain)
            if seq == recovery.compacted_through:
                if self._chain != recovery.chain_at_compaction:
                    raise RecoveryError(
                        f"replay diverged inside the compacted prefix: "
                        f"chain mismatch at seq {seq} — the store was "
                        "written by a different config, seed, or code "
                        "version")
                self._m_chain_checks.inc()
        else:
            cursor = self._cursor
            logged_seq = recovery.compacted_through + 1 + cursor
            logged = b"%08x" % recovery.crcs[cursor]
            if logged_seq != seq or logged != crc:
                raise RecoveryError(
                    f"replay diverged at seq {seq}: regenerated record "
                    f"(crc {crc.decode('ascii')}) does not match logged "
                    f"record (seq {logged_seq}, crc "
                    f"{logged.decode('ascii')}) — "
                    "the store was written by a different config, seed, "
                    "or code version")
            self._cursor = cursor + 1
        self._seq = seq

    def _switch_live(self) -> None:
        self._wal = self.store.writer_for_append(self._recovery)
        self._mode = "live"
        self._recovery = None  # its CRCs are all checked

    # -- event sources -----------------------------------------------------

    def _address_text(self, address: int) -> str:
        """``address`` in RFC 5952 text, through the sinks' shared
        one-entry memo."""
        if address != self._last_address:
            self._last_text = addrmod.format_address(address)
            self._last_address = address
        return self._last_text

    def sighting(self, address: int, time: float,
                 server_location: str) -> None:
        """Record one first sighting (a dataset's new-address hook)."""
        self.emit(self._sighting, self._address_text(address),
                  server_location, time)

    def admit_sink(self, engine_name: str) -> Callable[[int, float], None]:
        """A scheduler admit-hook recording admissions for ``engine_name``."""
        template = RecordTemplate(
            {"t": "admit", "engine": engine_name, "addr": "::", "time": 0.0},
            ("addr", "time"))

        def sink(target: int, now: float) -> None:
            self.emit(template, self._address_text(target), now)

        return sink

    def grab_sink(self, label: str) -> Callable[[object], None]:
        """A probe grab-hook recording results under scan ``label``."""
        from repro.io.jsonl import grab_to_json

        def sink(grab) -> None:
            self.emit({"t": "grab", "label": label, **grab_to_json(grab)})

        return sink

    def refused_sink(self, label: str, specs: Sequence[ProbeSpec]
                     ) -> Callable[[int, float, Sequence[int]], None]:
        """The refused-record writer of one probe plan: called with
        ``(target, now, members)``, it records the refused grab of
        ``specs[member]`` for each of ``members`` (indices into
        ``specs``, in probe order) under scan ``label``, as
        :meth:`grab_sink` records each built grab, in one :meth:`emit`
        of the group.

        Compiled once per plan: each spec's records are rendered from
        one sample grab, so a refused builder whose grab differs in
        more than its address and time between two samples raises
        :class:`ValueError` here.  Per call, the address is formatted
        once, through the sinks' shared memo, and the group renders the
        address and time texts once.
        """
        from repro.io.jsonl import grab_to_json, to_canonical_json

        templates = []
        for spec in specs:
            sample = grab_to_json(spec.refused(0, 0.0, spec.port))
            other = grab_to_json(spec.refused(2 ** 128 - 1, 1.5, spec.port))
            if (to_canonical_json(dict(other, addr=None, time=None))
                    != to_canonical_json(dict(sample, addr=None,
                                              time=None))):
                raise ValueError(f"refused grabs of probe {spec.name!r} "
                                 "differ in more than address and time: "
                                 f"{sample} vs {other}")
            templates.append(RecordTemplate(
                {"t": "grab", "label": label, **sample}, ("addr", "time")))

        def write(target: int, now: float, members: Sequence[int]) -> None:
            self.emit([templates[member] for member in members],
                      self._address_text(target), now)

        return write

    def mark(self, phase: str, day: int, clock: float,
             targets: Dict[str, int]) -> int:
        """A progress mark: phase/day boundary + cumulative denominators."""
        return self.emit({"t": "mark", "phase": phase, "day": day,
                          "clock": clock, "targets": targets})

    # -- durability points -------------------------------------------------

    def checkpoint(self, state: Dict) -> Optional[Checkpoint]:
        """Sync the WAL and write a checkpoint holding ``state`` at the
        last appended record.

        In verify mode the checkpoints of the replayed prefix already
        exist and the call is a no-op.  A checkpoint never compacts:
        compaction trades replayable/analyzable history for disk, so it
        is only ever the explicit ``repro store compact``.
        """
        if self._mode != "live":
            return None
        from repro.store.wal import fault_point

        self._wal.sync()
        checkpoint = Checkpoint(seq=self._wal.last_seq, chain=self._wal.chain,
                                state=state)
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
