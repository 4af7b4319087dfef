"""Test-side helpers over the WAL: the dict-level CRC check and a
whole-log read.

:func:`verify_record` is the reference for the check
:func:`repro.store.wal.parse_line` makes on raw line bytes: it
re-serializes a parsed record and compares CRCs, so on lines the writer
wrote both must accept exactly the same records.  :func:`read_all`
materializes every surviving record, which the program never does (its
readers stream a segment at a time).
"""

from typing import Dict, List, Tuple

from repro.store.wal import WalReader, record_crc


def verify_record(record: Dict) -> bool:
    """Whether ``record``'s stored CRC matches its contents."""
    stored = record.get("crc")
    seq = record.get("seq")
    if not isinstance(stored, str) or not isinstance(seq, int):
        return False
    payload = {key: value for key, value in record.items()
               if key not in ("seq", "crc")}
    return record_crc(seq, payload) == stored


def read_all(wal_dir, *, start_seq: int = 1, chain: int = 0,
             repair: bool = False) -> Tuple[List[Dict], WalReader]:
    """All surviving records plus the reader holding scan statistics."""
    reader = WalReader(wal_dir, start_seq=start_seq, chain=chain)
    return list(reader.records(repair=repair)), reader
