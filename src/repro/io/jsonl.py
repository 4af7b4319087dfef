"""JSONL persistence for datasets and scan results.

zgrab2 emits one JSON object per grab; the paper's pipeline stores
collected addresses and grabs for offline analysis.  This module
mirrors that: line-oriented JSON with stable, versioned record shapes,
so campaigns can be saved, shipped, and re-analyzed without re-running
the simulation.

Addresses serialize in RFC 5952 text form (readable, diffable);
fingerprints as hex.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.core.collector import CollectedDataset
from repro.ipv6 import address as addrmod
from repro.obs.runreport import RunReport
from repro.scan.result import (
    BrokerGrab,
    CoapGrab,
    HttpGrab,
    NtpGrab,
    ScanResults,
    SshGrab,
    TlsObservation,
)

#: Format version stamped into every file's header record.
FORMAT_VERSION = 1

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Raised when a file does not match the expected record shapes."""


def _header(kind: str, label: str) -> Dict:
    return {"type": "header", "kind": kind, "label": label,
            "version": FORMAT_VERSION}


def _check_header(record: Dict, kind: str) -> str:
    if record.get("type") != "header" or record.get("kind") != kind:
        raise FormatError(f"not a {kind} file: header {record!r}")
    if record.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {record.get('version')}")
    return record.get("label", "")


#: The one encoder behind :func:`to_canonical_json`, built once: a
#: ``json.dumps`` call with these options builds a fresh encoder on
#: every call and produces the same string.
_CANONICAL = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def to_canonical_json(record: Dict) -> str:
    """One record in this module's canonical form (sorted keys, raw
    unicode, no trailing newline).

    Every JSONL writer in the repo — including the ``repro.store`` WAL,
    whose per-record CRCs are computed over this exact string — goes
    through here, so a record has one byte representation everywhere.
    """
    return _CANONICAL.encode(record)


def _write_lines(path: PathLike, records: Iterable[Dict]) -> int:
    # Every record — including the final one — is written as a single
    # ``line + "\n"`` string, so files always end with a newline and a
    # record is either fully present or fully absent after a torn write.
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(to_canonical_json(record) + "\n")
            count += 1
    return count


def _read_lines(path: PathLike) -> Iterator[Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    f"{path}:{line_number}: malformed JSON") from exc
            if type(record) is not dict:
                raise FormatError(
                    f"{path}:{line_number}: not a JSON object")
            yield record


# -- collected datasets ----------------------------------------------------

def save_dataset(dataset: CollectedDataset, path: PathLike) -> int:
    """Write a collected dataset; returns the number of records."""

    def records() -> Iterator[Dict]:
        yield _header("dataset", dataset.label)
        for location, addresses in sorted(dataset.per_server.items()):
            yield {"type": "server", "location": location,
                   "addresses": len(addresses)}
        for value, observation in dataset.observations.items():
            record = {
                "type": "address",
                "addr": addrmod.format_address(value),
                "first_seen": observation.first_seen,
                "last_seen": observation.last_seen,
                "requests": observation.requests,
                "servers": sorted(
                    location
                    for location, members in dataset.per_server.items()
                    if value in members),
            }
            yield record

    return _write_lines(path, records())


# -- scan results -------------------------------------------------------------

def _tls_to_json(tls: Optional[TlsObservation]) -> Optional[Dict]:
    if tls is None:
        return None
    return {
        "ok": tls.ok,
        "alert": tls.alert,
        "fingerprint": tls.fingerprint.hex() if tls.fingerprint else None,
        "subject": tls.subject,
        "issuer": tls.issuer,
        "self_signed": tls.self_signed,
        "expired": tls.expired,
    }


#: Marks a member without a default: its absence is a FormatError.
_REQUIRED = object()
_NONE = type(None)
_TEXT = (str, _NONE)
_FLAG = (bool, _NONE)


def _member(record: Dict, name: str, kinds: tuple,
            default: object = None, prefix: str = ""):
    """``record[name]`` if its type is one of ``kinds`` exactly (so a
    ``bool`` is not a number), ``default`` if absent; else
    :class:`FormatError` naming the member (``prefix`` + ``name``)."""
    value = record.get(name, _REQUIRED)
    if type(value) in kinds:
        return value
    if value is _REQUIRED:
        if default is not _REQUIRED:
            return default
        raise FormatError(f"grab record has no {prefix + name!r} member")
    expected = " or ".join("null" if kind is _NONE else kind.__name__
                           for kind in kinds)
    raise FormatError(f"grab member {prefix + name!r} is "
                      f"{type(value).__name__}, not {expected}")


def _hex_member(record: Dict, name: str, prefix: str = "") -> Optional[bytes]:
    """A hex-encoded fingerprint member (absent, null or empty: None)."""
    text = _member(record, name, _TEXT, prefix=prefix)
    if not text:
        return None
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise FormatError(f"grab member {prefix + name!r} is not hex: "
                          f"{text!r}") from None


def _tls_from_json(record: Dict) -> Optional[TlsObservation]:
    tls = _member(record, "tls", (dict, _NONE))
    if tls is None:
        return None
    return TlsObservation(
        ok=_member(tls, "ok", (bool,), _REQUIRED, "tls."),
        alert=_member(tls, "alert", (int, _NONE), prefix="tls."),
        fingerprint=_hex_member(tls, "fingerprint", "tls."),
        subject=_member(tls, "subject", _TEXT, prefix="tls."),
        issuer=_member(tls, "issuer", _TEXT, prefix="tls."),
        self_signed=_member(tls, "self_signed", _FLAG, prefix="tls."),
        expired=_member(tls, "expired", _FLAG, prefix="tls."),
    )


def grab_to_json(grab) -> Dict:
    base = {"addr": addrmod.format_address(grab.address),
            "time": grab.time, "ok": grab.ok}
    if isinstance(grab, HttpGrab):
        base.update(type="http", port=grab.port, status=grab.status,
                    title=grab.title, server=grab.server,
                    tls=_tls_to_json(grab.tls))
    elif isinstance(grab, SshGrab):
        base.update(
            type="ssh", banner=grab.banner, software=grab.software,
            comment=grab.comment, key_algorithm=grab.key_algorithm,
            key_fingerprint=(grab.key_fingerprint.hex()
                             if grab.key_fingerprint else None))
    elif isinstance(grab, BrokerGrab):
        base.update(type="broker", protocol=grab.protocol, port=grab.port,
                    open_access=grab.open_access, detail=grab.detail,
                    tls=_tls_to_json(grab.tls))
    elif isinstance(grab, CoapGrab):
        base.update(type="coap", resources=list(grab.resources))
    elif isinstance(grab, NtpGrab):
        base.update(type="ntp", version=grab.version, monlist=grab.monlist,
                    entries=grab.entries,
                    response_packets=grab.response_packets,
                    request_bytes=grab.request_bytes,
                    response_bytes=grab.response_bytes, port=grab.port)
    else:
        raise TypeError(f"not a grab: {grab!r}")
    return base


def grab_from_json(record: Dict):
    """The grab a :func:`grab_to_json` record describes.

    Total: a record that is not an object, lacks a required member or
    holds a member of the wrong type raises :class:`FormatError` naming
    the member.  Optional members may be absent; an ``ntp`` record has
    none.
    """
    if type(record) is not dict:
        raise FormatError(f"grab record is {type(record).__name__}, "
                          "not an object")
    kind = record.get("type")
    text = _member(record, "addr", (str,), _REQUIRED)
    try:
        address = addrmod.parse(text)
    except ValueError:
        raise FormatError(f"grab member 'addr' is not an IPv6 address: "
                          f"{text!r}") from None
    time = _member(record, "time", (int, float), _REQUIRED)
    ok = _member(record, "ok", (bool,), _REQUIRED)
    if kind == "http":
        return HttpGrab(
            address=address, time=time,
            port=_member(record, "port", (int,), _REQUIRED), ok=ok,
            status=_member(record, "status", (int, _NONE)),
            title=_member(record, "title", _TEXT),
            server=_member(record, "server", _TEXT),
            tls=_tls_from_json(record))
    if kind == "ssh":
        return SshGrab(
            address=address, time=time, ok=ok,
            banner=_member(record, "banner", _TEXT),
            software=_member(record, "software", _TEXT),
            comment=_member(record, "comment", _TEXT),
            key_algorithm=_member(record, "key_algorithm", _TEXT),
            key_fingerprint=_hex_member(record, "key_fingerprint"))
    if kind == "broker":
        return BrokerGrab(
            address=address, time=time,
            port=_member(record, "port", (int,), _REQUIRED),
            protocol=_member(record, "protocol", (str,), _REQUIRED), ok=ok,
            open_access=_member(record, "open_access", _FLAG),
            detail=_member(record, "detail", _TEXT),
            tls=_tls_from_json(record))
    if kind == "coap":
        resources = _member(record, "resources", (list,), [])
        if any(type(resource) is not str for resource in resources):
            raise FormatError(f"grab member 'resources' holds a non-string: "
                              f"{resources!r}")
        return CoapGrab(address=address, time=time, ok=ok,
                        resources=tuple(resources))
    if kind == "ntp":
        return NtpGrab(
            address=address, time=time, ok=ok,
            version=_member(record, "version", _TEXT, _REQUIRED),
            monlist=_member(record, "monlist", (bool,), _REQUIRED),
            entries=_member(record, "entries", (int,), _REQUIRED),
            response_packets=_member(record, "response_packets", (int,),
                                     _REQUIRED),
            request_bytes=_member(record, "request_bytes", (int,),
                                  _REQUIRED),
            response_bytes=_member(record, "response_bytes", (int,),
                                   _REQUIRED),
            port=_member(record, "port", (int,), _REQUIRED))
    raise FormatError(f"unknown grab type {kind!r}")


def save_results(results: ScanResults, path: PathLike) -> int:
    """Write scan results (zgrab2-style JSONL), every bucket in
    :meth:`~repro.scan.result.ScanResults.protocols` order; returns the
    record count."""

    def records() -> Iterator[Dict]:
        yield _header("scan-results", results.label)
        yield {"type": "meta", "targets_seen": results.targets_seen}
        for protocol in results.protocols():
            for grab in results.grabs(protocol):
                yield grab_to_json(grab)

    return _write_lines(path, records())


def document_to_json(document: Dict) -> str:
    """Serialize one JSON document with this module's conventions.

    The CLI's ``--format json`` output goes through here so command
    output and persisted files share one serializer (sorted keys,
    unescaped unicode).
    """
    return json.dumps(document, ensure_ascii=False, sort_keys=True,
                      indent=2)


# -- run reports ------------------------------------------------------------

def save_run_report(report: RunReport, path: PathLike) -> int:
    """Write a run report as line-diffable JSONL; returns record count.

    One record per metric series and per table, so ``diff`` between two
    report files shows exactly which series moved.
    """

    def records() -> Iterator[Dict]:
        yield _header("run-report", report.command)
        yield {"type": "meta", "command": report.command,
               "report_version": report.version}
        yield {"type": "config", "config": report.config}
        for kind in ("counters", "gauges", "histograms"):
            for entry in report.metrics.get(kind, ()):
                yield {"type": "metric", "kind": kind, **entry}
        for name in sorted(report.tables):
            yield {"type": "table", "name": name,
                   "data": report.tables[name]}

    return _write_lines(path, records())


def load_results(path: PathLike) -> ScanResults:
    """Read results written by :func:`save_results`.

    Like every result set, the loaded one holds answered grabs only: a
    refused grab record (``"ok": false``) is skipped undecoded.
    """
    records = _read_lines(path)
    try:
        label = _check_header(next(records), "scan-results")
    except StopIteration as exc:
        raise FormatError(f"{path}: empty file") from exc
    results = ScanResults(label=label)
    for record in records:
        if record.get("type") == "meta":
            results.targets_seen = record.get("targets_seen", 0)
            continue
        if record.get("ok") is False:
            continue
        try:
            grab = grab_from_json(record)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        results.add(grab)
    return results
