"""Readers of the JSONL files the program writes but never reads back.

The program saves collected datasets (:func:`repro.io.save_dataset`)
and run reports (:func:`repro.io.save_run_report`) for other tools; it
reads back only scan results (:func:`repro.io.load_results`).  Tests
round-trip the other two formats through these readers, which check
the same header and record framing as ``load_results``.
"""

from typing import Any, Dict

from repro.core.collector import AddressObservation, CollectedDataset
from repro.io.jsonl import FormatError, _check_header, _read_lines
from repro.ipv6 import address as addrmod
from repro.obs.runreport import RUN_REPORT_VERSION, RunReport


def load_dataset(path) -> CollectedDataset:
    """Read a dataset written by :func:`repro.io.save_dataset`."""
    records = _read_lines(path)
    try:
        label = _check_header(next(records), "dataset")
    except StopIteration as exc:
        raise FormatError(f"{path}: empty file") from exc
    dataset = CollectedDataset(label=label)
    for record in records:
        if record.get("type") == "server":
            dataset.per_server.setdefault(record["location"], set())
        elif record.get("type") == "address":
            value = addrmod.parse(record["addr"])
            dataset.observations[value] = AddressObservation(
                first_seen=record["first_seen"],
                last_seen=record["last_seen"],
                requests=record["requests"],
            )
            dataset.total_requests += record["requests"]
            for location in record.get("servers", []):
                dataset.per_server.setdefault(location, set()).add(value)
        else:
            raise FormatError(f"unknown record type {record.get('type')!r}")
    return dataset


def report_from_document(document: Dict[str, Any]) -> RunReport:
    """The :class:`RunReport` whose ``as_document()`` is ``document``."""
    version = document.get("version")
    if version != RUN_REPORT_VERSION:
        raise ValueError(f"unsupported run-report version {version!r}")
    return RunReport(
        command=document["command"],
        config=document.get("config", {}),
        metrics=document.get("metrics", {}),
        tables=document.get("tables", {}),
        version=version,
    )


def load_run_report(path) -> RunReport:
    """Read a report written by :func:`repro.io.save_run_report`."""
    records = _read_lines(path)
    try:
        _check_header(next(records), "run-report")
    except StopIteration as exc:
        raise FormatError(f"{path}: empty file") from exc
    command, version = "", None
    config: Dict = {}
    metrics: Dict[str, list] = {"counters": [], "gauges": [],
                                "histograms": []}
    tables: Dict = {}
    for record in records:
        kind = record.get("type")
        if kind == "meta":
            command = record.get("command", "")
            version = record.get("report_version")
        elif kind == "config":
            config = record.get("config", {})
        elif kind == "metric":
            series_kind = record.get("kind")
            if series_kind not in metrics:
                raise FormatError(f"unknown metric kind {series_kind!r}")
            entry = {key: value for key, value in record.items()
                     if key not in ("type", "kind")}
            metrics[series_kind].append(entry)
        elif kind == "table":
            tables[record["name"]] = record.get("data")
        else:
            raise FormatError(f"unknown record type {kind!r}")
    return report_from_document({
        "command": command, "version": version, "config": config,
        "metrics": metrics, "tables": tables,
    })
