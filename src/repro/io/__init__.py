"""Persistence: JSONL formats for datasets, scan results, run reports."""

from repro.io.jsonl import (
    FORMAT_VERSION,
    FormatError,
    document_to_json,
    grab_from_json,
    grab_to_json,
    load_results,
    save_dataset,
    save_results,
    save_run_report,
    to_canonical_json,
)

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
    "document_to_json",
    "grab_from_json",
    "grab_to_json",
    "load_results",
    "save_dataset",
    "save_results",
    "save_run_report",
    "to_canonical_json",
]
