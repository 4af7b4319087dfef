"""The paper's analyses: structure, device types, security, MACs, reuse."""

from repro.analysis import (
    aggregate,
    aliases,
    bundle,
    devicetypes,
    fingerprint,
    keyreuse,
    levenshtein,
    lifetime,
    macs,
    security,
    structure,
)
from repro.analysis.bundle import AnalysisBundle, run_analysis
from repro.analysis.devicetypes import DeviceTypeTable, build_table3
from repro.analysis.levenshtein import TitleClusterer
from repro.analysis.macs import MacReport, analyze_dataset
from repro.analysis.security import (
    AccessControlReport,
    OutdatednessReport,
    SecureShareReport,
    broker_access_control,
    ssh_outdatedness,
)
from repro.analysis.structure import StructureReport, analyze

__all__ = [
    "AccessControlReport",
    "AnalysisBundle",
    "DeviceTypeTable",
    "MacReport",
    "OutdatednessReport",
    "SecureShareReport",
    "StructureReport",
    "TitleClusterer",
    "aggregate",
    "aliases",
    "analyze",
    "analyze_dataset",
    "broker_access_control",
    "bundle",
    "build_table3",
    "devicetypes",
    "fingerprint",
    "keyreuse",
    "levenshtein",
    "lifetime",
    "macs",
    "run_analysis",
    "security",
    "ssh_outdatedness",
    "structure",
]
