"""Scanning substrate: engine, ethics, protocol grab modules."""

from repro.scan.engine import (
    EngineConfig,
    ProbeExecutor,
    ScanEngine,
    ScanScheduler,
)
from repro.scan.ethics import EthicsPolicy, OptOutList, publish_scanner_identity
from repro.scan.result import (
    PROTOCOL_PORTS,
    PROTOCOLS,
    TLS_PROTOCOLS,
    BrokerGrab,
    CoapGrab,
    HttpGrab,
    ScanResults,
    SshGrab,
    TlsObservation,
)

__all__ = [
    "BrokerGrab",
    "CoapGrab",
    "EngineConfig",
    "EthicsPolicy",
    "OptOutList",
    "HttpGrab",
    "PROTOCOLS",
    "PROTOCOL_PORTS",
    "ProbeExecutor",
    "ScanEngine",
    "ScanScheduler",
    "ScanResults",
    "SshGrab",
    "TLS_PROTOCOLS",
    "TlsObservation",
    "publish_scanner_identity",
]
