"""The Section-4/6 analysis bundle of one pair of scan campaigns.

The Table/Figure computations over a finished pair of scan campaigns
are mutually independent — each side of Table 3 (HTTP title clustering,
SSH OS buckets, CoAP resource groups), the Figure-2 SSH outdatedness
assessment, the Figure-3 broker access-control classification, and the
Section-6 key-reuse sweep each read only their own slice of the
immutable :class:`~repro.scan.result.ScanResults`.
:func:`run_analysis` runs them in a fixed order, the NTP side before
the hitlist side, and collects the results in one
:class:`AnalysisBundle`.

Every computation records into the current
:class:`~repro.obs.metrics.MetricsRegistry`, and
``analysis_jobs_total`` counts one per table or figure computation, so
the ``analysis_*`` series are a deterministic tally of the work done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis import devicetypes, keyreuse, security
from repro.analysis.devicetypes import DeviceTypeTable
from repro.analysis.keyreuse import ReuseReport
from repro.analysis.security import (
    AccessControlReport,
    OutdatednessReport,
    SecureShareReport,
)
from repro.obs.metrics import current_registry
from repro.scan.result import ScanResults
from repro.world.asdb import AsDatabase

#: The two dataset sides every analysis run covers, in order.
SIDES = ("ntp", "hitlist")

#: Broker protocol families of Figure 3, in order.
BROKER_PROTOCOLS = ("mqtt", "amqp")


@dataclass
class AnalysisBundle:
    """Every Section-4/6 artefact of one analysis run."""

    table3: DeviceTypeTable
    ssh: Dict[str, OutdatednessReport]
    brokers: Dict[Tuple[str, str], AccessControlReport]
    secure: Dict[str, SecureShareReport]
    keyreuse: Dict[str, ReuseReport] = field(default_factory=dict)

    def security_gap(self) -> Tuple[SecureShareReport, SecureShareReport]:
        """The paper's headline pair: (NTP report, hitlist report)."""
        return self.secure["ntp"], self.secure["hitlist"]


def run_analysis(ntp: ScanResults, hitlist: ScanResults, *,
                 asdb: Optional[AsDatabase] = None) -> AnalysisBundle:
    """Run every table and figure computation over both campaign sides.

    Key reuse requires ``asdb`` and is skipped without one (offline
    re-analysis of saved scan files has no AS database).
    """
    jobs = current_registry().counter("analysis_jobs_total")

    def job(value):
        jobs.inc()
        return value

    http, ssh_os, coap = {}, {}, {}
    ssh, brokers, reuse = {}, {}, {}
    for side, results in zip(SIDES, (ntp, hitlist)):
        http[side] = job(tuple(devicetypes.http_title_groups(
            results, dataset=side)))
        ssh_os[side] = job(devicetypes.ssh_os_counts(results))
        coap[side] = job(devicetypes.coap_group_counts(results))
        ssh[side] = job(security.ssh_outdatedness(side, results))
        for protocol in BROKER_PROTOCOLS:
            brokers[(side, protocol)] = job(
                security.broker_access_control(side, results, protocol))
        if asdb is not None:
            reuse[side] = job(keyreuse.analyze(side, results, asdb))

    secure = {}
    for side in SIDES:
        mqtt = brokers[(side, "mqtt")]
        amqp = brokers[(side, "amqp")]
        secure[side] = SecureShareReport(
            label=side,
            ssh_assessed=ssh[side].assessed,
            ssh_secure=ssh[side].up_to_date,
            brokers_total=mqtt.total + amqp.total,
            brokers_secure=mqtt.controlled + amqp.controlled,
        )
    return AnalysisBundle(
        table3=DeviceTypeTable(
            http_ntp=http["ntp"], http_hitlist=http["hitlist"],
            ssh_ntp=ssh_os["ntp"], ssh_hitlist=ssh_os["hitlist"],
            coap_ntp=coap["ntp"], coap_hitlist=coap["hitlist"],
        ),
        ssh=ssh,
        brokers=brokers,
        secure=secure,
        keyreuse=reuse,
    )
