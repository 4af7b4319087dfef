"""The Section-4/6 analysis bundle of one pair of scan campaigns.

:func:`run_analysis` is the one place that decides which computations
make up Table 3, Figures 2–3, the combined secure share and key reuse:
every table, window and report formats from its
:class:`AnalysisBundle`, never from a second computation.  The
computations are mutually independent — each reads only its own slice
of the immutable :class:`~repro.scan.result.ScanResults` — and run in a
fixed order: Table 3 (:func:`~repro.analysis.devicetypes.build_table3`),
then per dataset, NTP before hitlist, Figure 2's SSH outdatedness,
Figure 3's MQTT and AMQP access control and Section 6's key reuse.

Every building block records into the current
:class:`~repro.obs.metrics.MetricsRegistry` and counts itself in
``analysis_jobs_total``, so the ``analysis_*`` series are a
deterministic tally of the work done: 14 jobs with an AS database, 12
without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import devicetypes, keyreuse, security
from repro.analysis.devicetypes import DeviceTypeTable
from repro.analysis.keyreuse import ReuseReport
from repro.analysis.security import (
    AccessControlReport,
    OutdatednessReport,
    SecureShareReport,
)
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

    def table3_rows(self) -> List[dict]:
        """Table 3's JSON rows: certificates in the NTP side's eight
        largest title groups, with the hitlist's count for each."""
        return [
            {"group": group.representative, "ntp_certs": group.count,
             "hitlist_certs":
                 self.table3.http_group_count("hitlist",
                                              group.representative)}
            for group in self.table3.http_ntp[:8]
        ]

    def secure_share_rows(self) -> Dict[str, dict]:
        """The headline pair as JSON: share and total per side."""
        return {side: {"secure_share": report.secure_share,
                       "total": report.total}
                for side, report in self.secure.items()}


def table2_rows(ntp: ScanResults, hitlist: ScanResults,
                protocols: Iterable[str]) -> List[dict]:
    """Table 2's JSON rows: responsive addresses per protocol."""
    return [
        {"protocol": protocol,
         "ntp_responsive": len(ntp.responsive_addresses(protocol)),
         "hitlist_responsive": len(hitlist.responsive_addresses(protocol))}
        for protocol in protocols
    ]


def run_analysis(ntp: ScanResults, hitlist: ScanResults, *,
                 asdb: Optional[AsDatabase] = None) -> AnalysisBundle:
    """Run every table and figure computation over both campaign sides.

    Key reuse requires ``asdb`` and is skipped without one (offline
    re-analysis of saved scan files has no AS database).
    """
    table3 = devicetypes.build_table3(ntp, hitlist)
    ssh, brokers, secure, reuse = {}, {}, {}, {}
    for side, results in zip(SIDES, (ntp, hitlist)):
        ssh[side] = security.ssh_outdatedness(side, results)
        for protocol in BROKER_PROTOCOLS:
            brokers[(side, protocol)] = security.broker_access_control(
                side, results, protocol)
        secure[side] = SecureShareReport.combine(
            ssh[side], brokers[(side, "mqtt")], brokers[(side, "amqp")])
        if asdb is not None:
            reuse[side] = keyreuse.analyze(side, results, asdb)
    return AnalysisBundle(table3=table3, ssh=ssh, brokers=brokers,
                          secure=secure, keyreuse=reuse)
