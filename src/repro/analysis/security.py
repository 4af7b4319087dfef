"""Security-configuration analyses (Section 4.4, Figures 2–3).

* **SSH up-to-dateness** — Debian-derived servers expose their package
  patch level in the banner; any non-latest level counts as outdated
  (stable updates only ship security/important fixes).  Counted per
  unique host key.
* **Broker access control** — an MQTT CONNACK 0 to an anonymous
  CONNECT, or an AMQP Tune after an ANONYMOUS Start-Ok, marks the
  broker *open*; refusals mark it access-controlled.
* **Combined secure share** — the paper's headline (43.5 % of hitlist
  hosts vs 28.4 % of NTP-sourced hosts appear secure): up-to-date SSH
  servers and access-controlled brokers over all assessable hosts,
  added up from one dataset's Figure-2 and Figure-3 reports by
  :meth:`SecureShareReport.combine`.

Each assessment counts one ``analysis_jobs_total`` on the current
metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.data.ssh_releases import is_outdated
from repro.obs.metrics import current_registry
from repro.proto.ssh import SshIdentification, debian_patch_level
from repro.scan.result import BrokerGrab, ScanResults, SshGrab


# -- SSH up-to-dateness (Figure 2) ---------------------------------------

@dataclass(frozen=True)
class OutdatednessReport:
    """Figure 2's bar for one dataset."""

    label: str
    assessed: int
    outdated: int
    #: Hosts whose banner hides the patch level (excluded, as in paper).
    unassessable: int

    @property
    def outdated_share(self) -> float:
        return self.outdated / self.assessed if self.assessed else 0.0

    @property
    def up_to_date(self) -> int:
        return self.assessed - self.outdated


def _grab_outdated(grab: SshGrab) -> Optional[bool]:
    """Outdated verdict for one grab; None when not assessable."""
    if not grab.ok or grab.banner is None:
        return None
    identification = SshIdentification(
        protocol="2.0", software=grab.software or "", comment=grab.comment,
    )
    parsed = debian_patch_level(identification)
    if parsed is None:
        return None
    upstream, patch = parsed
    distro = (grab.comment or "").split("-", 1)[0]
    return is_outdated(distro, upstream, patch)


def ssh_outdatedness(label: str, results: ScanResults,
                     by_key: bool = True) -> OutdatednessReport:
    """Assess SSH patch levels, deduplicated by host key (default).

    A host key's slot is only consumed by an *assessable* grab: if the
    first grab presenting a key hides its patch level (the seed
    implementation burned the key on it), a later assessable grab with
    the same key still counts.  ``unassessable`` tallies keys that
    never produced an assessable banner — per key, not per grab.

    With ``by_key=False`` every responsive address counts separately —
    the Appendix C (Figure 5) view, where key reuse inflates outdated
    hosts.
    """
    current_registry().counter("analysis_jobs_total").inc()
    assessed = outdated = unassessable = 0
    if by_key:
        assessed_keys: set = set()
        unassessable_keys: set = set()
        for grab in results.ssh:
            if not grab.ok or grab.key_fingerprint is None:
                continue
            if grab.key_fingerprint in assessed_keys:
                continue
            verdict = _grab_outdated(grab)
            if verdict is None:
                unassessable_keys.add(grab.key_fingerprint)
                continue
            assessed_keys.add(grab.key_fingerprint)
            unassessable_keys.discard(grab.key_fingerprint)
            assessed += 1
            if verdict:
                outdated += 1
        unassessable = len(unassessable_keys)
    else:
        for grab in results.ssh:
            if not grab.ok:
                continue
            verdict = _grab_outdated(grab)
            if verdict is None:
                unassessable += 1
                continue
            assessed += 1
            if verdict:
                outdated += 1
    return OutdatednessReport(label=label, assessed=assessed,
                              outdated=outdated, unassessable=unassessable)


# -- broker access control (Figure 3) -------------------------------------

@dataclass(frozen=True)
class AccessControlReport:
    """Figure 3's bars for one (protocol, dataset) pair."""

    label: str
    protocol: str
    open_count: int
    controlled: int
    unknown: int

    @property
    def total(self) -> int:
        return self.open_count + self.controlled

    @property
    def access_control_share(self) -> float:
        return self.controlled / self.total if self.total else 0.0

    @property
    def open_share(self) -> float:
        return self.open_count / self.total if self.total else 0.0


def broker_access_control(label: str, results: ScanResults,
                          protocol: str,
                          by_network: Optional[int] = None) -> AccessControlReport:
    """Classify broker deployments of one protocol family.

    Deduplicates by address (or by ``/by_network`` prefix for the
    Appendix C view); the TLS variant's grabs are merged in, as the
    paper reports one MQTT and one AMQP figure.  Per dedup key,
    the first *conclusive* verdict wins over any number of
    ``open_access=None`` grabs — the seed implementation consumed the
    key on the first grab regardless, so an inconclusive plaintext grab
    silently discarded the conclusive TLS-variant grab merged in after
    it.
    """
    current_registry().counter("analysis_jobs_total").inc()
    grabs: List[BrokerGrab] = list(results.grabs(protocol))
    grabs += list(results.grabs(protocol + "s"))
    verdicts: dict = {}
    for grab in grabs:
        if not grab.ok:
            continue
        key = grab.address if by_network is None else \
            grab.address >> (128 - by_network)
        if key not in verdicts or (verdicts[key] is None
                                   and grab.open_access is not None):
            verdicts[key] = grab.open_access
    open_count = controlled = unknown = 0
    for verdict in verdicts.values():
        if verdict is None:
            unknown += 1
        elif verdict:
            open_count += 1
        else:
            controlled += 1
    return AccessControlReport(label=label, protocol=protocol,
                               open_count=open_count, controlled=controlled,
                               unknown=unknown)


# -- the combined headline -------------------------------------------------

@dataclass(frozen=True)
class SecureShareReport:
    """The 43.5 % → 28.4 % comparison input for one dataset."""

    label: str
    ssh_assessed: int
    ssh_secure: int
    brokers_total: int
    brokers_secure: int

    @property
    def total(self) -> int:
        return self.ssh_assessed + self.brokers_total

    @property
    def secure(self) -> int:
        return self.ssh_secure + self.brokers_secure

    @property
    def secure_share(self) -> float:
        return self.secure / self.total if self.total else 0.0

    @classmethod
    def combine(cls, ssh: OutdatednessReport, mqtt: AccessControlReport,
                amqp: AccessControlReport) -> "SecureShareReport":
        """One dataset's headline: its up-to-date SSH keys and
        access-controlled MQTT and AMQP brokers over all assessed."""
        return cls(
            label=ssh.label,
            ssh_assessed=ssh.assessed,
            ssh_secure=ssh.up_to_date,
            brokers_total=mqtt.total + amqp.total,
            brokers_secure=mqtt.controlled + amqp.controlled,
        )
