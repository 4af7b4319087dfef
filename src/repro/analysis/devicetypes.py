"""Device-type identification (Section 4.3, Table 3).

Three protocol-specific indicators approximate what kind of deployment
answered a probe:

* **HTTP(S)** — the HTML page title of status-200 responses, grouped by
  normalized Levenshtein distance, counted per *unique certificate*;
* **SSH** — the OS distribution named in the server identification
  string, counted per *unique host key*;
* **CoAP** — the advertised resource set, bucketed by well-known
  prefixes (castdevice, qlink, efento, nanoleaf, …), counted per
  address.

Each column of one side counts one ``analysis_jobs_total`` on the
current metrics registry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.levenshtein import (
    DEFAULT_THRESHOLD,
    ClusterStats,
    TitleGroup,
    cluster_counts,
    within,
)
from repro.obs import current_registry
from repro.proto.ssh import SshIdentification, extract_os
from repro.scan.result import ScanResults

#: Placeholder label for responses without an HTML title *tag*.
NO_TITLE = "(no title present)"

#: Placeholder label for an empty-but-present ``<title></title>``.
#: Distinct from :data:`NO_TITLE`: a present-but-empty tag is a
#: different (often device-identifying) behaviour than no tag at all,
#: so the two must not collapse into one group.
EMPTY_TITLE = "(empty title)"

#: Table 3's SSH rows.
SSH_OS_BUCKETS = ("Ubuntu", "Debian", "Raspbian", "FreeBSD", "other/unknown")

#: Table 3's CoAP rows, in classification order.
COAP_GROUPS = ("castdevice", "qlink", "efento", "nanoleaf", "empty", "other")

#: A device group is underrepresented when its NTP count exceeds this
#: many times its hitlist count.
UNDERREPRESENTED_FACTOR = 5.0


# -- HTTP ---------------------------------------------------------------

def _title_label(title: Optional[str]) -> str:
    """A grab's title as a grouping label.

    ``None`` (no ``<title>`` tag at all) and ``""`` (a present but
    empty tag) are distinct behaviours and get distinct labels — the
    seed implementation's ``title or NO_TITLE`` collapsed both into
    :data:`NO_TITLE`.
    """
    if title is None:
        return NO_TITLE
    if title == "":
        return EMPTY_TITLE
    return title


def http_titles_by_certificate(results: ScanResults) -> Dict[bytes, str]:
    """Map each unique certificate to the title it served.

    Follows the paper's filters: TLS-enabled endpoints only, HTTP
    status 200 only (excludes CDN error pages).  The first title seen
    for a certificate wins; devices of one type serve one page anyway.
    """
    titles: Dict[bytes, str] = {}
    for grab in results.https:
        if not grab.ok or grab.status != 200:
            continue
        if grab.tls is None or not grab.tls.ok or grab.tls.fingerprint is None:
            continue
        titles.setdefault(grab.tls.fingerprint, _title_label(grab.title))
    return titles


def http_title_groups(results: ScanResults,
                      dataset: str = "") -> List[TitleGroup]:
    """Table 3 (HTTP): title groups weighted by unique certificates.

    Clustering work (pairs compared, DP cells, band early-exits,
    pruned candidates) is published as ``analysis_*`` counters on the
    current metrics registry, labeled with ``dataset`` when given.
    """
    registry = current_registry()
    registry.counter("analysis_jobs_total").inc()
    counts = Counter(http_titles_by_certificate(results).values())
    stats = ClusterStats()
    groups = cluster_counts(counts.items(), threshold=DEFAULT_THRESHOLD,
                            stats=stats)
    labels = {"table": "table3_http"}
    if dataset:
        labels["dataset"] = dataset
    stats.publish(registry, **labels)
    return groups


# -- SSH ----------------------------------------------------------------

def ssh_os_by_key(results: ScanResults) -> Dict[bytes, str]:
    """Map each unique host key to the OS its banner names."""
    os_by_key: Dict[bytes, str] = {}
    for grab in results.ssh:
        if not grab.ok or grab.key_fingerprint is None or grab.banner is None:
            continue
        identification = SshIdentification(
            protocol="2.0",
            software=grab.software or "",
            comment=grab.comment,
        )
        os_by_key.setdefault(grab.key_fingerprint, extract_os(identification))
    return os_by_key


def ssh_os_counts(results: ScanResults) -> Dict[str, int]:
    """Table 3 (SSH): host keys per OS bucket."""
    current_registry().counter("analysis_jobs_total").inc()
    counts = Counter(ssh_os_by_key(results).values())
    table = {bucket: 0 for bucket in SSH_OS_BUCKETS}
    for os_name, count in counts.items():
        bucket = os_name if os_name in table else "other/unknown"
        table[bucket] += count
    return table


# -- CoAP ---------------------------------------------------------------

def coap_resource_group(resources: Sequence[str]) -> str:
    """Classify an advertised resource set into Table 3's buckets."""
    if not resources:
        return "empty"
    joined = " ".join(resources)
    if any(r.startswith("/castDevice") for r in resources):
        return "castdevice"
    if any(r.startswith("/qlink") for r in resources):
        return "qlink"
    if {"/m", "/c", "/t"} <= set(resources) or "efento" in joined:
        return "efento"
    if any(r.startswith("/panel") for r in resources) or "nanoleaf" in joined:
        return "nanoleaf"
    meaningful = [r for r in resources if r != "/.well-known/core"]
    if not meaningful:
        return "empty"
    return "other"


def coap_mac_dedup(results: ScanResults) -> Tuple[int, int]:
    """Deduplicate responsive CoAP endpoints by embedded MAC address.

    Table 2's footnote for CoAP: lacking TLS certificates, the paper
    filters CoAP finds by the EUI-64-embedded MAC and reports ~70 %
    unique — evidence the scan did not keep re-finding the same boxes.
    Returns ``(addresses_with_mac, distinct_macs)``.
    """
    from repro.ipv6 import eui64

    macs: set = set()
    with_mac = 0
    seen: set = set()
    for grab in results.coap:
        if not grab.ok or grab.address in seen:
            continue
        seen.add(grab.address)
        mac = eui64.extract_mac(grab.address)
        if mac is not None:
            with_mac += 1
            macs.add(mac)
    return with_mac, len(macs)


def coap_group_counts(results: ScanResults) -> Dict[str, int]:
    """Table 3 (CoAP): responsive addresses per resource group."""
    current_registry().counter("analysis_jobs_total").inc()
    table = {group: 0 for group in COAP_GROUPS}
    seen: set = set()
    for grab in results.coap:
        if not grab.ok or grab.address in seen:
            continue
        seen.add(grab.address)
        table[coap_resource_group(grab.resources)] += 1
    return table


# -- the combined Table 3 -------------------------------------------------

@dataclass(frozen=True)
class DeviceTypeTable:
    """Table 3 for one pair of campaigns (NTP vs hitlist)."""

    http_ntp: Tuple[TitleGroup, ...]
    http_hitlist: Tuple[TitleGroup, ...]
    ssh_ntp: Mapping[str, int]
    ssh_hitlist: Mapping[str, int]
    coap_ntp: Mapping[str, int]
    coap_hitlist: Mapping[str, int]

    def http_group(self, side: str, representative: str,
                   threshold: Optional[float] = None) -> Optional[TitleGroup]:
        """The group a representative title belongs to on one side.

        Matches by representative equality, then by membership, then —
        when ``threshold`` is given — by the normalized-distance
        threshold against each group's representative.  Membership
        matches take precedence over threshold matches so a title that
        was actually clustered into a group is never re-attributed to
        a nearer-by-representative neighbour.
        """
        groups = self.http_ntp if side == "ntp" else self.http_hitlist
        for group in groups:
            if group.representative == representative or \
                    representative in group.members:
                return group
        if threshold is not None:
            for group in groups:
                if within(representative, group.representative, threshold):
                    return group
        return None

    def http_group_count(self, side: str, representative: str) -> int:
        """Certificates in the group whose representative matches."""
        group = self.http_group(side, representative)
        return group.count if group is not None else 0


def build_table3(ntp: ScanResults, hitlist: ScanResults) -> DeviceTypeTable:
    """Compute the full Table 3 from two scan campaigns, NTP column
    before hitlist column: HTTP titles, then SSH OSes, then CoAP."""
    return DeviceTypeTable(
        http_ntp=tuple(http_title_groups(ntp, dataset="ntp")),
        http_hitlist=tuple(http_title_groups(hitlist, dataset="hitlist")),
        ssh_ntp=ssh_os_counts(ntp),
        ssh_hitlist=ssh_os_counts(hitlist),
        coap_ntp=coap_group_counts(ntp),
        coap_hitlist=coap_group_counts(hitlist),
    )


def new_or_underrepresented(table: DeviceTypeTable
                            ) -> Dict[str, Tuple[int, int]]:
    """Device groups the hitlist misses or underrepresents.

    Returns ``{group: (ntp_count, hitlist_count)}`` for every HTTP
    title group, SSH OS, and CoAP group where the NTP count exceeds
    :data:`UNDERREPRESENTED_FACTOR` × the hitlist count — the basis of
    the paper's "283 867 new or underrepresented devices" headline.

    HTTP matching goes through :meth:`DeviceTypeTable.http_group`:
    the two sides are clustered independently, so the hitlist group
    covering an NTP representative may carry a *different*
    representative — the seed implementation matched representatives
    exactly and therefore scored such groups as hitlist misses,
    inflating the headline.  Titleless buckets (:data:`NO_TITLE`,
    :data:`EMPTY_TITLE`) identify no device type and stay excluded.
    """
    findings: Dict[str, Tuple[int, int]] = {}
    for group in table.http_ntp:
        if group.representative in (NO_TITLE, EMPTY_TITLE):
            continue
        match = table.http_group("hitlist", group.representative,
                                 threshold=DEFAULT_THRESHOLD)
        hit = match.count if match is not None else 0
        if group.count > UNDERREPRESENTED_FACTOR * hit:
            findings[f"http:{group.representative}"] = (group.count, hit)
    for os_name in SSH_OS_BUCKETS[:-1]:
        ntp_count = table.ssh_ntp.get(os_name, 0)
        hit_count = table.ssh_hitlist.get(os_name, 0)
        if ntp_count > UNDERREPRESENTED_FACTOR * hit_count:
            findings[f"ssh:{os_name}"] = (ntp_count, hit_count)
    for group in COAP_GROUPS:
        ntp_count = table.coap_ntp.get(group, 0)
        hit_count = table.coap_hitlist.get(group, 0)
        if ntp_count > UNDERREPRESENTED_FACTOR * hit_count:
            findings[f"coap:{group}"] = (ntp_count, hit_count)
    return findings
