"""Strategy attribution: classifying telescope clusters by behaviour.

The :class:`~repro.core.detection.ActorDetector` answers *who* (which
AS, overt or covert); this layer answers *how* — which address-discovery
strategy produced a cluster of inbound events.  Per-source-cluster
features are extracted from the raw :class:`~repro.core.telescope.
InboundEvent` stream:

* **bait-hit ratio** — share of events landing on revealed baits (only
  NTP-sourced scanners can find baits; scatter-only clusters cannot be
  NTP-sourced, however much they probe);
* **subnet locality** — destinations per destination /64 (TGAs pack
  candidates into seed /64s; residential sweeps touch many /64s once);
* **revisit ratio** — events per distinct (address, port) pair
  (hitlist replays revisit, generators do not);
* **IID structure** — share of low-IID destinations (broadband recon
  probes ``::1``-style gateway addresses);
* **PTR coverage** — share of destinations with reverse DNS (the rDNS
  walker probes only named hosts);
* **timing dispersion** and **port-set shape** — reported as evidence.

Feature state lives in :class:`FeatureAccumulator`, whose fields are
counters plus a time multiset, so folding the events of a cluster in
any order produces equal state.
:func:`attribute_events` is the entry point: events in,
:class:`AttributionReport` out, with per-strategy precision/recall and
a confusion matrix against the simulation's ground-truth labels.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.detection import SENSITIVE_PORTS
from repro.core.telescope import InboundEvent
from repro.net.rdns import ReverseDns
from repro.obs.metrics import current_registry

#: Clusters are source /48s — one scanner deployment's address block.
CLUSTER_PREFIX_BITS = 48

#: Below this many events a cluster gets no confident label.
MIN_CLUSTER_EVENTS = 2

#: NTP attribution needs at least one bait hit AND a majority of the
#: cluster's traffic on baits; guard-band wander that stumbles onto a
#: bait stays non-NTP.
NTP_BAIT_RATIO = 0.5

#: PTR coverage that marks an rDNS-walking cluster.
RDNS_PTR_SHARE = 0.8

#: Residential sweep: many /64s, ~one destination each, low IIDs.
RESIDENTIAL_MIN_SUBNETS = 8
RESIDENTIAL_MAX_CONCENTRATION = 1.5
RESIDENTIAL_LOW_IID_SHARE = 0.9

#: IIDs below this bound count as "low" (gateway-style addresses).
LOW_IID_BOUND = 0x10000

#: TGA: several distinct destinations packed into each /64.
TGA_MIN_CONCENTRATION = 3.0

#: Hitlist replay: events per (address, port) pair above this.
HITLIST_MIN_REVISIT = 1.5

#: Amplification recon: near-pure UDP/123 traffic (monlist sweeps
#: probe nothing else; no TCP service scan concentrates on port 123).
AMPLIFICATION_NTP_SHARE = 0.9

#: The NTP port, the amplification fingerprint's anchor.
NTP_PORT = 123

_IID_MASK = (1 << 64) - 1


def cluster_key(src: int) -> str:
    """The cluster label of a source address (its /48)."""
    return f"src {src >> (128 - CLUSTER_PREFIX_BITS):#x}/48"


# -- per-cluster feature state -------------------------------------------------


@dataclass
class FeatureAccumulator:
    """Canonical per-cluster state.

    Every field is a sum or a multiset, so the fold and its equality
    are order-insensitive — the property the Hypothesis suite pins.
    """

    events: int = 0
    bait_hits: int = 0
    sources: Counter = field(default_factory=Counter)
    dsts: Counter = field(default_factory=Counter)
    dst64s: Counter = field(default_factory=Counter)
    pairs: Counter = field(default_factory=Counter)
    ports: Counter = field(default_factory=Counter)
    times: Counter = field(default_factory=Counter)

    def add(self, event: InboundEvent) -> None:
        self.events += 1
        if event.bait is not None:
            self.bait_hits += 1
        self.sources[event.src] += 1
        self.dsts[event.dst] += 1
        self.dst64s[event.dst >> 64] += 1
        self.pairs[(event.dst, event.dst_port)] += 1
        self.ports[event.dst_port] += 1
        self.times[event.time] += 1


@dataclass(frozen=True)
class ClusterFeatures:
    """Derived, classification-ready view of one cluster."""

    event_count: int
    bait_hits: int
    bait_hit_ratio: float
    distinct_sources: int
    distinct_dsts: int
    distinct_dst64s: int
    dst64_concentration: float
    revisit_ratio: float
    low_iid_share: float
    ptr_share: float
    timing_dispersion: float
    port_count: int
    sensitive_share: float
    span: float
    #: Share of events aimed at UDP/123 (the amplification fingerprint).
    ntp_port_share: float = 0.0


def derive_features(accumulator: FeatureAccumulator, *,
                    rdns: Optional[ReverseDns] = None) -> ClusterFeatures:
    """Collapse an accumulator into the classifier's feature vector.

    ``rdns`` is consulted here, after the fold, so the accumulator
    itself stays a plain value.
    """
    distinct_dsts = len(accumulator.dsts)
    distinct_dst64s = len(accumulator.dst64s)
    low_iids = sum(1 for dst in accumulator.dsts
                   if (dst & _IID_MASK) < LOW_IID_BOUND)
    named = 0
    if rdns is not None:
        named = sum(1 for dst in accumulator.dsts
                    if rdns.lookup(dst) is not None)
    expanded = sorted(accumulator.times.elements())
    deltas = [later - earlier
              for earlier, later in zip(expanded, expanded[1:])]
    dispersion = 0.0
    if len(deltas) >= 2:
        mean = statistics.fmean(deltas)
        if mean > 0:
            dispersion = statistics.pstdev(deltas) / mean
    distinct_ports = set(accumulator.ports)
    return ClusterFeatures(
        event_count=accumulator.events,
        bait_hits=accumulator.bait_hits,
        bait_hit_ratio=(accumulator.bait_hits / accumulator.events
                        if accumulator.events else 0.0),
        distinct_sources=len(accumulator.sources),
        distinct_dsts=distinct_dsts,
        distinct_dst64s=distinct_dst64s,
        dst64_concentration=(distinct_dsts / distinct_dst64s
                             if distinct_dst64s else 0.0),
        revisit_ratio=(accumulator.events / len(accumulator.pairs)
                       if accumulator.pairs else 0.0),
        low_iid_share=(low_iids / distinct_dsts if distinct_dsts else 0.0),
        ptr_share=(named / distinct_dsts if distinct_dsts else 0.0),
        timing_dispersion=dispersion,
        port_count=len(distinct_ports),
        sensitive_share=(len(distinct_ports & SENSITIVE_PORTS)
                         / len(distinct_ports) if distinct_ports else 0.0),
        span=(expanded[-1] - expanded[0]) if expanded else 0.0,
        ntp_port_share=(accumulator.ports[NTP_PORT] / accumulator.events
                        if accumulator.events else 0.0),
    )


# -- classification -----------------------------------------------------------

#: The label of clusters below the evidence floor.
INSUFFICIENT = "insufficient"

#: Every strategy the classifier can emit (scored strategies only;
#: ``insufficient``/``unknown`` are non-labels).
STRATEGIES = ("ntp", "amplification", "rdns", "residential", "tga",
              "hitlist")


def classify_features(features: ClusterFeatures
                      ) -> Tuple[str, Tuple[str, ...]]:
    """One cluster's strategy verdict plus the reasons behind it.

    Precedence is deliberate: the bait signal is the strongest (only
    NTP-sourced scanners can learn bait addresses) but demands a bait
    *majority*, so scatter-only clusters and guard-band wander can
    never be attributed to an NTP actor; a near-pure UDP/123 port
    profile marks amplification recon; PTR coverage beats geometry;
    geometry (locality, IID structure) beats revisit behaviour.
    """
    if features.event_count < MIN_CLUSTER_EVENTS:
        return INSUFFICIENT, (
            f"only {features.event_count} event(s): below the "
            f"{MIN_CLUSTER_EVENTS}-event evidence floor",)
    if (features.bait_hits >= 1
            and features.bait_hit_ratio >= NTP_BAIT_RATIO):
        return "ntp", (
            f"{features.bait_hit_ratio:.0%} of events land on revealed "
            "baits — the addresses only an NTP-sourced scanner can know",)
    if features.ntp_port_share >= AMPLIFICATION_NTP_SHARE:
        return "amplification", (
            f"{features.ntp_port_share:.0%} of events aim at UDP/123: "
            "a monlist amplification sweep",)
    if features.ptr_share >= RDNS_PTR_SHARE:
        return "rdns", (
            f"{features.ptr_share:.0%} of destinations carry PTR "
            "records: a reverse-DNS zone walk",)
    if (features.distinct_dst64s >= RESIDENTIAL_MIN_SUBNETS
            and features.dst64_concentration
            <= RESIDENTIAL_MAX_CONCENTRATION
            and features.low_iid_share >= RESIDENTIAL_LOW_IID_SHARE):
        return "residential", (
            f"{features.distinct_dst64s} /64s probed at ~1 low-IID "
            "address each: a broadband prefix sweep",)
    if features.dst64_concentration >= TGA_MIN_CONCENTRATION:
        return "tga", (
            f"{features.dst64_concentration:.1f} destinations per /64: "
            "candidates generated around seed subnets",)
    if features.revisit_ratio >= HITLIST_MIN_REVISIT:
        return "hitlist", (
            f"{features.revisit_ratio:.1f} probes per (address, port): "
            "a replayed target list",)
    return "unknown", ("no strategy signature matched",)


# -- extraction ---------------------------------------------------------------


def cluster_accumulators(events: Sequence[InboundEvent]
                         ) -> Dict[str, FeatureAccumulator]:
    """Per-cluster accumulators, each event folded once into its
    cluster's, clusters in order of first appearance."""
    accumulators: Dict[str, FeatureAccumulator] = {}
    for event in events:
        key = cluster_key(event.src)
        accumulator = accumulators.get(key)
        if accumulator is None:
            accumulator = accumulators[key] = FeatureAccumulator()
        accumulator.add(event)
    return accumulators


# -- the report ---------------------------------------------------------------


@dataclass(frozen=True)
class ClusterAttribution:
    """One cluster's verdict, evidence, and ground-truth label."""

    cluster: str
    strategy: str
    truth: Optional[str]
    features: ClusterFeatures
    reasons: Tuple[str, ...]


#: Confusion-matrix row label for clusters without ground truth.
UNLABELED = "(unlabeled)"


@dataclass
class AttributionReport:
    """Every cluster's attribution plus ground-truth scoring."""

    attributions: List[ClusterAttribution]

    def confusion(self) -> Dict[str, Dict[str, int]]:
        """truth → predicted → cluster count (unlabeled rows included)."""
        matrix: Dict[str, Dict[str, int]] = {}
        for attribution in self.attributions:
            truth = attribution.truth or UNLABELED
            row = matrix.setdefault(truth, {})
            row[attribution.strategy] = row.get(attribution.strategy, 0) + 1
        return {truth: dict(sorted(row.items()))
                for truth, row in sorted(matrix.items())}

    def strategy_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-strategy precision/recall/support over labeled clusters."""
        labeled = [a for a in self.attributions if a.truth is not None]
        metrics: Dict[str, Dict[str, float]] = {}
        for strategy in STRATEGIES:
            predicted = [a for a in labeled if a.strategy == strategy]
            actual = [a for a in labeled if a.truth == strategy]
            true_positives = sum(1 for a in predicted
                                 if a.truth == strategy)
            metrics[strategy] = {
                "precision": (true_positives / len(predicted)
                              if predicted else 0.0),
                "recall": (true_positives / len(actual)
                           if actual else 0.0),
                "support": len(actual),
            }
        return metrics

    def diagonal_accuracy(self) -> float:
        """Share of labeled clusters attributed to their true strategy."""
        labeled = [a for a in self.attributions if a.truth is not None]
        if not labeled:
            return 0.0
        return (sum(1 for a in labeled if a.strategy == a.truth)
                / len(labeled))

    def tables(self) -> dict:
        """The report's canonical table shapes (RunReport payload)."""
        return {
            "attribution": [
                {"cluster": a.cluster, "strategy": a.strategy,
                 "truth": a.truth, "events": a.features.event_count,
                 "bait_hit_ratio": a.features.bait_hit_ratio,
                 "dst64s": a.features.distinct_dst64s,
                 "dst64_concentration": a.features.dst64_concentration,
                 "revisit_ratio": a.features.revisit_ratio,
                 "low_iid_share": a.features.low_iid_share,
                 "ptr_share": a.features.ptr_share,
                 "timing_dispersion": a.features.timing_dispersion,
                 "ports": a.features.port_count,
                 "reasons": list(a.reasons)}
                for a in self.attributions
            ],
            "confusion": self.confusion(),
            "strategy_metrics": self.strategy_metrics(),
            "accuracy": {
                "diagonal": self.diagonal_accuracy(),
                "clusters": len(self.attributions),
                "labeled": sum(1 for a in self.attributions
                               if a.truth is not None),
            },
        }


def _cluster_truth(accumulator: FeatureAccumulator,
                   truth: Mapping[int, str]) -> Optional[str]:
    """Majority ground-truth strategy of a cluster's sources."""
    labels = Counter(truth[src] for src in accumulator.sources
                     if src in truth)
    if not labels:
        return None
    # Deterministic even on ties: highest count, then name order.
    return min(labels.items(), key=lambda item: (-item[1], item[0]))[0]


def attribute_events(events: Sequence[InboundEvent], *,
                     truth: Optional[Mapping[int, str]] = None,
                     rdns: Optional[ReverseDns] = None
                     ) -> AttributionReport:
    """Attribute every source cluster of an event stream."""
    clusters = cluster_accumulators(events)
    registry = current_registry()
    attributions = []
    for key in sorted(clusters):
        accumulator = clusters[key]
        features = derive_features(accumulator, rdns=rdns)
        strategy, reasons = classify_features(features)
        registry.counter("attribution_clusters_total",
                         strategy=strategy).inc()
        attributions.append(ClusterAttribution(
            cluster=key, strategy=strategy,
            truth=_cluster_truth(accumulator, truth or {}),
            features=features, reasons=reasons))
    return AttributionReport(attributions=attributions)
