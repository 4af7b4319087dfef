"""Telescope attribution edge cases: when NOT to say "NTP-sourced".

The bait signal is the strongest attribution evidence the telescope
has, so the classifier must be conservative about it.  This pack pins
the three ways a cluster can *look* NTP-adjacent without being so:

* **scatter-only** clusters (no bait hit at all) must never be
  attributed to an NTP actor, whatever their geometry;
* **single-probe** clusters are below the evidence floor and must
  report ``insufficient`` rather than any confident label;
* **guard-band wander** — a sweep of the bait /48 that stumbles onto
  a revealed bait in passing — must stay non-NTP because bait hits
  are a minority of its traffic.

Each property is exercised twice: synthetically against the classifier
(Hypothesis, exhaustive over ratios) and end-to-end through a simulated
telescope capture.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import (
    INSUFFICIENT,
    MIN_CLUSTER_EVENTS,
    NTP_BAIT_RATIO,
    FeatureAccumulator,
    attribute_events,
    classify_features,
    derive_features,
)
from repro.core.telescope import (
    BAIT_PREFIX48,
    BaitRecord,
    InboundEvent,
    Telescope,
)
from repro.ipv6 import address as addrmod
from repro.net.simnet import Network
from repro.ntp.server import NtpServer
from tests.net_reference import advance

PREFIX48 = BAIT_PREFIX48  # the telescope's bait /48
SERVER = addrmod.parse("2001:500::77")
SCANNER = addrmod.parse("2001:db8:bad::1")


def cluster_events(total, bait_hits, *, src=SCANNER, spread_subnets=True):
    """One cluster's synthetic stream with an exact bait-hit count."""
    events = []
    for index in range(total):
        subnet = (0x9000 + index) if spread_subnets else 0x9000
        dst = PREFIX48 + (subnet << 64) + 0x42
        bait = None
        if index < bait_hits:
            bait = BaitRecord(address=dst, server=SERVER,
                              query_time=0.0, answered=True)
        events.append(InboundEvent(
            time=10.0 + 7.0 * index, src=src, dst=dst,
            dst_port=443, transport="tcp", bait=bait))
    return events


def classify(events):
    accumulator = FeatureAccumulator()
    for event in events:
        accumulator.add(event)
    return classify_features(derive_features(accumulator))


class TestClassifierGuards:
    @given(total=st.integers(MIN_CLUSTER_EVENTS, 40),
           spread=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scatter_only_is_never_ntp(self, total, spread):
        strategy, _ = classify(
            cluster_events(total, 0, spread_subnets=spread))
        assert strategy != "ntp"

    @given(bait=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_single_probe_is_insufficient(self, bait):
        strategy, reasons = classify(cluster_events(1, int(bait)))
        assert strategy == INSUFFICIENT
        assert any("evidence floor" in reason for reason in reasons)

    def test_empty_cluster_is_insufficient(self):
        strategy, _ = classify([])
        assert strategy == INSUFFICIENT

    @given(total=st.integers(3, 40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bait_minority_is_never_ntp(self, total, data):
        minority = data.draw(st.integers(
            0, (total - 1) // 2), label="bait_hits")
        assert minority / total < NTP_BAIT_RATIO
        strategy, _ = classify(cluster_events(total, minority))
        assert strategy != "ntp"

    @given(total=st.integers(MIN_CLUSTER_EVENTS, 40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bait_majority_is_ntp(self, total, data):
        majority = data.draw(st.integers(
            (total + 1) // 2, total), label="bait_hits")
        strategy, reasons = classify(cluster_events(total, majority))
        assert strategy == "ntp"
        assert any("bait" in reason for reason in reasons)


# -- end-to-end through a simulated telescope -------------------------------


def captured(drive):
    """Run ``drive(network, telescope)`` and return the capture."""
    network = Network()
    NtpServer(network, SERVER, location="XX")
    telescope = Telescope(network)
    drive(network, telescope)
    return telescope


def wander(network, *, count, start_subnet=0x9000, port=443):
    """Sweep ``count`` guard-band addresses (never-queried /64s)."""
    for index in range(count):
        advance(network.clock, 30.0)
        network.tcp_connect(
            SCANNER, PREFIX48 + ((start_subnet + index) << 64) + 1, port)


class TestTelescopeEdgeCases:
    def test_scatter_only_cluster_classifies_non_ntp(self):
        telescope = captured(
            lambda network, _: wander(network, count=12))
        assert telescope.matched_events() == []
        report = attribute_events(telescope.events)
        (attribution,) = report.attributions
        assert attribution.strategy != "ntp"
        assert attribution.features.bait_hits == 0

    def test_single_probe_cluster_reports_insufficient(self):
        telescope = captured(
            lambda network, _: wander(network, count=1))
        report = attribute_events(telescope.events)
        (attribution,) = report.attributions
        assert attribution.strategy == INSUFFICIENT
        assert any("evidence floor" in reason
                   for reason in attribution.reasons)

    def test_guard_band_wander_with_stray_bait_hit_stays_non_ntp(self):
        def drive(network, telescope):
            record = telescope.query(SERVER)
            wander(network, count=11)
            advance(network.clock, 30.0)
            network.tcp_connect(SCANNER, record.address, 443)

        telescope = captured(drive)
        assert len(telescope.matched_events()) == 1
        report = attribute_events(telescope.events)
        (attribution,) = report.attributions
        assert attribution.features.bait_hits == 1
        assert attribution.features.bait_hit_ratio \
            == pytest.approx(1.0 / 12.0)
        assert attribution.strategy != "ntp"

    def test_bait_focused_scanner_still_attributes_ntp(self):
        def drive(network, telescope):
            records = [telescope.query(SERVER) for _ in range(4)]
            for record in records:
                advance(network.clock, 30.0)
                network.tcp_connect(SCANNER, record.address, 443)

        telescope = captured(drive)
        report = attribute_events(telescope.events)
        (attribution,) = report.attributions
        assert attribution.strategy == "ntp"
        assert attribution.features.bait_hit_ratio == 1.0
