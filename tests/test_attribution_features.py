"""Feature-extraction algebra: the fold is order-insensitive.

The per-cluster :class:`FeatureAccumulator` must fold
**order-insensitively**: any permutation of the event stream produces
equal state, and so equal derived features.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import FeatureAccumulator, derive_features
from repro.core.telescope import BaitRecord, InboundEvent


def make_event(time, src, dst, port, *, bait=False):
    record = None
    if bait:
        record = BaitRecord(address=dst, server=0x99, query_time=0.0,
                            answered=True)
    return InboundEvent(time=time, src=src, dst=dst, dst_port=port,
                        transport="tcp", bait=record)


events_strategy = st.lists(
    st.builds(
        make_event,
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=1 << 64, max_value=(1 << 128) - 1),
        st.integers(min_value=1 << 64, max_value=(1 << 128) - 1),
        st.integers(min_value=1, max_value=65535),
        bait=st.booleans(),
    ),
    min_size=0, max_size=60)


def fold(events):
    accumulator = FeatureAccumulator()
    for event in events:
        accumulator.add(event)
    return accumulator


class TestAccumulatorAlgebra:
    @given(events=events_strategy, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=50, deadline=None)
    def test_order_insensitive(self, events, seed):
        shuffled = list(events)
        random.Random(seed).shuffle(shuffled)
        assert fold(shuffled) == fold(events)

    @given(events=events_strategy, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=50, deadline=None)
    def test_derived_features_order_insensitive(self, events, seed):
        shuffled = list(events)
        random.Random(seed).shuffle(shuffled)
        assert derive_features(fold(shuffled)) \
            == derive_features(fold(events))
