"""Feature-extraction algebra: fold and merge properties.

The per-cluster :class:`FeatureAccumulator` must fold
**order-insensitively** (any permutation of the event stream produces
equal state) and merge **associatively and commutatively** (any merge
tree produces equal state), so partial extractions of any chunking of
the stream merge into exactly the whole-stream extraction.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import (
    FeatureAccumulator,
    cluster_accumulators,
    cluster_key,
    derive_features,
)
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

    @given(events=events_strategy, cut_a=st.integers(0, 60),
           cut_b=st.integers(0, 60))
    @settings(max_examples=50, deadline=None)
    def test_merge_associative(self, events, cut_a, cut_b):
        cut_a, cut_b = sorted((min(cut_a, len(events)),
                               min(cut_b, len(events))))
        a, b, c = (fold(events[:cut_a]), fold(events[cut_a:cut_b]),
                   fold(events[cut_b:]))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left == fold(events)

    @given(events=events_strategy, cut=st.integers(0, 60))
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative(self, events, cut):
        cut = min(cut, len(events))
        a, b = fold(events[:cut]), fold(events[cut:])
        assert a.merge(b) == b.merge(a)

    @given(events=events_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_pure(self, events):
        a, b = fold(events), fold(events)
        before = fold(events)
        a.merge(b)
        assert a == before and b == before

    @given(events=events_strategy, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=50, deadline=None)
    def test_derived_features_order_insensitive(self, events, seed):
        shuffled = list(events)
        random.Random(seed).shuffle(shuffled)
        assert derive_features(fold(shuffled)) \
            == derive_features(fold(events))

    @given(events=events_strategy, chunk=st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_chunked_extraction_equals_single_fold(self, events, chunk):
        chunked = {}
        for start in range(0, len(events), chunk):
            part = cluster_accumulators(events[start:start + chunk])
            for key, accumulator in part.items():
                earlier = chunked.get(key)
                chunked[key] = (accumulator if earlier is None
                                else earlier.merge(accumulator))
        whole = cluster_accumulators(events)
        assert chunked == whole
        for key, accumulator in whole.items():
            assert accumulator == fold(
                [e for e in events if cluster_key(e.src) == key])
