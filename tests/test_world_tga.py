"""Tests for the entropy-based target generation algorithm."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ipv6 import parse, prefix
from repro.world.tga import (
    TgaEvaluation,
    _nybble,
    _with_nybble,
    train,
)


class TestNybbleOps:
    def test_nybble_extraction(self):
        value = parse("2001:db8::f")
        assert _nybble(value, 0) == 0x2
        assert _nybble(value, 3) == 0x1
        assert _nybble(value, 31) == 0xF

    def test_with_nybble_roundtrip(self):
        value = parse("2001:db8::1")
        changed = _with_nybble(value, 31, 0x9)
        assert _nybble(changed, 31) == 0x9
        assert _with_nybble(changed, 31, 0x1) == value

    @given(st.integers(min_value=0, max_value=2**128 - 1),
           st.integers(min_value=0, max_value=31),
           st.integers(min_value=0, max_value=15))
    def test_with_nybble_property(self, value, index, nybble):
        changed = _with_nybble(value, index, nybble)
        assert _nybble(changed, index) == nybble
        for other in range(0, 32, 5):
            if other != index:
                assert _nybble(changed, other) == _nybble(value, other)


class TestTraining:
    def test_fixed_nybbles_detected(self):
        seeds = [parse("2001:db8::") + i for i in range(1, 17)]
        tga = train(seeds)
        segments = tga.segments
        assert segments["fixed"] > 20  # the shared prefix + zero run
        assert tga.models[0].segment == "fixed"  # the leading '2'

    def test_structured_seeds_low_entropy(self):
        structured = [parse("2001:db8::") + i for i in range(1, 10)]
        random_iids = [parse("2001:db8::") | random.Random(i).getrandbits(64)
                       for i in range(200)]
        assert train(structured).total_entropy < \
            train(random_iids).total_entropy

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError):
            train([])

    def test_deduplicates_seeds(self):
        tga = train([1, 1, 2])
        assert tga.seeds == (1, 2)


class TestGeneration:
    def test_candidates_distinct_and_new(self):
        seeds = [parse("2001:db8::") + i for i in range(1, 40)]
        tga = train(seeds)
        candidates = tga.generate(50)
        assert len(candidates) == len(set(candidates))
        assert not set(candidates) & set(seeds)

    def test_candidates_share_fixed_prefix(self):
        seeds = [parse("2001:db8:7::") + i for i in range(1, 40)]
        tga = train(seeds)
        for candidate in tga.generate(30):
            assert prefix(candidate, 48) == parse("2001:db8:7::")

    def test_deterministic_by_seed(self):
        seeds = [parse("2001:db8::") + i for i in range(1, 20)]
        assert train(seeds, seed=5).generate(10) == \
            train(seeds, seed=5).generate(10)
        assert train(seeds, seed=5).generate(10) != \
            train(seeds, seed=6).generate(10)

    def test_count_validation(self):
        tga = train([1, 2, 3])
        with pytest.raises(ValueError):
            tga.generate(0)

    def test_saturation_stops(self):
        """A tiny structured space cannot yield unlimited candidates."""
        seeds = [parse("2001:db8::1"), parse("2001:db8::2")]
        tga = train(seeds)
        candidates = tga.generate(10_000)
        assert len(candidates) < 10_000

    def test_inherits_seed_bias(self):
        """The TGA's defining property: candidates look like the seeds
        (structured seeds -> structured candidates)."""
        from repro.ipv6.iid import classify_iid

        seeds = [parse("2001:db8::") + i for i in range(1, 60)]
        tga = train(seeds)
        candidates = tga.generate(40)
        structured = sum(
            1 for candidate in candidates
            if classify_iid(candidate) in
            ("zero", "low-byte", "low-two-bytes"))
        assert structured > len(candidates) * 0.8


class TestEvaluation:
    def test_evaluate_on_world(self, world):
        from repro.ipv6 import parse as _parse
        from repro.scan.engine import ScanEngine
        from repro.world.tga import evaluate

        seeds = [device.address for device in world.dns_named()]
        tga = train(seeds)
        engine = ScanEngine(world.network, _parse("2001:db8:aaaa::1"))
        evaluation, results = evaluate(tga, engine, 200)
        assert evaluation.candidates <= 200
        assert 0.0 <= evaluation.hit_rate <= 1.0
        assert results.targets_seen == evaluation.candidates

    def test_hit_rate_zero_candidates(self):
        evaluation = TgaEvaluation(seeds=1, candidates=0, responsive=0)
        assert evaluation.hit_rate == 0.0
