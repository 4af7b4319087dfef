"""Cross-cutting property tests over the substrates.

Each property pins an invariant several modules rely on, checked
against a brute-force reference implementation where one exists.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import address as addrmod
from repro.scan.ethics import OptOutList
from repro.world.tga import PREFIX_LOCK, train

ADDRESSES = st.integers(min_value=0, max_value=2**128 - 1)


class TestOptOutProperties:
    @given(st.lists(st.tuples(ADDRESSES,
                              st.integers(min_value=0, max_value=128)),
                    max_size=15),
           ADDRESSES)
    def test_blocked_matches_bruteforce(self, entries, probe):
        """Fast prefix-set membership == linear prefix comparison."""
        opt_out = OptOutList()
        for base, length in entries:
            opt_out.add(base, length)
        brute = any(
            addrmod.prefix(probe, length) == addrmod.prefix(base, length)
            for base, length in entries)
        assert opt_out.blocked(probe) == brute

    @given(st.lists(ADDRESSES, min_size=1, max_size=10))
    def test_every_entry_blocks_itself(self, bases):
        opt_out = OptOutList()
        for base in bases:
            opt_out.add(base)
        for base in bases:
            assert opt_out.blocked(base)


class TestTgaProperties:
    @given(st.lists(ADDRESSES, min_size=2, max_size=40, unique=True),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=30)
    def test_candidates_distinct_and_disjoint_from_seeds(self, seeds, count):
        tga = train(seeds)
        candidates = tga.generate(count)
        assert len(candidates) == len(set(candidates))
        assert not set(candidates) & set(seeds)

    @given(st.lists(ADDRESSES, min_size=2, max_size=30, unique=True))
    @settings(max_examples=30)
    def test_prefix_lock_respected(self, seeds):
        tga = train(seeds)
        locked = {addrmod.prefix(seed, PREFIX_LOCK) for seed in seeds}
        for candidate in tga.generate(20):
            assert addrmod.prefix(candidate, PREFIX_LOCK) in locked

    @given(st.lists(ADDRESSES, min_size=1, max_size=30, unique=True))
    @settings(max_examples=30)
    def test_entropy_nonnegative_and_bounded(self, seeds):
        tga = train(seeds)
        for model in tga.models:
            assert 0.0 <= model.entropy <= 4.0 + 1e-9


class TestDeterminismProperties:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_world_pure_function_of_seed(self, seed):
        from repro.world.population import WorldConfig, build_world

        first = build_world(WorldConfig(seed=seed, scale=0.02))
        second = build_world(WorldConfig(seed=seed, scale=0.02))
        assert [d.address for d in first.devices] == \
            [d.address for d in second.devices]
        assert [record.name for record in first.dns] == \
            [record.name for record in second.dns]
