"""The scanner-actor ecosystem: determinism, strategy fidelity, and
ground-truth attribution on the labeled leak scenario.

Three tiers:

* **golden determinism** — the same seed produces byte-identical probe
  plans *and* byte-identical fired probe streams on fresh networks;
* **Hypothesis strategy properties** — every probe an actor emits is
  attributable to its configured address source (hitlists probe only
  hitlist entries, TGAs stay inside seed /64s, walkers probe only
  dictionary-named PTR addresses, sweeps only low-IID subnet slots);
* **labeled scenarios** — a mixed population aimed at a telescope /48
  must come back with a clean confusion-matrix diagonal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.attribution import attribute_events
from repro.core.ecosystem import (
    AMPLIFICATION_SUBNET_BASE,
    HITLIST_SUBNET_BASE,
    RDNS_DICTIONARY,
    RDNS_SUBNET_BASE,
    RESIDENTIAL_SUBNET_BASE,
    TGA_SUBNET_BASE,
    AmplificationReconActor,
    HitlistSweepActor,
    RdnsWalkActor,
    ResidentialSweepActor,
    ScannerPopulation,
    TgaActor,
    leak_scenario,
)
from repro.core.telescope import BAIT_PREFIX48, Telescope
from repro.ipv6 import address as addrmod
from repro.net.clock import EventScheduler
from repro.net.packet import PacketRecord
from repro.net.rdns import ReverseDns
from repro.net.simnet import Network
from tests.conftest import small_world_config
from tests.net_reference import run_all

PREFIX48 = BAIT_PREFIX48  # the telescope's bait /48

SOURCE_BASES = {
    "hitlist": addrmod.parse("2001:db8:aa00::10"),
    "tga": addrmod.parse("2001:db8:bb00::10"),
    "rdns": addrmod.parse("2001:db8:cc00::10"),
    "residential": addrmod.parse("2001:db8:dd00::10"),
    "amplification": addrmod.parse("2001:db8:ee00::10"),
}

ALL_STRATEGIES = ("hitlist", "tga", "rdns", "residential", "amplification")


def fresh_sim():
    network = Network()
    return network, EventScheduler(network.clock)


def address_pool(actor):
    """Every destination an actor's strategy can ever produce; for the
    TGA, every /64 its mutator can reach (the seeds' /64s)."""
    if isinstance(actor, HitlistSweepActor):
        return frozenset(actor.targets)
    if isinstance(actor, TgaActor):
        return frozenset(addrmod.prefix(seed, 64) for seed in actor.seeds)
    if isinstance(actor, RdnsWalkActor):
        return frozenset(actor._walk())
    return frozenset(actor._targets())


def sources_for(strategy: str, count: int = 3):
    base = SOURCE_BASES[strategy]
    return [base + offset for offset in range(count)]


def make_hitlist(network, scheduler, seed=11):
    targets = [PREFIX48 + ((0x2000 + index) << 64) + 0xDEAD0000 + index
               for index in range(6)]
    return HitlistSweepActor(
        network, scheduler, name="h", sources=sources_for("hitlist"),
        targets=targets, rounds=2, seed=seed)


def make_tga(network, scheduler, seed=12):
    seeds = [PREFIX48 + ((0x8000 + index) << 64) + 0xBEEF00 + index
             for index in range(3)]
    return TgaActor(network, scheduler, name="t",
                    sources=sources_for("tga"), seeds=seeds,
                    candidates_per_seed=5, seed=seed)


def make_rdns(network, scheduler, seed=13, rdns=None):
    rdns = rdns or ReverseDns()
    for index in range(8):
        address = PREFIX48 + ((0x4000 + index // 4) << 64) + 0xCAFE + index
        rdns.register(address, f"www{index}.leak.example.net")
    return RdnsWalkActor(network, scheduler, name="r",
                         sources=sources_for("rdns"), rdns=rdns,
                         zone48=PREFIX48, seed=seed)


def make_residential(network, scheduler, seed=14):
    return ResidentialSweepActor(
        network, scheduler, name="b", sources=sources_for("residential"),
        base48=PREFIX48, subnet_start=0x6000, subnet_count=10, seed=seed)


def make_amplification(network, scheduler, seed=15):
    return AmplificationReconActor(
        network, scheduler, name="a", sources=sources_for("amplification"),
        base48=PREFIX48, subnet_start=0xA000, subnet_count=8, seed=seed)


ACTOR_FACTORIES = {
    "hitlist": make_hitlist,
    "tga": make_tga,
    "rdns": make_rdns,
    "residential": make_residential,
    "amplification": make_amplification,
}


def test_subnet_bases_disjoint_and_pinned():
    """The scenario's address plan: one disjoint /64 index range each."""
    assert HITLIST_SUBNET_BASE == 0x2000
    assert RDNS_SUBNET_BASE == 0x4000
    assert RESIDENTIAL_SUBNET_BASE == 0x6000
    assert TGA_SUBNET_BASE == 0x8000
    assert AMPLIFICATION_SUBNET_BASE == 0xA000


def run_actor(factory, seed):
    """Deploy one actor on a fresh sim; return (plan, tap stream)."""
    network, scheduler = fresh_sim()
    taps = []

    def tap(record: PacketRecord):
        taps.append((record.time, record.src, record.dst,
                     record.dst_port, record.transport.value))

    network.add_tap(tap)
    actor = factory(network, scheduler, seed=seed)
    actor.deploy()
    run_all(scheduler)
    return actor.planned(), tuple(taps), actor


class TestGoldenDeterminism:
    @pytest.mark.parametrize("strategy", sorted(ACTOR_FACTORIES))
    def test_same_seed_same_stream(self, strategy):
        factory = ACTOR_FACTORIES[strategy]
        plan_a, taps_a, actor_a = run_actor(factory, seed=99)
        plan_b, taps_b, actor_b = run_actor(factory, seed=99)
        assert plan_a == plan_b
        assert taps_a == taps_b
        assert actor_a.probe_log == actor_b.probe_log
        assert actor_a.probes_sent == len(plan_a) > 0

    @pytest.mark.parametrize("strategy", sorted(ACTOR_FACTORIES))
    def test_different_seed_different_plan(self, strategy):
        # Source choice is seeded even when the target walk is fixed.
        factory = ACTOR_FACTORIES[strategy]
        plan_a, _, _ = run_actor(factory, seed=1)
        plan_b, _, _ = run_actor(factory, seed=2)
        assert plan_a != plan_b

    def test_probe_log_matches_plan_order(self):
        plan, _, actor = run_actor(make_hitlist, seed=5)
        assert [(src, dst, port) for _, src, dst, port in actor.probe_log] \
            == [(src, dst, port) for _, src, dst, port in plan]


class TestStrategyProperties:
    """Every probe is attributable to the strategy's address source."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_hitlist_probes_only_hitlist_entries(self, data):
        network, scheduler = fresh_sim()
        targets = data.draw(st.lists(
            st.integers(min_value=1 << 64, max_value=(1 << 128) - 1),
            min_size=1, max_size=12, unique=True))
        rounds = data.draw(st.integers(min_value=1, max_value=3))
        actor = HitlistSweepActor(
            network, scheduler, name="h", sources=sources_for("hitlist"),
            targets=targets, rounds=rounds,
            seed=data.draw(st.integers(0, 1000)))
        plan = actor.planned()
        assert {dst for _, _, dst, _ in plan} <= address_pool(actor)
        assert len(plan) == len(targets) * len(actor.ports) * rounds

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_tga_mutations_stay_in_seed_64s(self, data):
        network, scheduler = fresh_sim()
        seeds = data.draw(st.lists(
            st.integers(min_value=1 << 64, max_value=(1 << 128) - 1),
            min_size=1, max_size=5, unique_by=lambda a: a >> 64))
        actor = TgaActor(network, scheduler, name="t",
                         sources=sources_for("tga"), seeds=seeds,
                         candidates_per_seed=data.draw(
                             st.integers(min_value=1, max_value=8)),
                         seed=data.draw(st.integers(0, 1000)))
        pool = address_pool(actor)
        for _, _, dst, _ in actor.planned():
            assert addrmod.prefix(dst, 64) in pool
            assert dst not in seeds  # mutations, never the seed itself

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_rdns_probes_only_dictionary_named_hosts(self, seed):
        network, scheduler = fresh_sim()
        rdns = ReverseDns()
        named = PREFIX48 + (0x4000 << 64) + 0x10
        unnamed = PREFIX48 + (0x4001 << 64) + 0x11
        offzone = addrmod.parse("2001:db8:9999::5")
        rdns.register(named, "vpn-gateway.leak.example.net")
        rdns.register(unnamed, "zzz-opaque.leak.example.net")
        rdns.register(offzone, "www.elsewhere.example.net")
        actor = RdnsWalkActor(network, scheduler, name="r",
                              sources=sources_for("rdns"), rdns=rdns,
                              zone48=PREFIX48, seed=seed)
        destinations = {dst for _, _, dst, _ in actor.planned()}
        assert destinations == {named}
        for dst in destinations:
            name = rdns.lookup(dst)
            assert name is not None
            assert any(word in name for word in RDNS_DICTIONARY)
            assert addrmod.prefix(dst, 48) == PREFIX48

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_residential_probes_low_iid_subnet_slots(self, data):
        network, scheduler = fresh_sim()
        count = data.draw(st.integers(min_value=1, max_value=20))
        actor = ResidentialSweepActor(
            network, scheduler, name="b",
            sources=sources_for("residential"), base48=PREFIX48,
            subnet_start=0x6000, subnet_count=count,
            seed=data.draw(st.integers(0, 1000)))
        plan = actor.planned()
        assert {dst for _, _, dst, _ in plan} == address_pool(actor)
        for _, _, dst, _ in plan:
            assert addrmod.prefix(dst, 48) == PREFIX48
            assert addrmod.iid(dst) in actor.iids
            subnet = (dst >> 64) & 0xFFFF
            assert 0x6000 <= subnet < 0x6000 + count

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_amplification_probes_only_udp_123(self, data):
        network, scheduler = fresh_sim()
        count = data.draw(st.integers(min_value=1, max_value=16))
        actor = AmplificationReconActor(
            network, scheduler, name="a",
            sources=sources_for("amplification"), base48=PREFIX48,
            subnet_start=0xA000, subnet_count=count,
            seed=data.draw(st.integers(0, 1000)))
        plan = actor.planned()
        assert {dst for _, _, dst, _ in plan} == address_pool(actor)
        for _, _, dst, port in plan:
            assert port == 123
            assert addrmod.prefix(dst, 48) == PREFIX48
            assert addrmod.iid(dst) in actor.iids
            subnet = (dst >> 64) & 0xFFFF
            assert 0xA000 <= subnet < 0xA000 + count

    def test_amplification_probe_is_udp_monlist(self):
        """The fired probe is a 72-byte UDP monlist request, not TCP."""
        network, scheduler = fresh_sim()
        taps = []
        network.add_tap(lambda record: taps.append(record))
        actor = make_amplification(network, scheduler, seed=3)
        actor.deploy()
        run_all(scheduler)
        assert taps
        for record in taps:
            assert record.transport.value == "udp"
            assert record.dst_port == 123
            assert record.size == 72

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sources_always_from_configured_pool(self, seed):
        network, scheduler = fresh_sim()
        actor = make_hitlist(network, scheduler, seed=seed)
        assert {src for _, src, _, _ in actor.planned()} \
            <= set(actor.sources)


def run_leak_scenario():
    """One labeled mixed-population run; returns (population, report)."""
    network, scheduler = fresh_sim()
    rdns = ReverseDns()
    scope = Telescope(network)
    population = leak_scenario(
        network, scheduler, rdns, PREFIX48,
        sources={strategy: sources_for(strategy)
                 for strategy in SOURCE_BASES})
    run_all(scheduler)
    report = attribute_events(
        scope.events, truth=population.ground_truth(), rdns=rdns)
    return population, report


class TestLabeledScenario:
    def test_every_strategy_detected_on_its_own_cluster(self):
        population, report = run_leak_scenario()
        assert len(report.attributions) == 5
        assert {a.strategy for a in report.attributions} \
            == set(ALL_STRATEGIES)

    def test_confusion_diagonal_meets_floor(self):
        _, report = run_leak_scenario()
        assert report.diagonal_accuracy() >= 0.9
        metrics = report.strategy_metrics()
        for strategy in ALL_STRATEGIES:
            assert metrics[strategy]["precision"] >= 0.9, strategy
            assert metrics[strategy]["recall"] >= 0.9, strategy
            assert metrics[strategy]["support"] == 1

    def test_confusion_matrix_shape(self):
        _, report = run_leak_scenario()
        confusion = report.confusion()
        for truth, row in confusion.items():
            assert row == {truth: 1}

    def test_ground_truth_covers_every_source(self):
        population, report = run_leak_scenario()
        truth = population.ground_truth()
        for actor in population.actors:
            for source in actor.sources:
                assert truth[source] == actor.strategy

    def test_population_rows_report_probe_counts(self):
        population, _ = run_leak_scenario()
        for row in population.rows():
            assert row["probes_sent"] == row["planned"] > 0

    def test_external_truth_registration(self):
        network, scheduler = fresh_sim()
        population = ScannerPopulation(network, scheduler)
        population.add_external("ntp", [1, 2])
        assert population.ground_truth() == {1: "ntp", 2: "ntp"}


@pytest.fixture(scope="module")
def ecosystem_run():
    """One full api.ecosystem run shared by the API-level tests."""
    return api.ecosystem(api.EcosystemConfig(
        world=small_world_config(scale=0.08), window_days=2.0))


class TestEcosystemApi:
    def test_diagonal_accuracy_floor(self, ecosystem_run):
        accuracy = ecosystem_run.report.tables["accuracy"]
        assert accuracy["diagonal"] >= 0.9
        assert accuracy["labeled"] == accuracy["clusters"] == 7

    def test_all_strategies_present(self, ecosystem_run):
        confusion = ecosystem_run.report.tables["confusion"]
        assert set(confusion) == {"ntp"} | set(ALL_STRATEGIES)
        metrics = ecosystem_run.report.tables["strategy_metrics"]
        assert metrics["ntp"]["support"] == 2  # overt GT + covert

    def test_report_shape(self, ecosystem_run):
        report = ecosystem_run.report
        assert report.command == "ecosystem"
        for table in ("attribution", "confusion", "strategy_metrics",
                      "accuracy", "telescope", "population", "detector",
                      "attribution_windows"):
            assert table in report.tables, table
        document = report.as_document()
        assert document["config"]["window_days"] == 2.0

    def test_windows_complete_only(self, ecosystem_run):
        windows = ecosystem_run.report.tables["attribution_windows"]
        assert windows
        for document in windows:
            assert document["window"]["days"] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sweep_days"):
            api.EcosystemConfig(sweep_days=0)
        with pytest.raises(ValueError, match="step_days"):
            api.EcosystemConfig(step_days=2.0)
        with pytest.raises(ValueError, match="window_days"):
            api.EcosystemConfig(window_days=-1.0)
