"""Golden delta audit for the analysis-layer bugfixes.

The banded/pruned fast path must change *nothing*: the equivalence
properties cover it on random corpora, and here its Table-3 groups on
the golden experiment must equal the unoptimized reference scan's
(:mod:`tests.levenshtein_oracle`).  Four deliberate bugfixes may move
seed-era headline values.  This suite replays the seed commit's buggy
logic next to the fixed one on the golden experiment and asserts every
delta is explained by exactly the bug that was fixed — no silent
behaviour change rides along.
"""

from collections import Counter

import pytest

from repro.analysis import devicetypes, security
from repro.analysis.security import _grab_outdated
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.world.population import WorldConfig

from tests.levenshtein_oracle import reference_cluster_counts


@pytest.fixture(scope="module")
def golden():
    config = ExperimentConfig(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.0),
        include_rl=False, gap_days=1, lead_days=3, final_days=1,
    )
    return run_experiment(config)


# -- seed-era replicas (the buggy logic, verbatim in behaviour) ----------

def _seed_titles(results):
    """``grab.title or NO_TITLE`` — collapses "" into NO_TITLE."""
    titles = {}
    for grab in results.https:
        if not grab.ok or grab.status != 200:
            continue
        if grab.tls is None or not grab.tls.ok \
                or grab.tls.fingerprint is None:
            continue
        titles.setdefault(grab.tls.fingerprint,
                          grab.title or devicetypes.NO_TITLE)
    return titles


def _seed_findings(table, factor=5.0):
    """HTTP findings by exact representative equality only."""
    hit_by_rep = {g.representative: g.count for g in table.http_hitlist}
    findings = {}
    for group in table.http_ntp:
        if group.representative in (devicetypes.NO_TITLE,
                                    devicetypes.EMPTY_TITLE):
            continue
        hit = hit_by_rep.get(group.representative, 0)
        if group.count > factor * hit:
            findings[f"http:{group.representative}"] = (group.count, hit)
    return findings


def _seed_ssh(results):
    """Key slot burned by the first grab, assessable or not."""
    seen = set()
    assessed = outdated = unassessable = 0
    for grab in results.ssh:
        if not grab.ok or grab.key_fingerprint is None:
            continue
        if grab.key_fingerprint in seen:
            continue
        seen.add(grab.key_fingerprint)
        verdict = _grab_outdated(grab)
        if verdict is None:
            unassessable += 1
            continue
        assessed += 1
        if verdict:
            outdated += 1
    return assessed, outdated, unassessable


def _seed_broker(results, protocol):
    """Address consumed by the first grab, conclusive or not."""
    grabs = list(results.grabs(protocol)) + list(results.grabs(protocol + "s"))
    seen = set()
    open_count = controlled = unknown = 0
    for grab in grabs:
        if not grab.ok or grab.address in seen:
            continue
        seen.add(grab.address)
        if grab.open_access is None:
            unknown += 1
        elif grab.open_access:
            open_count += 1
        else:
            controlled += 1
    return open_count, controlled, unknown


# -- the audits ----------------------------------------------------------

class TestClusteringOracle:
    def test_title_groups_equal_the_reference_scan(self, golden):
        for results in (golden.ntp_scan, golden.hitlist_scan):
            counts = Counter(
                devicetypes.http_titles_by_certificate(results).values())
            assert len(counts) > 1
            assert [(group.representative, group.members)
                    for group in devicetypes.http_title_groups(results)] \
                == [(group.representative, group.members)
                    for group in reference_cluster_counts(counts.items())]


class TestTitleDeltas:
    def test_labels_differ_only_on_empty_titles(self, golden):
        for results in (golden.ntp_scan, golden.hitlist_scan):
            seed = _seed_titles(results)
            fixed = devicetypes.http_titles_by_certificate(results)
            assert seed.keys() == fixed.keys()
            for fingerprint, label in fixed.items():
                if label == devicetypes.EMPTY_TITLE:
                    assert seed[fingerprint] == devicetypes.NO_TITLE
                else:
                    assert seed[fingerprint] == label


class TestFindingsDeltas:
    def test_fix_only_removes_findings_and_each_removal_is_explained(
            self, golden):
        table = devicetypes.build_table3(golden.ntp_scan,
                                         golden.hitlist_scan)
        seed = _seed_findings(table)
        fixed = devicetypes.new_or_underrepresented(table)
        fixed_http = {key: value for key, value in fixed.items()
                      if key.startswith("http:")}
        # Membership/threshold matching can only find *more* hitlist
        # coverage than exact-representative matching, so findings can
        # only disappear or shrink — never appear.
        assert set(fixed_http) <= set(seed)
        for key in set(seed) - set(fixed_http):
            representative = key[len("http:"):]
            match = table.http_group("hitlist", representative,
                                     threshold=0.25)
            assert match is not None, \
                f"finding {key!r} vanished without a matching hitlist group"
        # Non-HTTP findings flow through unchanged logic.
        for key, value in fixed.items():
            if not key.startswith("http:"):
                assert value[0] > 5.0 * value[1]


class TestSshDeltas:
    def test_delta_explained_by_unassessable_first_grabs(self, golden):
        for label, results in (("ntp", golden.ntp_scan),
                               ("hitlist", golden.hitlist_scan)):
            seed_assessed, seed_outdated, seed_unassessable = \
                _seed_ssh(results)
            fixed = security.ssh_outdatedness(label, results)
            assert fixed.assessed >= seed_assessed
            assert fixed.unassessable <= seed_unassessable
            if (fixed.assessed, fixed.outdated) != \
                    (seed_assessed, seed_outdated):
                # Some key must show the unassessable-then-assessable
                # pattern the fix exists for.
                first_verdict = {}
                rescued = False
                for grab in results.ssh:
                    if not grab.ok or grab.key_fingerprint is None:
                        continue
                    verdict = _grab_outdated(grab)
                    if grab.key_fingerprint not in first_verdict:
                        first_verdict[grab.key_fingerprint] = verdict
                    elif first_verdict[grab.key_fingerprint] is None \
                            and verdict is not None:
                        rescued = True
                assert rescued, f"{label}: SSH delta without rescued key"


class TestBrokerDeltas:
    @pytest.mark.parametrize("protocol", ["mqtt", "amqp"])
    def test_delta_explained_by_unknown_then_conclusive(self, golden,
                                                        protocol):
        for label, results in (("ntp", golden.ntp_scan),
                               ("hitlist", golden.hitlist_scan)):
            seed_open, seed_controlled, seed_unknown = \
                _seed_broker(results, protocol)
            fixed = security.broker_access_control(label, results, protocol)
            assert fixed.unknown <= seed_unknown
            assert fixed.total >= seed_open + seed_controlled
            if (fixed.open_count, fixed.controlled, fixed.unknown) != \
                    (seed_open, seed_controlled, seed_unknown):
                grabs = list(results.grabs(protocol)) \
                    + list(results.grabs(protocol + "s"))
                first = {}
                rescued = False
                for grab in grabs:
                    if not grab.ok:
                        continue
                    if grab.address not in first:
                        first[grab.address] = grab.open_access
                    elif first[grab.address] is None \
                            and grab.open_access is not None:
                        rescued = True
                assert rescued, \
                    f"{label}/{protocol}: delta without rescued address"
