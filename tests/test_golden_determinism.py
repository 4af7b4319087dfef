"""Golden-value determinism for the sourcing→scan data path.

The staged-runtime refactor (event bus, scheduler/executor split,
probe registry) must be behaviour-preserving: under fixed seeds,
``run_experiment`` produces *exactly* the responsive-address counts of
the seed implementation.  The numbers below were captured from the
seed commit (5f12bc1) at this configuration and verified identical
against the refactored path; the grab counts are the answered grabs
alone, since a result set keeps no refused grab.
"""

from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.scan.result import PROTOCOLS
from repro.world.population import WorldConfig

#: protocol → (ntp responsive, ntp grabs, hitlist responsive, hitlist
#: grabs) at the golden configuration.  The responsive counts are the
#: seed commit's; the grab counts are the answered (``ok``) grabs of
#: the commit before result sets dropped refused grabs, all a result
#: set keeps (one per responsive address and protocol).
GOLDEN_COUNTS = {
    "http": (36, 36, 192, 192),
    "https": (34, 34, 191, 191),
    "ssh": (5, 5, 40, 40),
    "mqtt": (1, 1, 12, 12),
    "mqtts": (0, 0, 3, 3),
    "amqp": (1, 1, 12, 12),
    "amqps": (0, 0, 3, 3),
    "coap": (6, 6, 7, 7),
}
GOLDEN_NTP_TARGETS = 1160
GOLDEN_HITLIST_TARGETS = 4683


def _golden_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.0),
        include_rl=False, gap_days=1, lead_days=3, final_days=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _check_counts(result):
    assert result.ntp_scan.targets_seen == GOLDEN_NTP_TARGETS
    assert result.hitlist_scan.targets_seen == GOLDEN_HITLIST_TARGETS
    observed = {
        protocol: (
            len(result.ntp_scan.responsive_addresses(protocol)),
            len(result.ntp_scan.grabs(protocol)),
            len(result.hitlist_scan.responsive_addresses(protocol)),
            len(result.hitlist_scan.grabs(protocol)),
        )
        for protocol in PROTOCOLS
    }
    assert observed == GOLDEN_COUNTS


class TestGoldenDeterminism:
    def test_single_engine_matches_seed_commit(self):
        _check_counts(run_experiment(_golden_config()))
