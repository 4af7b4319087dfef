"""Benchmark fixtures: one full-scale experiment, shared by every bench.

Each bench file regenerates one of the paper's tables or figures from
the shared experiment, times the analysis under pytest-benchmark, and
writes the rendered artefact to ``benchmarks/reports/`` with shape
checks against the paper's qualitative claims.
"""

from __future__ import annotations

import os

import pytest

from repro.core.actors import deploy_section5_actors
from repro.core.campaign import CampaignConfig, CollectionCampaign
from repro.core.detection import ActorDetector
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.core.telescope import Telescope
from repro.net.clock import EventScheduler
from repro.world.population import WorldConfig, build_world

#: Scale of the benchmark world (the default paper-shaped world).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def write_report(name: str, text: str) -> str:
    """Persist a rendered table/figure next to the benches and echo it."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
    return path


@pytest.fixture(scope="session")
def experiment():
    """The full study at benchmark scale (built once per session)."""
    config = ExperimentConfig(
        world=WorldConfig(scale=BENCH_SCALE),
        campaign=CampaignConfig(days=28, wire_fraction=0.02),
        rl_days=8,
        gap_days=10,
        lead_days=21,
        final_days=7,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def telescope_run():
    """A Section-5 world: two third-party actors + a week of telescope."""
    world = build_world(WorldConfig(scale=0.12))
    campaign = CollectionCampaign(world, CampaignConfig(days=1,
                                                        wire_fraction=0.0))
    scheduler = EventScheduler(world.clock)
    deploy_section5_actors(world, campaign.pool, scheduler,
                           research_zones=["us", "de", "jp", "gb", "fr"],
                           covert_zones=["us", "nl"])
    telescope = Telescope(world.network)
    telescope.watch(campaign.pool, scheduler, sweep_days=7, settle_days=4)
    detector = ActorDetector(
        telescope, world.asdb,
        operator_of_server=lambda a: campaign.pool.server(a).operator)
    return world, telescope, detector
