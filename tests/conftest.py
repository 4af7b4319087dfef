"""Shared fixtures.

Expensive artefacts (a small world, a full small-scale experiment) are
session-scoped: many test modules read them, none mutates them in ways
that break isolation (tests that need mutation build their own).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.net.simnet import Network
from repro.world.population import World, WorldConfig, build_world

# Keep test runs from littering src/ and tests/ with __pycache__
# directories (``.gitignore`` hides them from git, but grep/find
# workflows still trip over stale .pyc trees).  conftest loads before
# any test module, so this covers the whole session.
sys.dont_write_bytecode = True

#: A scale small enough for seconds-fast tests but large enough that
#: every device type and protocol appears.
TEST_SCALE = 0.16


def small_world_config(**overrides) -> WorldConfig:
    defaults = dict(seed=20240720, scale=TEST_SCALE)
    defaults.update(overrides)
    return WorldConfig(**defaults)


@st.composite
def mutations_of(draw, valid: bytes) -> bytes:
    """``valid`` after one to four truncations, byte flips or insertions
    (the decode-fuzz input for a codec's total-decoder property)."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("truncate", "flip", "insert")))
        if edit == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif edit == "flip" and data:
            index = draw(st.integers(0, len(data) - 1))
            data[index] ^= draw(st.integers(1, 255))
        else:
            index = draw(st.integers(0, len(data)))
            data[index:index] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


def patch_stored_config(run_dir, **stored) -> None:
    """Overwrite keys of a run store's recorded config in ``meta.json``
    (how tests stand in for stores written by other versions)."""
    import json

    meta_path = run_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"].update(stored)
    meta_path.write_text(json.dumps(meta))


def store_bytes(run_dir) -> dict:
    """Every file of a run directory, by relative path."""
    return {path.relative_to(run_dir).as_posix(): path.read_bytes()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


@pytest.fixture(scope="session")
def world() -> World:
    """A read-only small world shared across test modules."""
    return build_world(small_world_config())


@pytest.fixture()
def fresh_world() -> World:
    """A private world for tests that mutate (churn, campaigns)."""
    return build_world(small_world_config())


@pytest.fixture()
def network() -> Network:
    """An empty network with a fresh virtual clock."""
    return Network()


@pytest.fixture(scope="session")
def experiment():
    """One full small-scale experiment, shared by the analysis tests."""
    config = ExperimentConfig(
        world=small_world_config(),
        campaign=CampaignConfig(days=21, wire_fraction=0.02),
        rl_days=4,
        gap_days=4,
        lead_days=14,
        final_days=7,
    )
    return run_experiment(config)


def service_config(store_dir, **overrides):
    """A small-but-interesting service-campaign config.

    ``checkpoint_days=3`` keeps a checkpoint within anchor-slack reach
    of every multi-day window start, and the small segment cap forces
    window replays to cross WAL segment boundaries.  The CI
    ``service-longitudinal`` job stretches the horizon to three
    simulated weeks via ``REPRO_SERVICE_DAYS``.
    """
    import os

    from repro.service import ServiceConfig

    defaults = dict(
        world=small_world_config(scale=0.05),
        campaign=CampaignConfig(days=10 ** 9, wire_fraction=0.0),
        store_dir=str(store_dir),
        campaign_days=int(os.environ.get("REPRO_SERVICE_DAYS", "8")),
        checkpoint_days=3,
        hitlist_days=4,
        segment_max_records=512,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="session")
def service_run(tmp_path_factory):
    """One finished longitudinal campaign, shared read-only.

    Returns ``(result, run_dir)``; tests that mutate the store
    (compaction, crash/resume) build their own.
    """
    from repro import api

    run_dir = tmp_path_factory.mktemp("service") / "campaign"
    result = api.run_campaign(service_config(run_dir))
    return result, run_dir
