"""Execution-model gate: the package never starts a worker process.

Every entry point runs one scan engine per scan path in the calling
process (DESIGN.md §8).  This test imports the library facade and the
CLI in a fresh interpreter, runs one tiny study, and checks that
neither ``multiprocessing`` nor ``concurrent.futures`` got imported on
the way: without them nothing under ``src/`` can start a process.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

from repro import api, cli
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.world.population import WorldConfig

api.study(ExperimentConfig(
    world=WorldConfig(seed=20240720, scale=0.02),
    campaign=CampaignConfig(days=2, wire_fraction=0.0),
    include_rl=False, gap_days=0, lead_days=1, final_days=1))
print(sorted(name for name in ("multiprocessing", "concurrent.futures")
             if name in sys.modules))
"""


def test_study_imports_no_process_machinery():
    path = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
