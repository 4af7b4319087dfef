"""Self-checks of the benchmark itself.

* Every count metric repeats exactly across two traced runs of one
  seed, and the output digest is the same traced and untraced, so the
  wrappers draw no random numbers and perturb nothing.
* The traced self times reproduce the measured hot spots.
* A run reports exactly the metrics ``BENCHMARK.json`` names, and
  ``spec.json`` records a prediction for each per-layer metric.
* Without the program beside it, the benchmark fails without a result.

Run from the repository root (each workload runs three short times,
a few minutes in all)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Per-layer metrics that are exact for a fixed seed: the counts and
#: the ratios of counts.
EXACT = [name for name, unit in run.metric_units("per_layer").items()
         if unit in ("count", "B")] + ["scan.probe_ok_ratio",
                                       "net.lookups_per_target",
                                       "service.cache_hit_ratio"]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=900)
    return done


def parsed(done):
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    digest = next(line.split("sha256:")[1] for line in lines
                  if line.strip().startswith("digest"))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def runs(request):
    """Two traced runs and one untraced run of one workload."""
    return request.param, [parsed(bench(request.param, trace))
                           for trace in (1, 1, 0)]


def test_every_run_is_correct(runs):
    _, results = runs
    for result, _ in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_counts_repeat_exactly(runs):
    _, ((first, _), (second, _), _) = runs
    for name in EXACT:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_tracing_perturbs_no_output(runs):
    _, results = runs
    assert len({digest for _, digest in results}) == 1


def test_reported_metrics_are_the_catalogue(runs):
    _, ((traced, _), _, (untraced, _)) = runs
    for result, kind in ((traced, "per_layer"), (untraced, "end_to_end")):
        assert ({name: entry["unit"] for name, entry
                 in result["metrics"].items()} == run.metric_units(kind))


def test_traced_self_times_reproduce_the_hot_spots(runs):
    """ntp + scan self time is most of a study; store read + grab
    decoding is most of a cold query."""
    name, ((traced, _), _, _) = runs
    if name in ("study", "replay"):
        assert traced["metrics"]["trace.hot_share"]["value"] > 0.5


def test_spec_records_every_prediction():
    assert run.SPEC["seeds"]["held_out"] != run.DEFAULT_SEED
    assert set(run.SPEC["workloads"]) == set(run.WORKLOAD_NAMES)
    predictions = run.SPEC["per_layer"]
    layers = [name for layer in predictions["layers"].values()
              for name in layer["metrics"]]
    assert sorted(layers) == sorted(run.metric_units("per_layer"))
    assert set(predictions["metrics"]) <= set(layers)
    for entry in [*predictions["layers"].values(),
                  *predictions["metrics"].values()]:
        assert set(entry.get("on", ())) <= set(run.WORKLOAD_NAMES)
        assert set(entry.get("bypassed_by", ())) <= set(run.WORKLOAD_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("study", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
