"""The repository benchmark: the ``study``, ``campaign`` and ``replay``
workloads, one per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

A run sets up ``SETUP_ROUNDS`` times in fresh interpreters
(``prepare.py``; ``setup_s`` is their median), starts its workload,
runs one checked warm-up iteration, then measures iterations for
``--seconds`` seconds, each after ``gc.collect()``.  With ``--trace 1``
one more untraced iteration is the baseline, then the wrappers of
``tracing.py`` are installed and the remaining iterations are traced.

It prints human-readable lines (every named metric with its unit, the
error rate and a sha256 digest of the deterministic outputs) and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  It reads and writes only inside the
checkout, and stops the processes it starts.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

#: The benchmark's declaration (workloads, run length, metric
#: catalogue) and its recorded seeds and predictions.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(workload["name"] for workload in BENCHMARK["workloads"])
DEFAULT_SEED = SPEC["seeds"]["default"]
#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
SERVE_LOAD = "2-client closed loop"


def metric_units(kind: str) -> dict:
    """``name -> unit`` of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``) of ``BENCHMARK.json``, in their declared order."""
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all of them).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="measuring time after warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def child_env(work: Path) -> dict:
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


def set_up(name: str, seed: int, work: Path):
    """``SETUP_ROUNDS`` fresh-interpreter set-ups.

    Returns (wall seconds, reference seconds, inputs directory) with one
    time per round; the last round's inputs are kept.
    """
    wall, reference = [], []
    directory = None
    for round_index in range(SETUP_ROUNDS):
        if directory is not None:
            shutil.rmtree(directory)
        directory = work / f"inputs-{round_index}"
        before = calibration.mix_seconds()
        done = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), name, str(seed),
             str(directory)],
            cwd=str(ROOT), env=child_env(work), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=150)
        after = calibration.mix_seconds()
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up round {round_index} failed:\n{done.stderr[-2000:]}")
        seconds = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        wall.append(seconds)
        reference.append(seconds * calibration.scale(name, before, after))
    return wall, reference, directory


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile (the serve front end's own definition)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def environment() -> str:
    numpy = importlib.util.find_spec("numpy") is not None
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={'yes' if numpy else 'no'}")


def measure(args, work: Path) -> dict:
    import workloads

    setup_wall, setup_reference, inputs = set_up(args.workload, args.seed,
                                                 work)
    os.environ["TMPDIR"] = str(work / "tmp")
    workload = workloads.WORKLOADS[args.workload](args.seed, inputs, work)
    tracer = tracing.Tracer() if args.trace else None
    done = []
    mark = calibration.mix_seconds()

    def iteration(index: int, traced: bool):
        nonlocal mark
        gc.collect()
        it = workloads.Iteration(tracer if traced else None)
        if traced:
            with tracer.span("iteration"):
                workload.iteration(it, index)
        else:
            workload.iteration(it, index)
        after = calibration.mix_seconds()
        it.scale = calibration.scale(args.workload, mark, after)
        mark = after
        done.append(it)
        return it

    workload.start()
    try:
        iteration(0, traced=False)  # warm-up: checked, never timed
        deadline = time.perf_counter() + args.seconds
        baseline = []
        if tracer is not None:
            baseline.append(iteration(1, traced=False))
            tracer.install()
        timed = []
        while True:
            timed.append(iteration(len(done), traced=tracer is not None))
            if time.perf_counter() >= deadline:
                break
    finally:
        workload.stop()

    def wall(it):
        if all(op in it.seconds for op in workload.operations):
            return sum(it.seconds[op] for op in workload.operations)
        return None

    complete = [it for it in timed if wall(it) is not None]
    report = {
        "workload": workload, "timed": timed,
        "setup_wall": setup_wall, "setup_reference": setup_reference,
        "iter_wall": [wall(it) for it in complete],
        "iter_reference": [wall(it) * it.scale for it in complete],
        "attempted": sum(it.attempted for it in done),
        "failed": sum(it.failed for it in done),
        "errors": [error for it in done for error in it.errors],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        OUT_ROOT.mkdir(exist_ok=True)
        tracer.write_spans(
            OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        untraced = [wall(it) * it.scale for it in baseline
                    if wall(it) is not None]
        overhead = (statistics.median(report["iter_reference"])
                    / statistics.median(untraced) - 1.0
                    if untraced and complete else 0.0)
        report["layers"] = layer_metrics(tracer, args.workload, timed,
                                         overhead)
    return report


def layer_metrics(tracer, workload: str, timed, overhead: float) -> dict:
    notes: dict = {}
    latencies = []
    for it in timed:
        latencies.extend(it.latencies)
        for key, value in it.notes.items():
            notes[key] = (value if key == "service.query_p50_ms"
                          else notes.get(key, 0) + value)
    if latencies:
        notes["service.frontend_wait_ms"] = (
            percentile(latencies, 0.50) * 1e3
            - notes.get("service.query_p50_ms", 0.0))
    return tracer.layer_metrics(workload, len(timed), notes, overhead)


def summary_lines(args, report) -> list:
    """Every named metric with its unit, for people reading the run.

    Each time shows the wall value and, after ``ref``, the same value in
    reference seconds (``calibration.py``).
    """
    workload = report["workload"]
    timed = report["timed"]
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"trace={args.trace} iterations={len(timed)} (+warm-up) "
             f"{environment()}"]

    def line(name, wall, unit, reference=None, note=""):
        ref = "" if reference is None else f"ref {reference:>10.4f}"
        lines.append(
            f"  {name:<14} {wall:>10.4f} {unit:<5} {ref:<14} {note}".rstrip())

    for op in workload.operations:
        if op == "serve":
            pairs = [(latency, latency * it.scale)
                     for it in timed for latency in it.latencies]
            for name, fraction in (("serve_p50_ms", 0.50),
                                   ("serve_p99_ms", 0.99)):
                if pairs:
                    line(name,
                         percentile([w for w, _ in pairs], fraction) * 1e3,
                         "ms",
                         percentile([r for _, r in pairs], fraction) * 1e3,
                         f"{len(pairs)} replies, {SERVE_LOAD}")
            continue
        pairs = [(it.seconds[op], it.seconds[op] * it.scale)
                 for it in timed if op in it.seconds]
        if pairs:
            line(f"{op}_s", statistics.median(w for w, _ in pairs), "s",
                 statistics.median(r for _, r in pairs),
                 f"median of {len(pairs)}: "
                 + " ".join(f"{w:.3f}" for w, _ in pairs))
    if report["iter_wall"]:
        line("iter_s", statistics.median(report["iter_wall"]), "s",
             statistics.median(report["iter_reference"]))
    line("setup_s", statistics.median(report["setup_wall"]), "s",
         statistics.median(report["setup_reference"]),
         f"median of {SETUP_ROUNDS} fresh-process set-ups")
    line("peak_rss_mb", report["peak_rss_mb"], "MiB")
    line("error_rate", report["failed"] / max(1, report["attempted"]),
         "ratio", None,
         f"{report['failed']} failed of {report['attempted']} operations")
    lines.append(f"  digest         sha256:{workload.digest()}")
    for error in report["errors"][:10]:
        lines.append(f"  error: {error}")
    units = metric_units("per_layer")
    for name, value in report.get("layers", {}).items():
        lines.append(f"  {name:<30} {value:>14.6g} {units[name]}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        status |= subprocess.call(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), stdin=subprocess.DEVNULL)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not report["iter_wall"]:
        print("\n".join(summary_lines(args, report)), file=sys.stderr)
        print("error: no iteration completed", file=sys.stderr)
        return 1
    if args.trace:
        units = metric_units("per_layer")
        values = report["layers"]
    else:
        # Times in reference seconds (``calibration.py``).
        units = metric_units("end_to_end")
        values = {"setup_s": statistics.median(report["setup_reference"]),
                  "iter_s": statistics.median(report["iter_reference"]),
                  "peak_rss_mb": report["peak_rss_mb"]}
    print("\n".join(summary_lines(args, report)))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
