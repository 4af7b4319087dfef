"""End-to-end pipeline cost: one full (small) study per round."""

import random

from benchmarks.conftest import write_report
from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.ipv6 import parse
from repro.net.simnet import Network
from repro.obs import Histogram, use_registry
from repro.report import fmt_int, fmt_pct, render_table, shape_check
from repro.scan.engine import EngineConfig, ScanEngine
from repro.world import devices as dev
from repro.world.population import WorldConfig


def _small_study():
    return run_experiment(ExperimentConfig(
        world=WorldConfig(scale=0.1),
        campaign=CampaignConfig(days=14, wire_fraction=0.02),
        rl_days=3, gap_days=3, lead_days=10, final_days=4,
    ))


def _metrics_lines(registry, label):
    """Drop counts and probe-latency quantiles for one run.

    Quantiles come from the fixed-bucket ``probe_seconds`` histograms,
    so each is an upper bound (the bucket boundary the quantile falls
    in), merged across every engine/protocol series.
    """
    dropped = sum(c.value for _, c in registry.find("stage_dropped_total"))
    cooled = sum(c.value
                 for _, c in registry.find("scheduler_cooldown_hits_total"))
    latency = Histogram.merged(
        [h for _, h in registry.find("probe_seconds")])
    return (
        f"  {label}\n"
        f"    queue drops:          {fmt_int(int(dropped))}\n"
        f"    cool-down rejections: {fmt_int(int(cooled))}\n"
        f"    probes observed:      {fmt_int(int(latency.count))}\n"
        f"    probe latency:        p50 <= {latency.quantile(0.5):g} s, "
        f"p99 <= {latency.quantile(0.99):g} s\n"
    )


def test_pipeline_end_to_end(benchmark):
    result = benchmark.pedantic(_small_study, rounds=3, iterations=1)

    text = (
        "End-to-end pipeline (scale 0.1, 14 collection days per round)\n"
        f"  devices simulated:   {fmt_int(len(result.world.devices))}\n"
        f"  addresses collected: {fmt_int(len(result.ntp_dataset))}\n"
        f"  targets scanned:     "
        f"{fmt_int(result.ntp_scan.targets_seen + result.hitlist_scan.targets_seen)}\n"
    )
    text += "\n" + shape_check(
        "full study completes with populated artefacts",
        len(result.ntp_dataset) > 0 and result.hitlist.full_size > 0)
    write_report("pipeline_end_to_end", text)

    benchmark.extra_info.update({
        "devices": len(result.world.devices),
        "collected": len(result.ntp_dataset),
    })
    assert len(result.ntp_dataset) > 0


def _driving_scan():
    """One driving-mode scan campaign under a fresh metrics registry.

    Driving mode advances the virtual clock through token-bucket waits
    and politeness delays, so ``probe_seconds`` records real (simulated)
    per-probe latency instead of the zeros of embedded mode.  Targets
    repeat, so the cool-down path is exercised too.
    """
    rng = random.Random(1905)
    network = Network()
    prefix = parse("2001:db8:600::")
    for index in range(40):
        device = dev.make_fritzbox(rng, index, 0x3C3786000000 + index)
        device.assign_address(prefix, rng)
        device.materialize(network)
    targets = [prefix | rng.getrandbits(64) for _ in range(300)]
    targets += rng.sample(targets, 60)          # duplicates hit cool-down
    with use_registry() as registry:
        engine = ScanEngine(
            network, parse("2001:db8:5c::1"),
            EngineConfig(packets_per_second=100.0), name="bench")
        results = engine.run(targets, label="driving")
    return registry, results


def test_probe_latency_driving_mode(benchmark):
    """p50/p99 probe latency of the scan engine in driving mode."""
    registry, _ = _driving_scan()
    benchmark.pedantic(_driving_scan, rounds=3, iterations=1)

    text = "Driving-mode probe latency\n"
    latency = Histogram.merged(
        [h for _, h in registry.find("probe_seconds")])
    text += _metrics_lines(registry, "single engine")
    text += "\n" + shape_check(
        "driving mode records nonzero probe latency", latency.sum > 0)
    text += "\n" + shape_check(
        "cool-down rejections recorded for duplicate targets",
        sum(c.value
            for _, c in registry.find("scheduler_cooldown_hits_total")) > 0)
    write_report("pipeline_probe_latency", text)

    benchmark.extra_info.update({"p99_s": latency.quantile(0.99)})
    assert latency.count > 0


def _ecosystem_run():
    """One mixed-actor telescope campaign with strategy attribution."""
    return api.ecosystem(api.EcosystemConfig(
        world=WorldConfig(seed=20240720, scale=0.1),
        sweep_days=4, settle_days=2))


def test_ecosystem_attribution_population(benchmark):
    """Mixed-actor sweep: attribution quality at benchmark scale.

    Runs the full ecosystem pipeline (two NTP-sourcing actors plus the
    five-strategy leak population) and renders the confusion matrix and
    per-strategy precision/recall the attribution layer produced.  The
    quality gate is unconditional — the diagonal must stay >= 0.9 at
    this scale regardless of machine.
    """
    result = benchmark.pedantic(_ecosystem_run, rounds=3, iterations=1)

    attribution = result.attribution
    confusion = attribution.confusion()
    metrics = attribution.strategy_metrics()
    diagonal = attribution.diagonal_accuracy()
    accuracy = attribution.tables()["accuracy"]

    predicted_labels = sorted(
        {label for row in confusion.values() for label in row})
    confusion_rows = [
        [truth] + [row.get(label, 0) for label in predicted_labels]
        for truth, row in confusion.items()]
    metric_rows = [
        [strategy, fmt_pct(scores["precision"]), fmt_pct(scores["recall"]),
         fmt_int(int(scores["support"]))]
        for strategy, scores in metrics.items()]

    gate_passed = diagonal >= 0.9
    text = (
        "Mixed-actor population sweep (scale 0.1, 4 sweep days)\n"
        f"  telescope events:    {fmt_int(len(result.telescope.events))}\n"
        f"  source clusters:     {fmt_int(accuracy['clusters'])}\n"
        f"  labeled clusters:    {fmt_int(accuracy['labeled'])}\n"
        f"  confusion diagonal:  {fmt_pct(diagonal)}\n"
        "\nConfusion matrix (truth rows, predicted columns)\n"
        + render_table(["truth \\ predicted"] + predicted_labels,
                       confusion_rows)
        + "\nPer-strategy attribution quality\n"
        + render_table(["strategy", "precision", "recall", "support"],
                       metric_rows)
    )
    text += "\n" + shape_check(
        "every labeled strategy attributed (confusion diagonal >= 90%)",
        gate_passed)
    write_report("pipeline_ecosystem", text)

    benchmark.extra_info.update({
        "clusters": accuracy["clusters"],
        "labeled": accuracy["labeled"],
        "diagonal": round(diagonal, 4),
        "gate_armed": True,
        "gate_status": "armed-passed" if gate_passed else "armed-failed",
    })
    assert gate_passed, f"confusion diagonal {diagonal:.2%} < 90%"
