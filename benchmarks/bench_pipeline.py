"""End-to-end pipeline cost: one full (small) study per round."""

from benchmarks.conftest import write_report
from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.report import fmt_int, fmt_pct, render_table, shape_check
from repro.world.population import WorldConfig


def _small_study():
    return run_experiment(ExperimentConfig(
        world=WorldConfig(scale=0.1),
        campaign=CampaignConfig(days=14, wire_fraction=0.02),
        rl_days=3, gap_days=3, lead_days=10, final_days=4,
    ))


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
