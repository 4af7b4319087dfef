#!/usr/bin/env python3
"""Target generation trained on each address source (future work).

The paper's recommendations ask whether address generators trained on
NTP-sourced addresses could become an end-user address source.  This
example trains the entropy TGA on (a) the public hitlist and (b) the
NTP-collected set, scans both candidate sets, and shows why seed bias
decides everything: structured server space extrapolates; rotating
privacy space does not.

Run:  python examples/target_generation.py
"""

from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.ipv6 import parse
from repro.report import fmt_int, fmt_pct, render_table
from repro.scan.engine import ScanEngine
from repro.world import WorldConfig
from repro.world.tga import evaluate, train


def main() -> None:
    print("Running the study pipeline to obtain both seed sets ...")
    result = run_experiment(ExperimentConfig(
        world=WorldConfig(scale=0.45),
        campaign=CampaignConfig(days=21, wire_fraction=0.0),
        include_rl=False, gap_days=4, lead_days=16, final_days=5,
    ))
    world = result.world

    rows = []
    for label, seeds in (
            ("hitlist-seeded", sorted(result.hitlist.public)),
            ("ntp-seeded", sorted(result.ntp_dataset.addresses))):
        tga = train(seeds, seed=23)
        engine = ScanEngine(world.network, parse("2001:db8:77bb::1"))
        evaluation, _ = evaluate(tga, engine, 5000, label=label)
        segments = tga.segments
        rows.append([
            label, fmt_int(evaluation.seeds),
            f"{tga.total_entropy:.1f} bits",
            f"{segments['fixed']} fixed / {segments['dirty']} dirty / "
            f"{segments['free']} free",
            fmt_int(evaluation.candidates),
            fmt_int(evaluation.responsive),
            fmt_pct(evaluation.hit_rate, 2),
        ])
    print("\n" + render_table(
        ["training seeds", "count", "model entropy", "nybble segments",
         "candidates", "responsive", "hit rate"],
        rows, title="Entropy TGA trained on each address source"))

    print(
        "\nReading: the hitlist's structured addresses compress into a"
        "\nlow-entropy model whose candidates land near real servers and"
        "\naliased CDN subnets; the NTP set's privacy identifiers leave"
        "\nnothing to learn — supporting the paper's conclusion that"
        "\nend-user coverage needs *live* sources (like NTP), not"
        "\ngenerated lists.")


if __name__ == "__main__":
    main()
