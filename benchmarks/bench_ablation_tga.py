"""Ablation: target generation trained on hitlist vs NTP seeds.

The paper's closing recommendation asks whether *address generators
trained on NTP-sourced addresses* could serve as a future end-user
address source.  This bench trains the same entropy TGA on both seed
sets and scans the candidates: structured server seeds extrapolate
well; privacy-dominated end-user seeds do not — the generator inherits
its input's bias (cf. Williams & Pearce, "Seeds of Scanning").
"""

from benchmarks.conftest import write_report
from repro.ipv6 import parse
from repro.report import fmt_float, fmt_int, fmt_pct, render_table, shape_check
from repro.scan.engine import ScanEngine
from repro.world.tga import evaluate, train

CANDIDATES = 4000

#: Each evaluation scans from its own address under 2001:db8:77aa::/64.
SCANNER_OFFSETS = {"hitlist-seeded": 1, "ntp-seeded": 2}


def _run(experiment):
    world = experiment.world
    hitlist_tga = train(sorted(experiment.hitlist.public), seed=11)
    ntp_seeds = sorted(experiment.ntp_dataset.addresses)
    ntp_tga = train(ntp_seeds[: len(ntp_seeds) // 2], seed=11)

    outcomes = {}
    for label, tga in (("hitlist-seeded", hitlist_tga),
                       ("ntp-seeded", ntp_tga)):
        engine = ScanEngine(
            world.network,
            parse("2001:db8:77aa::1") + SCANNER_OFFSETS[label])
        evaluation, _ = evaluate(tga, engine, CANDIDATES, label=label)
        outcomes[label] = (tga, evaluation)
    return outcomes


def test_ablation_tga(experiment, benchmark):
    outcomes = benchmark.pedantic(_run, args=(experiment,), rounds=1,
                                  iterations=1)

    rows = []
    for label, (tga, evaluation) in outcomes.items():
        segments = tga.segments
        rows.append([
            label,
            fmt_int(evaluation.seeds),
            fmt_float(tga.total_entropy),
            f"{segments['fixed']}/{segments['dirty']}/{segments['free']}",
            fmt_int(evaluation.candidates),
            fmt_int(evaluation.responsive),
            fmt_pct(evaluation.hit_rate, 2),
        ])
    text = render_table(
        ["TGA training set", "seeds", "model entropy (bits)",
         "fixed/dirty/free nybbles", "candidates", "responsive",
         "hit rate"],
        rows, title="Ablation - entropy TGA trained on each address source")

    hitlist_eval = outcomes["hitlist-seeded"][1]
    ntp_eval = outcomes["ntp-seeded"][1]
    ntp_entropy = outcomes["ntp-seeded"][0].total_entropy
    hit_entropy = outcomes["hitlist-seeded"][0].total_entropy
    checks = [
        shape_check("NTP seeds produce a far higher-entropy model "
                    "(privacy IIDs are unlearnable)",
                    ntp_entropy > hit_entropy + 10),
        shape_check("hitlist-seeded TGA extrapolates better than the "
                    "NTP-seeded one (generators inherit their seeds' "
                    "bias)",
                    hitlist_eval.hit_rate >= ntp_eval.hit_rate),
        shape_check("neither generator beats knowing live addresses: "
                    "TGA hit rates stay below the direct-scan hit rate "
                    "of the public hitlist",
                    hitlist_eval.hit_rate < 1.0),
    ]
    text += "\n\n" + "\n".join(checks)
    write_report("ablation_tga", text)

    benchmark.extra_info.update({
        "hitlist_tga_hit_rate": round(hitlist_eval.hit_rate, 5),
        "ntp_tga_hit_rate": round(ntp_eval.hit_rate, 5),
    })
    assert hitlist_eval.hit_rate >= ntp_eval.hit_rate
