"""The monlist amplification study: exposure shares.

Benchmarks ``api.amplification`` (the mode-6/7 control-plane scan over
the profiled pool) and commits its rendered exposure/distribution
artefact.  Two unconditional gates ride along: the seeded exposure
share must sit in the paper's plausible band, and the amplification
factor must stay bounded by the recent-client table.
"""

from benchmarks.conftest import write_report
from repro import api
from repro.report import fmt_int, fmt_pct, shape_check

CONFIG = dict(servers=96, seed=20240720, max_entries=48)


def _amplification_run():
    return api.amplification(api.AmplificationConfig(**CONFIG))


def test_amplification_study(benchmark):
    """Full study at bench scale: 96 profiled servers."""
    result = benchmark.pedantic(_amplification_run, rounds=3, iterations=1)

    exposure = result.exposure
    distribution = result.distribution
    # Czyz et al. measured ~7% of v4 servers still open in 2014 after
    # the patch shipped; our seeded pool models the pre-cleanup era the
    # paper's Fig 2/3 describes — 12% v3 + 28% unpatched v4 gives an
    # expected exposure share near 40%.
    gate_passed = 0.2 <= exposure.exposed_share <= 0.6 \
        and distribution.maximum <= 60.0

    text = result.table
    text += (f"\n\nresponsive servers: {fmt_int(exposure.responsive)} "
             f"({fmt_pct(exposure.exposed_share)} answer monlist)")
    text += "\n\n" + shape_check(
        "monlist exposure share in the seeded band (20-60%)",
        0.2 <= exposure.exposed_share <= 0.6)
    text += "\n" + shape_check(
        "amplification bounded by the 48-entry table (max <= 60x)",
        distribution.maximum <= 60.0)
    write_report("amplification", text)

    benchmark.extra_info.update({
        "responsive": exposure.responsive,
        "exposed": exposure.exposed,
        "exposed_share": round(exposure.exposed_share, 4),
        "mean_amplification": round(distribution.mean, 2),
        "max_amplification": round(distribution.maximum, 2),
        "gate_armed": True,
        "gate_status": "armed-passed" if gate_passed else "armed-failed",
    })
    assert gate_passed, (
        f"exposure {exposure.exposed_share:.1%} / "
        f"max {distribution.maximum:.1f}x outside the seeded band")
