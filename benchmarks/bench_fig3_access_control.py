"""Figure 3: MQTT/AMQP access control + the combined security headline."""

from benchmarks.conftest import write_report
from repro.analysis.bundle import run_analysis
from repro.report import fmt_int, fmt_pct, render_table, shape_check


def test_fig3_access_control(experiment, benchmark):
    bundle = benchmark(run_analysis, experiment.ntp_scan,
                       experiment.hitlist_scan)

    rows = []
    for protocol in ("mqtt", "amqp"):
        for side in ("ntp", "hitlist"):
            report = bundle.brokers[(side, protocol)]
            rows.append([protocol.upper(), side, fmt_int(report.total),
                         fmt_int(report.open_count),
                         fmt_pct(report.access_control_share)])
    text = render_table(
        ["protocol", "dataset", "brokers", "open", "access control"],
        rows, title="Figure 3 - NTP-sourced brokers show worse security")

    ntp_gap, hitlist_gap = bundle.security_gap()
    text += (f"\n\nCombined secure share (SSH up-to-date + brokers with "
             f"access control):\n"
             f"  hitlist: {fmt_pct(hitlist_gap.secure_share)} of "
             f"{fmt_int(hitlist_gap.total)} hosts "
             f"(paper: 43.5 % of 854 704)\n"
             f"  NTP:     {fmt_pct(ntp_gap.secure_share)} of "
             f"{fmt_int(ntp_gap.total)} hosts (paper: 28.4 % of 73 975)")

    mqtt_ntp = bundle.brokers[("ntp", "mqtt")]
    mqtt_hit = bundle.brokers[("hitlist", "mqtt")]
    amqp_ntp = bundle.brokers[("ntp", "amqp")]
    amqp_hit = bundle.brokers[("hitlist", "amqp")]
    checks = [
        shape_check("over half of NTP-found MQTT brokers lack access "
                    "control (paper: >50 % open)",
                    mqtt_ntp.open_share > 0.5),
        shape_check("hitlist MQTT brokers mostly enforce access control "
                    "(paper: 80 %)", mqtt_hit.access_control_share > 0.6),
        shape_check("AMQP widely access-controlled on both sides "
                    "(heavyweight, professional deployments)",
                    amqp_ntp.access_control_share >= 0.6
                    and amqp_hit.access_control_share >= 0.6),
        shape_check("headline: secure share drops for NTP-sourced hosts",
                    ntp_gap.secure_share < hitlist_gap.secure_share - 0.05),
    ]
    text += "\n\n" + "\n".join(checks)
    write_report("fig3_access_control", text)

    benchmark.extra_info.update({
        "ntp_secure_share": round(ntp_gap.secure_share, 4),
        "hitlist_secure_share": round(hitlist_gap.secure_share, 4),
    })
    assert ntp_gap.secure_share < hitlist_gap.secure_share
    assert mqtt_ntp.access_control_share < mqtt_hit.access_control_share
