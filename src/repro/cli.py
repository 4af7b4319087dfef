"""Command-line interface: run the study's experiments from a shell.

Subcommands
-----------
``world``       build a world and print its composition
``collect``     run the collection campaign, print per-server volumes
``study``       run the full pipeline, print the headline tables
``telescope``   deploy third-party actors and run the Section-5 detector
``ecosystem``   run the mixed scanner population (NTP + hitlist + TGA +
                rDNS walk + residential sweep + monlist amplification
                recon) and print the strategy attribution with
                ground-truth confusion metrics
``amplification``  probe a seeded pool's control plane (mode-6 readvar
                + mode-7 monlist) and print the monlist-exposure and
                amplification-factor tables (Figs 2/3)
``analyze``     re-run the analyses over saved JSONL scan results or a
                run-store directory (``--run-dir``); with ``--window``
                (plus ``--since``/``--step``) emits rolling windowed
                tables from checkpoint-anchored replay
``store``       inspect/verify/compact a durable run store
                (``study --store`` writes one; ``study --resume``
                continues an interrupted one)
``daemon``      run (or ``--resume``) a longitudinal service campaign:
                collection + scanning ticking day by day with world
                evolution, checkpointing into a run store
``serve``       answer concurrent windowed queries over a run store
                through a JSONL TCP front end with a frame cache

All commands are deterministic in ``--seed`` and scale with ``--scale``.
Every subcommand is a thin wrapper over :mod:`repro.api` and accepts
``--format {table,json}``: table mode renders the human tables below,
json mode emits the run's :class:`~repro.obs.runreport.RunReport` as one
stable document (``{"command", "version", "config", "metrics",
"tables"}``) through the ``repro.io`` serializer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.io import document_to_json
from repro.net.clock import HOUR
from repro.report import fmt_int, fmt_pct, fmt_permille, render_table
from repro.world.population import WorldConfig


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.2,
                        help="world scale factor (default 0.2)")
    parser.add_argument("--seed", type=int, default=20240720,
                        help="world seed (default 20240720)")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"),
                        default="table", dest="format",
                        help="output format: human tables or the "
                             "RunReport JSON document (default table)")


def _emit_json(report) -> int:
    print(document_to_json(report.as_document()))
    return 0


def _world_config(args: argparse.Namespace) -> WorldConfig:
    return WorldConfig(seed=args.seed, scale=args.scale)


def cmd_world(args: argparse.Namespace) -> int:
    try:
        result = api.build_world(_world_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    tables = result.report.tables
    print(render_table(
        ["device type", "count"],
        [[row["type"], fmt_int(row["count"])]
         for row in tables["composition"]],
        title=f"World composition (scale {args.scale}, seed {args.seed})"))
    summary = tables["summary"]
    print(f"\npremises: {fmt_int(summary['premises'])}, "
          f"ASes: {summary['ases']}, "
          f"NTP clients: {fmt_int(summary['ntp_clients'])}, "
          f"scannable: {fmt_int(summary['scannable'])}, "
          f"DNS-named: {fmt_int(summary['dns_named'])}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    try:
        result = api.collect(api.CollectConfig(
            world=_world_config(args),
            campaign=CampaignConfig(days=args.days, wire_fraction=args.wire),
        ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    written = 0
    if args.out:
        from repro.io import save_dataset

        written = save_dataset(result.campaign.dataset, args.out)
    if args.format == "json":
        return _emit_json(result.report)
    totals = result.report.tables["totals"]
    print(render_table(
        ["location", "#addresses"],
        [[row["location"], fmt_int(row["addresses"])]
         for row in result.report.tables["per_server"]],
        title=f"Collected {fmt_int(totals['addresses'])} addresses over "
              f"{args.days} days ({fmt_int(totals['requests'])} "
              "requests)"))
    if args.out:
        print(f"\nwrote {fmt_int(written)} records to {args.out}")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    protocols = tuple(args.protocols.split(",")) if args.protocols else None
    try:
        if args.resume:
            study = api.resume(args.resume)
        else:
            config = ExperimentConfig(
                world=_world_config(args),
                campaign=CampaignConfig(wire_fraction=args.wire),
                include_rl=not args.no_rl,
                protocols=protocols,
                store_dir=args.store,
                checkpoint_days=args.checkpoint_days,
            )
            study = api.study(config)
    except ValueError as exc:
        # Config validation and store recovery failures (WalError is a
        # ValueError) both surface here as actionable exit-2 messages.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = study.experiment

    if args.out_dir:
        import os

        from repro.io import save_dataset, save_results, save_run_report

        os.makedirs(args.out_dir, exist_ok=True)
        save_dataset(result.ntp_dataset,
                     os.path.join(args.out_dir, "ntp_dataset.jsonl"))
        save_results(result.ntp_scan,
                     os.path.join(args.out_dir, "ntp_scan.jsonl"))
        save_results(result.hitlist_scan,
                     os.path.join(args.out_dir, "hitlist_scan.jsonl"))
        save_run_report(study.report,
                        os.path.join(args.out_dir, "run_report.jsonl"))

    if args.format == "json":
        return _emit_json(study.report)

    if args.full_report:
        from repro.report.study import render_full_report

        print(render_full_report(result))
        return 0

    tables = study.report.tables
    print(render_table(
        ["dataset", "addresses", "/48s", "ASes", "med IPs//48",
         "med IPs/AS"],
        [[s["label"], fmt_int(s["addresses"]), fmt_int(s["net48s"]),
          fmt_int(s["ases"]), f"{s['median_ips_per_48']:.1f}",
          f"{s['median_ips_per_as']:.1f}"] for s in tables["table1"]],
        title="Table 1 - datasets"))

    print("\n" + render_table(
        ["protocol", "NTP #addrs", "hitlist #addrs"],
        [[row["protocol"], fmt_int(row["ntp_responsive"]),
          fmt_int(row["hitlist_responsive"])] for row in tables["table2"]],
        title="Table 2 - scans"))
    rates = tables["hit_rates"]
    print(f"\nhit rates: NTP {fmt_permille(rates['ntp'])} "
          f"vs hitlist {fmt_permille(rates['hitlist'])}")

    gap = tables["security"]
    print(f"secure share: NTP {fmt_pct(gap['ntp']['secure_share'])} of "
          f"{fmt_int(gap['ntp']['total'])} vs hitlist "
          f"{fmt_pct(gap['hitlist']['secure_share'])} "
          f"of {fmt_int(gap['hitlist']['total'])} (paper: 28.4 % vs 43.5 %)")

    device_gap = tables["device_gap"]
    print(f"device groups missed/underrepresented by the hitlist: "
          f"{device_gap['groups']} "
          f"({fmt_int(device_gap['devices'])} devices)")

    if args.out_dir:
        print(f"artefacts written to {args.out_dir}/")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Re-run the analyses over saved scan results or a run store."""
    try:
        config = api.AnalyzeConfig(ntp_path=args.ntp,
                                   hitlist_path=args.hitlist,
                                   run_dir=args.run_dir,
                                   since=args.since,
                                   window=args.window,
                                   step=args.step)
        result = api.analyze(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    tables = result.report.tables
    if args.window is not None:
        spec = tables["window_query"]
        rows = []
        for doc in tables["window_series"]:
            targets = doc["targets"]
            rates = doc["hit_rates"]
            side = next(iter(rates))
            rows.append([
                f"{doc['window']['start'] / 86400.0:.0f}",
                f"{doc['window']['end'] / 86400.0:.0f}",
                fmt_int(targets.get(side, 0)),
                fmt_int(targets.get("hitlist", 0)),
                fmt_permille(rates[side]),
                fmt_permille(rates["hitlist"]),
            ])
        print(render_table(
            ["start d", "end d", "NTP targets", "hitlist targets",
             "NTP hits", "hitlist hits"],
            rows,
            title=f"Rolling windows ({spec['windows']} x "
                  f"{spec['window']:.0f} d, step {spec['step']:.0f} d, "
                  f"horizon {spec['horizon_days']:.0f} d)"))
        return 0
    print(render_table(
        ["HTML title group", "NTP #certs", "hitlist #certs"],
        [[row["group"][:44], fmt_int(row["ntp_certs"]),
          fmt_int(row["hitlist_certs"])] for row in tables["device_types"]],
        title="Device types (from saved results)"))

    gap = tables["security"]
    print(f"\nsecure share: NTP {fmt_pct(gap['ntp']['secure_share'])} of "
          f"{fmt_int(gap['ntp']['total'])} vs hitlist "
          f"{fmt_pct(gap['hitlist']['secure_share'])} of "
          f"{fmt_int(gap['hitlist']['total'])}")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Operate on a durable run store: inspect, verify, compact."""
    from repro.store import RunStore

    try:
        store = RunStore.open(args.run_dir)
        if args.store_command == "inspect":
            document = store.inspect()
        elif args.store_command == "verify":
            document = store.verify()
        else:
            document = store.compact()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(document_to_json(document))
    elif args.store_command == "inspect":
        print(f"run store: {document['run_dir']}")
        print(f"segments: {document['segments']} "
              f"({fmt_int(document['wal_bytes'])} bytes)")
        print(f"checkpoints: {document['checkpoints']} "
              f"(latest at seq {document['latest_checkpoint_seq']})")
        print(f"compacted through: seq {document['compacted_through']}")
        print(f"cooldown TTL: {document['cooldown_ttl']:.0f} s, "
              f"segment max {fmt_int(document['segment_max_records'])} "
              f"records, fsync every {document['fsync_every']}")
    elif args.store_command == "verify":
        status = "OK" if document["ok"] else "CORRUPT"
        print(f"{status}: {fmt_int(document['records'])} records "
              f"(last seq {document['last_seq']}), "
              f"{document['checkpoints']} checkpoints, "
              f"{document['cooldown_violations']} cooldown violations")
        for kind, count in sorted(document["records_by_kind"].items()):
            print(f"  {kind}: {fmt_int(count)}")
        for problem in document["problems"]:
            print(f"  problem: {problem}")
    else:
        print(f"compacted {document['segments_deleted']} segments "
              f"({fmt_int(document['records_dropped'])} records) "
              f"through seq {document['compacted_through']}")
    if args.store_command == "verify" and not document["ok"]:
        return 1
    return 0


def cmd_daemon(args: argparse.Namespace) -> int:
    """Run (or resume) a longitudinal service campaign."""
    from repro.service import ServiceConfig

    try:
        if args.resume:
            result = api.resume_campaign(args.resume)
        else:
            result = api.run_campaign(ServiceConfig(
                world=_world_config(args),
                store_dir=args.store,
                campaign_days=args.days,
                checkpoint_days=args.checkpoint_days,
                hitlist_days=args.hitlist_days,
            ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    tables = result.report.tables
    campaign = tables["campaign"]
    drift = tables["drift"]
    pool = tables["pool"]
    print(f"campaign: {campaign['days_run']} days, "
          f"{fmt_int(campaign['addresses'])} addresses, "
          f"{fmt_int(campaign['requests'])} requests")
    for label, count in sorted(campaign["targets"].items()):
        print(f"  targets[{label}]: {fmt_int(count)}")
    print(f"drift: +{drift['devices_spawned']} / "
          f"-{drift['devices_retired']} devices, "
          f"+{drift['pool_joined']} / -{drift['pool_left']} pool members, "
          f"{drift['hitlist_sweeps']} hitlist sweeps")
    print(f"pool: {fmt_int(pool['background_members'])} background members, "
          f"{pool['capture_servers']} capture servers")
    print(f"store: {tables['store']['run_dir']} "
          f"(last seq {fmt_int(tables['store']['last_seq'])})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve windowed queries over a run store until interrupted."""
    try:
        server = api.serve(args.run_dir, host=args.host, port=args.port,
                           window=args.window, step=args.step,
                           cache_frames=args.cache_frames)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    print(f"serving {args.run_dir} on {host}:{port} "
          "(JSONL queries; send {\"cmd\": \"shutdown\"} to stop)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def cmd_telescope(args: argparse.Namespace) -> int:
    try:
        result = api.telescope(api.TelescopeConfig(
            world=_world_config(args), sweep_days=args.days))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    rows = []
    for verdict in result.verdicts:
        o = verdict.observation
        rows.append([o.cluster[:32], verdict.kind,
                     len(o.triggering_servers), len(o.ports),
                     f"{o.median_delay / HOUR:.1f} h",
                     fmt_pct(o.sensitive_share, 0)])
    summary = result.report.tables["telescope"]
    print(render_table(
        ["actor", "verdict", "servers", "ports", "median delay",
         "sensitive ports"],
        rows,
        title=f"Actors detected ({summary['baits']} baits, "
              f"match rate {fmt_pct(summary['match_rate'])})"))
    return 0


def cmd_ecosystem(args: argparse.Namespace) -> int:
    """Run the mixed scanner population and print the attribution."""
    try:
        result = api.ecosystem(api.EcosystemConfig(
            world=_world_config(args), sweep_days=args.days,
            window_days=args.window_days, step_days=args.step_days))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    tables = result.report.tables
    rows = []
    for row in tables["attribution"]:
        rows.append([
            row["cluster"][:28], row["strategy"],
            row["truth"] or "-", fmt_int(row["events"]),
            fmt_pct(row["bait_hit_ratio"], 0),
            fmt_int(row["dst64s"]),
            f"{row['revisit_ratio']:.1f}",
            fmt_pct(row["ptr_share"], 0),
        ])
    summary = tables["telescope"]
    print(render_table(
        ["cluster", "strategy", "truth", "events", "bait hits",
         "/64s", "revisit", "PTR"],
        rows,
        title=f"Strategy attribution ({summary['baits']} baits, "
              f"{fmt_int(summary['events'])} events)"))

    confusion = tables["confusion"]
    predicted_labels = sorted(
        {label for row in confusion.values() for label in row})
    print("\n" + render_table(
        ["truth \\ predicted"] + predicted_labels,
        [[truth] + [fmt_int(row.get(label, 0))
                    for label in predicted_labels]
         for truth, row in confusion.items()],
        title="Confusion matrix (ground truth vs attribution)"))

    accuracy = tables["accuracy"]
    print(f"\ndiagonal accuracy: {fmt_pct(accuracy['diagonal'])} over "
          f"{accuracy['labeled']} labeled of {accuracy['clusters']} "
          "clusters")
    for strategy, metric in tables["strategy_metrics"].items():
        print(f"  {strategy}: precision {fmt_pct(metric['precision'])}, "
              f"recall {fmt_pct(metric['recall'])}, "
              f"support {fmt_int(metric['support'])}")
    if "attribution_windows" in tables:
        print("\n" + render_table(
            ["start d", "end d", "events", "clusters", "diagonal"],
            [[f"{doc['window']['start'] / 86400.0:.0f}",
              f"{doc['window']['end'] / 86400.0:.0f}",
              fmt_int(doc["events"]), fmt_int(doc["clusters"]),
              fmt_pct(doc["accuracy"]["diagonal"])]
             for doc in tables["attribution_windows"]],
            title="Rolling attribution windows"))
    return 0


def cmd_amplification(args: argparse.Namespace) -> int:
    """Probe the seeded pool's control plane, print Figs 2/3 tables."""
    try:
        result = api.amplification(api.AmplificationConfig(
            servers=args.servers, seed=args.seed,
            max_entries=args.max_entries))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(result.report)
    print(result.table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Time To Scan: Digging into "
                    "NTP-based IPv6 Scanning' (IMC 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    world = sub.add_parser("world", help="print world composition")
    _add_common(world)
    _add_format(world)
    world.set_defaults(func=cmd_world)

    collect = sub.add_parser("collect", help="run the collection campaign")
    _add_common(collect)
    _add_format(collect)
    collect.add_argument("--days", type=int, default=7)
    collect.add_argument("--wire", type=float, default=0.02,
                         help="fraction of devices on the full wire path")
    collect.add_argument("--out", help="save the dataset as JSONL")
    collect.set_defaults(func=cmd_collect)

    study = sub.add_parser("study", help="run the full study pipeline")
    _add_common(study)
    _add_format(study)
    study.add_argument("--wire", type=float, default=0.02)
    study.add_argument("--no-rl", action="store_true",
                       help="skip the R&L-style pre-campaign")
    study.add_argument("--protocols",
                       help="comma-separated probe profile, e.g. ssh,coap "
                            "(default: all eight paper protocols)")
    study.add_argument("--out-dir",
                       help="save dataset + scan results + run report "
                            "as JSONL")
    study.add_argument("--full-report", action="store_true",
                       help="print every paper table/figure")
    study.add_argument("--store",
                       help="stream the run into a durable run-store "
                            "directory (resumable after a crash)")
    study.add_argument("--checkpoint-days", type=int, default=7,
                       dest="checkpoint_days",
                       help="collection days between store checkpoints "
                            "(default 7)")
    study.add_argument("--resume", metavar="RUN_DIR",
                       help="recover an interrupted store-backed study "
                            "from its run directory and continue it "
                            "(other study flags are ignored)")
    study.set_defaults(func=cmd_study)

    analyze = sub.add_parser(
        "analyze", help="re-run analyses over saved scan results")
    _add_format(analyze)
    analyze.add_argument("--ntp",
                         help="JSONL file from `study --out-dir`")
    analyze.add_argument("--hitlist",
                         help="JSONL file from `study --out-dir`")
    analyze.add_argument("--run-dir", dest="run_dir",
                         help="analyze a run-store directory (from "
                              "`study --store`) instead of saved files")
    analyze.add_argument("--since", type=float, default=None,
                         help="windowed mode: first window start, in "
                              "simulated days (default 0)")
    analyze.add_argument("--window", type=float, default=None,
                         help="windowed mode: window span in simulated "
                              "days; switches --run-dir analysis to "
                              "rolling checkpoint-anchored tables")
    analyze.add_argument("--step", type=float, default=None,
                         help="windowed mode: stride between windows in "
                              "days (default: the window span)")
    analyze.set_defaults(func=cmd_analyze)

    store = sub.add_parser(
        "store", help="inspect, verify, or compact a run store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, description in (
            ("inspect", "summarize a run store's layout and positions"),
            ("verify", "check CRCs, chain, and the cooldown invariant"),
            ("compact", "delete whole segments covered by the latest "
                        "checkpoint")):
        command = store_sub.add_parser(name, help=description)
        command.add_argument("run_dir", help="run-store directory")
        _add_format(command)
        command.set_defaults(func=cmd_store)

    daemon = sub.add_parser(
        "daemon", help="run a longitudinal service campaign")
    _add_common(daemon)
    _add_format(daemon)
    daemon.add_argument("--store",
                        help="run-store directory the daemon appends to "
                             "(required unless --resume)")
    daemon.add_argument("--days", type=int, default=21,
                        help="simulated campaign days (default 21)")
    daemon.add_argument("--checkpoint-days", type=int, default=7,
                        dest="checkpoint_days",
                        help="days between checkpoints (default 7)")
    daemon.add_argument("--hitlist-days", type=int, default=7,
                        dest="hitlist_days",
                        help="days between hitlist sweeps; 0 disables "
                             "(default 7)")
    daemon.add_argument("--resume", metavar="RUN_DIR",
                        help="recover a crashed campaign from its run "
                             "directory (other flags are ignored)")
    daemon.set_defaults(func=cmd_daemon)

    serve = sub.add_parser(
        "serve", help="serve windowed queries over a run store")
    serve.add_argument("run_dir", help="run-store directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral, printed "
                            "on stderr)")
    serve.add_argument("--window", type=float, default=None,
                       help="default window span in days (default 7)")
    serve.add_argument("--step", type=float, default=None,
                       help="default window stride in days (default 7)")
    serve.add_argument("--cache-frames", type=int, default=None,
                       dest="cache_frames",
                       help="LRU capacity of the materialized-frame "
                            "cache (default 32)")
    serve.set_defaults(func=cmd_serve)

    telescope = sub.add_parser("telescope",
                               help="detect NTP-sourcing scanners")
    _add_common(telescope)
    _add_format(telescope)
    telescope.add_argument("--days", type=int, default=6,
                           help="telescope sweep days")
    telescope.set_defaults(func=cmd_telescope)

    ecosystem = sub.add_parser(
        "ecosystem",
        help="run the mixed scanner population and attribute strategies")
    _add_common(ecosystem)
    _add_format(ecosystem)
    ecosystem.add_argument("--days", type=int, default=4,
                           help="telescope sweep days (default 4)")
    ecosystem.add_argument("--window-days", type=float, default=None,
                           dest="window_days",
                           help="also emit rolling attribution windows "
                                "of this many simulated days")
    ecosystem.add_argument("--step-days", type=float, default=None,
                           dest="step_days",
                           help="stride between attribution windows "
                                "(default: the window span)")
    ecosystem.set_defaults(func=cmd_ecosystem)

    amplification = sub.add_parser(
        "amplification",
        help="probe pool control planes and print the monlist "
             "exposure / amplification tables")
    _add_format(amplification)
    amplification.add_argument("--servers", type=int, default=96,
                               help="pool servers to probe (default 96)")
    amplification.add_argument("--seed", type=int, default=20240720,
                               help="profile seed (default 20240720)")
    amplification.add_argument("--max-entries", type=int, default=48,
                               dest="max_entries",
                               help="largest pre-seeded recent-client "
                                    "table (default 48)")
    amplification.set_defaults(func=cmd_amplification)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
