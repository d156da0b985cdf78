"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
fig5
    Reproduce the paper's headline figure from the Section V closed
    form and print the optima table (optionally the ASCII curve).
epoch
    Run one checkpoint epoch of a chosen architecture on a simulated
    cluster and print the cost accounting.
job
    Run an end-to-end checkpointed job with failure injection and print
    the realized completion statistics.
study
    Paired multi-method comparison over shared failure traces.
validate
    Corroborate the Section V equations against Monte-Carlo.
campaign
    Run a JSON-spec sweep (``--spec``) through the parallel, resumable
    orchestration layer (``--jobs``, ``--store``, ``--no-resume``).
trace export
    Run an instrumented scenario and export its span timeline as a
    Chrome/Perfetto trace or a JSONL event stream.
metrics
    Run an instrumented scenario and print its metrics in Prometheus
    text exposition format (or as a summary table).
serving run|study
    Checkpoint-protected request serving: ``run`` serves one open-loop
    stream under a chosen protection policy (baseline, checkpoint,
    checkpoint_sla, clone2); ``study`` compares policies over shared
    arrival+failure traces and prints the tail-latency table.
controlplane run|drain|status
    Drive the always-on cluster coordinator: ``run`` is the seeded
    churn soak (concurrent provision/kill/drain/query ops under
    transient faults and strict audits), ``drain`` performs rolling
    maintenance of every node with live migrations, ``status`` prints
    the coordinator's world view after a short managed run.
calibrate
    Measure this host's streaming XOR bandwidth (the model's
    ``memory_xor_bandwidth`` input).

``study`` and ``validate`` (and ``geo study``/``serving study``)
execute through the campaign layer too: ``--jobs N`` fans their task
units across cores with bit-identical output (deterministic per-task
seeding), and ``--store`` makes them resumable.

Every simulation driver runs its top-level process with
``sim.run_process``, so a process that raises surfaces its own
exception and one that never finishes raises ``SimulationError``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import ascii_plot, format_bytes, format_seconds, render_table
from .experiments import METHOD_NAMES, MethodSpec, run_job_cell
from .model import ClusterModel, fig5
from .sim import NULL_TRACER
from .workloads import scaled_scenario

__all__ = ["main", "build_parser"]


def _fig5_report(result, plot: bool) -> None:
    rows = []
    for s in (result.diskful, result.diskless):
        rows.append([
            s.method,
            format_seconds(s.optimum.interval),
            format_seconds(s.optimum.overhead_at_optimum),
            f"{s.min_ratio:.4f}",
            f"{s.overhead_ratio * 100:.2f}%",
        ])
    print(render_table(
        ["method", "optimal interval", "T_ov", "E[T]/T", "overhead"],
        rows,
        title=(
            f"Fig. 5 @ MTBF {1.0 / result.lam / 3600.0:g} h, "
            f"job {result.T / 3600.0:g} h, "
            f"{result.cluster.n_nodes} nodes x "
            f"{result.cluster.vms_per_node} VMs"
        ),
    ))
    print(f"\ndiskless reduces expected completion time by "
          f"{result.reduction * 100:.1f}%")
    if plot:
        mask = result.diskful.ratios < 2.0
        masks = (mask, mask)
        if not mask.any():
            # diskful never gets under 2x: keep each curve below twice
            # the higher minimum, which holds both optima
            top = 2.0 * max(result.diskful.min_ratio, result.diskless.min_ratio)
            masks = (result.diskless.ratios < top, result.diskful.ratios < top)
        print()
        print(ascii_plot(
            [
                (s.method, s.intervals[m], s.ratios[m])
                for s, m in zip((result.diskless, result.diskful), masks)
            ],
            logx=True,
            marks=[
                (result.diskless.optimum.interval, result.diskless.min_ratio),
                (result.diskful.optimum.interval, result.diskful.min_ratio),
            ],
        ))


def _campaign_kwargs(args: argparse.Namespace) -> dict:
    """The runner options every campaign-backed command shares."""
    return {
        "jobs": args.jobs,
        "store": args.store,
        "resume": not args.no_resume,
    }


def _report_failures(campaign) -> None:
    for run in campaign.failures()[:5]:
        print(f"FAILED {run.task.kind} {run.task.params}: {run.error}",
              file=sys.stderr)
    if campaign.n_failed > 5:
        print(f"... and {campaign.n_failed - 5} more failed tasks",
              file=sys.stderr)


def _fig5_scheme_sweep(args: argparse.Namespace) -> int:
    """Analytic scheme comparison: loss probability vs overhead.

    For each coding scheme, prints its erasure tolerance, storage and
    traffic overheads at this cluster's group size, and the probability
    that failures during a degraded window exceed the scheme's remaining
    tolerance (:func:`repro.model.montecarlo.window_loss_probability`).
    """
    from .coding import parse_scheme
    from .model.montecarlo import window_loss_probability

    specs = args.scheme or ["xor", "rdp", "rs-8-2", "rep-3"]
    lam_node = 1.0 / (args.mtbf * 3600.0) / args.nodes
    rows = []
    for spec in specs:
        sch = parse_scheme(spec)
        k = max(1, args.nodes - sch.n_shards)
        p = window_loss_probability(
            lam_node, args.nodes, args.window, tolerance=sch.tolerance
        )
        rows.append([
            sch.name, sch.tolerance, sch.n_shards,
            f"{sch.storage_overhead(k):.2f}x",
            f"{sch.traffic_factor(k):.1f}x",
            f"{p:.3e}",
        ])
    print(render_table(
        ["scheme", "tolerance", "shards", "storage", "traffic",
         "P(loss in window)"],
        rows,
        title=f"coding schemes @ {args.nodes} nodes, MTBF {args.mtbf:g} h, "
              f"window {args.window:g} s (k = nodes - shards)",
    ))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    if args.scheme is not None:
        return _fig5_scheme_sweep(args)
    cluster = ClusterModel(
        n_nodes=args.nodes,
        vms_per_node=args.vms_per_node,
        vm_dirty_rate=args.dirty_rate,
    )
    result = fig5(
        lam=1.0 / (args.mtbf * 3600.0), T=args.job * 3600.0, cluster=cluster
    )
    _fig5_report(result, args.plot)
    return 0


def _epoch_method(arch: str):
    """The ``--arch`` spelling as a full-capture :class:`MethodSpec`."""
    name = {"checkpoint-node": "checkpoint_node", "firstshot": "first_shot"}
    return MethodSpec(name.get(arch, arch), incremental=False)


def _cmd_epoch(args: argparse.Namespace) -> int:
    sc, ck = _epoch_method(args.arch).build(
        args.nodes, args.vms_per_node, seed=args.seed
    )
    r = sc.sim.run_process(ck.run_cycle())
    rows = [[
        args.arch,
        len(sc.cluster.all_vms),
        format_seconds(r.overhead),
        format_seconds(r.latency),
        format_bytes(r.network_bytes),
    ]]
    print(render_table(
        ["architecture", "VMs", "overhead", "latency", "traffic"],
        rows,
        title="one checkpoint epoch",
    ))
    xor = getattr(r, "xor_seconds_by_node", None)
    if xor:
        print("parity work by node: "
              + ", ".join(f"{n}: {format_seconds(t)}" for n, t in sorted(xor.items())))
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    rows = []
    for seed in range(args.seeds):
        r = run_job_cell(
            MethodSpec(args.method, overlap=args.overlap), seed,
            work=args.work * 3600.0, interval=args.interval,
            node_mtbf=args.node_mtbf * 3600.0, repair_time=args.repair,
            n_nodes=4, vms_per_node=3,
        ).result
        rows.append([
            seed,
            "yes" if r.completed else "LOST",
            f"{r.time_ratio:.3f}",
            r.n_failures,
            r.n_recoveries,
            format_seconds(r.checkpoint_time),
            format_seconds(r.lost_work),
        ])
    print(render_table(
        ["seed", "completed", "T/T_ideal", "failures", "recoveries",
         "ckpt time", "lost work"],
        rows,
        title=(
            f"{args.method} job: {args.work:g} h work, interval "
            f"{args.interval:g} s, node MTBF {args.node_mtbf:g} h"
            + (", overlapped" if args.overlap else "")
        ),
    ))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .campaign import run_study_campaign

    methods = []
    for name in args.methods:
        overlap = name.endswith("+overlap")
        base = name.removesuffix("+overlap")
        methods.append({
            "name": base,
            "incremental": not args.full,
            "overlap": overlap,
            "label": name,
        })
    outcome, campaign = run_study_campaign(
        methods=methods,
        work=args.work * 3600.0,
        interval=args.interval,
        node_mtbf=args.node_mtbf * 3600.0,
        repair_time=args.repair,
        seeds=args.seeds,
        n_nodes=args.nodes,
        vms_per_node=args.vms_per_node,
        **_campaign_kwargs(args),
    )
    print(outcome.summary_table())
    _report_failures(campaign)
    return 0 if campaign.n_failed == 0 else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .campaign import run_validate_campaign
    from .model import expected_time_with_overhead

    T = args.job * 3600.0
    cases, campaign = run_validate_campaign(
        T=T,
        T_ov=args.overhead,
        T_r=args.repair,
        runs=args.runs,
        seed=args.seed,
        **_campaign_kwargs(args),
    )
    rows = []
    worst = 0.0
    for case in cases:
        mc = case["estimate"]
        analytic = expected_time_with_overhead(
            case["lam"], T, case["N"], args.overhead, args.repair
        )
        err = abs(mc.mean - analytic) / analytic
        worst = max(worst, err)
        rows.append([
            f"{case['mtbf_h']:g}h",
            format_seconds(case["N"]),
            format_seconds(analytic),
            format_seconds(mc.mean),
            f"{err * 100:.2f}%",
            "yes" if mc.within(analytic) else "NO",
        ])
    print(render_table(
        ["MTBF", "interval", "closed form", "Monte-Carlo", "rel err",
         "within 3 sigma"],
        rows,
        title=f"Section V equations vs Monte-Carlo ({args.runs} runs each)",
    ))
    _report_failures(campaign)
    return 0 if worst < 0.05 and campaign.n_failed == 0 else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignRunner

    sweep = args.spec
    result = CampaignRunner(**_campaign_kwargs(args)).run(sweep.expand())
    print(result.summary_table(title=f"campaign {sweep.name!r}"))
    _report_failures(result)
    return 0 if result.n_failed == 0 else 1


def _run_instrumented(args: argparse.Namespace):
    """Run the chosen scenario with a live probe; returns the probe.

    Each scenario runs a full simulation (spans on the checkpoint /
    recovery tracks, sim/network/storage metrics).
    """
    from .telemetry import Probe

    probe = Probe()
    if args.scenario == "serving":
        from .serving.study import ServingLoad, ServingPolicy, run_serving_cell

        run_serving_cell(
            ServingPolicy("checkpoint", checkpoint=True),
            ServingLoad(n_requests=20_000, n_nodes=args.nodes,
                        vms_per_node=args.vms_per_node),
            args.seed, tracer=probe,
        )
        return probe
    if args.scenario == "epoch":
        sc, ck = _epoch_method(args.arch).build(
            args.nodes, args.vms_per_node, seed=args.seed, tracer=probe
        )
        sc.sim.attach_probe(probe)
        sc.sim.run_process(ck.run_cycle())
        return probe
    # job: checkpointed work with failure injection — exercises the
    # recovery track too
    run_job_cell(
        MethodSpec(args.arch), args.seed,
        work=args.work * 3600.0, interval=args.interval,
        node_mtbf=args.node_mtbf * 3600.0, repair_time=30.0,
        n_nodes=args.nodes, vms_per_node=args.vms_per_node, tracer=probe,
    )
    return probe


def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    """What to run under instrumentation — shared by ``trace``/``metrics``."""
    sp.add_argument("--scenario", choices=["epoch", "job", "serving"],
                    default="epoch",
                    help="what to run under instrumentation")
    sp.add_argument("--arch", choices=["dvdc", "diskful"], default="dvdc",
                    help="epoch/job: checkpoint architecture")
    sp.add_argument("--nodes", type=_positive_int, default=4,
                    help="epoch/job/serving: cluster size")
    sp.add_argument("--vms-per-node", type=_positive_int, default=3,
                    help="epoch/job/serving: VMs on each node")
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--work", type=_positive, default=0.5, help="job: hours")
    sp.add_argument("--interval", type=_positive, default=300.0,
                    help="job: checkpoint interval, seconds")
    sp.add_argument("--node-mtbf", type=_positive, default=2.0,
                    help="job: per-node MTBF, hours")


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .telemetry import write_chrome_trace, write_jsonl

    probe = _run_instrumented(args)
    if args.format == "chrome":
        out = args.out or "trace.json"
        write_chrome_trace(out, probe.spans, clock=args.clock)
        n = len(probe.spans.completed)
        print(f"wrote {n} spans ({args.clock} clock) to {out}")
    else:
        out = args.out or "trace.jsonl"
        write_jsonl(out, probe)
        print(f"wrote {len(probe.records)} trace records, "
              f"{len(probe.spans.completed)} spans to {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .telemetry import prometheus_text, summary_table

    probe = _run_instrumented(args)
    if args.format == "prom":
        text = prometheus_text(probe.metrics)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {len(text.splitlines())} lines to {args.out}")
        else:
            print(text, end="")
    else:
        print(summary_table(probe.metrics,
                            title=f"telemetry: {args.scenario}"))
    return 0


def _audit_heal(args: argparse.Namespace) -> int:
    """Spare-pool self-healing scenario: permanent node loss on a Fig. 4
    cluster, recovery, then ``SelfHealer.reprotect``.  With a spare the
    cluster must end PROTECTED (and report the window of vulnerability);
    with an empty pool it must settle in DEGRADED and say so."""
    from .audit import Auditor
    from .coding import parse_scheme
    from .core import dvdc
    from .resilience import ClusterHealth, SelfHealer, SparePool

    sc = scaled_scenario(
        args.nodes + args.spares, args.vms_per_node, vm_memory=64e6,
        seed=args.seed, image_pages=32, page_size=128, spares=args.spares,
    )
    sim, cluster = sc.sim, sc.cluster
    spares = SparePool.provision(cluster, args.spares)
    n_shards = parse_scheme(args.scheme).n_shards
    ck = dvdc(
        cluster, group_size=max(1, args.nodes - n_shards), scheme=args.scheme
    )
    healer = SelfHealer(ck, spares=spares)

    def driver():
        r = yield from ck.run_cycle()
        assert r.committed
        yield sim.timeout(60.0)
        cluster.kill_node(0)  # permanent: the node never comes back
        healer.on_failure()
        yield from ck.recover(0)
        return (yield from healer.reprotect())

    report = sim.run_process(driver())
    print(render_table(
        ["spares", "final state", "rounds", "spares used", "spares left",
         "exhausted", "relocated", "healed groups", "degraded window"],
        [[args.spares, report.state.value, report.rounds,
          ",".join(map(str, report.spares_used)) or "-",
          len(spares), spares.exhausted,
          len(report.relocated), len(report.healed_groups),
          format_seconds(report.window_seconds)
          if report.window_seconds is not None else "still open"]],
        title="self-healing after permanent node loss (fig4)",
    ))
    if spares.exhausted:
        print(f"  spare pool ran dry {spares.exhausted} time(s) — "
              "degraded groups rely on relocation only")
    for issue in report.issues:
        print(f"  outstanding: {issue}")
    if report.state == ClusterHealth.PROTECTED:
        auditor = Auditor(cluster, ck.layout, scheme=ck.scheme)
        auditor.run(ck.committed_epoch, context="post-heal", strict=True)
        for v in auditor.violations:
            print(f"  {v}")
        if auditor.violations:
            return 1
    want = ClusterHealth.PROTECTED if args.spares else ClusterHealth.DEGRADED
    return 0 if report.state == want else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import FuzzConfig, canonical_schedule, fuzz, run_trial
    from .audit.fuzzer import LAYOUTS

    if args.heal:
        return _audit_heal(args)
    geo_sites = getattr(args, "geo", 0)
    if geo_sites:
        layouts = ["fig4"]  # geo mode is DVDC-only
    else:
        layouts = list(LAYOUTS) if args.layout == "all" else [args.layout]
    failed = False
    for layout in layouts:
        config = FuzzConfig(
            layout=layout,
            n_nodes=args.nodes,
            vms_per_node=args.vms_per_node,
            n_cycles=args.cycles,
            max_faults=args.max_faults,
            heterogeneous=args.heterogeneous,
            strategy=args.strategy,
            transient=args.transient,
            scheme=args.scheme,
            geo_sites=geo_sites,
            geo_policy=args.geo_policy,
        )
        if args.fuzz:
            result = fuzz(
                config, seeds=args.seeds, budget=args.budget,
                base_seed=args.seed,
            )
            clean = sum(
                1 for t in result.trials
                if not t.failed and not t.unrecoverable
            )
            unrec = sum(1 for t in result.trials if t.unrecoverable)
            transients = sum(len(t.transients_fired) for t in result.trials)
            print(render_table(
                ["trials", "clean", "unrecoverable", "failing", "violations",
                 "transients", "wall"],
                [[len(result.trials), clean, unrec, len(result.failures),
                  result.n_violations, transients,
                  format_seconds(result.elapsed)]],
                title=f"audit fuzz: {layout}"
                      + (f" [{args.scheme}]" if args.scheme != "xor" else "")
                      + (f" geo:{args.geo_policy}x{geo_sites}"
                         if geo_sites else "")
                      + (" +transient" if args.transient else "")
                      + (" (budget exhausted)" if result.budget_exhausted else ""),
            ))
            for t in result.failures:
                failed = True
                print(f"  seed {t.seed} — minimal reproducer:")
                for f in t.schedule:
                    print(f"    {f}")
                for v in t.violations[:5]:
                    print(f"    {v}")
        else:
            trial = run_trial(config, canonical_schedule(config), args.seed)
            verdict = (
                "FAIL" if trial.failed
                else ("unrecoverable" if trial.unrecoverable else "ok")
            )
            print(render_table(
                ["commits", "aborts", "recoveries", "violations", "verdict"],
                [[trial.commits, trial.aborts, trial.recoveries,
                  len(trial.violations), verdict]],
                title=f"audit: {layout} (single mid-run node failure)",
            ))
            for v in trial.violations[:10]:
                failed = True
                print(f"  {v}")
    return 1 if failed else 0


def _geo_config(args: argparse.Namespace):
    from .geo import GeoConfig

    return GeoConfig(
        n_nodes=args.nodes,
        n_sites=args.sites,
        racks_per_site=args.racks_per_site,
        vms_per_node=args.vms_per_node,
        epochs=args.epochs,
        seed=args.seed,
        scheme=args.scheme,
        wan_bandwidth=args.wan_bandwidth,
        wan_latency=args.wan_latency,
        kill_site=args.kill_site,
        lag_epochs=args.lag_epochs,
    )


def _geo_cell_row(r: dict) -> list:
    return [
        r["policy"], r["seed"] if "seed" in r else "", r["kill_site"],
        "yes" if r["beyond_tolerance"] else "no",
        "yes" if r["survived"] else "NO",
        r["rollback_epochs"], r["salvaged_vms"], r["respread_vms"],
        f"{r['wan_bytes'] / 1e9:.1f}",
    ]


_GEO_HEADERS = ["policy", "seed", "killed", "beyond-tol", "survived",
                "rollback", "salvaged", "respread", "wan GB"]


def _cmd_geo_run(args: argparse.Namespace) -> int:
    from dataclasses import replace as _replace

    from .geo import run_geo_point

    cfg = _replace(_geo_config(args), policy=args.policy)
    r = run_geo_point(cfg)
    row = _geo_cell_row(r)
    row[1] = cfg.seed
    print(render_table(
        _GEO_HEADERS, [row],
        title=f"geo run: {cfg.n_nodes} nodes / {cfg.n_sites} sites "
              f"[{cfg.scheme}]",
    ))
    if r.get("audit_violations"):
        for v in r["audit_violations"][:5]:
            print(f"  {v}")
    ok = r["survived"] or (cfg.policy == "local-parity" and r["beyond_tolerance"])
    return 0 if ok and not r.get("audit_violations") else 1


def _cmd_geo_study(args: argparse.Namespace) -> int:
    from .geo import run_geo_study

    cfg = _geo_config(args)
    study = run_geo_study(
        cfg, policies=tuple(args.policies),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        **_campaign_kwargs(args),
    )
    rows = []
    for cell in study["cells"]:
        row = _geo_cell_row(cell)
        rows.append(row)
    print(render_table(
        _GEO_HEADERS, rows,
        title=f"geo study: {cfg.n_nodes} nodes / {cfg.n_sites} sites, "
              f"site kill={'worst' if cfg.kill_site == -1 else cfg.kill_site}",
    ))
    for policy, s in study["summary"].items():
        print(f"  {policy}: {s['survived']}/{s['cells']} survived, "
              f"{s['data_lost']} lost data, "
              f"mean rollback {s['mean_rollback_epochs']:.1f} epochs, "
              f"mean WAN {s['mean_wan_bytes'] / 1e9:.1f} GB")
    return 0


def _serving_load(args: argparse.Namespace):
    from .serving.study import ServingLoad

    return ServingLoad(
        rate=args.rate,
        n_requests=args.requests,
        service_mean=args.service_mean,
        service_dist=args.dist,
        n_nodes=args.nodes,
        vms_per_node=args.vms_per_node,
        node_mtbf=args.node_mtbf,
        repair_time=args.repair,
        slo_p99=args.slo,
    )


def _cmd_serving_run(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .serving.study import policies_named, run_serving_cell
    from .telemetry import Probe, summary_table

    policy = policies_named([args.policy])[0]
    if args.interval is not None:
        policy = replace(policy, interval=args.interval)
    probe = Probe() if args.metrics else None
    report = run_serving_cell(
        policy, _serving_load(args), args.seed,
        tracer=probe if probe is not None else NULL_TRACER,
    )
    lat = report["latency"]
    print(render_table(
        ["offered", "completed", "lost", "p50 ms", "p95 ms", "p99 ms",
         "p999 ms", "pauses", "pause s", "failures"],
        [[
            report["offered"],
            report["completed"],
            report["lost"] + report["lost_unrouted"],
            f"{lat.get('p50', float('nan')) * 1e3:.1f}",
            f"{lat.get('p95', float('nan')) * 1e3:.1f}",
            f"{lat.get('p99', float('nan')) * 1e3:.1f}",
            f"{lat.get('p999', float('nan')) * 1e3:.1f}",
            report["pauses"],
            f"{report['pause_seconds']:.2f}",
            report["failures"],
        ]],
        title=f"serving run: policy {policy.name!r}, seed {args.seed}",
    ))
    if "sla" in report:
        sla = report["sla"]
        print(f"  SLA: p99 target {sla['slo_p99'] * 1e3:.0f} ms, "
              f"{sla['breaches']}/{sla['windows']} windows breached, "
              f"{sla['adjustments']} interval adjustments "
              f"(final {sla['interval_final']:.2f}s)")
    if probe is not None:
        print()
        print(summary_table(probe.metrics, title="serving telemetry"))
    return 0 if report["drained"] and not report["unrecoverable"] else 1


def _cmd_serving_study(args: argparse.Namespace) -> int:
    from .serving.study import policies_named, run_serving_study

    outcome, campaign = run_serving_study(
        policies=policies_named(args.policies),
        load=_serving_load(args),
        seeds=args.seeds,
        **_campaign_kwargs(args),
    )
    print(outcome.summary_table())
    _report_failures(campaign)
    return 0 if campaign.n_failed == 0 else 1


def _controlplane_build(args: argparse.Namespace):
    """Build a managed functional cluster: (sim, cluster, ck, cp, rngs)."""
    from .controlplane import ControlPlane, ControlPlaneConfig
    from .core import dvdc
    from .resilience import DEFAULT_RETRY, SparePool
    from .sim import Tracer

    tracer = Tracer()
    total = args.nodes + args.spares
    sc = scaled_scenario(
        total, args.vms_per_node, vm_memory=1024.0, seed=args.seed,
        image_pages=16, page_size=64, spares=args.spares, tracer=tracer,
    )
    sim, cluster, rngs = sc.sim, sc.cluster, sc.rngs
    ck = dvdc(
        cluster, group_size=args.group_size, tracer=tracer,
        retry=DEFAULT_RETRY, retry_rng=rngs.stream("retry"),
    )
    spares = (
        SparePool(cluster, node_ids=list(range(args.nodes, total)),
                  tracer=tracer)
        if args.spares else None
    )
    config = ControlPlaneConfig(
        checkpoint_interval=2.0,
        repair_time=args.repair_time,
        maintenance_seconds=args.maintenance_seconds,
    )
    cp = ControlPlane(cluster, ck, spares=spares, config=config,
                      tracer=tracer)
    return sim, cluster, ck, cp, rngs


def _controlplane_summary(cp) -> str:
    status = cp.status()
    ops = status["ops"]
    return render_table(
        ["ops", "done", "failed", "fences", "recoveries", "migrations",
         "verified", "audits", "violations", "health"],
        [[sum(ops.values()), ops["DONE"], ops["FAILED"],
          len([r for r in cp.tracer.records
               if r.kind == "controlplane.fence"]),
          status["recoveries"], status["migrations"],
          status["verified_migrations"], status["audits"],
          status["audit_violations"], status["health"]]],
        title="control plane",
    )


def _cmd_controlplane_run(args: argparse.Namespace) -> int:
    """Seeded churn soak: concurrent provision/kill/drain/query ops under
    transient faults, every reconfiguration strictly audited."""
    from .controlplane import AuditFailure
    from .resilience import TransientFaultInjector, TransientFaultSchedule
    from .sim import AllOf

    sim, cluster, ck, cp, rngs = _controlplane_build(args)
    if args.faults:
        horizon = args.ops * args.mean_gap * 1.2
        schedule = TransientFaultSchedule.draw(
            rngs.stream("faults"), args.nodes, horizon,
            rate=args.fault_rate, mean_duration=1.5,
        )
        injector = TransientFaultInjector(
            sim, cluster, schedule, rng=rngs.stream("fault-targets"),
            tracer=cp.tracer,
        )
        injector.start()
    cp.start()
    rng = rngs.stream("churn")

    def churn():
        ops = []
        for _ in range(args.ops):
            yield sim.timeout(float(rng.exponential(args.mean_gap)))
            kind = rng.choice(
                ["provision", "kill", "drain", "query"],
                p=[0.25, 0.2, 0.15, 0.4],
            )
            params = {}
            if kind == "provision":
                params = dict(memory_bytes=1024.0, image_pages=16,
                              page_size=64)
            elif kind in ("kill", "drain"):
                candidates = [
                    n.node_id for n in cluster.alive_nodes
                    if n.node_id not in cp.maintenance
                    and n.node_id not in cp.fenced
                ]
                if not candidates:
                    kind = "query"
                else:
                    params = dict(node_id=int(rng.choice(candidates)))
            ops.append(cp.submit(kind, **params))
        yield AllOf(sim, [op.done for op in ops])
        # settle: let in-flight fences/recoveries/repairs finish
        settle = 0
        while cp.settling and settle < 600:
            yield sim.timeout(1.0)
            settle += 1
        yield sim.timeout(2 * cp.config.repair_time)
        # one fresh epoch with every node back: re-encodes any parity a
        # late repair restored capacity for, so the audit sees steady state
        yield from cp.checkpoint()
        try:
            ok, error = cp.audit("post-soak").ok, None
        except AuditFailure as exc:
            ok, error = False, str(exc)
        cp.stop()
        return ok, error

    ok, error = sim.run_process(churn(), until=args.ops * args.mean_gap * 200)
    print(_controlplane_summary(cp))
    terminal = cp.all_ops_terminal
    print(f"all ops terminal: {terminal}; final strict audit "
          f"{'clean' if ok else 'FAILED'}")
    if error:
        print(f"  {error}")
    for op in cp.ops:
        if not op.state.terminal:
            print(f"  stuck: {op!r} params={op.params}")
    return 0 if terminal and ok else 1


def _cmd_controlplane_drain(args: argparse.Namespace) -> int:
    """Rolling maintenance: drain+maintain+rejoin every node in turn."""
    sim, cluster, ck, cp, rngs = _controlplane_build(args)
    cp.start()

    def roll():
        # first protect everything: one committed epoch
        yield cp.submit("query").done  # warm the façade
        while ck.committed_epoch < 0:
            yield sim.timeout(1.0)
        issues = []
        for node_id in range(args.nodes):
            before = cp.verified_migrations
            op = cp.submit("drain", node_id=node_id)
            yield op.done
            if op.state.value != "DONE":
                issues.append(f"drain node {node_id}: {op.error}")
            elif cp.verified_migrations == before:
                issues.append(
                    f"drain node {node_id}: no checksum-verified migration"
                )
        cp.audit("post-rolling-maintenance")
        cp.stop()
        return issues

    issues = sim.run_process(roll(), until=args.nodes * 1000.0)
    print(_controlplane_summary(cp))
    bad_audits = [r for r in cp.audits if not r.ok]
    print(f"rolled {args.nodes} nodes; audits: {len(cp.audits)} "
          f"({len(bad_audits)} with fatal findings)")
    for issue in issues:
        print(f"  {issue}")
    return 0 if not issues and not bad_audits else 1


def _cmd_controlplane_status(args: argparse.Namespace) -> int:
    """Short managed run, then print the coordinator's world view."""
    sim, cluster, ck, cp, rngs = _controlplane_build(args)
    cp.start()

    def run():
        yield sim.timeout(args.duration)
        cp.stop()

    sim.run_process(run(), until=args.duration * 10)
    status = cp.status()
    print(render_table(
        ["field", "value"],
        [[k, str(v)] for k, v in status.items()],
        title=f"controlplane status after {args.duration:.0f}s",
    ))
    return 0


def _cmd_controlplane(args: argparse.Namespace) -> int:
    return {
        "run": _cmd_controlplane_run,
        "drain": _cmd_controlplane_drain,
        "status": _cmd_controlplane_status,
    }[args.cp_command](args)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .cluster import measure_xor_bandwidth

    bw = measure_xor_bandwidth(args.size, repeats=args.repeats)
    print(f"streaming XOR bandwidth: {format_bytes(bw)}/s")
    print(f"model input: ClusterModel(memory_xor_bandwidth={bw:.3g})")
    return 0


def _bounded(kind, low, strict: bool = False):
    """An argparse type: a finite ``kind`` that is >= ``low`` (> when
    ``strict``); anything else exits 2 with argparse naming the flag."""
    what = f"{'an integer' if kind is int else 'a finite number'} " \
        f"{'>' if strict else '>='} {low:g}"

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


_positive_int = _bounded(int, 1)
_nonnegative_int = _bounded(int, 0)  # seeds, spares, fault counts
_positive = _bounded(float, 0.0, strict=True)
_nonnegative = _bounded(float, 0.0)
_site = _bounded(int, -1)  # -1 names the worst site


def _scheme(text: str) -> str:
    """An argparse type: a coding-scheme spec ``parse_scheme`` accepts,
    kept as text; a bad spec exits 2 with argparse naming the flag."""
    from .coding import parse_scheme

    try:
        parse_scheme(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _sweep(path: str):
    """An argparse type: the JSON :class:`~repro.campaign.Sweep` at
    ``path``.  It is expanded once here, so a missing file, malformed
    JSON or an invalid sweep exits 2 with argparse naming the flag."""
    import json

    from .campaign import Sweep

    try:
        with open(path, encoding="utf-8") as fh:
            sweep = Sweep.from_dict(json.load(fh))
        sweep.expand()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"{type(exc).__name__}: {exc}") from None
    return sweep


def _add_campaign_flags(sp: argparse.ArgumentParser) -> None:
    """``--jobs/--store/--no-resume`` — shared by campaign-backed commands."""
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="parallel worker processes (1 = inline)")
    sp.add_argument("--store", default=None,
                    help="result-store directory (enables caching/resume)")
    sp.add_argument("--no-resume", action="store_true",
                    help="ignore cached results in the store")


def build_parser() -> argparse.ArgumentParser:
    from .geo.study import POLICIES as GEO_POLICIES
    from .serving.study import DEFAULT_POLICIES

    serving_policies = [p.name for p in DEFAULT_POLICIES]
    p = argparse.ArgumentParser(
        prog="repro", description="DVDC paper reproduction toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    f5 = sub.add_parser("fig5", help="reproduce Fig. 5 analytically")
    f5.add_argument("--mtbf", type=_positive, default=3.0, help="cluster MTBF, hours")
    f5.add_argument("--job", type=_positive, default=48.0, help="job length, hours")
    f5.add_argument("--nodes", type=_positive_int, default=4)
    f5.add_argument("--vms-per-node", type=_positive_int, default=3)
    f5.add_argument("--dirty-rate", type=_nonnegative, default=2e5,
                    help="per-VM dirty rate, bytes/s")
    f5.add_argument("--plot", action="store_true", help="ASCII curve")
    f5.add_argument("--scheme", nargs="*", type=_scheme, default=None,
                    metavar="SPEC",
                    help="compare coding schemes instead of plotting "
                         "the interval sweep; bare --scheme sweeps "
                         "xor, rdp, rs-8-2 and rep-3")
    f5.add_argument("--window", type=_nonnegative, default=300.0,
                    help="scheme sweep: degraded-window length, seconds")
    f5.set_defaults(func=_cmd_fig5)

    ep = sub.add_parser("epoch", help="run one checkpoint epoch")
    ep.add_argument("--arch", choices=["dvdc", "diskful", "checkpoint-node",
                                       "firstshot"], default="dvdc")
    ep.add_argument("--nodes", type=_positive_int, default=4)
    ep.add_argument("--vms-per-node", type=_positive_int, default=3)
    ep.add_argument("--seed", type=_nonnegative_int, default=0)
    ep.set_defaults(func=_cmd_epoch)

    jb = sub.add_parser("job", help="end-to-end checkpointed job")
    jb.add_argument("--method", choices=["dvdc", "diskful"], default="dvdc")
    jb.add_argument("--work", type=_positive, default=4.0, help="hours")
    jb.add_argument("--interval", type=_positive, default=600.0, help="seconds")
    jb.add_argument("--node-mtbf", type=_positive, default=6.0, help="hours")
    jb.add_argument("--repair", type=_nonnegative, default=30.0, help="seconds")
    jb.add_argument("--seeds", type=_positive_int, default=3)
    jb.add_argument("--overlap", action="store_true")
    jb.set_defaults(func=_cmd_job)

    stu = sub.add_parser("study", help="paired multi-method comparison")
    stu.add_argument("--methods", nargs="+", metavar="METHOD",
                     choices=[m + o for m in METHOD_NAMES for o in ("", "+overlap")],
                     default=["dvdc", "diskful"],
                     help="dvdc diskful dvdc_rdp checkpoint_node first_shot; "
                          "append +overlap for latency-hiding execution")
    stu.add_argument("--work", type=_positive, default=4.0, help="hours")
    stu.add_argument("--interval", type=_positive, default=600.0, help="seconds")
    stu.add_argument("--node-mtbf", type=_positive, default=6.0, help="hours")
    stu.add_argument("--repair", type=_nonnegative, default=30.0, help="seconds")
    stu.add_argument("--seeds", type=_positive_int, default=5)
    stu.add_argument("--nodes", type=_positive_int, default=4)
    stu.add_argument("--vms-per-node", type=_positive_int, default=3)
    stu.add_argument("--full", action="store_true",
                     help="full-image capture instead of incremental")
    _add_campaign_flags(stu)
    stu.set_defaults(func=_cmd_study)

    va = sub.add_parser("validate", help="equations vs Monte-Carlo")
    va.add_argument("--job", type=_positive, default=8.0, help="hours")
    va.add_argument("--overhead", type=_nonnegative, default=120.0, help="T_ov, s")
    va.add_argument("--repair", type=_nonnegative, default=60.0, help="T_r, s")
    va.add_argument("--runs", type=_positive_int, default=4000)
    va.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_campaign_flags(va)
    va.set_defaults(func=_cmd_validate)

    cp = sub.add_parser(
        "campaign",
        help="run a JSON-spec sweep (parallel, resumable)",
    )
    cp.add_argument("--spec", type=_sweep, required=True,
                    help="JSON sweep spec file (see docs/campaigns.md)")
    _add_campaign_flags(cp)
    cp.set_defaults(func=_cmd_campaign)

    tr = sub.add_parser("trace", help="telemetry span timelines")
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    te = trsub.add_parser(
        "export",
        help="run an instrumented scenario and export its trace",
    )
    te.add_argument("--format", choices=["chrome", "jsonl"], default="chrome",
                    help="chrome = Perfetto-loadable trace-event JSON; "
                         "jsonl = one event per line")
    te.add_argument("--out", default=None,
                    help="output path (default trace.json / trace.jsonl)")
    te.add_argument("--clock", choices=["sim", "wall"], default="sim",
                    help="chrome: which clock drives the timeline")
    _add_scenario_flags(te)
    te.set_defaults(func=_cmd_trace_export)

    me = sub.add_parser(
        "metrics",
        help="run an instrumented scenario and print its metrics",
    )
    me.add_argument("--format", choices=["prom", "table"], default="prom",
                    help="prom = Prometheus text exposition; table = summary")
    me.add_argument("--out", default=None,
                    help="write to a file instead of stdout (prom only)")
    _add_scenario_flags(me)
    me.set_defaults(func=_cmd_metrics)

    au = sub.add_parser(
        "audit",
        help="verify recoverability invariants (one-shot or fuzz)",
    )
    au.add_argument("--fuzz", action="store_true",
                    help="drive seeded adversarial fault schedules instead "
                         "of the single canonical failure")
    au.add_argument("--transient", action="store_true",
                    help="fuzz: widen the fault vocabulary to transient "
                         "kinds (link flap, slowed NIC, dropped transfers, "
                         "silent corruption) with retries + scrubbing on")
    au.add_argument("--heal", action="store_true",
                    help="run the spare-pool self-healing scenario instead "
                         "(permanent node loss, recover, reprotect)")
    au.add_argument("--spares", type=_nonnegative_int, default=1,
                    help="heal: cold spare nodes to provision")
    au.add_argument("--layout", choices=["fig1", "fig3", "fig4", "all"],
                    default="all", help="which architecture(s) to audit")
    au.add_argument("--nodes", type=_positive_int, default=4)
    au.add_argument("--vms-per-node", type=_positive_int, default=3)
    au.add_argument("--seeds", type=_positive_int, default=25,
                    help="fuzz: independent schedules per layout")
    au.add_argument("--cycles", type=_positive_int, default=4,
                    help="checkpoint cycles per trial")
    au.add_argument("--max-faults", type=_nonnegative_int, default=2,
                    help="fuzz: max node kills per schedule")
    au.add_argument("--budget", type=_positive, default=None,
                    help="fuzz: wall-clock seconds per layout")
    au.add_argument("--seed", type=_nonnegative_int, default=0, help="base seed")
    au.add_argument("--heterogeneous", action="store_true",
                    help="mix VM memory sizes within groups")
    au.add_argument("--strategy", choices=["forked", "full", "incremental"],
                    default="forked", help="capture strategy for trials")
    au.add_argument("--scheme", type=_scheme, default="xor",
                    help="coding scheme for trials: xor, rdp, rs-<k>-<m>, "
                         "rep-<n> (default xor)")
    au.add_argument("--geo", type=_nonnegative_int, default=0, metavar="SITES",
                    help="geo mode: split the cluster into SITES failure "
                         "domains, add correlated whole-site kills to the "
                         "schedule, and classify fate vs bug tolerance-"
                         "aware (forces the fig4 layout)")
    au.add_argument("--geo-policy", choices=["geo-spread", "remus-async"],
                    default="geo-spread",
                    help="geo: placement policy under test")
    au.set_defaults(func=_cmd_audit)

    geo = sub.add_parser(
        "geo",
        help="multi-site georedundancy: one placement-policy cell or "
             "the three-policy survival study",
    )
    geosub = geo.add_subparsers(dest="geo_command", required=True)

    def _geo_common(sp) -> None:
        sp.add_argument("--nodes", type=_positive_int, default=12)
        sp.add_argument("--sites", type=_positive_int, default=3)
        sp.add_argument("--racks-per-site", type=_positive_int, default=2)
        sp.add_argument("--vms-per-node", type=_positive_int, default=1)
        sp.add_argument("--epochs", type=_positive_int, default=2)
        sp.add_argument("--seed", type=_nonnegative_int, default=0)
        sp.add_argument("--scheme", type=_scheme, default="xor",
                        help="coding scheme: xor, rdp, rs-<k>-<m>, rep-<n>")
        sp.add_argument("--wan-bandwidth", type=_positive, default=12.5e6,
                        help="WAN uplink bandwidth, bytes/s")
        sp.add_argument("--wan-latency", type=_nonnegative, default=20e-3,
                        help="WAN round-trip latency, seconds")
        sp.add_argument("--kill-site", type=_site, default=-1,
                        help="site to fail after the last commit "
                             "(-1 = worst for the layout; use --no-kill "
                             "for a fault-free run)")
        sp.add_argument("--no-kill", dest="kill_site",
                        action="store_const", const=None,
                        help="fault-free run (no site outage)")
        sp.add_argument("--lag-epochs", type=_positive_int, default=1,
                        help="remus-async: final epochs still inside the "
                             "replication lag window when the site dies")

    gr = geosub.add_parser(
        "run", help="one cell: a single policy through the site outage"
    )
    _geo_common(gr)
    gr.add_argument("--policy", default="geo-spread", choices=GEO_POLICIES)
    gr.set_defaults(func=_cmd_geo_run)

    gs = geosub.add_parser(
        "study",
        help="three-policy survival matrix over shared seeds",
    )
    _geo_common(gs)
    gs.add_argument("--policies", nargs="+", choices=GEO_POLICIES,
                    default=GEO_POLICIES)
    gs.add_argument("--seeds", type=_positive_int, default=2)
    _add_campaign_flags(gs)
    gs.set_defaults(func=_cmd_geo_study)

    sv = sub.add_parser(
        "serving",
        help="checkpoint-protected request serving: one cell or a "
             "paired policy study",
    )
    svsub = sv.add_subparsers(dest="serving_command", required=True)

    def _serving_common(sp) -> None:
        sp.add_argument("--rate", type=_positive, default=240.0,
                        help="open-loop arrival rate, requests/s")
        sp.add_argument("--requests", type=_positive_int, default=60_000,
                        help="total requests in the stream")
        sp.add_argument("--service-mean", type=_positive, default=0.02,
                        help="mean PS service demand, seconds")
        sp.add_argument("--dist", choices=["exponential", "lognormal"],
                        default="exponential", help="service demand shape")
        sp.add_argument("--nodes", type=_positive_int, default=4)
        sp.add_argument("--vms-per-node", type=_positive_int, default=2)
        sp.add_argument("--node-mtbf", type=_nonnegative, default=0.0,
                        help="per-node MTBF, seconds (0 = no crashes)")
        sp.add_argument("--repair", type=_nonnegative, default=20.0,
                        help="node repair time, seconds")
        sp.add_argument("--slo", type=_positive, default=0.25,
                        help="p99 SLO for the SLA controller, seconds")

    sr = svsub.add_parser(
        "run", help="one serving cell under a chosen protection policy"
    )
    _serving_common(sr)
    sr.add_argument("--policy", default="checkpoint", choices=serving_policies)
    sr.add_argument("--interval", type=_positive, default=None,
                    help="override the policy's checkpoint interval, s")
    sr.add_argument("--seed", type=_nonnegative_int, default=0)
    sr.add_argument("--metrics", action="store_true",
                    help="print the telemetry summary table after the run")
    sr.set_defaults(func=_cmd_serving_run)

    ss = svsub.add_parser(
        "study",
        help="paired policy comparison over shared arrival+failure traces",
    )
    _serving_common(ss)
    ss.add_argument("--policies", nargs="+", choices=serving_policies,
                    default=serving_policies)
    ss.add_argument("--seeds", type=_positive_int, default=3)
    _add_campaign_flags(ss)
    ss.set_defaults(func=_cmd_serving_study)

    cpl = sub.add_parser(
        "controlplane",
        help="always-on cluster coordinator: soak, rolling drain, status",
    )
    cplsub = cpl.add_subparsers(dest="cp_command", required=True)

    def _cpl_common(sp, nodes: int) -> None:
        sp.add_argument("--nodes", type=_positive_int, default=nodes,
                        help="managed (VM-hosting) nodes")
        sp.add_argument("--vms-per-node", type=_positive_int, default=2)
        sp.add_argument("--spares", type=_nonnegative_int, default=2,
                        help="cold spare nodes for the healer")
        sp.add_argument("--group-size", type=_positive_int, default=4)
        sp.add_argument("--seed", type=_nonnegative_int, default=0)
        sp.add_argument("--repair-time", type=_nonnegative, default=10.0,
                        help="node downtime after a fence before rejoin")
        sp.add_argument("--maintenance-seconds", type=_nonnegative, default=0.5,
                        help="hold time of a drained node")

    cr = cplsub.add_parser(
        "run",
        help="seeded churn soak: concurrent ops under transient faults "
             "and strict audits",
    )
    _cpl_common(cr, nodes=12)
    cr.add_argument("--ops", type=_positive_int, default=500,
                    help="operations to submit")
    cr.add_argument("--mean-gap", type=_positive, default=0.5,
                    help="mean seconds between submissions")
    cr.add_argument("--fault-rate", type=_nonnegative, default=0.002,
                    help="transient faults per node-second")
    cr.add_argument("--no-faults", dest="faults", action="store_false",
                    help="disable the transient fault injector")
    cr.set_defaults(func=_cmd_controlplane, faults=True)

    cd = cplsub.add_parser(
        "drain",
        help="rolling maintenance: drain+maintain+rejoin every node",
    )
    _cpl_common(cd, nodes=64)
    cd.set_defaults(func=_cmd_controlplane)

    cs = cplsub.add_parser("status", help="short managed run + status table")
    _cpl_common(cs, nodes=8)
    cs.add_argument("--duration", type=_positive, default=20.0,
                    help="sim seconds to run before the snapshot")
    cs.set_defaults(func=_cmd_controlplane)

    ca = sub.add_parser("calibrate", help="measure host XOR bandwidth")
    ca.add_argument("--size", type=_positive_int, default=1 << 24, help="buffer bytes")
    ca.add_argument("--repeats", type=_positive_int, default=3)
    ca.set_defaults(func=_cmd_calibrate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
