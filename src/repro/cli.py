"""Command-line interface: ``python -m repro.cli <command>``.

``repro -h`` lists the commands and ``repro <command> -h`` their flags.
A verb body parses, calls the library and renders what comes back; no
simulation or model code lives here.  A verb and its ``trace``/
``metrics`` scenario share one builder that returns the call running
the cell (:func:`repro.experiments.build_epoch_cell`,
:func:`~repro.experiments.build_job_cell`,
:func:`repro.serving.study.build_serving_cell`).  Bad input exits 2
with argparse naming the flag: numbers go through ``_bounded``, coding
schemes through ``_scheme``, sweep files through ``_sweep``, and a
cluster shape no layout fits through ``_laid_out``, which wraps only
the build.

``study``, ``validate``, ``geo study`` and ``serving study`` execute
through the campaign layer: ``--jobs N`` fans their task units across
cores with bit-identical output, ``--store`` makes them resumable, and
a failed task prints a ``FAILED`` line and exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .analysis import ascii_plot, format_bytes, format_seconds, render_table
from .audit import (LAYOUTS, FuzzConfig, build_heal_trial, canonical_schedule,
                    fuzz, run_heal_trial, run_trial)
from .cluster import measure_xor_bandwidth
from .coding import parse_scheme
from .controlplane import build_managed, rolling_drain, soak, timed_status
from .core.groups import LayoutError
from .experiments import (METHOD_NAMES, MethodSpec, build_epoch_cell,
                          build_job_cell)
from .model import ClusterModel, fig5, scheme_window_losses
from .resilience import ClusterHealth
from .sim import NULL_TRACER
from .telemetry import (Probe, prometheus_text, summary_table,
                        write_chrome_trace, write_jsonl)

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


def _report_failures(campaign) -> int:
    """Print up to five ``FAILED`` lines; returns the verb's exit status."""
    for run in campaign.failures()[:5]:
        print(f"FAILED {run.task.kind} {run.task.params}: {run.error}",
              file=sys.stderr)
    if campaign.n_failed > 5:
        print(f"... and {campaign.n_failed - 5} more failed tasks",
              file=sys.stderr)
    return 1 if campaign.n_failed else 0


def _fig5_scheme_sweep(args: argparse.Namespace) -> int:
    """Analytic scheme comparison: loss probability vs overhead
    (:func:`repro.model.scheme_window_losses`)."""
    rows = _laid_out(
        scheme_window_losses, args.scheme or None,
        lam=1.0 / (args.mtbf * 3600.0), n_nodes=args.nodes, window=args.window,
    )
    print(render_table(
        ["scheme", "tolerance", "shards", "storage", "traffic",
         "P(loss in window)"],
        [[r["scheme"], r["tolerance"], r["shards"], f"{r['storage']:.2f}x",
          f"{r['traffic']:.1f}x", f"{r['p_loss']:.3e}"] for r in rows],
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


def _epoch_cell(args: argparse.Namespace, tracer=NULL_TRACER):
    """The epoch cell of ``epoch`` and ``trace``/``metrics``: the
    ``--arch`` spelling as a full-capture :class:`MethodSpec`."""
    name = {"checkpoint-node": "checkpoint_node", "firstshot": "first_shot"}
    spec = MethodSpec(name.get(args.arch, args.arch), incremental=False)
    return _laid_out(build_epoch_cell, spec, args.nodes, args.vms_per_node,
                     seed=args.seed, tracer=tracer)


def _cmd_epoch(args: argparse.Namespace) -> int:
    r = _epoch_cell(args)()
    rows = [[
        args.arch,
        len(r.per_vm_pause),  # a full capture pauses every VM
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
        r = build_job_cell(
            MethodSpec(args.method, overlap=args.overlap), seed,
            work=args.work * 3600.0, interval=args.interval,
            node_mtbf=args.node_mtbf * 3600.0, repair_time=args.repair,
            n_nodes=4, vms_per_node=3,
        )().result
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

    methods = [{"name": name.removesuffix("+overlap"), "incremental": not args.full,
                "overlap": name.endswith("+overlap"), "label": name}
               for name in args.methods]
    cell = dict(work=args.work * 3600.0, interval=args.interval,
                node_mtbf=args.node_mtbf * 3600.0, repair_time=args.repair,
                n_nodes=args.nodes, vms_per_node=args.vms_per_node)
    for method in methods:  # a shape no layout fits exits before the fan-out
        _laid_out(build_job_cell, MethodSpec(**method), 0, **cell)
    outcome, campaign = run_study_campaign(
        methods=methods, seeds=args.seeds, **cell, **_campaign_kwargs(args),
    )
    print(outcome.summary_table())
    return _report_failures(campaign)


def _cmd_validate(args: argparse.Namespace) -> int:
    from .campaign import run_validate_campaign

    cases, campaign = run_validate_campaign(
        T=args.job * 3600.0,
        T_ov=args.overhead,
        T_r=args.repair,
        runs=args.runs,
        seed=args.seed,
        **_campaign_kwargs(args),
    )
    rows = [[
        f"{case['mtbf_h']:g}h",
        format_seconds(case["N"]),
        format_seconds(case["closed_form"]),
        format_seconds(case["estimate"].mean),
        f"{case['rel_err'] * 100:.2f}%",
        "yes" if case["within"] else "NO",
    ] for case in cases]
    print(render_table(
        ["MTBF", "interval", "closed form", "Monte-Carlo", "rel err",
         "within 3 sigma"],
        rows,
        title=f"Section V equations vs Monte-Carlo ({args.runs} runs each)",
    ))
    failed = _report_failures(campaign)
    worst = max(case["rel_err"] for case in cases)
    return 0 if worst < 0.05 and not failed else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignRunner

    sweep = args.spec
    result = CampaignRunner(**_campaign_kwargs(args)).run(sweep.expand())
    print(result.summary_table(title=f"campaign {sweep.name!r}"))
    return _report_failures(result)


def _run_instrumented(args: argparse.Namespace) -> Probe:
    """Run the chosen scenario, the cell of ``epoch``, ``job`` or
    ``serving run``, under a live probe; returns the probe."""
    from .serving.study import ServingLoad, build_serving_cell, policies_named

    probe = Probe()
    if args.scenario == "epoch":
        run = _epoch_cell(args, tracer=probe)
    elif args.scenario == "job":  # failure injection: the recovery track too
        run = _laid_out(
            build_job_cell, MethodSpec(args.arch), args.seed,
            work=args.work * 3600.0, interval=args.interval,
            node_mtbf=args.node_mtbf * 3600.0, repair_time=30.0,
            n_nodes=args.nodes, vms_per_node=args.vms_per_node, tracer=probe,
        )
    else:
        run = _laid_out(
            build_serving_cell, policies_named(["checkpoint"])[0],
            ServingLoad(n_requests=20_000, n_nodes=args.nodes,
                        vms_per_node=args.vms_per_node),
            args.seed, tracer=probe,
        )
    run()
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
    """With a spare the cluster must end PROTECTED.  With an empty pool
    it may end DEGRADED, or PROTECTED where a scheme with spare parity
    (``m >= 2``) lets heal() re-protect the survivors alone.  Any
    PROTECTED end must pass the strict audit."""
    healer = _laid_out(build_heal_trial, args.nodes, args.vms_per_node,
                       args.spares, args.scheme, args.seed)
    report, violations = run_heal_trial(healer)
    spares = healer.spares
    print(render_table(
        ["spares", "final state", "rounds", "spares used", "spares left",
         "exhausted", "healed groups", "degraded window"],
        [[args.spares, report.state.value, report.rounds,
          ",".join(map(str, report.spares_used)) or "-",
          len(spares), spares.exhausted,
          len(report.healed_groups),
          format_seconds(report.window_seconds)
          if report.window_seconds is not None else "still open"]],
        title="self-healing after permanent node loss (fig4)",
    ))
    if spares.exhausted:
        print(f"  spare pool ran dry {spares.exhausted} time(s) — "
              "degraded groups rely on heal() alone")
    for issue in report.issues:
        print(f"  outstanding: {issue}")
    for v in violations:
        print(f"  {v}")
    if violations:
        return 1
    if report.state == ClusterHealth.PROTECTED:
        return 0
    return 0 if not args.spares and report.state == ClusterHealth.DEGRADED else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.heal:
        return _audit_heal(args)
    geo_sites = getattr(args, "geo", 0)
    if geo_sites:
        layouts = ["fig4"]  # geo mode is DVDC-only
    else:
        layouts = list(LAYOUTS) if args.layout == "all" else [args.layout]
    failed = False
    for layout in layouts:
        config = _laid_out(
            FuzzConfig,
            layout=layout,
            n_nodes=args.nodes,
            vms_per_node=args.vms_per_node,
            n_cycles=args.cycles,
            max_faults=args.max_faults,
            heterogeneous=args.heterogeneous,
            strategy=args.strategy,
            transient=args.transient,
            scheme=args.scheme,
        )
        if geo_sites:  # validated on its own so its errors name --geo
            config = _laid_out(replace, config, flag="--geo",
                               geo_sites=geo_sites, geo_policy=args.geo_policy)
        if args.fuzz:
            result = fuzz(
                config, seeds=args.seeds, budget=args.budget,
                base_seed=args.seed,
            )
            print(render_table(
                ["trials", "clean", "unrecoverable", "failing", "violations",
                 "transients", "wall"],
                [[len(result.trials), result.n_clean, result.n_unrecoverable,
                  len(result.failures), result.n_violations,
                  result.n_transients, format_seconds(result.elapsed)]],
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
    from .geo import build_geo_point

    cfg = replace(_geo_config(args), policy=args.policy)
    r = _laid_out(build_geo_point, cfg, flag="--sites")()
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
    from .geo import build_geo_point, run_geo_study

    cfg = _geo_config(args)
    for policy in args.policies:  # a shape no layout fits exits before the fan-out
        _laid_out(build_geo_point, replace(cfg, policy=policy), flag="--sites")
    study, campaign = run_geo_study(
        cfg, policies=tuple(args.policies),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        **_campaign_kwargs(args),
    )
    print(render_table(
        _GEO_HEADERS, [_geo_cell_row(cell) for cell in study["cells"]],
        title=f"geo study: {cfg.n_nodes} nodes / {cfg.n_sites} sites, "
              f"site kill={'worst' if cfg.kill_site == -1 else cfg.kill_site}",
    ))
    for policy, s in study["summary"].items():
        print(f"  {policy}: {s['survived']}/{s['cells']} survived, "
              f"{s['data_lost']} lost data, "
              f"mean rollback {s['mean_rollback_epochs']:.1f} epochs, "
              f"mean WAN {s['mean_wan_bytes'] / 1e9:.1f} GB")
    return _report_failures(campaign)


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
    from .serving.study import build_serving_cell, policies_named

    policy = policies_named([args.policy])[0]
    if args.interval is not None:
        policy = replace(policy, interval=args.interval)
    probe = Probe() if args.metrics else None
    report = _laid_out(
        build_serving_cell, policy, _serving_load(args), args.seed,
        tracer=probe if probe is not None else NULL_TRACER,
    )()
    lat = report["latency"]
    print(render_table(
        ["offered", "completed", "lost", "p50 ms", "p95 ms", "p99 ms",
         "p999 ms", "pauses", "pause s", "failures", "recovered",
         "salvaged"],
        [[
            report["offered"],
            report["completed"],
            report["lost"] + report["lost_unrouted"],
            *(f"{lat.get(q, float('nan')) * 1e3:.1f}"
              for q in ("p50", "p95", "p99", "p999")),
            report["pauses"],
            f"{report['pause_seconds']:.2f}",
            report["failures"],
            report["recoveries"],
            report["salvaged"],
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
    from .serving.study import build_serving_cell, policies_named, run_serving_study

    policies = policies_named(args.policies)
    load = _serving_load(args)
    for policy in policies:  # a shape no layout fits exits before the fan-out
        _laid_out(build_serving_cell, policy, load, 0)
    outcome, campaign = run_serving_study(
        policies=policies, load=load, seeds=args.seeds,
        **_campaign_kwargs(args),
    )
    print(outcome.summary_table())
    return _report_failures(campaign)


def _laid_out(build, *args, flag: str = "--nodes", **kwargs):
    """Call a scenario builder; a cluster shape it rejects (``LayoutError``
    or ``ValueError``) exits 2 naming ``flag``.  Builders run no event,
    so an error raised once the simulation runs still propagates: a
    protocol bug is never a usage error."""
    try:
        return build(*args, **kwargs)
    except (LayoutError, ValueError) as exc:
        raise argparse.ArgumentError(None, f"argument {flag}: {exc}") from None


def _managed(args: argparse.Namespace):
    """The managed cluster a ``controlplane`` verb drives: ``(cp, rngs)``."""
    return _laid_out(
        build_managed, args.nodes, vms_per_node=args.vms_per_node,
        spares=args.spares, group_size=args.group_size, seed=args.seed,
        repair_time=args.repair_time,
        maintenance_seconds=args.maintenance_seconds,
    )


def _controlplane_summary(cp) -> str:
    status = cp.status()
    ops = status["ops"]
    return render_table(
        ["ops", "done", "failed", "fences", "recoveries", "migrations",
         "verified", "audits", "violations", "health"],
        [[sum(ops.values()), ops["DONE"], ops["FAILED"],
          status["fences"],
          status["recoveries"], status["migrations"],
          status["verified_migrations"], status["audits"],
          status["audit_violations"], status["health"]]],
        title="control plane",
    )


def _cmd_controlplane_run(args: argparse.Namespace) -> int:
    cp, rngs = _managed(args)
    error = soak(cp, rngs, ops=args.ops, mean_gap=args.mean_gap,
                 fault_rate=args.fault_rate, faults=args.faults)
    print(_controlplane_summary(cp))
    terminal = cp.all_ops_terminal
    print(f"all ops terminal: {terminal}; final strict audit "
          f"{'clean' if error is None else 'FAILED'}")
    if error:
        print(f"  {error}")
    for op in cp.ops:
        if not op.state.terminal:
            print(f"  stuck: {op!r} params={op.params}")
    return 0 if terminal and error is None else 1


def _cmd_controlplane_drain(args: argparse.Namespace) -> int:
    cp, _ = _managed(args)
    issues = rolling_drain(cp)
    print(_controlplane_summary(cp))
    bad_audits = [r for r in cp.audits if not r.ok]
    print(f"rolled {args.nodes} nodes; audits: {len(cp.audits)} "
          f"({len(bad_audits)} with fatal findings)")
    for issue in issues:
        print(f"  {issue}")
    return 0 if not issues and not bad_audits else 1


def _cmd_controlplane_status(args: argparse.Namespace) -> int:
    cp, _ = _managed(args)
    status = timed_status(cp, args.duration)
    print(render_table(
        ["field", "value"],
        [[k, str(v)] for k, v in status.items()],
        title=f"controlplane status after {args.duration:.0f}s",
    ))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
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
    cr.set_defaults(func=_cmd_controlplane_run, faults=True)

    cd = cplsub.add_parser(
        "drain",
        help="rolling maintenance: drain+maintain+rejoin every node",
    )
    _cpl_common(cd, nodes=64)
    cd.set_defaults(func=_cmd_controlplane_drain)

    cs = cplsub.add_parser("status", help="short managed run + status table")
    _cpl_common(cs, nodes=8)
    cs.add_argument("--duration", type=_positive, default=20.0,
                    help="sim seconds to run before the snapshot")
    cs.set_defaults(func=_cmd_controlplane_status)

    ca = sub.add_parser("calibrate", help="measure host XOR bandwidth")
    ca.add_argument("--size", type=_positive_int, default=1 << 24, help="buffer bytes")
    ca.add_argument("--repeats", type=_positive_int, default=3)
    ca.set_defaults(func=_cmd_calibrate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:  # raised by ``_laid_out``
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
