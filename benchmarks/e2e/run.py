#!/usr/bin/env python3
"""End-to-end benchmark of the DVDC stack.

One run (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's scenario from ``RngRegistry(seed)`` and drives
fixed-size *passes* (fresh scenario, same inputs, same digests) until
``S`` seconds have been measured.  It prints every metric by name with
its unit, then one JSON line, and exits non-zero when an output is
wrong.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer ones.

A set of runs (children one at a time, each a fresh process)::

    python3 benchmarks/e2e/run.py --all [--repeats 3] [--traced] [--probes] --out set.json

which ``compare.py`` gates against another set.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
from statistics import quantiles
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: The seven end-to-end rows that ``BENCHMARK.json`` has to list under
#: ``per_layer``: the driver wants every end-to-end metric on every
#: workload, never zero and never repeating exactly, and these either
#: exist on some workloads only or are simulated (exact) by design.
#: ``compare.py`` still gates them, with the bounds given here.
HARNESS_BOUNDS = {
    "recover_wall_s": 0.25, "audit_wall_s": 0.25, "requests_per_s": 0.25,
    "failed_op_share": 0.0,
    "sim_pause_s": 1e-9, "sim_recover_s": 1e-9, "sim_p99_s": 1e-9,
}


#: Untraced runs per workload in a set, where not 3: the XOR payload
#: path is memory-bound and page-fault heavy, and measured widest.
DEFAULT_REPEATS = {"payload_xor": 5}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared(spec: dict) -> dict[str, dict]:
    """name -> {unit, better, bound?, kind} for every declared metric."""
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            out[m["name"]] = {**m, "kind": kind}
    for name, bound in HARNESS_BOUNDS.items():
        out[name] = {**out[name], "kind": "end_to_end", "bound": bound}
    return out


# ----------------------------------------------------------------------
# one run: passes of one workload in this process
# ----------------------------------------------------------------------
def run_passes(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool, import_s: float) -> dict:
    """Drive passes of ``name`` until ``seconds`` are measured.

    In a traced run odd passes carry the sampler, GC watch and spans
    dump; even passes stay untraced, so end-to-end numbers never come
    from a traced pass and the overhead is traced ÷ untraced − 1.  Pass
    0 is the process's cold pass (fresh heap, page faults on every big
    buffer); a traced run leaves it out of the untraced reference once a
    warm untraced pass exists.
    """
    from tracing import LAYERS, GcWatch, LayerSampler, Spans
    from workloads import WORKLOADS
    from repro.perf.scale import scenario_digests

    workload = WORKLOADS[name]
    spans = Spans()
    passes: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    measured = 0.0
    min_passes = 2 if trace else 1
    while measured < seconds or len(passes) < min_passes:
        index = spans.pass_id = len(passes)
        traced = trace and index % 2 == 1
        with spans.span("phase.build"):
            ctx = workload.setup(seed, smoke)
        sampler, gcw = LayerSampler(), GcWatch()
        if traced:
            gcw.start()
            sampler.start()
        try:
            with spans.span("measure"):
                out = workload.run(ctx, spans)
        finally:
            if traced:
                sampler.stop()
                gcw.stop()
        digests = scenario_digests(ctx.sim, ctx.cluster, ctx.ck, ctx.rngs)
        digests.update(out.digests)
        wall = spans.total("measure", index)
        measured += wall
        attempted += out.attempted
        failed += out.failed
        problems += [f"pass {index}: {p}" for p in out.problems]
        passes.append({
            "traced": traced, "wall_s": wall, "out": out,
            "digests": digests,
            "sampler": sampler, "gc": gcw,
        })
        del ctx
        gc.collect()

    # identical inputs must give identical outputs, traced or not
    first = passes[0]
    for index, p in enumerate(passes[1:], start=1):
        attempted += 1
        if p["digests"] != first["digests"] or p["out"].counts != first["out"].counts:
            failed += 1
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"pass {index} ({kind}) digests or counts differ from pass 0")

    untraced = [i for i, p in enumerate(passes) if not p["traced"]]
    if trace and len(untraced) > 1:
        untraced = untraced[1:]
    # host times come from the typical pass: per-step medians over the
    # untraced passes (see Spans.typical)
    typical = spans.typical(untraced)
    phases = {
        label: typical[f"phase.{label}"]
        for label in ("build", "dirty", "cycle", "kill", "recover", "respread",
                      "heal", "audit", "serve", "report")
        if f"phase.{label}" in typical
    }
    cycle_s = sum(phases.get(label, 0.0) for label in ("dirty", "cycle", "serve"))
    out = first["out"]
    metrics: dict[str, float] = {
        "setup_s": import_s + phases["build"],
        "wall_s": typical["measure"],
        "events_per_s": out.events / typical["sim.run"],
        "epochs_per_s": out.epochs / cycle_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_op_share": failed / attempted,
        **out.sim,
    }
    if out.requests:
        metrics["requests_per_s"] = out.requests / metrics["wall_s"]
    if "recover" in phases:
        metrics["recover_wall_s"] = (
            phases["recover"] + phases["respread"] + phases["heal"]
        )
        metrics["audit_wall_s"] = phases["audit"]
    metrics.update({f"phase.{label}_s": value for label, value in phases.items()})
    metrics.update(out.counts)

    traced_passes = [p for p in passes if p["traced"]]
    if traced_passes:
        n = len(traced_passes)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                p["sampler"].self_s.get(layer, 0.0) for p in traced_passes) / n
            metrics[f"{layer}.incl_s"] = sum(
                p["sampler"].incl_s.get(layer, 0.0) for p in traced_passes) / n
        metrics["gc.pause_s"] = sum(p["gc"].pause_s for p in traced_passes) / n
        metrics["gc.gen2_collections"] = sum(
            p["gc"].gen2_collections for p in traced_passes) / n
        metrics["trace.sampled_cpu_s"] = sum(
            p["sampler"].cpu_s for p in traced_passes) / n
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        metrics["trace.overhead_share"] = (
            spans.typical(traced_ids)["measure"] / metrics["wall_s"] - 1.0
        )
        spans.dump(
            os.path.join(OUT_DIR, f"trace-{name}.json"),
            {"workload": name, "seed": seed,
             "sampler_self_s": [p["sampler"].self_s for p in traced_passes]},
        )
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "problems": problems,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"],
             "build_s": spans.total("phase.build", i)}
            for i, p in enumerate(passes)
        ],
        "metrics": metrics,
        "digests": first["digests"],
    }


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "git": rev,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "gc_threshold": list(gc.get_threshold()),
    }


def print_metrics(title: str, metrics: dict[str, float], names: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>18.6g} {names[name]['unit']}")


def single_run(args, spec: dict) -> int:
    load = os.getloadavg()[0]
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (numpy, repro and the GF(256) tables)
    import_s = time.perf_counter() - t0
    names = declared(spec)
    trace = args.trace == 1
    detail = run_passes(
        args.workload, args.seed, args.seconds, trace, args.smoke, import_s
    )
    metrics = detail["metrics"]
    if trace and not args.smoke:
        import probes
        metrics.update(probes.run_all())
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    print_metrics(f"{args.workload} seed={args.seed}", metrics, names)
    for problem in detail["problems"]:
        print(f"WRONG: {problem}")
    if args.out:
        nproc = os.cpu_count() or 1
        detail.update(env=environment(), load_1min=load, load_flag=load > nproc)
        with open(args.out, "w") as fh:
            json.dump(detail, fh, indent=1)
    # the driver's line: exactly the declared metrics of the run's kind;
    # a per-layer metric this workload does not have reads 0 there (the
    # result file and compare.py never zero-fill)
    kind = "per_layer" if trace else "end_to_end"
    line = {
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec[kind]
        },
    }
    print(json.dumps(line))
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# a set of runs: children one at a time
# ----------------------------------------------------------------------
def _child(workload: str, args, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(
        dir=OUT_DIR, prefix="child-", suffix=".json", delete=False
    ) as fh:
        path = fh.name
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", path,
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if not os.path.getsize(path):
            raise SystemExit(
                f"{workload}: child exited {proc.returncode} without a result\n"
                f"{proc.stderr[-2000:]}"
            )
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def make_row(meta: dict, values: list[float]) -> dict:
    """One (metric, workload) row of a set: median and quartiles of the
    repeats' values, beside the metric's unit, direction and bound."""
    if len(values) > 1:
        q1, med, q3 = quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {
        "unit": meta["unit"], "kind": meta["kind"], "better": meta["better"],
        "bound": meta.get("bound"), "median": med, "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }


def run_set(args, spec: dict) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    names = declared(spec)
    chosen = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
    result: dict = {
        "schema": 1, "seed": args.seed, "repeats": args.repeats,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    ok = True
    for workload in chosen:
        repeats = args.repeats or DEFAULT_REPEATS.get(workload, 3)
        children = [_child(workload, args, 0) for _ in range(repeats)]
        traced = _child(workload, args, 1) if args.traced else None
        runs = children + ([traced] if traced else [])
        result.setdefault("env", runs[0]["env"])
        problems = [p for run in runs for p in run["problems"]]
        if len({json.dumps(run["digests"], sort_keys=True) for run in runs}) > 1:
            problems.append("digests differ between repeats")
        rows = {
            name: make_row(names[name], [c["metrics"][name] for c in children])
            for name in children[0]["metrics"]
        }
        if traced:
            # the traced and probe numbers come from the traced child alone
            for name, value in traced["metrics"].items():
                rows.setdefault(name, make_row(names[name], [value]))
        print_metrics(
            f"{workload} seed={args.seed} median of {repeats}",
            {k: v["median"] for k, v in rows.items()}, names,
        )
        for run in runs:
            if run["load_flag"]:
                print(f"NOTE: load {run['load_1min']:.2f} > nproc at a child's start")
        for problem in problems:
            print(f"WRONG: {problem}")
        ok = ok and not problems
        result["workloads"][workload] = {
            "rows": rows, "digests": children[0]["digests"],
            "problems": problems, "runs": runs,
        }
    if args.probes and not args.traced:  # a traced run has them already
        import probes
        measured = probes.run_all()
        print_metrics("layer probes", measured, names)
        result["probes"] = {
            k: {"value": v, "unit": names[k]["unit"]} for k, v in measured.items()
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--all", action="store_true", help="every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="seconds each run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="one run: 1 reports the per-layer metrics")
    ap.add_argument("--repeats", type=int, default=None,
                    help="a set: untraced runs per workload, each a fresh process")
    ap.add_argument("--traced", action="store_true",
                    help="a set: one extra traced run per workload")
    ap.add_argument("--probes", action="store_true",
                    help="a set: also run the layer probes")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced epochs/requests/nodes, for the self-tests")
    ap.add_argument("--out", help="write the full result as JSON")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.path.insert(0, os.path.join(ROOT, "src"))
    else:
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.all or args.repeats or args.traced or args.probes:
        return run_set(args, spec)
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
