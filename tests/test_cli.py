"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def _mc_spec(chunks: int) -> dict:
    """A JSON sweep of ``chunks`` tiny ``mc_chunk`` tasks."""
    return {
        "name": "mini",
        "kind": "mc_chunk",
        "base": {"lam": 1e-4, "T": 3600.0, "N": 600.0, "n_runs": 32 * chunks,
                 "chunk_runs": 32, "master_seed": 1},
        "grid": {"chunk_index": list(range(chunks))},
        "seeded": False,
    }


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.mtbf == 3.0
        assert args.job == 48.0
        assert not args.plot
        # a closed form: no campaign runner behind it
        assert not {"jobs", "store", "no_resume"} & set(vars(args))

    def test_epoch_arch_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["epoch", "--arch", "bogus"])

    def test_job_flags(self):
        args = build_parser().parse_args(
            ["job", "--method", "diskful", "--overlap", "--seeds", "2"]
        )
        assert args.method == "diskful"
        assert args.overlap
        assert args.seeds == 2

    def test_study_methods_are_checked_by_the_parser(self, capsys):
        """``--methods quantum`` used to end in a RuntimeError traceback."""
        names = ["dvdc", "diskful", "dvdc_rdp", "checkpoint_node", "first_shot"]
        every = names + [n + "+overlap" for n in names]
        assert build_parser().parse_args(["study", "--methods", *every]).methods == every
        for bad in ("quantum", "dvdc+full", "+overlap"):
            with pytest.raises(SystemExit) as exc:
                main(["study", "--methods", "dvdc", bad])
            assert exc.value.code == 2
            assert "argument --methods" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig5", "--mtbf", "0"],
        ["calibrate", "--size", "0"],
        ["calibrate", "--repeats", "0"],
        ["controlplane", "status", "--duration", "-1"],
        ["controlplane", "run", "--spares", "-1"],
        ["serving", "run", "--slo", "nan"],
        ["job", "--seeds", "0"],
        ["study", "--seeds", "0"],
        ["validate", "--job", "nan"],
        ["fig5", "--job", "inf"],
        ["geo", "run", "--kill-site", "-2"],
        ["fig5", "--scheme", "bogus"],
        ["audit", "--scheme", "bogus"],
        ["audit", "--heal", "--scheme", "bogus"],
        ["geo", "run", "--scheme", "bogus"],
        ["geo", "study", "--scheme", "rs-0-2"],
        ["geo", "study", "--policies", "bogus"],
        ["serving", "study", "--policies", "bogus"],
        ["metrics", "--scenario", "fig5"],
        ["campaign", "--spec", "missing.json"],
        ["campaign", "--spec", "malformed.json"],
        ["campaign", "--spec", "invalid.json"],
        ["campaign", "--spec", "unknown-kind.json"],
        ["controlplane", "status", "--nodes", "1"],
        ["controlplane", "drain", "--spares", "0", "--nodes", "2"],
        ["controlplane", "run", "--group-size", "8", "--nodes", "3"],
        ["audit", "--heal", "--nodes", "1"],
        ["audit", "--heal", "--scheme", "rs-8-2", "--nodes", "2"],
        ["epoch", "--nodes", "1"],
        ["serving", "run", "--nodes", "1"],
        ["geo", "run", "--sites", "1"],
        ["fig5", "--scheme", "xor", "--nodes", "1"],
        ["audit", "--nodes", "1"],
        ["audit", "--fuzz", "--geo", "3", "--nodes", "2"],
        ["audit", "--fuzz", "--geo", "1"],
        ["metrics", "--scenario", "job", "--nodes", "1"],
        ["trace", "export", "--scenario", "job", "--nodes", "1"],
        ["geo", "study", "--seeds", "1", "--nodes", "3", "--sites", "3"],
        ["study", "--methods", "first_shot", "--seeds", "1", "--nodes", "1"],
        ["study", "--nodes", "1"],
        ["serving", "study", "--nodes", "1"],
    ], ids=" ".join)
    def test_hostile_numbers_exit_2_naming_the_flag(self, argv, capsys,
                                                    tmp_path, monkeypatch):
        """Numbers, scheme specs, policy names, sweep files and cluster
        shapes are checked before anything runs (the campaign-backed
        studies before their fan-out); each used to end in a traceback
        or a ``FAILED`` line with exit 1, or run on."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "malformed.json").write_text("{not json")
        (tmp_path / "invalid.json").write_text(
            json.dumps({**_mc_spec(1), "replications": 0}))
        (tmp_path / "unknown-kind.json").write_text(
            json.dumps({**_mc_spec(1), "kind": "fig5_point"}))
        says = {
            "bogus": "unknown coding scheme 'bogus'",
            "rs-0-2": "need k >= 1",
            "missing.json": "FileNotFoundError",
            "malformed.json": "JSONDecodeError",
            "invalid.json": "ValueError: replications must be >= 1",
            "unknown-kind.json": "KeyError: \"unknown task kind 'fig5_point'",
        }.get(argv[-1], "must be")
        if argv[-2] in ("--policies", "--scenario"):
            says = f"invalid choice: '{argv[-1]}'"
        if argv[-2] in ("--nodes", "--sites"):  # a shape nothing fits
            room = "1 nodes leave no room for a member"
            says = {
                "controlplane": "group_size",
                "epoch": room,
                "serving": room,
                "study": room,
                "metrics": room,
                "trace": room,
                "fig5": "n_nodes must be >= 2",
                "audit": ("no node available to hold parity shard"
                          if "--heal" in argv else "fuzzing needs >= 3 nodes"),
            }.get(argv[0], "no node available to hold parity shard")
            if "first_shot" in argv:
                says = "first_shot needs >= 2 nodes, got 1"
            if argv[:2] == ["geo", "study"]:
                says = "racks_per_site 2 exceeds the smallest site's 1 node(s)"
        if argv[-2] == "--geo":
            says = "geo mode needs >= 2 sites"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: {says}" in capsys.readouterr().err

    def test_campaign_requires_a_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign"])
        assert exc.value.code == 2
        assert "required: --spec" in capsys.readouterr().err

    def test_every_numeric_flag_is_range_checked(self):
        """A bare ``type=int`` / ``type=float`` accepts 0, negatives,
        NaN and infinity; every numeric flag goes through ``_bounded``."""
        import argparse

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)
                else:
                    yield action

        bare = [a.option_strings for a in walk(build_parser())
                if a.type in (int, float)]
        assert bare == []


class TestCommands:
    def test_fig5_output(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "diskless" in out and "diskful" in out
        assert "reduces expected completion time" in out

    def test_fig5_plot(self, capsys):
        assert main(["fig5", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "X" in out  # optima marks on the ASCII canvas

    @pytest.mark.parametrize("argv", [
        ["--mtbf", "0.25", "--job", "200"],
        ["--mtbf", "1", "--job", "8", "--nodes", "16", "--vms-per-node", "4",
         "--dirty-rate", "1e6"],
    ], ids=" ".join)
    def test_fig5_plot_when_diskful_never_gets_under_2x(self, argv, capsys):
        """The plot kept only points with a diskful ratio under 2, so a
        diskful minimum above 2 raised "no finite data to plot"."""
        assert main(["fig5", *argv, "--plot"]) == 0
        out = capsys.readouterr().out
        assert out.count("X") == 3  # both optima on the canvas, one in the legend

    def test_epoch_all_architectures(self, capsys):
        for arch in ("dvdc", "diskful", "checkpoint-node", "firstshot"):
            assert main(["epoch", "--arch", arch]) == 0
            out = capsys.readouterr().out
            assert arch in out

    def test_job_runs(self, capsys):
        assert main([
            "job", "--work", "0.5", "--seeds", "1", "--node-mtbf", "24",
        ]) == 0
        out = capsys.readouterr().out
        assert "T/T_ideal" in out

    def test_job_overlap_diskful(self, capsys):
        assert main([
            "job", "--method", "diskful", "--work", "0.5", "--seeds", "1",
            "--node-mtbf", "24", "--overlap",
        ]) == 0
        assert "overlapped" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        assert main(["validate", "--runs", "800", "--job", "4"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo" in out

    def test_audit_heal_reraises_the_driver_error(self, monkeypatch):
        """A failing cycle used to surface as ``KeyError: 'report'``."""
        from repro.core import DisklessCheckpointer

        def run_cycle(self, *args, **kwargs):
            raise RuntimeError("cycle exploded")

        monkeypatch.setattr(DisklessCheckpointer, "run_cycle", run_cycle)
        with pytest.raises(RuntimeError, match="cycle exploded"):
            main(["audit", "--heal"])

    def test_layout_error_mid_run_is_not_a_usage_error(self, monkeypatch):
        """Only a shape the builder cannot lay out exits 2; the same
        error from the running protocol propagates."""
        from repro.core import DisklessCheckpointer
        from repro.core.groups import LayoutError

        def run_cycle(self, *args, **kwargs):
            raise LayoutError("layout broke mid-run")

        monkeypatch.setattr(DisklessCheckpointer, "run_cycle", run_cycle)
        with pytest.raises(LayoutError, match="layout broke mid-run"):
            main(["audit", "--heal"])

    @pytest.mark.parametrize("argv", [
        ["epoch"], ["geo", "run"], ["serving", "run", "--requests", "200"],
    ], ids=" ".join)
    def test_value_error_mid_run_is_not_a_usage_error(self, argv, monkeypatch):
        """``_laid_out`` also turns a builder's ``ValueError`` into exit
        2; raised by the running protocol, it still propagates.  (The
        serving cadence used to swallow it and exit 0.)"""
        from repro.core import DisklessCheckpointer

        def run_cycle(self, *args, **kwargs):
            raise ValueError("bad value mid-run")

        monkeypatch.setattr(DisklessCheckpointer, "run_cycle", run_cycle)
        with pytest.raises(ValueError, match="bad value mid-run"):
            main(argv)

    @pytest.mark.parametrize("argv,target", [
        (["serving", "study", "--requests", "200", "--seeds", "1",
          "--policies", "baseline", "checkpoint"],
         "repro.core.DisklessCheckpointer.run_cycle"),
        (["geo", "study", "--seeds", "1", "--policies", "local-parity",
          "geo-spread"], "repro.core.DisklessCheckpointer.heal"),
    ], ids=["serving study", "geo study"])
    def test_a_failed_study_cell_prints_failed_and_exits_1(
            self, argv, target, monkeypatch, capsys):
        """A failed cell used to pass as an aborted serving cycle, or end
        ``geo study`` in a traceback."""
        def broken(*args, **kwargs):
            raise ValueError("cell broke")

        monkeypatch.setattr(target, broken)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("FAILED") == 1 and "ValueError: cell broke" in err

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--size", str(1 << 20), "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "memory_xor_bandwidth" in out


class TestCampaignCommand:
    def test_campaign_store_resume(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_mc_spec(12)))
        args = ["campaign", "--spec", str(path),
                "--store", str(tmp_path / "store")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def counts(out):
            # summary row: tasks executed cached failed jobs wall-clock
            row = [ln for ln in out.splitlines() if ln.startswith("12")][0]
            return [int(x) for x in row.split()[:4]]

        # 12 chunks: all executed cold, none on resume
        assert counts(first) == [12, 12, 0, 0]
        assert counts(second) == [12, 0, 12, 0]

    def test_geo_study_no_resume_reexecutes(self, capsys, tmp_path):
        """``--no-resume`` was parsed but dropped: the second run served
        the cache and the store never grew."""
        store = tmp_path / "store"
        args = ["geo", "study", "--nodes", "6", "--epochs", "1", "--seeds",
                "1", "--store", str(store)]

        def records():
            return len((store / "results.jsonl").read_text().splitlines())

        assert main(args) == 0
        assert records() == 3  # one cell per policy
        assert main(args) == 0
        assert records() == 3  # resumed: all cached
        assert main(args + ["--no-resume"]) == 0
        assert records() == 6  # every cell re-executed and re-appended
        capsys.readouterr()

    def test_campaign_spec_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_mc_spec(4)))
        assert main(["campaign", "--spec", str(path), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'mini'" in out

    def test_validate_jobs_identical(self, capsys):
        args = ["validate", "--runs", "512", "--job", "4"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_study_jobs_identical(self, capsys):
        args = ["study", "--work", "0.2", "--seeds", "1", "--node-mtbf",
                "48", "--methods", "dvdc"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestJobCommand:
    """``repro job`` runs the study's cell on the paper 4x3 cluster."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("method", ["dvdc", "diskful"])
    def test_rows_are_study_cells(self, capsys, method, overlap):
        from repro.analysis import format_seconds
        from repro.campaign import run_study_campaign

        argv = ["job", "--method", method, "--seeds", "2", "--work", "0.5"]
        assert main(argv + ["--overlap"] * overlap) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        # the job flags' defaults are the study's
        outcome, _ = run_study_campaign(
            methods=[{"name": method, "overlap": overlap}], work=1800.0, seeds=2,
        )
        assert len(outcome.cells) == 2
        for cell in outcome.cells:
            r = cell.result
            assert [
                str(cell.seed), "yes" if r.completed else "LOST",
                f"{r.time_ratio:.3f}", str(r.n_failures), str(r.n_recoveries),
                format_seconds(r.checkpoint_time), format_seconds(r.lost_work),
            ] in printed


class TestStudyCommand:
    def test_study_runs(self, capsys):
        assert main([
            "study", "--work", "0.5", "--seeds", "1",
            "--node-mtbf", "48", "--methods", "dvdc", "diskful",
        ]) == 0
        out = capsys.readouterr().out
        assert "paired study" in out
        assert "dvdc" in out and "diskful" in out

    @pytest.mark.parametrize("method,low", [
        ("first_shot", 2), ("checkpoint_node", 2), ("dvdc_rdp", 4),
    ])
    def test_study_below_the_node_minimum_names_it(self, method, low, capsys):
        """first_shot on one node used to print a 0 % table over zero
        VMs; checkpoint_node died in a LayoutError; then every task of
        the fan-out failed on it."""
        with pytest.raises(SystemExit) as exc:
            main(["study", "--methods", method, "--nodes", str(low - 1),
                  "--seeds", "1", "--work", "0.2"])
        assert exc.value.code == 2
        assert (f"argument --nodes: {method} needs >= {low} nodes"
                in capsys.readouterr().err)

    def test_study_overlap_suffix(self, capsys):
        assert main([
            "study", "--work", "0.5", "--seeds", "1",
            "--node-mtbf", "48", "--methods", "diskful+overlap",
        ]) == 0
        assert "diskful+overlap" in capsys.readouterr().out


class TestTelemetryCommands:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_export_defaults(self):
        args = build_parser().parse_args(["trace", "export"])
        assert args.format == "chrome"
        assert args.clock == "sim"
        assert args.scenario == "epoch"
        assert args.out is None

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.format == "prom"
        assert args.scenario == "epoch"

    def test_trace_export_chrome_validates(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "export", "--scenario", "epoch",
                     "--arch", "diskful", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        dur = [e for e in events if e["ph"] in "BE"]
        assert dur, "no duration events exported"
        ts = [e["ts"] for e in dur]
        assert ts == sorted(ts)
        stacks = {}
        for e in dur:
            s = stacks.setdefault(e["tid"], [])
            if e["ph"] == "B":
                s.append(e["name"])
            else:
                assert s.pop() == e["name"]
        assert all(not s for s in stacks.values())
        assert "wrote" in capsys.readouterr().out

    def test_trace_export_jsonl(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "export", "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[-1]["type"] == "metrics_snapshot"
        assert any(d["type"] == "span" for d in docs)

    def test_metrics_prom_output_parses(self, capsys):
        from repro.telemetry import parse_prometheus_text

        assert main(["metrics", "--scenario", "epoch"]) == 0
        text = capsys.readouterr().out
        parsed = parse_prometheus_text(text)
        assert "repro_sim_events_total" in parsed
        assert "repro_checkpoint_pause_seconds" in parsed

    def test_metrics_table_output(self, capsys):
        assert main(["metrics", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "repro_sim_events_total" in out

    def test_metrics_prom_to_file(self, tmp_path, capsys):
        from repro.telemetry import parse_prometheus_text

        out = tmp_path / "metrics.prom"
        assert main(["metrics", "--out", str(out)]) == 0
        assert "repro_sim_events_total" in parse_prometheus_text(
            out.read_text()
        )

    def test_job_scenario_metric_families(self, capsys):
        from repro.telemetry import parse_prometheus_text

        assert main(["metrics", "--scenario", "job"]) == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        assert {
            "repro_checkpoint_captures_total", "repro_checkpoint_pause_seconds",
            "repro_failures_total", "repro_link_active_flows",
            "repro_link_utilization", "repro_net_flow_bytes_total",
            "repro_net_flow_seconds", "repro_net_flows_total",
            "repro_sim_events_total", "repro_sim_heap_depth",
            "repro_trace_events_total",
        } <= set(parsed)

    def test_job_scenario_honours_the_cluster_shape(self, tmp_path, capsys):
        """The job scenario used to run the 4x3 cluster whatever
        ``--nodes``/``--vms-per-node`` said."""
        import json

        out = tmp_path / "job.jsonl"
        assert main(["trace", "export", "--scenario", "job", "--nodes", "6",
                     "--vms-per-node", "2", "--format", "jsonl",
                     "--out", str(out)]) == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        pauses = [d["data"] for d in docs if d.get("kind") == "coordinated.pause"]
        assert pauses and all(p["n_vms"] == 12 for p in pauses)
        links = docs[-1]["metrics"]["repro_link_utilization"]["series"]
        assert {s["labels"]["link"].split(".")[0] for s in links} == {
            f"node{n}" for n in range(6)}
