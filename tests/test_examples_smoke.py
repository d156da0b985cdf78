"""Smoke tests: every example script runs to completion.

Examples are part of the public surface; this keeps them green.  Each
runs in-process via runpy with a small argv where the script accepts
one, capturing stdout.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", [], capsys)
        assert "PASS" in out
        assert "18" in out  # the headline reduction

    def test_interval_tuning(self, capsys):
        out = _run("interval_tuning.py", [], capsys)
        assert "Fig. 5" in out
        assert "Young" in out
        assert "Adaptive" in out

    def test_architecture_tour(self, capsys):
        out = _run("architecture_tour.py", [], capsys)
        assert "Fig.4 DVDC" in out
        assert "Remus" in out

    def test_migration_pagehash(self, capsys):
        out = _run("migration_pagehash.py", [], capsys)
        assert "Pre-copy" in out
        assert "dedup" in out

    def test_double_failure_protection(self, capsys):
        out = _run("double_failure_protection.py", [], capsys)
        assert "PASS" in out
        assert "RDP" in out

    def test_campaign_sweep(self, capsys):
        out = _run("campaign_sweep.py", ["--runs", "2048", "--jobs", "2"], capsys)
        assert "PASS: parallel estimates bit-identical to serial" in out
        assert "PASS: resume served 16/16 tasks" in out
        assert "rebuilt from the result store" in out

    @pytest.mark.slow
    def test_hpc_job_survival_small(self, capsys):
        out = _run(
            "hpc_job_survival.py",
            ["--work", "0.5", "--seeds", "1", "--node-mtbf", "12"],
            capsys,
        )
        assert "shared failure traces" in out
        assert "Timeline" in out
