#!/usr/bin/env python3
"""Diff the CLI's output between two git revisions.

    python benchmarks/cli_diff.py REV_A REV_B

Each revision is extracted with ``git archive`` into a temporary
directory and runs, from its own ``src/`` and in its own scratch
directory, the same commands in the same order:

* the census's ``repro`` argvs (every CI step that runs the CLI, then
  :data:`census.DOC_COMMANDS`; see ``census.cli_invocations``), with
  each ``--budget`` cut as the census cuts it, so a fuzz batch does not
  depend on host speed;
* :data:`DIFF_SET`, the commands CLI simplifications are checked
  against, where the census does not already run them;
* every ``examples/*.py`` of the revision, with the census's arguments.

The two revisions run side by side, one process each.  For every
command whose stdout or exit status differs, the script prints both
exit statuses, the last stderr line of a failing side and a unified
diff of stdout.  Before comparing, it masks what differs between any
two runs: the scratch directory's path, temporary file names, the
cells of table columns headed ``wall`` or ``wall clock``, and the
bandwidth ``calibrate`` measures.  Exits 0 when nothing differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import census

ROOT = Path(__file__).resolve().parent.parent

#: CLI commands the census does not run that CLI changes are diffed on.
DIFF_SET = [
    ["study", "--seeds", "2", "--work", "1"],
    ["study", "--methods", "dvdc", "diskful", "dvdc_rdp"],
    ["job"],
    ["job", "--method", "diskful"],
    ["serving", "study", "--seeds", "1", "--requests", "6000"],
    ["serving", "run"],
    ["controlplane", "run"],
    ["controlplane", "drain"],
    ["controlplane", "status"],
    ["audit", "--heal", "--spares", "0"],
    ["audit", "--heal", "--spares", "1"],
    ["audit", "--heal", "--spares", "2"],
    ["audit", "--heal", "--scheme", "rs-8-2"],
    ["epoch", "--arch", "dvdc"],
    ["epoch", "--arch", "diskful"],
    ["epoch", "--arch", "checkpoint-node"],
    ["epoch", "--arch", "firstshot"],
    ["metrics", "--scenario", "epoch", "--format", "prom"],
    ["metrics", "--scenario", "epoch", "--format", "prom", "--arch", "diskful"],
    ["metrics", "--scenario", "job", "--format", "prom"],
    ["trace", "export", "--scenario", "epoch", "--format", "jsonl"],
    ["geo", "run"],
    ["geo", "study", "--seeds", "1"],
]

#: Table columns whose cells are host wall-clock time.
WALL_HEADERS = {"wall", "wall clock"}

#: ``calibrate``'s host measurement.
HOST_MEASURED = re.compile(r"(XOR bandwidth: |memory_xor_bandwidth=)[^\s)]+")


def commands() -> list[list[str]]:
    """The argvs of the ``repro`` runs, in order, with ``{work}`` for
    the scratch directory."""
    out = []
    for argv in census.cli_invocations(ROOT):
        argv = [a.replace("/tmp/", "{work}/") for a in argv]
        while "--budget" in argv:
            i = argv.index("--budget")
            del argv[i:i + 2]
        out.append(argv)
    return out + [argv for argv in DIFF_SET if argv not in out]


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``; returns its commit."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"cli_diff: git archive {sha} failed")
    return sha


def mask_wall_columns(text: str) -> str:
    """Collapse each table column headed ``wall``/``wall clock`` to its
    header, one dash and ``*`` cells, since the cells also set the
    column's width.  Only rows as wide as the dash line count as the
    table's rows, which holds for the right-aligned wall columns."""
    lines = text.split("\n")
    for i, sep in enumerate(lines):
        if i == 0 or not re.fullmatch(r"-+(  -+)*", sep):
            continue
        rows = i + 1
        while rows < len(lines) and len(lines[rows]) == len(sep):
            rows += 1
        for a, b in reversed([m.span() for m in re.finditer(r"-+", sep)]):
            head = lines[i - 1][a:b].strip()
            if head in WALL_HEADERS:
                for j, cell in zip(range(i - 1, rows), [head, "-"] + ["*"] * (rows - i - 1)):
                    lines[j] = lines[j][:a] + cell + lines[j][b:]
    return "\n".join(lines)


def mask(text: str, work: Path) -> str:
    text = text.replace(str(work), "{work}")
    text = re.sub(r"\{work\}/tmp\w+", "{work}/tmp*", text)
    text = HOST_MEASURED.sub(r"\1*", text)
    return mask_wall_columns(text)


def run_all(tree: Path, work: Path) -> dict[str, tuple[int, str, str]]:
    """Run every command of one revision: ``{name: (status, stdout,
    last stderr line)}``."""
    work.mkdir(parents=True)
    (work / "sweep.json").write_text(json.dumps(census.SWEEP))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), TMPDIR=str(work))
    runs = [("repro " + " ".join(argv),
             ["-m", "repro.cli", *(a.format(work=work) for a in argv)])
            for argv in commands()]
    runs += [(f"example {f.name}",
              [str(f), *census.EXAMPLE_ARGS.get(f.name, [])])
             for f in sorted((tree / "examples").glob("*.py"))]
    out: dict[str, tuple[int, str, str]] = {}
    for name, args in runs:
        proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True, text=True)
        err = proc.stderr.strip().splitlines()
        while name in out:  # a command CI runs twice against one store
            name += " (again)"
        out[name] = (proc.returncode, mask(proc.stdout, work),
                     err[-1] if err else "")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp:
        tmp = Path(tmp)
        shas = [extract(rev, tmp / side / "tree")
                for rev, side in ((args.rev_a, "a"), (args.rev_b, "b"))]
        print(f"A = {args.rev_a} ({shas[0][:12]}), B = {args.rev_b} ({shas[1][:12]})")
        with ThreadPoolExecutor(2) as pool:
            a, b = pool.map(lambda side: run_all(tmp / side / "tree", tmp / side / "work"),
                            ("a", "b"))
    differ = 0
    for name in list(a) + [n for n in b if n not in a]:
        ra, rb = a.get(name), b.get(name)
        if ra is None or rb is None:
            differ += 1
            print(f"\n== {name}: only in {'B' if ra is None else 'A'}")
            continue
        if ra[:2] == rb[:2]:
            continue
        differ += 1
        print(f"\n== {name}: exit {ra[0]} -> {rb[0]}")
        for side, r in (("A", ra), ("B", rb)):
            if r[0]:
                print(f"   {side} stderr: {r[2]}")
        sys.stdout.writelines(difflib.unified_diff(
            ra[1].splitlines(True), rb[1].splitlines(True), "A", "B", n=1))
    total = len(set(a) | set(b))
    print(f"\n{total - differ} of {total} commands identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
