#!/usr/bin/env python3
"""Census of real callers: which ``src/repro`` functions does anything
besides the tier-1 tests run?

    python benchmarks/census.py            # run the callers, print the census
    python benchmarks/census.py --write    # ... and rewrite its docs section
    python benchmarks/census.py --check    # ... and fail on an unkept unit

Every *real caller* runs in a fresh process under a ``sys.setprofile``
hook that records the ``(file, co_firstlineno, co_name)`` of each
``src/repro`` code object it enters.  The real callers are the e2e
benchmark at smoke size, the paper benches, every ``examples/*.py``,
every CI workflow step that runs ``repro`` code outside pytest, and
the documented CLI commands CI does not run (:data:`DOC_COMMANDS`).
The tier-1 suite runs under the same hook.  Every function, method and
class in ``src/repro``, listed with :mod:`ast`, then gets one label:
*real*, *tests only* or *nothing*.

A unit that is not *real* is deleted, or stays under one keep rule:

K1  an oracle: a test compares production code against it;
K2  it backs an ``EXPERIMENTS.md`` row;
K3  the ROADMAP dedup item names it;
K4  it runs only when something fails (error, rollback, shrink, report);
K5  the profiler cannot see it used: dunder methods, interface stubs
    (a body of ``...``, ``pass`` or ``raise NotImplementedError``) and
    declarations (dataclass, exception, enum, protocol and method-less
    classes).  Applied by the script itself; K1-K4 are listed in
    :data:`KEEP`, whose keys name a unit, a class or a whole module.

``--write`` regenerates the section of ``docs/architecture.md`` between
the census markers.  ``--check`` exits 1 when a unit is neither real nor
kept, when a :data:`KEEP` entry names a unit that is real or gone, when
a caller fails, or when the committed section differs from this
run's.  A full run takes about ten minutes on two cores; the hook slows
every caller three- to fivefold, which is why no caller runs under a
wall-clock budget.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "architecture.md"
BEGIN = "<!-- census:begin (generated by benchmarks/census.py --write) -->"
END = "<!-- census:end -->"

#: The recorder every hooked process loads as ``sitecustomize``.  Pool
#: workers leave through ``os._exit``, so ``atexit`` never fires there:
#: they dump from ``multiprocessing.util._exit_function``, which
#: ``Process._bootstrap`` calls first.  The hook is off before the set is
#: read, or the read itself would grow it.
HOOK = '''\
import atexit, json, os, sys, tempfile, threading
import multiprocessing.util as _mpu

_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    hits = [h for h in list(_seen) if h[0].startswith({src!r})]
    fd, path = tempfile.mkstemp(dir={out!r}, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(hits, fh)


def _exit_function(*args, _inner=_mpu._exit_function, **kwargs):
    _dump()
    return _inner(*args, **kwargs)


_mpu._exit_function = _exit_function
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

#: CLI commands no CI step runs: each leaf verb and each mode the README
#: and ``docs/`` show, at default sizes, plus the one ``audit --strategy``
#: choice CI leaves out.
DOC_COMMANDS = [
    ["fig5", "--plot"],
    ["fig5", "--scheme"],
    ["fig5", "--scheme", "rs-8-2", "rep-5", "--window", "600"],
    ["epoch", "--arch", "dvdc"],
    ["epoch", "--arch", "diskful"],
    ["epoch", "--arch", "checkpoint-node"],
    ["epoch", "--arch", "firstshot"],
    ["job"],
    ["study", "--methods", "dvdc", "diskful", "dvdc_rdp"],
    ["validate"],
    ["calibrate"],
    ["audit", "--heal", "--scheme", "rs-8-2"],
    ["audit", "--fuzz", "--strategy", "full", "--seeds", "5"],
    ["controlplane", "status"],
    ["campaign", "--spec", "{work}/sweep.json"],
    ["trace", "export", "--scenario", "epoch", "--arch", "diskful",
     "--format", "chrome", "--out", "{work}/trace.json"],
    ["metrics", "--scenario", "epoch", "--format", "table"],
    ["metrics", "--scenario", "job"],
    ["metrics", "--scenario", "serving"],
    ["serving", "run", "--metrics"],
    ["geo", "run", "--policy", "local-parity"],
]

#: Example arguments where a default run is needlessly long under the hook.
EXAMPLE_ARGS = {"hpc_job_survival.py": ["--seeds", "1"]}

#: What ``campaign --spec`` runs: the docs/campaigns.md example sweep.
SWEEP = {
    "name": "census", "kind": "mc_chunk", "master_seed": 0,
    "base": {"T": 28800.0, "T_ov": 120.0, "T_r": 60.0, "N": 3600.0,
             "n_runs": 1024, "master_seed": 0},
    "grid": {"lam": [1e-4, 2e-4], "chunk_index": [0, 1]},
}

#: Units that are not real but stay: ``module[:qualname]`` -> (rule, why).
KEEP: dict[str, tuple[str, str]] = {
    "repro.coding.gf256:gf_mul": (
        "K1", "scalar product the `gf_matvec` kernel and the byte-pair "
        "tables are checked against"),
    "repro.coding.gf256:gf_div": (
        "K1", "scalar field division the log/exp tables are checked through"),
    "repro.model.montecarlo:estimate_expected_time": (
        "K1", "monolithic Monte-Carlo the closed forms and the campaign's "
        "chunked estimates are checked against"),
    "repro.model.montecarlo:estimate_window_loss": (
        "K1", "Monte-Carlo check of `window_loss_probability`"),
    "repro.model.montecarlo:simulate_completion_times_chunked": (
        "K1", "serial chunk concatenation the `mc_chunk` campaign tasks "
        "are checked against"),
    "repro.cluster.xorsum:xor_reduce": (
        "K1", "plain XOR reduce the padded kernel, the checkpointers' "
        "parity blocks and RDP's row parity are checked against"),
    "repro.network.transfer": (
        "K1", "closed forms `test_network.py` checks the flow simulator "
        "against"),
    "repro.model.poisson:expected_time_no_checkpoint": (
        "K2", "VAL-MC: Eq. (1), the reference for the printed form"),
    "repro.model.poisson:expected_time_checkpointed": (
        "K2", "VAL-MC: corrected Eq. (2), the reference for the Eq. (3) "
        "erratum"),
    "repro.model.poisson:paper_literal_eq1": (
        "K2", "VAL-MC errata: Eq. (1) as printed"),
    "repro.model.poisson:paper_literal_eq3": (
        "K2", "VAL-MC errata: Eq. (3) as printed"),
    "repro.model.poisson:paper_literal_overhead": (
        "K2", "VAL-MC errata: the overhead equation as printed"),
    "repro.checkpoint.adaptive:AdaptivePolicy.young_equivalent": (
        "K2", "ADAPTIVE: the Young horizon the online rule steps by"),
    "repro.workloads.app:CheckpointedJob._adaptive_chunk": (
        "K2", "ADAPTIVE: a job driven by an `AdaptivePolicy`"),
    "repro.workloads.app:CheckpointedJob._adaptive_should_take": (
        "K2", "ADAPTIVE: a job driven by an `AdaptivePolicy`"),
    "repro.workloads.app:CheckpointedJob._estimated_dirty_bytes": (
        "K2", "ADAPTIVE: a job driven by an `AdaptivePolicy`"),
    "repro.checkpoint.compression": (
        "K3", "delta compression, named by the ROADMAP dedup item"),
    "repro.audit.auditor:Auditor.assert_ok": (
        "K4", "raises when an audit finds fatal violations"),
    "repro.audit.fuzzer:shrink": (
        "K4", "minimizes a failing fuzz schedule"),
    "repro.coding.schemes:available_schemes": (
        "K4", "lists the schemes when a spec names an unknown one"),
    "repro.controlplane.coordinator:ControlPlane._cold_restore": (
        "K4", "recovers a crash that lands before the first commit"),
    "repro.controlplane.maintenance:_unstage_committed": (
        "K4", "backs out a staged image when a drain migration fails"),
    "repro.resilience.retry:_attempt_timeout": (
        "K4", "aborts a transfer attempt that stalls past its timeout"),
    "repro.resilience.scrubber:Scrubber._detect": (
        "K4", "records a checksum mismatch"),
    "repro.resilience.scrubber:Scrubber._repaired": (
        "K4", "records a corrupt artifact restored bit-exactly"),
}

LABELS = ("real", "tests only", "nothing")


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
@dataclass
class Unit:
    """One function, method or class of the package."""

    name: str            # "repro.core.dvdc:DisklessCheckpointer.run_cycle"
    path: str            # relative to the source root
    first: int           # first line, decorators included
    last: int
    kind: str            # "function" | "method" | "class"
    declaration: bool = False       # K5: dunder, dataclass, exception, ...
    parent: "Unit | None" = None    # enclosing class of a method or class
    keys: set = field(default_factory=set)   # code objects that roll up here

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


_DECL_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "NamedTuple",
               "TypedDict", "Protocol", "Exception", "BaseException"}


def _last_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _is_stub(node) -> bool:
    """An interface declaration: the body (docstring aside) is only
    ``...``, ``pass`` or ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1:
        return not body
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    return isinstance(stmt, ast.Raise) and stmt.exc is not None and \
        _last_name(stmt.exc) == "NotImplementedError"


def _is_declaration(node: ast.ClassDef) -> bool:
    if "dataclass" in {_last_name(d) for d in node.decorator_list}:
        return True
    bases = {_last_name(b) for b in node.bases}
    if bases & _DECL_BASES or any(b.endswith(("Error", "Exception", "Warning"))
                                  for b in bases):
        return True
    return not any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in node.body)


def list_units(src_root: Path, package: str = "repro") -> list[Unit]:
    """Every function, method and class under ``src_root/package``.

    A def nested in a function rolls up into that function: it cannot
    run unless its enclosing function ran first.  Each unit's ``keys``
    are the ``(path, first line, name)`` of the code objects it owns.
    """
    units: list[Unit] = []

    def walk(body, path, module, prefix, owner, protocol=False):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                unit = Unit(
                    f"{module}:{prefix}{node.name}", path, _first_line(node),
                    node.end_lineno, "method" if owner else "function",
                    declaration=dunder or protocol or _is_stub(node),
                    parent=owner,
                )
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        unit.keys.add((path, _first_line(inner), inner.name))
                units.append(unit)
            elif isinstance(node, ast.ClassDef):
                unit = Unit(
                    f"{module}:{prefix}{node.name}", path, _first_line(node),
                    node.end_lineno, "class",
                    declaration=_is_declaration(node), parent=owner,
                )
                units.append(unit)
                walk(node.body, path, module, f"{prefix}{node.name}.", unit,
                     "Protocol" in {_last_name(b) for b in node.bases})
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                for part in ("body", "orelse", "finalbody"):
                    walk(getattr(node, part, []), path, module, prefix, owner,
                         protocol)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, path, module, prefix, owner, protocol)

    for file in sorted((src_root / package).rglob("*.py")):
        rel = file.relative_to(src_root).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")
        walk(ast.parse(file.read_text(), rel).body, rel, module, "", None)
    return units


def reached(units: list[Unit], hits: set) -> set[str]:
    """Names of the units whose code ran: a def through its own code
    objects, a class through any method (its body runs at import)."""
    out = set()
    for unit in units:
        if unit.kind != "class" and unit.keys & hits:
            out.add(unit.name)
            parent = unit.parent
            while parent is not None:
                out.add(parent.name)
                parent = parent.parent
    return out


def classify(units: list[Unit], real: set, tests: set) -> dict[str, str]:
    """``{unit name: label}`` from the hits of the real callers and of
    the tier-1 run."""
    r, t = reached(units, real), reached(units, tests)
    return {u.name: "real" if u.name in r else "tests only" if u.name in t
            else "nothing" for u in units}


# ----------------------------------------------------------------------
# callers
# ----------------------------------------------------------------------
@dataclass
class Caller:
    name: str
    cmd: list[str]
    cwd: Path
    tests: bool = False     # the tier-1 run, not a real caller


def _expand(script: str, matrix: dict[str, str]) -> str:
    def sub(m: re.Match) -> str:
        expr = m.group(1).strip()
        if expr.startswith("matrix."):
            return matrix[expr[len("matrix."):]]
        cond = re.fullmatch(
            r"startsWith\(matrix\.(\w+),\s*'([^']*)'\)\s*&&\s*'([^']*)'"
            r"\s*\|\|\s*'([^']*)'", expr)
        if cond is None:
            raise SystemExit(f"census: unsupported CI expression ${{{{ {expr} }}}}")
        key, prefix, yes, no = cond.groups()
        return yes if matrix[key].startswith(prefix) else no

    return re.sub(r"\$\{\{(.*?)\}\}", sub, script)


def ci_steps(text: str) -> list[tuple[str, str]]:
    """``("job[matrix]: step", script)`` for every ``run:`` step of a
    GitHub workflow, each matrix combination the step refers to
    expanded."""
    jobs: list[tuple[str, dict, list[tuple[str, str]]]] = []
    lines = text.splitlines()
    step = ""
    i = 0
    while i < len(lines):
        line = lines[i]
        job = re.fullmatch(r"  ([\w-]+):\s*", line)
        if job:
            jobs.append((job.group(1), {}, []))
        named = re.fullmatch(r"\s+- name: (.*)", line)
        if named:
            step = named.group(1).strip()
        axis = re.fullmatch(r"\s+([\w-]+): \[(.*)\]\s*", line)
        if axis and jobs:
            jobs[-1][1][axis.group(1)] = [
                v.strip().strip("'\"") for v in axis.group(2).split(",")]
        run = re.fullmatch(r"(\s+)(?:- )?run: ?(.*)", line)
        if run and jobs:
            indent, head = len(run.group(1)), run.group(2)
            if head in ("|", ">-", ">"):
                block = []
                while i + 1 < len(lines) and (
                        not lines[i + 1].strip()
                        or len(lines[i + 1]) - len(lines[i + 1].lstrip()) > indent):
                    i += 1
                    block.append(lines[i].strip() if head != "|" else lines[i])
                if head == "|":
                    pad = min(len(b) - len(b.lstrip()) for b in block if b.strip())
                    script = "\n".join(b[pad:] for b in block)
                else:
                    script = " ".join(b for b in block if b)
            else:
                script = head
            jobs[-1][2].append((step, script))
        i += 1
    out = []
    for name, matrix, steps in jobs:
        for step, script in steps:
            keys = sorted(set(re.findall(r"matrix\.([\w-]+)", script + step)))
            for combo in itertools.product(*(matrix[k] for k in keys)):
                values = dict(zip(keys, combo))
                tag = name + "".join(f"[{v}]" for v in combo)
                out.append((f"{tag}: {_expand(step, values)}",
                            _expand(script, values)))
    return out


def _repro_steps(root: Path) -> list[tuple[str, str]]:
    """The CI steps that run ``repro`` code outside pytest."""
    text = (root / ".github" / "workflows" / "ci.yml").read_text()
    return [(tag, script) for tag, script in ci_steps(text)
            if ("repro.cli" in script or "from repro" in script)
            and "pytest" not in script]


def _ci_commands(script: str) -> list[list[str]]:
    joined = script.replace("\\\n", " ")
    out = []
    for line in joined.splitlines():
        if "python -m repro.cli" in line:
            words = shlex.split(line.split("python -m repro.cli", 1)[1])
            cut = [i for i, w in enumerate(words) if w in ("|", "&&", ";")]
            out.append(words[: cut[0]] if cut else words)
    return out


def cli_invocations(root: Path = ROOT) -> list[list[str]]:
    """The argv of every ``repro.cli`` run the census makes."""
    ci = [argv for _, script in _repro_steps(root) for argv in _ci_commands(script)]
    return ci + [list(c) for c in DOC_COMMANDS]


def leaf_commands(parser: argparse.ArgumentParser, prefix=()) -> list[tuple]:
    """Every leaf subcommand path of an argparse parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for a in subs for name, sp in a.choices.items()
            for leaf in leaf_commands(sp, prefix + (name,))]


def callers(root: Path, work: Path) -> list[Caller]:
    py = sys.executable
    out = [
        Caller("e2e smoke", [py, "benchmarks/e2e/run.py", "--all", "--smoke",
                             "--repeats", "1", "--probes"], root),
        Caller("paper benches", [
            py, "-m", "pytest", "benchmarks", "--ignore", "benchmarks/e2e",
            "-q"], root),
    ]
    out += [Caller(f"example {f.name}",
                   [py, str(f), *EXAMPLE_ARGS.get(f.name, [])], work)
            for f in sorted((root / "examples").glob("*.py"))]
    for tag, script in _repro_steps(root):
        job_tmp = work / "ci" / re.sub(r"\W+", "-", tag.split(":")[0])
        job_tmp.mkdir(parents=True, exist_ok=True)
        script = re.sub(r"--budget \d+\s*", "", script)
        script = script.replace("PYTHONPATH=src ", 'PYTHONPATH="$PYTHONPATH" ')
        script = script.replace("/tmp/", f"{job_tmp}/")
        out.append(Caller(f"ci {tag}", ["bash", "-eo", "pipefail", "-c", script],
                          job_tmp))
    for argv in DOC_COMMANDS:
        argv = [a.format(work=work) for a in argv]
        out.append(Caller("repro " + " ".join(argv),
                          [py, "-m", "repro.cli", *argv], work))
    out.append(Caller("tier-1 tests", [py, "-m", "pytest", "-q"], root,
                      tests=True))
    return out


def run_hooked(cmd: list[str], cwd: Path, src_root: Path, hook_dir: Path,
               timeout: float = 3600.0) -> tuple[int, set, str]:
    """Run ``cmd`` under the hook: (exit status, hits, output tail)."""
    out_dir = hook_dir / "out"
    out_dir.mkdir(parents=True)
    prefix = str(src_root.resolve()) + os.sep
    (hook_dir / "sitecustomize.py").write_text(HOOK.format(src=prefix,
                                                           out=str(out_dir)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(hook_dir), str(src_root)]))
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)
    hits = set()
    for dump in out_dir.glob("*.json"):
        for filename, line, name in json.loads(dump.read_text()):
            rel = os.path.relpath(os.path.realpath(filename), src_root.resolve())
            hits.add((Path(rel).as_posix(), line, name))
    return proc.returncode, hits, (proc.stdout + proc.stderr)[-3000:]


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def keep_key(name: str) -> str | None:
    """The :data:`KEEP` key covering a unit: its own, an enclosing
    class's, or its module's."""
    module, _, qual = name.partition(":")
    parts = qual.split(".")
    for i in range(len(parts), 0, -1):
        key = f"{module}:{'.'.join(parts[:i])}"
        if key in KEEP:
            return key
    return module if module in KEEP else None


def _unreal(units: list[Unit], labels: dict[str, str]) -> list[Unit]:
    """Units no real caller reaches, each counted once: a method whose
    class is unreached is part of the class, unless the class is a K5
    declaration (whose methods then answer for themselves)."""
    return [u for u in units if labels[u.name] != "real"
            and not (u.parent is not None and labels[u.parent.name] != "real"
                     and not u.parent.declaration)]


def render(units: list[Unit], labels: dict[str, str]) -> str:
    """The generated docs section (markers excluded)."""
    count = {label: sum(1 for u in units if labels[u.name] == label)
             for label in LABELS}
    kept: dict[str, list[Unit]] = {key: [] for key in KEEP}
    for unit in _unreal(units, labels):
        key = keep_key(unit.name)
        if key is not None and not unit.declaration:
            kept[key].append(unit)
    rows = [f"{len(units)} functions, methods and classes in `src/repro`: "
            + ", ".join(f"{count[k]} {k}" for k in LABELS) + ".",
            "",
            "| kept | lines | reached by | rule | why it stays |",
            "|---|---:|---|---|---|"]
    for key, (rule, why) in sorted(KEEP.items()):
        covered = kept[key]
        reach = " / ".join(sorted({labels[u.name] for u in covered}))
        rows.append(f"| `{key}` | {sum(u.lines for u in covered)} | {reach} "
                    f"| {rule} | {why} |")
    decl = [u for u in _unreal(units, labels) if u.declaration]
    methods = sum(1 for u in decl if u.kind != "class")
    rows += ["",
             f"K5, applied by the script to {len(decl)} more units no real "
             f"caller is seen entering: {methods} dunder, stub or protocol "
             f"methods and {len(decl) - methods} dataclass, exception, enum, "
             "protocol or method-less classes."]
    return "\n".join(rows) + "\n"


def problems(units: list[Unit], labels: dict[str, str]) -> list[str]:
    """Why ``--check`` fails, apart from a stale docs section."""
    out = []
    covered: dict[str, list[str]] = {key: [] for key in KEEP}
    for unit in units:
        key = keep_key(unit.name)
        if key is not None:
            covered[key].append(labels[unit.name])
    for unit in _unreal(units, labels):
        if not unit.declaration and keep_key(unit.name) is None:
            out.append(f"{unit.path}:{unit.first} {unit.name} "
                       f"({unit.lines} lines) is {labels[unit.name]}: delete it "
                       "or give it a keep rule")
    for key, seen in sorted(covered.items()):
        if not seen:
            out.append(f"KEEP names {key}, which no longer exists")
        elif all(label == "real" for label in seen):
            out.append(f"KEEP names {key}, which real callers now reach")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite the census section of docs/architecture.md")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 on an unkept unit or a stale docs section")
    args = ap.parse_args(argv)

    src_root = ROOT / "src"
    units = list_units(src_root)
    real, tests, failed = set(), set(), []
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        (work / "sweep.json").write_text(json.dumps(SWEEP))
        for i, caller in enumerate(callers(ROOT, work)):
            t0 = time.perf_counter()
            status, hits, tail = run_hooked(
                caller.cmd, caller.cwd, src_root, work / "hooks" / str(i))
            (tests if caller.tests else real).update(hits)
            verdict = "ok" if status == 0 else f"exit {status}"
            if status:
                failed.append(caller.name)
                print(tail, file=sys.stderr)
            print(f"{caller.name[:64]:64s} {len(hits):5d} code objects "
                  f"{time.perf_counter() - t0:6.1f} s  {verdict}", flush=True)
    labels = classify(units, real, tests)
    section = render(units, labels)
    print()
    print(section)
    found = problems(units, labels) + [f"caller failed: {n}" for n in failed]
    for problem in found:
        print(f"CENSUS: {problem}")

    text = DOC.read_text()
    head, sep, rest = text.partition(BEGIN)
    old, sep2, tail = rest.partition(END)
    if not (sep and sep2):
        raise SystemExit(f"census markers missing from {DOC}")
    if args.write:
        DOC.write_text(f"{head}{BEGIN}\n{section}{END}{tail}")
    elif args.check and old.strip() != section.strip():
        found.append(f"the census section of {DOC.relative_to(ROOT)} differs "
                     "from this run: re-run with --write")
        print(f"CENSUS: {found[-1]}")
    return 1 if args.check and found else 0


if __name__ == "__main__":
    sys.exit(main())
