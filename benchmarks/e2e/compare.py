#!/usr/bin/env python3
"""Gate one set of runs against another: ``compare.py BASE.json NEW.json``.

Both files come from ``run.py --all --out``.  For every (end-to-end
metric, workload) row it prints both medians with quartiles and the
ratio NEW/BASE, and applies the row's bound to the medians:

* ``regression`` — NEW's median is worse than BASE's by more than the
  bound (for ``failed_op_share``, any rise);
* ``unresolved`` — no regression on the medians, but either side's
  quartile spread is wider than the bound, so "unchanged" cannot be
  claimed — unless every NEW run reads better than every BASE run.
  ``setup_s`` is judged on its medians alone, as the driver does: most of
  it is one import per process, the noisiest second of a run;
* ``ok`` otherwise.

Simulated (``sim_*``) rows carry a 1e-9 bound: they repeat exactly.
Exact counts and digests must be identical between the sets — a
simulator-speed change may not move them.  Exit status 1 on any
regression, unresolved row or count/digest difference.
"""

from __future__ import annotations

import json
import sys


def spread(row: dict) -> float:
    """Quartile distance as a share of the median."""
    return abs(row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return float("inf") if new > 0 and better == "lower" else 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(name: str, base: dict, new: dict) -> str:
    bound, better = base["bound"], base["better"]
    if worsening(base["median"], new["median"], better) > bound:
        return "regression"
    if name != "setup_s" and max(spread(base), spread(new)) > bound:
        if better == "lower":
            clear = max(new["values"]) < min(base["values"])
        else:
            clear = min(new["values"]) > max(base["values"])
        if not clear:
            return "unresolved"
    return "ok"


def compare(base: dict, new: dict, out=sys.stdout) -> int:
    """Print the table; return the number of rows that are not ``ok``."""
    bad = 0
    for workload, base_w in base["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            print(f"{workload}: missing from the second set", file=out)
            bad += 1
            continue
        print(f"== {workload}", file=out)
        for name, b in base_w["rows"].items():
            n = new_w["rows"].get(name)
            if n is None:
                print(f"{name:28s} missing from the second set", file=out)
                bad += 1
            elif b["kind"] == "end_to_end":
                verdict = judge(name, b, n)
                bad += verdict != "ok"
                ratio = n["median"] / b["median"] if b["median"] else float("nan")
                print(
                    f"{name:18s} {b['unit']:6s} "
                    f"{b['median']:12.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}  ->  "
                    f"{n['median']:12.6g} [{n['q1']:.6g}, {n['q3']:.6g}] n={n['n']}  "
                    f"x{ratio:.4f} of {b['median']:.6g}  bound {b['bound']:g}  {verdict}",
                    file=out,
                )
            elif b["unit"] == "count" and b["median"] != n["median"]:
                print(f"{name:28s} count moved: {b['median']:g} -> {n['median']:g}",
                      file=out)
                bad += 1
        if base_w["digests"] != new_w["digests"]:
            moved = sorted(k for k in base_w["digests"]
                           if base_w["digests"][k] != new_w["digests"].get(k))
            print(f"digests differ: {moved}", file=out)
            bad += 1
        for problem in new_w["problems"]:
            print(f"WRONG in the second set: {problem}", file=out)
            bad += 1
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path) as fh:
            sets.append(json.load(fh))
    if sets[0]["seed"] != sets[1]["seed"]:
        print("note: the sets used different seeds; counts and digests will differ")
    bad = compare(*sets)
    print(f"{bad} row(s) not ok" if bad else "all rows ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
