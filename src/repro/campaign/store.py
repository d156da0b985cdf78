"""Content-addressed on-disk result cache — what makes campaigns resumable.

Layout: one directory per store holding ``results.jsonl``, an append-only
JSON-lines file.  Each line is a completed task record::

    {"key": "<task content hash>", "task": {...}, "value": {...},
     "elapsed": 0.0123}

The key is :func:`repro.campaign.spec.task_key` — a hash of the task's
kind, params, seed, and code-version tag — so a record is valid exactly
as long as its inputs and the producing code are unchanged.  Failed
tasks are never written; re-running a half-finished sweep therefore
executes only the missing (or previously failed) tasks.

Appending is atomic enough for our writer model: only the coordinating
process writes (workers return values to it), so no locking is needed.
Duplicate keys can appear if two campaigns race on one store; the last
line wins on load, which is harmless because equal keys imply equal
inputs.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .spec import Task

__all__ = ["ResultStore"]


class ResultStore:
    """Append-only JSONL store indexed by task content hash.

    ``hits``/``misses`` count :meth:`get` outcomes since open — tests
    and the resume report use them to prove cached tasks were skipped.

    A crash mid-append can leave a truncated final line (or any write
    race, a corrupt interior one).  Loading skips such lines with a
    warning instead of failing — losing one cached record costs a single
    re-execution, while refusing to open the store would brick resume
    for the whole campaign.  When damage is found the file is compacted
    in place to only the valid records, so later appends start from a
    clean line boundary rather than gluing onto a partial record.
    """

    FILENAME = "results.jsonl"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        self.hits = 0
        self.misses = 0
        self.skipped_lines = 0
        self._index: dict[str, dict] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        dirty = bool(text) and not text.endswith("\n")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                rec = json.loads(stripped)
                key = rec["key"]
            except (ValueError, TypeError, KeyError):
                self.skipped_lines += 1
                dirty = True
                warnings.warn(
                    f"{self.path}:{lineno}: skipping corrupt record "
                    "(truncated append?)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            if key in self._index:
                # superseded duplicate (two campaigns racing on one
                # store): last line wins, and compaction must not keep
                # the stale ancestor around forever
                dirty = True
            self._index[key] = rec
        if dirty:
            # one line per key, last occurrence winning — rewritten from
            # the index so the compacted file matches what get() serves
            tmp = self.path.with_suffix(".jsonl.tmp")
            tmp.write_text(
                "".join(
                    json.dumps(rec, sort_keys=True) + "\n"
                    for rec in self._index.values()
                ),
                encoding="utf-8",
            )
            tmp.replace(self.path)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, counting hit or miss."""
        rec = self._index.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, task: Task, value: dict, elapsed: float = 0.0) -> dict:
        """Persist one completed task; returns the stored record.

        ``value`` is a JSON value (the runner has already checked), so a
        later :meth:`get` serves back exactly what was put.
        """
        rec = {
            "key": task.key,
            "task": task.to_dict(),
            "value": value,
            "elapsed": float(elapsed),
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._index[rec["key"]] = rec
        return rec
