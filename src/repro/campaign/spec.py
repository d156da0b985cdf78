"""Declarative campaign specs: parameter sweeps expanded into tasks.

A :class:`Sweep` names a registered task kind, a dict of fixed ``base``
parameters, and a ``grid`` of axes to cross.  :meth:`Sweep.expand`
produces the cartesian product as independent :class:`Task` units, each
with its own deterministically derived master seed.  Seeds are derived
from the *parameter values*, not from enumeration order, so reordering
grid axes or adding points never perturbs existing tasks — the same
discipline :mod:`repro.sim.rng` applies to named streams.

Every task has a content-addressed :attr:`Task.key` — a BLAKE2 hash of
its kind, canonical-JSON parameters, seed, and the kind's code version
tag.  The key is what the :class:`~repro.campaign.store.ResultStore`
indexes by, which is what makes campaigns resumable: identical config +
identical code version ⇒ cache hit; any drift ⇒ recompute.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..sim.rng import derive_seed

__all__ = ["Task", "Sweep", "canonical_json", "task_key"]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def task_key(kind: str, params: dict, seed: int | None, version: str) -> str:
    """Content hash identifying one task's inputs and code version."""
    h = hashlib.blake2b(digest_size=16)
    h.update(canonical_json(
        {"kind": kind, "params": params, "seed": seed, "version": version}
    ).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class Task:
    """One independent unit of campaign work.

    ``params`` must be JSON-able (they are hashed canonically and cross
    process boundaries).  ``seed`` is the task's private master seed —
    ``None`` for purely deterministic kinds.  ``version`` is the task
    kind's code version tag; bumping it in the registry invalidates
    cached results for that kind only.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    version: str = "1"

    @property
    def key(self) -> str:
        return task_key(self.kind, self.params, self.seed, self.version)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Task":
        return cls(
            kind=d["kind"],
            params=dict(d.get("params") or {}),
            seed=d.get("seed"),
            version=str(d.get("version", "1")),
        )


@dataclass(frozen=True)
class Sweep:
    """A named parameter sweep over one task kind.

    ``grid`` maps axis name → list of JSON-able values; axes are crossed
    in sorted-axis-name order with each axis's values in given order.
    ``replications`` repeats every grid point with a distinct
    ``replication`` parameter (and hence a distinct seed) — the
    Monte-Carlo axis.  ``seeded=False`` marks a purely deterministic
    kind: tasks carry ``seed=None`` instead of a derived master seed.
    """

    name: str
    kind: str
    base: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    replications: int = 1
    master_seed: int = 0
    seeded: bool = True

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        overlap = set(self.base) & set(self.grid)
        if overlap:
            raise ValueError(f"axes shadow base params: {sorted(overlap)}")

    def points(self) -> Iterator[dict]:
        """The grid's cartesian product (axis values only, no base)."""
        if not self.grid:
            yield {}
            return
        axes = sorted(self.grid)
        for values in itertools.product(*(self.grid[a] for a in axes)):
            yield dict(zip(axes, values))

    def seed_for(self, point: dict, replication: int) -> int:
        """Task seed from the point's *values* — order-insensitive."""
        return derive_seed(
            self.master_seed,
            f"{self.name}/{canonical_json(point)}/rep{replication}",
        )

    def expand(self, version: str | None = None) -> list[Task]:
        """All task units of this sweep, in deterministic order.

        ``version`` defaults to the registered version of ``kind``
        (looked up lazily to keep this module registry-free).
        """
        if version is None:
            from .tasks import get_kind

            version = get_kind(self.kind).version
        tasks = []
        for point in self.points():
            for rep in range(self.replications):
                params = {**self.base, **point}
                if self.replications > 1:
                    params["replication"] = rep
                tasks.append(Task(
                    kind=self.kind,
                    params=params,
                    seed=self.seed_for(point, rep) if self.seeded else None,
                    version=version,
                ))
        return tasks

    @classmethod
    def from_dict(cls, d: dict) -> "Sweep":
        return cls(
            name=d["name"],
            kind=d["kind"],
            base=dict(d.get("base") or {}),
            grid=dict(d.get("grid") or {}),
            replications=int(d.get("replications", 1)),
            master_seed=int(d.get("master_seed", 0)),
            seeded=bool(d.get("seeded", True)),
        )
