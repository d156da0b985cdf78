"""Shared network-attached storage.

The NAS is the disk-full baseline's checkpoint sink: every VM's image
crosses the NAS ingress link (serialized — see
:mod:`repro.network.topology`) and then is written to the NAS disk
array.  The NAS also keeps a *catalog* of stored checkpoint objects so
restores are functional, not just timed: the diskful baseline restore
path reads the object back and hands the caller the stored payload.

Payloads are optional.  In timing-only experiments callers store sizes;
in functional tests they store real ``bytes``/arrays and get them back
bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry import probe_of
from .disk import Disk, DiskSpec

__all__ = ["StoredObject", "NAS", "StorageError"]


class StorageError(RuntimeError):
    """Catalog misuse: missing object, duplicate version, etc."""


@dataclass
class StoredObject:
    """One checkpoint object in the NAS catalog."""

    key: str
    version: int
    size: float
    stored_at: float
    payload: Any = None


class NAS:
    """Shared checkpoint store = disk array + object catalog.

    The *network* half of a NAS transfer lives in the topology (flows to
    ``nas.rx``); this class charges the *disk* half and maintains the
    catalog.  Keeping them separate lets the baseline pipeline overlap
    network and disk stages exactly as a real streaming copy would.
    """

    def __init__(
        self,
        sim: Simulator,
        disk_spec: DiskSpec | None = None,
        capacity_bytes: float | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.disk = Disk(sim, disk_spec, name="nas.disk", tracer=tracer)
        self.capacity_bytes = capacity_bytes
        self.tracer = tracer
        self._probe = probe_of(tracer)
        self._catalog: dict[str, StoredObject] = {}
        self.bytes_stored = 0.0

    def _sync_gauges(self) -> None:
        self._probe.gauge_set(
            "repro_nas_objects", len(self._catalog),
            help="Objects in the NAS catalog",
        )
        self._probe.gauge_set(
            "repro_nas_stored_bytes", self.bytes_stored,
            help="Resident bytes in the NAS catalog",
        )

    # ------------------------------------------------------------------
    # timed operations (process generators)
    # ------------------------------------------------------------------
    def store(self, key: str, size: float, payload: Any = None,
              stored_size: float | None = None):
        """Process: write ``size`` bytes to the array, then commit to
        the catalog.  Returns the :class:`StoredObject`.

        ``stored_size`` is the resident size of the resulting object
        when it differs from the bytes written — e.g. an incremental
        delta consolidated server-side into a full image (the disk pays
        for the delta, the catalog holds the full image).

        Versions are monotonic per key; storing over an existing key
        replaces it (checkpoint k supersedes k-1) but keeps the version
        counter advancing so stale readers can detect replacement.
        """
        resident = size if stored_size is None else stored_size
        if self.capacity_bytes is not None:
            projected = self.bytes_stored + resident
            if key in self._catalog:
                projected -= self._catalog[key].size
            if projected > self.capacity_bytes:
                raise StorageError(
                    f"NAS full: {projected:.3g} > capacity {self.capacity_bytes:.3g}"
                )
        yield from self.disk.write(size)
        return self.commit(key, resident, payload)

    def fetch(self, key: str):
        """Process: read the object back from the array; returns it."""
        obj = self.lookup(key)
        yield from self.disk.read(obj.size)
        self.tracer.emit(self.sim.now, "nas.fetch", key=key, size=obj.size)
        self._probe.count("repro_nas_ops_total", help="NAS catalog operations",
                          op="fetch")
        self._probe.count("repro_nas_bytes_total", obj.size,
                          help="NAS bytes moved, by operation", op="fetch")
        return obj

    # ------------------------------------------------------------------
    # instantaneous catalog operations
    # ------------------------------------------------------------------
    def commit(self, key: str, size: float, payload: Any = None) -> StoredObject:
        """Catalog-only commit (when the disk time was charged elsewhere)."""
        prev = self._catalog.get(key)
        version = prev.version + 1 if prev else 0
        if prev:
            self.bytes_stored -= prev.size
        obj = StoredObject(key, version, float(size), self.sim.now, payload)
        self._catalog[key] = obj
        self.bytes_stored += size
        self.tracer.emit(self.sim.now, "nas.store", key=key, size=size, version=version)
        self._probe.count("repro_nas_ops_total", help="NAS catalog operations",
                          op="store")
        self._probe.count("repro_nas_bytes_total", size,
                          help="NAS bytes moved, by operation", op="store")
        self._sync_gauges()
        return obj

    def lookup(self, key: str) -> StoredObject:
        try:
            return self._catalog[key]
        except KeyError:
            raise StorageError(f"no object {key!r} in NAS catalog") from None

    def contains(self, key: str) -> bool:
        return key in self._catalog

    def delete(self, key: str) -> None:
        obj = self.lookup(key)
        del self._catalog[key]
        self.bytes_stored -= obj.size
        self._probe.count("repro_nas_ops_total", help="NAS catalog operations",
                          op="delete")
        self._sync_gauges()

    def __len__(self) -> int:
        return len(self._catalog)
