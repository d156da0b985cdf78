"""Dirty-page generation processes for functional VM images.

The principle of locality (Section II-B1) makes real working sets
small and skewed; these generators produce page-touch streams with
controllable skew so incremental checkpoints and pre-copy migration see
realistic dirty sets.  :class:`HotColdDirty` sends a hot fraction of
pages most writes (the classic 90/10 working-set model); :func:`drive_vm`
runs it against a functional VM image.
"""

from __future__ import annotations

import numpy as np

from ..cluster.vm import VirtualMachine, VMState
from ..sim import Interrupt, Simulator

__all__ = ["HotColdDirty", "drive_vm"]


class HotColdDirty:
    """``hot_fraction`` of pages receives ``hot_weight`` of the writes."""

    def __init__(self, n_pages: int, hot_fraction: float = 0.1, hot_weight: float = 0.9):
        if n_pages < 1:
            raise ValueError(f"need >= 1 page, got {n_pages}")
        if not (0.0 < hot_fraction < 1.0):
            raise ValueError(f"hot_fraction must be in (0,1), got {hot_fraction}")
        if not (0.0 <= hot_weight <= 1.0):
            raise ValueError(f"hot_weight must be in [0,1], got {hot_weight}")
        self.n_pages = n_pages
        self.hot_pages = max(1, int(n_pages * hot_fraction))
        self.hot_weight = hot_weight

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        hot = rng.random(count) < self.hot_weight
        idx = np.empty(count, dtype=np.int64)
        n_hot = int(hot.sum())
        idx[hot] = rng.integers(0, self.hot_pages, size=n_hot)
        idx[~hot] = rng.integers(self.hot_pages, self.n_pages, size=count - n_hot)
        return idx


def drive_vm(
    sim: Simulator,
    vm: VirtualMachine,
    pattern,
    rng: np.random.Generator,
    touches_per_second: float,
    step: float = 1.0,
):
    """Process: continuously dirty a functional VM's pages.

    Touches accrue only while the VM is RUNNING (a paused/migrating
    guest does not execute).  Runs until interrupted or the VM fails.
    """
    if vm.image is None:
        raise ValueError(f"vm {vm.vm_id} has no functional image to dirty")
    if touches_per_second < 0 or step <= 0:
        raise ValueError("touches_per_second >= 0 and step > 0 required")
    try:
        while True:
            yield sim.timeout(step)
            if vm.state == VMState.FAILED:
                return
            if vm.state != VMState.RUNNING:
                continue
            count = rng.poisson(touches_per_second * step)
            if count:
                vm.image.touch_pages(pattern.sample(rng, count), rng)
    except Interrupt:
        return
