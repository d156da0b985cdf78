"""Executable safety invariants for the diskless checkpoint protocol.

The paper's correctness claim (Sections IV & VI) is that after any
single node failure the lost VMs are rebuilt *bit-exactly* from
survivors + parity.  That claim decomposes into a handful of state
invariants that must hold whenever the cluster is quiescent (no failure
mid-flight, recovery drained):

* **parity coherence** — every group's stored parity block equals the
  padded XOR of its members' committed checkpoint payloads;
* **layout validity** — members of a group live on pairwise distinct
  nodes and the parity node hosts none of them (Fig. 2's orthogonality
  rules; may be *degraded* while a crashed node awaits repair);
* **epoch coherence** — every committed artifact (member image, parity
  block, VM epoch marker) agrees on ``committed_epoch``;
* **two-phase atomicity** — no artifact from an uncommitted epoch is
  observable (staged state never leaks past an abort);
* **single-failure recoverability** — the constructive form of parity
  coherence: actually reconstruct each member from the others + parity
  and compare bit-for-bit (once per group shape, behind a syndrome
  check on every group).

Checkers never raise on bad state; they return :class:`Violation`
records so the fuzzer can aggregate and shrink.  States that are
legitimately unauditable (a dead node, a failed VM awaiting rebuild)
yield *degraded* findings, which only count as violations under
``strict`` auditing — the mode used at quiescent points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from ..coding import get_scheme, shard_key, shard_name
from ..core.placement import validate_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import VirtualCluster
    from ..core.groups import GroupLayout

__all__ = [
    "Violation",
    "AuditReport",
    "audit_cluster",
    "check_parity_coherence",
    "check_layout_validity",
    "check_epoch_coherence",
    "check_two_phase_atomicity",
    "check_single_failure_recoverable",
]

FATAL = "fatal"
DEGRADED = "degraded"


@dataclass(frozen=True)
class Violation:
    """One invariant breach (or degraded observation).

    ``severity`` is ``"fatal"`` for genuine protocol bugs (wrong bytes,
    mixed epochs) and ``"degraded"`` for states that are expected while
    a failure is being absorbed (dead parity node, VM awaiting rebuild).
    """

    invariant: str
    severity: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.invariant}: {self.subject} — {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one full invariant sweep."""

    checked_at: float
    committed_epoch: int
    context: str = ""
    strict: bool = False
    violations: list[Violation] = field(default_factory=list)

    @property
    def fatal(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == FATAL]

    @property
    def ok(self) -> bool:
        """No fatal findings (degraded states are tolerated unless the
        sweep ran strict, in which case they were already promoted)."""
        return not self.fatal


def _severity(strict: bool) -> str:
    return FATAL if strict else DEGRADED


def _gather(cluster: "VirtualCluster", g) -> tuple[list[str], tuple | None]:
    """One group's audit inputs, as ``(why, inputs)``.

    ``why`` names, in order, each shard that is missing (its home is
    down, or holds no block) and then the first member that has failed
    or has no committed checkpoint.  ``inputs`` is ``(payloads, shards)``
    — the members' committed payloads and each present shard as
    ``(j, bytes)`` — or None when there is nothing to compare: a member
    is unauditable, no shard is present, or the run is timing-only (no
    payload bytes).
    """
    why: list[str] = []
    blocks: list[tuple[int, object]] = []
    for j, pnode_id in enumerate(g.parity_nodes):
        pnode = cluster.node(pnode_id)
        if not pnode.alive:
            why.append(f"{shard_name(j)} node {pnode_id} is down")
            continue
        block = pnode.parity_store.get(shard_key(g.group_id, j))
        if block is None:
            why.append(f"no {shard_name(j)} block on node {pnode_id}")
            continue
        blocks.append((j, block))
    payloads = []
    for v in g.member_vm_ids:
        vm = cluster.vm(v)
        if vm.node_id is None:
            why.append(f"member vm {v} failed — group unauditable")
            return why, None
        img = cluster.hypervisor(vm.node_id).committed(v)
        if img is None:
            why.append(f"member vm {v} has no committed checkpoint")
            return why, None
        payloads.append(img.payload_flat() if img.payload is not None else None)
    if not blocks or any(p is None for p in payloads) or any(
        b.data is None for _, b in blocks
    ):
        return why, None
    return why, (payloads, [(j, b.data) for j, b in blocks])


def _syndrome(coding, payloads, shards) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(j, stored, encoded)`` for every stored shard that is not the
    scheme's ``encode`` of the members: empty when the syndrome is clean."""
    expect = coding.encode(payloads)
    return [
        (j, got, expect[j]) for j, got in shards
        if got.shape[0] != expect[j].shape[0] or not np.array_equal(got, expect[j])
    ]


def check_parity_coherence(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
) -> list[Violation]:
    """Every stored shard equals the corresponding row of the active
    scheme's ``encode`` over the members' committed payloads (the padded
    XOR for the default :class:`~repro.coding.XorScheme`)."""
    coding = get_scheme(scheme)
    out: list[Violation] = []
    for g in layout.groups:
        subject = f"group {g.group_id}"
        why, inputs = _gather(cluster, g)
        out.extend(
            Violation("parity-coherence", _severity(strict), subject, reason)
            for reason in why
        )
        if inputs is None:
            continue
        for j, got, want in _syndrome(coding, *inputs):
            if got.shape[0] != want.shape[0]:
                detail = (
                    f"{shard_name(j)} length {got.shape[0]} != encoded "
                    f"length {want.shape[0]}"
                )
            else:
                nbad = int(np.count_nonzero(got != want))
                detail = (
                    f"{shard_name(j)} differs from {coding.name} encode "
                    f"in {nbad} byte(s)"
                )
            out.append(Violation("parity-coherence", FATAL, subject, detail))
    return out


#: cap on exhaustive erasure-pattern enumeration per group (deterministic
#: prefix is kept when a very wide group x tolerance combination overflows)
_MAX_ERASURE_PATTERNS = 1024


def check_layout_validity(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
    domains=None,
) -> list[Violation]:
    """Orthogonality + parity independence (Fig. 2).

    Degraded placements are legal transients: with a node down, the only
    restore target may be the group's parity node
    (:func:`repro.core.recovery.choose_restore_node` falls back on
    purpose).  ``heal()`` repairs them once nodes return — so these are
    fatal only under ``strict`` (quiescent cluster, everything repaired).

    With ``domains`` set, orthogonality is judged per failure domain
    (geo-spread: no two elements of a group in one rack/site), not per
    node.
    """
    report = validate_layout(
        layout, cluster, tolerance=get_scheme(scheme).tolerance, domains=domains
    )
    return [
        Violation("layout-validity", _severity(strict), "layout", err)
        for err in report.errors
    ]


def check_epoch_coherence(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
) -> list[Violation]:
    """Every committed artifact agrees on ``committed_epoch``."""
    out: list[Violation] = []
    if committed_epoch < 0:
        return out  # nothing committed yet: trivially coherent
    for g in layout.groups:
        for j, pnode_id in enumerate(g.parity_nodes):
            pnode = cluster.node(pnode_id)
            if not pnode.alive:
                continue
            block = pnode.parity_store.get(shard_key(g.group_id, j))
            if block is not None and block.epoch != committed_epoch:
                out.append(Violation(
                    "epoch-coherence", FATAL, f"group {g.group_id}",
                    f"{shard_name(j)} epoch {block.epoch} != committed "
                    f"{committed_epoch}",
                ))
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            if vm.node_id is None:
                out.append(Violation(
                    "epoch-coherence", _severity(strict), f"vm {v}",
                    "failed — epoch unauditable",
                ))
                continue
            img = cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                out.append(Violation(
                    "epoch-coherence", _severity(strict), f"vm {v}",
                    "no committed checkpoint",
                ))
            elif img.epoch != committed_epoch:
                out.append(Violation(
                    "epoch-coherence", FATAL, f"vm {v}",
                    f"committed image epoch {img.epoch} != {committed_epoch}",
                ))
    return out


def check_two_phase_atomicity(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
) -> list[Violation]:
    """No artifact from an uncommitted (future) epoch is observable.

    An aborted cycle must leave *zero* trace: staged parity and staged
    member images for epoch ``e > committed_epoch`` leaking into node
    stores would mean the two-phase commit is not atomic.
    """
    out: list[Violation] = []
    for node in cluster.nodes:
        if not node.alive:
            continue
        for gid, block in node.parity_store.items():
            if block.epoch > committed_epoch:
                out.append(Violation(
                    "two-phase-atomicity", FATAL, f"group {gid}",
                    f"parity from uncommitted epoch {block.epoch} on node "
                    f"{node.node_id} (committed {committed_epoch})",
                ))
        for vm_id, img in node.checkpoint_store.items():
            if img.epoch > committed_epoch:
                out.append(Violation(
                    "two-phase-atomicity", FATAL, f"vm {vm_id}",
                    f"image from uncommitted epoch {img.epoch} on node "
                    f"{node.node_id} (committed {committed_epoch})",
                ))
    for vm in cluster.all_vms:
        if vm.epoch > committed_epoch:
            out.append(Violation(
                "two-phase-atomicity", FATAL, f"vm {vm.vm_id}",
                f"vm epoch marker {vm.epoch} ahead of committed "
                f"{committed_epoch}",
            ))
    return out


def check_single_failure_recoverable(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
) -> list[Violation]:
    """Constructive recoverability for every erasure pattern of size
    <= the scheme's tolerance touching at least one member: decode (the
    actual recovery computation) and compare the rebuilt members
    bit-exactly against their committed payloads.  Under a tolerance-1
    scheme that is each single member loss, reported under the
    invariant's historical name.

    Every group gets a syndrome check (its stored shards against the
    members' encode); the full decode runs once per group shape
    ``(k, member lengths, shard lengths)`` per call, and again for any
    group whose syndrome fails.  Skipping a clean shape-mate is safe
    because every scheme's ``reconstruct`` is a linear map of the
    survivors fixed by the shape: with a clean syndrome the shards are
    the encode of the members, so a decode that was bit-exact on one
    group's bytes is bit-exact on every clean group of its shape.  A
    shape counts as verified only when its syndrome was clean and its
    decode found nothing, and nothing is remembered between calls."""
    coding = get_scheme(scheme)
    out: list[Violation] = []
    verified: set[tuple] = set()
    for g in layout.groups:
        why, inputs = _gather(cluster, g)
        if why or inputs is None:
            continue  # unauditable or incomplete: parity-coherence flags it
        payloads, shards = inputs
        shape = (
            len(payloads),
            tuple(p.shape[0] for p in payloads),
            tuple(s.shape[0] for _, s in shards),
        )
        clean = not _syndrome(coding, payloads, shards)
        if clean and shape in verified:
            continue
        findings = _decode_every_pattern(
            coding, g, payloads, [s for _, s in shards]
        )
        if clean and not findings:
            verified.add(shape)
        out.extend(findings)
    return out


def _decode_every_pattern(coding, g, member_list, shards) -> list[Violation]:
    """Decode each erasure pattern of one group and compare every rebuilt
    member with its committed payload."""
    out: list[Violation] = []
    t, m = coding.tolerance, coding.n_shards
    name = "single-failure-recoverable" if t == 1 else "erasure-recoverable"
    k = len(member_list)
    length = max(p.shape[0] for p in member_list)
    patterns = [
        combo
        for r in range(1, t + 1)
        for combo in combinations(range(k + m), r)
        if any(slot < k for slot in combo)
    ]
    patterns = patterns[:_MAX_ERASURE_PATTERNS]
    for combo in patterns:
        mem = [None if i in combo else member_list[i] for i in range(k)]
        shd = [None if (k + j) in combo else shards[j] for j in range(m)]
        try:
            rebuilt = coding.reconstruct(mem, shd, nbytes=length)
        except Exception as exc:
            out.append(Violation(
                name, FATAL, f"group {g.group_id}",
                f"pattern {combo} within tolerance {t} failed to "
                f"decode: {exc}",
            ))
            continue
        for i in combo:
            if i >= k:
                continue
            want = member_list[i]
            got = rebuilt[i][: want.shape[0]]
            if got.shape[0] != want.shape[0]:
                out.append(Violation(
                    name, FATAL, f"vm {g.member_vm_ids[i]}",
                    f"pattern {combo}: rebuilt image is {got.shape[0]} "
                    f"bytes, committed {want.shape[0]}",
                ))
            elif not np.array_equal(got, want):
                nbad = int(np.count_nonzero(got != want))
                out.append(Violation(
                    name, FATAL,
                    f"vm {g.member_vm_ids[i]}",
                    f"pattern {combo}: rebuilt image differs from "
                    f"committed in {nbad} byte(s)",
                ))
    return out


def audit_cluster(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
    context: str = "",
    scheme=None,
    domains=None,
) -> AuditReport:
    """Run every invariant checker and aggregate the findings.

    ``strict=True`` promotes degraded observations (dead nodes, failed
    VMs, co-located placements) to fatal — use it only at quiescent
    points where the cluster is expected to be fully healthy.
    """
    report = AuditReport(
        checked_at=cluster.sim.now,
        committed_epoch=committed_epoch,
        context=context,
        strict=strict,
    )
    if committed_epoch < 0:
        return report  # nothing committed yet: nothing to audit
    report.violations.extend(
        check_parity_coherence(cluster, layout, strict, scheme=scheme)
    )
    report.violations.extend(
        check_layout_validity(cluster, layout, strict, scheme=scheme, domains=domains)
    )
    report.violations.extend(
        check_epoch_coherence(cluster, layout, committed_epoch, strict)
    )
    report.violations.extend(
        check_two_phase_atomicity(cluster, layout, committed_epoch, strict)
    )
    report.violations.extend(
        check_single_failure_recoverable(cluster, layout, strict, scheme=scheme)
    )
    return report
