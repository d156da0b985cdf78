"""Pluggable erasure-coding schemes for checkpoint parity groups.

:class:`CodingScheme` abstracts what the paper hard-codes: *one* XOR
parity shard per RAID group.  A scheme maps the ``k`` member images of
a group to ``m = n_shards`` parity shards placed on ``m`` distinct
non-member nodes, and can rebuild any erasure pattern of at most :attr:`~CodingScheme.tolerance` lost elements (members and
shards alike).

Four schemes ship:

========== ========= ========== ================= =================
name       shards m  tolerance  storage overhead  exchange traffic
========== ========= ========== ================= =================
``xor``    1         1          1/k               1x
``rdp``    2         2          ~2/k              2x
``rs-k-m`` m         m          m/k               m×
``rep-n``  n−1       n−1        (n−1)·k/k         (n−1)×
========== ========= ========== ================= =================

The checkpointer hands a scheme one whole epoch at a time:
:meth:`CodingScheme.encode_many` for full images, and — for schemes
that set ``folds_deltas``, XOR and Reed–Solomon —
:meth:`CodingScheme.fold_many` to update the previous shards from the
dirty pages alone (both codes are linear, so
``shards′ = shards ⊕ C·Δ``).  ``encode_many`` defaults
to a loop over ``encode`` and folding is opt-in; :class:`XorScheme`
overrides both with the stacked :mod:`repro.cluster.xorsum` kernels,
:class:`ReedSolomonScheme` folds through the GF(256) kernel, and RDP
and replication have their incremental members materialized and
re-encoded whole.

Buffers may have heterogeneous lengths; ``encode`` zero-pads to the
longest member (the padded-XOR convention the stack already uses) and
``reconstruct`` returns members at the scheme's working length, which
the caller trims to each member's own logical size.

Register additional schemes with :func:`register_scheme`; resolve specs
like ``"rs-8-2"`` with :func:`get_scheme`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..cluster.memory import PageDelta
from ..cluster.xorsum import (
    as_u8,
    reconstruct_missing_padded,
    xor_fold_groups,
    xor_reduce_groups,
    xor_reduce_padded,
)
from .gf256 import cauchy_matrix, gf_matinv, gf_matvec, gf_pair_tables
from .parity import ParityCodeError, RDPCode

__all__ = [
    "CodingScheme",
    "XorScheme",
    "RDPScheme",
    "ReedSolomonScheme",
    "ReplicationScheme",
    "get_scheme",
    "parse_scheme",
    "register_scheme",
    "available_schemes",
    "shard_key",
    "shard_name",
    "shard_suffix",
]

#: Upper bound on shards-per-group baked into the shard_key packing.
MAX_SHARDS = 16


def shard_key(group_id: int, shard_index: int) -> int:
    """Parity-store key for shard ``shard_index`` of group ``group_id``.

    Shard 0 keeps the plain group id — the key the paper's single-parity
    block always had, so XOR is simply the ``m = 1`` case.  Higher
    shards use negative keys (the convention the first RDP checkpointer
    introduced for its diagonal shard) packed so keys are unique across
    ``(group, shard)`` pairs.
    """
    if not 0 <= shard_index < MAX_SHARDS:
        raise ValueError(f"shard index {shard_index} out of range")
    if shard_index == 0:
        return group_id
    return -(group_id * MAX_SHARDS + shard_index)


def shard_suffix(shard_index: int) -> str:
    """Flow-label suffix for a shard: empty for shard 0 (the historical
    single-parity labels), ``.s<j>`` for shards ``j >= 1``."""
    return f".s{shard_index}" if shard_index else ""


def shard_name(shard_index: int) -> str:
    """Name of a shard in scrub/audit/health messages: ``parity`` for
    shard 0 (again the single-parity name), ``shard<j>`` for ``j >= 1``."""
    return f"shard{shard_index}" if shard_index else "parity"


def _pad_members(
    members: Sequence[np.ndarray | bytes], length: int | None = None
) -> tuple[list[np.ndarray], int]:
    """Zero-pad members to a common working length (the longest, or
    ``length`` when the caller pins it)."""
    bufs = [as_u8(m) for m in members]
    if not bufs:
        raise ParityCodeError("empty member list")
    n = max(b.shape[0] for b in bufs)
    if length is not None:
        if length < n:
            raise ParityCodeError(f"coding length {length} < longest member {n}")
        n = length
    out = []
    for b in bufs:
        if b.shape[0] == n:
            out.append(b)
        else:
            p = np.zeros(n, dtype=np.uint8)
            p[: b.shape[0]] = b
            out.append(p)
    return out, n


class CodingScheme:
    """Interface every coding scheme implements.

    Attributes
    ----------
    name:
        Registry spelling (``"xor"``, ``"rdp"``, ``"rs-8-2"``, ``"rep-3"``).
    n_shards:
        ``m`` — parity shards per group, each on a distinct non-member
        node.
    tolerance:
        Maximum simultaneous erasures (members + shards) the scheme
        repairs.
    folds_deltas:
        True when :meth:`fold_many` updates the previous shards from the
        dirty pages alone (XOR and Reed–Solomon).  The checkpointer then
        verifies the previous shards before folding — rotten shards are
        refused, not folded into — and checks :meth:`fold_mismatch`;
        otherwise it materializes every member (committed base + dirty
        pages) and re-encodes whole through :meth:`encode_many`.
    folded_member_checksums:
        Whether blocks produced by :meth:`fold_many` record the members'
        commit fingerprints in ``member_checksums``, as encoded blocks
        always do.  XOR's folded blocks record none: the golden digests
        pin that.
    """

    name: str = "abstract"
    n_shards: int = 0
    tolerance: int = 0
    folds_deltas: bool = False
    folded_member_checksums: bool = True

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        """Members (any lengths, zero-pad semantics) → ``m`` shards."""
        raise NotImplementedError

    def encode_many(
        self, groups: Sequence[Sequence[np.ndarray]]
    ) -> list[list[np.ndarray]]:
        """Encode every group of one checkpoint epoch in a single call.

        Returns ``encode(members)`` per group, in order.  Override to
        batch across groups; results must stay bit-identical.
        """
        return [self.encode(members) for members in groups]

    def fold_many(
        self,
        prev_shards: Sequence[Sequence[np.ndarray]],
        updates: Sequence[Sequence[tuple[np.ndarray, PageDelta] | None]],
    ) -> list[list[np.ndarray]]:
        """Shards of an incremental epoch from the previous shards.

        ``updates[g][i]`` is member ``i`` of group ``g`` — its position
        in the group, the column the encode gave it — as its committed
        full image and the :class:`~repro.cluster.memory.PageDelta` of
        pages dirtied since, or ``None`` for a member left unchanged;
        ``prev_shards[g]`` the group's current shard bytes.  Returns
        fresh shards (inputs are not mutated, and no reference to them
        is kept).  Only called when :attr:`folds_deltas` is set.
        """
        raise NotImplementedError

    def fold_checksum(
        self, prev: int | None, member_deltas: Sequence[tuple[int, int] | None]
    ) -> int | None:
        """Checksum of a shard :meth:`fold_many` produced, from the
        previous shard's ``prev`` and each folded member's ``(old, new)``
        commit checksums (None where unknown) — or None when the shard's
        bytes must be hashed instead, which is the default."""
        return None

    def fold_mismatch(self, member_nbytes: int, shard_nbytes: int) -> str | None:
        """Why :meth:`fold_many` cannot fold a ``member_nbytes`` image into
        ``shard_nbytes`` shards, or None when it can.  Shards are
        zero-padded to the longest member, so any member that fits in
        them folds."""
        if member_nbytes <= shard_nbytes:
            return None
        return f"a {member_nbytes} B image does not fit {shard_nbytes} B shards"

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        """Rebuild missing members from survivors + surviving shards.

        ``members`` is the full ``k``-list with ``None`` marking losses;
        ``shards`` likewise (length ``m``).  Rebuilt members come back at
        the scheme's working length — callers trim to each member's own
        logical size.  ``nbytes`` pins the working length when no shard
        survives to infer it from.

        Raises :class:`ParityCodeError` when the erasure pattern exceeds
        :attr:`tolerance`.
        """
        raise NotImplementedError

    def storage_overhead(self, k: int) -> float:
        """Extra bytes stored per group data byte (shards / members)."""
        raise NotImplementedError

    def traffic_factor(self, k: int) -> float:
        """Exchange bytes shipped per checkpoint byte (m-way fan-out)."""
        return float(self.n_shards)

    def working_length(self, shard_length: int, k: int) -> int:
        """Member working (padded) length implied by a shard's length."""
        return shard_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} m={self.n_shards} t={self.tolerance}>"


def _missing_count(
    members: Sequence[np.ndarray | None], shards: Sequence[np.ndarray | None]
) -> tuple[list[int], int]:
    lost_members = [i for i, m in enumerate(members) if m is None]
    lost_shards = sum(1 for s in shards if s is None)
    return lost_members, lost_shards


class XorScheme(CodingScheme):
    """Single-parity XOR (the paper's RAID-4/5 analogue), as a scheme.

    Delegates to the exact :mod:`repro.cluster.xorsum` kernels the
    checkpointer always used, so parity bytes are bit-identical to the
    pre-scheme code path (the golden ``scale64.json`` digests prove it).
    """

    name = "xor"
    n_shards = 1
    tolerance = 1
    folds_deltas = True
    folded_member_checksums = False

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        return [xor_reduce_padded(members)]

    def encode_many(
        self, groups: Sequence[Sequence[np.ndarray]]
    ) -> list[list[np.ndarray]]:
        """Groups are bucketed by ``(member count, length)`` and each
        bucket reduced by one stacked :func:`xor_reduce_groups` call;
        groups with unequal member lengths take the scalar padded
        reduce."""
        out: list[list[np.ndarray]] = [[] for _ in groups]
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, members in enumerate(groups):
            lengths = {m.shape[0] for m in members}
            if len(lengths) == 1:
                buckets.setdefault((len(members), lengths.pop()), []).append(i)
            else:
                out[i] = [xor_reduce_padded(members)]
        for idxs in buckets.values():
            stacked = xor_reduce_groups([groups[i] for i in idxs])
            for row, i in zip(stacked, idxs):
                out[i] = [row]
        return out

    def fold_many(
        self,
        prev_shards: Sequence[Sequence[np.ndarray]],
        updates: Sequence[Sequence[tuple[np.ndarray, PageDelta] | None]],
    ) -> list[list[np.ndarray]]:
        """The RAID-5 small-write update: the old and new bytes of each
        dirty page are folded into a copy of the previous parity, one
        stacked :func:`xor_fold_groups` call per ``(pages, page size)``
        bucket."""
        out: list[list[np.ndarray]] = [[] for _ in updates]
        # (pages, page size) -> group indices, previous parity, members
        buckets: dict[tuple[int, int], tuple[list, list, list]] = {}
        for i, members in enumerate(updates):
            folds = [
                (delta.indices, base, delta.pages)
                for base, delta in filter(None, members)
            ]
            delta = next(filter(None, members))[1]
            key = (delta.n_pages_total, delta.page_size)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = ([], [], [])
            bucket[0].append(i)
            bucket[1].append(prev_shards[i][0])
            bucket[2].append(folds)
        for (n_pages_total, page_size), (idxs, prev, folds) in buckets.items():
            stacked = xor_fold_groups(prev, folds, n_pages_total, page_size)
            for row, i in zip(stacked, idxs):
                out[i] = [row]
        return out

    def fold_checksum(
        self, prev: int | None, member_deltas: Sequence[tuple[int, int] | None]
    ) -> int | None:
        """The folded parity is ``prev ⊕ ⨁ (old ⊕ new)`` over the members,
        all one length, and a length-tagged CRC-32 of equal-length blocks
        is affine over XOR: its checksum is ``prev ⊕ ⨁ (old ⊕ new)`` of
        theirs.  Taken from the members' recorded checksums, not the
        bytes the fold read, so rot folded in from a base stays visible
        to the scrubber."""
        if prev is None or any(d is None or None in d for d in member_deltas):
            return None
        for old, new in member_deltas:
            prev ^= old ^ new
        return prev

    def fold_mismatch(self, member_nbytes: int, shard_nbytes: int) -> str | None:
        """:func:`xor_fold_groups` folds pages of a parity block exactly
        one member long, so every member must span the whole shard."""
        if member_nbytes == shard_nbytes:
            return None
        return (
            "incremental epochs require homogeneous image sizes within a "
            "group; use full/forked capture for heterogeneous groups"
        )

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        lost, lost_shards = _missing_count(members, shards)
        if len(lost) + lost_shards > self.tolerance:
            raise ParityCodeError(
                f"xor tolerates 1 erasure, {len(lost) + lost_shards} lost"
            )
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        parity = shards[0]
        if parity is None:
            raise ParityCodeError("cannot rebuild a member without the parity shard")
        parity = as_u8(parity)
        survivors = [as_u8(m) for m in members if m is not None]
        rebuilt = reconstruct_missing_padded(survivors, parity, parity.shape[0])
        return [
            rebuilt if i == lost[0] else as_u8(m).copy()
            for i, m in enumerate(members)
        ]

    def storage_overhead(self, k: int) -> float:
        return 1.0 / k


class RDPScheme(CodingScheme):
    """Row-Diagonal Parity re-expressed on the scheme interface.

    Wraps :class:`repro.coding.parity.RDPCode` (one cached codec per
    member count), so shard bytes are identical to the standalone
    double-parity checkpointer's.
    """

    name = "rdp"
    n_shards = 2
    tolerance = 2

    def __init__(self) -> None:
        self._codes: dict[int, RDPCode] = {}

    def _code(self, k: int) -> RDPCode:
        code = self._codes.get(k)
        if code is None:
            code = self._codes[k] = RDPCode(k)
        return code

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, _ = _pad_members(members)
        return self._code(len(padded)).encode(padded)

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        code = self._code(len(members))
        length = nbytes
        for s in shards:
            if s is not None:
                # Stripe length: members padded to it satisfy the same
                # row/diagonal equations as the encode-time columns.
                length = as_u8(s).shape[0]
                break
        survivors = [m for m in members if m is not None]
        if length is None and survivors:
            raw = max(as_u8(m).shape[0] for m in survivors)
            length = code._rowbytes(raw) * (code.p - 1)
        padded = [
            None if m is None else _pad_members([m], length)[0][0] for m in members
        ]
        return code.reconstruct(padded, list(shards), nbytes=length)

    def storage_overhead(self, k: int) -> float:
        return 2.0 / k


class ReedSolomonScheme(CodingScheme):
    """Systematic Reed–Solomon RS(k, m) over GF(256).

    Generator ``[I_k ; C]`` with ``C`` an ``m × k`` Cauchy block (any
    square submatrix invertible — the MDS property), so *any* ``m``
    erasures among the ``k + m`` elements are repairable.  Encode and
    decode are both one :func:`~repro.coding.gf256.gf_matvec` call:
    encode applies ``C`` with byte-pair tables cached per member count
    beside the matrix (at most ``m·k`` tables of 128 KiB); decode
    inverts the ``k × k`` survivor submatrix by Gauss–Jordan over
    GF(256) and applies the inverse's lost-member rows through
    ``MUL_TABLE``, since that matrix changes with every erasure pattern.
    The code is linear, so an incremental epoch folds: each member's
    dirty-page delta goes through its column of ``C`` into the previous
    shards (:meth:`fold_many`).

    ``k`` is bound per group at encode time (the spec's ``k`` — e.g. the
    8 in ``rs-8-2`` — is advisory, used for bench naming and overhead
    math); coefficient matrices are cached per member count.
    """

    folds_deltas = True

    def __init__(self, m: int = 2, k_hint: int = 8) -> None:
        if not 1 <= m <= MAX_SHARDS:
            raise ValueError(
                f"need 1 <= m <= MAX_SHARDS ({MAX_SHARDS}) parity shards, got {m}"
            )
        if k_hint < 1:
            raise ValueError(f"need k >= 1 data members, got {k_hint}")
        self.n_shards = m
        self.tolerance = m
        self.k_hint = k_hint
        self.name = f"rs-{k_hint}-{m}"
        self._cauchy: dict[int, np.ndarray] = {}
        self._pairs: dict[int, dict[int, np.ndarray]] = {}

    def _matrix(self, k: int) -> np.ndarray:
        mat = self._cauchy.get(k)
        if mat is None:
            mat = self._cauchy[k] = cauchy_matrix(k, self.n_shards)
        return mat

    def _pair_tables(self, k: int) -> dict[int, np.ndarray]:
        tables = self._pairs.get(k)
        if tables is None:
            tables = self._pairs[k] = gf_pair_tables(self._matrix(k))
        return tables

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, length = _pad_members(members)
        k = len(padded)
        return gf_matvec(self._matrix(k), padded, length, self._pair_tables(k))

    def fold_many(
        self,
        prev_shards: Sequence[Sequence[np.ndarray]],
        updates: Sequence[Sequence[tuple[np.ndarray, PageDelta] | None]],
    ) -> list[list[np.ndarray]]:
        """``shards′ = shards ⊕ C·Δ``, member by member: ``Δ`` is the old
        ⊕ new bytes of member ``i``'s dirty pages, its ``m`` products one
        :func:`gf_matvec` over column ``i`` of ``C`` (whose coefficients
        already have pair tables), XORed into each shard's copy at those
        pages of the member's own prefix.  Shards are zero-padded to the
        longest member, so heterogeneous groups need no extra case."""
        out = []
        for shards, members in zip(prev_shards, updates):
            k = len(members)
            cmat, tables = self._matrix(k), self._pair_tables(k)
            folded = [as_u8(s).copy() for s in shards]
            for i, update in enumerate(members):
                if update is None or not update[1].n_pages:
                    continue
                base, delta = update
                n, size = delta.n_pages_total, delta.page_size
                diff = base.reshape(n, size)[delta.indices]
                np.bitwise_xor(diff, delta.pages, out=diff)
                products = gf_matvec(
                    cmat[:, [i]], [diff.reshape(-1)], diff.size, tables
                )
                for shard, product in zip(folded, products):
                    shard[: n * size].reshape(n, size)[delta.indices] ^= (
                        product.reshape(-1, size)
                    )
            out.append(folded)
        return out

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        k = len(members)
        lost, lost_shards = _missing_count(members, shards)
        if len(lost) + lost_shards > self.tolerance:
            raise ParityCodeError(
                f"{self.name} tolerates {self.tolerance} erasures, "
                f"{len(lost) + lost_shards} lost"
            )
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        length = nbytes
        for s in shards:
            if s is not None:
                length = as_u8(s).shape[0]
                break
        if length is None:
            raise ParityCodeError("no surviving shard; pass nbytes")
        cmat = self._matrix(k)
        # Generator rows: identity for members, Cauchy rows for shards.
        # Pick k surviving rows, invert, solve for the data vector.
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        for j, m in enumerate(members):
            if m is not None:
                row = np.zeros(k, dtype=np.uint8)
                row[j] = 1
                rows.append(row)
                rhs.append(_pad_members([m], length)[0][0])
        for i, s in enumerate(shards):
            if s is not None and len(rows) < k:
                rows.append(cmat[i])
                rhs.append(as_u8(s))
        if len(rows) < k:
            raise ParityCodeError(
                f"{self.name}: only {len(rows)} survivors for {k} unknowns"
            )
        inv = gf_matinv(np.stack(rows[:k]))
        rebuilt = dict(zip(lost, gf_matvec(inv[lost], rhs[:k], length)))
        return [
            rebuilt[i] if m is None else as_u8(m).copy()
            for i, m in enumerate(members)
        ]

    def storage_overhead(self, k: int) -> float:
        return self.n_shards / k


class ReplicationScheme(CodingScheme):
    """Replication-n: every shard is a full copy of the group's data.

    Each of the ``m = n − 1`` shards concatenates all ``k`` members
    (padded to the longest), so *one* surviving shard rebuilds the whole
    group: any erasure pattern that leaves a shard — or all members —
    alive is repairable, hence tolerance ``n − 1``.  Storage and traffic
    cost are what production VM stacks (Ceph-style 3-way replication)
    pay for the same property.
    """

    def __init__(self, n: int = 3) -> None:
        if not 2 <= n <= MAX_SHARDS + 1:
            raise ValueError(
                f"replication needs 2 <= n <= {MAX_SHARDS + 1} copies "
                f"(n - 1 <= MAX_SHARDS ({MAX_SHARDS}) shards), got {n}"
            )
        self.copies = n
        self.n_shards = n - 1
        self.tolerance = n - 1
        self.name = f"rep-{n}"

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        padded, length = _pad_members(members)
        flat = np.concatenate(padded) if len(padded) > 1 else padded[0].copy()
        return [flat.copy() for _ in range(self.n_shards)]

    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        shards: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        k = len(members)
        lost, _ = _missing_count(members, shards)
        if not lost:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]
        source = next((s for s in shards if s is not None), None)
        if source is None:
            raise ParityCodeError(
                f"{self.name}: members lost and no replica shard survives"
            )
        flat = as_u8(source)
        if flat.shape[0] % k:
            raise ParityCodeError(
                f"{self.name}: replica length {flat.shape[0]} not divisible by k={k}"
            )
        length = flat.shape[0] // k
        return [
            as_u8(m).copy() if m is not None else flat[i * length : (i + 1) * length].copy()
            for i, m in enumerate(members)
        ]

    def storage_overhead(self, k: int) -> float:
        return float(self.n_shards)

    def working_length(self, shard_length: int, k: int) -> int:
        return shard_length // k


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], CodingScheme]] = {}


def register_scheme(name: str, factory: Callable[[], CodingScheme]) -> None:
    """Register a custom scheme under ``name`` for :func:`get_scheme`.

    ``factory`` is a zero-argument callable returning a fresh scheme
    instance (schemes carry per-k codec caches, so instances should not
    be shared across unrelated checkpointers unless that is intended).
    """
    _REGISTRY[name] = factory


def available_schemes() -> list[str]:
    """Registered scheme names plus the parametric spec families."""
    return sorted(_REGISTRY) + ["rs-<k>-<m>", "rep-<n>"]


register_scheme("xor", XorScheme)
register_scheme("rdp", RDPScheme)
register_scheme("rs-8-2", lambda: ReedSolomonScheme(m=2, k_hint=8))
register_scheme("rep-3", lambda: ReplicationScheme(3))


def parse_scheme(spec: str) -> CodingScheme:
    """Resolve a scheme spec string: registry name, ``rs-<k>-<m>``, or
    ``rep-<n>``."""
    factory = _REGISTRY.get(spec)
    if factory is not None:
        return factory()
    parts = spec.split("-")
    try:
        params = [int(p) for p in parts[1:]]
    except ValueError:
        params = []
    # Out-of-range parameters raise the constructor's own error.
    if parts[0] == "rs" and len(params) == 2:
        return ReedSolomonScheme(m=params[1], k_hint=params[0])
    if parts[0] == "rep" and len(params) == 1:
        return ReplicationScheme(params[0])
    raise ValueError(
        f"unknown coding scheme {spec!r}; known: {', '.join(available_schemes())}"
    )


def get_scheme(spec: "str | CodingScheme | None") -> CodingScheme:
    """Coerce a spec (string, instance, or None → xor) to a scheme."""
    if spec is None:
        return XorScheme()
    if isinstance(spec, CodingScheme):
        return spec
    return parse_scheme(spec)
