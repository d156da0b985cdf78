"""Cluster network topologies.

The paper's platform is a LAN-connected cluster with a shared NAS
(Section II-A notes most cluster configurations run diskless against a
shared NAS).  We model the standard non-blocking switch fabric:

* each physical node has a full-duplex NIC — one ``tx`` and one ``rx``
  link of ``node_bandwidth`` each;
* the NAS has a single ingress link (``nas.rx``) and egress link
  (``nas.tx``) of ``nas_bandwidth`` — the serialization point that makes
  disk-full checkpointing collapse under fan-in;
* the switch core is non-blocking (no shared core link), which is the
  favourable assumption *for the baseline*; DVDC's advantage in the
  paper survives it.

A blocking-core variant (``core_bandwidth``) is provided for ablations.
"""

from __future__ import annotations

from ..sim import NULL_TRACER, Simulator, Tracer
from .link import Flow, Link, Network, NetworkError

__all__ = ["ClusterTopology", "SwitchedTopology"]

#: 1 GbE payload bandwidth, bytes/second.
GBE_BANDWIDTH = 125e6
#: Typical mid-range NAS ingress bandwidth, bytes/second.
DEFAULT_NAS_BANDWIDTH = 100e6
#: LAN latency, seconds.
DEFAULT_LATENCY = 100e-6


class ClusterTopology:
    """Abstract interface: node-to-node and node-to-NAS paths."""

    network: Network

    def node_to_node(self, src: int, dst: int) -> list[Link]:
        raise NotImplementedError

    def node_to_nas(self, src: int) -> list[Link]:
        raise NotImplementedError

    def nas_to_node(self, dst: int) -> list[Link]:
        raise NotImplementedError

    def transfer(self, src: int, dst: int, size: float, label: str | None = None) -> Flow:
        """Start a node→node flow."""
        return self.network.start_flow(self.node_to_node(src, dst), size, label)

    def transfer_to_nas(self, src: int, size: float, label: str | None = None) -> Flow:
        return self.network.start_flow(self.node_to_nas(src), size, label)

    def transfer_from_nas(self, dst: int, size: float, label: str | None = None) -> Flow:
        return self.network.start_flow(self.nas_to_node(dst), size, label)


class SwitchedTopology(ClusterTopology):
    """Non-blocking switch with per-node NICs and a NAS port.

    Parameters
    ----------
    sim:
        The simulator.
    n_nodes:
        Number of physical nodes.
    node_bandwidth:
        Per-direction NIC bandwidth, bytes/second (default 1 GbE).
    nas_bandwidth:
        NAS port bandwidth per direction, bytes/second.
    latency:
        Per-hop latency; a node→node path crosses two links.
    core_bandwidth:
        If not None, an aggregate switch-core link every flow crosses —
        models an oversubscribed fabric for ablation studies.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        node_bandwidth: float = GBE_BANDWIDTH,
        nas_bandwidth: float = DEFAULT_NAS_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        core_bandwidth: float | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if n_nodes < 1:
            raise NetworkError(f"need >= 1 node, got {n_nodes}")
        self.sim = sim
        self.n_nodes = n_nodes
        self.node_bandwidth = float(node_bandwidth)
        self.nas_bandwidth = float(nas_bandwidth)
        self.network = Network(sim, tracer=tracer)
        self.tx: list[Link] = []
        self.rx: list[Link] = []
        for i in range(n_nodes):
            self.tx.append(self.network.add_link(f"node{i}.tx", node_bandwidth, latency))
            self.rx.append(self.network.add_link(f"node{i}.rx", node_bandwidth, latency))
        self.nas_rx = self.network.add_link("nas.rx", nas_bandwidth, latency)
        self.nas_tx = self.network.add_link("nas.tx", nas_bandwidth, latency)
        self.core: Link | None = None
        if core_bandwidth is not None:
            self.core = self.network.add_link("switch.core", core_bandwidth, 0.0)

    def _check(self, idx: int) -> None:
        if not (0 <= idx < self.n_nodes):
            raise NetworkError(f"node index {idx} out of range 0..{self.n_nodes - 1}")

    def node_to_node(self, src: int, dst: int) -> list[Link]:
        self._check(src)
        self._check(dst)
        if src == dst:
            # loopback: charged only against the local NIC pair; cheap but
            # not free, matching intra-node VM-to-VM copies over vswitch.
            path = [self.tx[src], self.rx[dst]]
        else:
            path = [self.tx[src], self.rx[dst]]
        if self.core is not None and src != dst:
            path.insert(1, self.core)
        return path

    def node_to_nas(self, src: int) -> list[Link]:
        self._check(src)
        path = [self.tx[src], self.nas_rx]
        if self.core is not None:
            path.insert(1, self.core)
        return path

    def nas_to_node(self, dst: int) -> list[Link]:
        self._check(dst)
        path = [self.nas_tx, self.rx[dst]]
        if self.core is not None:
            path.insert(1, self.core)
        return path

    def abort_node_flows(self, node_id: int, reason: str = "node failed") -> int:
        """Abort every in-flight flow crossing the node's NIC, those
        still in their latency phase included.

        Called when a physical node crashes: transfers it was sending or
        receiving terminate with a :class:`NetworkError` at the waiting
        process.  Returns the number of flows torn down."""
        self._check(node_id)
        doomed = self._nic_flows(node_id)
        for flow in doomed:
            flow.abort(reason)
        return len(doomed)

    def _nic_flows(self, node_id: int) -> list[Flow]:
        """Flows crossing either NIC direction, in deterministic order —
        tear-down order affects event ordering, so it must not depend on
        set iteration: admitted flows in admission order, then flows
        still in their latency phase in start order."""
        tx, rx = self.tx[node_id], self.rx[node_id]
        doomed = dict.fromkeys(tx.flows)
        doomed.update(dict.fromkeys(rx.flows))
        for flow in self.network._latent:
            if tx in flow.path or rx in flow.path:
                doomed[flow] = None
        return list(doomed)

    # ------------------------------------------------------------------
    # transient-fault surface (driven by repro.resilience.faults)
    # ------------------------------------------------------------------
    def set_node_links_up(self, node_id: int, up: bool, reason: str = "link flap") -> int:
        """Flap both NIC directions of a node down or up.

        Down tears in-flight flows with :class:`TransientNetworkError`
        (retryable), unlike :meth:`abort_node_flows` whose endpoint is
        dead.  Returns the number of flows torn down."""
        self._check(node_id)
        torn = self.network.set_link_up(self.tx[node_id], up, reason)
        torn += self.network.set_link_up(self.rx[node_id], up, reason)
        return torn

    def scale_node_bandwidth(self, node_id: int, factor: float) -> None:
        """Set both NIC directions to ``factor`` × nominal bandwidth.

        Models a straggler node (slow NIC, congested uplink).  The factor
        is absolute against design capacity, not cumulative: ``1.0``
        restores full speed regardless of prior degradations."""
        self._check(node_id)
        if not factor > 0:
            raise NetworkError(f"bandwidth factor must be > 0, got {factor}")
        for link in (self.tx[node_id], self.rx[node_id]):
            self.network.set_link_bandwidth(link, link.nominal_bandwidth * factor)

    def drop_node_flows(self, node_id: int, reason: str = "transfer dropped") -> int:
        """Drop the node's in-flight transfers *without* touching link
        state — a lossy blip rather than an outage.  Flows fail with
        :class:`TransientNetworkError`; an immediate retry can succeed.
        Returns the number of flows dropped."""
        self._check(node_id)
        doomed = self._nic_flows(node_id)
        for flow in doomed:
            flow.abort(reason, transient=True)
        return len(doomed)
