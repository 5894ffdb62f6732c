"""The switch fabric connecting HCAs.

The paper's testbed is eight nodes on a single InfiniScale 8-port 4x
switch: full bisection bandwidth, so the sender-side HCA engine is the
injection bottleneck and the switch adds a fixed latency.  The model
follows that: :class:`Fabric` wires queue pairs together and owns the
per-hop latency (already accounted in :class:`~repro.ib.costmodel.CostModel`
via ``wire_latency``), plus convenience helpers to build fully-connected
clusters of nodes.
"""

from __future__ import annotations

from typing import Optional

from repro.ib.costmodel import CostModel
from repro.ib.hca import Node
from repro.ib.verbs import QPState, QueuePair
from repro.simulator import MetricsRegistry, SimulationError, Simulator

__all__ = ["Fabric"]


class Fabric:
    """A full-bisection switch; builds nodes and connects queue pairs."""

    def __init__(
        self,
        sim: Simulator,
        cm: CostModel,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.cm = cm
        self.metrics = metrics or MetricsRegistry()
        self.nodes: list[Node] = []

    def add_node(self, memory_capacity: int) -> Node:
        """Create a node attached to this fabric."""
        node = Node(
            self.sim,
            node_id=len(self.nodes),
            cm=self.cm,
            memory_capacity=memory_capacity,
            metrics=self.metrics,
        )
        self.nodes.append(node)
        return node

    @staticmethod
    def connect(qp_a: QueuePair, qp_b: QueuePair) -> None:
        """Bring two queue pairs to the connected (RTS) state."""
        if qp_a.peer is not None or qp_b.peer is not None:
            raise SimulationError("queue pair already connected")
        if qp_a is qp_b:
            raise SimulationError("cannot connect a queue pair to itself")
        qp_a.peer = qp_b
        qp_b.peer = qp_a
        qp_a.state = QPState.RTS
        qp_b.state = QPState.RTS

    def connect_all(self, memory_capacity: int, n: int) -> list[Node]:
        """Create ``n`` nodes and a fully-connected QP mesh.

        Each node gets one QP per remote node, exposed as
        ``node.hca.qps[remote_id]`` — the topology MVAPICH sets up over RC
        connections at MPI_Init.
        """
        nodes = [self.add_node(memory_capacity) for _ in range(n)]
        for node in nodes:
            node.hca.qps = {}
        for i in range(n):
            for j in range(i + 1, n):
                qp_i = nodes[i].hca.create_qp()
                qp_j = nodes[j].hca.create_qp()
                self.connect(qp_i, qp_j)
                nodes[i].hca.qps[j] = qp_i
                nodes[j].hca.qps[i] = qp_j
        return nodes
