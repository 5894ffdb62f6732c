"""Storage cluster assembly: one file server + N client nodes."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.ib.costmodel import MB, CostModel
from repro.ib.fabric import Fabric
from repro.io.client import IOClient
from repro.io.server import FileServer
from repro.simulator import SimulationError, Simulator, Tracer

__all__ = ["StorageCluster"]


class StorageCluster:
    """A PVFS-style storage setup on the simulated fabric.

    Node 0 is the server; nodes 1..N are clients.  Client programs are
    generators over an :class:`~repro.io.client.IOClient`::

        cluster = StorageCluster(nclients=2)

        def prog(io):
            fh = yield from io.open("data", 1 << 20)
            yield from io.write(fh, 0, addr, dt, strategy="rdma")

        cluster.run(prog)
    """

    def __init__(
        self,
        nclients: int = 1,
        nservers: int = 1,
        cost_model: Optional[CostModel] = None,
        store_capacity: int = 256 * MB,
        memory_per_client: int = 256 * MB,
        reg_cache_bytes: int = 256 * MB,
        stripe_size: int = 64 * 1024,
        trace: bool = False,
    ):
        if nclients < 1:
            raise ValueError("need at least one client")
        if nservers < 1:
            raise ValueError("need at least one server")
        self.cm = cost_model or CostModel.mellanox_2003()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.cm)
        if trace:
            self.sim.tracer = Tracer(metrics=self.fabric.metrics)
        self.servers: list[FileServer] = []
        for _ in range(nservers):
            server_node = self.fabric.add_node(store_capacity + 64 * MB)
            self.servers.append(FileServer(server_node, store_capacity))
        self.clients: list[IOClient] = []
        for cid in range(1, nclients + 1):
            node = self.fabric.add_node(memory_per_client)
            client = IOClient(node, cid, reg_cache_bytes, stripe_size=stripe_size)
            for sid, server in enumerate(self.servers):
                qp_c = node.hca.create_qp()
                qp_s = server.node.hca.create_qp()
                self.fabric.connect(qp_c, qp_s)
                client.attach(qp_c, server_id=sid)
                server.attach_client(cid, qp_s)
            self.clients.append(client)

        self.stripe_size = stripe_size

    @property
    def tracer(self) -> Optional[Tracer]:
        """The simulator's tracer; None unless built with ``trace=True``."""
        return self.sim.tracer

    @property
    def server(self) -> FileServer:
        """The first server (single-server convenience)."""
        return self.servers[0]

    def file_bytes(self, name: str, size: int):
        """Reassemble a file's logical bytes from its striped parts
        (test/tooling convenience)."""
        import numpy as np

        out = np.empty(size, np.uint8)
        n = len(self.servers)
        for start in range(0, size, self.stripe_size):
            sidx = start // self.stripe_size
            server = sidx % n
            local = (sidx // n) * self.stripe_size
            ln = min(self.stripe_size, size - start)
            out[start : start + ln] = self.servers[server].file_view(name)[
                local : local + ln
            ]
        return out

    def run(
        self, programs: Sequence[Callable] | Callable, until: Optional[float] = None
    ):
        """Run one program per client (or the same program on all).

        Returns the list of per-client return values; ``self.sim.now`` is
        the elapsed simulated time.
        """
        if callable(programs):
            programs = [programs] * len(self.clients)
        if len(programs) != len(self.clients):
            raise ValueError(
                f"got {len(programs)} programs for {len(self.clients)} clients"
            )
        procs = [
            self.sim.process(prog(client), name=f"client{client.client_id}")
            for prog, client in zip(programs, self.clients)
        ]
        self.sim.run(until=until)
        unfinished = [i for i, p in enumerate(procs) if not p.triggered]
        if unfinished:
            raise SimulationError(f"client programs {unfinished} did not finish")
        return [p.value for p in procs]
