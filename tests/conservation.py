"""What must hold once a cluster's event heap has drained — the first
check of the simulation sanitizer ROADMAP item 3 asks for.

Tests call this; the hot path asserts nothing.
"""


def assert_conserved(cluster) -> None:
    """Every wire byte injected has arrived, or was a control message the
    fault injector dropped; no RDMA write is still waiting for a successor
    to land it, and no DMA window is still open."""
    value = cluster.metrics.value
    injected = value("ib.bytes_injected")
    delivered = value("ib.bytes_delivered")
    dropped = value("ib.bytes_dropped")
    assert injected == delivered + dropped, (
        f"{injected:.0f} bytes injected, {delivered:.0f} delivered, "
        f"{dropped:.0f} dropped by the injector"
    )
    stats = cluster.stats()
    assert sum(stats["bytes_injected"]) == injected
    assert sum(stats["bytes_delivered"]) == delivered
    for ctx in cluster.contexts:
        for qp in (*ctx.ctrl_qps.values(), *ctx.data_qps.values()):
            assert not qp.pending_landings, f"{qp!r} holds unlanded writes"
        assert ctx.node.dma_active == 0, f"rank {ctx.rank}: DMA still active"
        assert not ctx.node._dma_windows
