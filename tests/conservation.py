"""What must hold once a cluster's event heap has drained — the first
two checks of the simulation sanitizer ROADMAP item 3 asks for: bytes
are conserved, and every posted descriptor has retired.

Tests call this; the hot path asserts nothing.
"""


def assert_conserved(cluster) -> None:
    """Every wire byte injected has arrived, or was a control message the
    fault injector dropped; no RDMA write is still waiting for a successor
    to land it, and no DMA window is still open.  Every descriptor posted
    has been processed: no HCA holds an unsettled run member, every send
    queue reads empty."""
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
        qps = (*ctx.ctrl_qps.values(), *ctx.data_qps.values())
        for qp in qps:
            assert not qp.pending_landings, f"{qp!r} holds unlanded writes"
        node = ctx.node.node_id
        assert not ctx.node.hca._run, f"rank {ctx.rank}: run members not retired"
        depth = cluster.metrics.gauge("ib.sq_depth", node).value
        assert depth == 0, f"rank {ctx.rank}: ib.sq_depth reads {depth}"
        posted = sum(qp.posted_sends for qp in qps)
        processed = cluster.metrics.counter("ib.descriptors", node).value
        assert posted == processed, (
            f"rank {ctx.rank}: {posted} descriptors posted, {processed:.0f} processed"
        )
        assert ctx.node.dma_active == 0, f"rank {ctx.rank}: DMA still active"
        assert not ctx.node._dma_windows
