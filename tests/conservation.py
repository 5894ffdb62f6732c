"""What must hold once a cluster's event heap has drained — the
simulation sanitizer's checks at quiescence: bytes are conserved, every
posted descriptor has retired, the heap is empty, and every grant, token
and credit is back with its owner.

Tests call this; the hot path asserts nothing.
"""

from repro.mpi.context import EAGER_SEND_SLOTS, EAGER_SLOTS_PER_PEER


def assert_conserved(cluster) -> None:
    """Every wire byte injected has arrived, or was a control message the
    fault injector dropped; no RDMA write is still waiting for a successor
    to land it, and no DMA window is still open.  Every descriptor posted
    has been processed: no HCA holds an unsettled run member, every send
    queue reads empty.  No live event is left on the heap; every CPU
    timeline is drained (nothing booked past now, no copy waiting to be
    priced, no job queued or unended, its last end processed), every
    rendezvous-slot grant was released, every send-slot token is back, and
    per directed pair (send/recv eager) the sender's credits plus the
    receiver's unreturned slots make up the whole window.  Checked first:
    no call is owed (a resume, a start, a trigger, a landing or a CQE),
    and every process parked in a store's ``take()`` is alive and parked
    there."""
    # first: a call never paid explains every check below it
    owed = cluster.sim._owed
    assert owed is None, f"a call of {owed[2]!r} due at {owed[0]!r} is still owed"
    for store in _stores(cluster):
        for getter in store._getters:
            if type(getter) is tuple:
                proc = getter[0]
                assert proc.is_alive and proc._waiting_on is store, (
                    f"{store.name or 'store'}: parked {proc.name} is not waiting there"
                )
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
    assert all(ev.cancelled for _due, _seq, ev in cluster.sim._heap), (
        "live events left on the heap"
    )
    for ctx in cluster.contexts:
        cpu = ctx.node.cpu
        assert cpu.free_at <= cluster.sim.now, f"{cpu.name}: work booked past now"
        assert not cpu.fifo, f"{cpu.name}: a copy was never priced"
        assert not cpu.requests, f"{cpu.name}: a job never ended"
        assert cpu.last is None or cpu.last.processed, f"{cpu.name}: last end pending"
        slots = ctx._rndv_recv_slots
        assert slots.in_use == 0 and slots.queue_length == 0, repr(slots)
        assert not slots._grant_times, f"{slots.name}: grants never released"
        tokens = len(ctx._send_slot_tokens)
        assert tokens == EAGER_SEND_SLOTS, (
            f"rank {ctx.rank}: {tokens} of {EAGER_SEND_SLOTS} send slots back"
        )
    if not cluster.eager_rdma:
        for sender in cluster.contexts:
            for peer, credits in sender._credits.items():
                free = cluster.contexts[peer]._slot_free_count[sender.rank]
                assert len(credits) + free == EAGER_SLOTS_PER_PEER, (
                    f"{sender.rank}->{peer}: {len(credits)} credits + {free} "
                    f"unreturned slots, not {EAGER_SLOTS_PER_PEER}"
                )


def _stores(cluster):
    """Every store a rank or its HCA takes from."""
    for ctx in cluster.contexts:
        yield ctx.node.hca._send_queue
        yield ctx._send_cq._store
        yield ctx._recv_cq._store
        yield ctx._send_slot_tokens
        yield from ctx._credits.values()
        yield from ctx._ring_out.values()
        yield from ctx._msg_inbox.values()
