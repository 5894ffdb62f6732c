"""RDMA-eager channel benchmark (Liu et al. [19], the companion MVAPICH
design this paper's implementation sits on).

Compares small-message ping-pong latency of the channel-semantics eager
path against the polled RDMA ring across message sizes, and checks the
ring's advantage fades once messages cross into rendezvous.
"""

import pytest


def test_eager_rdma_latency(run_figure):
    sizes, out = run_figure("eager-rdma")
    chan = out["channel"].y
    ring = out["ring"].y
    for i, size in enumerate(sizes):
        if size <= 8192:  # eager regime
            assert ring[i] < chan[i], size
        else:  # rendezvous: identical path, no ring involvement
            assert ring[i] == pytest.approx(chan[i], rel=0.01), size
    # the absolute saving is a constant (per-hop protocol overhead), so
    # the relative gain is largest for the smallest messages
    gains = [c - r for c, r, s in zip(chan, ring, sizes) if s <= 8192]
    assert max(gains) == pytest.approx(min(gains), abs=0.5)
    assert (chan[0] - ring[0]) / chan[0] > 0.08  # >8% at 8 bytes
