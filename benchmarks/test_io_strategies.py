"""Noncontiguous I/O strategy benchmark (the abstract's "other domains"
claim, and the authors' PVFS work [33] this paper builds on).

Sweeps the client-memory block size for a fixed 1 MB file write/read and
compares list-I/O ("pack") against RDMA write-gather / read-scatter
("rdma").  Expected shape, per [33]: RDMA wins by eliminating the client
copy, and its margin narrows as blocks shrink (per-SGE/per-descriptor
costs grow while the copy cost of packing stays flat).
"""


def test_io_strategies(run_figure):
    xs, out = run_figure("io-strategies")
    n = len(xs)
    # RDMA eliminates the client copy: faster at every block size here
    for i in range(n):
        assert out["write-rdma"].y[i] < out["write-pack"].y[i]
        assert out["read-rdma"].y[i] < out["read-pack"].y[i]
    # the margin narrows as blocks shrink
    write_gain = [p / r for p, r in zip(out["write-pack"].y, out["write-rdma"].y)]
    assert write_gain[0] < write_gain[-1]
    # reads trail writes (RDMA read bandwidth < write bandwidth)
    big = n - 1
    assert out["read-rdma"].y[big] > out["write-rdma"].y[big]
