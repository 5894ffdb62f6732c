"""Figure 14 — latency in the worst case of buffer usage (Section 8.6).

Every operation allocates, registers and deregisters its buffers on the
fly: no pin-down cache for user buffers, no pre-registered segment
pools, fresh staging buffers in Generic.

Paper's observations to reproduce:

1. "When the number of columns is less than 512, both RWG-UP and Multi-W
   schemes perform very poor[ly]" — they register/deregister the whole
   user array (OGR merges the small gaps) while the message itself is
   small;
2. "When the number of columns increases ... both RWG-UP and Multi-W
   perform better than Generic due to reduced memory copies";
3. "In this test, BC-SPUP always performs better than Generic ... the
   benefits completely come from the overlap between packing,
   communication, and unpacking."
"""


def test_fig14_worst_case(run_figure):
    cols, out = run_figure("fig14")
    gen = out["generic"].y
    bcs = out["bc-spup"].y
    rwg = out["rwg-up"].y
    mw = out["multi-w"].y

    # (1) user-buffer registration dominates the RDMA schemes at small
    # column counts: clearly worse than Generic below 256 columns
    for i, c in enumerate(cols):
        if 32 <= c <= 128:
            assert rwg[i] > gen[i], (c, rwg[i], gen[i])
            assert mw[i] > gen[i], (c, mw[i], gen[i])

    # (2) both cross over as the copies grow: better than Generic at 2048
    big = cols.index(2048)
    assert rwg[big] < gen[big]
    assert mw[big] < gen[big]

    # (3) BC-SPUP is never worse than Generic
    for i in range(len(cols)):
        assert bcs[i] <= gen[i] * 1.01, cols[i]
