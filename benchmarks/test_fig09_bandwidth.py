"""Figure 9 — streaming bandwidth (Section 8.2).

Paper's observations to reproduce:

1. "Both BC-SPUP and RWG-UP give a factor of 1.2-2.0 improvement over
   the Generic scheme";
2. "Multi-W gives a factor of 1.4-3.6 improvement ... when the number
   of columns is larger than 64"; between 4 and 64 columns "Multi-W
   performance degrades a lot because of the large number of RDMA Write
   operations and the small message size in each operation".
"""


def test_fig09_bandwidth(run_figure):
    cols, out = run_figure("fig09")
    gen = out["generic"].y
    bcs = out["bc-spup"].y
    rwg = out["rwg-up"].y
    mw = out["multi-w"].y
    rndv = [i for i, c in enumerate(cols) if c >= 32]  # rendezvous regime

    # (1) BC-SPUP and RWG-UP land in roughly the 1.2-2.0x band
    for i in rndv:
        assert 1.1 < bcs[i] / gen[i] < 2.6, (cols[i], bcs[i] / gen[i])
        assert 1.1 < rwg[i] / gen[i] < 2.6, (cols[i], rwg[i] / gen[i])

    # (2) Multi-W: strong wins beyond the crossover (the paper's 1.4-3.6x
    # band starts at 64 columns; our crossover lands one step later, at
    # ~128 columns — see EXPERIMENTS.md)
    for i, c in enumerate(cols):
        if c >= 256:
            assert mw[i] / gen[i] >= 1.2, (c, mw[i] / gen[i])
        if c == 128:
            assert mw[i] / gen[i] >= 1.0, (c, mw[i] / gen[i])
    big = cols.index(2048)
    assert mw[big] / gen[big] >= 2.0
    degraded = [c for i, c in enumerate(cols) if 4 <= c <= 64 and mw[i] < gen[i]]
    assert degraded, "Multi-W never degraded in the 4-64 column range"

    # sanity: everything stays below the wire's capability
    for series in (gen, bcs, rwg, mw):
        assert all(v < 900 for v in series)
