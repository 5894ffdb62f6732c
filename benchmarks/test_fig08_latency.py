"""Figure 8 — ping-pong latency of the four schemes (Section 8.2).

Paper's observations to reproduce:

1. "BC-SPUP performs better than the Generic scheme consistently",
   with "a factor of 1.5 improvement ... for large datatype messages";
2. "RWG-UP performs better than the Generic scheme in most cases,
   except [when] the size of contiguous block is too small", reaching
   "a factor of up to 1.8";
3. "Multi-W offers a factor of 3.4 improvement when the number of
   columns is large.  When the size of contiguous blocks is small,
   Multi-W performance degrades significantly";
4. for 1-2 columns all new schemes follow the same eager path with
   identical performance, perceivably better than Generic.
"""

import pytest


def test_fig08_latency(run_figure):
    cols, out = run_figure("fig08")
    gen = out["generic"].y
    bcs = out["bc-spup"].y
    rwg = out["rwg-up"].y
    mw = out["multi-w"].y

    # (1) BC-SPUP consistently better than Generic; >= 1.3x at 1-2 MB
    for i in range(len(cols)):
        assert bcs[i] <= gen[i] * 1.005, cols[i]
    big = cols.index(2048)
    assert gen[big] / bcs[big] >= 1.3

    # (2) RWG-UP up to ~1.8x, better than Generic for blocks >= 128 B
    assert max(g / r for g, r in zip(gen, rwg)) == pytest.approx(1.8, abs=0.35)
    for i, c in enumerate(cols):
        if c >= 32:
            assert rwg[i] < gen[i]

    # (3) Multi-W: large win at large columns, significant degradation at
    # small blocks (worse than Generic below the crossover)
    assert gen[big] / mw[big] >= 2.3
    small = cols.index(32)
    assert mw[small] > gen[small]
    # crossover exists between 32 and 2048 columns
    crossed = [c for i, c in enumerate(cols) if 32 <= c and mw[i] < gen[i]]
    assert crossed, "Multi-W never overtook Generic"

    # (4) eager region: all new schemes identical, better than Generic
    for i, c in enumerate(cols):
        if c <= 2:
            assert bcs[i] == pytest.approx(rwg[i]) == pytest.approx(mw[i])
            assert bcs[i] < gen[i]
