"""Figure 11 — MPI_Alltoall with the Figure 10 struct datatype on 8
processes (Section 8.3).

Paper's observations to reproduce:

1. "all BC-SPUP, RWG-UP and Multi-W schemes outperform the Generic
   scheme";
2. improvement factors: BC-SPUP min 1.2 / max 1.5 / avg 1.3; RWG-UP
   min 1.2 / max 1.4 / avg 1.3; Multi-W min 1.8 / max 2.1 / avg 2.0;
3. "For this datatype, it can be observed that Multi-W is a good
   choice."
"""

import pytest


def _stats(gen, series):
    factors = [g / s for g, s in zip(gen, series)]
    return min(factors), max(factors), sum(factors) / len(factors)


def test_fig11_alltoall(run_figure):
    xs, out = run_figure("fig11")
    gen = out["generic"].y
    bcs = out["bc-spup"].y
    rwg = out["rwg-up"].y
    mw = out["multi-w"].y

    # (1) every scheme beats Generic at every point
    for i in range(len(xs)):
        assert bcs[i] < gen[i]
        assert rwg[i] < gen[i]
        assert mw[i] < gen[i]

    # (2) improvement bands (generous tolerances around the paper's
    # min/avg/max: BC-SPUP ~1.3, RWG-UP ~1.3, Multi-W ~2.0 average)
    lo, hi, avg = _stats(gen, bcs)
    assert 1.05 < lo and hi < 2.2 and 1.1 < avg < 1.9, (lo, hi, avg)
    lo, hi, avg = _stats(gen, rwg)
    assert 1.05 < lo and hi < 2.2 and 1.1 < avg < 1.9, (lo, hi, avg)
    lo, hi, avg = _stats(gen, mw)
    assert 1.3 < lo and avg > 1.6, (lo, hi, avg)

    # (3) Multi-W is the best choice for this datatype
    for i in range(len(xs)):
        assert mw[i] <= min(bcs[i], rwg[i])
