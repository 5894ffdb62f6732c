"""Figure 2 — the motivating example (Section 3.2).

Paper's observations to reproduce:

1. "no more than one quarter of contiguous communication performance is
   achieved in any scheme" (for the noncontiguous strategies, at large
   sizes where the asymptotic ratio is meaningful);
2. "Manual performs a little better than Datatype" (datatype-processing
   overhead);
3. "Datatype plus registration and deregistration (DT+reg) is much
   slower than Datatype";
4. "Multiple performs a little better when the block size is large
   enough", but collapses for small blocks.
"""


def test_fig02_motivating_example(run_figure):
    cols, out = run_figure("fig02")
    contig = out["Contig"].y
    datatype = out["Datatype"].y
    dt_reg = out["DT+reg"].y
    manual = out["Manual"].y
    multiple = out["Multiple"].y
    large = [i for i, c in enumerate(cols) if c >= 64]

    # (1) every noncontiguous strategy stays well under half of Contig at
    # large sizes ("no more than one quarter" in the paper)
    for i in large:
        for series in (datatype, dt_reg, manual, multiple):
            assert contig[i] / series[i] < 0.45, (cols[i], contig[i], series[i])

    # (2) Manual beats Datatype (by a little) wherever rendezvous is used
    for i in large:
        assert manual[i] < datatype[i] * 1.02

    # (3) DT+reg is much slower than Datatype in the rendezvous regime
    for i in large:
        assert dt_reg[i] > datatype[i] * 1.15

    # (4) Multiple loses badly at small blocks, wins at the largest
    small = cols.index(8)
    assert multiple[small] > datatype[small] * 2
    big = cols.index(2048)
    assert multiple[big] < datatype[big]
