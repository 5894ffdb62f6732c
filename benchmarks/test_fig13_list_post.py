"""Figure 13 — effect of list descriptor post in Multi-W (Section 8.5).

Paper's observation: "the list post offers improvement with a maximum
factor of 2.0 and a minimum factor of 1.2 over the single post.  The
average improvement factor is 1.6.  ... posting descriptor is costly."

In our cost model the posting cost is CPU-side only, so the improvement
concentrates where the per-descriptor post cost rivals the per-descriptor
wire time (small/medium blocks) and fades as the wire dominates — the
max factor reproduces; the paper's nonzero floor at the largest blocks
suggests their posts also consumed PCI bandwidth, which we note in
EXPERIMENTS.md as a known deviation.
"""

import pytest


def test_fig13_list_post(run_figure):
    cols, out = run_figure("fig13")
    listed = out["list"].y
    single = out["single"].y
    factors = {c: l / s for c, l, s in zip(cols, listed, single)}

    # list post never loses measurably
    for c, f in factors.items():
        assert f > 0.97, (c, f)
    # substantial gain where descriptors are small
    assert max(factors.values()) == pytest.approx(1.8, abs=0.5)
    small_mid = [f for c, f in factors.items() if 4 <= c <= 256]
    assert sum(small_mid) / len(small_mid) > 1.15
