"""Figure 12 — effect of segment unpack in RWG-UP (Section 8.4).

Paper's observation: "a factor of 1.3 improvement in bandwidth can be
achieved using the segment unpack" — unpacking each segment as it
arrives overlaps unpacking with communication, instead of waiting for
the whole message.
"""

import pytest


def test_fig12_segment_unpack(run_figure):
    cols, out = run_figure("fig12")
    seg = out["seg-unpack"].y
    whole = out["whole-unpack"].y

    # segment unpack never hurts and reaches a ~1.3x gain at large sizes
    for i in range(len(cols)):
        assert seg[i] >= whole[i] * 0.99, cols[i]
    factors = [s / w for s, w in zip(seg, whole) if s and w]
    assert max(factors) == pytest.approx(1.3, abs=0.25), max(factors)
    big = [f for c, f in zip(cols, factors) if c >= 512]
    assert all(f > 1.1 for f in big), big
