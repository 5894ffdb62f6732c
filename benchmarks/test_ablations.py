"""Ablation benchmarks: design choices the paper discusses but does not
plot, measured end-to-end (see repro.bench.sweeps for the rationale
behind each)."""

import pytest


def test_ablation_segment_size(run_figure):
    """Too-small segments drown in per-segment overheads; the paper's
    128 KB choice should be at or near the best latency."""
    sizes, out = run_figure("segment-size")
    lat = out["latency"].y
    assert lat[0] > lat[-1]  # 8 KB segments clearly worse than 128 KB
    assert min(lat) >= lat[-1] * 0.9  # 128 KB within 10% of the sweep's best


def test_ablation_registration_strategies(run_figure):
    """Section 5.4.1: per-block registration pays a base cost per block;
    whole-buffer registration pins the gaps; OGR should never lose to
    either by more than noise."""
    cols, out = run_figure("registration")
    for i, c in enumerate(cols):
        ogr = out["ogr"].y[i]
        per_block = out["per-block"].y[i]
        whole = out["whole"].y[i]
        assert ogr <= per_block * 1.02, (c, ogr, per_block)
        assert ogr <= whole * 1.02, (c, ogr, whole)
    # per-block registration is painful for the 128-block vector
    assert out["per-block"].y[0] > out["ogr"].y[0] * 1.3


def test_ablation_datatype_cache(run_figure):
    """The cache removes the per-operation layout shipment; warm-path
    latency must never be worse with the cache, and the benefit should
    be visible (the 128-block layout is 2 KB of control traffic)."""
    cols, out = run_figure("dtcache")
    for i in range(len(cols)):
        assert out["cached"].y[i] <= out["uncached"].y[i] * 1.005
    gains = [
        u / c for u, c in zip(out["uncached"].y, out["cached"].y)
    ]
    assert max(gains) > 1.005


def test_ablation_adaptive(run_figure):
    """The selector tracks the best fixed scheme and never loses to the
    Generic baseline."""
    cols, out = run_figure("adaptive")
    for i, c in enumerate(cols):
        fixed_best = min(
            out[s].y[i] for s in ("generic", "bc-spup", "rwg-up", "multi-w")
        )
        assert out["adaptive"].y[i] <= out["generic"].y[i] * 1.005
        assert out["adaptive"].y[i] <= fixed_best * 1.30, (c,)


def test_ablation_prrs(run_figure):
    """Section 5.2's prediction: P-RRS trails RWG-UP (read bandwidth and
    per-segment control round trips)."""
    cols, out = run_figure("prrs")
    for i in range(len(cols)):
        assert out["p-rrs"].y[i] > out["rwg-up"].y[i]
    # ... but not catastrophically: it beats nothing by orders of magnitude
    for i in range(len(cols)):
        assert out["p-rrs"].y[i] < out["rwg-up"].y[i] * 2.5


def test_ablation_hybrid_bimodal(run_figure):
    """The Section 10 future-work direction, implemented and measured:
    on bimodal datatypes the per-piece hybrid beats every fixed scheme,
    and Multi-W (per-block descriptors) is the worst RDMA scheme."""
    xs, out = run_figure("hybrid")
    for i, tiny in enumerate(xs):
        fixed_best = min(
            out[s].y[i] for s in ("generic", "bc-spup", "rwg-up", "multi-w")
        )
        assert out["hybrid"].y[i] < fixed_best, (tiny,)
    # with thousands of tiny blocks, Multi-W drowns in startups
    last = len(xs) - 1
    assert out["multi-w"].y[last] > out["rwg-up"].y[last]


def test_ablation_eager_threshold(run_figure):
    """Below every threshold the paths coincide; messages that fall
    between two thresholds reveal the eager-vs-rendezvous seam."""
    cols, out = run_figure("eager-threshold")
    t_small, t_mid, t_big = sorted(out)
    # 2-column messages (1 KB) are eager under every threshold: identical
    i = cols.index(2)
    vals = [out[t].y[i] for t in (t_small, t_mid, t_big)]
    assert max(vals) == pytest.approx(min(vals))
    # a 64 KB message (128 cols) is rendezvous for every threshold too
    i = cols.index(128)
    vals = [out[t].y[i] for t in (t_small, t_mid, t_big)]
    assert max(vals) == pytest.approx(min(vals), rel=0.02)
    # in between, at least one size separates the thresholds
    diffs = [
        max(out[t].y[i] for t in out) - min(out[t].y[i] for t in out)
        for i, c in enumerate(cols)
        if 8 <= c <= 64
    ]
    assert max(diffs) > 1.0


def test_ablation_window_sweep(run_figure):
    """Bandwidth rises with pipeline depth and saturates well before the
    paper's 100-message window."""
    windows, out = run_figure("window")
    for s in out.values():
        assert s.y[0] < s.y[-1]  # depth 1 is latency-bound
        # saturation: the last doubling gains little
        assert s.y[-1] < s.y[-2] * 1.15
    # import-time sanity: measured with the same message, deeper windows
    # never reduce bandwidth by more than jitter
    for s in out.values():
        for a, b in zip(s.y, s.y[1:]):
            assert b > a * 0.85


def test_ablation_network_presets(run_figure):
    """The paper's premise (Section 1): overlap matters *because* the
    wire is comparable to memcpy.  A much slower wire shrinks the copy
    penalty (schemes converge); a faster wire widens Multi-W's lead."""
    names, out = run_figure("network")
    t = {name: {s: out[s].y[i] for s in out} for i, name in enumerate(names)}
    # slow wire: copies hide behind the wire; generic within 40% of best
    slow = t["slow-wire"]
    assert slow["generic"] < min(slow.values()) * 1.4
    # fast wire: zero-copy advantage grows vs the testbed
    fast_gain = t["fast-wire"]["generic"] / t["fast-wire"]["multi-w"]
    testbed_gain = t["testbed"]["generic"] / t["testbed"]["multi-w"]
    assert fast_gain > testbed_gain
