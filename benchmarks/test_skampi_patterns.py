"""SKaMPI-style datatype pattern benchmark (paper Section 8, ref [25]).

Checks that every scheme handles every datatype *shape* (including
nested and irregular constructions) and that the scheme ranking follows
the block-size story across shapes.
"""

import pytest

from repro.bench.skampi import PATTERNS, make_pattern


def test_skampi_patterns(run_figure):
    patterns, out = run_figure("skampi")
    idx = {name: i for i, name in enumerate(patterns)}

    # every scheme produced a finite latency for every shape
    for series in out.values():
        assert len(series.y) == len(patterns)
        assert all(v > 0 for v in series.y)

    gen = out["generic"].y
    bcs = out["bc-spup"].y
    mw = out["multi-w"].y
    ada = out["adaptive"].y

    # BC-SPUP never loses to Generic on any shape
    for i in range(len(patterns)):
        assert bcs[i] <= gen[i] * 1.01, patterns[i]

    # Multi-W wins the big-block shapes, loses the tiny-block one
    assert mw[idx["vector-large"]] < gen[idx["vector-large"]]
    assert mw[idx["vector-small"]] > mw[idx["vector-large"]]

    # the adaptive selector never loses to Generic on any shape
    for i in range(len(patterns)):
        assert ada[i] <= gen[i] * 1.01, patterns[i]


def test_patterns_carry_equal_payload():
    sizes = {name: make_pattern(name).size for name in PATTERNS}
    target = sizes["contig"]
    for name, size in sizes.items():
        assert size == pytest.approx(target, rel=0.05), (name, size)
