"""The claims table: every quantitative claim is one row.

What the paper says about a figure ("a factor of 3.4 improvement when
the number of columns is large"), and what we say about an ablation or
extension, is a :class:`Claim`: the :data:`~repro.bench.sweeps.SWEEPS`
row it reads (the prefix of its id), a series against a baseline, one of
six kinds, the paper's number with its quote, the tolerance between ✅
and 🟡 and the hard bound outside which it is ❌.  :func:`evaluate` turns
one sweep result into measured text, distance from the paper's number
and verdict, for two callers: ``tests/bench/test_claims.py`` on the
checked-in ``results/*.csv`` (tier-1, no simulation) and
``benchmarks/test_claims.py`` on a fresh sweep.  :func:`render` writes
the same outcomes into EXPERIMENTS.md.

A *factor* is always an improvement: baseline / series for times,
series / baseline for bandwidths.  A tuple of series means "each of
them" (their factors are pooled), a tuple of baselines "the best of them
at that x".  Bounds are open intervals.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from repro.bench.report import improvement
from repro.bench.sweeps import ERAS, SWEEPS, Sweep
from repro.schemes import PAPER_SCHEMES, SCHEME_NAMES

__all__ = ["CLAIMS", "Claim", "ClaimError", "evaluate", "load", "read_csv", "render"]

INF = math.inf
OK, SHIFTED, MISSED = "✅", "🟡", "❌"
RATIO, DOMINATES, BAND = "ratio-at-x", "dominates-over-range", "band"
CROSSOVER, IDENTICAL, HOLDS = "crossover-within", "identical-over-range", "holds"


class ClaimError(ValueError):
    """A row and the table it reads do not fit together; the message
    names the row and what is missing."""


@dataclass(frozen=True)
class Claim:
    """One row of :data:`CLAIMS`."""

    id: str  # "<SWEEPS row>/<name>"
    kind: str
    series: Union[str, tuple] = ()
    baseline: Union[str, tuple] = ()
    #: the x it reads, or the inclusive x range (default: the whole grid)
    at: Union[int, str, None] = None
    over: Optional[tuple] = None
    #: the paper's number: a factor, ``{stat: factor}`` for a band, the
    #: first winning x for a crossover
    paper: Union[float, dict, None] = None
    #: how far from it is still ✅: relative, or octaves for a crossover
    tol: float = 0.15
    #: ``(lo, hi)``, or ``{stat: (lo, hi)}`` for a band
    bound: Union[tuple, dict] = (-INF, INF)
    expect: str = OK
    quote: str = ""  # the sentence claimed; empty = the row above's
    note: str = ""
    #: ``holds`` only: ``{series: {x: y}} -> float``, formatted into
    #: ``text`` as ``{v}``
    value: Optional[Callable] = None
    text: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ClaimError(f"{self.id}: unknown kind {self.kind!r}")
        if self.sweep not in SWEEPS:
            raise ClaimError(f"{self.id}: {self.sweep!r} is not a row of SWEEPS")
        for key in (*_each(self.series), *_each(self.baseline)):
            if key not in SWEEPS[self.sweep].series:
                raise ClaimError(
                    f"{self.id}: {key!r} is not a series of SWEEPS[{self.sweep!r}]"
                )

    @property
    def sweep(self) -> str:
        return self.id.split("/")[0]


class Outcome(NamedTuple):
    verdict: str
    measured: str  # generated: the values and where they were read
    distance: str  # of every reading from the paper's number, signed
    message: str  # one line: row, x, measured, bound, paper number


# ----------------------------------------------------------------------
# the evaluator: a kind turns (claim, sweep, xs, {series: {x: y}}) into
# the measured text and its readings ``(name, value, lo, hi, paper)``
# ----------------------------------------------------------------------

_ANY = (-INF, INF)


def _each(keys) -> tuple:
    return (keys,) if isinstance(keys, str) else tuple(keys)


def _spread(values) -> float:
    values = list(values)
    return max(values) - min(values)


def _cell(claim: Claim, cells: dict, series: str, x) -> float:
    try:
        return cells[series][x]
    except KeyError:
        missing = f"x={x!r} of series" if series in cells else "series"
        raise ClaimError(
            f"{claim.id}: {missing} {series!r} is not in the {claim.sweep} table"
        ) from None


def _grid(claim: Claim, xs: list) -> list:
    ends = [claim.at] if claim.at is not None else list(claim.over or ())
    for x in ends:
        if x not in xs:
            raise ClaimError(
                f"{claim.id}: x={x!r} is not on the {claim.sweep} grid {xs}"
            )
    if claim.at is None and claim.over:
        return [x for x in xs if ends[0] <= x <= ends[1]]
    return ends or xs


def _factors(claim: Claim, sweep: Sweep, cells: dict, series: str, grid) -> list:
    unit = sweep.unit if isinstance(sweep.unit, str) else sweep.unit[series]
    best = max if unit.startswith("MB") else min
    own = [_cell(claim, cells, series, x) for x in grid]
    base = [
        best(_cell(claim, cells, b, x) for b in _each(claim.baseline)) for x in grid
    ]
    return improvement(own, base) if best is max else improvement(base, own)


def _times(*factors: float) -> str:
    """A factor or a range of them; within 10 % of 1 as a percentage."""
    if all(abs(f - 1) < 0.1 for f in factors):
        return " to ".join(f"{f - 1:+.1%}" for f in factors)
    return "–".join(f"{f:.2f}" for f in factors) + "×"


def _where(sweep: Sweep, grid: list) -> str:
    axis = sweep.axis.replace("_", " ")
    if len(grid) == 1:
        return f"at {grid[0]} {axis}"
    if isinstance(grid[0], str):
        return f"over every {axis}"
    return f"over {grid[0]}–{grid[-1]} {axis}"


def _stats(claim, sweep, xs, cells):
    """``band``, ``dominates-over-range`` and ``ratio-at-x``: a bound or a
    paper number that names no statistic is on the minimum."""
    grid = _grid(claim, xs)
    per = {s: _factors(claim, sweep, cells, s, grid) for s in _each(claim.series)}
    pooled = [f for fs in per.values() for f in fs]
    stats = {"min": min(pooled), "max": max(pooled), "avg": sum(pooled) / len(pooled)}
    bound = claim.bound if isinstance(claim.bound, dict) else {"min": claim.bound}
    paper = claim.paper if isinstance(claim.paper, dict) else {"min": claim.paper}
    text = ", ".join(
        (f"{sweep.series[s]} " if len(per) > 1 else "")
        + _times(*sorted({min(fs), max(fs)}))
        for s, fs in per.items()
    )
    if claim.kind == BAND and len(per) == 1:
        text += f", avg {_times(stats['avg'])}"
    return f"{text} {_where(sweep, grid)}", [
        (k, v, *bound.get(k, _ANY), paper.get(k))
        for k, v in stats.items()
        if k in bound or k in paper
    ]


def _crossover(claim, sweep, xs, cells):
    grid = _grid(claim, xs)
    fs = _factors(claim, sweep, cells, claim.series, grid)
    first = next((i for i, f in enumerate(fs) if i and f > 1), None)
    where = _where(sweep, grid[:1])
    ahead = (
        f"never ahead up to {grid[-1]}" if first is None
        else f"ahead from {grid[first]} ({_times(fs[first])})"
    )
    return f"{_times(fs[0])} {where}, {ahead}", [
        (where, fs[0], -INF, 1, None),
        ("first ahead at", INF if first is None else grid[first],
         grid[0], INF, claim.paper),
    ]


def _identical(claim, sweep, xs, cells):
    grid = _grid(claim, xs)
    columns = [[_cell(claim, cells, s, x) for s in _each(claim.series)] for x in grid]
    spread = max(_spread(ys) / min(ys) for ys in columns)
    text = "identical to the digit" if spread == 0 else f"within {spread:.2%}"
    return f"{text} {_where(sweep, grid)}", [("spread", spread, *claim.bound, None)]


def _holds(claim, sweep, xs, cells):
    try:
        v = claim.value(cells)
    except KeyError as exc:
        raise ClaimError(
            f"{claim.id}: {exc.args[0]!r} is not in the {claim.sweep} table"
        ) from None
    return claim.text.format(v=v), [("value", v, *claim.bound, None)]


_KINDS = {
    RATIO: _stats, DOMINATES: _stats, BAND: _stats,
    CROSSOVER: _crossover, IDENTICAL: _identical, HOLDS: _holds,
}


def evaluate(claim: Claim, xs, ys: dict) -> Outcome:
    """Evaluate one row on one sweep result ``(xs, {series key: ys})``."""
    cells = {s: dict(zip(xs, y)) for s, y in ys.items()}
    measured, readings = _KINDS[claim.kind](claim, SWEEPS[claim.sweep], xs, cells)
    far, missed, distances = False, "", []
    for name, value, lo, hi, paper in readings:
        if not lo < value < hi:
            missed += f"; {name} = {value:.4g} is outside ({lo:g}, {hi:g})"
        if paper is None:
            continue
        octaves = claim.kind == CROSSOVER
        d = math.log2(value / paper) if octaves else (value - paper) / paper
        far = far or abs(d) > claim.tol
        stat = f"{name} " if claim.kind == BAND else ""
        d = f"{d:+g} octaves" if octaves else f"{stat}{d:+.0%}"
        distances.append(f"{d} vs {paper:g}")
    verdict = MISSED if missed else SHIFTED if far else OK
    distance = ", ".join(distances)
    message = f"{verdict} {claim.id}: {measured}{missed}"
    if distance:
        message += f"; distance from the paper: {distance}"
    if verdict != claim.expect:
        message += f" (expected {claim.expect})"
    return Outcome(verdict, measured, distance, message)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

def _gain(cells: dict, series: str, baseline: str, x) -> float:
    return cells[baseline][x] / cells[series][x]


_THRESHOLDS = ("2048", "8192", "32768")
_BAND11 = {"min": (1.05, INF), "max": (0, 2.2), "avg": (1.1, 1.9)}

#: the ``presets`` cells where a datatype send trails pack-then-send,
#: ``{scheme: ((preset, cols), ...)}``
_BEHIND_MANUAL = {
    "generic": (*((p, 64) for p in ERAS), *((p, 512) for p in ERAS[1:])),
    "multi-w": (*((p, 64) for p in ERAS if p != "shared_memory_node"),
                ("gpu_kernel_pack", 512)),
    "hybrid": (("hdr_ib_2020", 64), ("ndr_ib_2023", 64), ("gpu_kernel_pack", 512)),
}
_LATENCIES = [
    (p, s, x) for p in ERAS for s in SCHEME_NAMES for x in SWEEPS["presets"].xs
]
#: the P-RRS series whose latency dips from 8 to 64 columns
_DIPPING = ("hdr_ib_2020:p-rrs", "ndr_ib_2023:p-rrs", "shared_memory_node:p-rrs")


def _vs_manual(c: dict, cells) -> list:
    """Datatype over pack-then-send latency at each ``(preset, scheme, cols)``."""
    return [c[f"{p}:{s}"][x] / c[f"{p}:Manual"][x] for p, s, x in cells]


def _behind(scheme: str) -> list:
    return [(p, scheme, x) for p, x in _BEHIND_MANUAL.get(scheme, ())]


def _steps(c: dict, series) -> list:
    """Every successive ratio along each of ``series``."""
    return [b / a for s in series for a, b in pairwise(c[s].values())]


def _others(preset: str) -> tuple:
    """``preset``'s bandwidth series of every scheme but BC-SPUP."""
    return tuple(f"{preset}:{s}:bw" for s in SCHEME_NAMES if s != "bc-spup")


def _lead(c: dict, preset: str) -> float:
    """BC-SPUP's bandwidth at 512 cols over the fastest other scheme's."""
    return c[f"{preset}:bc-spup:bw"][512] / max(c[s][512] for s in _others(preset))

CLAIMS = (
    # -- Figure 2 (latency; factors are relative performance) ----------
    Claim("fig02/quarter-of-contig", BAND,
          ("Datatype", "DT+reg", "Manual", "Multiple"), "Contig",
          over=(64, 2048), bound={"max": (0, 0.45)},
          quote='"no more than one quarter of contiguous communication '
          'performance is achieved in any scheme"',
          note="Multiple's best point is above ¼, as in the paper's own plot"),
    Claim("fig02/manual-beats-datatype", DOMINATES, "Manual", "Datatype",
          over=(32, 2048), bound=(1 / 1.02, INF),
          quote='"Manual performs a little better than Datatype"'),
    Claim("fig02/dtreg-much-slower", DOMINATES, "Datatype", "DT+reg",
          over=(32, 2048), bound=(1.15, INF),
          quote='"DT+reg is much slower than Datatype"'),
    Claim("fig02/multiple-large-blocks", RATIO, "Multiple", "Datatype", at=2048,
          bound=(1, INF), quote='"Multiple performs a little better when the '
          'block size is large enough" ...'),
    Claim("fig02/multiple-small-blocks", RATIO, "Multiple", "Datatype", at=8,
          bound=(0, 0.5), quote="... but collapses for small blocks"),
    # -- Figure 8 ------------------------------------------------------
    Claim("fig08/bc-spup-consistent", DOMINATES, "bc-spup", "generic",
          bound=(1 / 1.005, INF),
          quote='"BC-SPUP performs better than the Generic scheme consistently"'),
    Claim("fig08/bc-spup-large", RATIO, "bc-spup", "generic", at=2048,
          paper=1.5, bound=(1.3, INF),
          quote='"a factor of 1.5 improvement ... for large datatype messages"'),
    Claim("fig08/rwg-up-max", BAND, "rwg-up", "generic", paper={"max": 1.8},
          bound={"max": (1.8 - 0.35, 1.8 + 0.35)},
          quote='RWG-UP reaches "a factor of up to 1.8"'),
    Claim("fig08/rwg-up-most-cases", DOMINATES, "rwg-up", "generic",
          over=(32, 2048), bound=(1, INF),
          quote='"RWG-UP performs better than the Generic scheme in most '
          'cases, except [when] the size of contiguous block is too small"'),
    Claim("fig08/multi-w-large", RATIO, "multi-w", "generic", at=2048,
          paper=3.4, bound=(2.3, INF), expect=SHIFTED,
          quote='"Multi-W offers a factor of 3.4 improvement when the number '
          'of columns is large"',
          note="ordering and curve shape match; our Generic baseline is "
          "slightly cheaper than theirs (warm staging buffers; their per-op "
          "mallocs hit the glibc mmap-threshold path)"),
    Claim("fig08/multi-w-small-blocks", CROSSOVER, "multi-w", "generic",
          over=(32, 2048),
          quote='"When the size of contiguous blocks is small, Multi-W '
          'performance degrades significantly"'),
    Claim("fig08/eager-identical", IDENTICAL, PAPER_SCHEMES[1:], over=(1, 2),
          bound=(-INF, 1e-6),
          quote="1-2 columns: all new schemes identical (same eager path) ..."),
    Claim("fig08/eager-beats-generic", DOMINATES, "bc-spup", "generic",
          over=(1, 2), bound=(1, INF),
          quote="... perceivably better than Generic (2 copies saved, Fig. 7)"),
    # -- Figure 9 (bandwidth) ------------------------------------------
    Claim("fig09/bc-spup-rwg-up-band", BAND, ("bc-spup", "rwg-up"), "generic",
          over=(32, 2048), paper={"max": 2.0},
          bound={"min": (1.1, INF), "max": (0, 2.6)}, expect=SHIFTED,
          quote='"Both BC-SPUP and RWG-UP give a factor of 1.2-2.0 '
          'improvement over the Generic scheme"',
          note="RWG-UP inside the band; BC-SPUP overshoots its top: our "
          "sender-paced arrivals let its receiver unpack run uncontended, "
          "the paper's machines were messier"),
    Claim("fig09/multi-w-band", BAND, "multi-w", "generic", over=(128, 2048),
          paper={"min": 1.4, "max": 3.6}, bound={"min": (1.0, INF)},
          expect=SHIFTED,
          quote='"Multi-W gives a factor of 1.4-3.6 improvement ... when the '
          'number of columns is larger than 64"',
          note="the band's lower end is reached one grid step later than in "
          "the paper: our per-descriptor HCA startup is bounded below by the "
          "contiguous-latency calibration"),
    Claim("fig09/multi-w-beyond-crossover", DOMINATES, "multi-w", "generic",
          over=(256, 2048), bound=(1.2, INF)),
    Claim("fig09/multi-w-large", RATIO, "multi-w", "generic", at=2048,
          bound=(2.0, INF)),
    Claim("fig09/multi-w-degrades", DOMINATES, "generic", "multi-w",
          over=(32, 64), bound=(1, INF),
          quote='4-64 cols: "Multi-W performance degrades a lot" (Generic over it)'),
    Claim("fig09/below-the-wire", HOLDS, bound=(0, 900),
          value=lambda c: max(max(ys.values()) for ys in c.values()),
          text="peak {v:.0f} MB/s over every scheme and size",
          quote="every scheme stays below the wire's capability"),
    # -- Figure 11 -----------------------------------------------------
    Claim("fig11/bc-spup", BAND, "bc-spup", "generic", bound=_BAND11,
          paper={"min": 1.2, "max": 1.5, "avg": 1.3},
          quote="improvement over Generic: BC-SPUP min 1.2 / max 1.5 / avg 1.3"),
    Claim("fig11/rwg-up", BAND, "rwg-up", "generic", bound=_BAND11,
          paper={"min": 1.2, "max": 1.4, "avg": 1.3}, expect=SHIFTED,
          quote="RWG-UP min 1.2 / max 1.4 / avg 1.3",
          note="same direction, our gather path benefits more"),
    Claim("fig11/multi-w", BAND, "multi-w", "generic",
          bound={"min": (1.3, INF), "avg": (1.6, INF)},
          paper={"min": 1.8, "max": 2.1, "avg": 2.0}, expect=SHIFTED,
          quote="Multi-W min 1.8 / max 2.1 / avg 2.0",
          note="stronger than the paper at the large end"),
    Claim("fig11/multi-w-best", DOMINATES, "multi-w", ("bc-spup", "rwg-up"),
          bound=(1, INF),
          quote='"For this datatype ... Multi-W is a good choice."'),
    # -- Figure 12 -----------------------------------------------------
    Claim("fig12/segment-unpack", BAND, "seg-unpack", "whole-unpack",
          paper={"max": 1.3},
          bound={"min": (0.99, INF), "max": (1.3 - 0.25, 1.3 + 0.25)},
          quote='"a factor of 1.3 improvement in bandwidth can be achieved '
          'using the segment unpack"'),
    Claim("fig12/large-messages", DOMINATES, "seg-unpack", "whole-unpack",
          over=(512, 2048), bound=(1.1, INF)),
    # -- Figure 13 -----------------------------------------------------
    Claim("fig13/max", BAND, "list", "single", paper={"max": 2.0},
          bound={"min": (0.97, INF), "max": (1.8 - 0.5, 1.8 + 0.5)},
          quote='"the list post offers improvement with a maximum factor of 2.0 ...'),
    Claim("fig13/min-avg", BAND, "list", "single", over=(32, 2048),
          paper={"min": 1.2, "avg": 1.6}, expect=SHIFTED,
          quote='... and a minimum factor of 1.2 over the single post.  The '
          'average improvement factor is 1.6."',
          note="the gain where posting rivals wire time reproduces; the "
          "paper's nonzero floor at the largest blocks does not — their "
          "single posts likely also consumed PCI-X bandwidth (descriptor "
          "fetch per doorbell), which our CPU-side post cost does not model"),
    Claim("fig13/posting-is-costly", BAND, "list", "single", over=(4, 256),
          bound={"avg": (1.15, INF)}, quote='"posting descriptor is costly"'),
    # -- Figure 14 -----------------------------------------------------
    Claim("fig14/rdma-schemes-poor", DOMINATES, "generic", ("rwg-up", "multi-w"),
          over=(32, 128), bound=(1, INF),
          quote='"When the number of columns is less than 512, both RWG-UP '
          'and Multi-W schemes perform very poor[ly]" (Generic over the better)'),
    Claim("fig14/rwg-up-crossover", CROSSOVER, "rwg-up", "generic",
          over=(128, 2048), paper=512, tol=1,
          quote='"When the number of columns increases ... both RWG-UP and '
          'Multi-W perform better than Generic due to reduced memory copies"'),
    Claim("fig14/multi-w-crossover", CROSSOVER, "multi-w", "generic",
          over=(128, 2048), paper=512, tol=1),
    Claim("fig14/large", DOMINATES, ("rwg-up", "multi-w"), "generic", at=2048,
          bound=(1, INF)),
    Claim("fig14/bc-spup-always", DOMINATES, "bc-spup", "generic",
          bound=(1 / 1.01, INF),
          quote='"In this test, BC-SPUP always performs better than Generic"'),
    # -- ablations (the sentences are ours, the paper plots none) ------
    Claim("segment-size/small-segments-lose", HOLDS, bound=(0, INF),
          value=lambda c: c["latency"][8192] / c["latency"][131072] - 1,
          text="8 KB segments are {v:.1%} slower than 128 KB",
          quote='BC-SPUP segment size (§7.2: "tuning ... is quite important")'),
    Claim("segment-size/paper-choice", HOLDS, bound=(-INF, 1 / 0.9 - 1),
          value=lambda c: c["latency"][131072] / min(c["latency"].values()) - 1,
          text="the paper's 128 KB choice is within {v:.1%} of the sweep's best"),
    Claim("registration/ogr-never-loses", DOMINATES, "ogr", ("per-block", "whole"),
          bound=(1 / 1.02, INF),
          quote="Registration (§5.4.1), no pin-down cache: OGR never loses ..."),
    Claim("registration/per-block-painful", RATIO, "ogr", "per-block", at=64,
          bound=(1.3, INF), quote="... and per-block pays a base cost per block"),
    Claim("dtcache/gain", BAND, "cached", "uncached",
          bound={"min": (1 / 1.005, INF), "max": (1.005, INF)},
          quote="Multi-W datatype cache (§5.4.2): never worse warm, visibly better"),
    Claim("adaptive/never-loses-to-generic", DOMINATES, "adaptive", "generic",
          bound=(1 / 1.005, INF),
          quote="Adaptive selector (§6): never loses to Generic ..."),
    Claim("adaptive/tracks-best-fixed", DOMINATES, "adaptive", PAPER_SCHEMES,
          bound=(1 / 1.30, INF), quote="... and tracks the best fixed scheme"),
    Claim("prrs/trails-rwg-up", BAND, "rwg-up", "p-rrs",
          bound={"min": (1, INF), "max": (0, 2.5)},
          quote="P-RRS (§5.2, argued, never measured) trails RWG-UP, not by much"),
    Claim("network/slow-wire-converges", RATIO, "generic", PAPER_SCHEMES,
          at="slow-wire", bound=(1 / 1.4, INF),
          quote="Network presets (§1's premise): a slow wire hides the copies ..."),
    Claim("network/fast-wire-widens", HOLDS, bound=(1, INF),
          value=lambda c: _gain(c, "multi-w", "generic", "fast-wire")
          / _gain(c, "multi-w", "generic", "testbed"),
          text="Multi-W's lead over Generic is {v:.2f}× its lead on the testbed",
          quote="... on a fast wire the zero-copy lead grows"),
    Claim("window/deeper-is-faster", HOLDS, bound=(1, INF),
          value=lambda c: min(ys[100] / ys[1] for ys in c.values()),
          text="100 messages in flight reach at least {v:.2f}× one's bandwidth",
          quote="Window depth: the paper's 100 messages are far past saturation"),
    Claim("window/saturates", HOLDS, bound=(-INF, 0.15),
          value=lambda c: max(ys[100] / ys[32] for ys in c.values()) - 1,
          text="the last step, 32 to 100 in flight, gains at most {v:.1%}"),
    Claim("window/never-loses", HOLDS, bound=(0.85, INF),
          value=lambda c: min(
              b / a for ys in c.values() for a, b in pairwise(ys.values())),
          text="the worst deepening keeps {v:.2f}× the bandwidth"),
    Claim("eager-threshold/eager-everywhere", IDENTICAL, _THRESHOLDS, at=2,
          bound=(-INF, 1e-6),
          quote="Eager threshold: the paths coincide outside the switchover ..."),
    Claim("eager-threshold/rendezvous-everywhere", IDENTICAL, _THRESHOLDS,
          at=128, bound=(-INF, 0.02)),
    Claim("eager-threshold/seam", HOLDS, bound=(1.0, INF),
          value=lambda c: max(
              _spread(ys[x] for ys in c.values()) for x in (8, 16, 32, 64)),
          text="sizes between two thresholds differ by up to {v:.1f} µs",
          quote="... and expose the eager-copy vs handshake seam between them"),
    # -- extensions ----------------------------------------------------
    Claim("hybrid/beats-every-fixed-scheme", DOMINATES, "hybrid", PAPER_SCHEMES,
          bound=(1, INF),
          quote="Per-piece hybrid (§10 future work) wins on bimodal datatypes ..."),
    Claim("hybrid/multi-w-drowns", RATIO, "multi-w", "rwg-up", at=2048,
          bound=(0, 1), quote="... while Multi-W drowns in per-block startups"),
    Claim("skampi/every-shape-runs", HOLDS, bound=(0, INF),
          value=lambda c: min(min(ys.values()) for ys in c.values()),
          text="every scheme finishes every shape (fastest cell {v:.0f} µs)",
          quote="SKaMPI-style patterns (ref [25]): every shape runs ..."),
    Claim("skampi/never-lose-to-generic", DOMINATES, ("bc-spup", "adaptive"),
          "generic", bound=(1 / 1.01, INF),
          quote="... BC-SPUP and the selector never lose to Generic ..."),
    Claim("skampi/multi-w-big-blocks", RATIO, "multi-w", "generic",
          at="vector-large", bound=(1, INF),
          quote="... and Multi-W follows the block-size story across shapes"),
    Claim("skampi/multi-w-tiny-blocks", HOLDS, bound=(1, INF),
          value=lambda c: c["multi-w"]["vector-small"] / c["multi-w"]["vector-large"],
          text="Multi-W takes {v:.0f}× as long on vector-small as on vector-large"),
    Claim("eager-rdma/ring-wins-eager", DOMINATES, "ring", "channel",
          over=(8, 8192), bound=(1, INF),
          quote="Polled RDMA-eager ring (ref [19]) speeds up every eager message ..."),
    Claim("eager-rdma/smallest-message", RATIO, "ring", "channel", at=8,
          bound=(1 / 0.92, INF)),
    Claim("eager-rdma/constant-saving", HOLDS, bound=(-INF, 0.5),
          value=lambda c: _spread(
              c["channel"][x] - c["ring"][x] for x in c["ring"] if x <= 8192),
          text="the saving is the same at every eager size (spread {v:.2f} µs)"),
    Claim("eager-rdma/identical-rendezvous", IDENTICAL, ("channel", "ring"),
          at=65536, bound=(-INF, 0.01),
          quote="... and is not involved above the rendezvous threshold"),
    Claim("io-strategies/write-rdma-wins", DOMINATES, "write-rdma", "write-pack",
          bound=(1, INF),
          quote="Noncontiguous file I/O (refs [31], [33]): RDMA beats packing ..."),
    Claim("io-strategies/read-rdma-wins", DOMINATES, "read-rdma", "read-pack",
          bound=(1, INF)),
    Claim("io-strategies/margin-narrows", HOLDS, bound=(1, INF),
          value=lambda c: _gain(c, "write-rdma", "write-pack", 65536)
          / _gain(c, "write-rdma", "write-pack", 64),
          text="the write margin at 64 KB blocks is {v:.2f}× that at 64 B blocks",
          quote="... the margin narrows as blocks shrink ..."),
    Claim("io-strategies/reads-trail-writes", RATIO, "read-rdma", "write-rdma",
          at=65536, bound=(0, 1),
          quote="... and reads trail writes (RDMA read bandwidth < write)"),
    Claim("rma/put-never-loses", DOMINATES, "put", "send", bound=(1 / 1.05, INF),
          quote="One-sided RMA ([14]): a put never loses to a Multi-W send ..."),
    Claim("rma/handshake-share", HOLDS, bound=(1, INF),
          value=lambda c: _gain(c, "put", "send", 64) / _gain(c, "put", "send", 2048),
          text="put's gain at 64 cols is {v:.2f}× its gain at 2048 cols",
          quote="... most visibly for the smallest message"),
    # -- the paper's claims on other hardware: Hunold–Träff-style
    # guidelines (PAPERS.md) over the cost-model presets; an ❌ row is a
    # known exception, its note the reason ----------------------------
    Claim("presets/datatype-vs-manual", HOLDS, bound=(-INF, 1.02),
          value=lambda c: max(_vs_manual(c, (
              cell for cell in _LATENCIES if cell not in _behind(cell[1])))),
          text="every other datatype send is within {v:.3f}× pack-then-send",
          quote="Guideline: a datatype send is no slower than packing by hand "
          "and sending the bytes, on every preset, scheme and size ..."),
    Claim("presets/generic-behind-manual", HOLDS, bound=(-INF, 1.02),
          value=lambda c: min(_vs_manual(c, _behind("generic"))),
          text="Generic at 64 cols on every preset and 512 off the testbed: "
          "at least {v:.3f}× pack-then-send", expect=MISSED,
          note="the paper's own Figure 2 motivation: Generic is the "
          "unoptimized engine (pack, send, unpack) and pays an extra copy plus "
          "the staging buffer's registration that pack-then-send amortizes"),
    Claim("presets/multi-w-behind-manual", HOLDS, bound=(-INF, 1.02),
          value=lambda c: min(_vs_manual(c, _behind("multi-w"))),
          text="Multi-W at 64 cols (not on shared memory) and 512 on the GPU: "
          "at least {v:.3f}× pack-then-send", expect=MISSED,
          note="one RDMA write per contiguous block: few, small columns pay "
          "per-block descriptor and registration cost that one packed send "
          "amortizes; the paper positions Multi-W for large blocks"),
    Claim("presets/hybrid-behind-manual", HOLDS, bound=(-INF, 1.02),
          value=lambda c: min(_vs_manual(c, _behind("hybrid"))),
          text="Hybrid at 64 cols on HDR/NDR and 512 on the GPU: at least "
          "{v:.3f}× pack-then-send", expect=MISSED,
          note="the zero-copy leg registers the user buffer per message; just "
          "past the switch point the saved copy does not yet amortize it (the "
          "GPU preset's host registration costs 90 µs)"),
    Claim("presets/count-monotonic", HOLDS, bound=(0.95, INF),
          value=lambda c: min(_steps(c, (
              f"{p}:{s}" for p in ERAS for s in SCHEME_NAMES
              if f"{p}:{s}" not in _DIPPING))),
          text="each step from 8 to 64 to 512 cols takes at least {v:.3f}× "
          "the latency before it", quote="... a larger message is never faster ..."),
    Claim("presets/p-rrs-pipeline-dip", HOLDS, bound=(0.95, INF),
          value=lambda c: max(min(_steps(c, (s,))) for s in _DIPPING),
          text="P-RRS on HDR, NDR and shared memory: 64 cols take at most "
          "{v:.3f}× the 8-col latency", expect=MISSED,
          note="pipelined RDMA reads: at 8 columns too few blocks fill the "
          "pipeline and reads serialize behind resource and registration "
          "waits; at 64 it fills, before per-block costs take over at 512"),
    Claim("presets/specialized-beat-generic", HOLDS, bound=(0.95, INF),
          value=lambda c: min(
              c[f"{p}:{s}:bw"][512] / c[f"{p}:generic:bw"][512]
              for p in ERAS for s in SCHEME_NAMES[1:]),
          text="every other scheme streams at least {v:.2f}× Generic's "
          "bandwidth at 512 cols on every preset",
          quote="... the specialized schemes stream at least Generic's "
          "bandwidth at large messages ..."),
    Claim("presets/bc-spup-fastest", HOLDS, bound=(1, INF),
          value=lambda c: min(_lead(c, p) for p in ERAS[:4]),
          text="BC-SPUP leads every other scheme at 512 cols by at least "
          "{v:.3f}× on the testbed, HDR, NDR and shared memory",
          quote="... and the fastest of them on the testbed stays fastest ..."),
    Claim("presets/gpu-rwg-up-fastest", RATIO, "gpu_kernel_pack:bc-spup:bw",
          _others("gpu_kernel_pack"), at=512, paper=1.019, tol=0.02,
          bound=(0.95, INF), expect=SHIFTED,
          note="1.019 is BC-SPUP's lead on the testbed, and 2 % below it is "
          "where the lead is lost: on the GPU preset RWG-UP's zero-copy "
          "gather edges past BC-SPUP's kernel-launch-bound pack"),
    Claim("contig/no-inversion", HOLDS, bound=(0.95, INF),
          value=lambda c: min(_steps(c, ERAS[:4])),
          text="each size takes at least {v:.2f}× the latency of half of it, "
          "on every preset but the GPU's",
          quote="Guideline: crossing the eager/rendezvous switch never makes "
          "a larger message faster ..."),
    Claim("contig/gpu-rendezvous-beats-eager", HOLDS, bound=(0.95, INF),
          value=lambda c: min(_steps(c, ("gpu_kernel_pack",))),
          text="on the GPU preset 16 KB takes {v:.2f}× the 8 KB latency",
          expect=MISSED,
          note="eager stages through a pack-kernel launch and a copy into "
          "pre-registered bounce buffers, rendezvous registers once and sends "
          "zero-copy: why GPU-aware MPIs lower the eager threshold for device "
          "memory (the preset already uses 8 KB)"),
)


# ----------------------------------------------------------------------
# the committed CSVs and EXPERIMENTS.md
# ----------------------------------------------------------------------

def read_csv(sweep: str, root) -> tuple:
    """``(xs, {series key: ys})`` of ``sweep``'s CSV under ``root``, its
    column labels mapped back to series keys."""
    row = SWEEPS[sweep]
    with open(Path(root) / row.csv, newline="") as fh:
        header, *lines = csv.reader(fh)
    xs = [int(line[0]) if line[0].isdigit() else line[0] for line in lines]
    return xs, {
        key: [float(line[header.index(label)]) for line in lines]
        for key, label in row.series.items()
        if label in header
    }


def load(root) -> dict:
    """``{sweep: (xs, ys)}`` for every sweep a claim reads."""
    return {s: read_csv(s, root) for s in dict.fromkeys(c.sweep for c in CLAIMS)}


_BLOCK = re.compile(r"(<!-- claims:([\w -]+) -->\n).*?(<!-- /claims -->)", re.S)


def render(text: str, tables: dict) -> str:
    """``text`` (EXPERIMENTS.md) with every ``<!-- claims:<sweeps> -->``
    ... ``<!-- /claims -->`` block regenerated from those sweeps' rows."""

    def block(match) -> str:
        rows = [c for c in CLAIMS if c.sweep in match[2].split()]
        if not rows:
            raise ClaimError(f"no claim reads any sweep of block {match[2]!r}")
        lines = ["| Row | Claim | Measured | Verdict |", "|---|---|---|---|"]
        for claim in rows:
            o = evaluate(claim, *tables[claim.sweep])
            verdict = " — ".join(filter(None, (
                f"{o.verdict} {o.distance}".strip(), claim.note
            )))
            lines.append(
                f"| `{claim.id}` | {claim.quote or '〃'} | {o.measured} | {verdict} |"
            )
        return match[1] + "\n".join(lines) + "\n" + match[3]

    return _BLOCK.sub(block, text)
