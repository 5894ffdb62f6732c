"""Sweep, classify, explain: the guidelines checking harness.

The harness builds one grid of :class:`~repro.bench.parallel.Cell`
measurements per cost-model preset — every scheme's ping-pong latency
(fig08 workload), the Manual pack-then-send reference (fig02), every
scheme's streaming bandwidth (fig09), and a contiguous latency probe
around the preset's eager threshold — and fans the grid out through the
cached process-pool runner.  Cells carry their preset *by name* in
``Cell.extra``, so they stay picklable and the content-addressed cache
keys each preset's cells on the preset's resolved parameters.

:func:`evaluate` then walks the guideline catalogue over the measured
values and classifies every check:

* ``pass`` — the expectation holds;
* ``violation`` — a self-consistent guideline broke, or a paper
  expectation broke on the paper's own testbed;
* ``crossover-shift`` — a paper expectation moved on different
  hardware (reported, never failing).

Every violation is handed to the :mod:`repro.obs.explain`
predicted-vs-simulated machinery: the violating transfer is re-run
under the critical-path profiler on the violating preset (and on the
baseline, for comparison), and the check is annotated with the cost
category — copy / wire / descriptor / registration / waits — whose
share of the critical path moved the most.  That category is what a
waiver can pin (:mod:`repro.guidelines.waivers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bench.parallel import Cell, run_cells
from repro.guidelines.registry import GUIDELINES
from repro.ib.costmodel import get_preset

__all__ = [
    "BASELINE_PRESET",
    "BW_COLUMNS",
    "DEFAULT_PRESETS",
    "GUIDELINE_SCHEMES",
    "LAT_COLUMNS",
    "CheckResult",
    "build_cells",
    "crossover_sizes",
    "evaluate",
    "explain_violation",
    "run_check",
    "sweep",
]

#: the paper's testbed — expectations are anchored here
BASELINE_PRESET = "mellanox_2003"

#: presets the observatory sweeps by default (the cross-era line-up)
DEFAULT_PRESETS = (
    "mellanox_2003",
    "hdr_ib_2020",
    "ndr_ib_2023",
    "shared_memory_node",
    "gpu_kernel_pack",
)

#: all seven schemes — the four paper schemes plus p-rrs, hybrid, adaptive
GUIDELINE_SCHEMES = (
    "generic",
    "bc-spup",
    "rwg-up",
    "p-rrs",
    "multi-w",
    "hybrid",
    "adaptive",
)

#: column-vector sizes for the latency guidelines (small / mid / large)
LAT_COLUMNS = (8, 64, 512)
#: column-vector sizes for the bandwidth (dominance) guideline
BW_COLUMNS = (64, 512)

#: scheme used for the contiguous eager/rendezvous probe
_CONTIG_SCHEME = "bc-spup"


@dataclass
class CheckResult:
    """One classified guideline check."""

    guideline: str
    preset: str
    status: str  # "pass" | "violation" | "crossover-shift"
    scheme: Optional[str] = None
    figure: Optional[str] = None
    x: Optional[int] = None
    detail: str = ""
    measured: dict = field(default_factory=dict)
    #: filled for violations: moved_category, shares, divergent, total_us
    explanation: Optional[dict] = None
    waived: bool = False
    waiver_reason: str = ""

    @property
    def failing(self) -> bool:
        """True when this check should fail CI."""
        return self.status == "violation" and not self.waived

    def key(self) -> str:
        """Stable coordinate string (reports, debugging)."""
        parts = [self.guideline, self.preset]
        if self.scheme:
            parts.append(self.scheme)
        if self.figure:
            parts.append(self.figure)
        if self.x is not None:
            parts.append(str(self.x))
        return "/".join(parts)


def crossover_sizes(preset: str) -> tuple:
    """Contiguous probe sizes straddling the preset's eager threshold."""
    thr = get_preset(preset).eager_threshold
    return (max(1024, thr // 2), thr, 2 * thr)


def _extra(preset: str) -> tuple:
    return (("preset", preset),)


def build_cells(
    presets: Sequence[str] = DEFAULT_PRESETS,
    schemes: Sequence[str] = GUIDELINE_SCHEMES,
    lat_cols: Sequence[int] = LAT_COLUMNS,
    bw_cols: Sequence[int] = BW_COLUMNS,
) -> list:
    """The full measurement grid, in canonical order."""
    cells = []
    for preset in presets:
        extra = _extra(preset)
        for x in lat_cols:
            cells.append(Cell("fig02", "Manual", x, extra))
            for scheme in schemes:
                cells.append(Cell("fig08", scheme, x, extra))
        for x in bw_cols:
            for scheme in schemes:
                cells.append(Cell("fig09", scheme, x, extra))
        for nbytes in crossover_sizes(preset):
            cells.append(Cell("contig", _CONTIG_SCHEME, nbytes, extra))
    return cells


def sweep(
    presets: Sequence[str] = DEFAULT_PRESETS,
    schemes: Sequence[str] = GUIDELINE_SCHEMES,
    lat_cols: Sequence[int] = LAT_COLUMNS,
    bw_cols: Sequence[int] = BW_COLUMNS,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> dict:
    """Measure the grid through the cached process-pool runner.

    Returns ``{cell: value}`` — complete whatever the worker count, so
    downstream classification is byte-identical at any ``-j``.
    """
    cells = build_cells(presets, schemes, lat_cols, bw_cols)
    return run_cells(cells, jobs=jobs, use_cache=use_cache)


# ----------------------------------------------------------------------
# violation explanation (obs.explain integration)
# ----------------------------------------------------------------------


def explain_violation(scheme: str, preset: str, figure: str, x: int) -> dict:
    """Attribute a violating cell to a cost category.

    Profiles the violating transfer under the violating preset, compares
    its closed-form prediction per category (the
    :mod:`repro.obs.explain` machinery), and names the category whose
    share of the critical path grew the most relative to the baseline
    preset — or simply the dominant category when the violation *is* on
    the baseline.
    """
    from repro.bench.workloads import figure_workload
    from repro.obs.explain import explain
    from repro.obs.profile import CATEGORIES, profile_transfer

    dt = figure_workload(figure, x).datatype
    cm = get_preset(preset)
    attr, _cluster = profile_transfer(scheme, dt, cost_model=cm)
    if preset == BASELINE_PRESET:
        moved = attr.dominant()
    else:
        base_attr, _ = profile_transfer(
            scheme, dt, cost_model=get_preset(BASELINE_PRESET)
        )
        moved = max(CATEGORIES, key=lambda c: attr.share(c) - base_attr.share(c))
    deltas = explain(scheme, cm, dt.flatten(1), dt.size, attr)
    return {
        "moved_category": moved,
        "shares": {c: round(attr.share(c), 4) for c in CATEGORIES},
        "divergent": [d.category for d in deltas if d.flagged],
        "total_us": round(attr.total_us, 3),
    }


def _attach_explanation(result: CheckResult) -> None:
    if result.scheme is None or result.figure is None or result.x is None:
        return
    result.explanation = explain_violation(
        result.scheme, result.preset, result.figure, result.x
    )
    moved = result.explanation["moved_category"]
    result.detail += f" [explained: {moved} moved]"


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


def _check_datatype_vs_manual(values, preset, schemes, lat_cols) -> list:
    g = GUIDELINES["datatype-vs-manual"]
    extra = _extra(preset)
    out = []
    for scheme in schemes:
        for x in lat_cols:
            lat = values[Cell("fig08", scheme, x, extra)]
            manual = values[Cell("fig02", "Manual", x, extra)]
            bound = manual * (1.0 + g.tolerance) + g.slack_us
            ok = lat <= bound
            out.append(
                CheckResult(
                    guideline=g.name,
                    preset=preset,
                    status="pass" if ok else "violation",
                    scheme=scheme,
                    figure="fig08",
                    x=x,
                    detail=(
                        f"datatype {lat:.1f}us vs manual {manual:.1f}us"
                        + ("" if ok else f" (bound {bound:.1f}us)")
                    ),
                    measured={
                        "latency_us": lat,
                        "manual_us": manual,
                        "ratio": lat / manual if manual else 0.0,
                    },
                )
            )
    return out


def _check_count_monotonic(values, preset, schemes, lat_cols) -> list:
    g = GUIDELINES["count-monotonic"]
    extra = _extra(preset)
    out = []
    for scheme in schemes:
        lats = [values[Cell("fig08", scheme, x, extra)] for x in lat_cols]
        bad = None
        for i in range(len(lats) - 1):
            if lats[i + 1] < lats[i] * (1.0 - g.tolerance) - g.slack_us:
                bad = i + 1
                break
        series = ", ".join(f"{x}:{v:.1f}us" for x, v in zip(lat_cols, lats))
        out.append(
            CheckResult(
                guideline=g.name,
                preset=preset,
                status="pass" if bad is None else "violation",
                scheme=scheme,
                figure="fig08",
                x=None if bad is None else lat_cols[bad],
                detail=(
                    f"latency over cols [{series}]"
                    + (
                        ""
                        if bad is None
                        else (
                            f"; decreased at cols={lat_cols[bad]} "
                            f"({lats[bad]:.1f} < {lats[bad - 1]:.1f}us)"
                        )
                    )
                ),
                measured={
                    "columns": list(lat_cols),
                    "latencies_us": [round(v, 3) for v in lats],
                },
            )
        )
    return out


def _check_scheme_dominance(values, preset, schemes, bw_cols) -> list:
    g = GUIDELINES["scheme-dominance"]
    extra = _extra(preset)
    x = max(bw_cols)
    base_bw = values[Cell("fig09", "generic", x, extra)]
    out = []
    for scheme in schemes:
        if scheme == "generic":
            continue
        bw = values[Cell("fig09", scheme, x, extra)]
        ok = bw >= base_bw * (1.0 - g.tolerance)
        if ok:
            status = "pass"
        elif preset == BASELINE_PRESET:
            status = "violation"
        else:
            status = "crossover-shift"
        out.append(
            CheckResult(
                guideline=g.name,
                preset=preset,
                status=status,
                scheme=scheme,
                figure="fig09",
                x=x,
                detail=(
                    f"{bw:.0f} MB/s vs generic {base_bw:.0f} MB/s"
                    + ("" if ok else f" ({bw / base_bw:.2f}x)")
                ),
                measured={
                    "bandwidth_mbps": bw,
                    "generic_mbps": base_bw,
                    "ratio": bw / base_bw if base_bw else 0.0,
                },
            )
        )
    return out


def _check_fastest_scheme_shift(values, presets, schemes, bw_cols) -> list:
    """Informational: did the fastest scheme change off-baseline?"""
    if BASELINE_PRESET not in presets:
        return []
    x = max(bw_cols)

    def fastest(preset):
        extra = _extra(preset)
        return max(schemes, key=lambda s: values[Cell("fig09", s, x, extra)])

    base_best = fastest(BASELINE_PRESET)
    out = []
    for preset in presets:
        if preset == BASELINE_PRESET:
            continue
        best = fastest(preset)
        shifted = best != base_best
        out.append(
            CheckResult(
                guideline="scheme-dominance",
                preset=preset,
                status="crossover-shift" if shifted else "pass",
                scheme=best,
                figure="fig09",
                x=x,
                detail=(
                    f"fastest scheme at cols={x}: {best}"
                    + (
                        f" (was {base_best} on {BASELINE_PRESET})"
                        if shifted
                        else " (unchanged vs baseline)"
                    )
                ),
                measured={
                    "fastest": best,
                    "baseline_fastest": base_best,
                },
            )
        )
    return out


def _check_eager_crossover(values, preset) -> list:
    g = GUIDELINES["eager-rendezvous-crossover"]
    extra = _extra(preset)
    sizes = crossover_sizes(preset)
    lats = [values[Cell("contig", _CONTIG_SCHEME, n, extra)] for n in sizes]
    bad = None
    for i in range(len(lats) - 1):
        if lats[i + 1] < lats[i] * (1.0 - g.tolerance) - g.slack_us:
            bad = i + 1
            break
    series = ", ".join(f"{n}B:{v:.1f}us" for n, v in zip(sizes, lats))
    return [
        CheckResult(
            guideline=g.name,
            preset=preset,
            status="pass" if bad is None else "violation",
            scheme=_CONTIG_SCHEME,
            figure="contig",
            x=None if bad is None else sizes[bad],
            detail=(
                f"contiguous latency around eager threshold [{series}]"
                + (
                    ""
                    if bad is None
                    else (
                        f"; inverted at {sizes[bad]}B "
                        f"({lats[bad]:.1f} < {lats[bad - 1]:.1f}us)"
                    )
                )
            ),
            measured={
                "sizes": list(sizes),
                "latencies_us": [round(v, 3) for v in lats],
            },
        )
    ]


def evaluate(
    values: dict,
    presets: Sequence[str] = DEFAULT_PRESETS,
    schemes: Sequence[str] = GUIDELINE_SCHEMES,
    lat_cols: Sequence[int] = LAT_COLUMNS,
    bw_cols: Sequence[int] = BW_COLUMNS,
    explain_violations: bool = True,
) -> list:
    """Classify every guideline over the measured grid.

    Deterministic: results come out in catalogue x preset x scheme x
    size order, independent of how the sweep was parallelized.
    """
    results: list[CheckResult] = []
    for preset in presets:
        results.extend(_check_datatype_vs_manual(values, preset, schemes, lat_cols))
        results.extend(_check_count_monotonic(values, preset, schemes, lat_cols))
        results.extend(_check_scheme_dominance(values, preset, schemes, bw_cols))
        results.extend(_check_eager_crossover(values, preset))
    results.extend(_check_fastest_scheme_shift(values, presets, schemes, bw_cols))
    if explain_violations:
        for result in results:
            if result.status == "violation":
                _attach_explanation(result)
    return results


def run_check(
    presets: Sequence[str] = DEFAULT_PRESETS,
    schemes: Sequence[str] = GUIDELINE_SCHEMES,
    lat_cols: Sequence[int] = LAT_COLUMNS,
    bw_cols: Sequence[int] = BW_COLUMNS,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    explain_violations: bool = True,
) -> list:
    """Sweep + evaluate in one call (the CLI's core)."""
    values = sweep(presets, schemes, lat_cols, bw_cols, jobs, use_cache)
    return evaluate(values, presets, schemes, lat_cols, bw_cols, explain_violations)
