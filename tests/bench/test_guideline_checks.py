"""The cross-preset guideline checks, each one cell of one claims row.

``golden/guidelines_checks.json`` pins the 179 checks of the retired
guidelines harness as ``[guideline, preset, scheme, figure, x, status,
waived]``, sorted.  :func:`covered` lists the check every cell of a
``presets`` / ``contig`` row of :data:`~repro.bench.claims.CLAIMS`
stands for, with the status its row's verdict means; the list must be
the pin, so no check was lost, none is counted twice, and a passing
check is a ✅ row, a waived violation an ❌ row and a crossover-shift a
🟡 row.  Runs no simulation: the rows read ``results/presets.csv`` and
``results/contig.csv``.
"""

import json
from collections import Counter
from pathlib import Path

from repro.bench import claims
from repro.bench.claims import CLAIMS, MISSED, OK, SHIFTED, evaluate
from repro.bench.sweeps import ERAS
from repro.schemes import SCHEME_NAMES

GOLDEN = Path(__file__).parent / "golden" / "guidelines_checks.json"
TABLES = claims.load(Path(__file__).parents[2])
ROWS = {c.id: c for c in CLAIMS}
STATUS = {OK: ("pass", False), MISSED: ("violation", True), SHIFTED: ("crossover-shift", False)}


def covered():
    """``(check, row id)`` for every check a row stands for.  ``x`` is
    the harness's: a monotonicity check names the size it broke at."""

    def check(row, guideline, preset, scheme, figure, x):
        return [guideline, preset, scheme, figure, x, *STATUS[ROWS[row].expect]], row

    for p, s, x in claims._LATENCIES:
        behind = (p, s, x) in claims._behind(s)
        row = f"presets/{s}-behind-manual" if behind else "presets/datatype-vs-manual"
        yield check(row, "datatype-vs-manual", p, s, "fig08", x)
    for p in ERAS:
        for s in SCHEME_NAMES:
            if f"{p}:{s}" in claims._DIPPING:
                yield check("presets/p-rrs-pipeline-dip", "count-monotonic", p, s,
                            "fig08", 64)
            else:
                yield check("presets/count-monotonic", "count-monotonic", p, s,
                            "fig08", None)
        for s in SCHEME_NAMES[1:]:
            yield check("presets/specialized-beat-generic", "scheme-dominance", p, s,
                        "fig09", 512)
        if p == "gpu_kernel_pack":
            yield check("contig/gpu-rendezvous-beats-eager",
                        "eager-rendezvous-crossover", p, "bc-spup", "contig", 16384)
        else:
            yield check("contig/no-inversion", "eager-rendezvous-crossover", p,
                        "bc-spup", "contig", None)
    # did the testbed's fastest scheme at 512 cols stay fastest?
    for p in ERAS[1:4]:
        yield check("presets/bc-spup-fastest", "scheme-dominance", p, "bc-spup",
                    "fig09", 512)
    yield check("presets/gpu-rwg-up-fastest", "scheme-dominance", "gpu_kernel_pack",
                "rwg-up", "fig09", 512)


def test_every_pinned_check_is_one_cell_of_one_row():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted((c for c, _ in covered()), key=json.dumps) == pinned
    assert Counter(tuple(c[5:]) for c in pinned) == {
        ("pass", False): 157, ("violation", True): 21, ("crossover-shift", False): 1,
    }


def test_each_row_has_the_verdict_of_its_checks():
    for row in dict.fromkeys(r for _, r in covered()):
        claim = ROWS[row]
        outcome = evaluate(claim, *TABLES[claim.sweep])
        assert outcome.verdict == claim.expect, outcome.message


def test_every_preset_row_stands_for_checks():
    rows = {c.id for c in CLAIMS if c.sweep in ("presets", "contig")}
    assert rows == {r for _, r in covered()}
