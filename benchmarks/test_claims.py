"""Every row of the claims table, re-asserted on a fresh sweep (tier-1's
``tests/bench/test_claims.py`` asserts them on ``results/*.csv``)."""

import pytest

from repro.bench.claims import CLAIMS, evaluate


@pytest.mark.parametrize("sweep", dict.fromkeys(c.sweep for c in CLAIMS))
def test_claims_hold_on_a_fresh_sweep(run_figure, sweep):
    xs, out = run_figure(sweep)
    ys = {key: series.y for key, series in out.items()}
    unexpected = [
        outcome.message
        for claim in CLAIMS
        if claim.sweep == sweep
        and (outcome := evaluate(claim, xs, ys)).verdict != claim.expect
    ]
    assert not unexpected, "\n".join(unexpected)
