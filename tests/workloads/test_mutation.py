"""Mutation test: the fuzzer must re-find the PR 2 matching-order bug.

The mutant lives here, not in production: ``RankContext._admit`` is
monkeypatched to deliver envelopes on arrival, reverting the per-source
sequence-order admission fix (a fast rendezvous start can then overtake
an earlier eager payload in the same stream).  With the mutant in place,
(a) the corpus seed program must fail its oracle on every scheme, and
(b) the grammar fuzzer must find a counterexample within a slice of the
CI time box — proof that the fuzz effort actually covers the protocol
corner the bug lives in.
"""

from pathlib import Path

import pytest

from repro.mpi.context import RankContext
from repro.mpi.errors import TruncationError
from repro.schemes import SCHEME_NAMES
from repro.workloads import parse
from repro.workloads.fuzz import check_workload, fuzz_time_boxed

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _admit_on_arrival(self, src, seq, envelope):
    """The pre-fix ``_admit``: no sequencing, first arrival wins."""
    yield from self._deliver_envelope(envelope)


@pytest.fixture
def broken_matching_order(monkeypatch):
    monkeypatch.setattr(RankContext, "_admit", _admit_on_arrival)


def _overtake():
    return parse((CORPUS_DIR / "eager_rndv_overtake.json").read_text())


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_corpus_seed_detects_reverted_fix(broken_matching_order, scheme):
    # the overtaking 12000-byte rendezvous start matches the 4096-byte
    # receive posted for the eager message: caught as a truncation, or
    # (layouts that happen to fit) as a payload mismatch
    with pytest.raises((AssertionError, TruncationError)):
        check_workload(_overtake(), scheme=scheme)


@pytest.mark.slow
@pytest.mark.faultfree
def test_fuzzer_refinds_matching_order_bug(monkeypatch, tmp_path):
    fixed_admit = RankContext._admit
    monkeypatch.setattr(RankContext, "_admit", _admit_on_arrival)
    report = fuzz_time_boxed(
        90, seed=42, artifact_dir=str(tmp_path)
    )
    assert not report.ok, (
        f"fuzzer missed the reverted ordering fix after "
        f"{report.examples} examples / {report.elapsed:.0f}s"
    )
    # the shrunk counterexample is a valid corpus candidate: it fails
    # only while the fix is reverted
    path = report.failure["path"]
    assert path is not None and Path(path).is_file()
    counterexample = parse(Path(path).read_text())
    monkeypatch.setattr(RankContext, "_admit", fixed_admit)
    check_workload(counterexample)
