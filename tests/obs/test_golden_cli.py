"""Golden-text pin of the simulated-time CLIs.

Everything these commands print is simulated microseconds or counts, so
it is bit-for-bit deterministic; the files under ``golden/`` are the
outputs of the commit that introduced this test, and a refactor of the
obs/bench plumbing must leave them byte-identical.  Regenerate (only for
an intended cost-model or protocol change) with the command in each
test's docstring, redirected into the golden file.
"""

import hashlib
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

pytestmark = pytest.mark.faultfree


def _assert_golden(capsys, name):
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "extra, name",
    [
        ([], "report_fig09_65536.txt"),
        (["--format", "json"], "report_fig09_65536.json"),
    ],
)
def test_obs_report(capsys, extra, name):
    """``python -m repro.obs report --workload fig09 --sizes 65536``"""
    from repro.obs.__main__ import main

    assert main(["report", "--workload", "fig09", "--sizes", "65536", *extra]) == 0
    _assert_golden(capsys, name)


def test_obs_profile(capsys):
    """``python -m repro.obs profile fig09 --size 65536``"""
    from repro.obs.__main__ import main

    assert main(["profile", "fig09", "--size", "65536"]) == 0
    _assert_golden(capsys, "profile_fig09_65536.txt")


def test_obs_profile_chrome(capsys, tmp_path):
    """``python -m repro.obs profile fig09 --size 65536 --chrome-trace P``:
    the SHA-256 of each file it writes, named without the prefix (``sha256sum``
    format; the content does not depend on the prefix)."""
    from repro.obs.__main__ import main

    prefix = tmp_path / "P"
    args = ["profile", "fig09", "--size", "65536", "--chrome-trace", str(prefix)]
    assert main(args) == 0
    capsys.readouterr()
    got = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name[2:]}\n"
        for path in sorted(tmp_path.glob("P.*.json"))
    )
    assert got == (GOLDEN / "profile_fig09_65536.chrome.sha256").read_text()


def test_bench_overlap(capsys):
    """``python -m repro.bench overlap``"""
    from repro.bench.__main__ import main

    assert main(["overlap"]) == 0
    _assert_golden(capsys, "bench_overlap.txt")
