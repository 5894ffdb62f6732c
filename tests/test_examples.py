"""Every example script must run to completion and self-verify."""

import glob
import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SCRIPTS = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(EXAMPLES, "*.py"))
)


def test_examples_found():
    assert SCRIPTS, f"no example scripts under {EXAMPLES}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    path = os.path.join(EXAMPLES, script)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
