"""Acceptance criterion: the deterministic layers never consult the wall
clock.

All observability values must be event counts or simulated microseconds;
``time.time`` / ``perf_counter`` anywhere in ``repro.obs`` would leak
host timing into deterministic results.  The same holds one layer down:
the engine (``repro.simulator``) and the datatype engine
(``repro.datatypes``) read no clock either — host-time attribution
reaches them only through generic seams (``Simulator.dispatch_hook``,
``pack.probe``) with the clock injected from ``repro.mpi.world`` — and
they do not import ``repro.obs`` at all.
"""

import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent

FORBIDDEN = re.compile(r"time\.time|perf_counter|monotonic\(|datetime\.now")
OBS_IMPORT = re.compile(r"^\s*(from|import)\s+repro(\.obs\b|\s+import\s+obs\b)")


def offenders(package, pattern):
    return [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted((SRC / package).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def test_obs_package_has_no_wallclock_calls():
    found = offenders("obs", FORBIDDEN)
    assert not found, "wall-clock use in repro.obs:\n" + "\n".join(found)


@pytest.mark.parametrize("package", ["simulator", "datatypes"])
def test_engine_layers_have_no_wallclock_calls(package):
    found = offenders(package, FORBIDDEN)
    assert not found, f"wall-clock use in repro.{package}:\n" + "\n".join(found)


@pytest.mark.parametrize("package", ["simulator", "datatypes"])
def test_engine_layers_do_not_import_obs(package):
    found = offenders(package, OBS_IMPORT)
    assert not found, f"repro.{package} imports repro.obs:\n" + "\n".join(found)
