"""Acceptance criterion: the deterministic layers never consult the wall
clock.

All observability values must be event counts or simulated microseconds;
``time.time`` / ``perf_counter`` anywhere in ``repro.obs`` would leak
host timing into deterministic results.  The same holds one layer down:
the engine (``repro.simulator``) and the datatype engine
(``repro.datatypes``) read no clock either — host-time attribution
reaches them only through generic seams (``Simulator.dispatch_hook``,
``pack.probe``) with the clock injected from ``repro.mpi.world``.

The same file-scanning style pins the layering (docs/ARCHITECTURE.md
"who may import whom"): the core never imports ``repro.obs`` — its two
instruments live in ``repro.simulator`` — except for the one lazy
host-profiler attach point in ``repro.mpi.world``; and ``repro.obs``
never builds a world of its own.
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


#: the only ``repro.obs`` import below bench: inside ``Cluster.__init__``
#: (file: stripped line), taken only when a host profiler was asked for
ALLOWED_OBS_IMPORTS = {
    "mpi": ["mpi/world.py: from repro.obs.hostprof import HostProfiler"],
}
MODULE_LEVEL_OBS_IMPORT = re.compile(OBS_IMPORT.pattern.replace(r"^\s*", "^"))


@pytest.mark.parametrize(
    "package",
    ["simulator", "datatypes", "ib", "registration", "schemes", "faults", "mpi"],
)
def test_engine_layers_do_not_import_obs(package):
    found = [re.sub(r":\d+:", ":", entry) for entry in offenders(package, OBS_IMPORT)]
    assert found == ALLOWED_OBS_IMPORTS.get(package, []), (
        f"repro.{package} imports repro.obs:\n" + "\n".join(found)
    )
    assert not offenders(package, MODULE_LEVEL_OBS_IMPORT)


def test_obs_builds_no_cluster():
    """Worlds come from ``bench/runner.py`` (and ``repro.workloads``);
    ``repro.obs`` only reads the instruments a run leaves behind."""
    found = offenders("obs", re.compile(r"\bCluster\("))
    assert not found, "repro.obs constructs a Cluster:\n" + "\n".join(found)
