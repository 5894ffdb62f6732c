"""Bench-test fixtures: keep sweep output away from checked-in results/.

Every sweep writes its CSV to a relative ``results/...`` path, so a test
run from the repo root would silently overwrite the checked-in
reproduction data with tiny smoke-test sweeps.  Every test in this
directory therefore gets ``REPRO_RESULTS_DIR`` pointed at one shared
temporary directory (tests that compare CSV bytes take their own, see
``test_parallel.py::isolated_dirs``).
"""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def bench_results_dir(tmp_path_factory):
    """Redirect relative write_csv() paths into a temp dir for the session."""
    d = tmp_path_factory.mktemp("bench-results")
    old = os.environ.get("REPRO_RESULTS_DIR")
    os.environ["REPRO_RESULTS_DIR"] = str(d)
    yield d
    if old is None:
        os.environ.pop("REPRO_RESULTS_DIR", None)
    else:
        os.environ["REPRO_RESULTS_DIR"] = old


@pytest.fixture(autouse=True, scope="session")
def bench_cache_dir(tmp_path_factory):
    """Point the sweep result cache away from the repo's .repro-cache/.

    Same rationale as ``bench_results_dir``: test sweeps must never
    populate (or read) the developer's real cell cache.
    """
    d = tmp_path_factory.mktemp("bench-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(d)
    yield d
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
