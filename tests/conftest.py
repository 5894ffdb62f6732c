"""Suite-wide fixtures: fault-profile fencing for timing assertions.

The CI fault matrix runs this whole suite under ``REPRO_FAULT_PROFILE``
(none / lossy / flaky-hca) to prove that every data-movement path still
delivers correct bytes with faults injected.  Tests that assert
*simulated timings* — calibration anchors, scheme performance orderings,
benchmark statistics — are meaningless with injected faults perturbing
the clock; they carry the ``faultfree`` marker and run with the profile
pinned back to inert regardless of the environment.

Hypothesis profiles: CI selects ``HYPOTHESIS_PROFILE=ci`` so the fuzz
tests are derandomized (seeded from each test's source) and fully
reproducible across reruns; local runs keep the default randomized
exploration.
"""

import os

import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default")
)


FAULT_ENV = ("REPRO_FAULT_PROFILE", "REPRO_FAULT_SEED")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faultfree: pin REPRO_FAULT_PROFILE=none — the test asserts "
        "simulated timings, which fault injection perturbs",
    )
    config.addinivalue_line(
        "markers",
        "slow: multi-second test (process-pool sweeps, full-grid "
        "equivalence); deselect with `-m 'not slow'`",
    )


@pytest.fixture(autouse=True)
def _pin_fault_profile(request, monkeypatch):
    """Strip the fault-profile environment for ``faultfree`` tests."""
    if request.node.get_closest_marker("faultfree") is not None:
        for name in FAULT_ENV:
            monkeypatch.delenv(name, raising=False)


@pytest.fixture(autouse=True, scope="session")
def _fault_profile_outlives_the_session():
    """The fault matrix means what it says only if the profile it sets is
    still in force when the last test runs: fail the session if anything
    stripped it from the live environment."""
    before = {name: os.environ.get(name) for name in FAULT_ENV}
    yield
    assert {name: os.environ.get(name) for name in FAULT_ENV} == before
