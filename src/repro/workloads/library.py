"""Checked-in workload traces recorded from the ``examples/`` patterns.

The library is the set of ``.json`` files next to this module (shipped
as package data).  Each file is a byte-stable serialization of one
recorded pattern run — loading and re-serializing it reproduces the file
exactly, which keeps the traces diff-reviewable.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.workloads.ir import Workload, WorkloadError, parse

__all__ = [
    "library_dir",
    "library_names",
    "load_workload",
]


def library_dir() -> Path:
    """Directory holding the checked-in workload JSON files."""
    return Path(__file__).resolve().parent / "library"


def library_names() -> tuple:
    """Names of the checked-in workloads, sorted."""
    return tuple(sorted(p.stem for p in library_dir().glob("*.json")))


@lru_cache(maxsize=None)
def load_workload(name: str) -> Workload:
    """Load a checked-in workload by name (no ``.json`` suffix)."""
    path = library_dir() / f"{name}.json"
    if not path.is_file():
        raise WorkloadError(
            f"unknown library workload {name!r}; "
            f"choose from {', '.join(library_names()) or '(empty library)'}"
        )
    return parse(path.read_text())
